// The extended relational algebra (Section 4 of the paper; a subset of the
// Heraclitus[Alg,C] algebra [GHJ92, GHJ93]). Positional, with an extended
// projection that applies scalar functions point-wise:
//
//   project([@1, f(@1)], R)    — one output tuple per input tuple
//   select({@1 == g(@2)}, E)   — filter by scalar conditions
//   join({@2 == @4}, E1, E2)   — conditions over the concatenated schema
//   E1 + E2, E1 - E2           — union / difference (set semantics)
//   unit                       — the arity-0 relation containing ()
//   empty_k                    — the empty relation of arity k
//   adom^k                     — unary: term^k of the active domain (used
//                                only by the AB88-style baseline translator)
#ifndef EMCALC_ALGEBRA_AST_H_
#define EMCALC_ALGEBRA_AST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/algebra/expr.h"
#include "src/base/symbol.h"
#include "src/calculus/ast.h"

namespace emcalc {

namespace verify {
class PlanMutator;
}  // namespace verify

// Operator tags for AlgExpr.
enum class AlgKind : uint8_t {
  kRel,        // base relation scan
  kProject,    // extended projection
  kSelect,     // selection by conditions
  kJoin,       // conditional join (empty condition set = product)
  kUnion,      // set union
  kDiff,       // set difference
  kUnit,       // arity-0 relation containing the empty tuple
  kEmpty,      // empty relation of given arity
  kAdom,       // term^level(active domain + listed constants)
};

// Number of AlgKind tags; static_asserts next to each kind-dispatch table
// keep the tables in sync when a kind is added.
inline constexpr int kNumAlgKinds = 9;

// Stable display name, e.g. "kJoin".
const char* AlgKindName(AlgKind kind);

// Comparison operators available in select/join conditions. kLt/kLe use
// the total order on Values (ints before strings).
enum class AlgCompareOp : uint8_t { kEq, kNe, kLt, kLe };

// A comparison between two scalar expressions. In kJoin conditions, column
// indices refer to the concatenated (left ++ right) schema.
struct AlgCondition {
  const ScalarExpr* lhs = nullptr;
  AlgCompareOp op = AlgCompareOp::kEq;
  const ScalarExpr* rhs = nullptr;
};

// An immutable algebra plan node with a fixed output arity.
class AlgExpr {
 public:
  AlgKind kind() const { return kind_; }
  int arity() const { return arity_; }

  // kRel: relation name.
  Symbol rel() const { return rel_; }

  // kProject: output expressions (one per output column).
  std::span<const ScalarExpr* const> exprs() const {
    return std::span<const ScalarExpr* const>(exprs_, num_exprs_);
  }

  // kSelect / kJoin: conditions.
  std::span<const AlgCondition> conds() const {
    return std::span<const AlgCondition>(conds_, num_conds_);
  }

  // Children: kProject/kSelect have one, kJoin/kUnion/kDiff have two.
  const AlgExpr* left() const { return left_; }
  const AlgExpr* right() const { return right_; }
  const AlgExpr* input() const { return left_; }

  // kAdom: closure level and the functions/constants to close under.
  int adom_level() const { return adom_level_; }
  std::span<const Symbol> adom_fns() const {
    return std::span<const Symbol>(adom_fns_, num_adom_fns_);
  }
  std::span<const Value> adom_consts() const {
    return std::span<const Value>(adom_consts_, num_adom_consts_);
  }

  // Number of plan nodes (plan-size metric for the experiments).
  int NodeCount() const;

  AlgExpr() = default;  // for arena placement-new; build via AlgebraFactory

 private:
  friend class AlgebraFactory;
  // The mutation harness (src/verify/mutate.h) builds deliberately corrupt
  // clones to prove the stage-boundary verifier catches them; it must
  // bypass the factory's construction-time checks.
  friend class verify::PlanMutator;

  AlgKind kind_ = AlgKind::kUnit;
  int arity_ = 0;
  Symbol rel_;
  const AlgExpr* left_ = nullptr;
  const AlgExpr* right_ = nullptr;
  const ScalarExpr* const* exprs_ = nullptr;
  uint32_t num_exprs_ = 0;
  const AlgCondition* conds_ = nullptr;
  uint32_t num_conds_ = 0;
  int adom_level_ = 0;
  const Symbol* adom_fns_ = nullptr;
  uint32_t num_adom_fns_ = 0;
  const Value* adom_consts_ = nullptr;
  uint32_t num_adom_consts_ = 0;
};

// Builds algebra nodes into an AstContext's arena, validating arities and
// column references at construction time.
class AlgebraFactory {
 public:
  explicit AlgebraFactory(AstContext& ctx) : ctx_(ctx), exprs_(ctx) {}

  const AlgExpr* Rel(Symbol name, int arity);
  const AlgExpr* Rel(std::string_view name, int arity);
  const AlgExpr* Project(std::vector<const ScalarExpr*> exprs,
                         const AlgExpr* input);
  const AlgExpr* Select(std::vector<AlgCondition> conds, const AlgExpr* input);
  const AlgExpr* Join(std::vector<AlgCondition> conds, const AlgExpr* left,
                      const AlgExpr* right);
  const AlgExpr* Union(const AlgExpr* left, const AlgExpr* right);
  const AlgExpr* Diff(const AlgExpr* left, const AlgExpr* right);
  const AlgExpr* Unit();
  const AlgExpr* Empty(int arity);
  const AlgExpr* Adom(int level, std::vector<Symbol> fns,
                      std::vector<Value> consts);

  ExprFactory& exprs() { return exprs_; }
  AstContext& ctx() { return ctx_; }

 private:
  AlgExpr* NewNode(AlgKind kind, int arity);

  AstContext& ctx_;
  ExprFactory exprs_;
};

// Structural equality of plans.
bool AlgExprsEqual(const AlgExpr* a, const AlgExpr* b);

}  // namespace emcalc

#endif  // EMCALC_ALGEBRA_AST_H_
