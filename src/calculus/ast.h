// Abstract syntax for the relational calculus with scalar functions
// (Section 4 of the paper).
//
// Terms are variables, constants, and applications f(t1,...,tn) of scalar
// function symbols. Formulas are relation atoms R(t1,...,tn), equalities
// t1 = t2, inequalities t1 != t2, boolean connectives, and quantifiers.
// A query is {x1,...,xn | phi}.
//
// Nodes are immutable and arena-allocated; rewrites build new nodes that
// share unchanged subtrees. All nodes are trivially destructible (constants
// are interned in a pool owned by the AstContext). Each node has room for
// the source span it was parsed from (see AstContext::SpanOf).
#ifndef EMCALC_CALCULUS_AST_H_
#define EMCALC_CALCULUS_AST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/arena.h"
#include "src/base/symbol.h"
#include "src/base/value.h"
#include "src/diag/source.h"

namespace emcalc {

class AstContext;

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

// A term over variables, interned constants, and scalar function symbols.
class Term {
 public:
  enum class Kind : uint8_t { kVar, kConst, kApply };

  Kind kind() const { return kind_; }
  bool is_var() const { return kind_ == Kind::kVar; }
  bool is_const() const { return kind_ == Kind::kConst; }
  bool is_apply() const { return kind_ == Kind::kApply; }

  // kVar: the variable symbol. kApply: the function symbol.
  Symbol symbol() const { return symbol_; }

  // kConst: index into the owning AstContext's constant pool.
  uint32_t const_id() const { return const_id_; }

  // kApply: argument terms.
  std::span<const Term* const> args() const {
    return std::span<const Term* const>(args_, num_args_);
  }

 private:
  friend class AstContext;
  Term(Kind kind, Symbol symbol, uint32_t const_id, const Term* const* args,
       uint32_t num_args)
      : kind_(kind),
        symbol_(symbol),
        const_id_(const_id),
        num_args_(num_args),
        args_(args) {}

  Kind kind_;
  bool has_span_ = false;
  Symbol symbol_;
  uint32_t const_id_;
  uint32_t num_args_;
  const Term* const* args_;
  diag::SourceSpan span_;
};
static_assert(sizeof(Term) <= 32, "Term grew past 32 bytes");

// ---------------------------------------------------------------------------
// Formulas
// ---------------------------------------------------------------------------

// Formula node kinds. kEq atoms are "positive" (they can carry bounding
// information via FinDs); kNeq and kLess/kLessEq atoms are "negative" — a
// deliberate departure from GT91, taken from the paper (Section 7). The
// order comparisons are the paper's Section 9(d) extension: externally
// defined predicates like '<' that give no bounding information.
enum class FormulaKind : uint8_t {
  kTrue,    // the empty conjunction
  kFalse,   // the empty disjunction
  kRel,     // R(t1,...,tn)
  kEq,      // t1 = t2
  kNeq,     // t1 != t2
  kLess,    // t1 < t2   (over the Value order: ints, then strings)
  kLessEq,  // t1 <= t2
  kNot,     // not phi
  kAnd,     // phi1 and ... and phin  (n >= 2)
  kOr,      // phi1 or ... or phin    (n >= 2)
  kExists,  // exists x1,...,xk (phi)
  kForall,  // forall x1,...,xk (phi)
};

// An immutable formula node.
class Formula {
 public:
  FormulaKind kind() const { return kind_; }

  bool is(FormulaKind k) const { return kind_ == k; }

  // kRel: the relation symbol.
  Symbol rel() const { return symbol_; }

  // kRel: argument terms.
  std::span<const Term* const> terms() const {
    return std::span<const Term* const>(terms_, num_terms_);
  }

  // kEq / kNeq: the two sides.
  const Term* lhs() const { return terms_[0]; }
  const Term* rhs() const { return terms_[1]; }

  // kNot: the negated formula. kExists/kForall: the body.
  const Formula* child() const { return children_[0]; }

  // kAnd / kOr: the juncts.
  std::span<const Formula* const> children() const {
    return std::span<const Formula* const>(children_, num_children_);
  }

  // kExists / kForall: the quantified variables (non-empty, distinct).
  std::span<const Symbol> vars() const {
    return std::span<const Symbol>(vars_, num_vars_);
  }

  // Nodes are created through AstContext; the public default constructor
  // exists only so the arena can placement-new them.
  Formula() = default;

 private:
  friend class AstContext;

  FormulaKind kind_ = FormulaKind::kTrue;
  bool has_span_ = false;
  Symbol symbol_;
  uint32_t num_terms_ = 0;
  uint32_t num_children_ = 0;
  uint32_t num_vars_ = 0;
  diag::SourceSpan span_;
  const Term* const* terms_ = nullptr;
  const Formula* const* children_ = nullptr;
  const Symbol* vars_ = nullptr;
};
static_assert(sizeof(Formula) <= 56, "Formula grew past 56 bytes");

// A calculus query {head | body}. `head` lists the output variables, which
// must all occur free in `body` (checked by the safety analysis, not here).
struct Query {
  std::vector<Symbol> head;
  const Formula* body = nullptr;
};

// ---------------------------------------------------------------------------
// AstContext
// ---------------------------------------------------------------------------

// Owns the arena, the symbol table, and the constant pool for a set of
// formulas. Every node-producing pass takes the context it should build
// into; nodes from the same context may be mixed freely.
class AstContext {
 public:
  AstContext() = default;
  AstContext(const AstContext&) = delete;
  AstContext& operator=(const AstContext&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // Interns `v` and returns its pool index.
  uint32_t InternConstant(const Value& v);
  // The value for a pool index.
  const Value& ConstantAt(uint32_t id) const;
  // Number of interned constants; valid pool ids are [0, NumConstants()).
  // The stage-boundary verifier range-checks every kConst against this.
  size_t NumConstants() const { return constants_.size(); }

  // --- term constructors ---
  const Term* MakeVar(Symbol v);
  const Term* MakeVar(std::string_view name);
  const Term* MakeConst(const Value& v);
  const Term* MakeApply(Symbol fn, std::span<const Term* const> args);
  const Term* MakeApply(std::string_view fn,
                        std::initializer_list<const Term*> args);

  // --- formula constructors (raw; see builder.h for normalizing helpers) ---
  const Formula* True();
  const Formula* False();
  const Formula* MakeRel(Symbol rel, std::span<const Term* const> args);
  const Formula* MakeEq(const Term* lhs, const Term* rhs);
  const Formula* MakeNeq(const Term* lhs, const Term* rhs);
  const Formula* MakeLess(const Term* lhs, const Term* rhs);
  const Formula* MakeLessEq(const Term* lhs, const Term* rhs);
  const Formula* MakeNot(const Formula* f);
  // n-ary; requires children.size() >= 2 (use builder::And/Or for the
  // normalizing versions that accept any arity).
  const Formula* MakeAnd(std::span<const Formula* const> children);
  const Formula* MakeOr(std::span<const Formula* const> children);
  const Formula* MakeExists(std::span<const Symbol> vars, const Formula* body);
  const Formula* MakeForall(std::span<const Symbol> vars, const Formula* body);

  Arena& arena() { return arena_; }

  // --- source spans (src/diag/) ---
  //
  // The parser records the byte range of the query text each node was read
  // from; rewrites copy spans onto replacement nodes with InheritSpan. The
  // span is stored in the node itself. Programmatically built nodes have
  // none, so every consumer must treat SpanOf as optional. The shared
  // kTrue/kFalse singletons never get spans (one node serves many parses).

  // Records `span` for `node`; later calls overwrite.
  void NoteSpan(const Formula* node, diag::SourceSpan span);
  void NoteSpan(const Term* node, diag::SourceSpan span);
  // Copies `from`'s span onto `to` if `from` has one and `to` does not.
  void InheritSpan(const Formula* to, const Formula* from);
  void InheritSpan(const Term* to, const Term* from);
  // The recorded span, or nullptr.
  const diag::SourceSpan* SpanOf(const Formula* node) const;
  const diag::SourceSpan* SpanOf(const Term* node) const;

 private:
  template <typename NodeT>
  static void SetSpan(const NodeT* node, diag::SourceSpan span);

  Arena arena_;
  SymbolTable symbols_;
  std::vector<Value> constants_;
  std::unordered_map<Value, uint32_t> constant_ids_;
  const Formula* true_ = nullptr;
  const Formula* false_ = nullptr;
};

// Structural equality of terms/formulas (same context assumed; bound
// variables are compared by name, i.e. no alpha-equivalence).
bool TermsEqual(const Term* a, const Term* b);
bool FormulasEqual(const Formula* a, const Formula* b);

}  // namespace emcalc

#endif  // EMCALC_CALCULUS_AST_H_
