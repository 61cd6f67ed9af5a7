// Seeded single-node plan corruptions for the verifier's mutation harness.
//
// Every mutation models one class of compiler bug (an arity off-by-one, a
// dangling column index, a dropped projection expression, swapped join
// inputs, a broken materialization slot, ...). tests/verify_test.cc applies
// each mutation to plans from the paper corpus and random queries and
// asserts the stage-boundary verifier rejects the result with the expected
// rule id — proving the rules have teeth, not just that clean plans pass.
//
// PlanMutator is a friend of AlgExpr and PhysicalPlan: corrupt nodes cannot
// be built through AlgebraFactory (it validates at construction), so the
// mutator clones plans and edits the private fields directly.
#ifndef EMCALC_VERIFY_MUTATE_H_
#define EMCALC_VERIFY_MUTATE_H_

#include <unordered_map>

#include "src/algebra/ast.h"
#include "src/exec/physical.h"

namespace emcalc::verify {

// One corruption. kAlg* mutations clone an algebra plan; kPhys* mutations
// edit a lowered PhysicalPlan in place.
enum class Mutation : uint8_t {
  // Algebra layer.
  kAlgProjectArityUp,      // kProject declared arity + 1
  kAlgProjectDropExpr,     // drop the last output expression
  kAlgProjectNullExpr,     // null out an output expression
  kAlgProjectDanglingCol,  // output expression reads one past the input
  kAlgSelectDanglingCol,   // condition reads one past the input
  kAlgSelectNullCond,      // condition with null sides
  kAlgSelectArityUp,       // kSelect arity != input arity
  kAlgJoinDanglingCol,     // condition reads past the concatenated schema
  kAlgJoinArityDown,       // kJoin arity != left + right
  kAlgUnionArityUp,        // kUnion arity disagrees with its operands
  kAlgDiffOperandMismatch, // kDiff operands of different arity
  kAlgRelNegativeArity,    // kRel arity -1
  kAlgUnitNonZeroArity,    // kUnit with arity 1
  kAlgParamOutOfRange,     // kParam index beyond the query's parameters
  kAlgDropInputChild,      // unary node loses its input
  kAlgLeafExtraChild,      // leaf node grows a child
  kAlgInjectAdom,          // kAdom inside a directly-translated plan
  kAlgSelfCycle,           // unary node becomes its own input
  // Physical layer.
  kPhysProjectDropExpr,    // ProjectMap loses an output expression
  kPhysProjectDanglingCol, // ProjectMap expression reads past the input
  kPhysFilterDanglingCol,  // FilterSelect condition reads past the input
  kPhysFilterNullCond,     // FilterSelect condition with null sides
  kPhysJoinNullKey,        // HashJoin key with a null side
  kPhysJoinKeyWrongSide,   // probe key reads a build-side column
  kPhysJoinSplitSkew,      // join split != left input arity
  kPhysSwapJoinInputs,     // swapped join operands (unequal arities)
  kPhysJoinDropProgram,    // HashJoin loses its compiled build-key program
  kPhysAntiSplitSkew,      // anti-join DiffAnti split != left input arity
  kPhysAntiKeyMismatch,    // anti-join DiffAnti key is not a join condition
  kPhysScanArityUp,        // Scan arity disagrees with the algebra
  kPhysUnionArityUp,       // UnionMerge arity disagrees with its inputs
  kPhysMemoDuplicate,      // two Materialize ops share a cache slot
  kPhysMemoOutOfRange,     // Materialize slot outside the slot table
  kPhysConsumersUnderflow, // Materialize with a single consumer
  kPhysDuplicateOpId,      // two operators share a stats/memory slot id
  kPhysDropChild,          // unary operator loses its input
};

// First and last enumerators, for iteration in the harness.
inline constexpr Mutation kFirstMutation = Mutation::kAlgProjectArityUp;
inline constexpr Mutation kLastMutation = Mutation::kPhysDropChild;

// Stable display name, e.g. "alg-project-arity-up".
const char* MutationName(Mutation m);

// The verifier rule id the mutation must trip, e.g. "alg.project-arity".
const char* ExpectedRule(Mutation m);

// True for kPhys* mutations (applied to a lowered plan).
bool IsPhysicalMutation(Mutation m);

// Applies corruptions. Methods return the corrupted plan (or true) when an
// applicable node was found, and nullptr (or false) when the plan has no
// node the mutation applies to.
class PlanMutator {
 public:
  // `ctx` must be the context the plans were built into.
  explicit PlanMutator(AstContext& ctx) : ctx_(ctx) {}

  // Clones `plan` (sharing preserved) and applies `m` to the first
  // applicable node in preorder.
  const AlgExpr* Corrupt(const AlgExpr* plan, Mutation m);

  // Applies `m` in place to the first applicable operator (creation
  // order). The plan must have been lowered from `ctx`.
  bool Corrupt(PhysicalPlan& plan, Mutation m);

 private:
  AlgExpr* Clone(const AlgExpr* node);
  AlgExpr* FindFirst(const AlgExpr* original, AlgKind kind);
  AlgExpr* NewLeaf(AlgKind kind, int arity);

  AstContext& ctx_;
  std::unordered_map<const AlgExpr*, AlgExpr*> clones_;
};

}  // namespace emcalc::verify

#endif  // EMCALC_VERIFY_MUTATE_H_
