// The physical execution layer: logical algebra plans (src/algebra/ast.h)
// are lowered (src/exec/lower.h) into trees of physical operators that
// exchange relations by shared ownership (std::shared_ptr<const Relation>)
// instead of by value. Each operator records runtime statistics — rows
// in/out, hash build/probe counts, tuples copied, wall time — into an
// ExecProfile tree that the explain machinery renders EXPLAIN ANALYZE-
// style and that SumProfile flattens into ExecTotals. Nothing here is
// cost-based: lowering picks operators by rule (a HashJoin always builds
// on its right input), so a profile carries measured actuals only.
//
// Operator inventory:
//   Scan           base-relation scan (borrows the Database's storage)
//   ProjectMap     extended projection: one scalar program for all columns
//   FilterSelect   selection by compiled conditions
//   HashJoin       equi-join: build on the right input, probe with the left
//   NestedLoopJoin fallback join when no equality key exists
//   UnionMerge     set union (storage-reusing when an input is exclusive)
//   DiffAnti       set difference, in one of two forms:
//                    merge form: sorted difference of two same-arity
//                    inputs (in place when the left is exclusive);
//                    anti-join form (`keys` non-empty): the lowering of
//                    X - project[@1..@n](join(X, Y)) with equi-keys only;
//                    builds HashJoin's table on Y (right), probes with X
//                    (left) and keeps the X rows without a key match, in
//                    probe order; EXPLAIN detail `keys=N`
//   AdomScan       term^k closure of the active domain (AB88 baseline)
//   Singleton      unit / empty constant relations
//   Materialize    caches a shared subplan's result; plans are DAGs and
//                  every extra consumer gets the cached pointer, not a copy
#ifndef EMCALC_EXEC_PHYSICAL_H_
#define EMCALC_EXEC_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/algebra/ast.h"
#include "src/base/status.h"
#include "src/exec/scalar_program.h"
#include "src/obs/resource.h"
#include "src/storage/database.h"
#include "src/storage/interpretation.h"
#include "src/storage/relation.h"

namespace emcalc {

// Shared-ownership relation handle exchanged between operators. A Scan's
// result borrows the Database's storage (non-owning alias), so handles must
// not outlive the Database they were executed against.
using RelationPtr = std::shared_ptr<const Relation>;

// Physical operator tags.
enum class PhysOpKind : uint8_t {
  kScan,
  kProjectMap,
  kFilterSelect,
  kHashJoin,
  kNestedLoopJoin,
  kUnionMerge,
  kDiffAnti,
  kAdomScan,
  kSingleton,
  kMaterialize,
};

// Number of PhysOpKind tags; static_asserts next to each kind-dispatch
// table keep the tables in sync when a kind is added.
inline constexpr int kNumPhysOpKinds = 10;

// Stable display name, e.g. "HashJoin".
const char* PhysOpKindName(PhysOpKind kind);

// Runtime statistics of one operator over one execution.
struct OpStats {
  uint64_t invocations = 0;    // times the operator was entered
  uint64_t rows_in = 0;        // input tuples consumed
  uint64_t rows_out = 0;       // output tuples produced
  uint64_t build_rows = 0;     // hash-join build-side rows
  uint64_t hash_probes = 0;    // hash-join probe lookups
  uint64_t function_calls = 0; // scalar function applications
  uint64_t tuple_copies = 0;   // existing tuples copied into the output
  uint64_t cache_hits = 0;     // Materialize results served from cache
  uint64_t wall_ns = 0;        // inclusive wall time (children included)
  // The output's final sort + dedupe, part of wall_ns: rows the sort
  // actually ordered (0 when the output arrived in order) and the time the
  // normalization took.
  uint64_t rows_sorted = 0;
  uint64_t normalize_ns = 0;
  uint64_t bytes_allocated = 0;  // tracked bytes allocated under this op
  int64_t peak_bytes = 0;        // high-water tracked bytes under this op
  // Contention telemetry folded from the operator's parallel regions
  // (ThreadPool::RegionStats); all zero when the operator ran inline.
  uint64_t par_wall_ns = 0;    // summed wall time of parallel regions
  uint64_t par_busy_ns = 0;    // summed per-thread drain time
  uint64_t par_morsels = 0;    // morsels claimed
  uint32_t par_workers = 0;    // most threads that did work in one region
  // Batch-kernel telemetry of ProjectMap / FilterSelect (joins leave it
  // zero).
  uint64_t batches = 0;         // batches executed
  uint64_t batch_rows = 0;      // rows entering batches (rows/batch basis)
  uint64_t batch_sel_rows = 0;  // rows surviving the batch's selection
};

// Parallel-region telemetry aggregated over a whole profile tree, for the
// query log and EXPLAIN ANALYZE footer. Efficiency() is
// busy / sum(wall * workers) over operators that ran in parallel; 0 when
// nothing did.
struct ParallelSummary {
  uint64_t busy_ns = 0;
  uint64_t weighted_wall_ns = 0;  // sum of par_wall_ns * par_workers
  uint64_t morsels = 0;
  uint32_t max_workers = 0;
  double Efficiency() const {
    if (weighted_wall_ns == 0) return 0;
    double eff = static_cast<double>(busy_ns) /
                 static_cast<double>(weighted_wall_ns);
    return eff > 1.0 ? 1.0 : eff;
  }
};

// One node of the per-operator statistics tree. A Materialize that feeds
// several consumers appears once with its subtree; later references render
// as a stub child marked shared.
struct ExecProfile {
  PhysOpKind op = PhysOpKind::kSingleton;
  std::string detail;  // operator-specific: relation name, key count, ...
  int arity = 0;
  bool shared_ref = false;  // repeat reference to a materialized subplan
  OpStats stats;
  std::vector<ExecProfile> children;
  // Query-level memory totals; only set on the root node of a profile.
  int64_t total_peak_bytes = 0;
  uint64_t total_bytes_allocated = 0;
};

// Flat totals over a profile tree: the one flat-totals type, for callers
// (EvaluateAlgebra, benches, tests) that need no per-operator breakdown.
// Materialize nodes contribute no row counts: their child already counted
// the work once.
struct ExecTotals {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t function_calls = 0;
  uint64_t hash_probes = 0;
  uint64_t tuple_copies = 0;
};
ExecTotals SumProfile(const ExecProfile& profile);

// Aggregates par_* stats over a profile tree (operators with
// par_workers > 1 only, so inline timing does not dilute the figure).
ParallelSummary SumParallel(const ExecProfile& profile);

// EXPLAIN ANALYZE-style multi-line rendering:
//   HashJoin(keys=2) arity=5 rows_in=150 rows_out=40 build=100
//   probes=50 rows_sorted=40 peak_bytes=4096 time=0.120ms normalize=0.010ms
std::string ExecProfileToString(const ExecProfile& profile);

// Canonical JSON encoding of a profile tree. Every stats field is emitted
// unconditionally so ExecProfileFromJson reproduces the profile exactly
// (round-trip tested); the bench harness and query log build on this.
std::string ExecProfileToJson(const ExecProfile& profile);
StatusOr<ExecProfile> ExecProfileFromJson(std::string_view json);

// Execution knobs.
struct ExecOptions {
  // Budget for AdomScan term closures (values). The direct translation
  // never emits kAdom; only the AB88-style baseline does.
  size_t adom_budget = 10'000'000;
  // Worker threads for morsel-parallel operators (FilterSelect,
  // ProjectMap, the partitioned HashJoin, AdomScan closure rounds).
  // 0 means hardware concurrency; 1 disables parallelism entirely.
  // Results are normalized after every parallel region, so output is
  // bit-identical across thread counts. Scalar functions must be pure
  // (thread-safe) — every registry builtin is.
  size_t num_threads = 0;
  // Per-query resource ceilings (0 = unlimited), merged with the
  // EMCALC_MAX_QUERY_BYTES / EMCALC_MAX_QUERY_MS env knobs at execution
  // (an explicit field here wins). A tripped limit aborts the execution
  // with kResourceExhausted naming the limit; the partial profile is
  // still filled in.
  obs::ResourceLimits limits;
  // Unread. perfbench still assigns it; the field goes once perfbench
  // stops doing so (ROADMAP item 12).
  uint64_t query_hash = 0;
};

// A physical operator node. Like AlgExpr this is a tagged struct consumed
// by kind-switches; only the fields of the node's kind are meaningful.
// Nodes are owned by their PhysicalPlan and immutable after lowering; all
// per-execution state lives in the execution context, so one plan can be
// executed repeatedly (and concurrently) against different databases.
struct PhysicalOp {
  PhysOpKind kind = PhysOpKind::kSingleton;
  int arity = 0;
  int id = 0;  // index of this op's stats slot
  const PhysicalOp* left = nullptr;   // input / probe side
  const PhysicalOp* right = nullptr;  // build side / second input

  // kScan: relation name (resolved against the Database at execution).
  std::string rel_name;
  // kProjectMap: one expression per output column.
  std::vector<const ScalarExpr*> exprs;
  // kFilterSelect / join residuals: conditions over the (concatenated)
  // schema.
  std::vector<AlgCondition> conds;
  // The executor evaluates scalar expressions only through these programs,
  // compiled at lowering time (see src/exec/scalar_program.h):
  //   program        kProjectMap: one output per expression;
  //                  kHashJoin and keyed kDiffAnti: one probe key per
  //                  KeyPair, over the left input
  //   build_program  kHashJoin and keyed kDiffAnti: one build key per
  //                  KeyPair, over the right input
  //   cond_program   kFilterSelect: its conditions (always present);
  //                  joins: the residual conditions over the concatenated
  //                  schema, present exactly when `conds` is non-empty
  // Shared so a fused FilterSelect→ProjectMap pair and the plan can
  // reference them without ownership games.
  std::shared_ptr<const ScalarProgram> program;
  std::shared_ptr<const ScalarProgram> build_program;
  std::shared_ptr<const ScalarProgram> cond_program;
  // kHashJoin and the anti-join form of kDiffAnti: equi-key pairs;
  // left_key reads the left input's columns, right_key the right input's,
  // numbered over the concatenated schema. Empty on a merge-form kDiffAnti.
  struct KeyPair {
    const ScalarExpr* left_key = nullptr;
    const ScalarExpr* right_key = nullptr;
  };
  std::vector<KeyPair> keys;
  int split = 0;  // joins and keyed kDiffAnti: left input arity

  // kAdomScan: closure level, functions (name, arity), extra constants.
  int adom_level = 0;
  std::vector<std::pair<std::string, int>> adom_fns;
  std::vector<Value> adom_consts;

  // kSingleton: whether the relation contains the empty tuple (unit).
  bool unit = false;

  // kMaterialize: index of the cache slot; `consumers` is the number of
  // plan edges that reference this node.
  int memo_slot = -1;
  int consumers = 0;
};

// An executable physical plan: the lowered operator DAG plus everything
// resolved at lowering time (compiled scalar programs with their function
// bindings, constants). The AstContext and FunctionRegistry passed to
// Lower() must outlive the plan.
class PhysicalPlan {
 public:
  PhysicalPlan() = default;
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;
  PhysicalPlan(const PhysicalPlan&) = delete;
  PhysicalPlan& operator=(const PhysicalPlan&) = delete;

  // The answer of one execution. `relation` is always set on success;
  // `owned` is additionally set when the result is exclusively owned by
  // the caller (not borrowed from the Database or a materialize cache), in
  // which case it may be moved out instead of copied.
  struct Result {
    RelationPtr relation;
    std::shared_ptr<Relation> owned;
  };

  // Executes against `db`. Scan bindings (relation existence and arity)
  // are validated before any operator runs. When `profile` is non-null it
  // is overwritten with this execution's per-operator statistics tree.
  // `args` binds the plan's parameters position-wise (kParam expressions);
  // it must hold exactly NumParams() values and is only read during the
  // call, so concurrent executions may bind different arguments.
  StatusOr<Result> Execute(const Database& db, ExecProfile* profile = nullptr,
                           std::span<const Value> args = {}) const;

  // Convenience: execute and return the answer by value (moving when the
  // result is exclusively owned).
  StatusOr<Relation> ExecuteToRelation(
      const Database& db, ExecProfile* profile = nullptr,
      std::span<const Value> args = {}) const;

  const PhysicalOp* root() const { return root_; }
  int NumOperators() const { return static_cast<int>(ops_.size()); }
  // Materialize cache slots allocated at lowering time; every Materialize
  // op's memo_slot must be a distinct index in [0, NumMemoSlots()).
  int NumMemoSlots() const { return num_memo_slots_; }
  // Parameters the plan's kParam expressions index (0 for a closed query).
  int NumParams() const { return num_params_; }
  const ExecOptions& options() const { return options_; }

 private:
  friend class Lowerer;
  friend struct ExecContext;
  // The mutation harness (src/verify/mutate.h) corrupts lowered plans in
  // place to prove the stage-boundary verifier catches them.
  friend class verify::PlanMutator;

  std::vector<std::unique_ptr<PhysicalOp>> ops_;
  const PhysicalOp* root_ = nullptr;
  const FunctionRegistry* registry_ = nullptr;  // AdomScan term closures
  int num_memo_slots_ = 0;
  int num_params_ = 0;
  ExecOptions options_;
};

}  // namespace emcalc

#endif  // EMCALC_EXEC_PHYSICAL_H_
