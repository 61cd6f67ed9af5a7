#include "src/exec/physical.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/exec/join_table.h"
#include "src/exec/scalar_program.h"
#include "src/exec/selection.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/adom.h"

namespace emcalc {
namespace {

// Rows per morsel. Fixed (never derived from the thread count) so morsel
// boundaries — and therefore per-morsel output buffers — are identical for
// every num_threads; buffers concatenated in morsel order plus a final
// Normalize make parallel output bit-identical to sequential output.
constexpr size_t kMorselGrain = 2048;
// Parallel fan-out floor: inputs smaller than this run on the calling
// thread only.
constexpr size_t kParallelThreshold = 4096;
// Rows per batch of the compiled scalar programs. Batches never straddle a
// morsel boundary, so batch counts are the same for every thread count.
constexpr size_t kBatchSize = 1024;
// Hash partitions of the parallel join build (top bits of the key hash).
constexpr size_t kJoinPartitionBits = 6;
constexpr size_t kJoinPartitions = size_t{1} << kJoinPartitionBits;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Every materializing kernel ends by normalizing its output through here,
// so the operator's stats split sort time from kernel time and count only
// the rows the sort really had to order.
void NormalizeOutput(const Relation& out, OpStats& s) {
  const uint64_t start = NowNs();
  s.rows_sorted += out.Normalize();
  s.normalize_ns += NowNs() - start;
}

uint64_t KeyHash(const Value* key, size_t nk) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < nk; ++i) h = h * 1099511628211ULL ^ key[i].Hash();
  return h;
}

// An empty program: prepares a BatchScratch's row staging area alone.
const ScalarProgram& NoConditions() {
  static const ScalarProgram kNone;
  return kNone;
}

// Join output: candidate rows a ++ b collect in the row staging area of a
// BatchScratch and land in `out` one batch at a time. With residual
// conditions each batch first runs through the condition program, and only
// the surviving rows are appended.
class JoinSink {
 public:
  JoinSink(const PhysicalOp* op, size_t batch_size,
           std::span<const Value> args, BatchScratch& scratch, Relation& out,
           uint64_t* fn_calls)
      : cond_(op->cond_program.get()),
        args_(args),
        scratch_(scratch),
        out_(out),
        fn_calls_(fn_calls),
        width_(static_cast<size_t>(op->arity)),
        batch_size_(static_cast<uint32_t>(batch_size)) {
    scratch_.Prepare(cond_ != nullptr ? *cond_ : NoConditions(), batch_size,
                     width_);
  }

  void Add(TupleRef a, TupleRef b) {
    Value* row = scratch_.row_staging() + staged_ * width_;
    std::copy(a.begin(), a.end(), row);
    std::copy(b.begin(), b.end(), row + a.size());
    if (++staged_ == batch_size_) Flush();
  }

  void Flush() {
    if (staged_ == 0) return;
    Value* rows = scratch_.row_staging();
    uint32_t kept = staged_;
    if (cond_ != nullptr) {
      Selection sel =
          cond_->RunFilter(rows, static_cast<int>(width_),
                           Selection::Dense(0, staged_), args_, scratch_,
                           fn_calls_);
      // Survivors ascend, so compacting in place only moves rows down.
      for (uint32_t i = 0; i < sel.size(); ++i) {
        if (sel[i] != i) {
          std::copy_n(rows + size_t{sel[i]} * width_, width_,
                      rows + size_t{i} * width_);
        }
      }
      kept = sel.size();
    }
    out_.AppendRows(rows, kept);
    staged_ = 0;
  }

 private:
  const ScalarProgram* cond_;  // null: every candidate is an output row
  std::span<const Value> args_;
  BatchScratch& scratch_;
  Relation& out_;
  uint64_t* fn_calls_;
  size_t width_;
  uint32_t batch_size_;
  uint32_t staged_ = 0;
};

std::string OpDetail(const PhysicalOp* op) {
  switch (op->kind) {
    case PhysOpKind::kScan:
      return op->rel_name;
    case PhysOpKind::kProjectMap:
      return "cols=" + std::to_string(op->exprs.size());
    case PhysOpKind::kFilterSelect:
      return "conds=" + std::to_string(op->conds.size());
    case PhysOpKind::kHashJoin:
      return "keys=" + std::to_string(op->keys.size()) +
             (op->conds.empty()
                  ? std::string()
                  : " residual=" + std::to_string(op->conds.size()));
    case PhysOpKind::kNestedLoopJoin:
      return "conds=" + std::to_string(op->conds.size());
    case PhysOpKind::kAdomScan:
      return "level=" + std::to_string(op->adom_level) +
             " fns=" + std::to_string(op->adom_fns.size());
    case PhysOpKind::kSingleton:
      return op->unit ? "unit" : "empty";
    case PhysOpKind::kMaterialize:
      return "consumers=" + std::to_string(op->consumers);
    case PhysOpKind::kUnionMerge:
    case PhysOpKind::kDiffAnti:
      return "";
  }
  return "";
}

}  // namespace

const char* PhysOpKindName(PhysOpKind kind) {
  static_assert(static_cast<int>(PhysOpKind::kMaterialize) ==
                    kNumPhysOpKinds - 1,
                "PhysOpKindName must cover every PhysOpKind");
  switch (kind) {
    case PhysOpKind::kScan: return "Scan";
    case PhysOpKind::kProjectMap: return "ProjectMap";
    case PhysOpKind::kFilterSelect: return "FilterSelect";
    case PhysOpKind::kHashJoin: return "HashJoin";
    case PhysOpKind::kNestedLoopJoin: return "NestedLoopJoin";
    case PhysOpKind::kUnionMerge: return "UnionMerge";
    case PhysOpKind::kDiffAnti: return "DiffAnti";
    case PhysOpKind::kAdomScan: return "AdomScan";
    case PhysOpKind::kSingleton: return "Singleton";
    case PhysOpKind::kMaterialize: return "Materialize";
  }
  return "?";
}

// Per-execution mutable state: one stats slot per operator and one cache
// slot per Materialize. The plan itself stays immutable.
struct ExecContext {
  const PhysicalPlan& plan;
  const Database& db;
  std::vector<OpStats> stats;
  std::vector<std::optional<RelationPtr>> memo;
  size_t threads;  // effective worker cap, >= 1
  // Memory attribution and limits for this execution. The governor is
  // checked at operator entry, morsel boundaries, and closure rounds.
  obs::QueryMemory qmem;
  obs::ResourceGovernor governor;
  // Values of the plan's parameters (kParam expressions) for this run.
  std::span<const Value> args;

  ExecContext(const PhysicalPlan& p, const Database& d,
              std::span<const Value> a)
      : plan(p), db(d), stats(p.ops_.size()),
        memo(static_cast<size_t>(p.num_memo_slots_)),
        threads(p.options_.num_threads == 0 ? ThreadPool::HardwareThreads()
                                            : p.options_.num_threads),
        qmem(p.ops_.size()),
        governor(obs::EffectiveLimits(p.options_.limits), &qmem, NowNs()),
        args(a) {}

  // The value flowing between operators is the same handle Execute
  // returns: a parent may steal an `owned` child's storage.
  using Result = PhysicalPlan::Result;

  StatusOr<Result> Run(const PhysicalOp* op);

  bool Parallel(size_t n) const {
    return threads > 1 && n >= kParallelThreshold;
  }

  // Folds worker-sharded counters into the operator's stats slot. Every
  // field is a commutative sum and the shards are visited in worker-id
  // order, so totals are identical for every thread count and schedule.
  static void MergeShards(OpStats& s, const std::vector<OpStats>& shards) {
    for (const OpStats& w : shards) {
      s.function_calls += w.function_calls;
      s.tuple_copies += w.tuple_copies;
      s.build_rows += w.build_rows;
      s.hash_probes += w.hash_probes;
      s.batches += w.batches;
      s.batch_rows += w.batch_rows;
      s.batch_sel_rows += w.batch_sel_rows;
    }
  }

  // Collects ThreadPool::RegionStats across an operator's parallel regions
  // and folds them into its OpStats par_* fields on scope exit — every
  // exit path (including governor aborts) keeps the telemetry.
  struct ParFold {
    explicit ParFold(OpStats& s) : stats(s) {}
    ~ParFold() {
      stats.par_wall_ns += rs.wall_ns;
      stats.par_busy_ns += rs.busy_ns;
      stats.par_morsels += rs.morsels;
      if (rs.max_workers > stats.par_workers) {
        stats.par_workers = rs.max_workers;
      }
    }
    ParFold(const ParFold&) = delete;
    ParFold& operator=(const ParFold&) = delete;
    OpStats& stats;
    ThreadPool::RegionStats rs;
  };

  // Runs fn(worker, begin, end, buf) over the morsels of `n` input rows.
  // With one worker the morsels run in order on the calling thread and
  // append to `out` directly; with more they run on the pool, each
  // appending to its own buffer, and the buffers land in `out` in morsel
  // order afterwards. Either way `out` receives the same rows in the same
  // order. Morsels are skipped once the governor trips.
  template <typename Fn>
  void ForEachMorsel(size_t n, size_t workers, OpStats& s, Relation& out,
                     Fn&& fn) {
    if (workers <= 1) {
      for (size_t begin = 0; begin < n; begin += kMorselGrain) {
        if (governor.Check()) return;
        fn(size_t{0}, begin, std::min(n, begin + kMorselGrain), out);
      }
      return;
    }
    const size_t num_morsels = (n + kMorselGrain - 1) / kMorselGrain;
    std::vector<Relation> bufs;
    bufs.reserve(num_morsels);
    for (size_t i = 0; i < num_morsels; ++i) bufs.emplace_back(out.arity());
    ParFold par(s);
    ThreadPool::Global().ParallelFor(
        n, kMorselGrain, workers,
        [&](size_t worker, size_t begin, size_t end) {
          if (governor.Check()) return;
          fn(worker, begin, end, bufs[begin / kMorselGrain]);
        },
        &par.rs);
    for (const Relation& buf : bufs) out.AppendAll(buf);
  }

  StatusOr<Result> RunHashJoin(const PhysicalOp* op, const Result& l,
                               const Result& r, OpStats& s);
  Result RunNestedLoopJoin(const PhysicalOp* op, const Result& l,
                           const Result& r, OpStats& s);

  // Batch kernels: run the compiled scalar programs over column slices of
  // the input's flat buffer. `filter` is non-null when a FilterSelect child
  // is fused into the ProjectMap — its surviving rows flow to the
  // projection as selection indices, never materialized.
  StatusOr<Result> RunBatchProject(const PhysicalOp* op,
                                   const PhysicalOp* filter, const Result& in,
                                   OpStats& s);
  StatusOr<Result> RunBatchFilter(const PhysicalOp* op, const Result& in,
                                  OpStats& s);
};

// Equi-join over the open-addressing JoinTable. Build on the right input,
// probe with the left; both sides' keys are computed a batch at a time by
// the op's compiled key programs. Large inputs run the partitioned parallel
// form:
//   1. morsel-parallel build-key computation,
//   2. per-(morsel, partition) counts + prefix sums (sequential, O(m·P)),
//   3. morsel-parallel scatter of build rows into partition order,
//   4. partition-parallel table builds,
//   5. morsel-parallel probes into per-morsel output buffers.
// Partition contents are ordered by build-row index (the scatter respects
// morsel order) and probe buffers concatenate in morsel order, so the
// result — after the final Normalize — is independent of the thread count.
StatusOr<ExecContext::Result> ExecContext::RunHashJoin(const PhysicalOp* op,
                                                       const Result& l,
                                                       const Result& r,
                                                       OpStats& s) {
  const Relation& probe = *l.relation;
  const Relation& build = *r.relation;
  const size_t pn = probe.size();
  const size_t bn = build.size();  // size() normalizes both inputs
  s.rows_in += pn + bn;
  auto out = std::make_shared<Relation>(op->arity);
  // Empty-input short-circuit: no pairs exist, so skip key computation and
  // table construction entirely.
  if (bn == 0 || pn == 0) return Result{out, out};
  EMCALC_CHECK_MSG(bn < JoinTable::kEmpty, "join build side too large");

  const size_t nk = op->keys.size();
  const ScalarProgram& build_prog = *op->build_program;
  const ScalarProgram& probe_prog = *op->program;
  const Value* build_data = build.data();
  const Value* probe_data = probe.data();

  // Phase 1: build-side keys and hashes.
  std::vector<Value> build_keys(bn * nk);
  std::vector<uint64_t> build_hash(bn);
  // Join scratch (keys, hashes, partition maps) is sized manually, so it
  // is charged manually; released when this call returns.
  obs::MemoryCharge scratch(static_cast<int64_t>(
      build_keys.capacity() * sizeof(Value) +
      build_hash.capacity() * sizeof(uint64_t)));
  const bool parallel = Parallel(bn) || Parallel(pn);
  const size_t max_workers = parallel ? threads : 1;
  std::vector<OpStats> shards(max_workers);
  // Per-worker scratch: key registers for both phases, and the candidate
  // rows of the probe phase.
  std::vector<BatchScratch> key_scratch(max_workers);
  std::vector<BatchScratch> out_scratch(max_workers);
  ParFold par(s);
  ThreadPool::Global().ParallelFor(
      bn, kMorselGrain, max_workers,
      [&](size_t worker, size_t begin, size_t end) {
        if (governor.Check()) return;
        OpStats& ws = shards[worker];
        BatchScratch& ks = key_scratch[worker];
        ks.Prepare(build_prog, std::min(kBatchSize, bn), nk);
        for (size_t b = begin; b < end; b += kBatchSize) {
          const size_t count = std::min(kBatchSize, end - b);
          const Value* keys = build_prog.RunProject(
              build_data, build.arity(),
              Selection::Dense(static_cast<uint32_t>(b),
                               static_cast<uint32_t>(count)),
              args, ks, &ws.function_calls);
          std::copy_n(keys, count * nk, build_keys.data() + b * nk);
          for (size_t i = b; i < b + count; ++i) {
            build_hash[i] = KeyHash(build_keys.data() + i * nk, nk);
          }
          ws.build_rows += count;
        }
      },
      &par.rs);

  // Phases 2-4: partition the build rows and build one table per
  // partition. The sequential path uses a single partition.
  const size_t num_partitions = parallel ? kJoinPartitions : 1;
  const size_t shift = 64 - kJoinPartitionBits;
  auto partition_of = [&](uint64_t hash) {
    return num_partitions == 1 ? size_t{0} : hash >> shift;
  };
  if (governor.tripped()) return governor.status();
  std::vector<uint32_t> part_rows(bn);
  std::vector<size_t> part_start(num_partitions + 1, 0);
  std::vector<JoinTable> tables(num_partitions);
  scratch.Update(scratch.charged() +
                 static_cast<int64_t>(part_rows.capacity() *
                                          sizeof(uint32_t) +
                                      part_start.capacity() * sizeof(size_t)));
  if (num_partitions == 1) {
    for (size_t i = 0; i < bn; ++i) part_rows[i] = static_cast<uint32_t>(i);
    part_start[1] = bn;
    tables[0].Build(build_keys.data(), build_hash.data(), nk,
                    part_rows.data(), bn);
  } else {
    const size_t num_morsels = (bn + kMorselGrain - 1) / kMorselGrain;
    // counts[m * P + p]: build rows of morsel m landing in partition p.
    std::vector<size_t> counts(num_morsels * num_partitions, 0);
    ThreadPool::Global().ParallelFor(
        bn, kMorselGrain, max_workers,
        [&](size_t /*worker*/, size_t begin, size_t end) {
          size_t* row = counts.data() + (begin / kMorselGrain) * num_partitions;
          for (size_t i = begin; i < end; ++i) {
            ++row[partition_of(build_hash[i])];
          }
        },
        &par.rs);
    // Prefix sums in (partition, morsel) order: each (m, p) cell becomes
    // the scatter offset for that morsel's slice of that partition.
    size_t running = 0;
    for (size_t p = 0; p < num_partitions; ++p) {
      part_start[p] = running;
      for (size_t m = 0; m < num_morsels; ++m) {
        size_t c = counts[m * num_partitions + p];
        counts[m * num_partitions + p] = running;
        running += c;
      }
    }
    part_start[num_partitions] = running;
    ThreadPool::Global().ParallelFor(
        bn, kMorselGrain, max_workers,
        [&](size_t /*worker*/, size_t begin, size_t end) {
          size_t* offset =
              counts.data() + (begin / kMorselGrain) * num_partitions;
          for (size_t i = begin; i < end; ++i) {
            part_rows[offset[partition_of(build_hash[i])]++] =
                static_cast<uint32_t>(i);
          }
        },
        &par.rs);
    ThreadPool::Global().ParallelFor(
        num_partitions, 1, max_workers,
        [&](size_t /*worker*/, size_t begin, size_t end) {
          if (governor.Check()) return;
          for (size_t p = begin; p < end; ++p) {
            tables[p].Build(build_keys.data(), build_hash.data(), nk,
                            part_rows.data() + part_start[p],
                            part_start[p + 1] - part_start[p]);
          }
        },
        &par.rs);
  }
  if (governor.tripped()) return governor.status();

  // Phase 5: probe, emitting in morsel order.
  out->Reserve(pn);  // one match per probe row is the common shape here
  const size_t out_batch = std::min(kBatchSize, std::max(pn, bn));
  ForEachMorsel(
      pn, max_workers, s, *out,
      [&](size_t worker, size_t begin, size_t end, Relation& buf) {
        OpStats& ws = shards[worker];
        BatchScratch& ks = key_scratch[worker];
        ks.Prepare(probe_prog, std::min(kBatchSize, pn), nk);
        JoinSink sink(op, out_batch, args, out_scratch[worker], buf,
                      &ws.function_calls);
        for (size_t b = begin; b < end; b += kBatchSize) {
          const size_t count = std::min(kBatchSize, end - b);
          const Value* keys = probe_prog.RunProject(
              probe_data, probe.arity(),
              Selection::Dense(static_cast<uint32_t>(b),
                               static_cast<uint32_t>(count)),
              args, ks, &ws.function_calls);
          for (size_t i = 0; i < count; ++i) {
            const Value* key = keys + i * nk;
            const uint64_t h = KeyHash(key, nk);
            const TupleRef a = probe.row(b + i);
            tables[partition_of(h)].ForEachMatch(
                h, key, [&](uint32_t b_row) { sink.Add(a, build.row(b_row)); });
          }
          ws.hash_probes += count;
        }
        sink.Flush();
      });
  if (governor.tripped()) return governor.status();
  NormalizeOutput(*out, s);
  MergeShards(s, shards);
  s.rows_out += out->size();
  return Result{out, out};
}

// Cross product filtered by the op's condition program, if any: every pair
// is staged as a candidate row, and each full batch of candidates is
// filtered at once. Runs on the calling thread.
ExecContext::Result ExecContext::RunNestedLoopJoin(const PhysicalOp* op,
                                                   const Result& l,
                                                   const Result& r,
                                                   OpStats& s) {
  const Relation& left = *l.relation;
  const Relation& right = *r.relation;
  const size_t ln = left.size();
  const size_t rn = right.size();
  s.rows_in += ln + rn;
  auto out = std::make_shared<Relation>(op->arity);
  BatchScratch scratch;
  JoinSink sink(op, std::clamp<size_t>(ln * rn, 1, kBatchSize), args,
                scratch, *out, &s.function_calls);
  for (size_t i = 0; i < ln; ++i) {
    if ((i & 255u) == 0 && governor.Check()) break;
    const TupleRef a = left.row(i);
    for (size_t j = 0; j < rn; ++j) sink.Add(a, right.row(j));
  }
  sink.Flush();
  NormalizeOutput(*out, s);
  s.rows_out += out->size();
  return Result{out, out};
}

// Vectorized ProjectMap: the compiled program runs over dense batches of
// the input's flat buffer (batch boundaries clipped to morsel boundaries,
// so sequential and parallel executions count identical batches). With a
// fused FilterSelect child, each batch is first refined to a selection
// vector and the projection evaluates only the surviving lanes — the
// filter's output relation is never materialized.
StatusOr<ExecContext::Result> ExecContext::RunBatchProject(
    const PhysicalOp* op, const PhysicalOp* filter, const Result& in,
    OpStats& s) {
  const Relation& in_rel = *in.relation;
  const size_t n = in_rel.size();  // normalizes before slicing
  const int in_arity = in_rel.arity();
  const Value* data = in_rel.data();
  const ScalarProgram& proj = *op->program;
  const ScalarProgram* cond =
      filter != nullptr ? filter->cond_program.get() : nullptr;
  OpStats* fstats =
      filter != nullptr ? &stats[static_cast<size_t>(filter->id)] : nullptr;
  if (fstats != nullptr) ++fstats->invocations;
  const size_t bsz = std::min(kBatchSize, std::max<size_t>(n, 1));
  auto out = std::make_shared<Relation>(op->arity);
  // Every input row yields an output row only without a fused filter; a
  // filtered projection grows with its survivors instead of reserving for
  // rows it drops (the answer may outlive the run, reservation and all).
  if (cond == nullptr) out->Reserve(n);
  const size_t workers = Parallel(n) ? threads : 1;
  std::vector<OpStats> shards(workers);
  std::vector<OpStats> fshards(cond != nullptr ? workers : 0);
  std::vector<BatchScratch> pscratch(workers);
  std::vector<BatchScratch> fscratch(cond != nullptr ? workers : 0);
  ForEachMorsel(
      n, workers, s, *out,
      [&](size_t worker, size_t begin, size_t end, Relation& buf) {
        OpStats& ws = shards[worker];
        BatchScratch& ps = pscratch[worker];
        ps.Prepare(proj, bsz, proj.num_outputs());
        if (cond != nullptr) fscratch[worker].Prepare(*cond, bsz, 0);
        for (size_t b = begin; b < end; b += bsz) {
          const auto count = static_cast<uint32_t>(std::min(bsz, end - b));
          Selection sel = Selection::Dense(static_cast<uint32_t>(b), count);
          if (cond != nullptr) {
            OpStats& wf = fshards[worker];
            sel = cond->RunFilter(data, in_arity, sel, args, fscratch[worker],
                                  &wf.function_calls);
            ++wf.batches;
            wf.batch_rows += count;
            wf.batch_sel_rows += sel.size();
          }
          const Value* rows = proj.RunProject(data, in_arity, sel, args, ps,
                                              &ws.function_calls);
          buf.AppendRows(rows, sel.size());
          ++ws.batches;
          ws.batch_rows += count;
          ws.batch_sel_rows += sel.size();
        }
      });
  uint64_t survivors = 0;
  if (fstats != nullptr) {
    for (const OpStats& w : fshards) survivors += w.batch_sel_rows;
    MergeShards(*fstats, fshards);
  }
  MergeShards(s, shards);
  NormalizeOutput(*out, s);
  // In fused form this operator logically consumes the filter's output,
  // so row accounting matches the unfused (and legacy) plans exactly.
  s.rows_in += cond != nullptr ? survivors : n;
  s.rows_out += out->size();
  if (fstats != nullptr) {
    fstats->rows_in += n;
    fstats->rows_out += survivors;
  }
  return Result{out, out};
}

// Vectorized FilterSelect: staged condition programs refine a selection
// vector per batch, then the surviving rows are gathered into the scratch
// staging area and appended in bulk.
StatusOr<ExecContext::Result> ExecContext::RunBatchFilter(
    const PhysicalOp* op, const Result& in, OpStats& s) {
  const Relation& in_rel = *in.relation;
  const size_t n = in_rel.size();
  const int in_arity = in_rel.arity();
  const auto width = static_cast<size_t>(in_arity);
  const Value* data = in_rel.data();
  const ScalarProgram& cond = *op->cond_program;
  const size_t bsz = std::min(kBatchSize, std::max<size_t>(n, 1));
  auto out = std::make_shared<Relation>(op->arity);
  auto gather = [&](Selection sel, BatchScratch& sc, Relation& buf,
                    OpStats& ws) {
    Value* staging = sc.row_staging();
    if (width > 0) {
      for (uint32_t i = 0; i < sel.size(); ++i) {
        std::memcpy(staging + i * width,
                    data + static_cast<size_t>(sel[i]) * width,
                    width * sizeof(Value));
      }
    }
    buf.AppendRows(staging, sel.size());
    ws.tuple_copies += sel.size();
  };
  const size_t workers = Parallel(n) ? threads : 1;
  std::vector<OpStats> shards(workers);
  std::vector<BatchScratch> scratch(workers);
  ForEachMorsel(
      n, workers, s, *out,
      [&](size_t worker, size_t begin, size_t end, Relation& buf) {
        OpStats& ws = shards[worker];
        BatchScratch& sc = scratch[worker];
        sc.Prepare(cond, bsz, width);
        for (size_t b = begin; b < end; b += bsz) {
          const auto count = static_cast<uint32_t>(std::min(bsz, end - b));
          Selection sel = cond.RunFilter(
              data, in_arity, Selection::Dense(static_cast<uint32_t>(b), count),
              args, sc, &ws.function_calls);
          gather(sel, sc, buf, ws);
          ++ws.batches;
          ws.batch_rows += count;
          ws.batch_sel_rows += sel.size();
        }
      });
  MergeShards(s, shards);
  NormalizeOutput(*out, s);
  s.rows_in += n;
  s.rows_out += out->size();
  return Result{out, out};
}

StatusOr<ExecContext::Result> ExecContext::Run(const PhysicalOp* op) {
  // One trace span per operator invocation: nested operator spans render
  // as the plan's flame graph next to the compile-phase spans.
  obs::Span span(PhysOpKindName(op->kind));
  if (span.enabled()) span.SetDetail(OpDetail(op));
  OpStats& s = stats[static_cast<size_t>(op->id)];
  ++s.invocations;
  // All tracked allocations until this frame returns (including child
  // operators, which install their own scope on entry) charge this op.
  obs::MemoryScope mem_scope(&qmem, op->id);
  uint64_t start = NowNs();
  // Wrap the per-kind result so every exit path records inclusive time.
  auto done = [&](StatusOr<Result> v) {
    s.wall_ns += NowNs() - start;
    return v;
  };
  // Successful-exit wrapper: counts output rows against max_rows and
  // re-checks the limits so a trip surfaces at the operator that crossed
  // the ceiling.
  auto finish = [&](Result v) -> StatusOr<Result> {
    governor.AddRows(v.relation->size());
    if (governor.Check()) return done(governor.status());
    return done(std::move(v));
  };
  if (governor.Check()) return done(governor.status());

  switch (op->kind) {
    case PhysOpKind::kScan: {
      const Relation* rel = db.Find(op->rel_name);
      EMCALC_CHECK(rel != nullptr);  // bindings validated before execution
      s.rows_in += rel->size();
      s.rows_out += rel->size();
      // Borrow the database's storage: non-owning alias, zero copies.
      return finish(Result{RelationPtr(RelationPtr(), rel), nullptr});
    }
    case PhysOpKind::kProjectMap: {
      const PhysicalOp* fused = nullptr;
      const PhysicalOp* source = op->left;
      if (op->left->kind == PhysOpKind::kFilterSelect) {
        // Fuse the child FilterSelect: shared subplans always sit behind a
        // Materialize, so this filter has no other consumer and its result
        // can stay a selection vector.
        fused = op->left;
        source = fused->left;
      }
      auto in = Run(source);
      if (!in.ok()) return done(in.status());
      auto v = RunBatchProject(op, fused, *in, s);
      if (!v.ok()) return done(v.status());
      return finish(std::move(*v));
    }
    case PhysOpKind::kFilterSelect: {
      auto in = Run(op->left);
      if (!in.ok()) return done(in.status());
      auto v = RunBatchFilter(op, *in, s);
      if (!v.ok()) return done(v.status());
      return finish(std::move(*v));
    }
    case PhysOpKind::kHashJoin:
    case PhysOpKind::kNestedLoopJoin: {
      auto l = Run(op->left);
      if (!l.ok()) return done(l.status());
      auto r = Run(op->right);
      if (!r.ok()) return done(r.status());
      if (op->kind == PhysOpKind::kHashJoin) {
        auto j = RunHashJoin(op, *l, *r, s);
        if (!j.ok()) return done(j.status());
        return finish(std::move(*j));
      }
      return finish(RunNestedLoopJoin(op, *l, *r, s));
    }
    case PhysOpKind::kUnionMerge: {
      auto l = Run(op->left);
      if (!l.ok()) return done(l.status());
      auto r = Run(op->right);
      if (!r.ok()) return done(r.status());
      s.rows_in += l->relation->size() + r->relation->size();
      uint64_t copies_before = Relation::TuplesCopied();
      // Reuse an exclusively-owned input's storage when possible (union is
      // symmetric); otherwise merge into fresh storage (UnionWith reserves
      // the combined input cardinality up front).
      Relation merged(op->arity);
      if (l->owned != nullptr) {
        merged = std::move(*l->owned).UnionWith(*r->relation);
      } else if (r->owned != nullptr) {
        merged = std::move(*r->owned).UnionWith(*l->relation);
      } else {
        merged = l->relation->UnionWith(*r->relation);
      }
      s.tuple_copies += Relation::TuplesCopied() - copies_before;
      auto out = std::make_shared<Relation>(std::move(merged));
      s.rows_out += out->size();
      return finish(Result{out, out});
    }
    case PhysOpKind::kDiffAnti: {
      auto l = Run(op->left);
      if (!l.ok()) return done(l.status());
      auto r = Run(op->right);
      if (!r.ok()) return done(r.status());
      s.rows_in += l->relation->size() + r->relation->size();
      uint64_t copies_before = Relation::TuplesCopied();
      Relation diff(op->arity);
      if (l->owned != nullptr) {
        diff = std::move(*l->owned).DifferenceWith(*r->relation);
      } else {
        diff = l->relation->DifferenceWith(*r->relation);
      }
      s.tuple_copies += Relation::TuplesCopied() - copies_before;
      auto out = std::make_shared<Relation>(std::move(diff));
      s.rows_out += out->size();
      return finish(Result{out, out});
    }
    case PhysOpKind::kAdomScan: {
      ValueSet base = ActiveDomain(db);
      for (const Value& v : op->adom_consts) base.push_back(v);
      NormalizeValueSet(base);
      ParFold par(s);
      auto closed = TermClosure(std::move(base), op->adom_fns,
                                *plan.registry_, op->adom_level,
                                plan.options_.adom_budget, threads,
                                governor.enabled() ? &governor : nullptr,
                                &par.rs);
      if (!closed.ok()) return done(closed.status());
      auto out = std::make_shared<Relation>(1);
      out->Reserve(closed->size());
      for (const Value& v : *closed) out->AppendRow(&v);
      NormalizeOutput(*out, s);
      s.rows_out += out->size();
      return finish(Result{out, out});
    }
    case PhysOpKind::kSingleton: {
      auto out = std::make_shared<Relation>(op->arity);
      if (op->unit) {
        out->Insert(Tuple{});
        s.rows_out += 1;
      }
      return finish(Result{out, out});
    }
    case PhysOpKind::kMaterialize: {
      std::optional<RelationPtr>& slot =
          memo[static_cast<size_t>(op->memo_slot)];
      if (slot.has_value()) {
        ++s.cache_hits;
        // Hand out the cached pointer: sharing, not copying.
        return done(Result{*slot, nullptr});
      }
      auto in = Run(op->left);
      if (!in.ok()) return done(in.status());
      slot = in->relation;
      return done(Result{in->relation, nullptr});
    }
  }
  return done(InternalError("unhandled physical operator"));
}

namespace {

// Builds the profile tree. Shared Materialize subtrees are expanded once;
// later references become stubs so the tree's totals count work once.
ExecProfile BuildProfile(const PhysicalOp* op,
                         const std::vector<OpStats>& stats,
                         std::vector<bool>& visited) {
  ExecProfile node;
  node.op = op->kind;
  node.detail = OpDetail(op);
  node.arity = op->arity;
  if (visited[static_cast<size_t>(op->id)]) {
    node.shared_ref = true;
    return node;
  }
  visited[static_cast<size_t>(op->id)] = true;
  node.stats = stats[static_cast<size_t>(op->id)];
  if (op->left != nullptr) {
    node.children.push_back(BuildProfile(op->left, stats, visited));
  }
  if (op->right != nullptr) {
    node.children.push_back(BuildProfile(op->right, stats, visited));
  }
  return node;
}

void SumInto(const ExecProfile& p, ExecTotals& totals) {
  if (!p.shared_ref && p.op != PhysOpKind::kMaterialize) {
    totals.rows_in += p.stats.rows_in;
    totals.rows_out += p.stats.rows_out;
  }
  if (!p.shared_ref) {
    totals.function_calls += p.stats.function_calls;
    totals.hash_probes += p.stats.hash_probes;
    totals.tuple_copies += p.stats.tuple_copies;
  }
  for (const ExecProfile& c : p.children) SumInto(c, totals);
}

void RenderProfile(const ExecProfile& p, int depth, std::string& out) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  out += PhysOpKindName(p.op);
  if (!p.detail.empty()) out += "(" + p.detail + ")";
  if (p.shared_ref) {
    out += " [shared result; stats shown at first reference]\n";
    return;
  }
  out += " arity=" + std::to_string(p.arity);
  out += " rows_in=" + std::to_string(p.stats.rows_in);
  out += " rows_out=" + std::to_string(p.stats.rows_out);
  if (p.op == PhysOpKind::kHashJoin) {
    out += " build=" + std::to_string(p.stats.build_rows);
    out += " probes=" + std::to_string(p.stats.hash_probes);
  }
  if (p.stats.function_calls > 0) {
    out += " fn_calls=" + std::to_string(p.stats.function_calls);
  }
  if (p.stats.tuple_copies > 0) {
    out += " copies=" + std::to_string(p.stats.tuple_copies);
  }
  if (p.stats.batches > 0) {
    // Batch-kernel telemetry: mean rows entering each batch and the share
    // of those rows surviving the batch's selection vector.
    double rows_per_batch = static_cast<double>(p.stats.batch_rows) /
                            static_cast<double>(p.stats.batches);
    double density =
        p.stats.batch_rows > 0
            ? 100.0 * static_cast<double>(p.stats.batch_sel_rows) /
                  static_cast<double>(p.stats.batch_rows)
            : 0;
    char batch_buf[80];
    std::snprintf(batch_buf, sizeof(batch_buf),
                  " batches=%llu rows/batch=%.0f sel_density=%.0f%%",
                  static_cast<unsigned long long>(p.stats.batches),
                  rows_per_batch, density);
    out += batch_buf;
  }
  if (p.op == PhysOpKind::kMaterialize) {
    out += " cache_hits=" + std::to_string(p.stats.cache_hits);
  }
  if (p.stats.bytes_allocated > 0) {
    out += " bytes=" + std::to_string(p.stats.bytes_allocated);
  }
  if (p.stats.rows_sorted > 0) {
    out += " rows_sorted=" + std::to_string(p.stats.rows_sorted);
  }
  out += " peak_bytes=" + std::to_string(p.stats.peak_bytes);
  char time_buf[32];
  std::snprintf(time_buf, sizeof(time_buf), " time=%.3fms",
                static_cast<double>(p.stats.wall_ns) / 1e6);
  out += time_buf;
  if (p.stats.normalize_ns > 0) {
    std::snprintf(time_buf, sizeof(time_buf), " normalize=%.3fms",
                  static_cast<double>(p.stats.normalize_ns) / 1e6);
    out += time_buf;
  }
  if (p.stats.par_workers > 1) {
    // Parallel efficiency of this operator's regions: 100% means every
    // participating thread was draining morsels for the whole region.
    double denom = static_cast<double>(p.stats.par_wall_ns) *
                   static_cast<double>(p.stats.par_workers);
    double eff = denom > 0
                     ? static_cast<double>(p.stats.par_busy_ns) / denom
                     : 0;
    if (eff > 1.0) eff = 1.0;
    char par_buf[64];
    std::snprintf(par_buf, sizeof(par_buf),
                  " par_eff=%.0f%% workers=%u morsels=%llu", eff * 100.0,
                  p.stats.par_workers,
                  static_cast<unsigned long long>(p.stats.par_morsels));
    out += par_buf;
  }
  out += "\n";
  for (const ExecProfile& c : p.children) RenderProfile(c, depth + 1, out);
}

void SumParallelInto(const ExecProfile& p, ParallelSummary& sum) {
  if (!p.shared_ref && p.stats.par_workers > 1) {
    sum.busy_ns += p.stats.par_busy_ns;
    sum.weighted_wall_ns += p.stats.par_wall_ns * p.stats.par_workers;
    sum.morsels += p.stats.par_morsels;
    if (p.stats.par_workers > sum.max_workers) {
      sum.max_workers = p.stats.par_workers;
    }
  }
  for (const ExecProfile& c : p.children) SumParallelInto(c, sum);
}

}  // namespace

ExecTotals SumProfile(const ExecProfile& profile) {
  ExecTotals totals;
  SumInto(profile, totals);
  return totals;
}

ParallelSummary SumParallel(const ExecProfile& profile) {
  ParallelSummary sum;
  SumParallelInto(profile, sum);
  return sum;
}

std::string ExecProfileToString(const ExecProfile& profile) {
  std::string out;
  RenderProfile(profile, 0, out);
  return out;
}

namespace {

void ProfileJson(const ExecProfile& p, std::string& out) {
  out += "{\"op\":\"";
  out += PhysOpKindName(p.op);
  out += "\",\"detail\":\"" + obs::JsonEscape(p.detail) + "\"";
  out += ",\"arity\":" + std::to_string(p.arity);
  out += ",\"shared_ref\":";
  out += p.shared_ref ? "true" : "false";
  const OpStats& s = p.stats;
  // Every field is emitted, even when zero: FromJson must reproduce the
  // profile exactly (round-trip tested in resource_test).
  out += ",\"stats\":{";
  out += "\"invocations\":" + std::to_string(s.invocations);
  out += ",\"rows_in\":" + std::to_string(s.rows_in);
  out += ",\"rows_out\":" + std::to_string(s.rows_out);
  out += ",\"build_rows\":" + std::to_string(s.build_rows);
  out += ",\"hash_probes\":" + std::to_string(s.hash_probes);
  out += ",\"function_calls\":" + std::to_string(s.function_calls);
  out += ",\"tuple_copies\":" + std::to_string(s.tuple_copies);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"wall_ns\":" + std::to_string(s.wall_ns);
  out += ",\"rows_sorted\":" + std::to_string(s.rows_sorted);
  out += ",\"normalize_ns\":" + std::to_string(s.normalize_ns);
  out += ",\"bytes_allocated\":" + std::to_string(s.bytes_allocated);
  out += ",\"peak_bytes\":" + std::to_string(s.peak_bytes);
  out += ",\"par_wall_ns\":" + std::to_string(s.par_wall_ns);
  out += ",\"par_busy_ns\":" + std::to_string(s.par_busy_ns);
  out += ",\"par_morsels\":" + std::to_string(s.par_morsels);
  out += ",\"par_workers\":" + std::to_string(s.par_workers);
  out += ",\"batches\":" + std::to_string(s.batches);
  out += ",\"batch_rows\":" + std::to_string(s.batch_rows);
  out += ",\"batch_sel_rows\":" + std::to_string(s.batch_sel_rows);
  out += "}";
  if (p.total_peak_bytes != 0 || p.total_bytes_allocated != 0) {
    out += ",\"total_peak_bytes\":" + std::to_string(p.total_peak_bytes);
    out += ",\"total_bytes_allocated\":" +
           std::to_string(p.total_bytes_allocated);
  }
  out += ",\"children\":[";
  for (size_t i = 0; i < p.children.size(); ++i) {
    if (i > 0) out += ",";
    ProfileJson(p.children[i], out);
  }
  out += "]}";
}

StatusOr<ExecProfile> ProfileFromJsonValue(const obs::JsonValue& v) {
  if (!v.is_object()) {
    return InvalidArgumentError("profile node is not a JSON object");
  }
  ExecProfile p;
  std::string op_name = v.StringOr("op", "");
  bool found = false;
  for (int k = 0; k < kNumPhysOpKinds; ++k) {
    auto kind = static_cast<PhysOpKind>(k);
    if (op_name == PhysOpKindName(kind)) {
      p.op = kind;
      found = true;
      break;
    }
  }
  if (!found) {
    return InvalidArgumentError("unknown physical operator '" + op_name +
                                "'");
  }
  p.detail = v.StringOr("detail", "");
  p.arity = v.UintOr<int>("arity", 0);
  p.shared_ref = v.BoolOr("shared_ref", false);
  if (const obs::JsonValue* st = v.Find("stats");
      st != nullptr && st->is_object()) {
    OpStats& s = p.stats;
    s.invocations = st->UintOr("invocations", 0);
    s.rows_in = st->UintOr("rows_in", 0);
    s.rows_out = st->UintOr("rows_out", 0);
    s.build_rows = st->UintOr("build_rows", 0);
    s.hash_probes = st->UintOr("hash_probes", 0);
    s.function_calls = st->UintOr("function_calls", 0);
    s.tuple_copies = st->UintOr("tuple_copies", 0);
    s.cache_hits = st->UintOr("cache_hits", 0);
    s.wall_ns = st->UintOr("wall_ns", 0);
    s.rows_sorted = st->UintOr("rows_sorted", 0);
    s.normalize_ns = st->UintOr("normalize_ns", 0);
    s.bytes_allocated = st->UintOr("bytes_allocated", 0);
    s.peak_bytes = st->UintOr<int64_t>("peak_bytes", 0);
    s.par_wall_ns = st->UintOr("par_wall_ns", 0);
    s.par_busy_ns = st->UintOr("par_busy_ns", 0);
    s.par_morsels = st->UintOr("par_morsels", 0);
    s.par_workers = st->UintOr<uint32_t>("par_workers", 0);
    s.batches = st->UintOr("batches", 0);
    s.batch_rows = st->UintOr("batch_rows", 0);
    s.batch_sel_rows = st->UintOr("batch_sel_rows", 0);
  }
  p.total_peak_bytes = v.UintOr<int64_t>("total_peak_bytes", 0);
  p.total_bytes_allocated = v.UintOr("total_bytes_allocated", 0);
  if (const obs::JsonValue* ch = v.Find("children");
      ch != nullptr && ch->is_array()) {
    for (const obs::JsonValue& c : ch->array) {
      auto child = ProfileFromJsonValue(c);
      if (!child.ok()) return child.status();
      p.children.push_back(std::move(*child));
    }
  }
  return p;
}

}  // namespace

std::string ExecProfileToJson(const ExecProfile& profile) {
  std::string out;
  ProfileJson(profile, out);
  return out;
}

StatusOr<ExecProfile> ExecProfileFromJson(std::string_view json) {
  auto parsed = obs::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  return ProfileFromJsonValue(*parsed);
}

StatusOr<PhysicalPlan::Result> PhysicalPlan::Execute(
    const Database& db, ExecProfile* profile,
    std::span<const Value> args) const {
  obs::Span span("exec.execute");
  if (span.enabled()) {
    span.SetDetail("ops=" + std::to_string(ops_.size()));
  }
  static obs::Counter& executions =
      obs::MetricsRegistry::Instance().GetCounter("exec.plan_executions");
  executions.Add();
  if (args.size() != static_cast<size_t>(num_params_)) {
    return InvalidArgumentError(
        "expected " + std::to_string(num_params_) + " arguments, got " +
        std::to_string(args.size()));
  }
  // Validate every Scan binding up front so a broken plan fails before any
  // operator runs (mirrors the legacy evaluator's Validate pass).
  for (const std::unique_ptr<PhysicalOp>& op : ops_) {
    if (op->kind != PhysOpKind::kScan) continue;
    auto rel = db.Get(op->rel_name);
    if (!rel.ok()) return rel.status();
    if ((*rel)->arity() != op->arity) {
      return InvalidArgumentError(
          "plan expects relation '" + op->rel_name + "' with arity " +
          std::to_string(op->arity) + ", instance has " +
          std::to_string((*rel)->arity()));
    }
  }
  ExecContext exec(*this, db, args);
  auto result = exec.Run(root_);
  // Fold per-op memory slots into the stats before the profile is built,
  // so the profile is complete even when the run failed (a tripped
  // governor still reports the partial work).
  for (size_t i = 0; i < ops_.size(); ++i) {
    exec.stats[i].bytes_allocated = exec.qmem.OpBytesAllocated(i);
    exec.stats[i].peak_bytes = exec.qmem.OpPeakBytes(i);
  }
  if (profile != nullptr) {
    std::vector<bool> visited(ops_.size(), false);
    *profile = BuildProfile(root_, exec.stats, visited);
    profile->total_peak_bytes = exec.qmem.peak_bytes();
    profile->total_bytes_allocated = exec.qmem.bytes_allocated();
  }
  static obs::Gauge& peak_gauge =
      obs::MetricsRegistry::Instance().GetGauge("exec.peak_query_bytes");
  peak_gauge.UpdateMax(exec.qmem.peak_bytes());
  if (!result.ok() &&
      result.status().code() == StatusCode::kResourceExhausted) {
    static obs::Counter& aborted =
        obs::MetricsRegistry::Instance().GetCounter("exec.queries_aborted");
    aborted.Add();
  }
  return result;
}

StatusOr<Relation> PhysicalPlan::ExecuteToRelation(
    const Database& db, ExecProfile* profile,
    std::span<const Value> args) const {
  auto result = Execute(db, profile, args);
  if (!result.ok()) return result.status();
  if (result->owned != nullptr) return std::move(*result->owned);
  return *result->relation;  // borrowed (scan/materialized): copy out
}

}  // namespace emcalc
