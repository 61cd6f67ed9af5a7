// Shared machinery of the end-to-end benchmark: metric maps, latency
// samples, set-up timing, order-independent answer digests, and the
// in-memory span tracer used by the traced run.
//
// Every workload is a closed loop with one caller: the next operation
// starts when the previous answer returns. Work per run is fixed (whole
// corpus slices, a fixed number of report rounds or prepared runs), never
// cut off by a wall-clock limit.
#ifndef EMCALC_PERFBENCH_HARNESS_H_
#define EMCALC_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/physical.h"
#include "src/storage/interpretation.h"
#include "src/storage/relation.h"

namespace emcalc::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

// What one workload run reports. `failed` counts errors and wrong answers;
// `checked` is the number of answers compared against a reference.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  std::vector<std::string> notes;  // human-readable lines, printed first
  MetricMap end_to_end;
  MetricMap per_layer;
};

// Per-op latency samples (ns) of the timed phase, in op order.
class Latencies {
 public:
  void Add(uint64_t ns) { ns_.push_back(ns); }
  size_t size() const { return ns_.size(); }
  uint64_t at(size_t i) const { return ns_[i]; }

 private:
  std::vector<uint64_t> ns_;
};

// The host shares its caches and memory bandwidth with other tenants, and
// their load comes in phases of about 0.5-2 s that moved a 60 ms adhoc
// slice's rate by up to 2.7x. A run's mean or median lands wherever the
// phases happened to fall, so the end-to-end timings are taken over the
// run's least-contended slices: the fastest 1/kFastShareInverse of them,
// and at least kMinSampleOps ops.
inline constexpr size_t kFastShareInverse = 10;
inline constexpr size_t kMinSampleOps = 100;

// Fills the end-to-end metrics every workload shares. `slice_ns` holds the
// wall time of each timed slice of `slice_ops` consecutive ops (answer
// checks between slices excluded); `lat` holds every op's latency.
// Throughput is the fast slices' ops over their wall time; the latency
// percentiles are over the fast slices' ops.
void AddEndToEnd(WorkloadResult& r, double setup_s, size_t slice_ops,
                 const std::vector<uint64_t>& slice_ns, const Latencies& lat);

// Runs `setup` `reps` times and returns the median wall time in seconds;
// each repetition's time goes to r.notes. Each call must do the same
// deterministic work and leave the state the timed phase uses (the last
// call's state is the one kept).
double MedianSetupSeconds(int reps, const std::function<void()>& setup,
                          WorkloadResult& r);

// Peak resident set size of the process in MB (ru_maxrss).
double PeakRssMb();

// Row count plus an order-independent hash of a set of tuples, so an
// answer can be compared with a reference computed another way.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

// Builds a Digest from tuples given field by field. Tuples must be
// distinct (answers are sets); the reference implementations dedupe first.
class DigestBuilder {
 public:
  DigestBuilder& Int(int64_t v);
  DigestBuilder& Str(std::string_view v);
  void EndTuple();
  Digest Finish() const { return {rows_, sum_}; }

 private:
  uint64_t cur_ = 14695981039346656037ull;
  uint64_t rows_ = 0;
  uint64_t sum_ = 0;
};

Digest DigestOf(const Relation& rel);

// In-memory spans for the traced run: name, start, end, parent, and the id
// of the operation they belong to. Written out once, at the end. A
// disabled tracer records nothing, so the same code runs without spans.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t op;
    int parent;  // index into spans(), -1 for a root
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  // Returns the span's id, or -1 when the tracer is disabled.
  int Begin(const char* name, uint64_t op, int parent);
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span: duration minus the part of it covered by its
  // children (children of one span never overlap here: every span is
  // opened and closed by the single benchmark thread).
  std::vector<uint64_t> SelfNs() const;
  // Sum of self times by span name.
  std::map<std::string, uint64_t> SelfNsByName() const;
  // Sum of the self times of root span `root` and its descendants, which
  // are the spans opened after it, up to index `end` (exclusive).
  uint64_t SubtreeSelfNs(int root, size_t end) const;

  // Chrome trace-event JSON (one complete event per span).
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span around one call.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, uint64_t op, int parent)
      : t_(t), id_(t.Begin(name, op, parent)) {}
  ~Scoped() { t_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// Operator numbers summed over the ExecProfile trees of the traced run.
// Self time of a node is its inclusive time minus its non-shared
// children's inclusive time.
class OperatorTotals {
 public:
  void Add(const ExecProfile& root);
  // Adds the per-kind and whole-plan operator metrics, each divided by
  // `ops` (per-op means).
  void Emit(MetricMap& out, double ops) const;

 private:
  void Visit(const ExecProfile& p);

  struct Kind {
    uint64_t self_ns = 0;
    uint64_t rows_in = 0;
    uint64_t rows_out = 0;
  };
  std::map<PhysOpKind, Kind> kinds_;
  uint64_t build_rows_ = 0;
  uint64_t hash_probes_ = 0;
  uint64_t function_calls_ = 0;
  uint64_t batch_rows_ = 0;
  uint64_t batch_sel_rows_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t tuple_copies_ = 0;
  int64_t peak_bytes_ = 0;
  uint64_t par_busy_ns_ = 0;
  uint64_t par_weighted_ns_ = 0;
};

// Adds `name` with `unit` to `m`.
inline void Put(MetricMap& m, const std::string& name, double value,
                const char* unit) {
  m[name] = Metric{value, unit};
}

// Times one traced op's stage path twice: with the stage-root span, and
// with a plain clock pair just outside it that the tracer does not see.
class StagePath {
 public:
  StagePath(Tracer& tracer, uint64_t op)
      : tracer_(tracer), outer_start_(NowNs()),
        root_(tracer.Begin("stage", op, -1)) {}
  int root() const { return root_; }
  // Closes the root span; call once, when the stage path is done.
  void End() {
    tracer_.End(root_);
    outer_ns_ = NowNs() - outer_start_;
    end_ = tracer_.spans().size();
  }
  uint64_t outer_ns() const { return outer_ns_; }
  size_t end() const { return end_; }  // one past the root's last descendant

 private:
  Tracer& tracer_;
  uint64_t outer_start_;
  int root_;
  uint64_t outer_ns_ = 0;
  size_t end_ = 0;
};

// Bookkeeping every traced run shares. Each traced op runs its stage path
// twice, under spans and with a disabled tracer, plus the facade under one
// span.
struct TraceTotals {
  uint64_t ops = 0;
  uint64_t traced_ns = 0;    // stage paths under spans
  uint64_t untraced_ns = 0;  // the same stage paths without spans
  int64_t facade_gap_ns = 0;  // sum over ops of facade minus stage root
  uint64_t plan_mismatches = 0;
  uint64_t span_sum_mismatches = 0;
  std::vector<std::string> notes;  // the first span sum mismatches

  // `bare` is the op's stage path run with a disabled tracer. Counts a
  // span sum mismatch when the traced path's span self times do not add
  // up to its independently clocked time.
  void AddOp(const Tracer& tracer, const StagePath& stage,
             const StagePath& bare, int facade);
};

// Adds core.facade_overhead_us, check.plan_mismatches,
// check.span_sum_mismatches and bench.tracing_overhead, and writes the
// spans to `trace_out` (when set).
void EmitTraceTotals(const Tracer& tracer, const TraceTotals& totals,
                     const std::string& trace_out, WorkloadResult& r);

// Adds the storage.* metrics of a set-up that loaded `rows` CSV rows in
// `csv_ns`.
void PutStorage(MetricMap& m, uint64_t csv_ns, size_t rows);

// The human-readable error-rate line. `rejected` counts documented
// expected rejections, which the printed rate includes but `failed` does
// not.
std::string ErrorRateLine(const WorkloadResult& r, uint64_t rejected = 0);

// The payroll scenario's net pay after tax (examples/payroll.cpp), and its
// registration as the host function "net".
int64_t Net(int64_t gross);
void RegisterNet(FunctionRegistry& reg);

// The per-layer metric names every workload reports (zero when the layer
// is not on the workload's per-op path). Listed once so the three
// workloads cannot drift apart.
const std::vector<std::pair<std::string, std::string>>& PerLayerSchema();

// Fills any schema metric a workload did not set with 0.
void CompletePerLayer(MetricMap& m);

// A deterministic seed for input stream `stream` of the run seeded `seed`,
// so the warm-up and timed inputs never share a generator.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// Fixed work of a run: the number of `slice`-op slices that take about
// `seconds` at `nominal_ops_per_s` (at least one). The count depends only
// on the arguments, never on how fast the program turns out to be.
size_t FixedSlices(double nominal_ops_per_s, int seconds, size_t slice);

// One relation's instance as CSV text (the format LoadCsvText reads).
struct CsvTable {
  std::string name;
  std::string text;
  size_t rows = 0;
};

// The three workloads; each generates its inputs from opts.seed.
WorkloadResult RunAdhoc(const Options& opts);
WorkloadResult RunPayroll(const Options& opts);
WorkloadResult RunPrepared(const Options& opts);

}  // namespace emcalc::perfbench

#endif  // EMCALC_PERFBENCH_HARNESS_H_
