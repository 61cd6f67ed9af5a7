#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/base/string_pool.h"

namespace emcalc::perfbench {

namespace {

// Nearest-rank percentile of sorted samples, in microseconds.
double PercentileUs(const std::vector<uint64_t>& sorted, double p) {
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e3;
}

}  // namespace

void AddEndToEnd(WorkloadResult& r, double setup_s, size_t slice_ops,
                 const std::vector<uint64_t>& slice_ns, const Latencies& lat) {
  MetricMap& m = r.end_to_end;
  Put(m, "setup_s", setup_s, "s");
  // The least-contended slices: the fastest tenth by wall time, and enough
  // of them for kMinSampleOps ops.
  const size_t n = slice_ns.size();
  std::vector<size_t> order(n);
  for (size_t k = 0; k < n; ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slice_ns[a] < slice_ns[b];
  });
  const size_t want = std::max((n + kFastShareInverse - 1) / kFastShareInverse,
                               (kMinSampleOps + slice_ops - 1) / slice_ops);
  const size_t fast = std::min(n, want);
  uint64_t fast_ns = 0, all_ns = 0;
  std::vector<uint64_t> sample;
  for (size_t k = 0; k < fast; ++k) {
    fast_ns += slice_ns[order[k]];
    for (size_t i = order[k] * slice_ops; i < (order[k] + 1) * slice_ops; ++i) {
      sample.push_back(lat.at(i));
    }
  }
  for (uint64_t ns : slice_ns) all_ns += ns;
  std::sort(sample.begin(), sample.end());
  auto rate = [&](size_t slices, uint64_t ns) {
    return static_cast<double>(slices * slice_ops) /
           (static_cast<double>(ns) / 1e9);
  };
  Put(m, "throughput_ops_s", rate(fast, fast_ns), "ops/s");
  Put(m, "latency_p50_us", PercentileUs(sample, 50), "us");
  // At least kMinSampleOps ops, so at least ten samples lie beyond the p90.
  Put(m, "latency_p90_us", PercentileUs(sample, 90), "us");
  Put(m, "peak_rss_mb", PeakRssMb(), "MB");
  char line[200];
  std::snprintf(line, sizeof(line),
                "timings from the fastest %zu of %zu slices (%zu of %zu ops); "
                "throughput over all slices: %.1f ops/s",
                fast, n, sample.size(), lat.size(), rate(n, all_ns));
  r.notes.push_back(line);
  if (sample.size() >= 1000) {
    std::snprintf(line, sizeof(line), "latency_p99_us: %.3f us (%zu ops)",
                  PercentileUs(sample, 99), sample.size());
  } else {
    std::snprintf(line, sizeof(line),
                  "latency_p99_us: not reported (%zu ops < 1000)",
                  sample.size());
  }
  r.notes.push_back(line);
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup,
                          WorkloadResult& r) {
  std::vector<double> s;
  std::string line = "set-up repetitions (s):";
  for (int i = 0; i < reps; ++i) {
    uint64_t t0 = NowNs();
    setup();
    s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", s.back());
    line += buf;
  }
  r.notes.push_back(line);
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

DigestBuilder& DigestBuilder::Int(int64_t v) {
  cur_ = Fnv(cur_, "i", 1);
  cur_ = Fnv(cur_, &v, sizeof(v));
  return *this;
}

DigestBuilder& DigestBuilder::Str(std::string_view v) {
  uint64_t n = v.size();
  cur_ = Fnv(cur_, "s", 1);
  cur_ = Fnv(cur_, &n, sizeof(n));
  cur_ = Fnv(cur_, v.data(), v.size());
  return *this;
}

void DigestBuilder::EndTuple() {
  sum_ += Mix(cur_);
  ++rows_;
  cur_ = 14695981039346656037ull;
}

Digest DigestOf(const Relation& rel) {
  DigestBuilder b;
  for (const auto& t : rel) {
    for (const Value& v : t) {
      if (v.is_int()) {
        b.Int(v.AsInt());
      } else {
        b.Str(v.AsStr());
      }
    }
    b.EndTuple();
  }
  return b.Finish();
}

int Tracer::Begin(const char* name, uint64_t op, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, op, parent, NowNs(), 0});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<uint64_t> Tracer::SelfNs() const {
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    uint64_t covered = s.end_ns - s.start_ns;
    uint64_t& p = self[static_cast<size_t>(s.parent)];
    p = covered > p ? 0 : p - covered;
  }
  return self;
}

std::map<std::string, uint64_t> Tracer::SelfNsByName() const {
  std::vector<uint64_t> self = SelfNs();
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

uint64_t Tracer::SubtreeSelfNs(int root, size_t end) const {
  const size_t first = static_cast<size_t>(root);
  std::vector<uint64_t> self;
  for (size_t i = first; i < end; ++i) {
    self.push_back(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (size_t i = first + 1; i < end; ++i) {
    const int parent = spans_[i].parent;
    if (parent < root) continue;  // not in this subtree
    uint64_t covered = spans_[i].end_ns - spans_[i].start_ns;
    uint64_t& p = self[static_cast<size_t>(parent) - first];
    p = covered > p ? 0 : p - covered;
  }
  uint64_t sum = 0;
  for (uint64_t ns : self) sum += ns;
  return sum;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                  "\"id\":%zu,\"parent\":%d}}\n",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.op), i, s.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void OperatorTotals::Add(const ExecProfile& root) {
  peak_bytes_ += std::max<int64_t>(root.total_peak_bytes, 0);
  Visit(root);
}

void OperatorTotals::Visit(const ExecProfile& p) {
  if (p.shared_ref) return;  // a repeat reference; its subtree ran once
  uint64_t children_ns = 0;
  for (const ExecProfile& c : p.children) {
    if (!c.shared_ref) children_ns += c.stats.wall_ns;
    Visit(c);
  }
  const OpStats& s = p.stats;
  Kind& k = kinds_[p.op];
  k.self_ns += s.wall_ns > children_ns ? s.wall_ns - children_ns : 0;
  k.rows_in += s.rows_in;
  k.rows_out += s.rows_out;
  build_rows_ += s.build_rows;
  hash_probes_ += s.hash_probes;
  if (p.op == PhysOpKind::kProjectMap) function_calls_ += s.function_calls;
  if (p.op == PhysOpKind::kFilterSelect) {
    batch_rows_ += s.batch_rows;
    batch_sel_rows_ += s.batch_sel_rows;
  }
  cache_hits_ += s.cache_hits;
  tuple_copies_ += s.tuple_copies;
  if (s.par_workers > 1) {
    par_busy_ns_ += s.par_busy_ns;
    par_weighted_ns_ += s.par_wall_ns * s.par_workers;
  }
}

namespace {

constexpr PhysOpKind kReportedKinds[] = {
    PhysOpKind::kScan,           PhysOpKind::kProjectMap,
    PhysOpKind::kFilterSelect,   PhysOpKind::kHashJoin,
    PhysOpKind::kNestedLoopJoin, PhysOpKind::kDiffAnti,
    PhysOpKind::kUnionMerge,     PhysOpKind::kMaterialize,
};

}  // namespace

void OperatorTotals::Emit(MetricMap& out, double ops) const {
  auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
  for (PhysOpKind kind : kReportedKinds) {
    std::string base = std::string("exec.") + PhysOpKindName(kind) + ".";
    Kind k;
    if (auto it = kinds_.find(kind); it != kinds_.end()) k = it->second;
    Put(out, base + "self_us", per_op(static_cast<double>(k.self_ns) / 1e3),
        "us");
    Put(out, base + "rows_in", per_op(static_cast<double>(k.rows_in)),
        "count");
    Put(out, base + "rows_out", per_op(static_cast<double>(k.rows_out)),
        "count");
  }
  Put(out, "exec.HashJoin.build_rows",
      per_op(static_cast<double>(build_rows_)), "count");
  Put(out, "exec.HashJoin.hash_probes",
      per_op(static_cast<double>(hash_probes_)), "count");
  Put(out, "exec.ProjectMap.function_calls",
      per_op(static_cast<double>(function_calls_)), "count");
  Put(out, "exec.FilterSelect.sel_density",
      batch_rows_ == 0 ? 0.0
                       : static_cast<double>(batch_sel_rows_) /
                             static_cast<double>(batch_rows_),
      "ratio");
  Put(out, "exec.Materialize.cache_hits",
      per_op(static_cast<double>(cache_hits_)), "count");
  Put(out, "exec.tuple_copies", per_op(static_cast<double>(tuple_copies_)),
      "count");
  Put(out, "exec.peak_bytes", per_op(static_cast<double>(peak_bytes_)),
      "bytes");
  Put(out, "exec.parallel_efficiency",
      par_weighted_ns_ == 0 ? 0.0
                            : static_cast<double>(par_busy_ns_) /
                                  static_cast<double>(par_weighted_ns_),
      "ratio");
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSchema() {
  static const auto* schema = [] {
    auto* s = new std::vector<std::pair<std::string, std::string>>{
        {"calculus.parse_us", "us"},
        {"safety.check_us", "us"},
        {"finds.bd_computations", "count"},
        {"finds.find_count", "count"},
        {"translate.rectify_us", "us"},
        {"translate.enf_us", "us"},
        {"translate.enf_size", "count"},
        {"translate.ranf_us", "us"},
        {"translate.ranf_size", "count"},
        {"translate.algebra_gen_us", "us"},
        {"translate.raw_plan_nodes", "count"},
        {"translate.rejected_em_allowed", "count"},
        {"algebra.optimize_us", "us"},
        {"algebra.plan_nodes", "count"},
        {"exec.lower_us", "us"},
        {"exec.physical_ops", "count"},
    };
    MetricMap ops;
    OperatorTotals().Emit(ops, 1);
    for (const auto& [name, m] : ops) s->emplace_back(name, m.unit);
    s->insert(s->end(), {
                            {"exec.execute_us", "us"},
                            {"core.plan_for_us", "us"},
                            {"translate.substitute_us", "us"},
                            {"core.arena_bytes_per_run", "bytes"},
                            {"core.constants_per_run", "count"},
                            {"core.facade_overhead_us", "us"},
                            {"storage.csv_load_us", "us"},
                            {"storage.csv_rows_per_s", "rows/s"},
                            {"storage.string_pool_entries", "count"},
                            {"bench.tracing_overhead", "ratio"},
                            {"check.reference_checked", "count"},
                            {"check.plan_mismatches", "count"},
                            {"check.span_sum_mismatches", "count"},
                        });
    return s;
  }();
  return *schema;
}

void CompletePerLayer(MetricMap& m) {
  for (const auto& [name, unit] : PerLayerSchema()) {
    if (m.find(name) == m.end()) m[name] = Metric{0, unit};
  }
}

namespace {

// Slack allowed between the stage path's span self times and its plain
// clock pair. The pair adds two clock reads outside the root span, and on
// a shared VM an interrupt or a stolen time slice can land between them
// (with a 10 us slack, about 1 op in 10^4 missed). An unclosed span, or a
// child outside its parent, misses by far more.
constexpr uint64_t kSpanSumSlackNs = 100'000;
constexpr double kSpanSumSlackShare = 0.05;

}  // namespace

void TraceTotals::AddOp(const Tracer& tracer, const StagePath& stage,
                        const StagePath& bare, int facade) {
  auto dur = [&](int id) {
    const Tracer::Span& s = tracer.spans()[static_cast<size_t>(id)];
    return static_cast<int64_t>(s.end_ns - s.start_ns);
  };
  const uint64_t self_sum = tracer.SubtreeSelfNs(stage.root(), stage.end());
  const uint64_t outer = stage.outer_ns();
  const double slack = static_cast<double>(kSpanSumSlackNs) +
                       kSpanSumSlackShare * static_cast<double>(outer);
  if (self_sum > outer || static_cast<double>(outer - self_sum) > slack) {
    if (++span_sum_mismatches <= 3) {
      notes.push_back("SPAN SUM MISMATCH at op " +
                      std::to_string(tracer.spans()[stage.root()].op) +
                      ": span self times " + std::to_string(self_sum) +
                      " ns, plain clock " + std::to_string(outer) + " ns");
    }
  }
  facade_gap_ns += dur(facade) - dur(stage.root());
  traced_ns += outer;
  untraced_ns += bare.outer_ns();
  ++ops;
}

void EmitTraceTotals(const Tracer& tracer, const TraceTotals& totals,
                     const std::string& trace_out, WorkloadResult& r) {
  MetricMap& m = r.per_layer;
  const double ops = static_cast<double>(totals.ops);
  Put(m, "core.facade_overhead_us",
      static_cast<double>(totals.facade_gap_ns) / 1e3 / ops, "us");
  Put(m, "check.plan_mismatches", static_cast<double>(totals.plan_mismatches),
      "count");
  Put(m, "check.span_sum_mismatches",
      static_cast<double>(totals.span_sum_mismatches), "count");
  Put(m, "bench.tracing_overhead",
      static_cast<double>(totals.untraced_ns) /
              static_cast<double>(totals.traced_ns) -
          1,
      "ratio");
  r.notes.insert(r.notes.end(), totals.notes.begin(), totals.notes.end());
  if (!trace_out.empty() && !tracer.WriteChromeJson(trace_out)) {
    r.notes.push_back("WARNING: could not write " + trace_out);
  }
}

void PutStorage(MetricMap& m, uint64_t csv_ns, size_t rows) {
  Put(m, "storage.csv_load_us", static_cast<double>(csv_ns) / 1e3, "us");
  Put(m, "storage.csv_rows_per_s",
      static_cast<double>(rows) / (static_cast<double>(csv_ns) / 1e9),
      "rows/s");
  Put(m, "storage.string_pool_entries",
      static_cast<double>(StringPool::Global().size()), "count");
}

std::string ErrorRateLine(const WorkloadResult& r, uint64_t rejected) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "error_rate: %.6f (failed=%llu + rejected_em_allowed=%llu of "
                "attempted=%llu; reference_checked=%llu)",
                static_cast<double>(r.failed + rejected) /
                    static_cast<double>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.checked));
  return line;
}

int64_t Net(int64_t gross) {
  int64_t tax =
      gross <= 50'000 ? gross / 5 : 10'000 + (gross - 50'000) * 35 / 100;
  return gross - tax;
}

void RegisterNet(FunctionRegistry& reg) {
  reg.Register("net", 1, [](std::span<const Value> a) {
    return Value::Int(Net(a[0].is_int() ? a[0].AsInt() : 0));
  });
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix(Mix(seed) ^ (stream * 0x9e3779b97f4a7c15ull + 1));
}

size_t FixedSlices(double nominal_ops_per_s, int seconds, size_t slice) {
  double ops = nominal_ops_per_s * seconds;
  size_t n = static_cast<size_t>(ops / static_cast<double>(slice) + 0.5);
  return n == 0 ? 1 : n;
}

}  // namespace emcalc::perfbench
