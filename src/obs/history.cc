#include "src/obs/history.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/obs/json.h"

namespace emcalc::obs {

namespace {

// Run lines moved to the RunRecord keys in version 2; agg lines are
// unchanged since version 1.
constexpr int kRunLineVersion = 2;
constexpr int kAggLineVersion = 1;
constexpr const char kHistoryFileName[] = "history.jsonl";

struct HistoryMetrics {
  Counter& runs_recorded;
  Counter& compactions;
  Gauge& queries;

  static HistoryMetrics& Get() {
    static HistoryMetrics* m = [] {
      auto& reg = MetricsRegistry::Instance();
      return new HistoryMetrics{reg.GetCounter("history.runs_recorded"),
                                reg.GetCounter("history.compactions"),
                                reg.GetGauge("history.queries")};
    }();
    return *m;
  }
};

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Digests on the shared metrics bucket layouts ----------------------

void DigestObserve(Histogram::Snapshot& d, const std::vector<double>& bounds,
                   double v) {
  if (d.counts.size() != bounds.size() + 1) {
    d.counts.assign(bounds.size() + 1, 0);
  }
  auto bucket = static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
  ++d.counts[bucket];
  if (d.count == 0) {
    d.min = v;
    d.max = v;
  } else {
    d.min = std::min(d.min, v);
    d.max = std::max(d.max, v);
  }
  ++d.count;
  d.sum += v;
}

void DigestMerge(Histogram::Snapshot& into, const Histogram::Snapshot& from,
                 const std::vector<double>& bounds) {
  if (from.count == 0) return;
  if (into.counts.size() != bounds.size() + 1) {
    into.counts.assign(bounds.size() + 1, 0);
  }
  for (size_t i = 0; i < from.counts.size() && i < into.counts.size(); ++i) {
    into.counts[i] += from.counts[i];
  }
  into.min = into.count == 0 ? from.min : std::min(into.min, from.min);
  into.max = into.count == 0 ? from.max : std::max(into.max, from.max);
  into.count += from.count;
  into.sum += from.sum;
}

std::string DigestJson(const Histogram::Snapshot& d) {
  std::string out = "{\"count\":" + std::to_string(d.count);
  if (d.count > 0) {
    out += ",\"sum\":" + FormatDouble(d.sum);
    out += ",\"min\":" + FormatDouble(d.min);
    out += ",\"max\":" + FormatDouble(d.max);
    out += ",\"counts\":[";
    for (size_t i = 0; i < d.counts.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(d.counts[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

Histogram::Snapshot DigestFromJson(const JsonValue* v,
                                   const std::vector<double>& bounds) {
  Histogram::Snapshot d;
  if (v == nullptr || !v->is_object()) return d;
  d.count = static_cast<uint64_t>(v->NumberOr("count", 0));
  if (d.count == 0) return Histogram::Snapshot{};
  d.sum = v->NumberOr("sum", 0);
  d.min = v->NumberOr("min", 0);
  d.max = v->NumberOr("max", 0);
  d.counts.assign(bounds.size() + 1, 0);
  if (const JsonValue* counts = v->Find("counts");
      counts != nullptr && counts->is_array()) {
    for (size_t i = 0; i < counts->array.size() && i < d.counts.size(); ++i) {
      if (counts->array[i].is_number()) {
        d.counts[i] = static_cast<uint64_t>(counts->array[i].number);
      }
    }
  }
  return d;
}

// ---- Line serialization ------------------------------------------------

// Version-1 run lines spelled three RunRecord keys differently.
void RenameV1RunKeys(JsonValue& line) {
  for (auto& [key, value] : line.object) {
    if (key == "hash") {
      key = "query_hash";
    } else if (key == "aborted") {
      key = "aborted_limit";
    } else if (key == "par_eff") {
      key = "parallel_efficiency";
    }
  }
}

std::string AggLineJson(const QueryHistory& h, uint64_t generation) {
  std::string out = "{\"v\":" + std::to_string(kAggLineVersion);
  out += ",\"type\":\"agg\"";
  out += ",\"gen\":" + std::to_string(generation);
  out += ",\"hash\":\"" + std::to_string(h.query_hash) + "\"";
  if (!h.query.empty()) out += ",\"query\":\"" + JsonEscape(h.query) + "\"";
  out += ",\"runs\":" + std::to_string(h.runs);
  out += ",\"aborts\":" + std::to_string(h.aborts);
  out += ",\"errors\":" + std::to_string(h.errors);
  out += ",\"rows_out_last\":" + std::to_string(h.rows_out_last);
  out += ",\"par_eff_sum\":" + FormatDouble(h.par_eff_sum);
  out += ",\"par_runs\":" + std::to_string(h.par_runs);
  out += ",\"factor_worst\":" + FormatDouble(h.factor_worst);
  out += ",\"factor_sum\":" + FormatDouble(h.factor_sum);
  out += ",\"factor_count\":" + std::to_string(h.factor_count);
  out += ",\"wall\":" + DigestJson(h.wall);
  out += ",\"peak\":" + DigestJson(h.peak);
  out += ",\"trend\":[";
  for (size_t i = 0; i < h.wall_trend.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(h.wall_trend[i]);
  }
  out += "],\"ops\":[";
  bool first = true;
  for (const auto& [path, op] : h.ops) {
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + JsonEscape(path) + "\"";
    out += ",\"op\":\"" + JsonEscape(op.op) + "\"";
    out += ",\"runs\":" + std::to_string(op.runs);
    out += ",\"est_sum\":" + FormatDouble(op.est_sum);
    out += ",\"actual_sum\":" + FormatDouble(op.actual_sum);
    out += ",\"actual_last\":" + std::to_string(op.actual_last);
    out += ",\"factor_sum\":" + FormatDouble(op.factor_sum);
    out += ",\"factor_worst\":" + FormatDouble(op.factor_worst);
    out += "}";
  }
  out += "]}";
  return out;
}

QueryHistory AggFromJson(const JsonValue& v) {
  QueryHistory h;
  h.query_hash = std::strtoull(v.StringOr("hash", "0").c_str(), nullptr, 10);
  h.query = v.StringOr("query", "");
  h.runs = static_cast<uint64_t>(v.NumberOr("runs", 0));
  h.aborts = static_cast<uint64_t>(v.NumberOr("aborts", 0));
  h.errors = static_cast<uint64_t>(v.NumberOr("errors", 0));
  h.rows_out_last = static_cast<uint64_t>(v.NumberOr("rows_out_last", 0));
  h.par_eff_sum = v.NumberOr("par_eff_sum", 0);
  h.par_runs = static_cast<uint64_t>(v.NumberOr("par_runs", 0));
  h.factor_worst = v.NumberOr("factor_worst", 1);
  h.factor_sum = v.NumberOr("factor_sum", 0);
  h.factor_count = static_cast<uint64_t>(v.NumberOr("factor_count", 0));
  h.wall = DigestFromJson(v.Find("wall"), DefaultLatencyBucketsNs());
  h.peak = DigestFromJson(v.Find("peak"), DefaultSizeBucketsBytes());
  if (const JsonValue* trend = v.Find("trend");
      trend != nullptr && trend->is_array()) {
    for (const JsonValue& t : trend->array) {
      if (t.is_number()) {
        h.wall_trend.push_back(static_cast<uint64_t>(t.number));
      }
    }
    if (h.wall_trend.size() > kHistoryTrendLen) {
      h.wall_trend.erase(h.wall_trend.begin(),
                         h.wall_trend.end() -
                             static_cast<long>(kHistoryTrendLen));
    }
  }
  if (const JsonValue* ops = v.Find("ops");
      ops != nullptr && ops->is_array()) {
    for (const JsonValue& o : ops->array) {
      if (!o.is_object()) continue;
      OpHistory op;
      std::string path = o.StringOr("path", "");
      op.op = o.StringOr("op", "");
      op.runs = static_cast<uint64_t>(o.NumberOr("runs", 0));
      op.est_sum = o.NumberOr("est_sum", 0);
      op.actual_sum = o.NumberOr("actual_sum", 0);
      op.actual_last = static_cast<uint64_t>(o.NumberOr("actual_last", 0));
      op.factor_sum = o.NumberOr("factor_sum", 0);
      op.factor_worst = o.NumberOr("factor_worst", 1);
      h.ops.emplace(std::move(path), std::move(op));
    }
  }
  return h;
}

// Merges a loaded aggregate into an entry (normally the entry is fresh; a
// crash between compaction and truncate could leave two agg generations,
// and merging keeps every run counted).
void MergeHistory(QueryHistory& into, QueryHistory&& from) {
  if (into.runs == 0) {
    into = std::move(from);
    return;
  }
  if (!from.query.empty()) into.query = std::move(from.query);
  into.runs += from.runs;
  into.aborts += from.aborts;
  into.errors += from.errors;
  into.rows_out_last = from.rows_out_last;
  into.par_eff_sum += from.par_eff_sum;
  into.par_runs += from.par_runs;
  into.factor_worst = std::max(into.factor_worst, from.factor_worst);
  into.factor_sum += from.factor_sum;
  into.factor_count += from.factor_count;
  DigestMerge(into.wall, from.wall, DefaultLatencyBucketsNs());
  DigestMerge(into.peak, from.peak, DefaultSizeBucketsBytes());
  for (uint64_t t : from.wall_trend) into.wall_trend.push_back(t);
  if (into.wall_trend.size() > kHistoryTrendLen) {
    into.wall_trend.erase(into.wall_trend.begin(),
                          into.wall_trend.end() -
                              static_cast<long>(kHistoryTrendLen));
  }
  for (auto& [path, op] : from.ops) {
    OpHistory& slot = into.ops[path];
    if (slot.runs == 0) {
      slot = std::move(op);
      continue;
    }
    slot.op = std::move(op.op);
    slot.runs += op.runs;
    slot.est_sum += op.est_sum;
    slot.actual_sum += op.actual_sum;
    slot.actual_last = op.actual_last;
    slot.factor_sum += op.factor_sum;
    slot.factor_worst = std::max(slot.factor_worst, op.factor_worst);
  }
}

struct LoadedFile {
  std::unordered_map<uint64_t, QueryHistory> entries;
  size_t bad_lines = 0;
  uint64_t generation = 0;
  uint64_t total_runs = 0;
};

LoadedFile LoadHistoryText(std::string_view text) {
  LoadedFile loaded;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos
                                          : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    if (line.empty()) continue;
    auto json = ParseJson(line);
    if (!json.ok() || !json->is_object()) {
      // Crash-safe loading: a tail line truncated mid-write (or any other
      // corruption) is skipped and counted, never fatal.
      ++loaded.bad_lines;
      continue;
    }
    std::string type = json->StringOr("type", "");
    if (type == "agg") {
      QueryHistory h = AggFromJson(*json);
      loaded.generation = std::max(
          loaded.generation,
          static_cast<uint64_t>(json->NumberOr("gen", 0)));
      loaded.total_runs += h.runs;
      MergeHistory(loaded.entries[h.query_hash], std::move(h));
    } else if (type == "run") {
      if (json->NumberOr("v", 1) < kRunLineVersion) RenameV1RunKeys(*json);
      RunRecord run = RunRecordFromJson(*json);
      FoldRunRecord(loaded.entries[run.query_hash], run);
      ++loaded.total_runs;
    } else {
      ++loaded.bad_lines;
    }
  }
  return loaded;
}

std::vector<QueryHistory> SortedEntries(
    const std::unordered_map<uint64_t, QueryHistory>& entries) {
  std::vector<QueryHistory> out;
  out.reserve(entries.size());
  for (const auto& [hash, h] : entries) out.push_back(h);
  std::sort(out.begin(), out.end(),
            [](const QueryHistory& a, const QueryHistory& b) {
              return a.query_hash < b.query_hash;
            });
  return out;
}

}  // namespace

const std::vector<double>& DefaultSizeBucketsBytes() {
  static const std::vector<double>* bounds = [] {
    auto* b = new std::vector<double>();
    for (double v = 1024; v <= 16e9; v *= 4) b->push_back(v);
    return b;
  }();
  return *bounds;
}

void FoldRunRecord(QueryHistory& agg, const RunRecord& run) {
  agg.query_hash = run.query_hash;
  if (!run.query.empty()) agg.query = run.query;
  ++agg.runs;
  if (!run.ok) {
    if (run.aborted_limit.empty()) {
      ++agg.errors;
    } else {
      ++agg.aborts;
    }
  }
  agg.rows_out_last = run.rows_out;
  DigestObserve(agg.wall, DefaultLatencyBucketsNs(),
                static_cast<double>(run.wall_ns));
  DigestObserve(agg.peak, DefaultSizeBucketsBytes(),
                static_cast<double>(run.peak_bytes));
  if (run.par_workers > 0) {
    agg.par_eff_sum += run.parallel_efficiency;
    ++agg.par_runs;
  }
  agg.wall_trend.push_back(run.wall_ns);
  if (agg.wall_trend.size() > kHistoryTrendLen) {
    agg.wall_trend.erase(agg.wall_trend.begin());
  }
  for (const RunRecord::Op& op : run.ops) {
    OpHistory& slot = agg.ops[op.path];
    slot.op = op.op;
    ++slot.runs;
    slot.est_sum += op.est_rows;
    slot.actual_sum += static_cast<double>(op.actual_rows);
    slot.actual_last = op.actual_rows;
    slot.factor_sum += op.factor;
    slot.factor_worst = std::max(slot.factor_worst, op.factor);
    agg.factor_worst = std::max(agg.factor_worst, op.factor);
    agg.factor_sum += op.factor;
    ++agg.factor_count;
  }
}

std::string ResolveHistoryPath(const std::string& dir_or_file) {
  struct stat st{};
  if (::stat(dir_or_file.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    return dir_or_file + "/" + kHistoryFileName;
  }
  return dir_or_file;
}

StatusOr<HistoryScan> ReadHistoryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return InvalidArgumentError("cannot open history store: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  LoadedFile loaded = LoadHistoryText(buf.str());
  HistoryScan scan;
  scan.entries = SortedEntries(loaded.entries);
  scan.bad_lines = loaded.bad_lines;
  scan.generation = loaded.generation;
  scan.total_runs = loaded.total_runs;
  return scan;
}

double HistoryWallPercentile(const QueryHistory& h, double p) {
  static const Histogram* hist = new Histogram(DefaultLatencyBucketsNs());
  if (h.wall.counts.size() != hist->bounds().size() + 1) return 0;
  return hist->PercentileOf(h.wall, p);
}

StatusOr<std::unique_ptr<HistoryStore>> HistoryStore::Open(
    const std::string& dir, Options options) {
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0) {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return InvalidArgumentError("cannot create history dir: " + dir + ": " +
                                  std::strerror(errno));
    }
  } else if (!S_ISDIR(st.st_mode)) {
    return InvalidArgumentError("history dir is not a directory: " + dir);
  }
  std::unique_ptr<HistoryStore> store(new HistoryStore());
  store->path_ = dir + "/" + kHistoryFileName;
  store->options_ = options;
  {
    std::ifstream in(store->path_, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      LoadedFile loaded = LoadHistoryText(buf.str());
      store->entries_ = std::move(loaded.entries);
      store->generation_ = loaded.generation;
      store->bad_lines_ = loaded.bad_lines;
      store->total_runs_ = loaded.total_runs;
    }
  }
  int fd = ::open(store->path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return InvalidArgumentError("cannot open history store: " + store->path_ +
                                ": " + std::strerror(errno));
  }
  store->fd_ = fd;
  off_t size = ::lseek(fd, 0, SEEK_END);
  store->file_bytes_ = size > 0 ? static_cast<uint64_t>(size) : 0;
  store->compact_floor_ = store->file_bytes_;
  // Repair a tail torn by a crash mid-write: without the newline the next
  // append would merge into the partial line and corrupt two records.
  if (store->file_bytes_ > 0) {
    std::ifstream tail(store->path_, std::ios::binary);
    tail.seekg(-1, std::ios::end);
    char last = '\n';
    if (tail.get(last) && last != '\n') {
      if (WriteAll(fd, "\n", 1)) ++store->file_bytes_;
    }
  }
  HistoryMetrics::Get().queries.Set(
      static_cast<int64_t>(store->entries_.size()));
  return store;
}

HistoryStore::~HistoryStore() {
  if (fd_ >= 0) ::close(fd_);
}

void HistoryStore::RecordRun(const RunRecord& run) {
  std::string line =
      "{\"v\":" + std::to_string(kRunLineVersion) + ",\"type\":\"run\"";
  AppendRunRecordJson(run, line);
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  FoldRunRecord(entries_[run.query_hash], run);
  ++total_runs_;
  if (fd_ >= 0 && WriteAll(fd_, line.data(), line.size())) {
    file_bytes_ += line.size();
  }
  HistoryMetrics::Get().runs_recorded.Add();
  HistoryMetrics::Get().queries.Set(static_cast<int64_t>(entries_.size()));
  if (options_.max_bytes > 0 && file_bytes_ > options_.max_bytes &&
      file_bytes_ > 2 * compact_floor_) {
    CompactLocked();
  }
}

void HistoryStore::CompactLocked() {
  if (fd_ < 0) return;
  std::string tmp = path_ + ".tmp";
  int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) return;
  uint64_t next_gen = generation_ + 1;
  uint64_t written = 0;
  bool ok = true;
  for (const QueryHistory& h : SortedEntries(entries_)) {
    std::string line = AggLineJson(h, next_gen);
    line += '\n';
    if (!WriteAll(tmp_fd, line.data(), line.size())) {
      ok = false;
      break;
    }
    written += line.size();
  }
  ::close(tmp_fd);
  if (!ok || ::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return;
  }
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND, 0644);
  file_bytes_ = written;
  compact_floor_ = written;
  generation_ = next_gen;
  HistoryMetrics::Get().compactions.Add();
}

void HistoryStore::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  CompactLocked();
}

std::optional<HistoryStore::EstimateCorrection> HistoryStore::LookupEstimate(
    uint64_t query_hash, const std::string& op_path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query_hash);
  if (it == entries_.end()) return std::nullopt;
  auto op = it->second.ops.find(op_path);
  if (op == it->second.ops.end() || op->second.runs == 0) {
    return std::nullopt;
  }
  return EstimateCorrection{op->second.MeanActual(), op->second.runs};
}

HistoryScan HistoryStore::Scan() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistoryScan scan;
  scan.entries = SortedEntries(entries_);
  scan.bad_lines = bad_lines_;
  scan.generation = generation_;
  scan.total_runs = total_runs_;
  return scan;
}

size_t HistoryStore::query_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t HistoryStore::total_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_runs_;
}

uint64_t HistoryStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

size_t HistoryStore::bad_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bad_lines_;
}

namespace {
std::atomic<HistoryStore*> g_history_store{nullptr};
}  // namespace

HistoryStore* GetHistoryStore() {
  return g_history_store.load(std::memory_order_acquire);
}

void SetHistoryStore(HistoryStore* store) {
  g_history_store.store(store, std::memory_order_release);
}

bool InitHistoryFromEnv() {
  static bool enabled = [] {
    const char* dir = std::getenv("EMCALC_HISTORY_DIR");
    if (dir == nullptr || *dir == '\0') return false;
    auto store = HistoryStore::Open(dir);
    if (!store.ok()) {
      std::fprintf(stderr, "emcalc: EMCALC_HISTORY_DIR: %s\n",
                   store.status().ToString().c_str());
      return false;
    }
    // Process-lifetime sink, intentionally leaked like the env query log.
    SetHistoryStore(store->release());
    return true;
  }();
  return enabled;
}

}  // namespace emcalc::obs
