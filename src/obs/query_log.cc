#include "src/obs/query_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "src/obs/json.h"

namespace emcalc::obs {

uint64_t HashQueryText(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string QueryLogRecordToJson(const QueryLogRecord& r) {
  std::string out = "{\"event\":\"" + JsonEscape(r.event) + "\"";
  AppendRunRecordJson(r.run, out);
  if (r.event == "compile") {
    out += ",\"em_allowed\":";
    out += r.em_allowed ? "true" : "false";
    out += ",\"level\":" + std::to_string(r.level);
    out += ",\"find_count\":" + std::to_string(r.find_count);
    out += ",\"ranf_size\":" + std::to_string(r.ranf_size);
    out += ",\"plan_nodes\":" + std::to_string(r.plan_nodes);
  }
  out += ",\"string_pool_size\":" + std::to_string(r.string_pool_size);
  if (!r.diagnostics.empty()) {
    out += ",\"diagnostics\":" + diag::ToJson(r.diagnostics);
  }
  if (!r.phase_ns.empty()) {
    out += ",\"phases\":{";
    bool first = true;
    for (const auto& [name, ns] : r.phase_ns) {
      if (!first) out += ",";
      first = false;
      out += "\"" + JsonEscape(name) + "\":" + std::to_string(ns);
    }
    out += "}";
  }
  out += "}";
  return out;
}

StatusOr<QueryLogRecord> ParseQueryLogRecord(std::string_view line) {
  auto json = ParseJson(line);
  if (!json.ok()) return json.status();
  if (!json->is_object()) {
    return InvalidArgumentError("query-log line is not a JSON object");
  }
  QueryLogRecord r;
  r.event = json->StringOr("event", "");
  if (r.event.empty()) {
    return InvalidArgumentError("query-log line lacks an event field");
  }
  r.run = RunRecordFromJson(*json);
  r.em_allowed = json->BoolOr("em_allowed", false);
  r.level = json->UintOr<int>("level", 0);
  r.find_count = json->UintOr<int>("find_count", 0);
  r.ranf_size = json->UintOr<int>("ranf_size", 0);
  r.plan_nodes = json->UintOr<int>("plan_nodes", 0);
  r.string_pool_size = json->UintOr("string_pool_size", 0);
  if (const JsonValue* diags = json->Find("diagnostics");
      diags != nullptr && diags->is_array()) {
    r.diagnostics = diag::DiagnosticsFromJson(*diags);
  }
  if (const JsonValue* phases = json->Find("phases");
      phases != nullptr && phases->is_object()) {
    for (const auto& [name, v] : phases->object) {
      if (v.is_number()) {
        r.phase_ns.emplace_back(name, phases->UintOr(name, 0));
      }
    }
  }
  return r;
}

namespace {

// Raw write with EINTR retry; also usable from the signal-flush path.
bool RawWriteAll(int fd, const char* data, size_t n) {
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

uint64_t EnvRotationMaxBytes() {
  const char* env = std::getenv("EMCALC_QUERY_LOG_MAX_BYTES");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return 0;
  return static_cast<uint64_t>(v);
}

constexpr size_t kQueryLogBufferFlushBytes = 16 * 1024;

}  // namespace

StatusOr<std::unique_ptr<QueryLog>> QueryLog::Open(const std::string& path) {
  std::unique_ptr<QueryLog> log(new QueryLog());
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return InvalidArgumentError("cannot open query log " + path);
  }
  struct stat st{};
  log->fd_ = fd;
  log->path_ = path;
  log->file_bytes_ = ::fstat(fd, &st) == 0 && st.st_size > 0
                         ? static_cast<uint64_t>(st.st_size)
                         : 0;
  log->max_bytes_ = EnvRotationMaxBytes();
  return log;
}

QueryLog::~QueryLog() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
  if (fd_ >= 0) ::close(fd_);
}

void QueryLog::Write(const QueryLogRecord& record) {
  std::string line = QueryLogRecordToJson(record);
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) {
    *sink_ << line << "\n";
    sink_->flush();
    return;
  }
  if (fd_ < 0) return;
  buf_ += line;
  buf_ += '\n';
  // Error and abort records must not sit in the buffer: the process may be
  // about to die (fatal signal after a governor trip, operator crash).
  bool urgent = !record.run.ok || !record.run.aborted_limit.empty();
  if (urgent || buf_.size() >= kQueryLogBufferFlushBytes) FlushLocked();
}

void QueryLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) {
    sink_->flush();
    return;
  }
  FlushLocked();
}

void QueryLog::FlushLocked() {
  if (fd_ < 0 || buf_.empty()) return;
  if (RawWriteAll(fd_, buf_.data(), buf_.size())) {
    file_bytes_ += buf_.size();
  }
  buf_.clear();
  MaybeRotateLocked();
}

void QueryLog::MaybeRotateLocked() {
  if (max_bytes_ == 0 || file_bytes_ < max_bytes_ || path_.empty()) return;
  ::close(fd_);
  fd_ = -1;
  std::string rotated = path_ + ".1";
  if (::rename(path_.c_str(), rotated.c_str()) != 0) {
    // Rename failed (e.g. cross-device path games); keep appending so no
    // records are lost, but give up on rotation for this file.
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    max_bytes_ = 0;
    return;
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  file_bytes_ = 0;
  ++rotations_;
}

bool QueryLog::TrySignalFlush() {
  if (!mu_.try_lock()) return false;
  bool drained = false;
  if (fd_ >= 0 && !buf_.empty()) {
    drained = RawWriteAll(fd_, buf_.data(), buf_.size());
    if (drained) {
      file_bytes_ += buf_.size();
      buf_.clear();
    }
  } else {
    drained = true;
  }
  mu_.unlock();
  return drained;
}

void QueryLog::SetRotationMaxBytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = bytes;
}

uint64_t QueryLog::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

namespace {
std::atomic<QueryLog*> g_query_log{nullptr};
QueryLog* g_env_query_log = nullptr;

void FlushEnvQueryLog() {
  if (g_env_query_log != nullptr) g_env_query_log->Flush();
}
}  // namespace

QueryLog* GetQueryLog() { return g_query_log.load(std::memory_order_acquire); }

void SetQueryLog(QueryLog* log) {
  g_query_log.store(log, std::memory_order_release);
}

bool InitQueryLogFromEnv() {
  if (g_env_query_log != nullptr) return true;
  const char* path = std::getenv("EMCALC_QUERY_LOG");
  if (path == nullptr || *path == '\0') return false;
  auto log = QueryLog::Open(path);
  if (!log.ok()) {
    std::fprintf(stderr, "emcalc: EMCALC_QUERY_LOG: %s\n",
                 log.status().ToString().c_str());
    return false;
  }
  g_env_query_log = log->release();  // lives until process exit
  SetQueryLog(g_env_query_log);
  std::atexit(FlushEnvQueryLog);
  return true;
}

void QueryLogSignalFlush() {
  QueryLog* log = g_query_log.load(std::memory_order_acquire);
  if (log != nullptr) log->TrySignalFlush();
}

}  // namespace emcalc::obs
