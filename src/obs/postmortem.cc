#include "src/obs/postmortem.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>

#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"

namespace emcalc::obs {

namespace {

// Directory state. The std::string is for the normal path; the fixed
// buffer mirror is what the signal handler reads (no allocation, no lock).
std::mutex g_dir_mu;
std::string* g_dir = new std::string();  // never freed
constexpr size_t kDirBufSize = 512;
char g_dir_sig[kDirBufSize];
std::atomic<size_t> g_dir_sig_len{0};

// Current-query slate: writers serialize on a spinlock; the crash handler
// reads without it (best effort — a torn read yields mangled text, never
// out-of-bounds access, because the length is loaded once).
constexpr size_t kQuerySlateSize = 2048;
std::atomic_flag g_query_lock = ATOMIC_FLAG_INIT;
char g_query_text[kQuerySlateSize];
std::atomic<size_t> g_query_len{0};
std::atomic<uint64_t> g_query_hash{0};

std::atomic<uint64_t> g_bundle_seq{0};
std::atomic<uint64_t> g_bundles_written{0};

// ---- async-signal-safe writers (write(2) + stack buffers only) ----

void RawWrite(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void RawWriteStr(int fd, const char* s) { RawWrite(fd, s, std::strlen(s)); }

void RawWriteU64(int fd, uint64_t v) {
  char buf[24];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  RawWrite(fd, p, static_cast<size_t>(buf + sizeof(buf) - p));
}

// Characters that would need JSON escaping are replaced, not escaped, to
// keep the handler trivial; postmortem text is for humans and inspect,
// which tolerates the substitution.
void RawWriteSanitized(int fd, const char* s, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    char c = s[i];
    if (c == '"' || c == '\\') c = '\'';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    RawWrite(fd, &c, 1);
  }
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    default: return "SIGNAL";
  }
}

void CrashHandler(int sig) {
  // Restore default disposition first: if the dump itself faults, the
  // process still dies instead of recursing.
  ::signal(sig, SIG_DFL);
  size_t dirlen = g_dir_sig_len.load(std::memory_order_acquire);
  if (dirlen > 0) {
    char path[kDirBufSize + 64];
    std::memcpy(path, g_dir_sig, dirlen);
    size_t off = dirlen;
    const char prefix[] = "/postmortem-crash-";
    std::memcpy(path + off, prefix, sizeof(prefix) - 1);
    off += sizeof(prefix) - 1;
    uint64_t pid = static_cast<uint64_t>(::getpid());
    char digits[24];
    char* p = digits + sizeof(digits);
    do {
      *--p = static_cast<char>('0' + pid % 10);
      pid /= 10;
    } while (pid != 0);
    size_t ndigits = static_cast<size_t>(digits + sizeof(digits) - p);
    std::memcpy(path + off, p, ndigits);
    off += ndigits;
    const char suffix[] = ".json";
    std::memcpy(path + off, suffix, sizeof(suffix));  // includes the NUL
    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      RawWriteStr(fd, "{\"schema\":1,\"reason\":\"signal\",\"signal\":");
      RawWriteU64(fd, static_cast<uint64_t>(sig));
      RawWriteStr(fd, ",\"signal_name\":\"");
      RawWriteStr(fd, SignalName(sig));
      RawWriteStr(fd, "\",\"query_hash\":\"");
      RawWriteU64(fd, g_query_hash.load(std::memory_order_relaxed));
      RawWriteStr(fd, "\"");
      size_t qlen = std::min(g_query_len.load(std::memory_order_acquire),
                             kQuerySlateSize);
      if (qlen > 0) {
        RawWriteStr(fd, ",\"query\":\"");
        RawWriteSanitized(fd, g_query_text, qlen);
        RawWriteStr(fd, "\"");
      }
      RawWriteStr(fd, ",\"flight_recorder\":");
      DumpFlightRingsJson(fd);
      RawWriteStr(fd, "}\n");
      ::close(fd);
    }
  }
  // A clipped query's run record may still be buffered; drain it if the
  // log lock is free.
  QueryLogSignalFlush();
  ::raise(sig);
}

}  // namespace

void SetPostmortemDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_dir_mu);
  *g_dir = dir;
  // Strip a trailing slash so path assembly is uniform.
  while (!g_dir->empty() && g_dir->back() == '/') g_dir->pop_back();
  // Create the directory eagerly: the whole point is catching failures
  // nobody predicted, so the first abort must not be lost to a missing
  // directory (and the signal path cannot mkdir). Best effort; a write
  // to a still-missing directory surfaces the error then.
  if (!g_dir->empty()) {
    std::error_code ec;
    std::filesystem::create_directories(*g_dir, ec);
  }
  size_t n = std::min(g_dir->size(), kDirBufSize - 1);
  std::memcpy(g_dir_sig, g_dir->data(), n);
  g_dir_sig[n] = '\0';
  g_dir_sig_len.store(n, std::memory_order_release);
}

std::string PostmortemDir() {
  std::lock_guard<std::mutex> lock(g_dir_mu);
  return *g_dir;
}

bool PostmortemEnabled() {
  return g_dir_sig_len.load(std::memory_order_acquire) > 0;
}

bool InitPostmortemFromEnv() {
  static const bool enabled = [] {
    const char* dir = std::getenv("EMCALC_POSTMORTEM_DIR");
    if (dir == nullptr || *dir == '\0') return false;
    SetPostmortemDir(dir);
    InstallCrashHandler();
    return true;
  }();
  return enabled;
}

void InstallCrashHandler() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction sa = {};
    sa.sa_handler = CrashHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
      ::sigaction(sig, &sa, nullptr);
    }
  });
}

void SetCurrentQuery(std::string_view text, uint64_t query_hash) {
  while (g_query_lock.test_and_set(std::memory_order_acquire)) {
  }
  size_t n = std::min(text.size(), kQuerySlateSize);
  std::memcpy(g_query_text, text.data(), n);
  g_query_len.store(n, std::memory_order_release);
  g_query_hash.store(query_hash, std::memory_order_relaxed);
  g_query_lock.clear(std::memory_order_release);
}

void ClearCurrentQuery() {
  while (g_query_lock.test_and_set(std::memory_order_acquire)) {
  }
  g_query_len.store(0, std::memory_order_release);
  g_query_hash.store(0, std::memory_order_relaxed);
  g_query_lock.clear(std::memory_order_release);
}

StatusOr<std::string> WritePostmortem(std::string_view reason,
                                      const RunRecord* run) {
  std::string dir = PostmortemDir();
  if (dir.empty()) {
    return InvalidArgumentError(
        "no postmortem directory configured (EMCALC_POSTMORTEM_DIR)");
  }
  uint64_t seq = g_bundle_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path = dir + "/postmortem-" +
                     std::to_string(static_cast<uint64_t>(::getpid())) + "-" +
                     std::to_string(seq) + ".json";

  std::string out = "{\"schema\":1,\"reason\":\"" + JsonEscape(reason) + "\"";
  if (run != nullptr) AppendRunRecordJson(*run, out);
  out += ",\"metrics\":" + MetricsRegistry::Instance().JsonSnapshot();
  out += ",\"flight_recorder\":" + FlightEventsToJson(DrainFlightRecorder());
  out += "}\n";

  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return InvalidArgumentError("cannot create postmortem bundle " + path);
  }
  file << out;
  file.flush();
  if (!file.good()) {
    return InternalError("write to postmortem bundle " + path + " failed");
  }
  g_bundles_written.fetch_add(1, std::memory_order_relaxed);
  static Counter& bundles =
      MetricsRegistry::Instance().GetCounter("obs.postmortems");
  bundles.Add();
  return path;
}

uint64_t PostmortemCount() {
  return g_bundles_written.load(std::memory_order_relaxed);
}

}  // namespace emcalc::obs
