// emcalc-inspect: offline analyzer for emcalc query logs and postmortem
// bundles. All analysis lives in src/obs/inspect.{h,cc}; this file is the
// argv shim.
//
//   emcalc-inspect top [--k N] LOG       k slowest runs
//   emcalc-inspect aborts LOG            failures by tripped limit
//   emcalc-inspect summary LOG           one-screen log roll-up
//   emcalc-inspect bundle FILE           postmortem bundle digest
//   emcalc-inspect trace FILE -o OUT     bundle ring -> Chrome trace JSON
//
// Log commands read the rotated `LOG.1` segment too when present
// (oldest-first), so analysis spans the whole retained window.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/obs/inspect.h"
#include "src/obs/trace.h"

namespace {

constexpr const char kUsage[] =
    "usage: emcalc-inspect <command> [options] <file>\n"
    "  top [--k N] LOG       k slowest runs (default 10)\n"
    "  aborts LOG            failed runs by tripped resource limit\n"
    "  summary LOG           record counts, error and wall-time roll-up\n"
    "  bundle FILE           render a postmortem bundle\n"
    "  trace FILE -o OUT     convert a bundle's flight ring to Chrome "
    "trace JSON\n";

int Fail(const std::string& message) {
  std::fprintf(stderr, "emcalc-inspect: %s\n", message.c_str());
  return 1;
}

// Consumes `--k N` anywhere among `args`; returns false on a malformed
// value. Remaining args are positional.
bool TakeK(std::vector<std::string>& args, size_t& k) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] != "--k") continue;
    if (i + 1 >= args.size()) return false;
    char* end = nullptr;
    unsigned long v = std::strtoul(args[i + 1].c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v == 0) return false;
    k = static_cast<size_t>(v);
    args.erase(args.begin() + static_cast<long>(i),
               args.begin() + static_cast<long>(i) + 2);
    return true;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  std::string command = args.front();
  args.erase(args.begin());

  if (command == "top" || command == "aborts" || command == "summary") {
    size_t k = 10;
    if (!TakeK(args, k)) return Fail("--k needs a positive integer");
    if (args.size() != 1) return Fail("expected exactly one LOG file");
    auto scan = emcalc::obs::ReadQueryLogWithRotation(args[0]);
    if (!scan.ok()) return Fail(scan.status().ToString());
    std::string out;
    if (command == "top") {
      out = emcalc::obs::RenderTopSlowest(*scan, k);
    } else if (command == "aborts") {
      out = emcalc::obs::RenderAborts(*scan);
    } else {
      out = emcalc::obs::RenderLogSummary(*scan);
    }
    std::fputs(out.c_str(), stdout);
    if (scan->bad_lines > 0 && command != "summary") {
      std::fprintf(stderr, "emcalc-inspect: skipped %zu unparseable lines\n",
                   scan->bad_lines);
    }
    return 0;
  }

  if (command == "bundle" || command == "trace") {
    std::string out_path;
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i] != "-o") continue;
      if (i + 1 >= args.size()) return Fail("-o needs a file name");
      out_path = args[i + 1];
      args.erase(args.begin() + static_cast<long>(i),
                 args.begin() + static_cast<long>(i) + 2);
      break;
    }
    if (args.size() != 1) return Fail("expected exactly one bundle file");
    auto bundle = emcalc::obs::ReadPostmortemBundle(args[0]);
    if (!bundle.ok()) return Fail(bundle.status().ToString());
    std::string out = command == "bundle"
                          ? emcalc::obs::RenderBundle(*bundle)
                          : emcalc::obs::ChromeTraceJson(bundle->events);
    if (out_path.empty()) {
      std::fputs(out.c_str(), stdout);
      if (command == "trace") std::fputc('\n', stdout);
      return 0;
    }
    std::ofstream f(out_path, std::ios::binary);
    if (!f) return Fail("cannot write " + out_path);
    f << out;
    if (command == "trace") f << "\n";
    return f.good() ? 0 : Fail("write failed: " + out_path);
  }

  std::fputs(kUsage, stderr);
  return Fail("unknown command: " + command);
}
