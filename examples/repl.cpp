// An interactive shell for emcalc. Reads commands/queries from stdin, so
// it also works in pipes:
//
//   $ printf 'rel EDGE 1,2\n{x | EDGE(x, y)}\nquit\n' | ./repl
//
// Commands (everything else is parsed as a query):
//   rel NAME ROW[;ROW...]   define a relation from inline CSV rows
//   load NAME PATH          load a relation from a CSV file
//   show NAME               print a relation
//   plan QUERY              show the safety analysis + plan, don't run
//   profile QUERY           run + EXPLAIN COMPILE / EXPLAIN ANALYZE
//   .lint QUERY             static analysis only: lint + safety diagnostics
//   .why QUERY              explain a safety verdict (FinD blame trace)
//   .trace FILE | .trace off   start a capture; off (or quit) writes the
//                           flight rings' events since then as Chrome
//                           trace JSON
//   .metrics                print a metrics registry snapshot
//   .mem                    print process memory accounting
//   .log FILE | .log off    append one JSON-Lines run record per compile
//                           and per run (profile tree included) to FILE
//   .postmortem DIR | off | status | now   abort/crash bundle control
//   .prometheus             metrics in Prometheus text format
//   help
//   quit
//
// The EMCALC_TRACE / EMCALC_QUERY_LOG / EMCALC_POSTMORTEM_DIR environment
// variables enable the same sinks without commands (trace written from the
// flight rings at exit; postmortem bundles written on governor aborts, run
// errors, and fatal signals).
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "src/algebra/printer.h"
#include "src/base/string_pool.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/obs/metrics.h"
#include "src/obs/postmortem.h"
#include "src/obs/query_log.h"
#include "src/obs/resource.h"
#include "src/obs/trace.h"
#include "src/storage/csv.h"
#include "src/verify/verify.h"

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  rel NAME ROW[;ROW...]   define a relation from inline rows\n"
      "                          e.g. rel EDGE 1,2;2,3;3,1\n"
      "  load NAME PATH          load a relation from a CSV file\n"
      "  show NAME               print a relation\n"
      "  plan QUERY              analyze + translate, don't run\n"
      "  profile QUERY           run with compile + execution profiles\n"
      "  .lint QUERY             lint + safety diagnostics, don't run\n"
      "  .why QUERY              explain the safety verdict for QUERY\n"
      "  .trace FILE | off       capture spans from now; off (or quit)\n"
      "                          writes them as a Chrome trace, at most\n"
      "                          EMCALC_FLIGHT_RING_EVENTS per thread\n"
      "  .metrics                print the metrics registry snapshot\n"
      "  .mem                    print process memory accounting\n"
      "  .log FILE | off         JSON-Lines log: one record per compile\n"
      "                          and per run, with its profile tree\n"
      "  .postmortem DIR | off | status | now   abort/crash bundles\n"
      "  .prometheus             metrics in Prometheus text format\n"
      "  .verify on | off | status   stage-boundary plan verification\n"
      "  help | quit\n"
      "anything else is evaluated as a query, e.g. {x | EDGE(x, y)}\n");
}

void RunQuery(emcalc::Compiler& compiler, emcalc::Database& db,
              const std::string& raw_text, bool execute, bool profile) {
  // `plan Q` / `profile Q` arrive with the separator space still attached;
  // trim so Q hashes identically to a bare run of the same query (the
  // query log joins on the text hash).
  std::string text = raw_text;
  text.erase(0, text.find_first_not_of(" \t"));
  auto q = compiler.Compile(text);
  if (!q.ok()) {
    std::printf("error: %s\n", q.status().ToString().c_str());
    return;
  }
  std::printf("plan: %s\n", q->PlanString().c_str());
  if (!execute) return;
  if (profile) {
    std::printf("-- explain compile --\n%s", q->ExplainCompile().c_str());
    auto report = q->ExplainAnalyze(db);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      return;
    }
    std::printf("-- explain analyze --\n%s", report->c_str());
    return;
  }
  emcalc::ExecProfile run_profile;
  auto answer = q->Run(db, &run_profile);
  if (!answer.ok()) {
    std::printf("error: %s\n", answer.status().ToString().c_str());
    return;
  }
  std::printf("%s(%zu tuples, %llu produced while evaluating)\n",
              answer->ToString().c_str(), answer->size(),
              static_cast<unsigned long long>(
                  emcalc::SumProfile(run_profile).rows_out));
}

// `.lint`: the full diagnostic report (lint rules + safety blame).
void LintQuery(emcalc::Compiler& compiler, const std::string& text) {
  emcalc::QueryAnalysis analysis = compiler.Analyze(text);
  if (analysis.diagnostics.empty()) {
    std::printf("ok: no diagnostics\n");
    return;
  }
  std::printf("%s", analysis.Render().c_str());
}

// `.mem`: the tracked-memory view of the process — the global accountant,
// the intern pool, and the execution gauges.
void PrintMemory() {
  auto& acct = emcalc::obs::MemoryAccountant::Instance();
  std::printf("tracked bytes:     %lld\n",
              static_cast<long long>(acct.bytes()));
  std::printf("peak bytes:        %lld\n",
              static_cast<long long>(acct.peak_bytes()));
  std::printf("allocated bytes:   %llu\n",
              static_cast<unsigned long long>(acct.bytes_allocated()));
  auto& pool = emcalc::StringPool::Global();
  std::printf("string pool:       %zu values, %llu bytes\n", pool.size(),
              static_cast<unsigned long long>(pool.bytes()));
  auto& reg = emcalc::obs::MetricsRegistry::Instance();
  std::printf("peak query bytes:  %lld\n",
              static_cast<long long>(
                  reg.GetGauge("exec.peak_query_bytes").value()));
  std::printf("queries aborted:   %llu\n",
              static_cast<unsigned long long>(
                  reg.GetCounter("exec.queries_aborted").value()));
}

// `.why`: just the safety verdict, with the blame trace on rejection.
void ExplainSafety(emcalc::Compiler& compiler, const std::string& text) {
  emcalc::QueryAnalysis analysis = compiler.Analyze(text);
  if (!analysis.parsed) {
    std::printf("%s", analysis.Render().c_str());
    return;
  }
  if (analysis.safe) {
    std::printf("em-allowed: yes\n");
    return;
  }
  std::printf("em-allowed: no\n");
  for (const emcalc::diag::Diagnostic& d : analysis.diagnostics) {
    if (d.severity == emcalc::diag::Severity::kError) {
      std::printf("%s", emcalc::diag::Render(d, analysis.text).c_str());
    }
  }
}

// The `.trace` command: a capture is the flight rings' events from its
// start time on, written when it stops.
struct TraceCapture {
  std::string path;
  uint64_t since_ns = 0;

  void Flush() {
    if (path.empty()) return;
    auto written = emcalc::obs::WriteChromeTrace(path, since_ns);
    if (written.ok()) {
      std::printf("wrote %zu events to %s\n", *written, path.c_str());
    } else {
      std::printf("error: %s\n", written.status().ToString().c_str());
    }
  }

  void Start(const std::string& new_path) {
    Flush();
    path = new_path;
    since_ns = emcalc::obs::NowNs();
    std::printf("tracing to %s\n", path.c_str());
  }

  void Stop() {
    if (path.empty()) {
      std::printf("tracing is not active\n");
      return;
    }
    Flush();
    path.clear();
  }
};

}  // namespace

int main() {
  emcalc::obs::InitTracingFromEnv();
  emcalc::obs::InitQueryLogFromEnv();
  emcalc::obs::InitPostmortemFromEnv();
  emcalc::obs::InstallCrashHandler();
  emcalc::Compiler compiler;
  emcalc::Database db;
  TraceCapture capture;
  std::unique_ptr<emcalc::obs::QueryLog> query_log;
  std::printf("emcalc shell — 'help' for commands\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
      continue;
    }
    if (command == ".trace") {
      std::string arg;
      words >> arg;
      if (arg.empty() || arg == "off") {
        capture.Stop();
      } else {
        capture.Start(arg);
      }
      continue;
    }
    if (command == ".metrics") {
      std::printf("%s", emcalc::obs::MetricsRegistry::Instance()
                            .TextSnapshot()
                            .c_str());
      continue;
    }
    if (command == ".mem") {
      PrintMemory();
      continue;
    }
    if (command == ".prometheus") {
      std::printf("%s", emcalc::obs::MetricsRegistry::Instance()
                            .RenderPrometheus()
                            .c_str());
      continue;
    }
    if (command == ".postmortem") {
      std::string arg;
      words >> arg;
      if (arg.empty() || arg == "status") {
        std::string dir = emcalc::obs::PostmortemDir();
        std::printf("postmortem: %s (%llu bundles written)\n",
                    dir.empty() ? "off" : dir.c_str(),
                    static_cast<unsigned long long>(
                        emcalc::obs::PostmortemCount()));
      } else if (arg == "off") {
        emcalc::obs::SetPostmortemDir("");
        std::printf("postmortem off\n");
      } else if (arg == "now") {
        auto path = emcalc::obs::WritePostmortem("manual", nullptr);
        if (path.ok()) {
          std::printf("wrote %s\n", path->c_str());
        } else {
          std::printf("error: %s\n", path.status().ToString().c_str());
        }
      } else {
        emcalc::obs::SetPostmortemDir(arg);
        emcalc::obs::InstallCrashHandler();
        std::printf("postmortem bundles to %s\n", arg.c_str());
      }
      continue;
    }
    if (command == ".log") {
      std::string arg;
      words >> arg;
      if (arg.empty() || arg == "off") {
        if (query_log != nullptr &&
            emcalc::obs::GetQueryLog() == query_log.get()) {
          emcalc::obs::SetQueryLog(nullptr);
        }
        query_log.reset();
        std::printf("query log off\n");
        continue;
      }
      auto log = emcalc::obs::QueryLog::Open(arg);
      if (!log.ok()) {
        std::printf("error: %s\n", log.status().ToString().c_str());
        continue;
      }
      query_log = std::move(log).value();
      emcalc::obs::SetQueryLog(query_log.get());
      std::printf("query log to %s\n", arg.c_str());
      continue;
    }
    if (command == "rel") {
      std::string name, rows;
      words >> name;
      std::getline(words, rows);
      std::string csv = rows;
      for (char& c : csv) {
        if (c == ';') c = '\n';
      }
      emcalc::Status s = emcalc::LoadCsvText(db, name, csv);
      std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
      continue;
    }
    if (command == "load") {
      std::string name, path;
      words >> name >> path;
      emcalc::Status s = emcalc::LoadCsvFile(db, name, path);
      std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
      continue;
    }
    if (command == "show") {
      std::string name;
      words >> name;
      const emcalc::Relation* rel = db.Find(name);
      if (rel == nullptr) {
        std::printf("unknown relation '%s'\n", name.c_str());
      } else {
        std::printf("%s", rel->ToString().c_str());
      }
      continue;
    }
    if (command == ".verify") {
      std::string arg;
      words >> arg;
      if (arg == "on") {
        emcalc::verify::ForceEnabled(1);
        std::printf("stage-boundary verification on\n");
      } else if (arg == "off") {
        emcalc::verify::ForceEnabled(0);
        std::printf("stage-boundary verification off\n");
      } else if (arg == "default") {
        emcalc::verify::ForceEnabled(-1);
        std::printf("stage-boundary verification %s (build/env default)\n",
                    emcalc::verify::Enabled() ? "on" : "off");
      } else {
        std::printf("stage-boundary verification %s\n",
                    emcalc::verify::Enabled() ? "on" : "off");
      }
      continue;
    }
    if (command == ".lint") {
      std::string rest;
      std::getline(words, rest);
      LintQuery(compiler, rest);
      continue;
    }
    if (command == ".why") {
      std::string rest;
      std::getline(words, rest);
      ExplainSafety(compiler, rest);
      continue;
    }
    if (command == "plan") {
      std::string rest;
      std::getline(words, rest);
      RunQuery(compiler, db, rest, /*execute=*/false, /*profile=*/false);
      continue;
    }
    if (command == "profile") {
      std::string rest;
      std::getline(words, rest);
      RunQuery(compiler, db, rest, /*execute=*/true, /*profile=*/true);
      continue;
    }
    RunQuery(compiler, db, line, /*execute=*/true, /*profile=*/false);
  }
  if (!capture.path.empty()) capture.Stop();
  if (query_log != nullptr &&
      emcalc::obs::GetQueryLog() == query_log.get()) {
    emcalc::obs::SetQueryLog(nullptr);
  }
  return 0;
}
