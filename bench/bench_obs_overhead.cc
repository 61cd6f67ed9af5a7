// Experiment OBS1 — observability overhead guard. Every Span is a begin/end
// pair in the always-on flight recorder (four relaxed stores plus a release
// store per event), so a span's cost, multiplied by the number of spans a
// query emits, must stay below 2% of the query's wall time. The recorder's
// marginal cost per span — recorder on minus recorder off — times the span
// count must stay below 1% of query wall time. The span count is the
// span_begin events a run leaves in the rings. This binary measures all of
// these on the payroll workload, prints PASS/FAIL verdicts, and appends the
// measurements to BENCH_obs.json (schema shared with BENCH_exec.json via
// bench_util.h; the recorder gate records carry variant
// "flight_recorder").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

constexpr const char* kQueries[] = {
    "{e, n | exists d, s (EMP(e, d, s) and n = net10(s))}",
    "{e | exists d, s (EMP(e, d, s) and not exists b (BONUS(e, b)))}",
    "{e, b | exists d, s (EMP(e, d, s) and BONUS(e, b))}",
};

emcalc::FunctionRegistry Functions() {
  emcalc::FunctionRegistry reg = emcalc::BuiltinFunctions();
  reg.Register("net10", 1, [](std::span<const emcalc::Value> a) {
    int64_t v = a[0].is_int() ? a[0].AsInt() : 0;
    return emcalc::Value::Int(v * 9 / 10);
  });
  return reg;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t MedianRunNs(emcalc::CompiledQuery& q, emcalc::Database& db,
                     int runs) {
  std::vector<uint64_t> samples;
  samples.reserve(static_cast<size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    uint64_t start = NowNs();
    auto r = q.Run(db);
    benchmark::DoNotOptimize(r.ok());
    samples.push_back(NowNs() - start);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Cost of one Span (construct + destruct), averaged over a large loop, with
// the flight recorder forced on or off. Recorder off: ~1ns, the recorder's
// enabled check. Recorder on: a few ns more for the two ring events (four
// relaxed stores + a release store each).
double SpanCostNs(bool recorder_on) {
  bool saved_rec = emcalc::obs::FlightRecorderEnabled();
  emcalc::obs::SetFlightRecorderEnabled(recorder_on);
  constexpr int kIters = 2'000'000;
  double best = 1e18;
  for (int round = 0; round < 3; ++round) {
    uint64_t start = NowNs();
    for (int i = 0; i < kIters; ++i) {
      emcalc::obs::Span span("bench.span");
      benchmark::DoNotOptimize(span);
    }
    best = std::min(best, static_cast<double>(NowNs() - start) / kIters);
  }
  emcalc::obs::SetFlightRecorderEnabled(saved_rec);
  return best;
}

// Spans per run of `q`: the span_begin events three runs leave in the
// rings, with the recorder forced on so the count does not depend on the
// environment.
size_t SpansPerRun(emcalc::CompiledQuery& q, emcalc::Database& db) {
  bool saved_rec = emcalc::obs::FlightRecorderEnabled();
  emcalc::obs::SetFlightRecorderEnabled(true);
  uint64_t since = NowNs();
  MedianRunNs(q, db, 3);
  size_t begins = 0;
  for (const emcalc::obs::FlightEvent& e :
       emcalc::obs::DrainFlightRecorder()) {
    if (e.ts_ns >= since && e.kind == emcalc::obs::FlightEventKind::kSpanBegin) {
      ++begins;
    }
  }
  emcalc::obs::SetFlightRecorderEnabled(saved_rec);
  return begins / 3;
}

void Report() {
  emcalc::bench::Banner(
      "OBS1: tracing overhead guard (payroll workload)",
      "a span is two flight-recorder events; total span overhead stays "
      "under 2% of query wall time, and the always-on flight recorder "
      "adds under 1% over a recorder-off span");

  // span_ns is the production default (recorder on) and feeds the 2%
  // tracing gate; the on/off delta feeds the 1% flight-recorder gate.
  double span_ns = SpanCostNs(true);
  double span_off_ns = SpanCostNs(false);
  double recorder_delta_ns = std::max(0.0, span_ns - span_off_ns);
  std::printf(
      "span cost: %.2f ns (recorder off: %.2f ns, "
      "recorder delta: %.2f ns)\n\n",
      span_ns, span_off_ns, recorder_delta_ns);

  emcalc::Compiler compiler(Functions());
  emcalc::Database db = emcalc::MakePayrollInstance(10000, 8, 3);
  bool all_pass = true;
  for (const char* text : kQueries) {
    auto q = compiler.Compile(text);
    if (!q.ok()) {
      std::printf("compile failed: %s\n", q.status().ToString().c_str());
      all_pass = false;
      continue;
    }
    size_t spans_per_run = SpansPerRun(*q, db);
    uint64_t disabled_ns = MedianRunNs(*q, db, 9);
    double overhead_ns = span_ns * static_cast<double>(spans_per_run);
    double overhead_pct =
        100.0 * overhead_ns / static_cast<double>(disabled_ns);
    bool pass = overhead_pct < 2.0;
    all_pass = all_pass && pass;
    std::printf(
        "query: %s\n"
        "  spans/run=%-5zu wall=%9.3fms\n"
        "  span overhead: %zu spans x %.2fns = %.1fus "
        "(%.4f%% of wall) -> %s\n",
        text, spans_per_run, static_cast<double>(disabled_ns) / 1e6,
        spans_per_run, span_ns, overhead_ns / 1e3, overhead_pct,
        pass ? "PASS (<2%)" : "FAIL");

    std::string fields = "\"bench\":\"obs_overhead\"";
    fields += ",\"query\":\"" + emcalc::bench::JsonEscape(text) + "\"";
    fields += ",\"variant\":\"overhead_guard\"";
    fields += ",\"instance_rows\":10000";
    fields += ",\"spans_per_run\":" + std::to_string(spans_per_run);
    fields += ",\"span_cost_ns\":" + std::to_string(span_ns);
    fields += ",\"wall_disabled_ns\":" + std::to_string(disabled_ns);
    fields += ",\"overhead_pct\":" + std::to_string(overhead_pct);
    fields += ",\"pass\":";
    fields += pass ? "true" : "false";
    emcalc::bench::AppendRecordLine("BENCH_obs.json", fields);

    // Flight-recorder gate: the recorder stays on in production, so its
    // marginal cost per span (two ring events) times the span count must
    // stay below 1% of the query's wall time.
    double fr_overhead_ns =
        recorder_delta_ns * static_cast<double>(spans_per_run);
    double fr_pct = 100.0 * fr_overhead_ns / static_cast<double>(disabled_ns);
    bool fr_pass = fr_pct < 1.0;
    all_pass = all_pass && fr_pass;
    std::printf(
        "  flight-recorder overhead: %zu spans x %.2fns = %.1fus "
        "(%.4f%% of wall) -> %s\n",
        spans_per_run, recorder_delta_ns, fr_overhead_ns / 1e3, fr_pct,
        fr_pass ? "PASS (<1%)" : "FAIL");
    std::string fr_fields = "\"bench\":\"obs_overhead\"";
    fr_fields += ",\"query\":\"" + emcalc::bench::JsonEscape(text) + "\"";
    fr_fields += ",\"variant\":\"flight_recorder\"";
    fr_fields += ",\"instance_rows\":10000";
    fr_fields += ",\"spans_per_run\":" + std::to_string(spans_per_run);
    fr_fields += ",\"span_cost_on_ns\":" + std::to_string(span_ns);
    fr_fields += ",\"span_cost_off_ns\":" + std::to_string(span_off_ns);
    fr_fields += ",\"wall_disabled_ns\":" + std::to_string(disabled_ns);
    fr_fields += ",\"overhead_pct\":" + std::to_string(fr_pct);
    fr_fields += ",\"pass\":";
    fr_fields += fr_pass ? "true" : "false";
    emcalc::bench::AppendRecordLine("BENCH_obs.json", fr_fields);
  }
  std::printf("\noverhead guard: %s\n\n", all_pass ? "PASS" : "FAIL");
}

void BM_Span(benchmark::State& state) {
  for (auto _ : state) {
    emcalc::obs::Span span("bench.span");
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_Span);

void BM_RunTracing(benchmark::State& state) {
  emcalc::Compiler compiler(Functions());
  auto q = compiler.Compile(kQueries[0]);
  if (!q.ok()) {
    state.SkipWithError("compile");
    return;
  }
  emcalc::Database db = emcalc::MakePayrollInstance(
      static_cast<size_t>(state.range(0)), 8, 3);
  for (auto _ : state) {
    auto r = q->Run(db);
    if (!r.ok()) {
      state.SkipWithError("run");
      break;
    }
    benchmark::DoNotOptimize(r->size());
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RunTracing)->Arg(1000)->Arg(10000);

}  // namespace

EMCALC_BENCH_MAIN(Report)
