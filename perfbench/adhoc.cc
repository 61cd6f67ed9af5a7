// Workload `adhoc`, compile-dominated. One op compiles one query text with
// Compiler::Compile and runs it once against a tiny catalog. The texts are
// the paper's q1-q6 plus seeded RandomQueryGen em-allowed queries; every
// text is distinct within a run, so no plan cache could hit.
#include <memory>
#include <random>
#include <unordered_set>

#include "perfbench/harness.h"
#include "perfbench/stages.h"
#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/eval/calculus_eval.h"
#include "src/obs/query_log.h"
#include "src/storage/csv.h"

namespace emcalc::perfbench {
namespace {

constexpr size_t kSliceOps = 500;         // texts per slice; one Compiler each
constexpr double kNominalOpsPerS = 8000;  // sizes the fixed work per second
constexpr size_t kWarmupOps = 3000;       // set-up warm-up, its own stream
constexpr int kSetupReps = 5;
constexpr size_t kCatalogRows = 16;
constexpr int kValuePool = 6;
constexpr uint64_t kOracleSampleEvery = 32;  // share of answers checked
constexpr size_t kTracedSliceEvery = 5;      // traced run: every 5th slice
constexpr uint64_t kWarmupStream = 1ull << 32;
constexpr uint64_t kTimedStream = 2ull << 32;

struct PaperQuery {
  const char* text;
  std::vector<std::pair<const char*, int>> schema;
};

// The paper's named corpus with query texts (q3 has none; q7 is not
// em-allowed, so it is not an ad hoc compile-and-run op).
const PaperQuery kPaperQueries[] = {
    {"{y | exists x (R(x) and y = g(f(x)))}", {{"R", 1}}},            // q1
    {"{x | R(x) and exists y (f(x) = y and not R(y))}", {{"R", 1}}},  // q2
    {"{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
     "((h(x) != y and k(x) != y) or P(x, y)))}",
     {{"B", 1}, {"R", 2}, {"P", 2}}},  // q4
    {"{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
     {{"R", 1}, {"S", 1}}},                                            // q5
    {"{x, y, z | R(x, y, z) and not S(y, z)}", {{"R", 3}, {"S", 2}}},  // q6
};

// Small total functions with images in a compact integer range, so the
// reference evaluator's term closures stay tiny: rf0/rf1 for the random
// corpus, f/g/h/k for the paper queries.
FunctionRegistry AdhocFunctions() {
  FunctionRegistry reg;
  reg.Register("rf0", 1, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
    return Value::Int((n + 1) % 7);
  });
  reg.Register("rf1", 2, [](std::span<const Value> a) {
    int64_t n = a[0].is_int() ? a[0].AsInt() : 3;
    int64_t m = a[1].is_int() ? a[1].AsInt() : 5;
    return Value::Int((n * 3 + m) % 7);
  });
  auto mod_fn = [](int64_t mul, int64_t add) {
    return [mul, add](std::span<const Value> a) {
      int64_t n = a[0].is_int() ? a[0].AsInt() : 17;
      return Value::Int((n * mul + add) % 7);
    };
  };
  reg.Register("f", 1, mod_fn(1, 1));
  reg.Register("g", 1, mod_fn(2, 0));
  reg.Register("h", 1, mod_fn(3, 2));
  reg.Register("k", 1, mod_fn(1, 4));
  return reg;
}

std::vector<CsvTable> RandomTables(
    const std::vector<std::pair<const char*, int>>& schema, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<CsvTable> out;
  for (const auto& [name, arity] : schema) {
    CsvTable t{name, "", kCatalogRows};
    for (size_t r = 0; r < kCatalogRows; ++r) {
      for (int c = 0; c < arity; ++c) {
        if (c > 0) t.text += ',';
        t.text += std::to_string(rng() % kValuePool);
      }
      t.text += '\n';
    }
    out.push_back(std::move(t));
  }
  return out;
}

struct Op {
  std::string text;
  size_t catalog;  // index into Input::catalogs
};

struct Input {
  std::vector<std::vector<CsvTable>> catalogs;  // [0]: R0..R2; then q1-q6
  std::vector<Op> warmup;
  std::vector<Op> timed;
};

Input MakeInput(uint64_t seed, size_t timed_ops) {
  Input in;
  in.catalogs.push_back(
      RandomTables({{"R0", 1}, {"R1", 2}, {"R2", 3}}, StreamSeed(seed, 1)));
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < std::size(kPaperQueries); ++i) {
    in.catalogs.push_back(
        RandomTables(kPaperQueries[i].schema, StreamSeed(seed, 10 + i)));
    in.timed.push_back({kPaperQueries[i].text, i + 1});
    seen.insert(kPaperQueries[i].text);
  }
  // One generator (and AstContext) per chunk keeps generation memory
  // bounded; the chunk seeds come from separate streams for warm-up and
  // timed texts, and a text is never used twice in a run.
  auto fill = [&](std::vector<Op>& out, size_t n, uint64_t stream) {
    for (uint64_t chunk = 0; out.size() < n; ++chunk) {
      AstContext ctx;
      RandomQueryGen gen(ctx, StreamSeed(seed, stream + chunk));
      for (int k = 0; k < 256 && out.size() < n; ++k) {
        std::optional<Query> q = gen.NextEmAllowed();
        if (!q.has_value()) continue;
        std::string text = QueryToString(ctx, *q);
        if (seen.insert(text).second) out.push_back({std::move(text), 0});
      }
    }
  };
  fill(in.warmup, kWarmupOps, kWarmupStream);
  fill(in.timed, timed_ops, kTimedStream);
  return in;
}

// The known translator limitation: an em-allowed text whose conjunction
// the RANF pass cannot order.
bool IsKnownRejection(const Status& s) {
  return s.code() == StatusCode::kNotSafe &&
         s.message().find("cannot order conjunction") != std::string::npos;
}

// What set-up leaves for the timed phase.
struct State {
  FunctionRegistry functions;
  std::vector<Database> dbs;
  uint64_t csv_ns = 0;
  size_t csv_rows = 0;
  uint64_t warmup_errors = 0;
};

StatusOr<Relation> CompileAndRun(Compiler& compiler, const Op& op,
                                 const State& st) {
  StatusOr<CompiledQuery> q = compiler.Compile(op.text);
  if (!q.ok()) return q.status();
  return q->Run(st.dbs[op.catalog]);
}

}  // namespace

WorkloadResult RunAdhoc(const Options& opts) {
  WorkloadResult res;
  const size_t slices = FixedSlices(kNominalOpsPerS, opts.seconds, kSliceOps);
  const size_t n_ops = slices * kSliceOps;
  Input in = MakeInput(opts.seed, n_ops);

  State st;
  double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    st = State{};
    st.functions = AdhocFunctions();
    uint64_t t0 = NowNs();
    for (const auto& catalog : in.catalogs) {
      Database db;
      for (const CsvTable& t : catalog) {
        if (!LoadCsvText(db, t.name, t.text).ok()) ++st.warmup_errors;
        st.csv_rows += t.rows;
      }
      st.dbs.push_back(std::move(db));
    }
    st.csv_ns = NowNs() - t0;
    Compiler compiler(st.functions);
    for (const Op& op : in.warmup) {
      StatusOr<Relation> r = CompileAndRun(compiler, op, st);
      if (!r.ok() && !IsKnownRejection(r.status())) ++st.warmup_errors;
    }
  }, res);

  // Timed phase: whole slices, one fresh Compiler per slice (outside the
  // timed interval) so the compiler arena stays bounded.
  Latencies lat;
  std::vector<uint64_t> slice_ns(slices);
  uint64_t rejected = 0;
  for (size_t s = 0; s < slices; ++s) {
    auto compiler = std::make_unique<Compiler>(st.functions);
    std::vector<StatusOr<Relation>> answers;
    answers.reserve(kSliceOps);
    uint64_t t_slice = NowNs();
    for (size_t i = s * kSliceOps; i < (s + 1) * kSliceOps; ++i) {
      uint64_t t0 = NowNs();
      StatusOr<Relation> r = CompileAndRun(*compiler, in.timed[i], st);
      lat.Add(NowNs() - t0);
      answers.push_back(std::move(r));
    }
    slice_ns[s] = NowNs() - t_slice;

    // Answer checks, outside the timed interval.
    Compiler checker(st.functions);
    AstContext oracle_ctx;
    for (size_t j = 0; j < kSliceOps; ++j) {
      const Op& op = in.timed[s * kSliceOps + j];
      const StatusOr<Relation>& r = answers[j];
      ++res.attempted;
      if (!r.ok()) {
        if (IsKnownRejection(r.status()) && checker.Analyze(op.text).safe) {
          ++rejected;
          if (rejected <= 3) {
            res.notes.push_back("known rejection (em-allowed, RANF order): " +
                                op.text);
          }
        } else {
          ++res.failed;
          res.notes.push_back("FAILED: " + op.text + " : " +
                              r.status().ToString());
        }
        continue;
      }
      if (obs::HashQueryText(op.text) % kOracleSampleEvery != 0) continue;
      StatusOr<Query> q = ParseQuery(oracle_ctx, op.text);
      if (!q.ok()) continue;
      // Level -1 is the evaluator's CountApplications(body): a level at
      // or above the paper's ||phi||-1, where answers have stabilized.
      CalculusEvalOptions eval;
      eval.level = -1;
      eval.domain_budget = 3000;
      StatusOr<Relation> want = EvaluateCalculus(oracle_ctx, *q,
                                                 st.dbs[op.catalog],
                                                 st.functions, eval);
      if (!want.ok()) continue;  // beyond the oracle's domain budget
      ++res.checked;
      if (!(DigestOf(*r) == DigestOf(*want))) {
        ++res.failed;
        res.notes.push_back("MISMATCH vs reference evaluator: " + op.text);
      }
    }
  }
  if (st.warmup_errors > 0) {
    ++res.failed;
    res.notes.push_back("FAILED: set-up load or warm-up errors: " +
                        std::to_string(st.warmup_errors));
  }
  AddEndToEnd(res, setup_s, kSliceOps, slice_ns, lat);
  res.notes.push_back(
      "corpus: " + std::to_string(n_ops) + " timed texts (" +
      std::to_string(std::size(kPaperQueries)) + " paper + random), " +
      std::to_string(kWarmupOps) + " warm-up texts, " +
      std::to_string(slices) + " slices of " + std::to_string(kSliceOps));
  res.notes.push_back(ErrorRateLine(res, rejected));
  Put(res.per_layer, "translate.rejected_em_allowed",
      static_cast<double>(rejected), "count");
  PutStorage(res.per_layer, st.csv_ns, st.csv_rows);
  if (!opts.trace) return res;

  // Traced run over every kTracedSliceEvery-th slice. Per text: the stage
  // path (one span per public stage function), the same path with spans
  // off, and the facade. Orders alternate, so no run always finds caches
  // another one warmed.
  Tracer tracer;
  Tracer no_spans(/*enabled=*/false);
  TraceTotals totals;
  StageResult sums;
  OperatorTotals operators;
  for (size_t s = 0; s < slices; s += kTracedSliceEvery) {
    auto compiler = std::make_unique<Compiler>(st.functions);
    AstContext stage_ctx;
    for (size_t i = s * kSliceOps; i < (s + 1) * kSliceOps; ++i) {
      const Op& op = in.timed[i];
      const Database& db = st.dbs[op.catalog];
      std::optional<StatusOr<CompiledQuery>> compiled;
      auto run_facade = [&] {
        Scoped span(tracer, "facade", i, -1);
        compiled.emplace(compiler->Compile(op.text));
        if (compiled->ok()) (void)(*compiled)->Run(db);
        return span.id();
      };
      auto run_stages = [&](Tracer& t, StageResult& r) {
        StagePath stage(t, i);
        r = CompileStages(t, i, stage.root(), stage_ctx, st.functions,
                          op.text);
        if (r.physical.has_value()) {
          Scoped span(t, "exec.execute", i, stage.root());
          (void)r.physical->ExecuteToRelation(db);
        }
        stage.End();
        return stage;
      };
      StageResult r, unused;
      int facade = (i / 2) % 2 == 1 ? run_facade() : -1;
      std::optional<StagePath> bare;
      if (i % 2 == 1) bare.emplace(run_stages(no_spans, unused));
      const StagePath stage = run_stages(tracer, r);
      if (!bare.has_value()) bare.emplace(run_stages(no_spans, unused));
      if (facade < 0) facade = run_facade();
      const StatusOr<CompiledQuery>& q = *compiled;
      // Operator numbers come from a profiled execution outside the spans,
      // so exec.execute times the same unprofiled call Run makes.
      if (r.physical.has_value()) {
        ExecProfile profile;
        (void)r.physical->ExecuteToRelation(db, &profile);
        operators.Add(profile);
      }
      r.AccumulateInto(sums);
      totals.AddOp(tracer, stage, *bare, facade);
      if (q.ok() != (r.plan != nullptr) ||
          (q.ok() && AlgExprToString(stage_ctx, r.plan) != q->PlanString())) {
        ++totals.plan_mismatches;
        res.notes.push_back("PLAN MISMATCH (stage path vs facade): " +
                            op.text);
      }
    }
  }
  const double ops = static_cast<double>(totals.ops);
  EmitStageMetrics(tracer, sums, ops, res.per_layer);
  operators.Emit(res.per_layer, ops);
  EmitTraceTotals(tracer, totals, opts.trace_out, res);
  return res;
}

}  // namespace emcalc::perfbench
