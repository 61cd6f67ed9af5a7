// Workload `prepared`: the translation tail on every run. A parameterized
// query is compiled once in set-up; one op is one ParameterizedQuery::Run
// with a seeded (d, floor) argument pair on a 2x10^3-employee instance.
// Each Run substitutes the arguments, regenerates, re-optimizes and
// re-lowers the plan, and grows the compiler's arena, so the number of
// runs per compiler is fixed: peak RSS depends on it.
#include <memory>
#include <random>

#include "perfbench/harness.h"
#include "perfbench/stages.h"
#include "src/algebra/optimizer.h"
#include "src/algebra/printer.h"
#include "src/calculus/parser.h"
#include "src/calculus/rewrite.h"
#include "src/core/compiler.h"
#include "src/safety/em_allowed.h"
#include "src/storage/csv.h"
#include "src/translate/algebra_gen.h"
#include "src/translate/enf.h"
#include "src/translate/ranf.h"

namespace emcalc::perfbench {
namespace {

constexpr const char* kQuery =
    "{e | exists s (EMP(e, d, s) and floor <= net(s))}";
constexpr int64_t kEmployees = 2'000;
constexpr int64_t kDepartments = 20;
constexpr size_t kSliceOps = 1000;
constexpr double kNominalOpsPerS = 40'000;  // sizes the fixed work per second
constexpr size_t kRunsPerCompiler = 25'000;  // bounds each arena's growth
constexpr size_t kWarmupOps = 20'000;        // its own argument stream
constexpr int kSetupReps = 5;
constexpr size_t kTracedSliceEvery = 5;

FunctionRegistry PreparedFunctions() {
  FunctionRegistry reg = BuiltinFunctions();
  RegisterNet(reg);
  return reg;
}

struct Args {
  int64_t dept;
  int64_t floor;
};

struct Input {
  CsvTable emp{"EMP", "", 0};
  // By department: (net pay, employee id), for the reference answers.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> by_dept;
  std::vector<Args> warmup;
  std::vector<Args> timed;
};

std::vector<Args> ArgStream(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<Args> out(n);
  for (Args& a : out) {
    a.dept = static_cast<int64_t>(rng() % kDepartments);
    a.floor = 20'000 + static_cast<int64_t>(rng() % 550) * 100;
  }
  return out;
}

Input MakeInput(uint64_t seed, size_t timed_ops) {
  Input in;
  in.by_dept.resize(kDepartments);
  std::mt19937_64 rng(StreamSeed(seed, 1));
  for (int64_t e = 0; e < kEmployees; ++e) {
    int64_t dept = static_cast<int64_t>(rng() % kDepartments);
    int64_t salary = 30'000 + static_cast<int64_t>(rng() % 700) * 100;
    in.emp.text += std::to_string(e) + ',' + std::to_string(dept) + ',' +
                   std::to_string(salary) + '\n';
    ++in.emp.rows;
    in.by_dept[static_cast<size_t>(dept)].emplace_back(Net(salary), e);
  }
  in.warmup = ArgStream(StreamSeed(seed, 2), kWarmupOps);
  in.timed = ArgStream(StreamSeed(seed, 3), timed_ops);
  return in;
}

// Hand-written reference: employees of `a.dept` with net pay >= floor.
Digest Reference(const Input& in, const Args& a) {
  DigestBuilder b;
  for (const auto& [net, e] : in.by_dept[static_cast<size_t>(a.dept)]) {
    if (a.floor <= net) b.Int(e).EndTuple();
  }
  return b.Finish();
}

std::vector<Value> ArgValues(const Args& a) {
  return {Value::Int(a.dept), Value::Int(a.floor)};
}

// One compiler and its prepared query; each serves kRunsPerCompiler runs.
struct Prepared {
  std::unique_ptr<Compiler> compiler;
  std::optional<ParameterizedQuery> query;
};

struct State {
  FunctionRegistry functions;
  Database db;
  std::vector<Prepared> prepared;
  uint64_t csv_ns = 0;
  uint64_t errors = 0;
};

bool Prepare(const FunctionRegistry& functions, Prepared& p) {
  p.compiler = std::make_unique<Compiler>(functions);
  StatusOr<ParameterizedQuery> q =
      p.compiler->CompileParameterized(kQuery, {"d", "floor"});
  if (!q.ok()) return false;
  p.query.emplace(std::move(q).value());
  return true;
}

// The parameterized query's RANF derived in `ctx` through the public stage
// functions CompileParameterized calls (parse, em-allowed for {d, floor},
// ENF, RANF for the parameter context).
struct StageRanf {
  const Formula* ranf = nullptr;
  std::vector<Symbol> head;
  std::vector<Symbol> params;
};

StatusOr<StageRanf> DeriveRanf(AstContext& ctx) {
  StatusOr<Query> q = ParseQuery(ctx, kQuery);
  if (!q.ok()) return q.status();
  StageRanf out;
  out.params = {ctx.symbols().Intern("d"), ctx.symbols().Intern("floor")};
  SymbolSet params(out.params);
  for (Symbol h : q->head) {
    if (!params.Contains(h)) out.head.push_back(h);
  }
  EmAllowedChecker checker(ctx);
  if (!checker.CheckFormula(q->body, params).em_allowed) {
    return NotSafeError("not em-allowed for {d, floor}");
  }
  StatusOr<const Formula*> ranf = ToRanf(ctx, ToEnf(ctx, q->body), params);
  if (!ranf.ok()) return ranf.status();
  out.ranf = *ranf;
  return out;
}

}  // namespace

WorkloadResult RunPrepared(const Options& opts) {
  WorkloadResult res;
  const size_t slices = FixedSlices(kNominalOpsPerS, opts.seconds, kSliceOps);
  const size_t n_ops = slices * kSliceOps;
  const size_t n_compilers = (n_ops + kRunsPerCompiler - 1) / kRunsPerCompiler;
  Input in = MakeInput(opts.seed, n_ops);

  State st;
  double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    st.prepared.clear();
    st = State{};
    st.functions = PreparedFunctions();
    uint64_t t0 = NowNs();
    if (!LoadCsvText(st.db, in.emp.name, in.emp.text).ok()) ++st.errors;
    st.csv_ns = NowNs() - t0;
    st.prepared.resize(n_compilers);
    for (Prepared& p : st.prepared) {
      if (!Prepare(st.functions, p)) ++st.errors;
    }
    Prepared warm;
    if (!Prepare(st.functions, warm)) ++st.errors;
    for (const Args& a : in.warmup) {
      if (!warm.query->Run(st.db, ArgValues(a)).ok()) ++st.errors;
    }
  }, res);
  if (st.errors > 0) {
    res.attempted = 1;
    res.failed = 1;
    res.notes.push_back("FAILED: set-up errors");
    return res;
  }

  // Timed phase. A compiler is dropped once its block of runs is done, so
  // its arena is freed before the next block grows a fresh one.
  Latencies lat;
  std::vector<uint64_t> slice_ns(slices);
  uint64_t arena_bytes = 0, constants = 0;
  for (size_t s = 0; s < slices; ++s) {
    const size_t block = s * kSliceOps / kRunsPerCompiler;
    Prepared& p = st.prepared[block];
    const size_t arena0 = p.compiler->ctx().arena().bytes_allocated();
    const size_t consts0 = p.compiler->ctx().NumConstants();
    std::vector<StatusOr<Relation>> answers;
    answers.reserve(kSliceOps);
    uint64_t t_slice = NowNs();
    for (size_t i = s * kSliceOps; i < (s + 1) * kSliceOps; ++i) {
      std::vector<Value> args = ArgValues(in.timed[i]);
      uint64_t t0 = NowNs();
      StatusOr<Relation> r = p.query->Run(st.db, args);
      lat.Add(NowNs() - t0);
      answers.push_back(std::move(r));
    }
    slice_ns[s] = NowNs() - t_slice;
    arena_bytes += p.compiler->ctx().arena().bytes_allocated() - arena0;
    constants += p.compiler->ctx().NumConstants() - consts0;
    for (size_t j = 0; j < kSliceOps; ++j) {
      const Args& a = in.timed[s * kSliceOps + j];
      ++res.attempted;
      if (!answers[j].ok()) {
        ++res.failed;
        res.notes.push_back("FAILED: Run(d=" + std::to_string(a.dept) +
                            ", floor=" + std::to_string(a.floor) + "): " +
                            answers[j].status().ToString());
        continue;
      }
      ++res.checked;
      if (!(DigestOf(*answers[j]) == Reference(in, a))) {
        ++res.failed;
        res.notes.push_back("MISMATCH vs reference: d=" +
                            std::to_string(a.dept) + " floor=" +
                            std::to_string(a.floor));
      }
    }
    if ((s + 1) * kSliceOps % kRunsPerCompiler == 0 || s + 1 == slices) {
      p.query.reset();
      p.compiler.reset();
    }
  }
  AddEndToEnd(res, setup_s, kSliceOps, slice_ns, lat);
  res.notes.push_back("query: " + std::string(kQuery) + " with " +
                      std::to_string(n_ops) + " runs, " +
                      std::to_string(kRunsPerCompiler) + " per compiler, " +
                      std::to_string(kWarmupOps) + " warm-up runs");
  res.notes.push_back(ErrorRateLine(res));

  MetricMap& pl = res.per_layer;
  const double runs = static_cast<double>(n_ops);
  Put(pl, "core.arena_bytes_per_run", static_cast<double>(arena_bytes) / runs,
      "bytes");
  Put(pl, "core.constants_per_run", static_cast<double>(constants) / runs,
      "count");
  PutStorage(pl, st.csv_ns, in.emp.rows);
  if (!opts.trace) return res;

  // Traced run over every kTracedSliceEvery-th slice. Per op: the stage
  // path (substitute, generate, optimize, lower, execute; the RANF it
  // starts from is derived once per slice), the same path with spans off,
  // PlanFor on its own, and the facade Run. Orders alternate, so no run
  // always finds caches another one warmed.
  Tracer tracer;
  Tracer no_spans(/*enabled=*/false);
  TraceTotals totals;
  StageResult sums;
  OperatorTotals operators;
  for (size_t s = 0; s < slices; s += kTracedSliceEvery) {
    Prepared p;  // a fresh compiler per traced slice keeps memory bounded
    if (!Prepare(st.functions, p)) {
      ++res.failed;
      return res;
    }
    AstContext stage_ctx;
    StatusOr<StageRanf> ranf = DeriveRanf(stage_ctx);
    if (!ranf.ok()) {
      ++res.failed;
      res.notes.push_back("FAILED stage RANF: " + ranf.status().ToString());
      return res;
    }
    for (size_t i = s * kSliceOps; i < (s + 1) * kSliceOps; ++i) {
      std::vector<Value> args = ArgValues(in.timed[i]);
      auto run_facade = [&] {
        Scoped span(tracer, "facade", i, -1);
        (void)p.query->Run(st.db, args);
        return span.id();
      };
      auto run_stages = [&](Tracer& t, StageResult& r) {
        StagePath stage(t, i);
        const int root = stage.root();
        const Formula* grounded = nullptr;
        {
          Scoped span(t, "translate.substitute", i, root);
          Substitution sub;
          for (size_t k = 0; k < args.size(); ++k) {
            sub.emplace(ranf->params[k], stage_ctx.MakeConst(args[k]));
          }
          grounded = SubstituteFormula(stage_ctx, ranf->ranf, sub);
        }
        StatusOr<const AlgExpr*> raw = [&] {
          Scoped span(t, "translate.algebra_gen", i, root);
          AlgebraGenerator generator(stage_ctx);
          return generator.Translate(grounded, ranf->head);
        }();
        if (raw.ok()) {
          {
            Scoped span(t, "algebra.optimize", i, root);
            AlgebraFactory factory(stage_ctx);
            r.plan = OptimizePlan(factory, *raw);
          }
          StatusOr<PhysicalPlan> physical =
              LowerTraced(t, i, root, stage_ctx, st.functions, r.plan, kQuery);
          if (physical.ok()) {
            {
              Scoped span(t, "exec.execute", i, root);
              (void)physical->ExecuteToRelation(st.db);
            }
            r.physical = std::move(physical).value();
          }
        }
        stage.End();
        if (raw.ok()) {
          r.raw_plan_nodes = (*raw)->NodeCount();
          r.plan_nodes = r.plan->NodeCount();
        }
        if (r.physical.has_value()) r.physical_ops = r.physical->NumOperators();
        return stage;
      };
      StageResult r, unused;
      int facade = (i / 2) % 2 == 1 ? run_facade() : -1;
      std::optional<StagePath> bare;
      if (i % 2 == 1) bare.emplace(run_stages(no_spans, unused));
      const StagePath stage = run_stages(tracer, r);
      if (!bare.has_value()) bare.emplace(run_stages(no_spans, unused));
      if (facade < 0) facade = run_facade();
      StatusOr<const AlgExpr*> facade_plan = [&] {
        Scoped span(tracer, "core.plan_for", i, -1);
        return p.query->PlanFor(args);
      }();
      // Operator numbers come from a profiled execution outside the spans,
      // so exec.execute times the same unprofiled call Run makes.
      if (r.physical.has_value()) {
        ExecProfile profile;
        (void)r.physical->ExecuteToRelation(st.db, &profile);
        operators.Add(profile);
      }
      r.AccumulateInto(sums);
      if (!facade_plan.ok() || r.plan == nullptr ||
          AlgExprToString(stage_ctx, r.plan) !=
              AlgExprToString(p.compiler->ctx(), *facade_plan)) {
        ++totals.plan_mismatches;
        res.notes.push_back("PLAN MISMATCH (stage path vs PlanFor) at op " +
                            std::to_string(i));
      }
      totals.AddOp(tracer, stage, *bare, facade);
    }
  }
  const double ops = static_cast<double>(totals.ops);
  EmitStageMetrics(tracer, sums, ops, pl);
  operators.Emit(pl, ops);
  const std::map<std::string, uint64_t> self = tracer.SelfNsByName();
  Put(pl, "core.plan_for_us",
      static_cast<double>(self.at("core.plan_for")) / 1e3 / ops, "us");
  Put(pl, "translate.substitute_us",
      static_cast<double>(self.at("translate.substitute")) / 1e3 / ops, "us");
  EmitTraceTotals(tracer, totals, opts.trace_out, res);
  return res;
}

}  // namespace emcalc::perfbench
