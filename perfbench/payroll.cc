// Workload `payroll`, execution-dominated. The payroll scenario of
// examples/payroll.cpp at 2x10^4 employees, plus a string-valued title
// column whose values share a 15-byte prefix (so StringPool order_prefix
// ties are on the sort and compare paths). One op is one whole report
// round: every report query run once through CompiledQuery::Run.
//
// At 10^5 employees the round time swung by up to 30% between runs on a
// shared host (the working set competes for cache and memory bandwidth
// with other tenants); at 2x10^4 the same spread measured about 5%.
#include <memory>
#include <random>
#include <set>

#include "perfbench/harness.h"
#include "perfbench/stages.h"
#include "src/algebra/printer.h"
#include "src/core/compiler.h"
#include "src/storage/csv.h"

namespace emcalc::perfbench {
namespace {

constexpr int64_t kEmployees = 20'000;
constexpr int64_t kDepartments = 50;
constexpr int64_t kTitles = 240;
constexpr double kNominalRoundsPerS = 64;  // sizes the fixed work per second
constexpr size_t kMinRounds = 100;         // p90 needs 10 rounds beyond it
constexpr size_t kRoundsPerSlice = 4;      // timings are taken per slice
constexpr int kSetupReps = 5;
constexpr int kWarmupRounds = 10;
constexpr size_t kTracedRoundEvery = 8;  // traced run: every 8th round
constexpr const char* kTitleCut = "position-title-120";

// The report: each query exercises a different operator mix.
constexpr const char* kReport[] = {
    // net pay: Scan + ProjectMap over every employee
    "{e, n | exists d, s, t (EMP(e, d, s, t) and n = net(s))}",
    // the paper's q2 shape: negation over a function image
    "{e | exists d, s, t, r (EMP(e, d, s, t) and with_raise(s) = r and "
    "not UNDER(d, r))}",
    // join + function composition
    "{e, i | exists d, s, t, b (EMP(e, d, s, t) and BONUS(e, b) and "
    "plus(net(s), b) = i)}",
    // string join key and string range filter; output sorted by title
    "{t, e, g | exists d, s (EMP(e, d, s, t) and GRADE(t, g) and "
    "t < 'position-title-120')}",
    // union of two differently bound branches
    "{e | exists b (BONUS(e, b)) or exists d, s, t (EMP(e, d, s, t) and "
    "d = 0)}",
    // difference: employees without a bonus
    "{e, d | exists s, t (EMP(e, d, s, t)) and not exists b (BONUS(e, b))}",
};
constexpr size_t kNumReport = std::size(kReport);

int64_t WithRaise(int64_t gross) { return gross * 110 / 100; }

// The host program's functions, as in examples/payroll.cpp.
FunctionRegistry PayrollFunctions() {
  FunctionRegistry reg = BuiltinFunctions();
  RegisterNet(reg);
  reg.Register("with_raise", 1, [](std::span<const Value> a) {
    return Value::Int(WithRaise(a[0].is_int() ? a[0].AsInt() : 0));
  });
  return reg;
}

std::string Title(int64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "position-title-%03lld",
                static_cast<long long>(i));
  return buf;
}

struct Employee {
  int64_t id, dept, salary, title;
};

// The generated instance, kept in plain C++ form for the references.
struct Input {
  std::vector<Employee> emp;
  std::vector<int64_t> budget;  // by department
  std::vector<int64_t> grade;   // by title index
  std::map<int64_t, int64_t> bonus;  // employee -> amount
  std::set<std::pair<int64_t, int64_t>> under;  // (dept, amount)
  std::vector<CsvTable> tables;
};

Input MakeInput(uint64_t seed) {
  Input in;
  std::mt19937_64 rng(StreamSeed(seed, 1));
  for (int64_t d = 0; d < kDepartments; ++d) {
    in.budget.push_back(50'000 + static_cast<int64_t>(rng() % 100) * 1'000);
  }
  for (int64_t t = 0; t < kTitles; ++t) {
    in.grade.push_back(static_cast<int64_t>(rng() % 10));
  }
  for (int64_t e = 0; e < kEmployees; ++e) {
    Employee x{e, static_cast<int64_t>(rng() % kDepartments),
               30'000 + static_cast<int64_t>(rng() % 700) * 100,
               static_cast<int64_t>(rng() % kTitles)};
    in.emp.push_back(x);
    if (rng() % 3 == 0) in.bonus[e] = static_cast<int64_t>(rng() % 5000);
  }
  // UNDER(dept, amount): raised salaries a department's budget covers.
  for (int64_t d = 0; d < kDepartments; ++d) {
    for (int64_t step = 0; step < 700; ++step) {
      int64_t r = WithRaise(30'000 + step * 100);
      if (r <= in.budget[static_cast<size_t>(d)] && rng() % 4 != 0) {
        in.under.insert({d, r});
      }
    }
  }

  auto table = [&](const char* name) -> CsvTable& {
    in.tables.push_back(CsvTable{name, "", 0});
    return in.tables.back();
  };
  auto row = [](CsvTable& t, std::initializer_list<std::string> fields) {
    bool first = true;
    for (const std::string& f : fields) {
      if (!first) t.text += ',';
      first = false;
      t.text += f;
    }
    t.text += '\n';
    ++t.rows;
  };
  using std::to_string;
  CsvTable& emp = table("EMP");
  for (const Employee& x : in.emp) {
    row(emp, {to_string(x.id), to_string(x.dept), to_string(x.salary),
              Title(x.title)});
  }
  CsvTable& dept = table("DEPT");
  for (int64_t d = 0; d < kDepartments; ++d) {
    row(dept, {to_string(d), to_string(in.budget[static_cast<size_t>(d)])});
  }
  CsvTable& bonus = table("BONUS");
  for (const auto& [e, b] : in.bonus) row(bonus, {to_string(e), to_string(b)});
  CsvTable& grade = table("GRADE");
  for (int64_t t = 0; t < kTitles; ++t) {
    row(grade, {Title(t), to_string(in.grade[static_cast<size_t>(t)])});
  }
  CsvTable& under = table("UNDER");
  for (const auto& [d, r] : in.under) row(under, {to_string(d), to_string(r)});
  return in;
}

// Hand-written references for kReport, straight from the generated data.
std::vector<Digest> ReferenceDigests(const Input& in) {
  std::vector<Digest> out;
  DigestBuilder net_pay, over, income, grades, either, no_bonus;
  std::set<int64_t> either_ids;
  const std::string cut = kTitleCut;
  for (const Employee& x : in.emp) {
    net_pay.Int(x.id).Int(Net(x.salary)).EndTuple();
    if (!in.under.count({x.dept, WithRaise(x.salary)})) {
      over.Int(x.id).EndTuple();
    }
    auto b = in.bonus.find(x.id);
    if (b != in.bonus.end()) {
      income.Int(x.id).Int(Net(x.salary) + b->second).EndTuple();
      either_ids.insert(x.id);
    } else {
      no_bonus.Int(x.id).Int(x.dept).EndTuple();
    }
    std::string title = Title(x.title);
    if (title < cut) {
      grades.Str(title).Int(x.id).Int(in.grade[static_cast<size_t>(x.title)])
          .EndTuple();
    }
    if (x.dept == 0) either_ids.insert(x.id);
  }
  for (int64_t e : either_ids) either.Int(e).EndTuple();
  for (const DigestBuilder* b :
       {&net_pay, &over, &income, &grades, &either, &no_bonus}) {
    out.push_back(b->Finish());
  }
  return out;
}

struct State {
  FunctionRegistry functions;
  Database db;
  std::unique_ptr<Compiler> compiler;
  std::vector<CompiledQuery> report;
  uint64_t csv_ns = 0;
  size_t csv_rows = 0;
  uint64_t errors = 0;
};

}  // namespace

WorkloadResult RunPayroll(const Options& opts) {
  WorkloadResult res;
  const size_t rounds =
      kRoundsPerSlice *
      std::max(kMinRounds / kRoundsPerSlice,
               FixedSlices(kNominalRoundsPerS, opts.seconds, kRoundsPerSlice));
  Input in = MakeInput(opts.seed);
  const std::vector<Digest> want = ReferenceDigests(in);

  State st;
  double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    st.report.clear();  // before the compiler they point into
    st = State{};
    st.functions = PayrollFunctions();
    uint64_t t0 = NowNs();
    for (const CsvTable& t : in.tables) {
      if (!LoadCsvText(st.db, t.name, t.text).ok()) ++st.errors;
      st.csv_rows += t.rows;
    }
    st.csv_ns = NowNs() - t0;
    st.compiler = std::make_unique<Compiler>(st.functions);
    for (const char* text : kReport) {
      StatusOr<CompiledQuery> q = st.compiler->Compile(text);
      if (!q.ok()) {
        ++st.errors;
        res.notes.push_back(std::string("FAILED compile: ") + text + " : " +
                            q.status().ToString());
        continue;
      }
      st.report.push_back(std::move(q).value());
    }
    for (int round = 0; round < kWarmupRounds; ++round) {
      for (const CompiledQuery& q : st.report) {
        if (!q.Run(st.db).ok()) ++st.errors;
      }
    }
  }, res);
  if (st.errors > 0 || st.report.size() != kNumReport) {
    res.attempted = 1;
    res.failed = 1;
    res.notes.push_back("FAILED: set-up errors");
    return res;
  }

  // Timed phase: a fixed number of whole rounds; answers are digested and
  // compared with the references between rounds, outside the timing.
  Latencies lat;
  std::vector<uint64_t> round_ns(rounds);
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<StatusOr<Relation>> answers;
    answers.reserve(kNumReport);
    uint64_t t0 = NowNs();
    for (const CompiledQuery& q : st.report) answers.push_back(q.Run(st.db));
    round_ns[round] = NowNs() - t0;
    lat.Add(round_ns[round]);
    ++res.attempted;
    bool ok = true;
    for (size_t i = 0; i < kNumReport; ++i) {
      if (!answers[i].ok()) {
        ok = false;
        res.notes.push_back(std::string("FAILED: ") + kReport[i] + " : " +
                            answers[i].status().ToString());
        continue;
      }
      ++res.checked;
      if (!(DigestOf(*answers[i]) == want[i])) {
        ok = false;
        res.notes.push_back(std::string("MISMATCH vs reference: ") +
                            kReport[i]);
      }
    }
    if (!ok) ++res.failed;
  }
  std::vector<uint64_t> slice_ns(rounds / kRoundsPerSlice, 0);
  for (size_t round = 0; round < rounds; ++round) {
    slice_ns[round / kRoundsPerSlice] += round_ns[round];
  }
  AddEndToEnd(res, setup_s, kRoundsPerSlice, slice_ns, lat);
  res.notes.push_back(
      "instance: " + std::to_string(st.csv_rows) + " CSV rows (" +
      std::to_string(kEmployees) + " employees); " + std::to_string(rounds) +
      " rounds of " + std::to_string(kNumReport) + " report queries");
  res.notes.push_back(ErrorRateLine(res));
  PutStorage(res.per_layer, st.csv_ns, st.csv_rows);
  if (!opts.trace) return res;

  // Traced run. The report is compiled once through the stage path (its
  // plans must print as the facade's do). Each traced round then executes
  // the stage-path plans under spans, executes them again with spans off,
  // and runs the facade on the same round. Orders alternate, so no run
  // always finds caches another one warmed.
  Tracer setup_tracer;
  TraceTotals totals;
  AstContext stage_ctx;
  std::vector<PhysicalPlan> plans;
  for (size_t i = 0; i < kNumReport; ++i) {
    StageResult r = CompileStages(setup_tracer, i, -1, stage_ctx,
                                  st.functions, kReport[i]);
    if (!r.physical.has_value() ||
        AlgExprToString(stage_ctx, r.plan) != st.report[i].PlanString()) {
      ++totals.plan_mismatches;
      res.notes.push_back(std::string("PLAN MISMATCH: ") + kReport[i]);
      continue;
    }
    plans.push_back(std::move(*r.physical));
  }
  if (plans.size() != kNumReport) {
    ++res.failed;
    return res;
  }
  Tracer tracer;
  Tracer no_spans(/*enabled=*/false);
  OperatorTotals operators;
  for (size_t round = 0; round < rounds; round += kTracedRoundEvery) {
    const size_t traced = round / kTracedRoundEvery;
    auto run_facade = [&] {
      Scoped span(tracer, "facade", round, -1);
      for (const CompiledQuery& q : st.report) (void)q.Run(st.db);
      return span.id();
    };
    auto run_stages = [&](Tracer& t) {
      StagePath stage(t, round);
      for (const PhysicalPlan& plan : plans) {
        Scoped span(t, "exec.execute", round, stage.root());
        (void)plan.ExecuteToRelation(st.db);
      }
      stage.End();
      return stage;
    };
    int facade = (traced / 2) % 2 == 1 ? run_facade() : -1;
    std::optional<StagePath> bare;
    if (traced % 2 == 1) bare.emplace(run_stages(no_spans));
    const StagePath stage = run_stages(tracer);
    if (!bare.has_value()) bare.emplace(run_stages(no_spans));
    if (facade < 0) facade = run_facade();
    // Operator numbers come from a profiled execution outside the spans,
    // so exec.execute times the same unprofiled call Run makes.
    for (const PhysicalPlan& plan : plans) {
      ExecProfile profile;
      (void)plan.ExecuteToRelation(st.db, &profile);
      operators.Add(profile);
    }
    totals.AddOp(tracer, stage, *bare, facade);
  }
  const double ops = static_cast<double>(totals.ops);
  EmitStageMetrics(tracer, StageResult{}, ops, res.per_layer);
  operators.Emit(res.per_layer, ops);
  EmitTraceTotals(tracer, totals, opts.trace_out, res);
  return res;
}

}  // namespace emcalc::perfbench
