// Tests for memory accounting (MemoryAccountant / QueryMemory /
// MemoryScope), the per-query ResourceGovernor, the run record built from
// a profile, and the ExecProfile JSON round trip. The attribution tests run
// real allocations through FlatRelation and the thread pool, so this
// binary is part of the TSAN CI leg (EMCALC_HARDWARE_THREADS=4).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algebra/ast.h"
#include "src/algebra/expr.h"
#include "src/base/thread_pool.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/exec/feedback.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"
#include "src/obs/json.h"
#include "src/obs/query_log.h"
#include "src/obs/resource.h"
#include "src/obs/trace.h"
#include "src/storage/adom.h"
#include "src/storage/csv.h"
#include "src/storage/relation.h"

namespace emcalc {
namespace {

// ---- Accounting attribution --------------------------------------------

TEST(MemoryAccountingTest, ChargeBytesReachesProcessAccountant) {
  auto& acct = obs::MemoryAccountant::Instance();
  int64_t before_bytes = acct.bytes();
  uint64_t before_alloc = acct.bytes_allocated();
  obs::ChargeBytes(4096);
  EXPECT_EQ(acct.bytes(), before_bytes + 4096);
  EXPECT_EQ(acct.bytes_allocated(), before_alloc + 4096);
  EXPECT_GE(acct.peak_bytes(), before_bytes + 4096);
  obs::ChargeBytes(-4096);
  EXPECT_EQ(acct.bytes(), before_bytes);
  // Releases never count as allocation.
  EXPECT_EQ(acct.bytes_allocated(), before_alloc + 4096);
}

TEST(MemoryAccountingTest, ScopeAttributesToQueryAndOperator) {
  obs::QueryMemory qmem(2);
  {
    obs::MemoryScope op0(&qmem, 0);
    obs::ChargeBytes(100);
    {
      obs::MemoryScope op1(&qmem, 1);  // nested: shadows op0
      obs::ChargeBytes(300);
      obs::ChargeBytes(-300);
    }
    obs::ChargeBytes(-100);
  }
  obs::ChargeBytes(64);  // outside any scope: process accountant only
  obs::ChargeBytes(-64);
  EXPECT_EQ(qmem.bytes(), 0);
  EXPECT_EQ(qmem.bytes_allocated(), 400u);
  EXPECT_EQ(qmem.peak_bytes(), 400);  // 100 held while op1 charged 300
  EXPECT_EQ(qmem.OpBytesAllocated(0), 100u);
  EXPECT_EQ(qmem.OpBytesAllocated(1), 300u);
  EXPECT_EQ(qmem.OpPeakBytes(0), 100);
  EXPECT_EQ(qmem.OpPeakBytes(1), 300);
}

TEST(MemoryAccountingTest, FlatRelationChargesAndReleasesItsBuffers) {
  obs::QueryMemory qmem(1);
  auto& acct = obs::MemoryAccountant::Instance();
  int64_t process_before = acct.bytes();
  {
    obs::MemoryScope scope(&qmem, 0);
    Relation rel(2);
    Value row[2];
    for (int i = 0; i < 1000; ++i) {
      row[0] = Value::Int(i);
      row[1] = Value::Int(i + 1);
      rel.AppendRow(row);
    }
    EXPECT_GE(qmem.bytes(),
              static_cast<int64_t>(1000 * 2 * sizeof(Value)));
    // Moves transfer the charge with the storage: the live total is
    // unchanged and nothing double-releases at destruction.
    int64_t live = qmem.bytes();
    Relation moved(std::move(rel));
    EXPECT_EQ(qmem.bytes(), live);
  }
  EXPECT_EQ(qmem.bytes(), 0);
  EXPECT_EQ(acct.bytes(), process_before);
  EXPECT_GT(qmem.bytes_allocated(), 0u);
  EXPECT_EQ(qmem.OpBytesAllocated(0), qmem.bytes_allocated());
}

TEST(MemoryAccountingTest, ThreadPoolPropagatesScopeToWorkers) {
  obs::QueryMemory qmem(1);
  {
    obs::MemoryScope scope(&qmem, 0);
    ThreadPool pool(3);
    // Morsels run on pool workers; every charge must still attribute to
    // the scope captured by the caller that opened the region.
    pool.ParallelFor(64, 1, 4, [](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        obs::ChargeBytes(128);
        obs::ChargeBytes(-128);
      }
    });
  }
  EXPECT_EQ(qmem.bytes(), 0);
  EXPECT_EQ(qmem.bytes_allocated(), 64u * 128);
  EXPECT_EQ(qmem.OpBytesAllocated(0), 64u * 128);
}

// ---- Resource limits: parsing and the governor -------------------------

TEST(ResourceLimitsTest, EnvKnobsParseAndExplicitFieldsWin) {
  setenv("EMCALC_MAX_QUERY_BYTES", "12345", 1);
  setenv("EMCALC_MAX_QUERY_MS", "678", 1);
  obs::ResourceLimits env = obs::ResourceLimitsFromEnv();
  EXPECT_EQ(env.max_bytes, 12345u);
  EXPECT_EQ(env.max_wall_ms, 678u);

  obs::ResourceLimits opts;
  opts.max_bytes = 99;
  obs::ResourceLimits eff = obs::EffectiveLimits(opts);
  EXPECT_EQ(eff.max_bytes, 99u);      // explicit beats env
  EXPECT_EQ(eff.max_wall_ms, 678u);   // env fills the unset field

  unsetenv("EMCALC_MAX_QUERY_BYTES");
  unsetenv("EMCALC_MAX_QUERY_MS");
  env = obs::ResourceLimitsFromEnv();
  EXPECT_EQ(env.max_bytes, 0u);
  EXPECT_EQ(env.max_wall_ms, 0u);
}

TEST(ResourceGovernorTest, NoLimitsMeansDisabledAndFree) {
  obs::ResourceGovernor governor(obs::ResourceLimits{}, nullptr,
                                 obs::NowNs());
  EXPECT_FALSE(governor.enabled());
  governor.AddRows(1'000'000);
  EXPECT_FALSE(governor.Check());
  EXPECT_TRUE(governor.status().ok());
}

TEST(ResourceGovernorTest, RowLimitTripsAndNamesItself) {
  obs::ResourceLimits limits;
  limits.max_rows = 10;
  obs::ResourceGovernor governor(limits, nullptr, obs::NowNs());
  ASSERT_TRUE(governor.enabled());
  governor.AddRows(5);
  EXPECT_FALSE(governor.Check());
  governor.AddRows(6);
  EXPECT_TRUE(governor.Check());
  EXPECT_TRUE(governor.tripped());
  EXPECT_EQ(governor.tripped_limit(), obs::ResourceLimitKind::kRows);
  Status status = governor.status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The limit name leads the message so log parsing can take the first
  // token.
  EXPECT_EQ(status.message().rfind("max_rows", 0), 0u);
}

TEST(ResourceGovernorTest, DeadlineTripsOncePassed) {
  obs::ResourceLimits limits;
  limits.max_wall_ms = 5;
  // Anchor the deadline 50ms in the past: already expired.
  obs::ResourceGovernor governor(limits, nullptr,
                                 obs::NowNs() - 50'000'000);
  EXPECT_TRUE(governor.Check());
  EXPECT_EQ(governor.tripped_limit(), obs::ResourceLimitKind::kDeadline);
  EXPECT_NE(governor.status().message().find("max_wall_ms"),
            std::string::npos);
}

TEST(ResourceGovernorTest, ClosureLimitTripsThroughCheckClosure) {
  obs::ResourceLimits limits;
  limits.max_term_closure_size = 100;
  obs::ResourceGovernor governor(limits, nullptr, obs::NowNs());
  EXPECT_TRUE(governor.CheckClosure(50).ok());
  Status status = governor.CheckClosure(1000);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message().rfind("max_term_closure_size", 0), 0u);
}

TEST(ResourceGovernorTest, FirstTripWinsAndIsSticky) {
  obs::ResourceLimits limits;
  limits.max_rows = 10;
  limits.max_term_closure_size = 10;
  obs::ResourceGovernor governor(limits, nullptr, obs::NowNs());
  governor.AddRows(100);
  EXPECT_TRUE(governor.Check());
  ASSERT_EQ(governor.tripped_limit(), obs::ResourceLimitKind::kRows);
  // A later violation of a different limit does not rewrite the verdict.
  EXPECT_FALSE(governor.CheckClosure(1000).ok());
  EXPECT_EQ(governor.tripped_limit(), obs::ResourceLimitKind::kRows);
  EXPECT_EQ(governor.status().message().rfind("max_rows", 0), 0u);
}

TEST(ResourceGovernorTest, TermClosureHonorsGovernor) {
  FunctionRegistry registry = BuiltinFunctions();
  ValueSet base;
  for (int i = 0; i < 10; ++i) base.push_back(Value::Int(i));
  obs::ResourceLimits limits;
  limits.max_term_closure_size = 5;
  obs::ResourceGovernor governor(limits, nullptr, obs::NowNs());
  auto closure = TermClosure(base, {{"succ", 1}}, registry, /*level=*/3,
                             /*max_size=*/1'000'000, /*num_threads=*/1,
                             &governor);
  ASSERT_FALSE(closure.ok());
  EXPECT_EQ(closure.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(closure.status().message().find("max_term_closure_size"),
            std::string::npos);
}

// ---- End-to-end: governed executions -----------------------------------

Database JoinInstance(size_t rows) {
  Database db;
  AddRandomTuples(db, "R", 2, rows, /*value_pool=*/5000, /*seed=*/11, 0.0);
  AddRandomTuples(db, "S", 2, rows, /*value_pool=*/5000, /*seed=*/23, 0.0);
  return db;
}

const AlgExpr* JoinPlan(AstContext& ctx, AlgebraFactory& factory) {
  ExprFactory e(ctx);
  return factory.Join({{e.Col(1), AlgCompareOp::kEq, e.Col(2)}},
                      factory.Rel("R", 2), factory.Rel("S", 2));
}

TEST(GovernedExecutionTest, ByteLimitAbortsNamedAndProcessStaysUsable) {
  FunctionRegistry registry = BuiltinFunctions();
  Database db = JoinInstance(20'000);
  AstContext ctx;
  AlgebraFactory factory(ctx);
  const AlgExpr* plan = JoinPlan(ctx, factory);

  ExecOptions limited;
  limited.limits.max_bytes = 64 * 1024;  // far below the join's working set
  auto governed = Lower(ctx, plan, registry, limited);
  ASSERT_TRUE(governed.ok());
  ExecProfile profile;
  auto aborted = governed->ExecuteToRelation(db, &profile);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(aborted.status().message().find("max_bytes"),
            std::string::npos);
  // The partial profile still reports what ran before the abort.
  EXPECT_GT(profile.total_bytes_allocated, 0u);

  // The abort is per-query: the same plan shape executes cleanly and
  // deterministically afterwards.
  auto unlimited = Lower(ctx, plan, registry, ExecOptions{});
  ASSERT_TRUE(unlimited.ok());
  auto first = unlimited->ExecuteToRelation(db);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = unlimited->ExecuteToRelation(db);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->size(), second->size());
  EXPECT_GT(first->size(), 0u);
}

TEST(GovernedExecutionTest, RowLimitAbortsScanHeavyQuery) {
  FunctionRegistry registry = BuiltinFunctions();
  Database db = JoinInstance(20'000);
  AstContext ctx;
  AlgebraFactory factory(ctx);
  ExprFactory e(ctx);
  const AlgExpr* plan =
      factory.Select({{e.Col(0), AlgCompareOp::kLt, e.Col(1)}},
                     factory.Rel("R", 2));
  ExecOptions options;
  options.limits.max_rows = 100;
  auto lowered = Lower(ctx, plan, registry, options);
  ASSERT_TRUE(lowered.ok());
  auto result = lowered->ExecuteToRelation(db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("max_rows"), std::string::npos);
}

TEST(GovernedExecutionTest, EnvByteLimitGovernsCompiledQueries) {
  Compiler compiler;
  Database db;
  std::string csv;
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i + 1) + "\n";
  }
  ASSERT_TRUE(LoadCsvText(db, "EDGE", csv).ok());
  auto q = compiler.Compile("{x | exists y (EDGE(x, y))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  setenv("EMCALC_MAX_QUERY_BYTES", "1", 1);
  auto aborted = q->Run(db);
  unsetenv("EMCALC_MAX_QUERY_BYTES");
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(aborted.status().message().find("max_bytes"),
            std::string::npos);

  auto ok = q->Run(db);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 500u);
}

// ---- Profiles: memory columns, JSON round trip, run records ------------

TEST(ExecProfileTest, CarriesMemoryPerOperator) {
  FunctionRegistry registry = BuiltinFunctions();
  Database db = JoinInstance(5'000);
  AstContext ctx;
  AlgebraFactory factory(ctx);
  const AlgExpr* plan = JoinPlan(ctx, factory);
  auto lowered = Lower(ctx, plan, registry, ExecOptions{});
  ASSERT_TRUE(lowered.ok());
  ExecProfile profile;
  auto result = lowered->ExecuteToRelation(db, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Root: the HashJoin. Memory totals are filled only at the root.
  EXPECT_EQ(profile.op, PhysOpKind::kHashJoin);
  EXPECT_GT(profile.total_bytes_allocated, 0u);
  EXPECT_GT(profile.total_peak_bytes, 0);
  EXPECT_GT(profile.stats.bytes_allocated, 0u);  // join output + scratch
  ASSERT_EQ(profile.children.size(), 2u);
  for (const ExecProfile& child : profile.children) {
    EXPECT_EQ(child.op, PhysOpKind::kScan);
  }
  // Per-operator allocation attributes within the query total.
  uint64_t op_sum = profile.stats.bytes_allocated;
  for (const ExecProfile& child : profile.children) {
    op_sum += child.stats.bytes_allocated;
  }
  EXPECT_LE(op_sum, profile.total_bytes_allocated);

  std::string rendered = ExecProfileToString(profile);
  EXPECT_NE(rendered.find("peak_bytes="), std::string::npos);
}

// Batch-kernel scratch (register file, selection vectors, order keys) is
// charged to the owning operator's memory slot: the ProjectMap's slot holds
// both fused programs' scratch on top of its output, while the fused
// FilterSelect — which does not materialize its output — charges less than
// the same filter run unfused as the plan root.
TEST(ExecProfileTest, BatchScratchChargesOwningOperator) {
  FunctionRegistry registry = BuiltinFunctions();
  AstContext ctx;
  AlgebraFactory factory(ctx);
  ExprFactory& e = factory.exprs();
  Database db;
  ASSERT_TRUE(db.AddRelation("R", 2).ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(db.Insert("R", {Value::Int(i), Value::Int(i % 97)}).ok());
  }
  Symbol plus = ctx.symbols().Intern("plus");
  const AlgExpr* filter = factory.Select(
      {{e.Col(1), AlgCompareOp::kLt, e.Col(0)}}, factory.Rel("R", 2));
  const AlgExpr* plan = factory.Project(
      {e.Apply(plus, std::vector<const ScalarExpr*>{e.Col(0), e.Col(1)})},
      filter);

  ExecOptions opts;
  opts.num_threads = 1;
  auto run = [&](const AlgExpr* p) {
    auto lowered = Lower(ctx, p, registry, opts);
    EXPECT_TRUE(lowered.ok());
    ExecProfile profile;
    auto result = lowered->ExecuteToRelation(db, &profile);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return profile;
  };

  ExecProfile unfused = run(filter);
  ExecProfile fused = run(plan);
  ASSERT_EQ(unfused.op, PhysOpKind::kFilterSelect);
  ASSERT_EQ(fused.op, PhysOpKind::kProjectMap);
  ASSERT_EQ(fused.children.size(), 1u);
  ASSERT_EQ(fused.children[0].op, PhysOpKind::kFilterSelect);
  // Both programs run inside the ProjectMap's frame, at 1024 rows per
  // batch: their scratch lands on its slot on top of the output buffer.
  auto lowered = Lower(ctx, plan, registry, opts);
  ASSERT_TRUE(lowered.ok());
  const PhysicalOp* project = lowered->root();
  const size_t scratch = project->program->ScratchBytes(1024, 1) +
                         project->left->cond_program->ScratchBytes(1024, 0);
  EXPECT_GT(fused.stats.bytes_allocated, scratch);
  EXPECT_GT(fused.stats.peak_bytes, 0);
  // The fused filter passes a selection vector instead of copying rows,
  // so its own slot charges strictly less than the materializing run.
  EXPECT_LT(fused.children[0].stats.bytes_allocated,
            unfused.stats.bytes_allocated);
  // Operator slots still attribute within the query total.
  EXPECT_LE(fused.stats.bytes_allocated + fused.children[0].stats.bytes_allocated,
            fused.total_bytes_allocated);
}

TEST(ExecProfileTest, JsonRoundTripIsExact) {
  FunctionRegistry registry = BuiltinFunctions();
  Database db = JoinInstance(2'000);
  AstContext ctx;
  AlgebraFactory factory(ctx);
  const AlgExpr* plan = JoinPlan(ctx, factory);
  auto lowered = Lower(ctx, plan, registry, ExecOptions{});
  ASSERT_TRUE(lowered.ok());
  ExecProfile profile;
  ASSERT_TRUE(lowered->ExecuteToRelation(db, &profile).ok());
  // Nonzero sort-work fields, whatever this run's sort happened to do.
  profile.stats.rows_sorted = 1'234'567;
  profile.stats.normalize_ns = 89'012'345;
  ASSERT_FALSE(profile.children.empty());
  profile.children[0].stats.rows_sorted = 7;
  profile.children[0].stats.normalize_ns = 11;

  std::string json = ExecProfileToJson(profile);
  auto parsed = ExecProfileFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  EXPECT_EQ(parsed->op, profile.op);
  EXPECT_EQ(parsed->children.size(), profile.children.size());
  EXPECT_EQ(parsed->stats.rows_sorted, 1'234'567u);
  EXPECT_EQ(parsed->stats.normalize_ns, 89'012'345u);
  ASSERT_FALSE(parsed->children.empty());
  EXPECT_EQ(parsed->children[0].stats.rows_sorted, 7u);
  EXPECT_EQ(parsed->children[0].stats.normalize_ns, 11u);
  EXPECT_EQ(parsed->stats.rows_out, profile.stats.rows_out);
  EXPECT_EQ(parsed->stats.peak_bytes, profile.stats.peak_bytes);
  EXPECT_EQ(parsed->total_peak_bytes, profile.total_peak_bytes);
  EXPECT_EQ(parsed->total_bytes_allocated, profile.total_bytes_allocated);
  // Byte-exact round trip: re-serializing reproduces the document.
  EXPECT_EQ(ExecProfileToJson(*parsed), json);
}

// Recursively sums the par_* contention fields over a profile tree.
void SumParFields(const ExecProfile& p, uint64_t* morsels, uint64_t* wall) {
  *morsels += p.stats.par_morsels;
  *wall += p.stats.par_wall_ns;
  for (const ExecProfile& c : p.children) SumParFields(c, morsels, wall);
}

TEST(ExecProfileTest, ParallelRegionsFillContentionTelemetry) {
  FunctionRegistry registry = BuiltinFunctions();
  Database db = JoinInstance(20'000);
  AstContext ctx;
  AlgebraFactory factory(ctx);
  const AlgExpr* plan = JoinPlan(ctx, factory);
  ExecOptions options;
  options.num_threads = 4;  // both inputs clear the parallel threshold
  auto lowered = Lower(ctx, plan, registry, options);
  ASSERT_TRUE(lowered.ok());
  ExecProfile profile;
  auto result = lowered->ExecuteToRelation(db, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  uint64_t morsels = 0;
  uint64_t wall = 0;
  SumParFields(profile, &morsels, &wall);
  EXPECT_GT(morsels, 0u);
  EXPECT_GT(wall, 0u);

  // The par_* fields survive the JSON round trip byte-exactly.
  std::string json = ExecProfileToJson(profile);
  auto parsed = ExecProfileFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(ExecProfileToJson(*parsed), json);
  EXPECT_EQ(parsed->stats.par_morsels, profile.stats.par_morsels);
  EXPECT_EQ(parsed->stats.par_workers, profile.stats.par_workers);
}

TEST(ExecProfileTest, ParallelSummaryAggregatesAndClampsEfficiency) {
  ExecProfile leaf;
  leaf.op = PhysOpKind::kFilterSelect;
  leaf.stats.par_wall_ns = 100;
  leaf.stats.par_busy_ns = 150;
  leaf.stats.par_morsels = 8;
  leaf.stats.par_workers = 2;

  ExecProfile inline_op;  // ran inline; must not dilute the summary
  inline_op.op = PhysOpKind::kScan;
  inline_op.stats.par_wall_ns = 500;
  inline_op.stats.par_workers = 1;

  ExecProfile root;
  root.op = PhysOpKind::kHashJoin;
  root.stats.par_wall_ns = 200;
  root.stats.par_busy_ns = 600;
  root.stats.par_morsels = 16;
  root.stats.par_workers = 4;
  root.children.push_back(leaf);
  root.children.push_back(inline_op);

  ParallelSummary par = SumParallel(root);
  EXPECT_EQ(par.morsels, 24u);
  EXPECT_EQ(par.max_workers, 4u);
  EXPECT_EQ(par.busy_ns, 750u);
  // weighted wall = 100*2 + 200*4; the inline op contributes nothing.
  EXPECT_EQ(par.weighted_wall_ns, 1000u);
  EXPECT_DOUBLE_EQ(par.Efficiency(), 0.75);

  // Busy exceeding the weighted wall (timer skew) clamps to 1.
  root.stats.par_busy_ns = 10'000;
  EXPECT_DOUBLE_EQ(SumParallel(root).Efficiency(), 1.0);

  EXPECT_DOUBLE_EQ(ParallelSummary{}.Efficiency(), 0.0);
}

// One sample per operator in DFS order, left input first, each under its
// path; Materialize nodes and shared-reference stubs contribute none.
TEST(RunFeedbackTest, OpsSkipMaterializeAndSharedStubs) {
  ExecProfile scan;
  scan.op = PhysOpKind::kScan;
  scan.detail = "R";
  scan.stats.rows_out = 500;
  scan.stats.rows_sorted = 7;

  ExecProfile memo;
  memo.op = PhysOpKind::kMaterialize;
  memo.stats.rows_out = 500;
  memo.children.push_back(scan);

  ExecProfile stub;
  stub.op = PhysOpKind::kMaterialize;
  stub.shared_ref = true;

  ExecProfile join;
  join.op = PhysOpKind::kHashJoin;
  join.detail = "keys=1";
  join.stats.rows_out = 1000;
  join.stats.normalize_ns = 40;
  join.children.push_back(memo);
  join.children.push_back(stub);

  obs::RunRecord run =
      BuildRunRecord(0, "", Status::Ok(), 1000, 0, 1, join);
  ASSERT_EQ(run.ops.size(), 2u);
  EXPECT_EQ(run.ops[0].path, "HashJoin");
  EXPECT_EQ(run.ops[0].op, "HashJoin(keys=1)");
  EXPECT_EQ(run.ops[0].actual_rows, 1000u);
  EXPECT_EQ(run.ops[0].normalize_ns, 40u);
  EXPECT_EQ(run.ops[1].path, "HashJoin/0:Materialize/0:Scan");
  EXPECT_EQ(run.ops[1].op, "Scan(R)");
  EXPECT_EQ(run.ops[1].actual_rows, 500u);
  EXPECT_EQ(run.ops[1].rows_sorted, 7u);
}

TEST(RunFeedbackTest, ExplainAnalyzeShowsMemory) {
  Compiler compiler;
  Database db;
  ASSERT_TRUE(LoadCsvText(db, "EDGE", "1,2\n2,3\n3,1\n").ok());
  auto q = compiler.Compile("{x | exists y (EDGE(x, y))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto report = q->ExplainAnalyze(db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("peak_bytes="), std::string::npos) << *report;
  EXPECT_NE(report->find("memory: peak "), std::string::npos) << *report;
  EXPECT_EQ(report->find(" est"), std::string::npos) << *report;
  EXPECT_EQ(report->find("feedback"), std::string::npos) << *report;
}

// ---- Query log integration ---------------------------------------------

// Installs a string-backed query log for the test's scope.
class ScopedQueryLog {
 public:
  ScopedQueryLog() : log_(&buffer_), saved_(obs::GetQueryLog()) {
    obs::SetQueryLog(&log_);
  }
  ~ScopedQueryLog() { obs::SetQueryLog(saved_); }

  std::vector<obs::QueryLogRecord> RunRecords() {
    std::vector<obs::QueryLogRecord> out;
    std::istringstream lines(buffer_.str());
    std::string line;
    while (std::getline(lines, line)) {
      auto record = obs::ParseQueryLogRecord(line);
      if (record.ok() && record->event == "run") {
        out.push_back(std::move(record).value());
      }
    }
    return out;
  }

 private:
  std::ostringstream buffer_;
  obs::QueryLog log_;
  obs::QueryLog* saved_;
};

TEST(QueryLogResourceTest, RunRecordsCarryMemoryAndAbortFields) {
  Compiler compiler;
  Database db;
  std::string csv;
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(LoadCsvText(db, "EDGE", csv).ok());
  auto q = compiler.Compile("{x | exists y (EDGE(x, y))}");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  ScopedQueryLog log;
  ASSERT_TRUE(q->Run(db).ok());
  setenv("EMCALC_MAX_QUERY_BYTES", "1", 1);
  auto aborted = q->Run(db);
  unsetenv("EMCALC_MAX_QUERY_BYTES");
  ASSERT_FALSE(aborted.ok());

  std::vector<obs::QueryLogRecord> runs = log.RunRecords();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_TRUE(runs[0].run.ok);
  EXPECT_GT(runs[0].run.peak_bytes, 0u);
  EXPECT_GT(runs[0].run.bytes_allocated, 0u);
  EXPECT_TRUE(runs[0].run.aborted_limit.empty());
  EXPECT_FALSE(runs[0].run.ops.empty());

  EXPECT_FALSE(runs[1].run.ok);
  EXPECT_EQ(runs[1].run.aborted_limit, "max_bytes");
}

}  // namespace
}  // namespace emcalc
