// Experiment E8 — flat tuple storage, value interning, and morsel
// parallelism (the physical-layer performance work, not a paper claim).
//
// The baseline ("legacy_layout") reconstructs the pre-flat representation
// exactly as the tree had it: Value = variant<int64_t, string> (40 bytes,
// content hashing and comparison) and one heap-allocated vector<Value> per
// tuple, with the bucket-map join EvalJoin used. Against it run the
// symmetric hand-rolled kernels over the interned flat layout
// ("flat_layout" — isolates the representation change) and the full
// physical operator stack at 1, 2, and hardware threads. Rows/sec per
// variant goes to BENCH_perf.json, along with the verifier's compile
// overhead and each reference query's sort work. The "normalize" series
// times the set-semantics sort itself: shuffled rows sorted and deduped in
// each layout, and a column-swapping projection whose output must sort.
// Its rows pack into one 64-bit word each; "normalize_unpacked" runs the
// same kernels on two columns of full-range ints, which do not, so it
// times the row sort that Normalize falls back to.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "bench/bench_util.h"
#include "src/algebra/ast.h"
#include "src/algebra/expr.h"
#include "src/base/thread_pool.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/core/compiler.h"
#include "src/core/workload.h"
#include "src/translate/pipeline.h"
#include "src/exec/join_table.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"
#include "src/storage/relation.h"
#include "src/verify/verify.h"

namespace {

using emcalc::AddRandomTuples;
using emcalc::AlgCompareOp;
using emcalc::AlgExpr;
using emcalc::AlgebraFactory;
using emcalc::AstContext;
using emcalc::Database;
using emcalc::ExecOptions;
using emcalc::ExprFactory;
using emcalc::FunctionRegistry;
using emcalc::Lower;
using emcalc::Relation;
using emcalc::TupleRef;
using emcalc::Value;

constexpr size_t kRows = 200'000;
constexpr int kValuePool = 50'000;

// Two data profiles per run: all-integer rows (the layout change alone) and
// rows where a quarter of the columns hold strings (every variant pays — or
// is spared — the string-representation cost too).
struct DataProfile {
  const char* name;
  double string_share;
};
constexpr DataProfile kProfiles[] = {{"ints", 0.0}, {"mixed", 0.25}};

Database MakeInstance(size_t rows, double string_share) {
  Database db;
  AddRandomTuples(db, "R", 2, rows, kValuePool, /*seed=*/11, string_share);
  AddRandomTuples(db, "S", 2, rows, kValuePool, /*seed=*/23, string_share);
  return db;
}

// ---- The pre-flat representation, verbatim from the seed tree ----------

// Old Value: variant ordering (ints before strings) and the old mix-or-
// string-content hash.
using OldValue = std::variant<int64_t, std::string>;
using OldTuple = std::vector<OldValue>;

size_t OldHash(const OldValue& v) {
  if (const int64_t* n = std::get_if<int64_t>(&v)) {
    uint64_t x = static_cast<uint64_t>(*n);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
  return std::hash<std::string>()(std::get<std::string>(v)) ^
         0x9e3779b97f4a7c15ULL;
}

struct OldRelation {
  int arity = 0;
  std::vector<OldTuple> rows;

  // The old Relation's lazy sort + dedupe, forced.
  size_t SizeNormalized() {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows.size();
  }
};

OldRelation ToOldLayout(const Relation& rel) {
  OldRelation out;
  out.arity = rel.arity();
  out.rows.reserve(rel.size());
  for (TupleRef t : rel) {
    OldTuple row;
    row.reserve(t.size());
    for (const Value& v : t) {
      if (v.is_int()) {
        row.emplace_back(v.AsInt());
      } else {
        row.emplace_back(std::string(v.AsStr()));
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

// The pre-flat hash join: bucket map keyed on the key value's hash with a
// per-row key materialization and per-output Tuple concatenation — the
// shape EvalJoin had before JoinTable over flat storage.
size_t OldLayoutJoin(const OldRelation& left, const OldRelation& right) {
  std::unordered_map<size_t, std::vector<const OldTuple*>> buckets;
  buckets.reserve(right.rows.size());
  for (const OldTuple& t : right.rows) {
    buckets[OldHash(t[0])].push_back(&t);
  }
  OldRelation out;
  out.arity = left.arity + right.arity;
  for (const OldTuple& t : left.rows) {
    auto it = buckets.find(OldHash(t[1]));
    if (it == buckets.end()) continue;
    for (const OldTuple* r : it->second) {
      if (!((*r)[0] == t[1])) continue;
      OldTuple joined = t;
      joined.insert(joined.end(), r->begin(), r->end());
      out.rows.push_back(std::move(joined));
    }
  }
  return out.SizeNormalized();
}

// The pre-flat filter: per-row variant comparison, full-row copies out.
size_t OldLayoutFilter(const OldRelation& in) {
  OldRelation out;
  out.arity = in.arity;
  for (const OldTuple& t : in.rows) {
    if (t[0] < t[1]) out.rows.push_back(t);
  }
  return out.SizeNormalized();
}

// The scalar-heavy projection shared by every project_map variant:
//   out0 = plus(mix(succ(c0), double(succ(c0))), abs(neg(half(c0))))
//   out1 = minus(max2(succ(c0), abs(neg(half(c0)))), min2(c0, c1))
// — fifteen applications per row with shared subtrees re-evaluated (as the
// hand kernels do), ten compiled ops per batch (succ/half/neg/abs CSE'd).
// The builtins' totality coercion maps strings to their length; the
// arithmetic below mirrors the builtin bodies exactly.
int64_t NumCoerce(const OldValue& v) {
  return std::holds_alternative<int64_t>(v)
             ? std::get<int64_t>(v)
             : static_cast<int64_t>(std::get<std::string>(v).size());
}

int64_t MixNum(int64_t a, int64_t b) {
  uint64_t x = static_cast<uint64_t>(a) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(b);
  x ^= x >> 29;
  return static_cast<int64_t>(x & 0x7fffffff);
}

int64_t ChainOut0(int64_t n) {
  int64_t s = n + 1;
  int64_t a = std::abs(-(n / 2));
  return MixNum(s, 2 * s) + a;
}

int64_t ChainOut1(int64_t n0, int64_t n1) {
  int64_t s = n0 + 1;
  int64_t a = std::abs(-(n0 / 2));
  return std::max(s, a) - std::min(n0, n1);
}

// The pre-flat scalar map: the scalar chain per row, fresh row per output.
size_t OldLayoutProject(const OldRelation& in) {
  OldRelation out;
  out.arity = in.arity;
  for (const OldTuple& t : in.rows) {
    int64_t n0 = NumCoerce(t[0]);
    out.rows.push_back(
        OldTuple{OldValue(ChainOut0(n0)),
                 OldValue(ChainOut1(n0, NumCoerce(t[1])))});
  }
  return out.SizeNormalized();
}

// The pre-flat filter-then-map chain: c0 < c1 survivors through the
// scalar chain (the FilterSelect→ProjectMap shape the batch kernels fuse).
size_t OldLayoutScalarChain(const OldRelation& in) {
  OldRelation out;
  out.arity = 1;
  for (const OldTuple& t : in.rows) {
    if (t[0] < t[1]) {
      out.rows.push_back(OldTuple{OldValue(ChainOut0(NumCoerce(t[0])))});
    }
  }
  return out.SizeNormalized();
}

// ---- Symmetric kernels over the interned flat layout -------------------
// Same algorithm class and per-row work as the Old* kernels, so this pair
// isolates the storage representation: 8-byte trivially-copyable values in
// one contiguous arity-strided array vs a heap vector of variants per row.

size_t FlatLayoutJoin(const Relation& left, const Relation& right) {
  size_t bn = right.size();
  std::vector<Value> keys(bn);
  std::vector<uint64_t> hashes(bn);
  std::vector<uint32_t> rows(bn);
  for (size_t i = 0; i < bn; ++i) {
    keys[i] = right.row(i)[0];
    hashes[i] = keys[i].Hash();
    rows[i] = static_cast<uint32_t>(i);
  }
  emcalc::JoinTable table;
  table.Build(keys.data(), hashes.data(), /*nk=*/1, rows.data(), bn);
  Relation out(left.arity() + right.arity());
  out.Reserve(left.size());
  Value row[4];
  for (TupleRef t : left) {
    Value key = t[1];
    table.ForEachMatch(key.Hash(), &key, [&](uint32_t r) {
      TupleRef b = right.row(r);
      row[0] = t[0];
      row[1] = t[1];
      row[2] = b[0];
      row[3] = b[1];
      out.AppendRow(row);
    });
  }
  return out.size();
}

size_t FlatLayoutFilter(const Relation& in) {
  Relation out(in.arity());
  for (TupleRef t : in) {
    if (t[0] < t[1]) out.AppendRow(t.data());
  }
  return out.size();
}

int64_t FlatNumCoerce(const Value& v) {
  return v.is_int() ? v.AsInt()
                    : static_cast<int64_t>(v.AsStr().size());
}

size_t FlatLayoutProject(const Relation& in) {
  Relation out(in.arity());
  Value row[2];
  for (TupleRef t : in) {
    int64_t n0 = FlatNumCoerce(t[0]);
    row[0] = Value::Int(ChainOut0(n0));
    row[1] = Value::Int(ChainOut1(n0, FlatNumCoerce(t[1])));
    out.AppendRow(row);
  }
  return out.size();
}

size_t FlatLayoutScalarChain(const Relation& in) {
  Relation out(1);
  Value row[1];
  for (TupleRef t : in) {
    if (!(t[0] < t[1])) continue;
    row[0] = Value::Int(ChainOut0(FlatNumCoerce(t[0])));
    out.AppendRow(row);
  }
  return out.size();
}

// ---- The full physical operator stack ----------------------------------

struct Plans {
  const AlgExpr* join = nullptr;
  const AlgExpr* filter = nullptr;
  const AlgExpr* project = nullptr;
  const AlgExpr* chain = nullptr;
  const AlgExpr* swap = nullptr;
  const AlgExpr* swap_unpacked = nullptr;
};

Plans MakePlans(AstContext& ctx, AlgebraFactory& factory) {
  ExprFactory e(ctx);
  Plans p;
  // R(a, b) |x|_{b = c} S(c, d)
  p.join = factory.Join({{e.Col(1), AlgCompareOp::kEq, e.Col(2)}},
                        factory.Rel("R", 2), factory.Rel("S", 2));
  p.filter = factory.Select({{e.Col(0), AlgCompareOp::kLt, e.Col(1)}},
                            factory.Rel("R", 2));
  auto apply1 = [&](const char* fn, const emcalc::ScalarExpr* a) {
    const emcalc::ScalarExpr* args[] = {a};
    return e.Apply(ctx.symbols().Intern(fn), args);
  };
  auto apply2 = [&](const char* fn, const emcalc::ScalarExpr* a,
                    const emcalc::ScalarExpr* b) {
    const emcalc::ScalarExpr* args[] = {a, b};
    return e.Apply(ctx.symbols().Intern(fn), args);
  };
  // The shared subtrees (succ(c0), abs(neg(half(c0)))) are CSE'd by the
  // compiled batch program; ChainOut0/ChainOut1 in the hand kernels above
  // compute the same columns.
  const emcalc::ScalarExpr* s = apply1("succ", e.Col(0));
  const emcalc::ScalarExpr* a = apply1("abs", apply1("neg", apply1("half", e.Col(0))));
  const emcalc::ScalarExpr* out0 =
      apply2("plus", apply2("mix", s, apply1("double", s)), a);
  const emcalc::ScalarExpr* out1 =
      apply2("minus", apply2("max2", s, a), apply2("min2", e.Col(0), e.Col(1)));
  p.project = factory.Project({out0, out1}, factory.Rel("R", 2));
  p.chain = factory.Project(
      {out0}, factory.Select({{e.Col(0), AlgCompareOp::kLt, e.Col(1)}},
                             factory.Rel("R", 2)));
  // R(a, b) -> (b, a): R is sorted on a, so the output arrives out of
  // order and the operator's final normalize really sorts.
  p.swap = factory.Project({e.Col(1), e.Col(0)}, factory.Rel("R", 2));
  p.swap_unpacked =
      factory.Project({e.Col(1), e.Col(0)}, factory.Rel("W", 2));
  return p;
}

// Best-of-reps wall time of one flat execution at `threads` workers.
uint64_t FlatWallNs(const AstContext& ctx, const AlgExpr* plan,
                    const Database& db, const FunctionRegistry& registry,
                    size_t threads, size_t* out_rows, int reps = 3) {
  ExecOptions options;
  options.num_threads = threads;
  auto physical = Lower(ctx, plan, registry, options);
  if (!physical.ok()) return 0;
  uint64_t best = UINT64_MAX;
  for (int i = 0; i < reps; ++i) {
    uint64_t start = emcalc::obs::NowNs();
    auto r = physical->ExecuteToRelation(db);
    uint64_t wall = emcalc::obs::NowNs() - start;
    if (!r.ok()) return 0;
    *out_rows = r->size();
    if (wall < best) best = wall;
  }
  return best;
}

template <typename Fn>
uint64_t KernelWallNs(Fn&& fn, size_t* out_rows, int reps = 3) {
  uint64_t best = UINT64_MAX;
  for (int i = 0; i < reps; ++i) {
    uint64_t start = emcalc::obs::NowNs();
    *out_rows = fn();
    uint64_t wall = emcalc::obs::NowNs() - start;
    if (wall < best) best = wall;
  }
  return best;
}

void EmitRecord(const char* data, const char* op, const char* variant,
                size_t threads, size_t rows_in, size_t rows_out,
                uint64_t wall_ns) {
  double rows_per_sec =
      wall_ns > 0 ? static_cast<double>(rows_in) * 1e9 /
                        static_cast<double>(wall_ns)
                  : 0.0;
  std::string fields = "\"bench\":\"flat_exec\"";
  fields += ",\"data\":\"" + std::string(data) + "\"";
  fields += ",\"op\":\"" + std::string(op) + "\"";
  fields += ",\"variant\":\"" + std::string(variant) + "\"";
  fields += ",\"threads\":" + std::to_string(threads);
  fields += ",\"rows_in\":" + std::to_string(rows_in);
  fields += ",\"rows_out\":" + std::to_string(rows_out);
  fields += ",\"wall_ns\":" + std::to_string(wall_ns);
  fields += ",\"rows_per_sec\":" + std::to_string(rows_per_sec);
  emcalc::bench::AppendRecordLine("BENCH_perf.json", fields);
}

void ReportProfile(const DataProfile& profile) {
  FunctionRegistry registry = emcalc::BuiltinFunctions();
  Database db = MakeInstance(kRows, profile.string_share);
  const Relation& flat_r = *db.Find("R");
  const Relation& flat_s = *db.Find("S");
  OldRelation old_r = ToOldLayout(flat_r);
  OldRelation old_s = ToOldLayout(flat_s);
  size_t rows_in = old_r.rows.size() + old_s.rows.size();
  // W(a, b): ints drawn from the whole inline range [-2^62, 2^62), so a
  // row's two order keys need 126 bits and cannot pack into one word.
  std::mt19937_64 wide_rng(31);
  std::uniform_int_distribution<int64_t> wide(-(int64_t{1} << 62),
                                              (int64_t{1} << 62) - 1);
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t a = wide(wide_rng);
    const int64_t b = wide(wide_rng);
    if (!db.Insert("W", {Value::Int(a), Value::Int(b)}).ok()) {
      std::printf("  !! cannot fill W\n");
      return;
    }
  }
  const Relation& flat_w = *db.Find("W");
  // A relation's rows in one fixed shuffled order, in both layouts, for
  // the normalize kernels. Each rep sorts a fresh copy, and the copy is
  // timed too: one vector copy for the flat layout, a heap row per tuple
  // for the variant layout.
  auto shuffled = [](const Relation& flat, const OldRelation& old,
                     OldRelation& old_out, Relation& flat_out) {
    std::vector<size_t> perm(old.rows.size());
    std::iota(perm.begin(), perm.end(), size_t{0});
    std::shuffle(perm.begin(), perm.end(), std::mt19937(5));
    old_out.arity = old.arity;
    for (size_t i : perm) {
      old_out.rows.push_back(old.rows[i]);
      flat_out.AppendRow(flat.row(i).data());
    }
  };
  OldRelation old_shuffled;
  Relation flat_shuffled(flat_r.arity());
  shuffled(flat_r, old_r, old_shuffled, flat_shuffled);
  OldRelation old_w = ToOldLayout(flat_w);
  OldRelation old_w_shuffled;
  Relation flat_w_shuffled(flat_w.arity());
  shuffled(flat_w, old_w, old_w_shuffled, flat_w_shuffled);

  AstContext ctx;
  AlgebraFactory factory(ctx);
  Plans plans = MakePlans(ctx, factory);

  const size_t hw = emcalc::ThreadPool::HardwareThreads();
  struct Series {
    const char* op;
    const AlgExpr* plan;
    std::function<size_t()> old_kernel;
    std::function<size_t()> flat_kernel;
    size_t rows_in = 0;
    size_t old_rows = 0;
    uint64_t old_ns = 0;
    size_t flat_rows = 0;
    uint64_t flat_ns = 0;
  };
  Series series[] = {
      {"hash_join", plans.join, [&] { return OldLayoutJoin(old_r, old_s); },
       [&] { return FlatLayoutJoin(flat_r, flat_s); }, rows_in},
      {"filter_select", plans.filter, [&] { return OldLayoutFilter(old_r); },
       [&] { return FlatLayoutFilter(flat_r); }, old_r.rows.size()},
      {"project_map", plans.project, [&] { return OldLayoutProject(old_r); },
       [&] { return FlatLayoutProject(flat_r); }, old_r.rows.size()},
      {"scalar_chain", plans.chain,
       [&] { return OldLayoutScalarChain(old_r); },
       [&] { return FlatLayoutScalarChain(flat_r); }, old_r.rows.size()},
      {"normalize", plans.swap,
       [&] {
         OldRelation rows = old_shuffled;
         return rows.SizeNormalized();
       },
       [&] {
         // flat_shuffled itself is never read: a read would normalize it.
         Relation rows = flat_shuffled;
         rows.Normalize();
         return rows.size();
       },
       old_r.rows.size()},
      {"normalize_unpacked", plans.swap_unpacked,
       [&] {
         OldRelation rows = old_w_shuffled;
         return rows.SizeNormalized();
       },
       [&] {
         Relation rows = flat_w_shuffled;
         rows.Normalize();
         return rows.size();
       },
       old_w.rows.size()},
  };
  for (Series& s : series) {
    // The kernels mutate their output only; inputs stay shared.
    s.old_ns = KernelWallNs(s.old_kernel, &s.old_rows);
    s.flat_ns = KernelWallNs(s.flat_kernel, &s.flat_rows);
  }

  std::printf("[%s] %zu+%zu input rows, %d%% string columns, hardware=%zu\n\n",
              profile.name, old_r.rows.size(), old_s.rows.size(),
              static_cast<int>(profile.string_share * 100), hw);
  std::printf("%-14s %-14s %10s %12s %9s\n", "operator", "variant",
              "wall ms", "rows/sec", "speedup");
  for (const Series& s : series) {
    const size_t op_rows_in = s.rows_in;
    EmitRecord(profile.name, s.op, "legacy_layout", 1, op_rows_in, s.old_rows, s.old_ns);
    std::printf("%-14s %-14s %10.2f %12.0f %9s\n", s.op, "legacy_layout",
                static_cast<double>(s.old_ns) / 1e6,
                static_cast<double>(op_rows_in) * 1e9 /
                    static_cast<double>(s.old_ns),
                "1.00x");
    EmitRecord(profile.name, s.op, "flat_layout", 1, op_rows_in, s.flat_rows, s.flat_ns);
    std::printf("%-14s %-14s %10.2f %12.0f %8.2fx\n", s.op, "flat_layout",
                static_cast<double>(s.flat_ns) / 1e6,
                static_cast<double>(op_rows_in) * 1e9 /
                    static_cast<double>(s.flat_ns),
                static_cast<double>(s.old_ns) /
                    static_cast<double>(s.flat_ns));
    if (s.flat_rows != s.old_rows) {
      std::printf("  !! output mismatch: flat_layout=%zu legacy=%zu\n",
                  s.flat_rows, s.old_rows);
    }
    struct Variant {
      const char* name;
      size_t threads;
    };
    const Variant variants[] = {{"flat_t1", 1}, {"flat_t2", 2}, {"flat_hw", hw}};
    uint64_t t1_ns = 0;
    for (const Variant& v : variants) {
      size_t out_rows = 0;
      uint64_t ns = FlatWallNs(ctx, s.plan, db, registry, v.threads, &out_rows);
      if (v.threads == 1) t1_ns = ns;
      EmitRecord(profile.name, s.op, v.name, v.threads, op_rows_in, out_rows, ns);
      double speedup = ns > 0 ? static_cast<double>(s.old_ns) /
                                    static_cast<double>(ns)
                              : 0.0;
      std::printf("%-14s %-14s %10.2f %12.0f %8.2fx\n", s.op, v.name,
                  static_cast<double>(ns) / 1e6,
                  static_cast<double>(op_rows_in) * 1e9 /
                      static_cast<double>(ns),
                  speedup);
      if (out_rows != s.old_rows) {
        std::printf("  !! output mismatch: %s=%zu legacy=%zu\n", v.name,
                    out_rows, s.old_rows);
      }
      if (v.threads == 2 && t1_ns > 0 && ns > 0) {
        std::printf("%-14s %-14s %33.2fx vs flat_t1\n", "", "",
                    static_cast<double>(t1_ns) / static_cast<double>(ns));
      }
    }
    std::printf("\n");
  }
}

// ---- Stage-boundary verification overhead ------------------------------
// Measures what the five stage verifiers add to the compile phase over a
// mixed corpus: five hand-written small queries plus generated
// exists-chain queries of growing width. Compile cost grows superlinearly
// with chain width while verification stays linear in plan size, so the
// mix spans the overhead's worst case (microsecond-scale compiles) and
// its steady state (plans whose compilation dwarfs any linear pass).
//
// The verifier cost is measured directly — min-of-reps wall of the five
// stage entry points on prebuilt artifacts — and judged against the same
// run's verify-off compile wall. On/off deltas of whole compiles sit
// below the timer noise floor on shared single-core runners (repeat runs
// swing several percent either way); the direct stage measurement is
// stable run to run. Self-judging: pass = time-weighted overhead below
// 2% of compile wall with every stage report clean. Per-class
// percentages are printed and recorded so the aggregate can't hide the
// small-query worst case. The record carries bench:"verify_overhead",
// which the flat_exec ratio gate in check_perf_regression.py ignores;
// the pass flag is gated separately.
void ReportVerifyOverhead() {
  struct Entry {
    std::string text;
    bool small;
    int compile_iters;
    int verify_iters;
  };
  std::vector<Entry> corpus;
  for (const char* text : {
           "{x | exists y (R(x, y))}",
           "{x, y | R(x, y) and x < y}",
           "{x, y | R(x, y) and not S(x, y)}",
           "{x, w | exists y (R(x, y) and exists z (S(y, z) and "
           "w = succ(z)))}",
           "{x, y | R(x, y) or S(x, y)}",
       }) {
    corpus.push_back({text, /*small=*/true, /*compile_iters=*/40,
                      /*verify_iters=*/400});
  }
  for (int k : {16, 32, 48}) {
    std::string open, close;
    for (int i = 1; i <= k; ++i) {
      open += "exists x" + std::to_string(i) + " (";
      close += ")";
    }
    std::string text = "{x0, v | " + open + "R(x0, x1)";
    for (int i = 1; i < k; ++i) {
      text += " and R(x" + std::to_string(i) + ", x" +
              std::to_string(i + 1) + ")";
    }
    text += " and v = succ(x" + std::to_string(k) + ")" + close + "}";
    corpus.push_back({std::move(text), /*small=*/false,
                      /*compile_iters=*/std::max(2, 160 / k),
                      /*verify_iters=*/1600 / k});
  }

  constexpr int kReps = 5;
  auto min_reps_ns = [&](int iters, auto&& body) {
    uint64_t best = UINT64_MAX;
    for (int rep = 0; rep < kReps; ++rep) {
      uint64_t start = emcalc::obs::NowNs();
      for (int i = 0; i < iters; ++i) body();
      uint64_t wall = emcalc::obs::NowNs() - start;
      if (wall < best) best = wall;
    }
    return static_cast<double>(best) / iters;
  };

  emcalc::FunctionRegistry registry = emcalc::BuiltinFunctions();
  double off_small = 0, off_chain = 0;
  double stages_small = 0, stages_chain = 0;
  bool clean = true;
  for (const Entry& e : corpus) {
    emcalc::AstContext ctx;
    auto q = emcalc::ParseQuery(ctx, e.text);
    if (!q.ok()) {
      std::printf("  !! verify_overhead parse failed: %s\n",
                  std::string(q.status().message()).c_str());
      return;
    }
    auto t = emcalc::TranslateQuery(ctx, *q);
    if (!t.ok()) {
      std::printf("  !! verify_overhead translate failed: %s\n",
                  std::string(t.status().message()).c_str());
      return;
    }
    auto p = emcalc::Lower(ctx, t->plan, registry);
    if (!p.ok()) {
      std::printf("  !! verify_overhead lower failed: %s\n",
                  std::string(p.status().message()).c_str());
      return;
    }

    emcalc::verify::ForceEnabled(0);
    double off = min_reps_ns(e.compile_iters, [&] {
      emcalc::Compiler compiler;
      auto cq = compiler.Compile(e.text);
      if (!cq.ok()) clean = false;
      benchmark::DoNotOptimize(cq);
    });
    emcalc::verify::ForceEnabled(1);
    int arity = static_cast<int>(q->head.size());
    double stages = min_reps_ns(e.verify_iters, [&] {
      auto r1 = emcalc::verify::VerifyCalculus(ctx, *q,
                                               /*require_spans=*/true);
      auto r2 = emcalc::verify::VerifySafetyFormula(
          ctx, t->enf, emcalc::FreeVars(q->body));
      emcalc::verify::AlgebraOptions o3;
      o3.expected_arity = arity;
      auto r3 = emcalc::verify::VerifyRanfAlgebra(
          ctx, t->ranf, emcalc::SymbolSet{}, emcalc::SymbolSet{},
          t->raw_plan, o3);
      emcalc::verify::AlgebraOptions o4;
      o4.stage = emcalc::verify::Stage::kOptimizedAlgebra;
      o4.expected_arity = arity;
      auto r4 = emcalc::verify::VerifyAlgebra(ctx, t->plan, o4);
      auto r5 = emcalc::verify::VerifyPhysical(*p, t->plan);
      clean = clean && r1.ok() && r2.ok() && r3.ok() && r4.ok() && r5.ok();
    });
    emcalc::verify::ForceEnabled(-1);
    (e.small ? off_small : off_chain) += off;
    (e.small ? stages_small : stages_chain) += stages;
  }

  double off_total = off_small + off_chain;
  double stages_total = stages_small + stages_chain;
  double overhead_pct = stages_total * 100.0 / off_total;
  double small_pct = stages_small * 100.0 / off_small;
  double chain_pct = stages_chain * 100.0 / off_chain;
  bool pass = clean && overhead_pct < 2.0;
  std::printf(
      "\nverify_overhead: %zu queries, compile(off)=%.2fms stages=%.0fus\n"
      "  small (5 queries) %.2f%%  chains k=16/32/48 %.2f%%\n"
      "  time-weighted overhead=%.3f%%  %s (budget <2%%%s)\n",
      corpus.size(), off_total / 1e6, stages_total / 1e3, small_pct,
      chain_pct, overhead_pct, pass ? "ok" : "FAIL",
      clean ? "" : "; a stage reported violations on a valid query");
  std::string fields = "\"bench\":\"verify_overhead\"";
  fields += ",\"compiles\":" + std::to_string(corpus.size());
  fields += ",\"off_ns\":" + std::to_string(static_cast<uint64_t>(off_total));
  fields += ",\"stages_ns\":" +
            std::to_string(static_cast<uint64_t>(stages_total));
  fields += ",\"overhead_pct\":" + std::to_string(overhead_pct);
  fields += ",\"small_pct\":" + std::to_string(small_pct);
  fields += ",\"chain_pct\":" + std::to_string(chain_pct);
  fields += std::string(",\"pass\":") + (pass ? "true" : "false");
  emcalc::bench::AppendRecordLine("BENCH_perf.json", fields);
}

// ---- Sort work -----------------------------------------------------------
// Rows the operators' final normalizes actually sorted
// (OpStats::rows_sorted, summed over the profile), per query: the paper
// corpus q1-q6 (q3 names a discussion, not a query) over seeded random
// instances, and E9's payroll queries at 10^4 employees. A count, not a
// time, so it is deterministic on any host; check_perf_regression.py fails
// when a query's rows_sorted exceeds its bench/baseline_perf.json record.
void SumSortWork(const emcalc::ExecProfile& p, uint64_t* rows_sorted,
                 uint64_t* normalize_ns) {
  *rows_sorted += p.stats.rows_sorted;
  *normalize_ns += p.stats.normalize_ns;
  for (const emcalc::ExecProfile& c : p.children) {
    SumSortWork(c, rows_sorted, normalize_ns);
  }
}

void ReportSortWork() {
  struct Query {
    const char* name;
    const char* text;
    std::vector<std::pair<const char*, int>> schema;  // empty: payroll
  };
  const Query queries[] = {
      {"q1", "{y | exists x (R(x) and y = g(f(x)))}", {{"R", 1}}},
      {"q2", "{x | R(x) and exists y (f(x) = y and not R(y))}", {{"R", 1}}},
      {"q4",
       "{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
       "((h(x) != y and k(x) != y) or P(x, y)))}",
       {{"B", 1}, {"R", 2}, {"P", 2}}},
      {"q5", "{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
       {{"R", 1}, {"S", 1}}},
      {"q6", "{x, y, z | R(x, y, z) and not S(y, z)}", {{"R", 3}, {"S", 2}}},
      {"net_pay", "{e, n | exists d, s (EMP(e, d, s) and n = net10(s))}", {}},
      {"no_bonus",
       "{e | exists d, s (EMP(e, d, s) and not exists b (BONUS(e, b)))}",
       {}},
  };
  FunctionRegistry registry = emcalc::BuiltinFunctions();
  // Not monotone, so some outputs arrive out of order and really sort.
  auto mod_fn = [&](const char* name, int64_t mul, int64_t add) {
    registry.Register(name, 1, [mul, add](std::span<const Value> a) {
      return Value::Int(((a[0].is_int() ? a[0].AsInt() : 0) * mul + add) %
                        101);
    });
  };
  mod_fn("f", 1, 1);
  mod_fn("g", 2, 0);
  mod_fn("h", 3, 2);
  mod_fn("k", 1, 4);
  registry.Register("net10", 1, [](std::span<const Value> a) {
    return Value::Int((a[0].is_int() ? a[0].AsInt() : 0) * 9 / 10);
  });
  ExecOptions options;
  options.num_threads = 1;
  auto run = [&](const char* text, const Database& db,
                 emcalc::ExecProfile* profile) -> emcalc::StatusOr<Relation> {
    AstContext ctx;
    auto parsed = emcalc::ParseQuery(ctx, text);
    if (!parsed.ok()) return parsed.status();
    auto t = emcalc::TranslateQuery(ctx, *parsed);
    if (!t.ok()) return t.status();
    auto physical = Lower(ctx, t->plan, registry, options);
    if (!physical.ok()) return physical.status();
    return physical->ExecuteToRelation(db, profile);
  };

  std::printf("\nsort work (rows sorted by final normalizes):\n");
  std::printf("%-10s %10s %10s %12s\n", "query", "rows_out", "sorted",
              "normalize_ms");
  for (const Query& q : queries) {
    Database db;
    if (q.schema.empty()) {
      db = emcalc::MakePayrollInstance(10'000, 8, 3);
    } else {
      uint64_t seed = 11;
      for (const auto& [name, arity] : q.schema) {
        AddRandomTuples(db, name, arity, /*rows=*/2'000, /*value_pool=*/1'000,
                        seed++);
      }
    }
    emcalc::ExecProfile profile;
    auto r = run(q.text, db, &profile);
    if (!r.ok()) {
      std::printf("  !! sort_work %s failed: %s\n", q.name,
                  r.status().ToString().c_str());
      continue;
    }
    uint64_t sorted = 0;
    uint64_t normalize_ns = 0;
    SumSortWork(profile, &sorted, &normalize_ns);
    std::printf("%-10s %10zu %10llu %12.3f\n", q.name, r->size(),
                static_cast<unsigned long long>(sorted),
                static_cast<double>(normalize_ns) / 1e6);
    std::string fields = "\"bench\":\"sort_work\"";
    fields += ",\"query\":\"" + std::string(q.name) + "\"";
    fields += ",\"rows_out\":" + std::to_string(r->size());
    fields += ",\"rows_sorted\":" + std::to_string(sorted);
    fields += ",\"normalize_ns\":" + std::to_string(normalize_ns);
    emcalc::bench::AppendRecordLine("BENCH_perf.json", fields);
  }
}

void Report() {
  emcalc::bench::Banner(
      "E8: flat tuple storage, interning, and morsel parallelism",
      "interned 8-byte values + contiguous tuple storage beat the "
      "variant<int64,string> vector<Tuple> layout well past 3x on "
      "join-heavy work single-threaded; the partitioned join scales past "
      "1.5x at 2 threads (needs >1 hardware thread to show)");
  for (const DataProfile& profile : kProfiles) {
    ReportProfile(profile);
  }
  ReportVerifyOverhead();
  ReportSortWork();
}

void BM_FlatJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  size_t threads = static_cast<size_t>(state.range(1));
  FunctionRegistry registry = emcalc::BuiltinFunctions();
  Database db = MakeInstance(rows, /*string_share=*/0.25);
  AstContext ctx;
  AlgebraFactory factory(ctx);
  Plans plans = MakePlans(ctx, factory);
  ExecOptions options;
  options.num_threads = threads;
  auto physical = Lower(ctx, plans.join, registry, options);
  if (!physical.ok()) {
    state.SkipWithError("lower");
    return;
  }
  for (auto _ : state) {
    auto r = physical->ExecuteToRelation(db);
    if (!r.ok()) {
      state.SkipWithError("exec");
      return;
    }
    benchmark::DoNotOptimize(r->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(2 * rows) *
                          state.iterations());
}
BENCHMARK(BM_FlatJoin)
    ->Args({50'000, 1})
    ->Args({50'000, 2})
    ->Args({200'000, 1})
    ->Args({200'000, 2})
    ->Args({200'000, 0});

void BM_LegacyLayoutJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Database db = MakeInstance(rows, /*string_share=*/0.25);
  OldRelation r = ToOldLayout(*db.Find("R"));
  OldRelation s = ToOldLayout(*db.Find("S"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OldLayoutJoin(r, s));
  }
  state.SetItemsProcessed(static_cast<int64_t>(2 * rows) *
                          state.iterations());
}
BENCHMARK(BM_LegacyLayoutJoin)->Arg(50'000)->Arg(200'000);

}  // namespace

EMCALC_BENCH_MAIN(Report)
