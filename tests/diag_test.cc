// Tests for the diagnostics engine: source spans through the parser and
// the rewrites, located parse errors, the safety blame trace (golden
// renderings for the paper's Section-1 unsafe examples), the lint rules,
// the Compiler::Analyze golden file, the query-log diagnostics attachment,
// and the JSON round-trip.
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"
#include "src/core/compiler.h"
#include "src/core/random_query.h"
#include "src/diag/blame.h"
#include "src/diag/diagnostic.h"
#include "src/diag/lint.h"
#include "src/diag/source.h"
#include "src/finds/find_set.h"
#include "src/obs/json.h"
#include "src/obs/query_log.h"
#include "src/safety/em_allowed.h"
#include "src/translate/enf.h"

namespace emcalc {
namespace {

using diag::Diagnostic;
using diag::Severity;
using diag::SourceSpan;

// --- source positions ---

TEST(SourceTest, ResolveLineCol) {
  std::string_view src = "ab\ncde\nf";
  EXPECT_EQ(diag::ResolveLineCol(src, 0).line, 1);
  EXPECT_EQ(diag::ResolveLineCol(src, 0).column, 1);
  EXPECT_EQ(diag::ResolveLineCol(src, 3).line, 2);
  EXPECT_EQ(diag::ResolveLineCol(src, 3).column, 1);
  EXPECT_EQ(diag::ResolveLineCol(src, 5).line, 2);
  EXPECT_EQ(diag::ResolveLineCol(src, 5).column, 3);
  EXPECT_EQ(diag::ResolveLineCol(src, 7).line, 3);
  // Past-the-end clamps.
  EXPECT_EQ(diag::ResolveLineCol(src, 99).line, 3);
}

TEST(SourceTest, CaretSnippetUnderlinesSpan) {
  std::string snip = diag::CaretSnippet("{x | not R(x)}", {5, 13});
  EXPECT_EQ(snip,
            "  | {x | not R(x)}\n"
            "  |      ^~~~~~~~\n");
}

// --- parser spans ---

class SpanTest : public ::testing::Test {
 protected:
  const SourceSpan* SpanOfBody(std::string_view text) {
    auto q = ParseQuery(ctx_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    body_ = q->body;
    return ctx_.SpanOf(q->body);
  }
  AstContext ctx_;
  const Formula* body_ = nullptr;
};

TEST_F(SpanTest, BodySpanCoversSourceText) {
  std::string text = "{x | not R(x)}";
  const SourceSpan* span = SpanOfBody(text);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(text.substr(span->begin, span->end - span->begin), "not R(x)");
}

TEST_F(SpanTest, AtomAndQuantifierSpans) {
  std::string text = "{x | R(x) and exists y (S(x, y))}";
  const SourceSpan* span = SpanOfBody(text);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(text.substr(span->begin, span->end - span->begin),
            "R(x) and exists y (S(x, y))");
  ASSERT_EQ(body_->kind(), FormulaKind::kAnd);
  const SourceSpan* left = ctx_.SpanOf(body_->children()[0]);
  const SourceSpan* right = ctx_.SpanOf(body_->children()[1]);
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(text.substr(left->begin, left->end - left->begin), "R(x)");
  EXPECT_EQ(text.substr(right->begin, right->end - right->begin),
            "exists y (S(x, y))");
}

TEST_F(SpanTest, SharedSingletonsNeverGetSpans) {
  auto q = ParseQuery(ctx_, "{x | R(x) and true}");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(ctx_.SpanOf(ctx_.True()), nullptr);
  EXPECT_EQ(ctx_.SpanOf(ctx_.False()), nullptr);
}

TEST_F(SpanTest, TermSpansCoverApplications) {
  std::string text = "{x | R(x) and S(f(x), 3)}";
  SpanOfBody(text);
  ASSERT_EQ(body_->kind(), FormulaKind::kAnd);
  const Formula* atom = body_->children()[1];
  ASSERT_EQ(atom->kind(), FormulaKind::kRel);
  const SourceSpan* fx = ctx_.SpanOf(atom->terms()[0]);
  const SourceSpan* x = ctx_.SpanOf(atom->terms()[0]->args()[0]);
  const SourceSpan* three = ctx_.SpanOf(atom->terms()[1]);
  ASSERT_NE(fx, nullptr);
  ASSERT_NE(x, nullptr);
  ASSERT_NE(three, nullptr);
  EXPECT_EQ(text.substr(fx->begin, fx->size()), "f(x)");
  EXPECT_EQ(text.substr(x->begin, x->size()), "x");
  EXPECT_EQ(text.substr(three->begin, three->size()), "3");
}

TEST_F(SpanTest, NoteOverwritesInheritKeeps) {
  const Formula* a = ctx_.MakeRel(ctx_.symbols().Intern("A"), {});
  const Formula* b = ctx_.MakeRel(ctx_.symbols().Intern("B"), {});
  const Formula* c = ctx_.MakeRel(ctx_.symbols().Intern("C"), {});
  EXPECT_EQ(ctx_.SpanOf(a), nullptr);
  ctx_.NoteSpan(a, SourceSpan{1, 2});
  ctx_.NoteSpan(a, SourceSpan{3, 4});
  ctx_.NoteSpan(b, SourceSpan{5, 6});
  ASSERT_NE(ctx_.SpanOf(a), nullptr);
  EXPECT_EQ(*ctx_.SpanOf(a), (SourceSpan{3, 4}));
  // `a` already has a span: inheriting keeps it.
  ctx_.InheritSpan(a, b);
  EXPECT_EQ(*ctx_.SpanOf(a), (SourceSpan{3, 4}));
  // `c` has none: it takes `b`'s; a spanless source changes nothing.
  ctx_.InheritSpan(c, b);
  ASSERT_NE(ctx_.SpanOf(c), nullptr);
  EXPECT_EQ(*ctx_.SpanOf(c), (SourceSpan{5, 6}));
  const Term* t = ctx_.MakeVar("t");
  const Term* u = ctx_.MakeVar("u");
  ctx_.InheritSpan(t, u);
  EXPECT_EQ(ctx_.SpanOf(t), nullptr);
  ctx_.NoteSpan(u, SourceSpan{7, 8});
  ctx_.InheritSpan(t, u);
  ASSERT_NE(ctx_.SpanOf(t), nullptr);
  EXPECT_EQ(*ctx_.SpanOf(t), (SourceSpan{7, 8}));
  // The shared singletons never take a span.
  ctx_.NoteSpan(ctx_.True(), SourceSpan{1, 2});
  ctx_.InheritSpan(ctx_.False(), b);
  EXPECT_EQ(ctx_.SpanOf(ctx_.True()), nullptr);
  EXPECT_EQ(ctx_.SpanOf(ctx_.False()), nullptr);
}

// Every relation atom left after Rectify and ToEnf still points at its own
// text in the query.
void CollectRelAtoms(const Formula* f, std::vector<const Formula*>* out) {
  if (f->is(FormulaKind::kRel)) out->push_back(f);
  for (const Formula* c : f->children()) CollectRelAtoms(c, out);
}

TEST_F(SpanTest, AtomSpansSurviveRectifyAndEnf) {
  std::string text =
      "{x | R(x) and exists y (S(x, y)) and "
      "forall y (not T(x, y) or exists x (S(y, x)))}";
  SpanOfBody(text);
  const Formula* rectified = Rectify(ctx_, body_);
  ASSERT_NE(rectified, body_);  // the inner x and the second y are renamed
  const Formula* enf = ToEnf(ctx_, rectified);
  for (const Formula* f : {rectified, enf}) {
    std::vector<const Formula*> atoms;
    CollectRelAtoms(f, &atoms);
    ASSERT_EQ(atoms.size(), 4u);
    for (const Formula* atom : atoms) {
      const SourceSpan* span = ctx_.SpanOf(atom);
      ASSERT_NE(span, nullptr) << FormulaToString(ctx_, atom);
      std::string name(ctx_.symbols().Name(atom->rel()));
      EXPECT_EQ(text.substr(span->begin, name.size() + 1), name + "(")
          << FormulaToString(ctx_, atom);
    }
  }
}

// ENF replaces the forall and the negations it pushes with new nodes; each
// inherits the span of the node it rewrites, so every ENF node (bar the
// shared True/False singletons) points into the query text.
TEST_F(SpanTest, EveryEnfNodeHasASpanInsideTheQuery) {
  std::string text = "{x | R(x) and forall y (not S(x, y) or T(y))}";
  SpanOfBody(text);
  const Formula* enf = ToEnf(ctx_, Rectify(ctx_, body_));
  int nodes = 0;
  std::vector<const Formula*> stack{enf};
  while (!stack.empty()) {
    const Formula* f = stack.back();
    stack.pop_back();
    switch (f->kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        continue;
      case FormulaKind::kNot:
      case FormulaKind::kExists:
      case FormulaKind::kForall:
        stack.push_back(f->child());
        break;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        stack.insert(stack.end(), f->children().begin(), f->children().end());
        break;
      default:
        break;
    }
    ++nodes;
    const SourceSpan* span = ctx_.SpanOf(f);
    ASSERT_NE(span, nullptr) << FormulaToString(ctx_, f) << " in "
                             << FormulaToString(ctx_, enf);
    EXPECT_LT(span->begin, span->end) << FormulaToString(ctx_, f);
    EXPECT_LE(span->end, text.size()) << FormulaToString(ctx_, f);
  }
  EXPECT_EQ(nodes, 8) << FormulaToString(ctx_, enf);
}

TEST_F(SpanTest, ParseErrorReportsLineColumnAndCaret) {
  ParseErrorInfo info;
  auto q = ParseQuery(ctx_, "{x | R(x and}", &info);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("line 1, column 10"),
            std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("^"), std::string::npos);
  EXPECT_EQ(info.offset, 9u);
  EXPECT_EQ(info.message, "expected ')'");
}

TEST_F(SpanTest, MultiLineParseErrorPosition) {
  ParseErrorInfo info;
  auto q = ParseQuery(ctx_, "{x |\n  R(x) and\n  not }", &info);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("line 3"), std::string::npos)
      << q.status().ToString();
}

// --- FinD closure traces ---

TEST(TraceClosureTest, RecordsFiringOrderAndBlockedFinDs) {
  SymbolTable syms;
  Symbol a = syms.Intern("a"), b = syms.Intern("b"), c = syms.Intern("c"),
         d = syms.Intern("d");
  FinDSet finds;
  finds.Add({SymbolSet{}, SymbolSet{a}});
  finds.Add({SymbolSet{a}, SymbolSet{b}});
  finds.Add({SymbolSet{c}, SymbolSet{d}});
  FinDSet::ClosureTrace trace = finds.TraceClosure(SymbolSet{});
  EXPECT_EQ(trace.closure, (SymbolSet{a, b}));
  EXPECT_EQ(trace.closure, finds.Closure(SymbolSet{}));
  EXPECT_EQ(trace.closure, finds.LinearClosure(SymbolSet{}));
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].find_index, 0u);
  EXPECT_EQ(trace.steps[0].added, SymbolSet{a});
  EXPECT_EQ(trace.steps[1].find_index, 1u);
  EXPECT_EQ(trace.steps[1].added, SymbolSet{b});
  ASSERT_EQ(trace.blocked.size(), 1u);
  EXPECT_EQ(trace.blocked[0], 2u);
}

TEST(TraceClosureTest, MatchesClosureOnRandomSets) {
  SymbolTable syms;
  std::vector<Symbol> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(syms.Intern("v" + std::to_string(i)));
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 200; ++round) {
    FinDSet finds;
    for (int i = 0; i < 4; ++i) {
      SymbolSet lhs, rhs;
      for (Symbol v : pool) {
        if (next() % 3 == 0) lhs.Insert(v);
        if (next() % 3 == 0) rhs.Insert(v);
      }
      finds.Add({lhs, rhs});
    }
    SymbolSet start;
    for (Symbol v : pool) {
      if (next() % 4 == 0) start.Insert(v);
    }
    FinDSet::ClosureTrace trace = finds.TraceClosure(start);
    EXPECT_EQ(trace.closure, finds.Closure(start));
    // Every blocked FinD really has an unconfined lhs variable.
    for (size_t i : trace.blocked) {
      EXPECT_FALSE(finds.finds()[i].lhs.IsSubsetOf(trace.closure));
    }
  }
}

// --- structured safety results ---

class BlameTest : public ::testing::Test {
 protected:
  // Full front-end analysis, rendered (the golden form).
  std::string Render(std::string_view text) {
    emcalc::QueryAnalysis a = compiler_.Analyze(text);
    return a.Render();
  }
  Compiler compiler_;
};

TEST_F(BlameTest, StructuredFieldsOnRejection) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | not R(x)}");
  ASSERT_TRUE(q.ok());
  SafetyResult r = CheckEmAllowed(ctx, *q);
  ASSERT_FALSE(r.em_allowed);
  EXPECT_EQ(r.violation, SafetyViolation::kUnboundedFree);
  EXPECT_EQ(SafetyViolationCode(r.violation), "safety.unbounded-free");
  EXPECT_TRUE(r.unbounded.Contains(ctx.symbols().Intern("x")));
  EXPECT_TRUE(r.blame_context.empty());
  ASSERT_NE(r.blamed, nullptr);
  ASSERT_NE(r.checked, nullptr);
  // Back-compat: the flat reason string still names the variable.
  EXPECT_NE(r.reason.find("x"), std::string::npos);
}

TEST_F(BlameTest, AcceptedQueryHasNoViolation) {
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | R(x)}");
  ASSERT_TRUE(q.ok());
  SafetyResult r = CheckEmAllowed(ctx, *q);
  EXPECT_TRUE(r.em_allowed);
  EXPECT_EQ(r.violation, SafetyViolation::kNone);
  EXPECT_EQ(SafetyViolationCode(r.violation), "");
  EXPECT_TRUE(r.unbounded.empty());
  EXPECT_TRUE(r.reason.empty());
}

// Golden blame traces for the paper's Section-1 unsafe examples.

TEST_F(BlameTest, GoldenNegatedAtom) {
  // {x | not R(x)}: x ranges over everything outside R.
  EXPECT_EQ(Render("{x | not R(x)}"),
            "error[safety.unbounded-free]: variables {x} cannot be confined"
            " to a finite set\n"
            " --> line 1, column 6\n"
            "  | {x | not R(x)}\n"
            "  |      ^~~~~~~~\n"
            "  = note: em-allowed condition (1) failed at subformula:"
            " not R(x)\n"
            "  = note: needed: {} -> {x}\n"
            "  = note: bd = {  }\n"
            "  = note: no finiteness dependency was applicable from"
            " context {}\n"
            "  = note: closure reached {}; never confined: {x}\n");
}

TEST_F(BlameTest, GoldenFunctionInversion) {
  // {x | exists y (R(y) and f(x) = y)}: knowing f(x) does not pin down x
  // (no inverse declared) — the paper's function-inversion example.
  EXPECT_EQ(Render("{x | exists y (R(y) and f(x) = y)}"),
            "error[safety.unbounded-free]: variables {x} cannot be confined"
            " to a finite set\n"
            " --> line 1, column 6\n"
            "  | {x | exists y (R(y) and f(x) = y)}\n"
            "  |      ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "  = note: em-allowed condition (1) failed at subformula:"
            " exists y (R(y) and f(x) = y)\n"
            "  = note: needed: {} -> {x}\n"
            "  = note: bd = {  }\n"
            "  = note: no finiteness dependency was applicable from"
            " context {}\n"
            "  = note: closure reached {}; never confined: {x}\n");
}

TEST_F(BlameTest, GoldenUnboundedQuantifier) {
  // Condition (2): the quantified variable never appears, so nothing
  // confines it. The blame trace shows the attempted derivation (bd of the
  // body bounds x but can never reach y) and the lint pass flags the unused
  // quantifier independently.
  EXPECT_EQ(
      Render("{x | R(x) and exists y (S(x))}"),
      "error[safety.unbounded-quantified]: variables {y} cannot be confined"
      " to a finite set\n"
      " --> line 1, column 15\n"
      "  | {x | R(x) and exists y (S(x))}\n"
      "  |               ^~~~~~~~~~~~~~~\n"
      "  = note: em-allowed condition (2) failed at subformula:"
      " exists y (S(x))\n"
      "  = note: checked (after rewriting): S(x)\n"
      "  = note: needed: {x} -> {y}\n"
      "  = note: bd = { {}->{x} }\n"
      "  = note: no finiteness dependency was applicable from context {x}\n"
      "  = note: closure reached {x}; never confined: {y}\n"
      "warning[lint.unused-quantified-var]: quantified variable 'y' is not"
      " used in the body\n"
      " --> line 1, column 15\n"
      "  | {x | R(x) and exists y (S(x))}\n"
      "  |               ^~~~~~~~~~~~~~~\n");
}

TEST_F(BlameTest, GoldenNegatedQuantifier) {
  // Condition (3): the quantifier is checked under a pushed negation; f(y)
  // inside the atom does not make y a direct argument, so bd cannot bound
  // it.
  EXPECT_EQ(
      Render("{x | R(x) and not exists y (T(x, f(y)))}"),
      "error[safety.unbounded-negated]: variables {y} cannot be confined"
      " to a finite set\n"
      " --> line 1, column 15\n"
      "  | {x | R(x) and not exists y (T(x, f(y)))}\n"
      "  |               ^~~~~~~~~~~~~~~~~~~~~~~~~\n"
      "  = note: em-allowed condition (3) failed at subformula:"
      " forall y (not T(x, f(y)))\n"
      "  = note: checked (after rewriting): T(x, f(y))\n"
      "  = note: needed: {x} -> {y}\n"
      "  = note: bd = { {}->{x} }\n"
      "  = note: no finiteness dependency was applicable from context {x}\n"
      "  = note: closure reached {x}; never confined: {y}\n");
}

TEST_F(BlameTest, BlameTraceShowsFiredFinDs) {
  // g(y) = x bounds x once y is known; y is never confined, so the
  // g-dependency is blocked — and the trace says so.
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x | f(x) = y}");
  ASSERT_TRUE(q.ok());
  EmAllowedChecker checker(ctx);
  SafetyResult r = checker.Check(*q);
  ASSERT_FALSE(r.em_allowed);
  Diagnostic d = diag::BuildSafetyBlame(ctx, checker.bound(), r);
  EXPECT_EQ(d.code, "safety.unbounded-free");
  std::string rendered = diag::Render(d, "{x | f(x) = y}");
  // bd({x | f(x) = y}) = { {x}->{y} }: applicable only once x is confined,
  // which never happens — the derivation must name it as blocked.
  EXPECT_NE(rendered.find("blocked {x}->{y}: needs {x}, never confined"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("never confined: {x,y}"), std::string::npos)
      << rendered;
}

TEST_F(BlameTest, FiredStepsAppearInDerivation) {
  // x is confined via R(x); z needs w which is never confined. The trace
  // shows the fired dependency and the blocked one.
  AstContext ctx;
  auto q = ParseQuery(ctx, "{x, z | R(x) and f(w) = z}");
  ASSERT_TRUE(q.ok());
  EmAllowedChecker checker(ctx);
  SafetyResult r = checker.Check(*q);
  ASSERT_FALSE(r.em_allowed);
  EXPECT_TRUE(r.unbounded.Contains(ctx.symbols().Intern("z")));
  EXPECT_TRUE(r.unbounded.Contains(ctx.symbols().Intern("w")));
  EXPECT_FALSE(r.unbounded.Contains(ctx.symbols().Intern("x")));
  Diagnostic d = diag::BuildSafetyBlame(ctx, checker.bound(), r);
  std::string rendered = diag::Render(d, "");
  EXPECT_NE(rendered.find("fired {}->{x}, confining {x}"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("blocked {w}->{z}: needs {w}, never confined"),
            std::string::npos)
      << rendered;
}

// --- lint rules ---

class LintTest : public ::testing::Test {
 protected:
  std::vector<Diagnostic> Lint(std::string_view text,
                               const diag::LintOptions& options = {}) {
    auto f = ParseFormula(ctx_, text);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return diag::LintFormula(ctx_, *f, options);
  }
  bool Has(const std::vector<Diagnostic>& ds, std::string_view code) {
    for (const Diagnostic& d : ds) {
      if (d.code == code) return true;
    }
    return false;
  }
  AstContext ctx_;
};

TEST_F(LintTest, CleanFormulaHasNoFindings) {
  EXPECT_TRUE(Lint("R(x, y) and S(y)").empty());
  EXPECT_TRUE(Lint("exists y (R(x, y) and not S(y))").empty());
}

TEST_F(LintTest, RelationArityConflict) {
  auto ds = Lint("R(x) and R(x, y)");
  ASSERT_TRUE(Has(ds, "lint.rel-arity-conflict"));
  for (const Diagnostic& d : ds) {
    if (d.code == "lint.rel-arity-conflict") {
      EXPECT_EQ(d.severity, Severity::kError);
      EXPECT_NE(d.message.find("'R'"), std::string::npos);
      EXPECT_TRUE(d.span.has_value());
    }
  }
}

TEST_F(LintTest, FunctionArityConflict) {
  auto ds = Lint("f(x) = y and f(x, y) = z");
  EXPECT_TRUE(Has(ds, "lint.fn-arity-conflict"));
}

TEST_F(LintTest, UnusedQuantifiedVariable) {
  auto ds = Lint("exists y (R(x))");
  ASSERT_TRUE(Has(ds, "lint.unused-quantified-var"));
  EXPECT_FALSE(Has(Lint("exists y (R(y))"), "lint.unused-quantified-var"));
}

TEST_F(LintTest, ShadowedVariable) {
  EXPECT_TRUE(Has(Lint("R(x) and exists x (S(x))"), "lint.shadowed-var"));
  EXPECT_TRUE(
      Has(Lint("exists x (R(x) and forall x (S(x)))"), "lint.shadowed-var"));
  EXPECT_FALSE(Has(Lint("exists x (R(x)) and exists x (S(x))"),
                   "lint.shadowed-var"));
}

TEST_F(LintTest, UnsatisfiableEqualityChain) {
  EXPECT_TRUE(Has(Lint("R(x) and x = 1 and x = 2"), "lint.unsat-equality"));
  EXPECT_TRUE(Has(Lint("R(x) and 1 = 2"), "lint.unsat-equality"));
  EXPECT_FALSE(Has(Lint("R(x) and x = 1 and x = 1"), "lint.unsat-equality"));
  EXPECT_FALSE(Has(Lint("x = 1 or x = 2"), "lint.unsat-equality"));
}

TEST_F(LintTest, CrossProduct) {
  EXPECT_TRUE(Has(Lint("R(x) and S(y)"), "lint.cross-product"));
  EXPECT_FALSE(Has(Lint("R(x) and S(x, y)"), "lint.cross-product"));
  // Constant-only conjuncts are not flagged (no variables to join on).
  EXPECT_FALSE(Has(Lint("R(x) and S(1)"), "lint.cross-product"));
}

TEST_F(LintTest, FunctionDepth) {
  EXPECT_TRUE(
      Has(Lint("f(f(f(f(x)))) = y and R(x)"), "lint.function-depth"));
  EXPECT_FALSE(Has(Lint("f(f(f(x))) = y and R(x)"), "lint.function-depth"));
  diag::LintOptions relaxed;
  relaxed.function_depth_threshold = 0;  // disabled
  EXPECT_FALSE(
      Has(Lint("f(f(f(f(x)))) = y and R(x)", relaxed), "lint.function-depth"));
  diag::LintOptions strict;
  strict.function_depth_threshold = 2;
  EXPECT_TRUE(Has(Lint("f(f(x)) = y and R(x)", strict), "lint.function-depth"));
}

TEST_F(LintTest, FindingsOnAcceptedQueries) {
  // The whole point of the lint pass: warnings fire even when the safety
  // analysis accepts the query.
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x, y | R(x) and S(y)}");
  EXPECT_TRUE(a.parsed);
  EXPECT_TRUE(a.safe);
  EXPECT_FALSE(a.HasErrors());
  ASSERT_EQ(diag::CountWarnings(a.diagnostics), 1u);
  EXPECT_EQ(a.diagnostics[0].code, "lint.cross-product");
}

// --- Compiler::Analyze ---

TEST(AnalyzeTest, ParseErrorProducesLocatedDiagnostic) {
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x | R(x and}");
  EXPECT_FALSE(a.parsed);
  EXPECT_TRUE(a.HasErrors());
  ASSERT_EQ(a.diagnostics.size(), 1u);
  EXPECT_EQ(a.diagnostics[0].code, "parse.error");
  ASSERT_TRUE(a.diagnostics[0].span.has_value());
  EXPECT_EQ(a.diagnostics[0].span->begin, 9u);
}

TEST(AnalyzeTest, SafeQueryIsSafe) {
  Compiler compiler;
  emcalc::QueryAnalysis a =
      compiler.Analyze("{y | exists x (R(x) and y = succ(x))}");
  EXPECT_TRUE(a.parsed);
  EXPECT_TRUE(a.safe);
  EXPECT_TRUE(a.safety.em_allowed);
  EXPECT_TRUE(a.diagnostics.empty());
}

TEST(AnalyzeTest, AnalyzeSeesThroughViews) {
  Compiler compiler;
  ASSERT_TRUE(compiler.DefineView("Pairs", "{x, y | f(x) = y}").ok());
  // The view alone is not em-allowed, but this use bounds x.
  emcalc::QueryAnalysis good =
      compiler.Analyze("{x, y | R(x) and Pairs(x, y)}");
  EXPECT_TRUE(good.safe) << good.Render();
  // This use does not; the rejection surfaces through the expansion.
  emcalc::QueryAnalysis bad = compiler.Analyze("{x, y | Pairs(x, y)}");
  EXPECT_TRUE(bad.parsed);
  EXPECT_FALSE(bad.safe);
  EXPECT_TRUE(bad.HasErrors());
  EXPECT_EQ(bad.diagnostics[0].code, "safety.unbounded-free");
}

TEST(AnalyzeTest, MalformedQueryReported) {
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x | R(y)}");
  EXPECT_TRUE(a.parsed);
  EXPECT_FALSE(a.safe);
  EXPECT_TRUE(a.HasErrors());
  ASSERT_FALSE(a.diagnostics.empty());
  EXPECT_EQ(a.diagnostics[0].code, "query.malformed");
}

TEST(AnalyzeTest, JsonCarriesSpansAndNotes) {
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze("{x | not R(x)}");
  auto json = obs::ParseJson(a.ToJson());
  ASSERT_TRUE(json.ok()) << a.ToJson();
  ASSERT_TRUE(json->is_array());
  ASSERT_EQ(json->array.size(), 1u);
  const obs::JsonValue& d = json->array[0];
  EXPECT_EQ(d.StringOr("code", ""), "safety.unbounded-free");
  EXPECT_EQ(d.StringOr("severity", ""), "error");
  const obs::JsonValue* span = d.Find("span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->NumberOr("begin", -1), 5);
  EXPECT_EQ(span->NumberOr("line", -1), 1);
  EXPECT_EQ(span->NumberOr("col", -1), 6);
  const obs::JsonValue* notes = d.Find("notes");
  ASSERT_NE(notes, nullptr);
  EXPECT_TRUE(notes->is_array());
  EXPECT_GE(notes->array.size(), 3u);
}

TEST(AnalyzeTest, BlameInsideForallPointsIntoTheQuery) {
  // forall is checked as its dual not exists not; the unbounded z sits
  // under that rewrite, and the caret must still land on its source text.
  std::string text =
      "{x | R(x) and forall y (not S(x, y) or not exists z (not T(y, z)))}";
  Compiler compiler;
  emcalc::QueryAnalysis a = compiler.Analyze(text);
  ASSERT_TRUE(a.parsed);
  ASSERT_FALSE(a.safe);
  ASSERT_EQ(a.diagnostics.size(), 1u) << a.Render();
  const Diagnostic& d = a.diagnostics[0];
  EXPECT_EQ(d.code, "safety.unbounded-quantified");
  ASSERT_TRUE(d.span.has_value()) << a.Render();
  ASSERT_LE(d.span->end, text.size());
  EXPECT_EQ(text.substr(d.span->begin, d.span->size()),
            "exists z (not T(y, z))");
  EXPECT_NE(a.Render().find("\n  |" + std::string(d.span->begin + 1, ' ') +
                            "^~~~"),
            std::string::npos)
      << a.Render();
}

// --- Compiler::Analyze golden ---
//
// tests/testdata/analyze_golden.txt holds the rendered Analyze output for
// the paper corpus plus 300 seeded texts (em-allowed, rejected and
// malformed). It pins every front-half diagnostic: code, message, span and
// caret snippet. On a mismatch the test writes what it got to
// analyze_golden.actual.txt in its working directory; after checking the
// difference is intended, copy that file over the golden.

#ifndef EMCALC_TESTDATA_DIR
#error "EMCALC_TESTDATA_DIR must point at tests/testdata"
#endif

std::vector<std::string> GoldenTexts() {
  std::vector<std::string> texts = {
      // The paper corpus: q1, q2, q4, q5, q6, and q7 (not em-allowed).
      "{y | exists x (R(x) and y = g(f(x)))}",
      "{x | R(x) and exists y (f(x) = y and not R(y))}",
      "{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
      "((h(x) != y and k(x) != y) or P(x, y)))}",
      "{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
      "{x, y, z | R(x, y, z) and not S(y, z)}",
      "{x | x = 0 and forall u (exists v (plus(u, 1) = v))}",
      // Section 1's unsafe shapes and the lint rules.
      "{x | not R(x)}",
      "{x, y | R(x) or S(y)}",
      "{x, y | R(x) and not (S(y) and T(y))}",
      "{x | R(x) and forall y (S(x, y))}",
      "{x | R(x) and forall y (not S(x, y) or not exists z (not T(y, z)))}",
      "{x | R(x) and R(x, x)}",
      "{x | R(x) and exists x (S(x))}",
      "{x | R(x) and x = 1 and x = 2}",
      "{x, y | R(x) and y = f(x) and S(f(x, x))}",
      "{x, y | R(x) and S(y)}",
      "{x | R(x) and\n  not exists y (S(x, y) and\n    y != f(x))}",
      "{x | R(x) and x = 9223372036854775807}",
  };
  std::mt19937_64 rng(20261018);
  RandomQueryOptions shape;  // shorter texts keep the golden readable
  shape.max_conjuncts = 3;
  shape.max_depth = 2;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    AstContext ctx;
    RandomQueryGen gen(ctx, seed, shape);
    for (int i = 0; i < 100; ++i) {
      std::optional<Query> q;
      if (i % 4 == 0) q = gen.NextEmAllowed();
      if (!q.has_value()) q = gen.Next();
      std::string text = QueryToString(ctx, *q);
      if (i % 4 == 3) {  // malformed: cut, drop or replace one byte
        size_t at = static_cast<size_t>(rng() % text.size());
        switch (rng() % 3) {
          case 0:
            text.resize(at);
            break;
          case 1:
            text.erase(at, 1);
            break;
          default:
            text[at] = "(),|!#="[rng() % 7];
            break;
        }
      }
      texts.push_back(std::move(text));
    }
  }
  return texts;
}

std::string RenderGolden() {
  std::string out;
  for (const std::string& text : GoldenTexts()) {
    Compiler compiler;
    emcalc::QueryAnalysis a = compiler.Analyze(text);
    out += "=== " + text + "\n";
    out += "parsed=" + std::to_string(a.parsed) +
           " safe=" + std::to_string(a.safe) + "\n";
    for (const Diagnostic& d : a.diagnostics) {
      out += "--- " + d.code;
      if (d.span.has_value()) {
        out += " [" + std::to_string(d.span->begin) + ", " +
               std::to_string(d.span->end) + ")";
      }
      out += "\n" + diag::Render(d, text);
    }
  }
  return out;
}

TEST(AnalyzeGoldenTest, MatchesCheckedInRendering) {
  std::string path =
      std::string(EMCALC_TESTDATA_DIR) + "/analyze_golden.txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::stringstream want;
  if (in.good()) want << in.rdbuf();
  std::string got = RenderGolden();
  if (got == want.str()) return;
  std::ofstream("analyze_golden.actual.txt", std::ios::binary) << got;
  std::istringstream g(got), w(want.str());
  std::string gl, wl;
  for (int line = 1;; ++line) {
    bool more_g = static_cast<bool>(std::getline(g, gl));
    bool more_w = static_cast<bool>(std::getline(w, wl));
    if (!more_g && !more_w) break;
    if (!more_g || !more_w || gl != wl) {
      FAIL() << path << " differs at line " << line << "\n  want: " << wl
             << "\n  got:  " << gl
             << "\n(full output in analyze_golden.actual.txt)";
    }
  }
  FAIL() << path << " differs";
}

// --- diagnostics JSON round-trip ---

TEST(DiagnosticJsonTest, RoundTrip) {
  Diagnostic d("safety.unbounded-free", Severity::kError,
               "variables {x} cannot be confined to a finite set");
  d.WithSpan({5, 13});
  d.AddNote("needed: {} -> {x}");
  d.notes.push_back(
      Diagnostic("lint.cross-product", Severity::kWarning, "nested"));
  auto json = obs::ParseJson(diag::ToJson(d));
  ASSERT_TRUE(json.ok());
  Diagnostic back = diag::DiagnosticFromJson(*json);
  EXPECT_EQ(back.code, d.code);
  EXPECT_EQ(back.severity, d.severity);
  EXPECT_EQ(back.message, d.message);
  ASSERT_TRUE(back.span.has_value());
  EXPECT_EQ(*back.span, *d.span);
  ASSERT_EQ(back.notes.size(), 2u);
  EXPECT_EQ(back.notes[0].message, "needed: {} -> {x}");
  EXPECT_EQ(back.notes[1].code, "lint.cross-product");
  EXPECT_EQ(back.notes[1].severity, Severity::kWarning);
}

TEST(DiagnosticJsonTest, RoundTripWithResolvedLineCol) {
  // line/col are derived; the parser must ignore them on the way back in.
  Diagnostic d("parse.error", Severity::kError, "expected ')'");
  d.WithSpan({9, 10});
  auto json = obs::ParseJson(diag::ToJson(d, "{x | R(x and}"));
  ASSERT_TRUE(json.ok());
  Diagnostic back = diag::DiagnosticFromJson(*json);
  ASSERT_TRUE(back.span.has_value());
  EXPECT_EQ(back.span->begin, 9u);
  EXPECT_EQ(back.span->end, 10u);
}

// --- query-log attachment (EMCALC_LINT) ---

class QueryLogLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log_ = std::make_unique<obs::QueryLog>(&sink_);
    obs::SetQueryLog(log_.get());
    ::setenv("EMCALC_LINT", "1", 1);
  }
  void TearDown() override {
    ::unsetenv("EMCALC_LINT");
    obs::SetQueryLog(nullptr);
  }

  std::vector<obs::RunRecord> Records() {
    std::vector<obs::RunRecord> out;
    std::istringstream in(sink_.str());
    std::string line;
    while (std::getline(in, line)) {
      auto r = obs::ParseQueryLogLine(line);
      EXPECT_TRUE(r.ok()) << line;
      if (r.ok()) out.push_back(*std::move(r));
    }
    return out;
  }

  std::ostringstream sink_;
  std::unique_ptr<obs::QueryLog> log_;
};

TEST_F(QueryLogLintTest, LintWarningsAttachToCompileRecords) {
  Compiler compiler;
  auto q = compiler.Compile("{x, y | R(x) and S(y)}");
  ASSERT_TRUE(q.ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event, "compile");
  EXPECT_TRUE(records[0].ok);
  ASSERT_EQ(records[0].diagnostics.size(), 1u);
  EXPECT_EQ(records[0].diagnostics[0].code, "lint.cross-product");
  EXPECT_EQ(records[0].diagnostics[0].severity, Severity::kWarning);
}

TEST_F(QueryLogLintTest, SafetyBlameAttachesOnRejection) {
  Compiler compiler;
  auto q = compiler.Compile("{x | not R(x)}");
  ASSERT_FALSE(q.ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_FALSE(records[0].em_allowed);
  ASSERT_FALSE(records[0].diagnostics.empty());
  const Diagnostic& blame = records[0].diagnostics[0];
  EXPECT_EQ(blame.code, "safety.unbounded-free");
  ASSERT_TRUE(blame.span.has_value());
  EXPECT_EQ(blame.span->begin, 5u);
  EXPECT_FALSE(blame.notes.empty());

  // A parameterized rejection is blamed in the parameter context: the
  // parameter p is bound by the host, so only y is unbounded.
  auto pq = compiler.CompileParameterized("{y | not EMP(p, y, y)}", {"p"});
  ASSERT_FALSE(pq.ok());
  records = Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[1].ok);
  const Diagnostic* param_blame = nullptr;
  for (const Diagnostic& d : records[1].diagnostics) {
    if (d.code.rfind("safety.", 0) == 0) param_blame = &d;
  }
  ASSERT_NE(param_blame, nullptr);
  EXPECT_EQ(param_blame->message,
            "variables {y} cannot be confined to a finite set");
  ASSERT_FALSE(param_blame->notes.empty());
  const std::string& closure = param_blame->notes.back().message;
  EXPECT_EQ(closure.substr(closure.find("never confined:")),
            "never confined: {y}")
      << closure;
}

TEST_F(QueryLogLintTest, NoDiagnosticsWithoutOptIn) {
  ::unsetenv("EMCALC_LINT");
  Compiler compiler;
  auto q = compiler.Compile("{x, y | R(x) and S(y)}");
  ASSERT_TRUE(q.ok());
  auto records = Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].diagnostics.empty());
}

// --- property: rejections blame genuinely unbounded variables ---

class DiagPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiagPropertyTest, RejectionsNameUnconfinedVariables) {
  AstContext ctx;
  RandomQueryGen gen(ctx, GetParam());
  EmAllowedChecker checker(ctx);
  int rejected = 0;
  for (int i = 0; i < 60; ++i) {
    Query q = gen.Next();
    SafetyResult r = checker.Check(q);
    if (r.em_allowed) continue;
    ++rejected;
    SCOPED_TRACE(QueryToString(ctx, q));
    // Every rejection names at least one variable...
    EXPECT_EQ(r.violation == SafetyViolation::kNone, false);
    ASSERT_FALSE(r.unbounded.empty());
    ASSERT_NE(r.checked, nullptr);
    ASSERT_NE(r.blamed, nullptr);
    EXPECT_TRUE(r.unbounded.IsSubsetOf(r.blame_targets));
    // ...that is genuinely not in the FinD closure of the context —
    // cross-validated with the naive fixpoint closure, independent of the
    // linear-counter algorithm the checker itself uses.
    const FinDSet& bd = checker.bound().Bound(r.checked);
    SymbolSet closure = bd.Closure(r.blame_context);
    for (Symbol v : r.unbounded) {
      EXPECT_FALSE(closure.Contains(v))
          << "blamed variable " << ctx.symbols().Name(v)
          << " is actually bounded";
    }
    // The blame trace can always be built and renders the variables.
    diag::Diagnostic d = diag::BuildSafetyBlame(ctx, checker.bound(), r);
    EXPECT_FALSE(d.message.empty());
    EXPECT_FALSE(d.notes.empty());
  }
  EXPECT_GT(rejected, 0) << "generator produced no rejected queries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace emcalc
