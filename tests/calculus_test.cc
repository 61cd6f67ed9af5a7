// Unit tests for src/calculus: AST construction, builder normalization,
// parser (accept/reject/round-trip), printer, analyses, and rewrites.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/calculus/analysis.h"
#include "src/calculus/ast.h"
#include "src/calculus/builder.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/calculus/rewrite.h"

namespace emcalc {
namespace {

using builder::And;
using builder::Apply;
using builder::Exists;
using builder::IntConst;
using builder::Not;
using builder::Or;
using builder::Rel;
using builder::Var;

class CalculusTest : public ::testing::Test {
 protected:
  AstContext ctx_;
  Symbol Sym(std::string_view name) { return ctx_.symbols().Intern(name); }
};

TEST_F(CalculusTest, TermConstruction) {
  const Term* x = Var(ctx_, "x");
  EXPECT_TRUE(x->is_var());
  const Term* c = IntConst(ctx_, 7);
  EXPECT_TRUE(c->is_const());
  EXPECT_EQ(ctx_.ConstantAt(c->const_id()), Value::Int(7));
  const Term* fx = Apply(ctx_, "f", {x});
  EXPECT_TRUE(fx->is_apply());
  EXPECT_EQ(fx->args().size(), 1u);
  EXPECT_EQ(fx->args()[0], x);
}

TEST_F(CalculusTest, ConstantsAreInterned) {
  const Term* a = IntConst(ctx_, 7);
  const Term* b = IntConst(ctx_, 7);
  EXPECT_EQ(a->const_id(), b->const_id());
  const Term* c = builder::StrConst(ctx_, "7");
  EXPECT_NE(a->const_id(), c->const_id());
}

TEST_F(CalculusTest, BuilderAndNormalizes) {
  const Formula* r = Rel(ctx_, "R", {Var(ctx_, "x")});
  EXPECT_EQ(And(ctx_, {}), ctx_.True());
  EXPECT_EQ(And(ctx_, {r}), r);
  EXPECT_EQ(And(ctx_, {r, ctx_.True()}), r);
  EXPECT_EQ(And(ctx_, {r, ctx_.False()}), ctx_.False());
  const Formula* nested = And(ctx_, {r, And(ctx_, {r, r})});
  // Can't build a 1-element And; nested Ands flatten.
  ASSERT_EQ(nested->kind(), FormulaKind::kAnd);
  EXPECT_EQ(nested->children().size(), 3u);
}

TEST_F(CalculusTest, BuilderOrNormalizes) {
  const Formula* r = Rel(ctx_, "R", {Var(ctx_, "x")});
  EXPECT_EQ(Or(ctx_, {}), ctx_.False());
  EXPECT_EQ(Or(ctx_, {r, ctx_.False()}), r);
  EXPECT_EQ(Or(ctx_, {r, ctx_.True()}), ctx_.True());
}

TEST_F(CalculusTest, BuilderNotFolds) {
  const Formula* r = Rel(ctx_, "R", {Var(ctx_, "x")});
  EXPECT_EQ(Not(ctx_, ctx_.True()), ctx_.False());
  EXPECT_EQ(Not(ctx_, Not(ctx_, r)), r);
}

TEST_F(CalculusTest, BuilderExistsMerges) {
  const Formula* r =
      Rel(ctx_, "R", {Var(ctx_, "x"), Var(ctx_, "y")});
  const Formula* inner = Exists(ctx_, {Sym("y")}, r);
  const Formula* outer = Exists(ctx_, {Sym("x")}, inner);
  ASSERT_EQ(outer->kind(), FormulaKind::kExists);
  EXPECT_EQ(outer->vars().size(), 2u);
  EXPECT_EQ(outer->child()->kind(), FormulaKind::kRel);
  EXPECT_EQ(Exists(ctx_, {}, r), r);
}

TEST_F(CalculusTest, FreeVarsBasics) {
  auto q = ParseQuery(ctx_, "{x | R(x) and exists y (S(x, y))}");
  ASSERT_TRUE(q.ok());
  SymbolSet free = FreeVars(q->body);
  EXPECT_EQ(free, SymbolSet({Sym("x")}));
  SymbolSet all = AllVars(q->body);
  EXPECT_EQ(all, SymbolSet({Sym("x"), Sym("y")}));
}

TEST_F(CalculusTest, DirectVarsSkipsFunctionArguments) {
  auto f = ParseFormula(ctx_, "R(f(x), y)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(DirectVars((*f)->terms()), SymbolSet({Sym("y")}));
  EXPECT_EQ(TermVars((*f)->terms()[0]), SymbolSet({Sym("x")}));
}

TEST_F(CalculusTest, FunctionMeasures) {
  auto f = ParseFormula(ctx_, "R(x) and g(f(x)) = y and h(x) = z");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(HasFunctions(*f));
  EXPECT_EQ(CountApplications(*f), 3);
  EXPECT_EQ(MaxFunctionDepth(*f), 2);
  auto plain = ParseFormula(ctx_, "R(x) and x = y");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(HasFunctions(*plain));
  EXPECT_EQ(CountApplications(*plain), 0);
}

TEST_F(CalculusTest, SizeAndQuantifierCount) {
  auto f = ParseFormula(
      ctx_, "R(x) and (exists y (S(y)) or not exists z (T(z)))");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(QuantifierCount(*f), 2);
  EXPECT_GE(FormulaSize(*f), 7);
}

TEST_F(CalculusTest, CollectSignatures) {
  auto f = ParseFormula(ctx_, "R(x, f(y)) and S(x) and g(x, y) = x");
  ASSERT_TRUE(f.ok());
  auto rels = CollectRelations(*f);
  ASSERT_EQ(rels.size(), 2u);
  EXPECT_EQ(rels[Sym("R")], 2);
  EXPECT_EQ(rels[Sym("S")], 1);
  auto fns = CollectFunctions(*f);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[Sym("f")], 1);
  EXPECT_EQ(fns[Sym("g")], 2);
}

TEST_F(CalculusTest, CollectConstants) {
  auto f = ParseFormula(ctx_, "R(1) and x = 'a' and y = 1");
  ASSERT_TRUE(f.ok());
  auto consts = CollectConstants(*f);
  EXPECT_EQ(consts.size(), 2u);
}

// --- parser ---

TEST_F(CalculusTest, ParseSimpleQuery) {
  auto q = ParseQuery(ctx_, "{x, y | R(x, y)}");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->head.size(), 2u);
  EXPECT_EQ(q->body->kind(), FormulaKind::kRel);
}

TEST_F(CalculusTest, ParseBareFormulaDerivesHead) {
  auto q = ParseQuery(ctx_, "R(y, x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(SymbolSet(q->head), SymbolSet({Sym("x"), Sym("y")}));
}

TEST_F(CalculusTest, ParseBooleanQuery) {
  auto q = ParseQuery(ctx_, "{ | exists x (R(x))}");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->head.empty());
}

TEST_F(CalculusTest, ParsePrecedenceOrBindsLoosest) {
  auto f = ParseFormula(ctx_, "R(x) and S(x) or T(x)");
  ASSERT_TRUE(f.ok());
  ASSERT_EQ((*f)->kind(), FormulaKind::kOr);
  EXPECT_EQ((*f)->children()[0]->kind(), FormulaKind::kAnd);
}

TEST_F(CalculusTest, ParseNotBindsTightest) {
  auto f = ParseFormula(ctx_, "not R(x) and S(x)");
  ASSERT_TRUE(f.ok());
  ASSERT_EQ((*f)->kind(), FormulaKind::kAnd);
  EXPECT_EQ((*f)->children()[0]->kind(), FormulaKind::kNot);
}

TEST_F(CalculusTest, ParseEqualityVsRelationAtom) {
  auto rel = ParseFormula(ctx_, "f(x)");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->kind(), FormulaKind::kRel);  // formula position
  auto eq = ParseFormula(ctx_, "f(x) = y");
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ((*eq)->kind(), FormulaKind::kEq);
  EXPECT_TRUE((*eq)->lhs()->is_apply());
}

TEST_F(CalculusTest, ParseZeroAryRelation) {
  auto f = ParseFormula(ctx_, "Q()");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), FormulaKind::kRel);
  EXPECT_EQ((*f)->terms().size(), 0u);
}

TEST_F(CalculusTest, ParseLiteralsAndNegativeNumbers) {
  auto f = ParseFormula(ctx_, "x = -42 or x = 'alice'");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), FormulaKind::kOr);
}

TEST_F(CalculusTest, ParseIntLiteralsAtTheInt64Limits) {
  auto f = ParseFormula(ctx_,
                        "x = 9223372036854775807 or x = -9223372036854775808");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ((*f)->kind(), FormulaKind::kOr);
  const Term* max = (*f)->children()[0]->rhs();
  const Term* min = (*f)->children()[1]->rhs();
  ASSERT_TRUE(max->is_const());
  ASSERT_TRUE(min->is_const());
  EXPECT_EQ(ctx_.ConstantAt(max->const_id()),
            Value::Int(std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(ctx_.ConstantAt(min->const_id()),
            Value::Int(std::numeric_limits<int64_t>::min()));
}

TEST_F(CalculusTest, ParseRejectsOutOfRangeIntLiterals) {
  for (std::string text : {"{x | R(x) and x = 9223372036854775808}",
                           "{x | R(x) and x = -9223372036854775809}",
                           "{x | R(x) and x = 99999999999999999999}"}) {
    ParseErrorInfo info;
    auto q = ParseQuery(ctx_, text, &info);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(info.message, "integer literal out of range") << text;
    EXPECT_EQ(info.offset, text.find("= ") + 2) << text;
    EXPECT_NE(q.status().message().find("column"), std::string::npos);
  }
}

TEST_F(CalculusTest, ParseQuantifierLists) {
  auto f = ParseFormula(ctx_, "exists x, y (forall z (R(x, y, z)))");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), FormulaKind::kExists);
  EXPECT_EQ((*f)->vars().size(), 2u);
  EXPECT_EQ((*f)->child()->kind(), FormulaKind::kForall);
}

TEST_F(CalculusTest, ParseErrors) {
  EXPECT_FALSE(ParseQuery(ctx_, "{x | R(x)").ok());        // missing brace
  EXPECT_FALSE(ParseFormula(ctx_, "R(x) and").ok());       // dangling
  EXPECT_FALSE(ParseFormula(ctx_, "x").ok());              // bare term
  EXPECT_FALSE(ParseFormula(ctx_, "x = ").ok());           // missing rhs
  EXPECT_FALSE(ParseFormula(ctx_, "exists (R(x))").ok());  // missing vars
  EXPECT_FALSE(ParseFormula(ctx_, "R(x) ! S(x)").ok());    // bad token
  EXPECT_FALSE(ParseFormula(ctx_, "x = 'unterminated").ok());
  EXPECT_FALSE(ParseFormula(ctx_, "not = x").ok());
  EXPECT_FALSE(ParseFormula(ctx_, "").ok());
}

TEST_F(CalculusTest, ParseRejectsKeywordAsName) {
  EXPECT_FALSE(ParseFormula(ctx_, "exists and (R(and))").ok());
}

// --- printer round-trips ---

class RoundTripTest : public CalculusTest,
                      public ::testing::WithParamInterface<const char*> {};

TEST_P(RoundTripTest, ParsePrintParse) {
  auto q1 = ParseQuery(ctx_, GetParam());
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  std::string printed = QueryToString(ctx_, *q1);
  auto q2 = ParseQuery(ctx_, printed);
  ASSERT_TRUE(q2.ok()) << "reparse failed for: " << printed;
  EXPECT_TRUE(FormulasEqual(q1->body, q2->body)) << printed;
  EXPECT_EQ(q1->head, q2->head);
  // Printing must be a fixpoint.
  EXPECT_EQ(printed, QueryToString(ctx_, *q2));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTripTest,
    ::testing::Values(
        "{x, y | R(x, y)}",
        "{y | exists x (R(x) and y = g(f(x)))}",
        "{x | R(x) and exists y (f(x) = y and not R(y))}",
        "{x, y | (R(x) and f(x) = y) or (S(y) and g(y) = x)}",
        "{x, y, z | R(x, y, z) and not S(y, z)}",
        "{x | x = 0 and forall u (exists v (plus(u, 1) = v))}",
        "{ | exists x (R(x))}",
        "{x | R(x) and not (S(x) or T(x))}",
        "{x | R(x) and x != 'bob'}",
        "{x | R(x) and (S(x) or T(x)) and not U(x)}",
        "{x, y | B(x) and not (((f(x) != y and g(x) != y) or R(x, y)) and "
        "((h(x) != y and k(x) != y) or P(x, y)))}"));

// --- rewrites ---

TEST_F(CalculusTest, SubstituteTermAndFormula) {
  auto f = ParseFormula(ctx_, "R(x, y) and f(x) = y");
  ASSERT_TRUE(f.ok());
  Substitution sub;
  sub.emplace(Sym("x"), IntConst(ctx_, 3));
  const Formula* g = SubstituteFormula(ctx_, *f, sub);
  EXPECT_EQ(FormulaToString(ctx_, g), "R(3, y) and f(3) = y");
}

TEST_F(CalculusTest, SubstituteRespectsShadowing) {
  auto f = ParseFormula(ctx_, "R(x) and exists y (S(y, x))");
  ASSERT_TRUE(f.ok());
  Substitution sub;
  sub.emplace(Sym("y"), IntConst(ctx_, 1));  // y is only bound; no-op
  const Formula* g = SubstituteFormula(ctx_, *f, sub);
  EXPECT_TRUE(FormulasEqual(*f, g));
}

TEST_F(CalculusTest, SubstituteAvoidsCapture) {
  // Substituting x -> y under exists y must rename the quantifier.
  auto f = ParseFormula(ctx_, "exists y (S(y, x))");
  ASSERT_TRUE(f.ok());
  Substitution sub;
  sub.emplace(Sym("x"), ctx_.MakeVar(Sym("y")));
  const Formula* g = SubstituteFormula(ctx_, *f, sub);
  ASSERT_EQ(g->kind(), FormulaKind::kExists);
  EXPECT_NE(g->vars()[0], Sym("y"));
  SymbolSet free = FreeVars(g);
  EXPECT_EQ(free, SymbolSet({Sym("y")}));
}

TEST_F(CalculusTest, RectifyMakesBoundVarsDistinct) {
  auto f = ParseFormula(
      ctx_, "exists z (R(z)) and exists z (S(z)) or exists z (T(z))");
  ASSERT_TRUE(f.ok());
  const Formula* g = Rectify(ctx_, *f);
  // Collect quantified symbols; they must be pairwise distinct.
  std::vector<Symbol> qvars;
  struct Walk {
    std::vector<Symbol>& out;
    void operator()(const Formula* h) {
      switch (h->kind()) {
        case FormulaKind::kExists:
        case FormulaKind::kForall:
          for (Symbol v : h->vars()) out.push_back(v);
          (*this)(h->child());
          break;
        case FormulaKind::kNot:
          (*this)(h->child());
          break;
        case FormulaKind::kAnd:
        case FormulaKind::kOr:
          for (const Formula* c : h->children()) (*this)(c);
          break;
        default:
          break;
      }
    }
  };
  Walk{qvars}(g);
  ASSERT_EQ(qvars.size(), 3u);
  EXPECT_NE(qvars[0], qvars[1]);
  EXPECT_NE(qvars[1], qvars[2]);
  EXPECT_NE(qvars[0], qvars[2]);
}

TEST_F(CalculusTest, RectifyLeavesCleanFormulasAlone) {
  auto f = ParseFormula(ctx_, "R(x) and exists y (S(y))");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(Rectify(ctx_, *f), *f);  // pointer-equal: no rebuild
}

// --- well-formedness ---

TEST_F(CalculusTest, WellFormedAccepts) {
  auto q = ParseQuery(ctx_, "{x | R(x) and exists y (S(x, y))}");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(CheckWellFormed(*q, ctx_.symbols()).ok());
}

TEST_F(CalculusTest, WellFormedRejectsArityConflicts) {
  auto f = ParseFormula(ctx_, "R(x) and R(x, y)");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(CheckWellFormed(*f, ctx_.symbols()).ok());
  auto g = ParseFormula(ctx_, "f(x) = y and f(x, y) = z");
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(CheckWellFormed(*g, ctx_.symbols()).ok());
}

TEST_F(CalculusTest, WellFormedRejectsShadowing) {
  auto f = ParseFormula(ctx_, "R(x) and exists x (S(x))");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(CheckWellFormed(*f, ctx_.symbols()).ok());
}

TEST_F(CalculusTest, WellFormedRejectsHeadMismatch) {
  auto q = ParseQuery(ctx_, "{x, y | R(x)}");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(CheckWellFormed(*q, ctx_.symbols()).ok());
}

TEST_F(CalculusTest, StructuralEquality) {
  auto f1 = ParseFormula(ctx_, "R(x) and f(x) = y");
  auto f2 = ParseFormula(ctx_, "R(x) and f(x) = y");
  auto f3 = ParseFormula(ctx_, "R(x) and f(x) = z");
  ASSERT_TRUE(f1.ok() && f2.ok() && f3.ok());
  EXPECT_TRUE(FormulasEqual(*f1, *f2));
  EXPECT_FALSE(FormulasEqual(*f1, *f3));
}

}  // namespace
}  // namespace emcalc
