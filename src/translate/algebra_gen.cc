#include "src/translate/algebra_gen.h"

#include <algorithm>
#include <string>

#include "src/base/symbol_set.h"
#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"

namespace emcalc {
namespace {

// Index of `v` in `cols`, or -1.
int ColumnOf(const std::vector<Symbol>& cols, Symbol v) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == v) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

StatusOr<const ScalarExpr*> AlgebraGenerator::CompileTerm(
    const Term* t, const std::vector<Symbol>& cols) {
  ExprFactory& ef = factory_.exprs();
  switch (t->kind()) {
    case Term::Kind::kVar: {
      int col = ColumnOf(cols, t->symbol());
      if (col < 0) {
        int param = ColumnOf(params_, t->symbol());
        if (param >= 0) return ef.Param(param, t->symbol());
        return InternalError("unbound variable in term compilation: " +
                             std::string(factory_.ctx().symbols().Name(
                                 t->symbol())));
      }
      return ef.Col(col);
    }
    case Term::Kind::kConst:
      return ef.Const(t->value());
    case Term::Kind::kApply: {
      std::vector<const ScalarExpr*> args;
      args.reserve(t->args().size());
      for (const Term* a : t->args()) {
        auto e = CompileTerm(a, cols);
        if (!e.ok()) return e;
        args.push_back(*e);
      }
      return ef.Apply(t->symbol(), args);
    }
  }
  return InternalError("unhandled term kind");
}

StatusOr<BoundPlan> AlgebraGenerator::ApplyRel(const BoundPlan& input,
                                               const Formula* f) {
  ExprFactory& ef = factory_.exprs();
  int split = static_cast<int>(input.cols.size());
  int rel_arity = static_cast<int>(f->terms().size());
  const AlgExpr* rel = factory_.Rel(f->rel(), rel_arity);

  // Walk the atom's arguments over the concatenated schema
  // (input.cols ++ relation columns). Pass 1 handles bare-variable
  // positions, collecting join conditions and the first binding column of
  // each new variable; pass 2 compiles constant/function arguments, which
  // may reference both the context columns and the variables this very
  // atom binds (the full T16 condition — e.g. R(f(x), x) compiles the
  // condition f(@2') == @1' over R's own columns).
  std::vector<AlgCondition> conds;
  std::vector<Symbol> new_vars;
  std::vector<int> new_var_col;  // column (in combined schema) binding it
  std::vector<Symbol> ext_cols = input.cols;  // combined-schema var map
  // Non-binding positions get a sentinel no real variable can equal.
  ext_cols.resize(static_cast<size_t>(split + rel_arity),
                  Symbol{0xffffffffu});
  // A parameter position is a condition ($p == column), handled with the
  // non-variable arguments in pass 2.
  auto binding_var = [&](const Term* t) {
    return t->is_var() && !param_set_.Contains(t->symbol());
  };
  for (int i = 0; i < rel_arity; ++i) {
    const Term* t = f->terms()[static_cast<size_t>(i)];
    if (!binding_var(t)) continue;
    int here = split + i;
    Symbol v = t->symbol();
    int bound = ColumnOf(input.cols, v);
    if (bound >= 0) {
      conds.push_back({ef.Col(bound), AlgCompareOp::kEq, ef.Col(here)});
      continue;
    }
    int first = -1;
    for (size_t j = 0; j < new_vars.size(); ++j) {
      if (new_vars[j] == v) first = new_var_col[j];
    }
    if (first >= 0) {
      conds.push_back({ef.Col(first), AlgCompareOp::kEq, ef.Col(here)});
    } else {
      new_vars.push_back(v);
      new_var_col.push_back(here);
      ext_cols[static_cast<size_t>(here)] = v;
    }
  }
  for (int i = 0; i < rel_arity; ++i) {
    const Term* t = f->terms()[static_cast<size_t>(i)];
    if (binding_var(t)) continue;
    auto e = CompileTerm(t, ext_cols);
    if (!e.ok()) return e.status();
    conds.push_back({*e, AlgCompareOp::kEq, ef.Col(split + i)});
  }

  const AlgExpr* joined = factory_.Join(std::move(conds), input.plan, rel);

  // Keep the input columns and one column per new variable.
  std::vector<const ScalarExpr*> outputs;
  std::vector<Symbol> out_cols = input.cols;
  for (int i = 0; i < split; ++i) outputs.push_back(ef.Col(i));
  for (size_t j = 0; j < new_vars.size(); ++j) {
    outputs.push_back(ef.Col(new_var_col[j]));
    out_cols.push_back(new_vars[j]);
  }
  return BoundPlan{factory_.Project(std::move(outputs), joined),
                   std::move(out_cols)};
}

StatusOr<BoundPlan> AlgebraGenerator::ApplyEq(const BoundPlan& input,
                                              const Formula* f) {
  ExprFactory& ef = factory_.exprs();
  SymbolSet bound = Bound(input.cols);
  bool l_over = TermVars(f->lhs()).IsSubsetOf(bound);
  bool r_over = TermVars(f->rhs()).IsSubsetOf(bound);
  if (l_over && r_over) {
    auto l = CompileTerm(f->lhs(), input.cols);
    if (!l.ok()) return l.status();
    auto r = CompileTerm(f->rhs(), input.cols);
    if (!r.ok()) return r.status();
    return BoundPlan{factory_.Select({{*l, AlgCompareOp::kEq, *r}}, input.plan),
                     input.cols};
  }
  // One side binds a fresh variable via extended projection.
  const Term* var_side = nullptr;
  const Term* expr_side = nullptr;
  if (r_over && f->lhs()->is_var()) {
    var_side = f->lhs();
    expr_side = f->rhs();
  } else if (l_over && f->rhs()->is_var()) {
    var_side = f->rhs();
    expr_side = f->lhs();
  } else {
    // Declared inverse: g(x) = t binds x := ginv(t), checked by g(x) == t.
    auto invertible = [this](const Term* t) {
      return t->is_apply() && inverses_.count(t->symbol()) > 0 &&
             t->args().size() == 1 && t->args()[0]->is_var();
    };
    const Term* app = nullptr;
    const Term* other = nullptr;
    if (r_over && invertible(f->lhs())) {
      app = f->lhs();
      other = f->rhs();
    } else if (l_over && invertible(f->rhs())) {
      app = f->rhs();
      other = f->lhs();
    }
    if (app != nullptr) {
      auto t_expr = CompileTerm(other, input.cols);
      if (!t_expr.ok()) return t_expr.status();
      std::vector<const ScalarExpr*> outputs;
      for (size_t i = 0; i < input.cols.size(); ++i) {
        outputs.push_back(ef.Col(static_cast<int>(i)));
      }
      Symbol inv = inverses_.at(app->symbol());
      outputs.push_back(ef.Apply(inv, std::vector<const ScalarExpr*>{
                                          *t_expr}));
      std::vector<Symbol> out_cols = input.cols;
      Symbol x = app->args()[0]->symbol();
      out_cols.push_back(x);
      const AlgExpr* bound_plan =
          factory_.Project(std::move(outputs), input.plan);
      // Membership check g(x) == t (g may not be surjective): the term t
      // keeps its column indices, x is the appended last column.
      int x_col = static_cast<int>(out_cols.size()) - 1;
      const ScalarExpr* gx = ef.Apply(
          app->symbol(), std::vector<const ScalarExpr*>{ef.Col(x_col)});
      auto t_again = CompileTerm(other, input.cols);
      if (!t_again.ok()) return t_again.status();
      return BoundPlan{
          factory_.Select({{gx, AlgCompareOp::kEq, *t_again}}, bound_plan),
          std::move(out_cols)};
    }
    return InternalError("equality not in RANF: " +
                         FormulaToString(factory_.ctx(), f));
  }
  auto e = CompileTerm(expr_side, input.cols);
  if (!e.ok()) return e.status();
  std::vector<const ScalarExpr*> outputs;
  for (size_t i = 0; i < input.cols.size(); ++i) {
    outputs.push_back(ef.Col(static_cast<int>(i)));
  }
  outputs.push_back(*e);
  std::vector<Symbol> out_cols = input.cols;
  out_cols.push_back(var_side->symbol());
  return BoundPlan{factory_.Project(std::move(outputs), input.plan),
                   std::move(out_cols)};
}

StatusOr<BoundPlan> AlgebraGenerator::ApplyOr(const BoundPlan& input,
                                              const Formula* f) {
  ExprFactory& ef = factory_.exprs();
  // Fix a common output column order: the input columns followed by the
  // new variables (sorted for determinism).
  SymbolSet bound = Bound(input.cols);
  SymbolSet new_vars = FreeVars(f).Minus(bound);
  std::vector<Symbol> out_cols = input.cols;
  out_cols.insert(out_cols.end(), new_vars.begin(), new_vars.end());

  const AlgExpr* acc = nullptr;
  for (const Formula* d : f->children()) {
    auto branch = Apply(input, d);
    if (!branch.ok()) return branch;
    // Project the branch to the common order. Every new variable must be
    // bound by the branch (RANF's union-compatibility condition).
    std::vector<const ScalarExpr*> outputs;
    for (Symbol v : out_cols) {
      int col = ColumnOf(branch->cols, v);
      if (col < 0) {
        return InternalError("disjunct does not bind " +
                             std::string(factory_.ctx().symbols().Name(v)) +
                             ": " + FormulaToString(factory_.ctx(), d));
      }
      outputs.push_back(ef.Col(col));
    }
    const AlgExpr* projected = factory_.Project(std::move(outputs),
                                                branch->plan);
    acc = acc == nullptr ? projected : factory_.Union(acc, projected);
  }
  return BoundPlan{acc, std::move(out_cols)};
}

StatusOr<BoundPlan> AlgebraGenerator::Apply(const BoundPlan& input,
                                            const Formula* f) {
  ExprFactory& ef = factory_.exprs();
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return input;
    case FormulaKind::kFalse:
      return BoundPlan{
          factory_.Empty(static_cast<int>(input.cols.size())), input.cols};
    case FormulaKind::kRel:
      return ApplyRel(input, f);
    case FormulaKind::kEq:
      return ApplyEq(input, f);
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq: {
      auto l = CompileTerm(f->lhs(), input.cols);
      if (!l.ok()) return l.status();
      auto r = CompileTerm(f->rhs(), input.cols);
      if (!r.ok()) return r.status();
      AlgCompareOp op = f->kind() == FormulaKind::kNeq ? AlgCompareOp::kNe
                        : f->kind() == FormulaKind::kLess
                            ? AlgCompareOp::kLt
                            : AlgCompareOp::kLe;
      return BoundPlan{factory_.Select({{*l, op, *r}}, input.plan),
                       input.cols};
    }
    case FormulaKind::kNot: {
      auto pos = Apply(input, f->child());
      if (!pos.ok()) return pos;
      if (pos->cols != input.cols) {
        return InternalError("negated subformula bound new variables: " +
                             FormulaToString(factory_.ctx(), f));
      }
      return BoundPlan{factory_.Diff(input.plan, pos->plan), input.cols};
    }
    case FormulaKind::kAnd: {
      BoundPlan acc = input;
      for (const Formula* c : f->children()) {
        auto next = Apply(acc, c);
        if (!next.ok()) return next;
        acc = std::move(next).value();
      }
      return acc;
    }
    case FormulaKind::kOr:
      return ApplyOr(input, f);
    case FormulaKind::kExists: {
      auto inner = Apply(input, f->child());
      if (!inner.ok()) return inner;
      SymbolSet drop(std::vector<Symbol>(f->vars().begin(), f->vars().end()));
      std::vector<const ScalarExpr*> outputs;
      std::vector<Symbol> out_cols;
      for (size_t i = 0; i < inner->cols.size(); ++i) {
        if (drop.Contains(inner->cols[i])) continue;
        outputs.push_back(ef.Col(static_cast<int>(i)));
        out_cols.push_back(inner->cols[i]);
      }
      return BoundPlan{factory_.Project(std::move(outputs), inner->plan),
                       std::move(out_cols)};
    }
    case FormulaKind::kForall:
      return InternalError("forall reached the algebra generator");
  }
  return InternalError("unhandled formula kind in generator");
}

StatusOr<const AlgExpr*> AlgebraGenerator::Translate(
    const Formula* body, const std::vector<Symbol>& head) {
  // A body that simplified to a constant cannot bind any head variable;
  // the only sound constant plans are the empty relation (false) and, for
  // boolean queries, unit (true).
  if (body->kind() == FormulaKind::kFalse) {
    return factory_.Empty(static_cast<int>(head.size()));
  }
  if (body->kind() == FormulaKind::kTrue && !head.empty()) {
    return InternalError("constant-true body with a non-empty head");
  }
  BoundPlan start{factory_.Unit(), {}};
  auto result = Apply(start, body);
  if (!result.ok()) return result.status();
  std::vector<const ScalarExpr*> outputs;
  for (Symbol v : head) {
    int col = ColumnOf(result->cols, v);
    if (col < 0) {
      return InternalError(
          "head variable not bound by body: " +
          std::string(factory_.ctx().symbols().Name(v)));
    }
    outputs.push_back(factory_.exprs().Col(col));
  }
  return factory_.Project(std::move(outputs), result->plan);
}

}  // namespace emcalc
