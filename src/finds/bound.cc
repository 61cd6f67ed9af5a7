#include "src/finds/bound.h"

#include "src/calculus/analysis.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/safety/pushnot.h"

namespace emcalc {
namespace {

// bd for an equality atom t1 = t2 (rule B3). An equality bounds a variable
// side by the variables of the other side: knowing x1..xn confines
// f(x1..xn) to a single value. Function inverses are not used by default —
// knowing f(x) = c does not bound x (Section 1 of the paper) — unless the
// function was declared invertible (BoundOptions::invertible_fns).
FinDSet EqualityBound(const Formula* f, const SymbolSet& invertible) {
  FinDSet out;
  const Term* l = f->lhs();
  const Term* r = f->rhs();
  if (l->is_var()) out.Add(FinD{TermVars(r), SymbolSet{l->symbol()}});
  if (r->is_var()) out.Add(FinD{TermVars(l), SymbolSet{r->symbol()}});
  // Declared inverses: g(x) = t bounds x from vars(t).
  auto inverse_bound = [&out, &invertible](const Term* app, const Term* other) {
    if (app->is_apply() && invertible.Contains(app->symbol()) &&
        app->args().size() == 1 && app->args()[0]->is_var()) {
      out.Add(FinD{TermVars(other), SymbolSet{app->args()[0]->symbol()}});
    }
  };
  inverse_bound(l, r);
  inverse_bound(r, l);
  return out;
}

}  // namespace

const FinDSet& BoundAnalyzer::Bound(const Formula* f) {
  auto it = cache_.find(f);
  if (it != cache_.end()) return it->second;
  ++computations_;
  static obs::Counter& computations =
      obs::MetricsRegistry::Instance().GetCounter("finds.bd_computations");
  computations.Add();
  // Cache misses only: nested bd spans trace the FinD closure recursion.
  obs::Span span("finds.bd");
  return cache_.emplace(f, Compute(f)).first->second;
}

FinDSet BoundAnalyzer::Compute(const Formula* f) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return FinDSet();  // B1
    case FormulaKind::kRel: {  // B2
      SymbolSet direct = DirectVars(f->terms());
      FinDSet out;
      if (!direct.empty()) out.Add(FinD{SymbolSet{}, direct});
      return out;
    }
    case FormulaKind::kEq:  // B3
      return EqualityBound(f, options_.invertible_fns);
    case FormulaKind::kNeq:   // B4
    case FormulaKind::kLess:  // Section 9(d): external predicates give no
    case FormulaKind::kLessEq:  // bounding information
      return FinDSet();
    case FormulaKind::kNot: {  // B5 / B6
      const Formula* pushed = PushNotStep(ctx_, f);
      if (pushed == f) return FinDSet();  // negated relation atom
      return Bound(pushed);
    }
    case FormulaKind::kAnd: {  // B7
      FinDSet out;
      for (const Formula* c : f->children()) out.AddAll(Bound(c));
      return options_.use_reduced_covers ? out.Reduce() : out;
    }
    case FormulaKind::kOr: {  // B8
      SymbolSet vars = FreeVars(f);
      bool exact = options_.exact_max_vars > 0 &&
                   static_cast<int>(vars.size()) <= options_.exact_max_vars;
      FinDSet acc = Bound(f->children()[0]);
      for (size_t i = 1; i < f->children().size(); ++i) {
        const FinDSet& next = Bound(f->children()[i]);
        acc = exact ? acc.MeetExact(next, vars)
                    : acc.Meet(next, vars, options_.use_reduced_covers);
      }
      // Meet results are already reduced; restrict to the free variables
      // (quantified-away variables of the disjuncts cannot escape anyway
      // since Meet was taken over `vars`).
      return acc;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {  // B9 / B10
      SymbolSet remaining = FreeVars(f);
      const FinDSet& inner = Bound(f->child());
      bool exact = options_.exact_max_vars > 0 &&
                   static_cast<int>(remaining.size()) + 0 <=
                       options_.exact_max_vars &&
                   static_cast<int>(inner.Vars().size()) <= 16;
      FinDSet projected =
          exact ? inner.RestrictExact(remaining) : inner.Restrict(remaining);
      return projected;
    }
  }
  return FinDSet();
}

bool BoundAnalyzer::Bounds(const Formula* f, const SymbolSet& context,
                           const SymbolSet& targets) {
  return Bound(f).Entails(context, targets);
}

FinDSet BoundingFinDs(AstContext& ctx, const Formula* f,
                      BoundOptions options) {
  BoundAnalyzer analyzer(ctx, options);
  return analyzer.Bound(f);
}

}  // namespace emcalc
