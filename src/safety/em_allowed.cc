#include "src/safety/em_allowed.h"

#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/safety/pushnot.h"

namespace emcalc {

std::string_view SafetyViolationCode(SafetyViolation v) {
  switch (v) {
    case SafetyViolation::kNone:
      return "";
    case SafetyViolation::kUnboundedFree:
      return "safety.unbounded-free";
    case SafetyViolation::kUnboundedQuantified:
      return "safety.unbounded-quantified";
    case SafetyViolation::kUnboundedNegated:
      return "safety.unbounded-negated";
  }
  return "";
}

SafetyResult EmAllowedChecker::CheckFormula(const Formula* f,
                                            const SymbolSet& context) {
  obs::Span span("safety.em_allowed");
  static obs::Counter& checks =
      obs::MetricsRegistry::Instance().GetCounter("safety.checks");
  static obs::Counter& rejections =
      obs::MetricsRegistry::Instance().GetCounter("safety.rejections");
  checks.Add();
  SafetyResult result = CheckImpl(f, context);
  if (!result.em_allowed) rejections.Add();
  return result;
}

SafetyResult EmAllowedChecker::MakeViolation(
    SafetyViolation v, const Formula* blamed, const Formula* checked,
    const SymbolSet& context, const SymbolSet& targets,
    std::string_view what) {
  AstContext& ctx = bound_.ctx();
  const FinDSet& bd = bound_.Bound(checked);
  SafetyResult r;
  r.em_allowed = false;
  r.violation = v;
  r.blamed = blamed;
  r.checked = checked;
  r.blame_context = context;
  r.blame_targets = targets;
  r.unbounded = targets.Minus(bd.LinearClosure(context));
  r.reason = std::string(what) + " " + targets.ToString(ctx.symbols()) +
             " not bounded in " + FormulaToString(ctx, blamed) +
             " (bd = " + bd.ToString(ctx.symbols()) + ")";
  return r;
}

SafetyResult EmAllowedChecker::CheckImpl(const Formula* f,
                                         const SymbolSet& context) {
  SafetyResult inner = CheckSubformulas(f, f, /*under_negation=*/false);
  if (!inner.em_allowed) return inner;
  SymbolSet free = FreeVars(f);
  SymbolSet targets = free.Minus(context);
  if (!bound_.Bounds(f, context, targets)) {
    return MakeViolation(SafetyViolation::kUnboundedFree, f, f, context,
                         targets, "free variables");
  }
  return SafetyResult::Accept();
}

SafetyResult EmAllowedChecker::CheckSubformulas(const Formula* f,
                                                const Formula* anchor,
                                                bool under_negation) {
  AstContext& ctx = bound_.ctx();
  // Rewritten nodes (pushed negations, quantifier duals) have inherited
  // spans where possible; fall back to the nearest spanned ancestor.
  const Formula* here = ctx.SpanOf(f) != nullptr ? f : anchor;
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return SafetyResult::Accept();
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      for (const Formula* c : f->children()) {
        SafetyResult r = CheckSubformulas(c, here, under_negation);
        if (!r.em_allowed) return r;
      }
      return SafetyResult::Accept();
    }
    case FormulaKind::kNot: {
      const Formula* pushed = PushNotStep(ctx, f);
      if (pushed == f) return SafetyResult::Accept();  // negated rel atom
      return CheckSubformulas(pushed, here, /*under_negation=*/true);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // forall Y (psi) is checked as its dual not exists Y (not psi).
      const Formula* body = f->child();
      if (f->kind() == FormulaKind::kForall) {
        const Formula* negated = ctx.MakeNot(body);
        ctx.InheritSpan(negated, body);
        const Formula* pushed = PushNotStep(ctx, negated);
        body = pushed;  // PushNotStep returns `negated` itself for rel atoms
      }
      SafetyResult r = CheckSubformulas(body, here, under_negation);
      if (!r.em_allowed) return r;
      SymbolSet qvars(std::vector<Symbol>(f->vars().begin(), f->vars().end()));
      SymbolSet subcontext = FreeVars(body).Minus(qvars);
      if (!bound_.Bounds(body, subcontext, qvars)) {
        return MakeViolation(under_negation
                                 ? SafetyViolation::kUnboundedNegated
                                 : SafetyViolation::kUnboundedQuantified,
                             here, body, subcontext, qvars,
                             "quantified variables");
      }
      return SafetyResult::Accept();
    }
  }
  return SafetyResult::Accept();
}

SafetyResult CheckEmAllowed(AstContext& ctx, const Query& q,
                            BoundOptions options) {
  EmAllowedChecker checker(ctx, options);
  return checker.Check(q);
}

SafetyResult CheckEmAllowed(AstContext& ctx, const Formula* f,
                            BoundOptions options) {
  EmAllowedChecker checker(ctx, options);
  return checker.CheckFormula(f, SymbolSet{});
}

}  // namespace emcalc
