#include "src/calculus/rewrite.h"

#include <vector>

#include "src/base/symbol_set.h"
#include "src/calculus/analysis.h"

namespace emcalc {
namespace {

// Rewrites carry the original node's source span onto its replacement so
// diagnostics on rewritten trees still point into the query text.
template <typename NodeT>
const NodeT* Spanned(AstContext& ctx, const NodeT* built, const NodeT* from) {
  ctx.InheritSpan(built, from);
  return built;
}

}  // namespace

const Term* SubstituteTerm(AstContext& ctx, const Term* t,
                           const Substitution& sub) {
  switch (t->kind()) {
    case Term::Kind::kVar: {
      auto it = sub.find(t->symbol());
      return it == sub.end() ? t : it->second;
    }
    case Term::Kind::kConst:
      return t;
    case Term::Kind::kApply: {
      std::vector<const Term*> args;
      args.reserve(t->args().size());
      bool changed = false;
      for (const Term* a : t->args()) {
        const Term* na = SubstituteTerm(ctx, a, sub);
        changed |= (na != a);
        args.push_back(na);
      }
      return changed ? Spanned(ctx, ctx.MakeApply(t->symbol(), args), t) : t;
    }
  }
  return t;
}

namespace {

// Variables occurring in the terms of `sub` (its "range variables") plus its
// domain — the set a quantifier must avoid to prevent capture.
SymbolSet SubstitutionVars(const Substitution& sub) {
  std::vector<Symbol> vars;
  for (const auto& [from, to] : sub) {
    vars.push_back(from);
    SymbolSet tv = TermVars(to);
    vars.insert(vars.end(), tv.begin(), tv.end());
  }
  return SymbolSet(std::move(vars));
}

}  // namespace

const Formula* SubstituteFormula(AstContext& ctx, const Formula* f,
                                 const Substitution& sub) {
  if (sub.empty()) return f;
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return f;
    case FormulaKind::kRel: {
      std::vector<const Term*> args;
      args.reserve(f->terms().size());
      bool changed = false;
      for (const Term* t : f->terms()) {
        const Term* nt = SubstituteTerm(ctx, t, sub);
        changed |= (nt != t);
        args.push_back(nt);
      }
      return changed ? Spanned(ctx, ctx.MakeRel(f->rel(), args), f) : f;
    }
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq: {
      const Term* l = SubstituteTerm(ctx, f->lhs(), sub);
      const Term* r = SubstituteTerm(ctx, f->rhs(), sub);
      if (l == f->lhs() && r == f->rhs()) return f;
      switch (f->kind()) {
        case FormulaKind::kEq:
          return Spanned(ctx, ctx.MakeEq(l, r), f);
        case FormulaKind::kNeq:
          return Spanned(ctx, ctx.MakeNeq(l, r), f);
        case FormulaKind::kLess:
          return Spanned(ctx, ctx.MakeLess(l, r), f);
        default:
          return Spanned(ctx, ctx.MakeLessEq(l, r), f);
      }
    }
    case FormulaKind::kNot: {
      const Formula* c = SubstituteFormula(ctx, f->child(), sub);
      return c == f->child() ? f : Spanned(ctx, ctx.MakeNot(c), f);
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<const Formula*> children;
      children.reserve(f->children().size());
      bool changed = false;
      for (const Formula* c : f->children()) {
        const Formula* nc = SubstituteFormula(ctx, c, sub);
        changed |= (nc != c);
        children.push_back(nc);
      }
      if (!changed) return f;
      return Spanned(ctx,
                     f->kind() == FormulaKind::kAnd ? ctx.MakeAnd(children)
                                                    : ctx.MakeOr(children),
                     f);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // Drop substitutions shadowed by the quantifier; rename quantified
      // variables that would capture range variables.
      Substitution inner = sub;
      for (Symbol v : f->vars()) inner.erase(v);
      if (inner.empty()) return f;
      SymbolSet avoid = SubstitutionVars(inner);
      std::vector<Symbol> vars(f->vars().begin(), f->vars().end());
      Substitution renames;
      for (Symbol& v : vars) {
        if (avoid.Contains(v)) {
          Symbol fresh = ctx.symbols().Fresh(ctx.symbols().Name(v));
          renames.emplace(v, ctx.MakeVar(fresh));
          v = fresh;
        }
      }
      const Formula* body = f->child();
      if (!renames.empty()) body = SubstituteFormula(ctx, body, renames);
      const Formula* new_body = SubstituteFormula(ctx, body, inner);
      if (new_body == f->child() && renames.empty()) return f;
      return Spanned(ctx,
                     f->kind() == FormulaKind::kExists
                         ? ctx.MakeExists(vars, new_body)
                         : ctx.MakeForall(vars, new_body),
                     f);
    }
  }
  return f;
}

namespace {

const Formula* RectifyRec(AstContext& ctx, const Formula* f,
                          SymbolSet& used) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return f;
    case FormulaKind::kNot: {
      const Formula* c = RectifyRec(ctx, f->child(), used);
      return c == f->child() ? f : Spanned(ctx, ctx.MakeNot(c), f);
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<const Formula*> children;
      bool changed = false;
      for (const Formula* c : f->children()) {
        const Formula* nc = RectifyRec(ctx, c, used);
        changed |= (nc != c);
        children.push_back(nc);
      }
      if (!changed) return f;
      return Spanned(ctx,
                     f->kind() == FormulaKind::kAnd ? ctx.MakeAnd(children)
                                                    : ctx.MakeOr(children),
                     f);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      std::vector<Symbol> vars(f->vars().begin(), f->vars().end());
      Substitution renames;
      for (Symbol& v : vars) {
        if (used.Contains(v)) {
          Symbol fresh = ctx.symbols().Fresh(ctx.symbols().Name(v));
          renames.emplace(v, ctx.MakeVar(fresh));
          v = fresh;
        }
        used.Insert(v);
      }
      const Formula* body = f->child();
      if (!renames.empty()) body = SubstituteFormula(ctx, body, renames);
      const Formula* new_body = RectifyRec(ctx, body, used);
      if (new_body == f->child() && renames.empty()) return f;
      return Spanned(ctx,
                     f->kind() == FormulaKind::kExists
                         ? ctx.MakeExists(vars, new_body)
                         : ctx.MakeForall(vars, new_body),
                     f);
    }
  }
  return f;
}

}  // namespace

const Formula* Rectify(AstContext& ctx, const Formula* f) {
  SymbolSet used = FreeVars(f);
  return RectifyRec(ctx, f, used);
}

}  // namespace emcalc
