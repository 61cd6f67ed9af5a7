#include "src/translate/ranf.h"

#include <algorithm>
#include <vector>

#include "src/calculus/analysis.h"
#include "src/calculus/builder.h"
#include "src/calculus/printer.h"

namespace emcalc {
namespace {

// True if `t` is an application of an invertible function to a single
// bare variable (the shape the inverse rules support).
bool InvertibleApp(const Term* t, const SymbolSet& invertible) {
  return t->is_apply() && invertible.Contains(t->symbol()) &&
         t->args().size() == 1 && t->args()[0]->is_var();
}

// Constructive-atom checks (see header).
bool AtomOk(const Formula* f, const SymbolSet& x,
            const SymbolSet& invertible) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return true;
    case FormulaKind::kRel: {
      // A non-variable argument may use the outer context *or* variables
      // the atom itself binds through its bare-variable positions (the
      // full T16 condition): join conditions can reference the scanned
      // relation's own columns.
      SymbolSet self_bound = x.Union(DirectVars(f->terms()));
      for (const Term* t : f->terms()) {
        if (t->is_var()) continue;
        if (!TermVars(t).IsSubsetOf(self_bound)) return false;
      }
      return true;
    }
    case FormulaKind::kEq: {
      bool l_over = TermVars(f->lhs()).IsSubsetOf(x);
      bool r_over = TermVars(f->rhs()).IsSubsetOf(x);
      bool l_ok = l_over || f->lhs()->is_var() ||
                  (r_over && InvertibleApp(f->lhs(), invertible));
      bool r_ok = r_over || f->rhs()->is_var() ||
                  (l_over && InvertibleApp(f->rhs(), invertible));
      return l_ok && r_ok && (l_over || r_over);
    }
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return TermVars(f->lhs()).IsSubsetOf(x) &&
             TermVars(f->rhs()).IsSubsetOf(x);
    default:
      return false;
  }
}

// Bottom-up worker for IsRanf. Checks RANF-ness of `f` under context `x`
// and, when it returns true, leaves f's free variables in `fv` so
// connectives reuse their children's sets. The naive formulation calls
// FreeVars on every kNot/kAnd/kOr child, re-traversing each subtree once
// per ancestor — quadratic in formula depth; this keeps the check linear,
// which matters because the stage-boundary verifier runs it on every
// compiled query.
bool IsRanfFv(const Formula* f, const SymbolSet& x,
              const SymbolSet& invertible, SymbolSet& fv) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      fv = FreeVars(f);
      return AtomOk(f, x, invertible);
    case FormulaKind::kNot:
      return IsRanfFv(f->child(), x, invertible, fv) && fv.IsSubsetOf(x);
    case FormulaKind::kAnd: {
      SymbolSet avail = x;
      SymbolSet acc;
      for (const Formula* c : f->children()) {
        SymbolSet cfv;
        if (!IsRanfFv(c, avail, invertible, cfv)) return false;
        avail = avail.Union(cfv);
        acc = acc.Union(cfv);
      }
      fv = std::move(acc);
      return true;
    }
    case FormulaKind::kOr: {
      SymbolSet acc;
      SymbolSet expected;
      bool first = true;
      for (const Formula* c : f->children()) {
        SymbolSet cfv;
        if (!IsRanfFv(c, x, invertible, cfv)) return false;
        SymbolSet introduced = cfv.Minus(x);
        if (first) {
          expected = std::move(introduced);
          first = false;
        } else if (introduced != expected) {
          return false;
        }
        acc = acc.Union(cfv);
      }
      fv = std::move(acc);
      return true;
    }
    case FormulaKind::kExists: {
      if (!IsRanfFv(f->child(), x, invertible, fv)) return false;
      std::vector<Symbol> bound(f->vars().begin(), f->vars().end());
      fv = fv.Minus(SymbolSet(std::move(bound)));
      return true;
    }
    case FormulaKind::kForall:
      return false;
  }
  return false;
}

}  // namespace

bool IsRanf(const Formula* f, const SymbolSet& x,
            const SymbolSet& invertible) {
  SymbolSet fv;
  return IsRanfFv(f, x, invertible, fv);
}

StatusOr<const Formula*> ToRanf(AstContext& ctx, const Formula* f,
                                const SymbolSet& x,
                                const SymbolSet& invertible) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq: {
      if (!AtomOk(f, x, invertible)) {
        return NotSafeError("atom not constructive under context " +
                            x.ToString(ctx.symbols()) + ": " +
                            FormulaToString(ctx, f));
      }
      return f;
    }
    case FormulaKind::kNot: {
      if (!FreeVars(f->child()).IsSubsetOf(x)) {
        return NotSafeError(
            "negation's free variables not bounded by context " +
            x.ToString(ctx.symbols()) + ": " + FormulaToString(ctx, f) +
            " (T10/T15 inapplicable)");
      }
      auto inner = ToRanf(ctx, f->child(), x, invertible);
      if (!inner.ok()) return inner;
      return builder::Not(ctx, *inner);
    }
    case FormulaKind::kAnd: {
      // The ordering walk (see the header). Translatability is monotone in
      // the context, so taking a ready conjunct never blocks another.
      std::vector<const Formula*> remaining(f->children().begin(),
                                            f->children().end());
      std::vector<const Formula*> ordered;
      std::vector<Symbol> outer;  // bound by one ∃ around the result
      SymbolSet avail = x;
      auto take_ready = [&] {
        for (auto it = remaining.begin(); it != remaining.end(); ++it) {
          auto attempt = ToRanf(ctx, *it, avail, invertible);
          if (!attempt.ok()) continue;
          avail = avail.Union(FreeVars(*it));
          ordered.push_back(*attempt);
          remaining.erase(it);
          return true;
        }
        return false;
      };
      auto unfold = [&](size_t i) {
        const Formula* c = remaining[i];
        std::vector<const Formula*> parts;
        if (c->kind() == FormulaKind::kExists) {  // inverse T14
          SymbolSet taken = x.Union(SymbolSet(outer));
          for (const Formula* o : ordered) taken = taken.Union(AllVars(o));
          for (size_t j = 0; j < remaining.size(); ++j) {
            if (j != i) taken = taken.Union(AllVars(remaining[j]));
          }
          for (Symbol q : c->vars()) {
            if (taken.Contains(q)) return false;
          }
          outer.insert(outer.end(), c->vars().begin(), c->vars().end());
          const Formula* body = c->child();
          if (body->kind() == FormulaKind::kAnd) {
            parts.assign(body->children().begin(), body->children().end());
          } else {
            parts.push_back(body);
          }
        } else if (c->kind() == FormulaKind::kRel) {  // T16
          std::vector<const Term*> args(c->terms().begin(), c->terms().end());
          for (const Term*& arg : args) {
            if (!arg->is_apply()) continue;
            Symbol w = ctx.symbols().Fresh("w");
            parts.push_back(ctx.MakeEq(arg, ctx.MakeVar(w)));
            arg = ctx.MakeVar(w);
            outer.push_back(w);
          }
          if (parts.empty()) return false;
          parts.insert(parts.begin(), ctx.MakeRel(c->rel(), args));
        } else {
          return false;
        }
        remaining[i] = parts[0];
        remaining.insert(remaining.begin() + static_cast<ptrdiff_t>(i) + 1,
                         parts.begin() + 1, parts.end());
        return true;
      };
      // T13, only on a stall: C and (A or B) -> (C and A) or (C and B),
      // with C the other remaining conjuncts in input order. The ordered
      // conjuncts stay outside. A lone disjunction has nothing to take in.
      auto distribute = [&] {
        if (remaining.size() < 2) return false;
        auto it = std::find_if(remaining.begin(), remaining.end(),
                               [](const Formula* c) {
                                 return c->kind() == FormulaKind::kOr;
                               });
        if (it == remaining.end()) return false;
        const Formula* disjunction = *it;
        std::vector<const Formula*> branches;
        for (const Formula* d : disjunction->children()) {
          *it = d;
          branches.push_back(builder::And(ctx, remaining));
        }
        remaining = {builder::Or(ctx, std::move(branches))};
        return true;
      };
      while (!remaining.empty()) {
        if (take_ready()) continue;
        size_t i = 0;
        while (i < remaining.size() && !unfold(i)) ++i;
        if (i < remaining.size() || distribute()) continue;
        std::string stuck;
        for (const Formula* r : remaining) {
          if (!stuck.empty()) stuck += " ; ";
          stuck += FormulaToString(ctx, r);
        }
        return NotSafeError("cannot order conjunction under context " +
                            avail.ToString(ctx.symbols()) +
                            "; stuck on: " + stuck);
      }
      return builder::Exists(ctx, std::move(outer),
                             builder::And(ctx, std::move(ordered)));
    }
    case FormulaKind::kOr: {
      SymbolSet expected = FreeVars(f->children()[0]).Minus(x);
      std::vector<const Formula*> children;
      for (const Formula* c : f->children()) {
        if (FreeVars(c).Minus(x) != expected) {
          return NotSafeError(
              "disjuncts bind different new variables in " +
              FormulaToString(ctx, f));
        }
        auto nc = ToRanf(ctx, c, x, invertible);
        if (!nc.ok()) return nc;
        children.push_back(*nc);
      }
      return builder::Or(ctx, std::move(children));
    }
    case FormulaKind::kExists: {
      auto body = ToRanf(ctx, f->child(), x, invertible);
      if (!body.ok()) return body;
      std::vector<Symbol> vars(f->vars().begin(), f->vars().end());
      return builder::Exists(ctx, std::move(vars), *body);
    }
    case FormulaKind::kForall:
      return NotSafeError("forall survived ENF: " + FormulaToString(ctx, f));
  }
  return NotSafeError("unhandled formula kind");
}

}  // namespace emcalc
