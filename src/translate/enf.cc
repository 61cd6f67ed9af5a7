#include "src/translate/enf.h"

#include <vector>

#include "src/calculus/builder.h"
#include "src/calculus/rewrite.h"
#include "src/safety/pushnot.h"
#include "src/safety/simplify.h"

namespace emcalc {
namespace {

// ENF builds replacement nodes; each carries the source span of the node it
// rewrites, so diagnostics after ENF still point into the query text.
const Formula* Spanned(AstContext& ctx, const Formula* built,
                       const Formula* from) {
  ctx.InheritSpan(built, from);
  return built;
}

}  // namespace

const Formula* EliminateForall(AstContext& ctx, const Formula* f) {
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
      const Formula* c = EliminateForall(ctx, f->child());
      return c == f->child() ? f : Spanned(ctx, builder::Not(ctx, c), f);
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<const Formula*> children;
      bool changed = false;
      for (const Formula* c : f->children()) {
        const Formula* nc = EliminateForall(ctx, c);
        changed |= (nc != c);
        children.push_back(nc);
      }
      if (!changed) return f;
      return Spanned(ctx,
                     f->kind() == FormulaKind::kAnd
                         ? builder::And(ctx, std::move(children))
                         : builder::Or(ctx, std::move(children)),
                     f);
    }
    case FormulaKind::kExists: {
      const Formula* body = EliminateForall(ctx, f->child());
      if (body == f->child()) return f;
      std::vector<Symbol> vars(f->vars().begin(), f->vars().end());
      return Spanned(ctx, builder::Exists(ctx, std::move(vars), body), f);
    }
    case FormulaKind::kForall: {
      const Formula* body = EliminateForall(ctx, f->child());
      std::vector<Symbol> vars(f->vars().begin(), f->vars().end());
      // forall v phi -> not exists v (not phi): the inner negation stands
      // for the body, the rest for the forall itself.
      const Formula* negated =
          Spanned(ctx, builder::Not(ctx, body), f->child());
      const Formula* exists =
          Spanned(ctx, builder::Exists(ctx, std::move(vars), negated), f);
      return Spanned(ctx, builder::Not(ctx, exists), f);
    }
  }
  return f;
}

namespace {

// Bottom-up negation normalization implementing the ENF policy.
class EnfRewriter {
 public:
  EnfRewriter(AstContext& ctx, const EnfOptions& options)
      : ctx_(ctx), options_(options), bound_(ctx, options.bound) {}

  const Formula* Rewrite(const Formula* f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
      case FormulaKind::kRel:
      case FormulaKind::kEq:
      case FormulaKind::kNeq:
      case FormulaKind::kLess:
      case FormulaKind::kLessEq:
        return f;
      case FormulaKind::kNot:
        return RewriteNot(f);
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        std::vector<const Formula*> children;
        for (const Formula* c : f->children()) {
          children.push_back(Rewrite(c));
        }
        return Spanned(ctx_,
                       f->kind() == FormulaKind::kAnd
                           ? builder::And(ctx_, std::move(children))
                           : builder::Or(ctx_, std::move(children)),
                       f);
      }
      case FormulaKind::kExists: {
        const Formula* body = Rewrite(f->child());
        std::vector<Symbol> vars(f->vars().begin(), f->vars().end());
        return Spanned(ctx_, builder::Exists(ctx_, std::move(vars), body),
                       f);
      }
      case FormulaKind::kForall:
        // EliminateForall runs first; nothing should remain.
        return Rewrite(EliminateForall(ctx_, f));
    }
    return f;
  }

 private:
  const Formula* RewriteNot(const Formula* f) {
    const Formula* child = Rewrite(f->child());
    const Formula* nf =
        child == f->child() ? f
                            : Spanned(ctx_, builder::Not(ctx_, child), f);
    if (nf->kind() != FormulaKind::kNot) return Rewrite(nf);
    child = nf->child();
    switch (child->kind()) {
      case FormulaKind::kRel:
      case FormulaKind::kExists:
        return nf;  // handled by the difference operator (T15)
      case FormulaKind::kEq:
      case FormulaKind::kNeq:
      case FormulaKind::kLess:
      case FormulaKind::kLessEq:
      case FormulaKind::kNot:
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        return Rewrite(PushNotStep(ctx_, nf));
      case FormulaKind::kOr:
        // GT91 move: not (a or b) -> not a and not b, always.
        return Rewrite(PushNotStep(ctx_, nf));
      case FormulaKind::kAnd: {
        // T10: push not over a conjunction only when doing so exposes
        // bounding information (the pushed form has a non-empty bd).
        if (!options_.enable_t10) return nf;
        const Formula* pushed = PushNotStep(ctx_, nf);
        if (!bound_.Bound(pushed).empty()) return Rewrite(pushed);
        return nf;
      }
      case FormulaKind::kForall:
        return Rewrite(PushNotStep(ctx_, nf));
    }
    return nf;
  }

  AstContext& ctx_;
  EnfOptions options_;
  BoundAnalyzer bound_;
};

}  // namespace

const Formula* ToEnf(AstContext& ctx, const Formula* f,
                     const EnfOptions& options) {
  const Formula* g = Rectify(ctx, f);
  g = Simplify(ctx, g);
  g = EliminateForall(ctx, g);
  g = Simplify(ctx, g);
  EnfRewriter rewriter(ctx, options);
  g = rewriter.Rewrite(g);
  return Simplify(ctx, g);
}

bool IsEnf(const Formula* f) {
  if (!IsSimplified(f)) return false;
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kRel:
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return true;
    case FormulaKind::kForall:
      return false;
    case FormulaKind::kNot: {
      FormulaKind ck = f->child()->kind();
      if (ck != FormulaKind::kRel && ck != FormulaKind::kExists &&
          ck != FormulaKind::kAnd) {
        return false;
      }
      return IsEnf(f->child());
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      for (const Formula* c : f->children()) {
        if (!IsEnf(c)) return false;
      }
      return true;
    }
    case FormulaKind::kExists:
      return IsEnf(f->child());
  }
  return true;
}

}  // namespace emcalc
