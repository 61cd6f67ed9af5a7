#include "src/algebra/optimizer.h"

#include <unordered_map>
#include <vector>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace emcalc {
namespace {

// Rewrites are memoized per pass so that shared subplans (plans are DAGs)
// stay shared — the evaluator memoizes multiply-referenced nodes, and
// rebuilding a shared node into two distinct copies would forfeit that.
using RewriteCache = std::unordered_map<const AlgExpr*, const AlgExpr*>;

const AlgExpr* RewriteImpl(AlgebraFactory& f, RewriteCache& cache,
                           const AlgExpr* plan);

bool IsIdentityProject(const AlgExpr* plan) {
  if (plan->kind() != AlgKind::kProject) return false;
  if (plan->arity() != plan->input()->arity()) return false;
  int i = 0;
  for (const ScalarExpr* e : plan->exprs()) {
    if (!e->is_col() || e->col() != i) return false;
    ++i;
  }
  return true;
}

// Substitutes inner projection outputs into an outer expression: column @i
// of the outer expression denotes inner.exprs()[i].
const ScalarExpr* Compose(ExprFactory& exprs, const ScalarExpr* outer,
                          std::span<const ScalarExpr* const> inner) {
  switch (outer->kind()) {
    case ScalarExpr::Kind::kCol:
      EMCALC_CHECK(outer->col() < static_cast<int>(inner.size()));
      return inner[static_cast<size_t>(outer->col())];
    case ScalarExpr::Kind::kConst:
    case ScalarExpr::Kind::kParam:
      return outer;
    case ScalarExpr::Kind::kApply: {
      std::vector<const ScalarExpr*> args;
      args.reserve(outer->args().size());
      for (const ScalarExpr* a : outer->args()) {
        args.push_back(Compose(exprs, a, inner));
      }
      return exprs.Apply(outer->fn(), args);
    }
  }
  return outer;
}

const AlgExpr* Rewrite(AlgebraFactory& f, RewriteCache& cache,
                       const AlgExpr* plan) {
  auto it = cache.find(plan);
  if (it != cache.end()) return it->second;
  const AlgExpr* out = RewriteImpl(f, cache, plan);
  cache.emplace(plan, out);
  return out;
}

const AlgExpr* RewriteImpl(AlgebraFactory& f, RewriteCache& cache,
                           const AlgExpr* plan) {
  switch (plan->kind()) {
    case AlgKind::kRel:
    case AlgKind::kUnit:
    case AlgKind::kEmpty:
    case AlgKind::kAdom:
      return plan;
    case AlgKind::kProject: {
      const AlgExpr* in = Rewrite(f, cache, plan->input());
      if (in->kind() == AlgKind::kEmpty) return f.Empty(plan->arity());
      if (in->kind() == AlgKind::kProject) {
        std::vector<const ScalarExpr*> composed;
        composed.reserve(plan->exprs().size());
        for (const ScalarExpr* e : plan->exprs()) {
          composed.push_back(Compose(f.exprs(), e, in->exprs()));
        }
        return Rewrite(f, cache, f.Project(std::move(composed), in->input()));
      }
      const AlgExpr* out =
          in == plan->input()
              ? plan
              : f.Project(std::vector<const ScalarExpr*>(
                              plan->exprs().begin(), plan->exprs().end()),
                          in);
      return IsIdentityProject(out) ? out->input() : out;
    }
    case AlgKind::kSelect: {
      const AlgExpr* in = Rewrite(f, cache, plan->input());
      if (plan->conds().empty()) return in;
      if (in->kind() == AlgKind::kEmpty) return f.Empty(plan->arity());
      if (in->kind() == AlgKind::kSelect) {
        std::vector<AlgCondition> merged(in->conds().begin(),
                                         in->conds().end());
        merged.insert(merged.end(), plan->conds().begin(),
                      plan->conds().end());
        return f.Select(std::move(merged), in->input());
      }
      if (in->kind() == AlgKind::kJoin) {
        // Fold the selection into the join's condition set (both evaluate
        // over the same concatenated schema). This is what makes the
        // physical lowering pass (src/exec/lower.cc) see the equality
        // conditions and choose a HashJoin instead of a NestedLoopJoin
        // followed by a filter.
        std::vector<AlgCondition> merged(in->conds().begin(),
                                         in->conds().end());
        merged.insert(merged.end(), plan->conds().begin(),
                      plan->conds().end());
        return Rewrite(f, cache,
                       f.Join(std::move(merged), in->left(), in->right()));
      }
      if (in->kind() == AlgKind::kProject) {
        // Push the selection under the projection by composing its
        // condition expressions with the projection outputs.
        std::vector<AlgCondition> pushed;
        pushed.reserve(plan->conds().size());
        for (const AlgCondition& c : plan->conds()) {
          pushed.push_back({Compose(f.exprs(), c.lhs, in->exprs()), c.op,
                            Compose(f.exprs(), c.rhs, in->exprs())});
        }
        std::vector<const ScalarExpr*> exprs(in->exprs().begin(),
                                             in->exprs().end());
        return Rewrite(
            f, cache,
            f.Project(std::move(exprs),
                      f.Select(std::move(pushed), in->input())));
      }
      if (in == plan->input()) return plan;
      return f.Select(
          std::vector<AlgCondition>(plan->conds().begin(),
                                    plan->conds().end()),
          in);
    }
    case AlgKind::kJoin: {
      const AlgExpr* l = Rewrite(f, cache, plan->left());
      const AlgExpr* r = Rewrite(f, cache, plan->right());
      if (l->kind() == AlgKind::kEmpty || r->kind() == AlgKind::kEmpty) {
        return f.Empty(plan->arity());
      }
      std::vector<AlgCondition> conds(plan->conds().begin(),
                                      plan->conds().end());
      // join({..}, unit, E) and join({..}, E, unit): the concatenated
      // schema equals E's schema, so the join degenerates to a selection.
      if (l->kind() == AlgKind::kUnit) {
        return Rewrite(f, cache, f.Select(std::move(conds), r));
      }
      if (r->kind() == AlgKind::kUnit) {
        return Rewrite(f, cache, f.Select(std::move(conds), l));
      }
      if (l == plan->left() && r == plan->right()) return plan;
      return f.Join(std::move(conds), l, r);
    }
    case AlgKind::kUnion: {
      const AlgExpr* l = Rewrite(f, cache, plan->left());
      const AlgExpr* r = Rewrite(f, cache, plan->right());
      if (l->kind() == AlgKind::kEmpty) return r;
      if (r->kind() == AlgKind::kEmpty) return l;
      if (l == plan->left() && r == plan->right()) return plan;
      return f.Union(l, r);
    }
    case AlgKind::kDiff: {
      const AlgExpr* l = Rewrite(f, cache, plan->left());
      const AlgExpr* r = Rewrite(f, cache, plan->right());
      if (l->kind() == AlgKind::kEmpty) return f.Empty(plan->arity());
      if (r->kind() == AlgKind::kEmpty) return l;
      if (l == plan->left() && r == plan->right()) return plan;
      return f.Diff(l, r);
    }
  }
  return plan;
}

}  // namespace

const AlgExpr* OptimizePlan(AlgebraFactory& factory, const AlgExpr* plan) {
  obs::Span span("algebra.optimize");
  static obs::Counter& runs =
      obs::MetricsRegistry::Instance().GetCounter("optimizer.runs");
  static obs::Counter& passes =
      obs::MetricsRegistry::Instance().GetCounter("optimizer.passes");
  runs.Add();
  // Rewrite() is single-pass bottom-up with local re-runs; iterate to a
  // fixpoint (plans are small, a handful of passes suffices).
  for (int i = 0; i < 8; ++i) {
    passes.Add();
    RewriteCache cache;
    const AlgExpr* next = Rewrite(factory, cache, plan);
    if (next == plan) break;
    plan = next;
  }
  return plan;
}

}  // namespace emcalc
