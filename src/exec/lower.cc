#include "src/exec/lower.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/verify/verify.h"

namespace emcalc {
namespace {

// True if `e` references only left columns (side 0) / right columns
// (side 1) of a join with the given split point.
bool OnSide(const ScalarExpr* e, int split, int side) {
  switch (e->kind()) {
    case ScalarExpr::Kind::kCol:
      return side == 0 ? e->col() < split : e->col() >= split;
    case ScalarExpr::Kind::kConst:
    case ScalarExpr::Kind::kParam:
      return true;
    case ScalarExpr::Kind::kApply:
      for (const ScalarExpr* a : e->args()) {
        if (!OnSide(a, split, side)) return false;
      }
      return true;
  }
  return false;
}

// A join condition as a hashable equi-key (left_key over the left input,
// right_key over the right), or nullopt when it is not one.
std::optional<PhysicalOp::KeyPair> AsKey(const AlgCondition& c, int split) {
  if (c.op != AlgCompareOp::kEq) return std::nullopt;
  if (OnSide(c.lhs, split, 0) && OnSide(c.rhs, split, 1)) {
    return PhysicalOp::KeyPair{c.lhs, c.rhs};
  }
  if (OnSide(c.rhs, split, 0) && OnSide(c.lhs, split, 1)) {
    return PhysicalOp::KeyPair{c.rhs, c.lhs};
  }
  return std::nullopt;
}

// The paper's negation shape X - project[@1..@n](join(X, Y, C)), with n the
// arity of X and every condition of C an equi-key: it lowers to one keyed
// DiffAnti (build on Y, probe with X, keep the unmatched X rows). Consumer
// counts are checked separately.
bool IsAntiJoinShape(const AlgExpr* diff) {
  const AlgExpr* proj = diff->right();
  if (proj->kind() != AlgKind::kProject) return false;
  const AlgExpr* join = proj->input();
  if (join->kind() != AlgKind::kJoin || join->left() != diff->left() ||
      join->conds().empty()) {
    return false;
  }
  const int n = diff->left()->arity();
  if (static_cast<int>(proj->exprs().size()) != n) return false;
  for (int i = 0; i < n; ++i) {
    const ScalarExpr* e = proj->exprs()[static_cast<size_t>(i)];
    if (e->kind() != ScalarExpr::Kind::kCol || e->col() != i) return false;
  }
  for (const AlgCondition& c : join->conds()) {
    if (!AsKey(c, n).has_value()) return false;
  }
  return true;
}

}  // namespace

class Lowerer {
 public:
  Lowerer(const AstContext& ctx, const FunctionRegistry& registry,
          const ExecOptions& options, int num_params)
      : ctx_(ctx), registry_(registry) {
    plan_.registry_ = &registry;
    plan_.options_ = options;
    plan_.num_params_ = num_params;
  }

  StatusOr<PhysicalPlan> Lower(const AlgExpr* root) {
    CountRefs(root);
    // Fold each anti-join whose projection and join feed only it: they
    // never run, so X loses the consumer the join was.
    for (const AlgExpr* diff : anti_candidates_) {
      const AlgExpr* proj = diff->right();
      if (refs_[proj] == 1 && refs_[proj->input()] == 1) {
        anti_joins_.insert(diff);
        --refs_[diff->left()];
      }
    }
    auto op = LowerNode(root);
    if (!op.ok()) return op.status();
    plan_.root_ = *op;
    return std::move(plan_);
  }

 private:
  PhysicalOp* NewOp(PhysOpKind kind, int arity) {
    auto op = std::make_unique<PhysicalOp>();
    op->kind = kind;
    op->arity = arity;
    op->id = static_cast<int>(plan_.ops_.size());
    plan_.ops_.push_back(std::move(op));
    return plan_.ops_.back().get();
  }

  // Counts how many parents each logical node has; nodes referenced more
  // than once get a Materialize so shared work runs once. Differences of
  // the anti-join shape are recorded as fold candidates.
  void CountRefs(const AlgExpr* node) {
    if (++refs_[node] > 1) return;  // children already counted once
    switch (node->kind()) {
      case AlgKind::kProject:
      case AlgKind::kSelect:
        CountRefs(node->input());
        break;
      case AlgKind::kDiff:
        if (IsAntiJoinShape(node)) anti_candidates_.push_back(node);
        [[fallthrough]];
      case AlgKind::kJoin:
      case AlgKind::kUnion:
        CountRefs(node->left());
        CountRefs(node->right());
        break;
      case AlgKind::kRel:
      case AlgKind::kUnit:
      case AlgKind::kEmpty:
      case AlgKind::kAdom:
        break;  // leaves
    }
  }

  // Resolves a scalar expression's function applications, binding them
  // into the function table the programs compile against, and
  // range-checks its parameters.
  Status ResolveExpr(const ScalarExpr* e) {
    if (e->kind() == ScalarExpr::Kind::kParam &&
        e->param() >= plan_.num_params_) {
      return InvalidArgumentError(
          "parameter $" + std::string(ctx_.symbols().Name(e->param_name())) +
          " is argument " + std::to_string(e->param()) +
          " but the plan binds " + std::to_string(plan_.num_params_));
    }
    if (e->kind() == ScalarExpr::Kind::kApply) {
      std::string name(ctx_.symbols().Name(e->fn()));
      auto f = registry_.Get(name, static_cast<int>(e->args().size()));
      if (!f.ok()) return f.status();
      fns_.emplace(e->fn(), *f);
      for (const ScalarExpr* a : e->args()) {
        if (Status s = ResolveExpr(a); !s.ok()) return s;
      }
    }
    return Status::Ok();
  }

  Status ResolveConds(std::span<const AlgCondition> conds) {
    for (const AlgCondition& c : conds) {
      if (Status s = ResolveExpr(c.lhs); !s.ok()) return s;
      if (Status s = ResolveExpr(c.rhs); !s.ok()) return s;
    }
    return Status::Ok();
  }

  StatusOr<const PhysicalOp*> LowerNode(const AlgExpr* node) {
    auto it = memo_.find(node);
    if (it != memo_.end()) return it->second;
    auto lowered = LowerUnshared(node);
    if (!lowered.ok()) return lowered;
    const PhysicalOp* op = *lowered;
    auto ref = refs_.find(node);
    int consumers = ref == refs_.end() ? 1 : ref->second;
    if (consumers > 1) {
      PhysicalOp* mat = NewOp(PhysOpKind::kMaterialize, node->arity());
      mat->left = op;
      mat->memo_slot = plan_.num_memo_slots_++;
      mat->consumers = consumers;
      op = mat;
    }
    memo_.emplace(node, op);
    return op;
  }

  StatusOr<const PhysicalOp*> LowerUnshared(const AlgExpr* node) {
    switch (node->kind()) {
      case AlgKind::kRel: {
        PhysicalOp* op = NewOp(PhysOpKind::kScan, node->arity());
        op->rel_name = std::string(ctx_.symbols().Name(node->rel()));
        return op;
      }
      case AlgKind::kProject: {
        for (const ScalarExpr* e : node->exprs()) {
          if (Status s = ResolveExpr(e); !s.ok()) return s;
        }
        auto in = LowerNode(node->input());
        if (!in.ok()) return in;
        PhysicalOp* op = NewOp(PhysOpKind::kProjectMap, node->arity());
        op->exprs.assign(node->exprs().begin(), node->exprs().end());
        op->left = *in;
        // Compiled once here: constant folding, per-stage CSE, and
        // function-pointer binding all happen at lowering time.
        op->program = std::make_shared<const ScalarProgram>(
            ScalarProgram::CompileProject(op->exprs, fns_));
        return op;
      }
      case AlgKind::kSelect: {
        if (Status s = ResolveConds(node->conds()); !s.ok()) return s;
        auto in = LowerNode(node->input());
        if (!in.ok()) return in;
        PhysicalOp* op = NewOp(PhysOpKind::kFilterSelect, node->arity());
        op->conds.assign(node->conds().begin(), node->conds().end());
        op->left = *in;
        op->cond_program = std::make_shared<const ScalarProgram>(
            ScalarProgram::CompileFilter(op->conds, fns_));
        return op;
      }
      case AlgKind::kJoin:
        return LowerJoin(node);
      case AlgKind::kUnion:
      case AlgKind::kDiff: {
        if (anti_joins_.contains(node)) {
          return LowerJoin(node->right()->input(), node);
        }
        auto l = LowerNode(node->left());
        if (!l.ok()) return l;
        auto r = LowerNode(node->right());
        if (!r.ok()) return r;
        PhysicalOp* op = NewOp(node->kind() == AlgKind::kUnion
                                   ? PhysOpKind::kUnionMerge
                                   : PhysOpKind::kDiffAnti,
                               node->arity());
        op->left = *l;
        op->right = *r;
        return op;
      }
      case AlgKind::kUnit: {
        PhysicalOp* op = NewOp(PhysOpKind::kSingleton, 0);
        op->unit = true;
        return op;
      }
      case AlgKind::kEmpty:
        return NewOp(PhysOpKind::kSingleton, node->arity());
      case AlgKind::kAdom: {
        PhysicalOp* op = NewOp(PhysOpKind::kAdomScan, 1);
        op->adom_level = node->adom_level();
        for (Symbol fn : node->adom_fns()) {
          std::string name(ctx_.symbols().Name(fn));
          const ScalarFunction* f = registry_.Find(name);
          if (f == nullptr) {
            return NotFoundError("unknown scalar function '" + name + "'");
          }
          op->adom_fns.emplace_back(std::move(name), f->arity);
        }
        op->adom_consts.assign(node->adom_consts().begin(),
                               node->adom_consts().end());
        return op;
      }
    }
    return InternalError("unhandled algebra node kind in lowering");
  }

  // Joins: partition conditions into hashable equi-keys (one side from
  // each input) and residual conditions; a HashJoin is chosen only when at
  // least one key exists. With `diff` set, `join` is the folded join of
  // that anti-join difference (every condition a key, by IsAntiJoinShape)
  // and the result is a keyed DiffAnti of the difference's arity.
  StatusOr<const PhysicalOp*> LowerJoin(const AlgExpr* join,
                                        const AlgExpr* diff = nullptr) {
    if (Status s = ResolveConds(join->conds()); !s.ok()) return s;
    auto l = LowerNode(join->left());
    if (!l.ok()) return l;
    auto r = LowerNode(join->right());
    if (!r.ok()) return r;

    int split = join->left()->arity();
    std::vector<PhysicalOp::KeyPair> keys;
    std::vector<AlgCondition> residual;
    for (const AlgCondition& c : join->conds()) {
      if (auto key = AsKey(c, split)) {
        keys.push_back(*key);
      } else {
        residual.push_back(c);
      }
    }

    bool hash = !keys.empty();
    PhysicalOp* op =
        diff != nullptr
            ? NewOp(PhysOpKind::kDiffAnti, diff->arity())
            : NewOp(hash ? PhysOpKind::kHashJoin : PhysOpKind::kNestedLoopJoin,
                    join->arity());
    op->left = *l;
    op->right = *r;
    op->split = split;
    op->keys = std::move(keys);
    op->conds = std::move(residual);  // == all conditions when not hashing
    if (hash) {
      std::vector<const ScalarExpr*> probe, build;
      for (const PhysicalOp::KeyPair& k : op->keys) {
        probe.push_back(k.left_key);
        build.push_back(k.right_key);
      }
      op->program = std::make_shared<const ScalarProgram>(
          ScalarProgram::CompileProject(probe, fns_));
      op->build_program = std::make_shared<const ScalarProgram>(
          ScalarProgram::CompileProject(build, fns_, split));
    }
    if (!op->conds.empty()) {
      op->cond_program = std::make_shared<const ScalarProgram>(
          ScalarProgram::CompileFilter(op->conds, fns_));
    }
    return op;
  }

  const AstContext& ctx_;
  const FunctionRegistry& registry_;
  PhysicalPlan plan_;
  std::unordered_map<const AlgExpr*, int> refs_;
  // Differences of the anti-join shape, and those of them that fold.
  std::vector<const AlgExpr*> anti_candidates_;
  std::unordered_set<const AlgExpr*> anti_joins_;
  std::unordered_map<const AlgExpr*, const PhysicalOp*> memo_;
  // Function bindings the scalar programs compile against.
  std::unordered_map<Symbol, const ScalarFunction*> fns_;
};

StatusOr<PhysicalPlan> Lower(const AstContext& ctx, const AlgExpr* plan,
                             const FunctionRegistry& registry,
                             const ExecOptions& options, int num_params) {
  obs::Span span("exec.lower");
  static obs::Counter& lowered =
      obs::MetricsRegistry::Instance().GetCounter("exec.plans_lowered");
  lowered.Add();
  Lowerer lowerer(ctx, registry, options, num_params);
  auto physical = lowerer.Lower(plan);
  // Stage boundary 5: the physical plan must mirror the algebra plan it
  // was lowered from, operator by operator.
  if (physical.ok() && verify::Enabled()) {
    verify::VerifyReport vr = verify::VerifyPhysical(*physical, plan);
    if (!vr.ok()) return vr.ToStatus();
  }
  return physical;
}

}  // namespace emcalc
