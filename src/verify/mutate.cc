#include "src/verify/mutate.h"

#include <utility>
#include <vector>

#include "src/algebra/expr.h"

namespace emcalc::verify {

namespace {

struct MutationInfo {
  Mutation m;
  const char* name;
  const char* rule;
};

constexpr MutationInfo kMutations[] = {
    {Mutation::kAlgProjectArityUp, "alg-project-arity-up",
     "alg.project-arity"},
    {Mutation::kAlgProjectDropExpr, "alg-project-drop-expr",
     "alg.project-arity"},
    {Mutation::kAlgProjectNullExpr, "alg-project-null-expr", "alg.expr-null"},
    {Mutation::kAlgProjectDanglingCol, "alg-project-dangling-col",
     "alg.col-range"},
    {Mutation::kAlgSelectDanglingCol, "alg-select-dangling-col",
     "alg.col-range"},
    {Mutation::kAlgSelectNullCond, "alg-select-null-cond", "alg.cond-null"},
    {Mutation::kAlgSelectArityUp, "alg-select-arity-up", "alg.select-arity"},
    {Mutation::kAlgJoinDanglingCol, "alg-join-dangling-col", "alg.col-range"},
    {Mutation::kAlgJoinArityDown, "alg-join-arity-down", "alg.join-arity"},
    {Mutation::kAlgUnionArityUp, "alg-union-arity-up", "alg.union-arity"},
    {Mutation::kAlgDiffOperandMismatch, "alg-diff-operand-mismatch",
     "alg.diff-arity"},
    {Mutation::kAlgRelNegativeArity, "alg-rel-negative-arity",
     "alg.rel-arity"},
    {Mutation::kAlgUnitNonZeroArity, "alg-unit-nonzero-arity",
     "alg.unit-arity"},
    {Mutation::kAlgConstOutOfPool, "alg-const-out-of-pool", "alg.const-pool"},
    {Mutation::kAlgParamOutOfRange, "alg-param-out-of-range",
     "alg.param-range"},
    {Mutation::kAlgDropInputChild, "alg-drop-input-child",
     "alg.child-missing"},
    {Mutation::kAlgLeafExtraChild, "alg-leaf-extra-child", "alg.child-extra"},
    {Mutation::kAlgInjectAdom, "alg-inject-adom", "alg.adom-in-plan"},
    {Mutation::kAlgSelfCycle, "alg-self-cycle", "alg.cycle"},
    {Mutation::kPhysProjectDropExpr, "phys-project-drop-expr",
     "phys.project-arity"},
    {Mutation::kPhysProjectDanglingCol, "phys-project-dangling-col",
     "phys.col-range"},
    {Mutation::kPhysFilterDanglingCol, "phys-filter-dangling-col",
     "phys.col-range"},
    {Mutation::kPhysFilterNullCond, "phys-filter-null-cond",
     "phys.cond-null"},
    {Mutation::kPhysJoinNullKey, "phys-join-null-key", "phys.key-null"},
    {Mutation::kPhysJoinKeyWrongSide, "phys-join-key-wrong-side",
     "phys.key-side"},
    {Mutation::kPhysJoinSplitSkew, "phys-join-split-skew",
     "phys.join-split"},
    {Mutation::kPhysSwapJoinInputs, "phys-swap-join-inputs",
     "phys.join-split"},
    {Mutation::kPhysJoinDropProgram, "phys-join-drop-program",
     "phys.program"},
    {Mutation::kPhysAntiSplitSkew, "phys-anti-split-skew", "phys.arity"},
    {Mutation::kPhysAntiKeyMismatch, "phys-anti-key-mismatch",
     "phys.anti-shape"},
    {Mutation::kPhysScanArityUp, "phys-scan-arity-up", "phys.mirror"},
    {Mutation::kPhysUnionArityUp, "phys-union-arity-up", "phys.arity"},
    {Mutation::kPhysMemoDuplicate, "phys-memo-duplicate", "phys.memo-dup"},
    {Mutation::kPhysMemoOutOfRange, "phys-memo-out-of-range", "phys.memo"},
    {Mutation::kPhysConsumersUnderflow, "phys-consumers-underflow",
     "phys.memo"},
    {Mutation::kPhysDuplicateOpId, "phys-duplicate-op-id", "phys.op-id"},
    {Mutation::kPhysDropChild, "phys-drop-child", "phys.children"},
};

const MutationInfo& Info(Mutation m) {
  for (const MutationInfo& info : kMutations) {
    if (info.m == m) return info;
  }
  return kMutations[0];  // unreachable for valid enumerators
}

}  // namespace

const char* MutationName(Mutation m) { return Info(m).name; }

const char* ExpectedRule(Mutation m) { return Info(m).rule; }

bool IsPhysicalMutation(Mutation m) {
  return static_cast<uint8_t>(m) >=
         static_cast<uint8_t>(Mutation::kPhysProjectDropExpr);
}

AlgExpr* PlanMutator::NewLeaf(AlgKind kind, int arity) {
  AlgExpr* e = ctx_.arena().New<AlgExpr>();
  e->kind_ = kind;
  e->arity_ = arity;
  return e;
}

// Deep copy preserving DAG sharing, so the original plan stays intact
// while the clone's private fields can be edited freely.
AlgExpr* PlanMutator::Clone(const AlgExpr* node) {
  auto it = clones_.find(node);
  if (it != clones_.end()) return it->second;
  AlgExpr* copy = ctx_.arena().New<AlgExpr>(*node);
  if (node->left_ != nullptr) copy->left_ = Clone(node->left_);
  if (node->right_ != nullptr) copy->right_ = Clone(node->right_);
  clones_.emplace(node, copy);
  return copy;
}

// The mutable clone of the first node of `kind` in preorder, or nullptr.
AlgExpr* PlanMutator::FindFirst(const AlgExpr* original, AlgKind kind) {
  if (original == nullptr) return nullptr;
  if (original->kind() == kind) return clones_.at(original);
  if (AlgExpr* found = FindFirst(original->left_, kind)) return found;
  return FindFirst(original->right_, kind);
}

const AlgExpr* PlanMutator::Corrupt(const AlgExpr* plan, Mutation m) {
  clones_.clear();
  AlgExpr* root = Clone(plan);
  ExprFactory exprs(ctx_);

  // Replaces a node's condition array (conds live in the arena).
  auto set_conds = [&](AlgExpr* node, std::vector<AlgCondition> conds) {
    node->conds_ =
        ctx_.arena().NewArray<AlgCondition>(conds.data(), conds.size());
    node->num_conds_ = static_cast<uint32_t>(conds.size());
  };
  auto set_exprs = [&](AlgExpr* node, std::vector<const ScalarExpr*> es) {
    node->exprs_ =
        ctx_.arena().NewArray<const ScalarExpr*>(es.data(), es.size());
    node->num_exprs_ = static_cast<uint32_t>(es.size());
  };
  auto project_exprs = [](const AlgExpr* node) {
    return std::vector<const ScalarExpr*>(node->exprs().begin(),
                                          node->exprs().end());
  };

  switch (m) {
    case Mutation::kAlgProjectArityUp: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr) return nullptr;
      node->arity_ += 1;
      return root;
    }
    case Mutation::kAlgProjectDropExpr: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr || node->num_exprs_ == 0) return nullptr;
      node->num_exprs_ -= 1;
      return root;
    }
    case Mutation::kAlgProjectNullExpr: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr || node->num_exprs_ == 0) return nullptr;
      std::vector<const ScalarExpr*> es = project_exprs(node);
      es[0] = nullptr;
      set_exprs(node, std::move(es));
      return root;
    }
    case Mutation::kAlgProjectDanglingCol: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr || node->num_exprs_ == 0) return nullptr;
      std::vector<const ScalarExpr*> es = project_exprs(node);
      es[0] = exprs.Col(node->input()->arity());
      set_exprs(node, std::move(es));
      return root;
    }
    case Mutation::kAlgSelectDanglingCol: {
      AlgExpr* node = FindFirst(plan, AlgKind::kSelect);
      if (node == nullptr) return nullptr;
      std::vector<AlgCondition> conds(node->conds().begin(),
                                      node->conds().end());
      conds.push_back({exprs.Col(node->input()->arity()), AlgCompareOp::kEq,
                       exprs.Col(0)});
      set_conds(node, std::move(conds));
      return root;
    }
    case Mutation::kAlgSelectNullCond: {
      AlgExpr* node = FindFirst(plan, AlgKind::kSelect);
      if (node == nullptr) return nullptr;
      std::vector<AlgCondition> conds(node->conds().begin(),
                                      node->conds().end());
      conds.push_back({nullptr, AlgCompareOp::kEq, nullptr});
      set_conds(node, std::move(conds));
      return root;
    }
    case Mutation::kAlgSelectArityUp: {
      AlgExpr* node = FindFirst(plan, AlgKind::kSelect);
      if (node == nullptr) return nullptr;
      node->arity_ += 1;
      return root;
    }
    case Mutation::kAlgJoinDanglingCol: {
      AlgExpr* node = FindFirst(plan, AlgKind::kJoin);
      if (node == nullptr) return nullptr;
      std::vector<AlgCondition> conds(node->conds().begin(),
                                      node->conds().end());
      conds.push_back({exprs.Col(node->arity()), AlgCompareOp::kEq,
                       exprs.Col(0)});
      set_conds(node, std::move(conds));
      return root;
    }
    case Mutation::kAlgJoinArityDown: {
      AlgExpr* node = FindFirst(plan, AlgKind::kJoin);
      if (node == nullptr) return nullptr;
      node->arity_ -= 1;
      return root;
    }
    case Mutation::kAlgUnionArityUp: {
      AlgExpr* node = FindFirst(plan, AlgKind::kUnion);
      if (node == nullptr) return nullptr;
      node->arity_ += 1;
      return root;
    }
    case Mutation::kAlgDiffOperandMismatch: {
      AlgExpr* node = FindFirst(plan, AlgKind::kDiff);
      if (node == nullptr) return nullptr;
      node->right_ = NewLeaf(AlgKind::kEmpty, node->left()->arity() + 1);
      return root;
    }
    case Mutation::kAlgRelNegativeArity: {
      AlgExpr* node = FindFirst(plan, AlgKind::kRel);
      if (node == nullptr) return nullptr;
      node->arity_ = -1;
      return root;
    }
    case Mutation::kAlgUnitNonZeroArity: {
      AlgExpr* node = FindFirst(plan, AlgKind::kUnit);
      if (node == nullptr) return nullptr;
      node->arity_ = 1;
      return root;
    }
    case Mutation::kAlgConstOutOfPool: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr || node->num_exprs_ == 0) return nullptr;
      std::vector<const ScalarExpr*> es = project_exprs(node);
      es[0] = exprs.Const(
          static_cast<uint32_t>(ctx_.NumConstants()) + 7);
      set_exprs(node, std::move(es));
      return root;
    }
    case Mutation::kAlgParamOutOfRange: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr || node->num_exprs_ == 0) return nullptr;
      std::vector<const ScalarExpr*> es = project_exprs(node);
      // Far beyond the parameter list of any query the harness verifies.
      es[0] = exprs.Param(1000, ctx_.symbols().Intern("p"));
      set_exprs(node, std::move(es));
      return root;
    }
    case Mutation::kAlgDropInputChild: {
      AlgExpr* node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr) node = FindFirst(plan, AlgKind::kSelect);
      if (node == nullptr) return nullptr;
      node->left_ = nullptr;
      return root;
    }
    case Mutation::kAlgLeafExtraChild: {
      AlgExpr* node = FindFirst(plan, AlgKind::kRel);
      if (node == nullptr) return nullptr;
      node->left_ = NewLeaf(AlgKind::kUnit, 0);
      return root;
    }
    case Mutation::kAlgInjectAdom: {
      AlgExpr* node = FindFirst(plan, AlgKind::kRel);
      if (node == nullptr) return nullptr;
      node->kind_ = AlgKind::kAdom;
      node->arity_ = 1;
      node->adom_level_ = 0;
      return root;
    }
    case Mutation::kAlgSelfCycle: {
      AlgExpr* node = FindFirst(plan, AlgKind::kSelect);
      if (node == nullptr) node = FindFirst(plan, AlgKind::kProject);
      if (node == nullptr) return nullptr;
      node->left_ = node;
      return root;
    }
    default:
      return nullptr;  // physical mutation passed to the algebra overload
  }
}

bool PlanMutator::Corrupt(PhysicalPlan& plan, Mutation m) {
  ExprFactory exprs(ctx_);
  // First operator of a kind, in creation order.
  auto find = [&](PhysOpKind kind) -> PhysicalOp* {
    for (const auto& op : plan.ops_) {
      if (op->kind == kind) return op.get();
    }
    return nullptr;
  };
  // First DiffAnti in anti-join form (non-empty keys).
  auto anti_join = [&]() -> PhysicalOp* {
    for (const auto& op : plan.ops_) {
      if (op->kind == PhysOpKind::kDiffAnti && !op->keys.empty()) {
        return op.get();
      }
    }
    return nullptr;
  };

  switch (m) {
    case Mutation::kPhysProjectDropExpr: {
      PhysicalOp* op = find(PhysOpKind::kProjectMap);
      if (op == nullptr || op->exprs.empty()) return false;
      op->exprs.pop_back();
      return true;
    }
    case Mutation::kPhysProjectDanglingCol: {
      PhysicalOp* op = find(PhysOpKind::kProjectMap);
      if (op == nullptr || op->exprs.empty() || op->left == nullptr) {
        return false;
      }
      op->exprs[0] = exprs.Col(op->left->arity);
      return true;
    }
    case Mutation::kPhysFilterDanglingCol: {
      PhysicalOp* op = find(PhysOpKind::kFilterSelect);
      if (op == nullptr) return false;
      op->conds.push_back(
          {exprs.Col(op->arity), AlgCompareOp::kEq, exprs.Col(0)});
      return true;
    }
    case Mutation::kPhysFilterNullCond: {
      PhysicalOp* op = find(PhysOpKind::kFilterSelect);
      if (op == nullptr) return false;
      op->conds.push_back({nullptr, AlgCompareOp::kEq, nullptr});
      return true;
    }
    case Mutation::kPhysJoinNullKey: {
      PhysicalOp* op = find(PhysOpKind::kHashJoin);
      if (op == nullptr || op->keys.empty()) return false;
      op->keys[0].left_key = nullptr;
      return true;
    }
    case Mutation::kPhysJoinKeyWrongSide: {
      PhysicalOp* op = find(PhysOpKind::kHashJoin);
      if (op == nullptr || op->keys.empty()) return false;
      // A probe key must read only left (probe-side) columns; point it at
      // the first build-side column instead.
      op->keys[0].left_key = exprs.Col(op->split);
      return true;
    }
    case Mutation::kPhysJoinSplitSkew: {
      PhysicalOp* op = find(PhysOpKind::kHashJoin);
      if (op == nullptr) op = find(PhysOpKind::kNestedLoopJoin);
      if (op == nullptr) return false;
      op->split += 1;
      return true;
    }
    case Mutation::kPhysSwapJoinInputs: {
      PhysicalOp* op = find(PhysOpKind::kHashJoin);
      if (op == nullptr) op = find(PhysOpKind::kNestedLoopJoin);
      if (op == nullptr || op->left == nullptr || op->right == nullptr ||
          op->left->arity == op->right->arity) {
        return false;  // equal arities would keep the split consistent
      }
      std::swap(op->left, op->right);
      return true;
    }
    case Mutation::kPhysJoinDropProgram: {
      PhysicalOp* op = find(PhysOpKind::kHashJoin);
      if (op == nullptr) return false;
      op->build_program = nullptr;
      return true;
    }
    case Mutation::kPhysAntiSplitSkew: {
      PhysicalOp* op = anti_join();
      if (op == nullptr) return false;
      op->split += 1;
      return true;
    }
    case Mutation::kPhysAntiKeyMismatch: {
      // The probe key computes a constant instead of the join condition's
      // expression; programs, columns and sides all stay well-formed.
      PhysicalOp* op = anti_join();
      if (op == nullptr) return false;
      const ScalarExpr* wrong = exprs.ConstValue(Value::Int(-1));
      if (ScalarExprsEqual(op->keys[0].left_key, wrong)) return false;
      op->keys[0].left_key = wrong;
      return true;
    }
    case Mutation::kPhysScanArityUp: {
      PhysicalOp* op = find(PhysOpKind::kScan);
      if (op == nullptr) return false;
      op->arity += 1;
      return true;
    }
    case Mutation::kPhysUnionArityUp: {
      PhysicalOp* op = find(PhysOpKind::kUnionMerge);
      if (op == nullptr) return false;
      op->arity += 1;
      return true;
    }
    case Mutation::kPhysMemoDuplicate: {
      PhysicalOp* first = nullptr;
      for (const auto& op : plan.ops_) {
        if (op->kind != PhysOpKind::kMaterialize) continue;
        if (first == nullptr) {
          first = op.get();
        } else {
          op->memo_slot = first->memo_slot;
          return true;
        }
      }
      return false;
    }
    case Mutation::kPhysMemoOutOfRange: {
      PhysicalOp* op = find(PhysOpKind::kMaterialize);
      if (op == nullptr) return false;
      op->memo_slot = plan.num_memo_slots_ + 3;
      return true;
    }
    case Mutation::kPhysConsumersUnderflow: {
      PhysicalOp* op = find(PhysOpKind::kMaterialize);
      if (op == nullptr) return false;
      op->consumers = 1;
      return true;
    }
    case Mutation::kPhysDuplicateOpId: {
      if (plan.ops_.size() < 2) return false;
      plan.ops_[1]->id = plan.ops_[0]->id;
      return true;
    }
    case Mutation::kPhysDropChild: {
      PhysicalOp* op = find(PhysOpKind::kProjectMap);
      if (op == nullptr) op = find(PhysOpKind::kFilterSelect);
      if (op == nullptr) return false;
      op->left = nullptr;
      return true;
    }
    default:
      return false;  // algebra mutation passed to the physical overload
  }
}

}  // namespace emcalc::verify
