#include "src/algebra/ast.h"

#include "src/base/check.h"

namespace emcalc {

const char* AlgKindName(AlgKind kind) {
  static_assert(static_cast<int>(AlgKind::kAdom) == kNumAlgKinds - 1,
                "AlgKindName must cover every AlgKind");
  switch (kind) {
    case AlgKind::kRel: return "kRel";
    case AlgKind::kProject: return "kProject";
    case AlgKind::kSelect: return "kSelect";
    case AlgKind::kJoin: return "kJoin";
    case AlgKind::kUnion: return "kUnion";
    case AlgKind::kDiff: return "kDiff";
    case AlgKind::kUnit: return "kUnit";
    case AlgKind::kEmpty: return "kEmpty";
    case AlgKind::kAdom: return "kAdom";
  }
  return "?";
}

int AlgExpr::NodeCount() const {
  int n = 1;
  if (left_ != nullptr) n += left_->NodeCount();
  if (right_ != nullptr) n += right_->NodeCount();
  return n;
}

AlgExpr* AlgebraFactory::NewNode(AlgKind kind, int arity) {
  AlgExpr* e = ctx_.arena().New<AlgExpr>();
  e->kind_ = kind;
  e->arity_ = arity;
  return e;
}

const AlgExpr* AlgebraFactory::Rel(Symbol name, int arity) {
  EMCALC_CHECK(arity >= 0);
  AlgExpr* e = NewNode(AlgKind::kRel, arity);
  e->rel_ = name;
  return e;
}

const AlgExpr* AlgebraFactory::Rel(std::string_view name, int arity) {
  return Rel(ctx_.symbols().Intern(name), arity);
}

const AlgExpr* AlgebraFactory::Project(std::vector<const ScalarExpr*> exprs,
                                       const AlgExpr* input) {
  for (const ScalarExpr* e : exprs) {
    EMCALC_CHECK_MSG(ExprFactory::MaxColumn(e) < input->arity(),
                     "projection expression references column beyond input "
                     "arity %d",
                     input->arity());
  }
  AlgExpr* node = NewNode(AlgKind::kProject, static_cast<int>(exprs.size()));
  node->left_ = input;
  node->exprs_ =
      ctx_.arena().NewArray<const ScalarExpr*>(exprs.data(), exprs.size());
  node->num_exprs_ = static_cast<uint32_t>(exprs.size());
  return node;
}

const AlgExpr* AlgebraFactory::Select(std::vector<AlgCondition> conds,
                                      const AlgExpr* input) {
  for (const AlgCondition& c : conds) {
    EMCALC_CHECK(ExprFactory::MaxColumn(c.lhs) < input->arity());
    EMCALC_CHECK(ExprFactory::MaxColumn(c.rhs) < input->arity());
  }
  AlgExpr* node = NewNode(AlgKind::kSelect, input->arity());
  node->left_ = input;
  node->conds_ =
      ctx_.arena().NewArray<AlgCondition>(conds.data(), conds.size());
  node->num_conds_ = static_cast<uint32_t>(conds.size());
  return node;
}

const AlgExpr* AlgebraFactory::Join(std::vector<AlgCondition> conds,
                                    const AlgExpr* left,
                                    const AlgExpr* right) {
  int combined = left->arity() + right->arity();
  for (const AlgCondition& c : conds) {
    EMCALC_CHECK(ExprFactory::MaxColumn(c.lhs) < combined);
    EMCALC_CHECK(ExprFactory::MaxColumn(c.rhs) < combined);
  }
  AlgExpr* node = NewNode(AlgKind::kJoin, combined);
  node->left_ = left;
  node->right_ = right;
  node->conds_ =
      ctx_.arena().NewArray<AlgCondition>(conds.data(), conds.size());
  node->num_conds_ = static_cast<uint32_t>(conds.size());
  return node;
}

const AlgExpr* AlgebraFactory::Union(const AlgExpr* left,
                                     const AlgExpr* right) {
  EMCALC_CHECK_MSG(left->arity() == right->arity(),
                   "union arity mismatch %d vs %d", left->arity(),
                   right->arity());
  AlgExpr* node = NewNode(AlgKind::kUnion, left->arity());
  node->left_ = left;
  node->right_ = right;
  return node;
}

const AlgExpr* AlgebraFactory::Diff(const AlgExpr* left,
                                    const AlgExpr* right) {
  EMCALC_CHECK_MSG(left->arity() == right->arity(),
                   "difference arity mismatch %d vs %d", left->arity(),
                   right->arity());
  AlgExpr* node = NewNode(AlgKind::kDiff, left->arity());
  node->left_ = left;
  node->right_ = right;
  return node;
}

const AlgExpr* AlgebraFactory::Unit() { return NewNode(AlgKind::kUnit, 0); }

const AlgExpr* AlgebraFactory::Empty(int arity) {
  return NewNode(AlgKind::kEmpty, arity);
}

const AlgExpr* AlgebraFactory::Adom(int level, std::vector<Symbol> fns,
                                    std::vector<Value> consts) {
  AlgExpr* node = NewNode(AlgKind::kAdom, 1);
  node->adom_level_ = level;
  node->adom_fns_ = ctx_.arena().NewArray<Symbol>(fns.data(), fns.size());
  node->num_adom_fns_ = static_cast<uint32_t>(fns.size());
  node->adom_consts_ =
      ctx_.arena().NewArray<Value>(consts.data(), consts.size());
  node->num_adom_consts_ = static_cast<uint32_t>(consts.size());
  return node;
}

namespace {

bool CondsEqual(std::span<const AlgCondition> a,
                std::span<const AlgCondition> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || !ScalarExprsEqual(a[i].lhs, b[i].lhs) ||
        !ScalarExprsEqual(a[i].rhs, b[i].rhs)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool AlgExprsEqual(const AlgExpr* a, const AlgExpr* b) {
  if (a == b) return true;
  if (a->kind() != b->kind() || a->arity() != b->arity()) return false;
  switch (a->kind()) {
    case AlgKind::kRel:
      return a->rel() == b->rel();
    case AlgKind::kProject: {
      if (a->exprs().size() != b->exprs().size()) return false;
      for (size_t i = 0; i < a->exprs().size(); ++i) {
        if (!ScalarExprsEqual(a->exprs()[i], b->exprs()[i])) return false;
      }
      return AlgExprsEqual(a->input(), b->input());
    }
    case AlgKind::kSelect:
      return CondsEqual(a->conds(), b->conds()) &&
             AlgExprsEqual(a->input(), b->input());
    case AlgKind::kJoin:
      return CondsEqual(a->conds(), b->conds()) &&
             AlgExprsEqual(a->left(), b->left()) &&
             AlgExprsEqual(a->right(), b->right());
    case AlgKind::kUnion:
    case AlgKind::kDiff:
      return AlgExprsEqual(a->left(), b->left()) &&
             AlgExprsEqual(a->right(), b->right());
    case AlgKind::kUnit:
    case AlgKind::kEmpty:
      return true;
    case AlgKind::kAdom: {
      if (a->adom_level() != b->adom_level()) return false;
      if (a->adom_fns().size() != b->adom_fns().size()) return false;
      for (size_t i = 0; i < a->adom_fns().size(); ++i) {
        if (a->adom_fns()[i] != b->adom_fns()[i]) return false;
      }
      if (a->adom_consts().size() != b->adom_consts().size()) return false;
      for (size_t i = 0; i < a->adom_consts().size(); ++i) {
        if (a->adom_consts()[i] != b->adom_consts()[i]) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace emcalc
