#include "src/algebra/expr.h"

#include <algorithm>
#include <vector>

#include "src/base/check.h"

namespace emcalc {

const ScalarExpr* ExprFactory::Col(int index) {
  EMCALC_CHECK(index >= 0);
  ScalarExpr* e = ctx_.arena().New<ScalarExpr>();
  e->kind_ = ScalarExpr::Kind::kCol;
  e->col_ = index;
  return e;
}

const ScalarExpr* ExprFactory::Const(uint32_t const_id) {
  ScalarExpr* e = ctx_.arena().New<ScalarExpr>();
  e->kind_ = ScalarExpr::Kind::kConst;
  e->const_id_ = const_id;
  return e;
}

const ScalarExpr* ExprFactory::ConstValue(const Value& v) {
  return Const(ctx_.InternConstant(v));
}

const ScalarExpr* ExprFactory::Param(int index, Symbol name) {
  EMCALC_CHECK(index >= 0);
  ScalarExpr* e = ctx_.arena().New<ScalarExpr>();
  e->kind_ = ScalarExpr::Kind::kParam;
  e->col_ = index;
  e->fn_ = name;
  return e;
}

const ScalarExpr* ExprFactory::Apply(Symbol fn,
                                     std::span<const ScalarExpr* const> args) {
  ScalarExpr* e = ctx_.arena().New<ScalarExpr>();
  e->kind_ = ScalarExpr::Kind::kApply;
  e->fn_ = fn;
  e->args_ = ctx_.arena().NewArray<const ScalarExpr*>(args.data(), args.size());
  e->num_args_ = static_cast<uint32_t>(args.size());
  return e;
}

const ScalarExpr* ExprFactory::RemapColumns(const ScalarExpr* e,
                                            std::span<const int> map) {
  switch (e->kind()) {
    case ScalarExpr::Kind::kCol: {
      EMCALC_CHECK_MSG(e->col() < static_cast<int>(map.size()),
                       "column @%d outside remap of size %zu", e->col() + 1,
                       map.size());
      int target = map[static_cast<size_t>(e->col())];
      EMCALC_CHECK(target >= 0);
      return target == e->col() ? e : Col(target);
    }
    case ScalarExpr::Kind::kConst:
    case ScalarExpr::Kind::kParam:
      return e;
    case ScalarExpr::Kind::kApply: {
      std::vector<const ScalarExpr*> args;
      args.reserve(e->args().size());
      bool changed = false;
      for (const ScalarExpr* a : e->args()) {
        const ScalarExpr* na = RemapColumns(a, map);
        changed |= (na != a);
        args.push_back(na);
      }
      return changed ? Apply(e->fn(), args) : e;
    }
  }
  return e;
}

int ExprFactory::MaxColumn(const ScalarExpr* e) {
  switch (e->kind()) {
    case ScalarExpr::Kind::kCol:
      return e->col();
    case ScalarExpr::Kind::kConst:
    case ScalarExpr::Kind::kParam:
      return -1;
    case ScalarExpr::Kind::kApply: {
      int max = -1;
      for (const ScalarExpr* a : e->args()) {
        max = std::max(max, MaxColumn(a));
      }
      return max;
    }
  }
  return -1;
}

bool ScalarExprsEqual(const ScalarExpr* a, const ScalarExpr* b) {
  if (a == b) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case ScalarExpr::Kind::kCol:
      return a->col() == b->col();
    case ScalarExpr::Kind::kConst:
      return a->const_id() == b->const_id();
    case ScalarExpr::Kind::kParam:
      return a->param() == b->param();
    case ScalarExpr::Kind::kApply: {
      if (a->fn() != b->fn() || a->args().size() != b->args().size()) {
        return false;
      }
      for (size_t i = 0; i < a->args().size(); ++i) {
        if (!ScalarExprsEqual(a->args()[i], b->args()[i])) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace emcalc
