// Scalar expressions over positional tuple columns, used by the extended
// algebra's project/select/join operators. The paper's extended projection
// project([@1, f(@1)], R) evaluates these point-wise per input tuple
// (analogous to the apply-append operator of the OOAlgebra [Day89]).
#ifndef EMCALC_ALGEBRA_EXPR_H_
#define EMCALC_ALGEBRA_EXPR_H_

#include <cstdint>
#include <span>

#include "src/base/symbol.h"
#include "src/calculus/ast.h"

namespace emcalc {

// A column reference (@i), constant, query parameter ($name), or scalar
// function application. Arena-allocated in the same AstContext as the query
// being translated (function and parameter names are that context's
// symbols; a constant holds its Value). A parameter is a constant whose
// value is supplied per execution (PhysicalPlan::Execute's argument span),
// so plans over parameters are built and lowered once.
class ScalarExpr {
 public:
  enum class Kind : uint8_t { kCol, kConst, kParam, kApply };

  Kind kind() const { return kind_; }
  bool is_col() const { return kind_ == Kind::kCol; }

  // kCol: 0-based column index (printed 1-based as @i).
  int col() const { return col_; }
  // kConst: the constant's value.
  Value value() const { return value_; }
  // kParam: 0-based position in the execution's argument list, and the
  // parameter variable it stands for (printed as $name).
  int param() const { return col_; }
  Symbol param_name() const { return fn_; }
  // kApply: function symbol and arguments.
  Symbol fn() const { return fn_; }
  std::span<const ScalarExpr* const> args() const {
    return std::span<const ScalarExpr* const>(args_, num_args_);
  }

  // Nodes are built through ExprFactory; public constructor only for
  // placement-new by the arena.
  ScalarExpr() = default;

 private:
  friend class ExprFactory;
  Kind kind_ = Kind::kCol;
  int col_ = 0;
  Value value_;
  uint32_t num_args_ = 0;
  Symbol fn_;
  const ScalarExpr* const* args_ = nullptr;
};

// Factory allocating ScalarExprs into an AstContext's arena.
class ExprFactory {
 public:
  explicit ExprFactory(AstContext& ctx) : ctx_(ctx) {}

  const ScalarExpr* Col(int index);
  const ScalarExpr* Const(const Value& v);
  const ScalarExpr* Param(int index, Symbol name);
  const ScalarExpr* Apply(Symbol fn, std::span<const ScalarExpr* const> args);

  // Rewrites column indices: @i becomes @map[i]. Used when an operator's
  // input schema is permuted or widened.
  const ScalarExpr* RemapColumns(const ScalarExpr* e,
                                 std::span<const int> map);

  // Largest column index referenced, or -1 if none.
  static int MaxColumn(const ScalarExpr* e);

  AstContext& ctx() { return ctx_; }

 private:
  AstContext& ctx_;
};

// Structural equality.
bool ScalarExprsEqual(const ScalarExpr* a, const ScalarExpr* b);

}  // namespace emcalc

#endif  // EMCALC_ALGEBRA_EXPR_H_
