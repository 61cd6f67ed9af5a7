#include "src/algebra/printer.h"

namespace emcalc {
namespace {

void PrintExpr(const AstContext& ctx, const ScalarExpr* e, std::string& out) {
  switch (e->kind()) {
    case ScalarExpr::Kind::kCol:
      out += "@" + std::to_string(e->col() + 1);
      break;
    case ScalarExpr::Kind::kConst:
      out += e->value().ToString();
      break;
    case ScalarExpr::Kind::kParam:
      out += "$";
      out += ctx.symbols().Name(e->param_name());
      break;
    case ScalarExpr::Kind::kApply: {
      out += ctx.symbols().Name(e->fn());
      out += "(";
      bool first = true;
      for (const ScalarExpr* a : e->args()) {
        if (!first) out += ",";
        first = false;
        PrintExpr(ctx, a, out);
      }
      out += ")";
      break;
    }
  }
}

void PrintConds(const AstContext& ctx, std::span<const AlgCondition> conds,
                std::string& out) {
  out += "{";
  bool first = true;
  for (const AlgCondition& c : conds) {
    if (!first) out += ",";
    first = false;
    PrintExpr(ctx, c.lhs, out);
    switch (c.op) {
      case AlgCompareOp::kEq:
        out += "==";
        break;
      case AlgCompareOp::kNe:
        out += "!=";
        break;
      case AlgCompareOp::kLt:
        out += "<";
        break;
      case AlgCompareOp::kLe:
        out += "<=";
        break;
    }
    PrintExpr(ctx, c.rhs, out);
  }
  out += "}";
}

void PrintPlan(const AstContext& ctx, const AlgExpr* e, std::string& out) {
  switch (e->kind()) {
    case AlgKind::kRel:
      out += ctx.symbols().Name(e->rel());
      break;
    case AlgKind::kProject: {
      out += "project([";
      bool first = true;
      for (const ScalarExpr* x : e->exprs()) {
        if (!first) out += ",";
        first = false;
        PrintExpr(ctx, x, out);
      }
      out += "], ";
      PrintPlan(ctx, e->input(), out);
      out += ")";
      break;
    }
    case AlgKind::kSelect:
      out += "select(";
      PrintConds(ctx, e->conds(), out);
      out += ", ";
      PrintPlan(ctx, e->input(), out);
      out += ")";
      break;
    case AlgKind::kJoin:
      out += "join(";
      PrintConds(ctx, e->conds(), out);
      out += ", ";
      PrintPlan(ctx, e->left(), out);
      out += ", ";
      PrintPlan(ctx, e->right(), out);
      out += ")";
      break;
    case AlgKind::kUnion:
      out += "(";
      PrintPlan(ctx, e->left(), out);
      out += " + ";
      PrintPlan(ctx, e->right(), out);
      out += ")";
      break;
    case AlgKind::kDiff:
      out += "(";
      PrintPlan(ctx, e->left(), out);
      out += " - ";
      PrintPlan(ctx, e->right(), out);
      out += ")";
      break;
    case AlgKind::kUnit:
      out += "unit";
      break;
    case AlgKind::kEmpty:
      out += "empty_" + std::to_string(e->arity());
      break;
    case AlgKind::kAdom:
      out += "adom^" + std::to_string(e->adom_level());
      break;
  }
}

void PrintTree(const AstContext& ctx, const AlgExpr* e, int indent,
               std::string& out) {
  out.append(static_cast<size_t>(indent) * 2, ' ');
  switch (e->kind()) {
    case AlgKind::kRel:
    case AlgKind::kUnit:
    case AlgKind::kEmpty:
    case AlgKind::kAdom:
      PrintPlan(ctx, e, out);
      out += "\n";
      return;
    case AlgKind::kProject: {
      out += "project([";
      bool first = true;
      for (const ScalarExpr* x : e->exprs()) {
        if (!first) out += ",";
        first = false;
        PrintExpr(ctx, x, out);
      }
      out += "])\n";
      PrintTree(ctx, e->input(), indent + 1, out);
      return;
    }
    case AlgKind::kSelect:
      out += "select(";
      PrintConds(ctx, e->conds(), out);
      out += ")\n";
      PrintTree(ctx, e->input(), indent + 1, out);
      return;
    case AlgKind::kJoin:
      out += "join(";
      PrintConds(ctx, e->conds(), out);
      out += ")\n";
      PrintTree(ctx, e->left(), indent + 1, out);
      PrintTree(ctx, e->right(), indent + 1, out);
      return;
    case AlgKind::kUnion:
      out += "union\n";
      PrintTree(ctx, e->left(), indent + 1, out);
      PrintTree(ctx, e->right(), indent + 1, out);
      return;
    case AlgKind::kDiff:
      out += "difference\n";
      PrintTree(ctx, e->left(), indent + 1, out);
      PrintTree(ctx, e->right(), indent + 1, out);
      return;
  }
}

}  // namespace

std::string ScalarExprToString(const AstContext& ctx, const ScalarExpr* e) {
  std::string out;
  PrintExpr(ctx, e, out);
  return out;
}

std::string AlgExprToString(const AstContext& ctx, const AlgExpr* e) {
  std::string out;
  PrintPlan(ctx, e, out);
  return out;
}

std::string AlgExprToTreeString(const AstContext& ctx, const AlgExpr* e) {
  std::string out;
  PrintTree(ctx, e, 0, out);
  return out;
}

}  // namespace emcalc
