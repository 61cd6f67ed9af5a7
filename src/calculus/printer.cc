#include "src/calculus/printer.h"

namespace emcalc {
namespace {

// Binding strength used to decide parenthesization. Higher binds tighter.
enum Level { kLevelOr = 0, kLevelAnd = 1, kLevelUnary = 2 };

void PrintTerm(const AstContext& ctx, const Term* t, std::string& out) {
  switch (t->kind()) {
    case Term::Kind::kVar:
      out += ctx.symbols().Name(t->symbol());
      break;
    case Term::Kind::kConst:
      out += t->value().ToString();
      break;
    case Term::Kind::kApply: {
      out += ctx.symbols().Name(t->symbol());
      out += "(";
      bool first = true;
      for (const Term* a : t->args()) {
        if (!first) out += ", ";
        first = false;
        PrintTerm(ctx, a, out);
      }
      out += ")";
      break;
    }
  }
}

void PrintFormula(const AstContext& ctx, const Formula* f, Level parent,
                  std::string& out) {
  auto parenthesize = [&](Level mine, auto&& body) {
    bool need = mine < parent;
    if (need) out += "(";
    body();
    if (need) out += ")";
  };

  switch (f->kind()) {
    case FormulaKind::kTrue:
      out += "true";
      break;
    case FormulaKind::kFalse:
      out += "false";
      break;
    case FormulaKind::kRel: {
      out += ctx.symbols().Name(f->rel());
      out += "(";
      bool first = true;
      for (const Term* t : f->terms()) {
        if (!first) out += ", ";
        first = false;
        PrintTerm(ctx, t, out);
      }
      out += ")";
      break;
    }
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      PrintTerm(ctx, f->lhs(), out);
      switch (f->kind()) {
        case FormulaKind::kEq:
          out += " = ";
          break;
        case FormulaKind::kNeq:
          out += " != ";
          break;
        case FormulaKind::kLess:
          out += " < ";
          break;
        default:
          out += " <= ";
          break;
      }
      PrintTerm(ctx, f->rhs(), out);
      break;
    case FormulaKind::kNot:
      out += "not ";
      PrintFormula(ctx, f->child(), kLevelUnary, out);
      break;
    case FormulaKind::kAnd:
      parenthesize(kLevelAnd, [&] {
        bool first = true;
        for (const Formula* c : f->children()) {
          if (!first) out += " and ";
          first = false;
          PrintFormula(ctx, c, kLevelAnd, out);
        }
      });
      break;
    case FormulaKind::kOr:
      parenthesize(kLevelOr, [&] {
        bool first = true;
        for (const Formula* c : f->children()) {
          if (!first) out += " or ";
          first = false;
          PrintFormula(ctx, c, kLevelAnd, out);
        }
      });
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      out += f->kind() == FormulaKind::kExists ? "exists " : "forall ";
      bool first = true;
      for (Symbol v : f->vars()) {
        if (!first) out += ", ";
        first = false;
        out += ctx.symbols().Name(v);
      }
      out += " (";
      PrintFormula(ctx, f->child(), kLevelOr, out);
      out += ")";
      break;
    }
  }
}

}  // namespace

std::string TermToString(const AstContext& ctx, const Term* t) {
  std::string out;
  PrintTerm(ctx, t, out);
  return out;
}

std::string FormulaToString(const AstContext& ctx, const Formula* f) {
  std::string out;
  PrintFormula(ctx, f, kLevelOr, out);
  return out;
}

std::string QueryToString(const AstContext& ctx, const Query& q) {
  std::string out = "{";
  bool first = true;
  for (Symbol v : q.head) {
    if (!first) out += ", ";
    first = false;
    out += ctx.symbols().Name(v);
  }
  out += " | ";
  out += FormulaToString(ctx, q.body);
  out += "}";
  return out;
}

}  // namespace emcalc
