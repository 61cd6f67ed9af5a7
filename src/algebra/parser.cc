#include "src/algebra/parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

namespace emcalc {
namespace {

// Character-level recursive-descent parser; the grammar is small enough
// that a separate lexer buys little.
class PlanParser {
 public:
  PlanParser(AstContext& ctx, std::string_view text,
             const std::map<std::string, int>& rel_arities)
      : ctx_(ctx), factory_(ctx), text_(text), rels_(rel_arities) {}

  StatusOr<const AlgExpr*> Parse() {
    auto plan = Plan();
    if (!plan.ok()) return plan;
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("trailing input at " +
                                  std::to_string(pos_));
    }
    return plan;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Eat(c)) {
      return InvalidArgumentError(std::string("expected '") + c + "' at " +
                                  std::to_string(pos_));
    }
    return Status::Ok();
  }

  bool EatWord(std::string_view word) {
    SkipSpace();
    if (text_.substr(pos_).starts_with(word)) {
      size_t after = pos_ + word.size();
      // Must not continue as an identifier.
      if (after >= text_.size() ||
          (!std::isalnum(static_cast<unsigned char>(text_[after])) &&
           text_[after] != '_')) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  StatusOr<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return InvalidArgumentError("expected identifier at " +
                                  std::to_string(start));
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  // plan := primary (('+'|'-') primary)*
  StatusOr<const AlgExpr*> Plan() {
    auto left = Primary();
    if (!left.ok()) return left;
    const AlgExpr* acc = *left;
    for (;;) {
      SkipSpace();
      if (Eat('+')) {
        auto right = Primary();
        if (!right.ok()) return right;
        if (acc->arity() != (*right)->arity()) {
          return InvalidArgumentError("union arity mismatch");
        }
        acc = factory_.Union(acc, *right);
      } else if (Eat('-')) {
        auto right = Primary();
        if (!right.ok()) return right;
        if (acc->arity() != (*right)->arity()) {
          return InvalidArgumentError("difference arity mismatch");
        }
        acc = factory_.Diff(acc, *right);
      } else {
        return acc;
      }
    }
  }

  StatusOr<const AlgExpr*> Primary() {
    SkipSpace();
    if (Eat('(')) {
      auto inner = Plan();
      if (!inner.ok()) return inner;
      if (Status s = Expect(')'); !s.ok()) return s;
      return inner;
    }
    if (EatWord("project")) return Project();
    if (EatWord("select")) return Select();
    if (EatWord("join")) return Join();
    if (EatWord("unit")) return factory_.Unit();
    if (EatWord("adom")) {
      return UnsupportedError("adom nodes do not round-trip through text");
    }
    auto name = Ident();
    if (!name.ok()) return name.status();
    if (name->rfind("empty_", 0) == 0) {
      return factory_.Empty(std::atoi(name->c_str() + 6));
    }
    auto it = rels_.find(*name);
    if (it == rels_.end()) {
      return NotFoundError("relation '" + *name + "' not in catalog");
    }
    return factory_.Rel(*name, it->second);
  }

  StatusOr<const AlgExpr*> Project() {
    if (Status s = Expect('('); !s.ok()) return s;
    if (Status s = Expect('['); !s.ok()) return s;
    std::vector<const ScalarExpr*> exprs;
    SkipSpace();
    if (!Eat(']')) {
      for (;;) {
        auto e = Expr();
        if (!e.ok()) return e.status();
        exprs.push_back(*e);
        if (!Eat(',')) break;
      }
      if (Status s = Expect(']'); !s.ok()) return s;
    }
    if (Status s = Expect(','); !s.ok()) return s;
    auto input = Plan();
    if (!input.ok()) return input;
    if (Status s = Expect(')'); !s.ok()) return s;
    for (const ScalarExpr* e : exprs) {
      if (ExprFactory::MaxColumn(e) >= (*input)->arity()) {
        return InvalidArgumentError("projection column out of range");
      }
    }
    return factory_.Project(std::move(exprs), *input);
  }

  StatusOr<const AlgExpr*> Select() {
    if (Status s = Expect('('); !s.ok()) return s;
    auto conds = Conds();
    if (!conds.ok()) return conds.status();
    if (Status s = Expect(','); !s.ok()) return s;
    auto input = Plan();
    if (!input.ok()) return input;
    if (Status s = Expect(')'); !s.ok()) return s;
    if (Status s = CheckConds(*conds, (*input)->arity()); !s.ok()) return s;
    return factory_.Select(std::move(conds).value(), *input);
  }

  StatusOr<const AlgExpr*> Join() {
    if (Status s = Expect('('); !s.ok()) return s;
    auto conds = Conds();
    if (!conds.ok()) return conds.status();
    if (Status s = Expect(','); !s.ok()) return s;
    auto left = Plan();
    if (!left.ok()) return left;
    if (Status s = Expect(','); !s.ok()) return s;
    auto right = Plan();
    if (!right.ok()) return right;
    if (Status s = Expect(')'); !s.ok()) return s;
    if (Status s = CheckConds(*conds, (*left)->arity() + (*right)->arity());
        !s.ok()) {
      return s;
    }
    return factory_.Join(std::move(conds).value(), *left, *right);
  }

  Status CheckConds(const std::vector<AlgCondition>& conds, int arity) {
    for (const AlgCondition& c : conds) {
      if (ExprFactory::MaxColumn(c.lhs) >= arity ||
          ExprFactory::MaxColumn(c.rhs) >= arity) {
        return InvalidArgumentError("condition column out of range");
      }
    }
    return Status::Ok();
  }

  StatusOr<std::vector<AlgCondition>> Conds() {
    if (Status s = Expect('{'); !s.ok()) return s;
    std::vector<AlgCondition> out;
    SkipSpace();
    if (Eat('}')) return out;
    for (;;) {
      auto lhs = Expr();
      if (!lhs.ok()) return lhs.status();
      SkipSpace();
      AlgCompareOp op;
      if (text_.substr(pos_).starts_with("==")) {
        op = AlgCompareOp::kEq;
        pos_ += 2;
      } else if (text_.substr(pos_).starts_with("!=")) {
        op = AlgCompareOp::kNe;
        pos_ += 2;
      } else if (text_.substr(pos_).starts_with("<=")) {
        op = AlgCompareOp::kLe;
        pos_ += 2;
      } else if (text_.substr(pos_).starts_with("<")) {
        op = AlgCompareOp::kLt;
        pos_ += 1;
      } else {
        return InvalidArgumentError("expected comparison at " +
                                    std::to_string(pos_));
      }
      auto rhs = Expr();
      if (!rhs.ok()) return rhs.status();
      out.push_back({*lhs, op, *rhs});
      if (!Eat(',')) break;
    }
    if (Status s = Expect('}'); !s.ok()) return s;
    return out;
  }

  StatusOr<const ScalarExpr*> Expr() {
    SkipSpace();
    if (Eat('@')) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == start) {
        return InvalidArgumentError("expected column number at " +
                                    std::to_string(start));
      }
      int col = std::atoi(std::string(text_.substr(start, pos_ - start))
                              .c_str());
      if (col < 1) return InvalidArgumentError("columns are 1-based");
      return factory_.exprs().Col(col - 1);
    }
    if (pos_ < text_.size() && text_[pos_] == '\'') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '\'') ++pos_;
      if (pos_ == text_.size()) {
        return InvalidArgumentError("unterminated string literal");
      }
      std::string body(text_.substr(start, pos_ - start));
      ++pos_;
      return factory_.exprs().Const(Value::Str(std::move(body)));
    }
    if (pos_ < text_.size() &&
        (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
         (text_[pos_] == '-' && pos_ + 1 < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))))) {
      size_t start = pos_;
      if (text_[pos_] == '-') ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      int64_t v = std::strtoll(
          std::string(text_.substr(start, pos_ - start)).c_str(), nullptr,
          10);
      return factory_.exprs().Const(Value::Int(v));
    }
    auto name = Ident();
    if (!name.ok()) return name.status();
    if (Status s = Expect('('); !s.ok()) return s;
    std::vector<const ScalarExpr*> args;
    SkipSpace();
    if (!Eat(')')) {
      for (;;) {
        auto a = Expr();
        if (!a.ok()) return a;
        args.push_back(*a);
        if (!Eat(',')) break;
      }
      if (Status s = Expect(')'); !s.ok()) return s;
    }
    return factory_.exprs().Apply(ctx_.symbols().Intern(*name), args);
  }

  AstContext& ctx_;
  AlgebraFactory factory_;
  std::string_view text_;
  const std::map<std::string, int>& rels_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<const AlgExpr*> ParseAlgebra(
    AstContext& ctx, std::string_view text,
    const std::map<std::string, int>& rel_arities) {
  return PlanParser(ctx, text, rel_arities).Parse();
}

}  // namespace emcalc
