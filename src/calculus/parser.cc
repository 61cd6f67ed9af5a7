#include "src/calculus/parser.h"

#include <cctype>
#include <charconv>
#include <string>
#include <vector>

#include "src/base/symbol_set.h"
#include "src/calculus/analysis.h"
#include "src/calculus/builder.h"
#include "src/diag/source.h"

namespace emcalc {
namespace {

enum class TokKind {
  kIdent,
  kInt,
  kString,
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kBar,
  kEq,
  kNeq,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string_view text;  // for idents / literals
  int64_t int_value = 0;
  size_t pos = 0;  // byte offset of the first character
  size_t end = 0;  // one past the last character
};

// Renders a parse error with line/column and a caret snippet, and fills the
// structured out-param when provided.
Status MakeParseError(std::string_view text, size_t offset,
                      std::string message, ParseErrorInfo* error) {
  if (error != nullptr) {
    error->offset = offset;
    error->message = message;
  }
  std::string rendered = "parse error at " +
                         diag::DescribePosition(text, offset) + ": " +
                         message;
  if (!text.empty()) {
    rendered += "\n" + diag::CaretSnippet(
                           text, diag::SourceSpan{
                                     static_cast<uint32_t>(offset),
                                     static_cast<uint32_t>(offset + 1)});
  }
  return InvalidArgumentError(std::move(rendered));
}

// Single-pass lexer over the input string_view.
class Lexer {
 public:
  explicit Lexer(std::string_view text, ParseErrorInfo* error)
      : text_(text), error_(error) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      size_t start = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        out.push_back({TokKind::kIdent, text_.substr(start, i - start), 0,
                       start, i});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        ++i;
        while (i < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[i]))) {
          ++i;
        }
        Token t{TokKind::kInt, text_.substr(start, i - start), 0, start, i};
        std::from_chars_result r =
            std::from_chars(text_.data() + start, text_.data() + i,
                            t.int_value);
        if (r.ec != std::errc()) {
          return MakeParseError(text_, start, "integer literal out of range",
                                error_);
        }
        out.push_back(t);
        continue;
      }
      switch (c) {
        case '\'': {
          ++i;
          size_t body = i;
          while (i < text_.size() && text_[i] != '\'') ++i;
          if (i == text_.size()) {
            return MakeParseError(text_, start, "unterminated string literal",
                                  error_);
          }
          ++i;  // closing quote
          out.push_back({TokKind::kString,
                         text_.substr(body, i - 1 - body), 0, start, i});
          break;
        }
        case '(':
          out.push_back({TokKind::kLParen, {}, 0, start, start + 1});
          ++i;
          break;
        case ')':
          out.push_back({TokKind::kRParen, {}, 0, start, start + 1});
          ++i;
          break;
        case '{':
          out.push_back({TokKind::kLBrace, {}, 0, start, start + 1});
          ++i;
          break;
        case '}':
          out.push_back({TokKind::kRBrace, {}, 0, start, start + 1});
          ++i;
          break;
        case ',':
          out.push_back({TokKind::kComma, {}, 0, start, start + 1});
          ++i;
          break;
        case '|':
          out.push_back({TokKind::kBar, {}, 0, start, start + 1});
          ++i;
          break;
        case '=':
          out.push_back({TokKind::kEq, {}, 0, start, start + 1});
          ++i;
          break;
        case '<':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            out.push_back({TokKind::kLessEq, {}, 0, start, start + 2});
            i += 2;
          } else {
            out.push_back({TokKind::kLess, {}, 0, start, start + 1});
            ++i;
          }
          break;
        case '>':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            out.push_back({TokKind::kGreaterEq, {}, 0, start, start + 2});
            i += 2;
          } else {
            out.push_back({TokKind::kGreater, {}, 0, start, start + 1});
            ++i;
          }
          break;
        case '!':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            out.push_back({TokKind::kNeq, {}, 0, start, start + 2});
            i += 2;
            break;
          }
          return MakeParseError(text_, start, "unexpected '!'", error_);
        default:
          return MakeParseError(
              text_, start,
              std::string("unexpected character '") + c + "'", error_);
      }
    }
    out.push_back({TokKind::kEnd, {}, 0, text_.size(), text_.size()});
    return out;
  }

 private:
  std::string_view text_;
  ParseErrorInfo* error_;
};

bool IsKeyword(const Token& t, std::string_view kw) {
  return t.kind == TokKind::kIdent && t.text == kw;
}

bool IsReserved(std::string_view word) {
  return word == "and" || word == "or" || word == "not" || word == "exists" ||
         word == "forall" || word == "true" || word == "false";
}

// The parser proper. Holds the token stream and a cursor, and records a
// source span for every node it builds.
class Parser {
 public:
  Parser(AstContext& ctx, std::string_view text, std::vector<Token> tokens,
         ParseErrorInfo* error)
      : ctx_(ctx), text_(text), tokens_(std::move(tokens)), error_(error) {}

  StatusOr<emcalc::Query> Query() {
    if (Peek().kind == TokKind::kLBrace) {
      Advance();
      std::vector<Symbol> head;
      if (Peek().kind != TokKind::kBar) {
        auto vars = VarList();
        if (!vars.ok()) return vars.status();
        head = std::move(vars).value();
      }
      if (Status s = Expect(TokKind::kBar, "'|'"); !s.ok()) return s;
      auto body = Formula();
      if (!body.ok()) return body.status();
      if (Status s = Expect(TokKind::kRBrace, "'}'"); !s.ok()) return s;
      if (Status s = ExpectEnd(); !s.ok()) return s;
      return emcalc::Query{std::move(head), *body};
    }
    auto body = Formula();
    if (!body.ok()) return body.status();
    if (Status s = ExpectEnd(); !s.ok()) return s;
    SymbolSet free = FreeVars(*body);
    return emcalc::Query{{free.begin(), free.end()}, *body};
  }

  StatusOr<const emcalc::Formula*> WholeFormula() {
    auto f = Formula();
    if (!f.ok()) return f;
    if (Status s = ExpectEnd(); !s.ok()) return s;
    return f;
  }

  StatusOr<const emcalc::Term*> WholeTerm() {
    auto t = Term();
    if (!t.ok()) return t;
    if (Status s = ExpectEnd(); !s.ok()) return s;
    return t;
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  // Byte offset just past the most recently consumed token.
  size_t LastEnd() const {
    return pos_ == 0 ? 0 : tokens_[pos_ - 1].end;
  }

  // Records [from, LastEnd()) as `node`'s source span.
  template <typename NodeT>
  const NodeT* Note(const NodeT* node, size_t from) {
    ctx_.NoteSpan(node, diag::SourceSpan{static_cast<uint32_t>(from),
                                         static_cast<uint32_t>(LastEnd())});
    return node;
  }

  Status Error(size_t offset, std::string message) {
    return MakeParseError(text_, offset, std::move(message), error_);
  }

  Status Expect(TokKind kind, std::string_view what) {
    if (Peek().kind != kind) {
      return Error(Peek().pos, "expected " + std::string(what));
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectEnd() {
    if (Peek().kind != TokKind::kEnd) {
      return Error(Peek().pos, "trailing input");
    }
    return Status::Ok();
  }

  StatusOr<std::vector<Symbol>> VarList() {
    std::vector<Symbol> out;
    for (;;) {
      if (Peek().kind != TokKind::kIdent || IsReserved(Peek().text)) {
        return Error(Peek().pos, "expected variable name");
      }
      out.push_back(ctx_.symbols().Intern(Advance().text));
      if (Peek().kind != TokKind::kComma) break;
      Advance();
    }
    return out;
  }

  StatusOr<const emcalc::Formula*> Formula() { return OrFormula(); }

  StatusOr<const emcalc::Formula*> OrFormula() {
    size_t start = Peek().pos;
    auto first = AndFormula();
    if (!first.ok()) return first;
    std::vector<const emcalc::Formula*> parts = {*first};
    while (IsKeyword(Peek(), "or")) {
      Advance();
      auto next = AndFormula();
      if (!next.ok()) return next;
      parts.push_back(*next);
    }
    if (parts.size() == 1) return parts[0];
    return Note(builder::Or(ctx_, std::move(parts)), start);
  }

  StatusOr<const emcalc::Formula*> AndFormula() {
    size_t start = Peek().pos;
    auto first = Unary();
    if (!first.ok()) return first;
    std::vector<const emcalc::Formula*> parts = {*first};
    while (IsKeyword(Peek(), "and")) {
      Advance();
      auto next = Unary();
      if (!next.ok()) return next;
      parts.push_back(*next);
    }
    if (parts.size() == 1) return parts[0];
    return Note(builder::And(ctx_, std::move(parts)), start);
  }

  StatusOr<const emcalc::Formula*> Unary() {
    size_t start = Peek().pos;
    if (IsKeyword(Peek(), "not")) {
      Advance();
      auto inner = Unary();
      if (!inner.ok()) return inner;
      return Note(ctx_.MakeNot(*inner), start);
    }
    if (IsKeyword(Peek(), "exists") || IsKeyword(Peek(), "forall")) {
      bool is_exists = Peek().text == "exists";
      Advance();
      auto vars = VarList();
      if (!vars.ok()) return vars.status();
      if (Status s = Expect(TokKind::kLParen, "'('"); !s.ok()) return s;
      auto body = Formula();
      if (!body.ok()) return body;
      if (Status s = Expect(TokKind::kRParen, "')'"); !s.ok()) return s;
      return Note(is_exists ? ctx_.MakeExists(*vars, *body)
                            : ctx_.MakeForall(*vars, *body),
                  start);
    }
    if (IsKeyword(Peek(), "true")) {
      Advance();
      return ctx_.True();
    }
    if (IsKeyword(Peek(), "false")) {
      Advance();
      return ctx_.False();
    }
    if (Peek().kind == TokKind::kLParen) {
      // Could be a parenthesized formula; terms never start with '('.
      Advance();
      auto inner = Formula();
      if (!inner.ok()) return inner;
      if (Status s = Expect(TokKind::kRParen, "')'"); !s.ok()) return s;
      return inner;
    }
    return Atom();
  }

  // Parses `term (=|!=) term` or a relation atom. We first parse a term;
  // if a comparator follows, it really was a term. Otherwise it must have
  // the shape of a relation atom (identifier with argument list).
  StatusOr<const emcalc::Formula*> Atom() {
    size_t mark = pos_;
    size_t start = Peek().pos;
    auto lhs = Term();
    if (!lhs.ok()) return lhs.status();
    TokKind comparator = Peek().kind;
    if (comparator == TokKind::kEq || comparator == TokKind::kNeq ||
        comparator == TokKind::kLess || comparator == TokKind::kLessEq ||
        comparator == TokKind::kGreater ||
        comparator == TokKind::kGreaterEq) {
      Advance();
      auto rhs = Term();
      if (!rhs.ok()) return rhs.status();
      switch (comparator) {
        case TokKind::kEq:
          return Note(ctx_.MakeEq(*lhs, *rhs), start);
        case TokKind::kNeq:
          return Note(ctx_.MakeNeq(*lhs, *rhs), start);
        case TokKind::kLess:
          return Note(ctx_.MakeLess(*lhs, *rhs), start);
        case TokKind::kLessEq:
          return Note(ctx_.MakeLessEq(*lhs, *rhs), start);
        // t1 > t2 and t1 >= t2 normalize to swapped kLess / kLessEq.
        case TokKind::kGreater:
          return Note(ctx_.MakeLess(*rhs, *lhs), start);
        default:
          return Note(ctx_.MakeLessEq(*rhs, *lhs), start);
      }
    }
    const emcalc::Term* t = *lhs;
    if (t->is_apply()) {
      // Reinterpret the application as a relation atom.
      std::vector<const emcalc::Term*> args(t->args().begin(),
                                            t->args().end());
      return Note(ctx_.MakeRel(t->symbol(), args), start);
    }
    if (t->is_var() && Peek(0).kind == TokKind::kLParen) {
      // Identifier followed by "()" (empty argument list): Term() parsed
      // just the identifier because there were no arguments. Treat as a
      // 0-ary relation atom.
      Advance();
      if (Status s = Expect(TokKind::kRParen, "')'"); !s.ok()) return s;
      return Note(ctx_.MakeRel(t->symbol(), {}), start);
    }
    return Error(tokens_[mark].pos, "expected a relation atom or comparison");
  }

  StatusOr<const emcalc::Term*> Term() {
    const Token& t = Peek();
    size_t start = t.pos;
    switch (t.kind) {
      case TokKind::kInt:
        Advance();
        return Note(ctx_.MakeConst(Value::Int(t.int_value)), start);
      case TokKind::kString:
        Advance();
        return Note(ctx_.MakeConst(Value::Str(t.text)), start);
      case TokKind::kIdent: {
        if (IsReserved(t.text)) {
          return Error(t.pos,
                       "unexpected keyword '" + std::string(t.text) + "'");
        }
        Symbol name = ctx_.symbols().Intern(t.text);
        Advance();
        // `ident(args...)` with a non-empty argument list is an
        // application; `ident()` is left for Atom() to turn into a 0-ary
        // relation atom.
        if (Peek().kind == TokKind::kLParen &&
            Peek(1).kind != TokKind::kRParen) {
          Advance();
          std::vector<const emcalc::Term*> args;
          for (;;) {
            auto a = Term();
            if (!a.ok()) return a;
            args.push_back(*a);
            if (Peek().kind != TokKind::kComma) break;
            Advance();
          }
          if (Status s = Expect(TokKind::kRParen, "')'"); !s.ok()) return s;
          return Note(ctx_.MakeApply(name, args), start);
        }
        return Note(ctx_.MakeVar(name), start);
      }
      default:
        return Error(t.pos, "expected a term");
    }
  }

  AstContext& ctx_;
  std::string_view text_;
  std::vector<Token> tokens_;
  ParseErrorInfo* error_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Query> ParseQuery(AstContext& ctx, std::string_view text,
                           ParseErrorInfo* error) {
  auto tokens = Lexer(text, error).Tokenize();
  if (!tokens.ok()) return tokens.status();
  return Parser(ctx, text, std::move(tokens).value(), error).Query();
}

StatusOr<const Formula*> ParseFormula(AstContext& ctx, std::string_view text,
                                      ParseErrorInfo* error) {
  auto tokens = Lexer(text, error).Tokenize();
  if (!tokens.ok()) return tokens.status();
  return Parser(ctx, text, std::move(tokens).value(), error).WholeFormula();
}

StatusOr<const Term*> ParseTerm(AstContext& ctx, std::string_view text,
                                ParseErrorInfo* error) {
  auto tokens = Lexer(text, error).Tokenize();
  if (!tokens.ok()) return tokens.status();
  return Parser(ctx, text, std::move(tokens).value(), error).WholeTerm();
}

}  // namespace emcalc
