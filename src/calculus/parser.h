// Recursive-descent parser for the calculus query language.
//
// Grammar (keywords are case-sensitive; 'or' binds loosest):
//
//   query    := '{' varlist? '|' formula '}' | formula
//   formula  := orf
//   orf      := andf ( 'or' andf )*
//   andf     := unary ( 'and' unary )*
//   unary    := 'not' unary
//             | ('exists' | 'forall') varlist '(' formula ')'
//             | '(' formula ')'
//             | 'true' | 'false'
//             | atom
//   atom     := term ('=' | '!=') term      -- equality / inequality
//             | ident '(' termlist? ')'     -- relation atom
//   term     := ident '(' termlist ')'      -- scalar function application
//             | ident                       -- variable
//             | int-literal | string-literal
//   varlist  := ident (',' ident)*
//
// An int-literal outside the int64 range is a parse error, not clamped.
//
// An identifier applied to arguments is a relation atom in formula position
// and a function application in term position; `R(x)` followed by '=' is
// therefore the term R(x) compared for equality, otherwise the atom R(x).
// A bare formula (no braces) parses to a query whose head is the formula's
// free variables in sorted order.
#ifndef EMCALC_CALCULUS_PARSER_H_
#define EMCALC_CALCULUS_PARSER_H_

#include <string_view>

#include "src/base/status.h"
#include "src/calculus/ast.h"

namespace emcalc {

// Structured description of a parse failure, for diagnostics consumers
// (Compiler::Analyze turns it into a located diag::Diagnostic). The Status
// message already embeds line/column and a caret snippet; this carries the
// raw pieces.
struct ParseErrorInfo {
  size_t offset = 0;       // byte offset of the offending token
  std::string message;     // bare message, without position or snippet
};

// Parses a query, interning names into `ctx`. Every formula and term node
// built from the text gets a byte-offset source span recorded in the node
// (see AstContext::SpanOf). On failure, `error` (when non-null) receives
// the offset and bare message.
StatusOr<Query> ParseQuery(AstContext& ctx, std::string_view text,
                           ParseErrorInfo* error = nullptr);

// Parses a formula (no braces form).
StatusOr<const Formula*> ParseFormula(AstContext& ctx, std::string_view text,
                                      ParseErrorInfo* error = nullptr);

// Parses a term (used by tests and the examples' REPL).
StatusOr<const Term*> ParseTerm(AstContext& ctx, std::string_view text,
                                ParseErrorInfo* error = nullptr);

}  // namespace emcalc

#endif  // EMCALC_CALCULUS_PARSER_H_
