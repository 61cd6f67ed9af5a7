// Source positions for the diagnostics engine: byte-offset spans recorded
// by the calculus lexer/parser, line/column resolution against the original
// query text, and caret-snippet rendering for terminal output.
//
// Spans are half-open byte ranges [begin, end) into the query string that
// was parsed. Each AST node stores its own span (see AstContext::SpanOf);
// programmatically built nodes have none.
#ifndef EMCALC_DIAG_SOURCE_H_
#define EMCALC_DIAG_SOURCE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace emcalc::diag {

// A half-open byte range [begin, end) into a source string.
struct SourceSpan {
  uint32_t begin = 0;
  uint32_t end = 0;

  uint32_t size() const { return end > begin ? end - begin : 0; }

  friend bool operator==(const SourceSpan& a, const SourceSpan& b) {
    return a.begin == b.begin && a.end == b.end;
  }
};

// A 1-based line/column position.
struct LineCol {
  int line = 1;
  int column = 1;
};

// Resolves a byte offset against `source` (offsets past the end clamp to
// one past the last character).
LineCol ResolveLineCol(std::string_view source, size_t offset);

// The full line of `source` containing `offset` (without the newline).
std::string_view LineAt(std::string_view source, size_t offset);

// Renders the line containing span.begin with a caret underline:
//
//   | {x | not R(x)}
//   |      ^~~~~~~~
//
// The underline covers the span clipped to that line; `prefix` is prepended
// to both lines (indentation / gutter).
std::string CaretSnippet(std::string_view source, SourceSpan span,
                         std::string_view prefix = "  | ");

// "line L, column C" rendering used by parse errors.
std::string DescribePosition(std::string_view source, size_t offset);

}  // namespace emcalc::diag

#endif  // EMCALC_DIAG_SOURCE_H_
