// The structured diagnostic model: every front-end analysis (parse errors,
// the em-allowed safety blame, the lint pass) reports Diagnostic trees
// instead of flat strings. A diagnostic carries a stable machine-readable
// code, a severity, a message, an optional source span, and child notes
// that explain the finding (e.g. the FinD derivation a safety rejection
// attempted). docs/diagnostics.md catalogs the codes.
#ifndef EMCALC_DIAG_DIAGNOSTIC_H_
#define EMCALC_DIAG_DIAGNOSTIC_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/diag/source.h"

namespace emcalc::obs {
struct JsonValue;
}

namespace emcalc::diag {

enum class Severity : uint8_t { kError, kWarning, kNote };

// "error" | "warning" | "note".
std::string_view SeverityName(Severity s);
// Inverse of SeverityName; kNote for unknown names.
Severity SeverityFromName(std::string_view name);

// One finding, with explanatory child notes.
struct Diagnostic {
  std::string code;       // stable identifier, e.g. "safety.unbounded-free"
  Severity severity = Severity::kError;
  std::string message;
  std::optional<SourceSpan> span;  // into the query text, when known
  std::vector<Diagnostic> notes;

  Diagnostic() = default;
  Diagnostic(std::string code, Severity severity, std::string message)
      : code(std::move(code)), severity(severity),
        message(std::move(message)) {}

  Diagnostic& WithSpan(SourceSpan s) {
    span = s;
    return *this;
  }

  // Appends a child note (severity kNote unless overridden).
  Diagnostic& AddNote(std::string message, std::string code = "note");

  bool operator==(const Diagnostic&) const = default;
};

// Human-readable rendering:
//
//   error[safety.unbounded-free]: free variable {x} is not bounded
//    --> line 1, column 6
//     | {x | not R(x)}
//     |      ^~~~~~~~
//     = note: ...
//
// When `source` is empty or the diagnostic has no span, the position block
// is omitted. Notes render flattened, one "= note:" line each.
std::string Render(const Diagnostic& d, std::string_view source);
std::string Render(const std::vector<Diagnostic>& ds, std::string_view source);

// Single-line JSON object / array. When `source` is non-empty, spans gain
// resolved 1-based "line"/"col" members next to the byte offsets.
std::string ToJson(const Diagnostic& d, std::string_view source = {});
std::string ToJson(const std::vector<Diagnostic>& ds,
                   std::string_view source = {});

// Inverse of ToJson over an already-parsed document (obs::ParseJson):
// rebuilds the diagnostic from a JSON object / array of objects. Derived
// "line"/"col" span members are ignored. Mistyped members fall back to
// defaults — round-trips our own output, not a validator.
Diagnostic DiagnosticFromJson(const obs::JsonValue& v);
std::vector<Diagnostic> DiagnosticsFromJson(const obs::JsonValue& v);

// Counts by severity (notes inside other diagnostics are not counted).
size_t CountErrors(const std::vector<Diagnostic>& ds);
size_t CountWarnings(const std::vector<Diagnostic>& ds);

}  // namespace emcalc::diag

#endif  // EMCALC_DIAG_DIAGNOSTIC_H_
