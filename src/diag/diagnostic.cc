#include "src/diag/diagnostic.h"

#include "src/obs/json.h"

namespace emcalc::diag {

std::string_view SeverityName(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "note";
}

Severity SeverityFromName(std::string_view name) {
  if (name == "error") return Severity::kError;
  if (name == "warning") return Severity::kWarning;
  return Severity::kNote;
}

Diagnostic& Diagnostic::AddNote(std::string message, std::string code) {
  notes.emplace_back(std::move(code), Severity::kNote, std::move(message));
  return *this;
}

namespace {

void RenderNotes(const Diagnostic& d, std::string& out) {
  for (const Diagnostic& n : d.notes) {
    out += "  = ";
    out += SeverityName(n.severity);
    out += ": ";
    out += n.message;
    out += "\n";
    RenderNotes(n, out);
  }
}

}  // namespace

std::string Render(const Diagnostic& d, std::string_view source) {
  std::string out;
  out += SeverityName(d.severity);
  out += "[";
  out += d.code;
  out += "]: ";
  out += d.message;
  out += "\n";
  if (d.span.has_value() && !source.empty()) {
    out += " --> " + DescribePosition(source, d.span->begin) + "\n";
    out += CaretSnippet(source, *d.span);
  }
  RenderNotes(d, out);
  return out;
}

std::string Render(const std::vector<Diagnostic>& ds,
                   std::string_view source) {
  std::string out;
  for (const Diagnostic& d : ds) out += Render(d, source);
  return out;
}

std::string ToJson(const Diagnostic& d, std::string_view source) {
  std::string out = "{\"code\":\"" + obs::JsonEscape(d.code) + "\"";
  out += ",\"severity\":\"";
  out += SeverityName(d.severity);
  out += "\",\"message\":\"" + obs::JsonEscape(d.message) + "\"";
  if (d.span.has_value()) {
    out += ",\"span\":{\"begin\":" + std::to_string(d.span->begin) +
           ",\"end\":" + std::to_string(d.span->end);
    if (!source.empty()) {
      LineCol lc = ResolveLineCol(source, d.span->begin);
      out += ",\"line\":" + std::to_string(lc.line) +
             ",\"col\":" + std::to_string(lc.column);
    }
    out += "}";
  }
  if (!d.notes.empty()) {
    out += ",\"notes\":" + ToJson(d.notes, source);
  }
  out += "}";
  return out;
}

std::string ToJson(const std::vector<Diagnostic>& ds,
                   std::string_view source) {
  std::string out = "[";
  for (size_t i = 0; i < ds.size(); ++i) {
    if (i > 0) out += ",";
    out += ToJson(ds[i], source);
  }
  out += "]";
  return out;
}

Diagnostic DiagnosticFromJson(const obs::JsonValue& v) {
  Diagnostic d;
  if (!v.is_object()) return d;
  d.code = v.StringOr("code", "");
  d.severity = SeverityFromName(v.StringOr("severity", "note"));
  d.message = v.StringOr("message", "");
  if (const obs::JsonValue* span = v.Find("span");
      span != nullptr && span->is_object()) {
    d.span = SourceSpan{
        span->UintOr<uint32_t>("begin", 0),
        span->UintOr<uint32_t>("end", 0)};
  }
  if (const obs::JsonValue* notes = v.Find("notes");
      notes != nullptr && notes->is_array()) {
    for (const obs::JsonValue& n : notes->array) {
      d.notes.push_back(DiagnosticFromJson(n));
    }
  }
  return d;
}

std::vector<Diagnostic> DiagnosticsFromJson(const obs::JsonValue& v) {
  std::vector<Diagnostic> out;
  if (!v.is_array()) return out;
  out.reserve(v.array.size());
  for (const obs::JsonValue& e : v.array) out.push_back(DiagnosticFromJson(e));
  return out;
}

size_t CountErrors(const std::vector<Diagnostic>& ds) {
  size_t n = 0;
  for (const Diagnostic& d : ds) n += (d.severity == Severity::kError) ? 1 : 0;
  return n;
}

size_t CountWarnings(const std::vector<Diagnostic>& ds) {
  size_t n = 0;
  for (const Diagnostic& d : ds) {
    n += (d.severity == Severity::kWarning) ? 1 : 0;
  }
  return n;
}

}  // namespace emcalc::diag
