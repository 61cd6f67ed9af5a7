#include "src/obs/run_record.h"

#include <cstdlib>
#include <string_view>

namespace emcalc::obs {

namespace {

void AppendKey(std::string& out, std::string_view key) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += JsonEscape(key);
  out += "\":";
}

void AppendString(std::string& out, std::string_view key,
                  const std::string& s) {
  AppendKey(out, key);
  out += "\"" + JsonEscape(s) + "\"";
}

void AppendUint(std::string& out, std::string_view key, uint64_t v) {
  AppendKey(out, key);
  out += std::to_string(v);
}

void AppendBool(std::string& out, std::string_view key, bool v) {
  AppendKey(out, key);
  out += v ? "true" : "false";
}

}  // namespace

void AppendRunRecordJson(const RunRecord& r, std::string& out) {
  if (!r.event.empty()) AppendString(out, "event", r.event);
  AppendString(out, "query_hash", std::to_string(r.query_hash));
  if (!r.query.empty()) AppendString(out, "query", r.query);
  AppendBool(out, "ok", r.ok);
  if (!r.error.empty()) AppendString(out, "error", r.error);
  if (!r.aborted_limit.empty()) {
    AppendString(out, "aborted_limit", r.aborted_limit);
  }
  AppendUint(out, "wall_ns", r.wall_ns);
  if (r.rows_out > 0) AppendUint(out, "rows_out", r.rows_out);
  if (r.exec_threads > 0) AppendUint(out, "exec_threads", r.exec_threads);
  if (r.peak_bytes > 0) AppendUint(out, "peak_bytes", r.peak_bytes);
  if (r.bytes_allocated > 0) {
    AppendUint(out, "bytes_allocated", r.bytes_allocated);
  }
  if (r.par_workers > 0) {
    AppendKey(out, "parallel_efficiency");
    AppendJson(JsonValue::Number(r.parallel_efficiency), out);
    AppendUint(out, "par_workers", r.par_workers);
  }
  if (r.event == "compile") {
    AppendBool(out, "em_allowed", r.em_allowed);
    AppendUint(out, "level", static_cast<uint64_t>(r.level));
    AppendUint(out, "find_count", static_cast<uint64_t>(r.find_count));
    AppendUint(out, "ranf_size", static_cast<uint64_t>(r.ranf_size));
    AppendUint(out, "plan_nodes", static_cast<uint64_t>(r.plan_nodes));
  }
  if (r.string_pool_size > 0) {
    AppendUint(out, "string_pool_size", r.string_pool_size);
  }
  if (!r.diagnostics.empty()) {
    AppendKey(out, "diagnostics");
    out += diag::ToJson(r.diagnostics);
  }
  if (!r.phases.empty()) {
    AppendKey(out, "phases");
    out += '{';
    for (const auto& [name, ns] : r.phases) AppendUint(out, name, ns);
    out += '}';
  }
  if (r.profile.kind != JsonValue::Kind::kNull) {
    AppendKey(out, "profile");
    AppendJson(r.profile, out);
  }
}

std::string RunRecordToJson(const RunRecord& r) {
  std::string out = "{";
  AppendRunRecordJson(r, out);
  out += '}';
  return out;
}

RunRecord RunRecordFromJson(const JsonValue& v) {
  RunRecord r;
  r.event = v.StringOr("event", "");
  r.query_hash =
      std::strtoull(v.StringOr("query_hash", "0").c_str(), nullptr, 10);
  r.query = v.StringOr("query", "");
  r.ok = v.BoolOr("ok", true);
  r.error = v.StringOr("error", "");
  r.aborted_limit = v.StringOr("aborted_limit", "");
  r.wall_ns = v.UintOr("wall_ns", 0);
  r.rows_out = v.UintOr("rows_out", 0);
  r.exec_threads = v.UintOr("exec_threads", 0);
  r.peak_bytes = v.UintOr("peak_bytes", 0);
  r.bytes_allocated = v.UintOr("bytes_allocated", 0);
  r.parallel_efficiency = v.NumberOr("parallel_efficiency", 0);
  r.par_workers = v.UintOr<uint32_t>("par_workers", 0);
  if (const JsonValue* p = v.Find("profile")) r.profile = *p;
  r.em_allowed = v.BoolOr("em_allowed", false);
  r.level = v.UintOr<int>("level", 0);
  r.find_count = v.UintOr<int>("find_count", 0);
  r.ranf_size = v.UintOr<int>("ranf_size", 0);
  r.plan_nodes = v.UintOr<int>("plan_nodes", 0);
  if (const JsonValue* phases = v.Find("phases");
      phases != nullptr && phases->is_object()) {
    for (const auto& [name, ns] : phases->object) {
      if (ns.is_number()) {
        r.phases.emplace_back(name, phases->UintOr(name, 0));
      }
    }
  }
  if (const JsonValue* diags = v.Find("diagnostics");
      diags != nullptr && diags->is_array()) {
    r.diagnostics = diag::DiagnosticsFromJson(*diags);
  }
  r.string_pool_size = v.UintOr("string_pool_size", 0);
  return r;
}

}  // namespace emcalc::obs
