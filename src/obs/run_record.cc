#include "src/obs/run_record.h"

#include <charconv>
#include <cstdlib>
#include <utility>

namespace emcalc::obs {

namespace {

void AppendString(std::string& out, const char* key, const std::string& s) {
  out += ",\"";
  out += key;
  out += "\":\"" + JsonEscape(s) + "\"";
}

void AppendUint(std::string& out, const char* key, uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":" + std::to_string(v);
}

void AppendDouble(std::string& out, const char* key, double v) {
  char buf[32];  // the longest shortest-form double is 24 characters
  out += ",\"";
  out += key;
  out += "\":";
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

void AppendRunRecordJson(const RunRecord& r, std::string& out) {
  AppendString(out, "query_hash", std::to_string(r.query_hash));
  if (!r.query.empty()) AppendString(out, "query", r.query);
  out += ",\"ok\":";
  out += r.ok ? "true" : "false";
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
    AppendDouble(out, "parallel_efficiency", r.parallel_efficiency);
    AppendUint(out, "par_workers", r.par_workers);
  }
  if (r.ops.empty()) return;
  out += ",\"ops\":[";
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const RunRecord::Op& op = r.ops[i];
    out += i == 0 ? "{\"path\":\"" : ",{\"path\":\"";
    out += JsonEscape(op.path) + "\"";
    AppendString(out, "op", op.op);
    AppendUint(out, "actual", op.actual_rows);
    if (op.rows_sorted > 0) AppendUint(out, "rows_sorted", op.rows_sorted);
    if (op.normalize_ns > 0) AppendUint(out, "normalize_ns", op.normalize_ns);
    out += "}";
  }
  out += "]";
}

RunRecord RunRecordFromJson(const JsonValue& v) {
  RunRecord r;
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
  if (const JsonValue* ops = v.Find("ops");
      ops != nullptr && ops->is_array()) {
    r.ops.reserve(ops->array.size());
    for (const JsonValue& o : ops->array) {
      if (!o.is_object()) continue;
      RunRecord::Op op;
      op.path = o.StringOr("path", "");
      op.op = o.StringOr("op", "");
      op.actual_rows = o.UintOr("actual", 0);
      op.rows_sorted = o.UintOr("rows_sorted", 0);
      op.normalize_ns = o.UintOr("normalize_ns", 0);
      r.ops.push_back(std::move(op));
    }
  }
  return r;
}

}  // namespace emcalc::obs
