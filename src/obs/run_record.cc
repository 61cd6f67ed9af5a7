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

uint64_t UintOr(const JsonValue& v, const char* key) {
  return static_cast<uint64_t>(v.NumberOr(key, 0));
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
  if (r.est_history_ops > 0) {
    AppendUint(out, "est_history_ops", r.est_history_ops);
  }
  if (r.par_workers > 0) {
    AppendDouble(out, "parallel_efficiency", r.parallel_efficiency);
    AppendUint(out, "par_workers", r.par_workers);
  }
  if (r.misestimate_factor > 0) {
    AppendDouble(out, "misestimate_factor", r.misestimate_factor);
    AppendString(out, "misestimate_op", r.misestimate_op);
  }
  if (r.ops.empty()) return;
  out += ",\"ops\":[";
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const RunRecord::Op& op = r.ops[i];
    out += i == 0 ? "{\"path\":\"" : ",{\"path\":\"";
    out += JsonEscape(op.path) + "\"";
    AppendString(out, "op", op.op);
    AppendDouble(out, "est", op.est_rows);
    AppendUint(out, "actual", op.actual_rows);
    AppendDouble(out, "factor", op.factor);
    if (op.est_history_runs > 0) {
      AppendUint(out, "est_history_runs", op.est_history_runs);
    }
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
  r.wall_ns = UintOr(v, "wall_ns");
  r.rows_out = UintOr(v, "rows_out");
  r.exec_threads = UintOr(v, "exec_threads");
  r.peak_bytes = UintOr(v, "peak_bytes");
  r.bytes_allocated = UintOr(v, "bytes_allocated");
  r.est_history_ops = UintOr(v, "est_history_ops");
  r.parallel_efficiency = v.NumberOr("parallel_efficiency", 0);
  r.par_workers = static_cast<uint32_t>(v.NumberOr("par_workers", 0));
  r.misestimate_factor = v.NumberOr("misestimate_factor", 0);
  r.misestimate_op = v.StringOr("misestimate_op", "");
  if (const JsonValue* ops = v.Find("ops");
      ops != nullptr && ops->is_array()) {
    r.ops.reserve(ops->array.size());
    for (const JsonValue& o : ops->array) {
      if (!o.is_object()) continue;
      RunRecord::Op op;
      op.path = o.StringOr("path", "");
      op.op = o.StringOr("op", "");
      op.est_rows = o.NumberOr("est", -1);
      op.actual_rows = UintOr(o, "actual");
      op.factor = o.NumberOr("factor", 1);
      op.est_history_runs = UintOr(o, "est_history_runs");
      op.rows_sorted = UintOr(o, "rows_sorted");
      op.normalize_ns = UintOr(o, "normalize_ns");
      r.ops.push_back(std::move(op));
    }
  }
  return r;
}

}  // namespace emcalc::obs
