#include "src/obs/inspect.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

namespace emcalc::obs {

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string FormatPercent(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", f * 100.0);
  return buf;
}

// Queries are rendered on one line; clip long ones so tables stay tables.
std::string ClipQuery(const std::string& q, size_t max = 60) {
  std::string out;
  out.reserve(std::min(q.size(), max));
  for (char c : q) {
    out += (c == '\n' || c == '\t') ? ' ' : c;
    if (out.size() >= max) break;
  }
  if (q.size() > max) out += "...";
  return out;
}

}  // namespace

QueryLogScan ParseQueryLogText(std::string_view text) {
  QueryLogScan scan;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() : nl + 1;
    if (line.empty()) continue;
    auto record = ParseQueryLogRecord(line);
    if (record.ok()) {
      scan.records.push_back(std::move(record).value());
    } else {
      ++scan.bad_lines;
    }
  }
  return scan;
}

StatusOr<QueryLogScan> ReadQueryLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return InvalidArgumentError("cannot open query log: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseQueryLogText(buf.str());
}

StatusOr<QueryLogScan> ReadQueryLogWithRotation(const std::string& path) {
  auto current = ReadQueryLog(path);
  if (!current.ok()) return current.status();
  std::ifstream rotated(path + ".1", std::ios::binary);
  if (!rotated) return current;  // no rotated segment: just the live file
  std::ostringstream buf;
  buf << rotated.rdbuf();
  QueryLogScan scan = ParseQueryLogText(buf.str());  // oldest records first
  scan.records.insert(scan.records.end(),
                      std::make_move_iterator(current->records.begin()),
                      std::make_move_iterator(current->records.end()));
  scan.bad_lines += current->bad_lines;
  return scan;
}

std::string RenderTopSlowest(const QueryLogScan& scan, size_t k) {
  std::vector<const RunRecord*> runs;
  for (const QueryLogRecord& r : scan.records) {
    if (r.event == "run") runs.push_back(&r.run);
  }
  // Ties break on query hash so the listing is stable across qsorts.
  std::sort(runs.begin(), runs.end(),
            [](const RunRecord* a, const RunRecord* b) {
              if (a->wall_ns != b->wall_ns) return a->wall_ns > b->wall_ns;
              return a->query_hash < b->query_hash;
            });
  if (runs.size() > k) runs.resize(k);
  std::string out = "top " + std::to_string(runs.size()) + " slowest runs\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = *runs[i];
    out += "  " + std::to_string(i + 1) + ". " + FormatMs(r.wall_ns);
    out += " rows=" + std::to_string(r.rows_out);
    if (!r.ok) {
      out += r.aborted_limit.empty() ? " error"
                                     : " aborted=" + r.aborted_limit;
    }
    if (r.par_workers > 0) {
      out += " eff=" + FormatPercent(r.parallel_efficiency);
    }
    out += "  " + ClipQuery(r.query) + "\n";
  }
  return out;
}

std::string RenderAborts(const QueryLogScan& scan) {
  size_t runs = 0;
  size_t plain_errors = 0;
  // limit -> (count, example query)
  std::map<std::string, std::pair<size_t, std::string>> by_limit;
  for (const QueryLogRecord& record : scan.records) {
    if (record.event != "run") continue;
    const RunRecord& r = record.run;
    ++runs;
    if (r.ok) continue;
    if (r.aborted_limit.empty()) {
      ++plain_errors;
      continue;
    }
    auto& slot = by_limit[r.aborted_limit];
    if (slot.first == 0) slot.second = r.query;
    ++slot.first;
  }
  size_t aborts = 0;
  for (const auto& [limit, slot] : by_limit) aborts += slot.first;
  std::string out = "aborts: " + std::to_string(aborts) + " of " +
                    std::to_string(runs) + " runs\n";
  std::vector<std::pair<std::string, std::pair<size_t, std::string>>> sorted(
      by_limit.begin(), by_limit.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second.first != b.second.first)
      return a.second.first > b.second.first;
    return a.first < b.first;
  });
  for (const auto& [limit, slot] : sorted) {
    out += "  " + limit + ": " + std::to_string(slot.first) + "\n";
    out += "    e.g. " + ClipQuery(slot.second) + "\n";
  }
  if (plain_errors > 0) {
    out += "errors (non-governor): " + std::to_string(plain_errors) + "\n";
  }
  return out;
}

std::string RenderLogSummary(const QueryLogScan& scan) {
  size_t compiles = 0;
  size_t runs = 0;
  size_t run_ok = 0;
  size_t run_errors = 0;
  size_t run_aborts = 0;
  size_t parallel_runs = 0;
  uint64_t wall_total = 0;
  uint64_t wall_max = 0;
  uint64_t rows_total = 0;
  double eff_sum = 0;
  for (const QueryLogRecord& record : scan.records) {
    if (record.event == "compile") {
      ++compiles;
      continue;
    }
    if (record.event != "run") continue;
    const RunRecord& r = record.run;
    ++runs;
    wall_total += r.wall_ns;
    wall_max = std::max(wall_max, r.wall_ns);
    rows_total += r.rows_out;
    if (r.ok) {
      ++run_ok;
    } else if (r.aborted_limit.empty()) {
      ++run_errors;
    } else {
      ++run_aborts;
    }
    if (r.par_workers > 0) {
      ++parallel_runs;
      eff_sum += r.parallel_efficiency;
    }
  }
  std::string out = "records: " + std::to_string(scan.records.size()) +
                    " (compile=" + std::to_string(compiles) +
                    " run=" + std::to_string(runs) +
                    ", bad lines=" + std::to_string(scan.bad_lines) + ")\n";
  out += "runs: ok=" + std::to_string(run_ok) +
         " errors=" + std::to_string(run_errors) +
         " aborts=" + std::to_string(run_aborts) + "\n";
  if (runs > 0) {
    out += "wall: total=" + FormatMs(wall_total) + " mean=" +
           FormatMs(wall_total / runs) + " max=" + FormatMs(wall_max) + "\n";
    out += "rows out: " + std::to_string(rows_total) + "\n";
  }
  if (parallel_runs > 0) {
    out += "parallel runs: " + std::to_string(parallel_runs) + " (mean eff=" +
           FormatPercent(eff_sum / static_cast<double>(parallel_runs)) +
           ")\n";
  }
  return out;
}

StatusOr<PostmortemBundle> ParsePostmortemBundle(std::string_view json) {
  auto doc = ParseJson(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return InvalidArgumentError("postmortem bundle is not a JSON object");
  }
  PostmortemBundle bundle;
  bundle.reason = doc->StringOr("reason", "");
  bundle.signal_name = doc->StringOr("signal_name", "");
  bundle.run = RunRecordFromJson(*doc);
  if (const JsonValue* v = doc->Find("profile")) bundle.profile = *v;
  if (const JsonValue* v = doc->Find("metrics")) bundle.metrics = *v;
  if (const JsonValue* v = doc->Find("pool")) bundle.pool = *v;
  if (const JsonValue* ring = doc->Find("flight_recorder");
      ring != nullptr && ring->is_array()) {
    bundle.events.reserve(ring->array.size());
    for (const JsonValue& e : ring->array) {
      if (!e.is_object()) continue;
      BundleEvent event;
      event.ts_ns = e.UintOr("ts_ns", 0);
      event.arg = e.UintOr("arg", 0);
      event.tid = e.UintOr<uint32_t>("tid", 0);
      event.kind = e.StringOr("kind", "");
      event.name = e.StringOr("name", "");
      bundle.events.push_back(std::move(event));
    }
  }
  return bundle;
}

StatusOr<PostmortemBundle> ReadPostmortemBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return InvalidArgumentError("cannot open bundle: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParsePostmortemBundle(buf.str());
}

std::string RenderBundle(const PostmortemBundle& bundle) {
  std::string out = "reason: " + bundle.reason + "\n";
  if (!bundle.signal_name.empty()) {
    out += "signal: " + bundle.signal_name + "\n";
  }
  const RunRecord& run = bundle.run;
  if (!run.aborted_limit.empty()) {
    out += "aborted_limit: " + run.aborted_limit + "\n";
  }
  if (!run.error.empty()) out += "error: " + run.error + "\n";
  if (run.query_hash != 0) {
    out += "query_hash: " + std::to_string(run.query_hash) + "\n";
  }
  if (!run.query.empty()) {
    out += "query: " + ClipQuery(run.query, 200) + "\n";
  }
  std::map<std::string, size_t> by_kind;
  for (const BundleEvent& e : bundle.events) ++by_kind[e.kind];
  out += "flight events: " + std::to_string(bundle.events.size());
  if (!by_kind.empty()) {
    out += " (";
    bool first = true;
    for (const auto& [kind, count] : by_kind) {
      if (!first) out += ", ";
      first = false;
      out += kind + "=" + std::to_string(count);
    }
    out += ")";
  }
  out += "\n";
  constexpr size_t kTail = 10;
  size_t start = bundle.events.size() > kTail ? bundle.events.size() - kTail : 0;
  if (start < bundle.events.size()) out += "newest events:\n";
  for (size_t i = start; i < bundle.events.size(); ++i) {
    const BundleEvent& e = bundle.events[i];
    out += "  " + std::to_string(e.ts_ns) + " tid=" + std::to_string(e.tid) +
           " " + e.kind + " " + e.name;
    if (e.arg != 0) out += " arg=" + std::to_string(e.arg);
    out += "\n";
  }
  return out;
}

std::string BundleToChromeTrace(const PostmortemBundle& bundle) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const BundleEvent& e : bundle.events) {
    const char* ph = "i";
    if (e.kind == "span_begin") {
      ph = "B";
    } else if (e.kind == "span_end") {
      ph = "E";
    }
    if (!first) out += ",";
    first = false;
    char ts[40];
    std::snprintf(ts, sizeof(ts), "%.3f",
                  static_cast<double>(e.ts_ns) / 1e3);  // us
    out += "{\"name\":\"" + JsonEscape(e.name) + "\",\"cat\":\"" +
           JsonEscape(e.kind) + "\",\"ph\":\"" + ph + "\",\"ts\":" + ts +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    // Instants need a scope; args carry the event payload either way.
    if (ph[0] == 'i') out += ",\"s\":\"t\"";
    if (e.arg != 0) out += ",\"args\":{\"arg\":" + std::to_string(e.arg) + "}";
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace emcalc::obs
