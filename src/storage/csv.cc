#include "src/storage/csv.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>

namespace emcalc {
namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// int when the whole trimmed field is an optionally-signed integer;
// quoted or anything else -> string. Returns false for an integer outside
// the int64 range.
bool ParseField(const std::string& raw, Value* out) {
  std::string field = Trim(raw);
  if (field.size() >= 2 && field.front() == '\'' && field.back() == '\'') {
    *out = Value::Str(field.substr(1, field.size() - 2));
    return true;
  }
  // from_chars takes no leading '+'; skip one so "+5" stays an int.
  size_t digits = field.size() >= 2 && field[0] == '+' &&
                          std::isdigit(static_cast<unsigned char>(field[1]))
                      ? 1
                      : 0;
  const char* end = field.data() + field.size();
  int64_t v = 0;
  std::from_chars_result r = std::from_chars(field.data() + digits, end, v);
  if (r.ptr == end && !field.empty()) {
    if (r.ec != std::errc()) return false;
    *out = Value::Int(v);
    return true;
  }
  *out = Value::Str(field);
  return true;
}

}  // namespace

Status LoadCsv(Database& db, const std::string& name, std::istream& in) {
  std::string line;
  int line_no = 0;
  int arity = -1;
  while (std::getline(in, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    Tuple tuple;
    std::string field;
    std::stringstream row(trimmed);
    while (std::getline(row, field, ',')) {
      Value v;
      if (!ParseField(field, &v)) {
        return InvalidArgumentError("line " + std::to_string(line_no) +
                                    ": integer literal out of range: " +
                                    Trim(field));
      }
      tuple.push_back(v);
    }
    if (arity == -1) {
      arity = static_cast<int>(tuple.size());
      if (Status s = db.AddRelation(name, arity); !s.ok()) return s;
    } else if (static_cast<int>(tuple.size()) != arity) {
      return InvalidArgumentError(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(arity) + " fields, got " +
          std::to_string(tuple.size()));
    }
    if (Status s = db.Insert(name, std::move(tuple)); !s.ok()) {
      // Insert validates tuple arity via Relation::TryInsert; surface the
      // offending line instead of crashing on malformed input.
      return InvalidArgumentError("line " + std::to_string(line_no) + ": " +
                                  s.message());
    }
  }
  return Status::Ok();
}

Status LoadCsvText(Database& db, const std::string& name,
                   const std::string& text) {
  std::istringstream in(text);
  return LoadCsv(db, name, in);
}

Status LoadCsvFile(Database& db, const std::string& name,
                   const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  return LoadCsv(db, name, in);
}

void WriteCsv(const Relation& rel, std::ostream& out) {
  for (TupleRef t : rel) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out << ",";
      out << t[i].ToString();
    }
    out << "\n";
  }
}

std::string WriteCsvText(const Relation& rel) {
  std::ostringstream out;
  WriteCsv(rel, out);
  return out.str();
}

}  // namespace emcalc
