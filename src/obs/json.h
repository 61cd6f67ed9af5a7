// Minimal JSON support for the observability subsystem: escaping for the
// emitters (trace, metrics, query log, bench records), a document type
// with a writer for the records built as trees (run records and their
// profile), and a small parser used to validate and round-trip our own
// output. The parser handles the full JSON grammar (objects, arrays,
// strings, numbers, bools, null) but is tuned for machine-generated
// single-line documents, not arbitrary user input.
#ifndef EMCALC_OBS_JSON_H_
#define EMCALC_OBS_JSON_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/base/status.h"

namespace emcalc::obs {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included). Control characters become \uXXXX.
std::string JsonEscape(std::string_view s);

// A JSON number. An integral one in [-2^63, 2^64) is held exactly: as
// uint64_t when it is not negative, as int64_t when it is; any other as a
// double. So a 64-bit hash or event argument reads back with every bit.
using JsonNumber = std::variant<double, int64_t, uint64_t>;

// A JSON document, parsed or built in memory. Object member order is
// preserved.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  JsonNumber number;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // Builders for documents assembled in memory.
  static JsonValue Object() { return Of(Kind::kObject); }
  static JsonValue Array() { return Of(Kind::kArray); }
  static JsonValue Bool(bool b) {
    JsonValue v = Of(Kind::kBool);
    v.boolean = b;
    return v;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  static JsonValue Number(T n) {
    JsonValue v = Of(Kind::kNumber);
    if constexpr (std::is_floating_point_v<T>) {
      v.number = NumberFromDouble(static_cast<double>(n));
    } else if constexpr (std::is_signed_v<T>) {
      if (n < 0) {
        v.number = static_cast<int64_t>(n);
      } else {
        v.number = static_cast<uint64_t>(n);
      }
    } else {
      v.number = static_cast<uint64_t>(n);
    }
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v = Of(Kind::kString);
    v.string = std::move(s);
    return v;
  }

  // First member named `key`, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;

  // Convenience accessors with defaults for absent/mistyped members.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

  // The member as a count, size or time of integer type T: `fallback` when
  // the member is absent, not a number, not finite, negative or beyond T's
  // range. An integer reads exactly; a fraction truncates toward zero.
  // Readers of logs, bundles and profiles go through this instead of
  // casting, so a hostile value never reaches an undefined conversion.
  template <typename T = uint64_t>
  T UintOr(std::string_view key, std::type_identity_t<T> fallback) const {
    const JsonValue* v = Find(key);
    if (v == nullptr || !v->is_number()) return fallback;
    constexpr auto kMax = static_cast<uint64_t>(std::numeric_limits<T>::max());
    if (const auto* u = std::get_if<uint64_t>(&v->number)) {
      return *u <= kMax ? static_cast<T>(*u) : fallback;
    }
    const auto* d = std::get_if<double>(&v->number);  // null if negative
    // 2^N for T's N value bits: for 64-bit T the cast of kMax already
    // rounds up to it and the + 1 is absorbed. NaN fails both tests.
    constexpr double kLimit = static_cast<double>(kMax) + 1.0;
    if (d == nullptr || !(*d >= 0) || !(*d < kLimit)) return fallback;
    return static_cast<T>(*d);
  }

  bool operator==(const JsonValue&) const = default;

 private:
  // `d` as an exact integer when it is integral and in range, else as is,
  // so a built document equals the parse of its own output.
  static JsonNumber NumberFromDouble(double d);

  static JsonValue Of(Kind k) {
    JsonValue v;
    v.kind = k;
    return v;
  }
};

// Writes `v` as single-line JSON with no whitespace. An integer is written
// in integer form ("1000000", not "1e+06"); any other number in its
// shortest round-trip form. Parsing the output gives back an equal
// document.
void AppendJson(const JsonValue& v, std::string& out);
std::string ToJson(const JsonValue& v);

// Parses one JSON document; trailing non-whitespace is an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_JSON_H_
