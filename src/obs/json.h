// Minimal JSON support for the observability subsystem: escaping for the
// emitters (trace, metrics, query log, bench records) and a small parser
// used to validate and round-trip our own output. The parser handles the
// full JSON grammar (objects, arrays, strings, numbers, bools, null) but
// is tuned for machine-generated single-line documents, not arbitrary
// user input.
#ifndef EMCALC_OBS_JSON_H_
#define EMCALC_OBS_JSON_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace emcalc::obs {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included). Control characters become \uXXXX.
std::string JsonEscape(std::string_view s);

// A parsed JSON document. Object member order is preserved.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // First member named `key`, or nullptr (objects only).
  const JsonValue* Find(std::string_view key) const;

  // Convenience accessors with defaults for absent/mistyped members.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

  // The member as a count, size or time of integer type T: `fallback` when
  // the member is absent, not a number, not finite, negative or beyond T's
  // range. Readers of logs, bundles and profiles go through this instead
  // of casting the double, so a hostile value never reaches an undefined
  // conversion.
  template <typename T = uint64_t>
  T UintOr(std::string_view key, std::type_identity_t<T> fallback) const {
    double v = NumberOr(key, -1);
    // 2^N for T's N value bits: for 64-bit T the cast of max() already
    // rounds up to it and the + 1 is absorbed. NaN fails both tests.
    constexpr double kLimit =
        static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    if (!(v >= 0) || !(v < kLimit)) return fallback;
    return static_cast<T>(v);
  }
};

// Parses one JSON document; trailing non-whitespace is an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_JSON_H_
