#include "src/obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace emcalc::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return std::visit([](auto n) { return static_cast<double>(n); }, v->number);
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string : std::move(fallback);
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == Kind::kBool ? v->boolean : fallback;
}

JsonNumber JsonValue::NumberFromDouble(double d) {
  if (d >= 0 && d < 0x1p64 && std::trunc(d) == d) {
    return static_cast<uint64_t>(d);
  }
  if (d < 0 && d >= -0x1p63 && std::trunc(d) == d) {
    return static_cast<int64_t>(d);
  }
  return d;
}

namespace {

void AppendNumber(const JsonNumber& n, std::string& out) {
  const double* d = std::get_if<double>(&n);
  if (d != nullptr && !std::isfinite(*d)) {
    out += "null";  // JSON has no spelling for NaN or infinity
    return;
  }
  char buf[32];  // the longest shortest-form double is 24 characters
  char* end = std::visit(
      [&buf](auto v) { return std::to_chars(buf, buf + sizeof(buf), v).ptr; },
      n);
  out.append(buf, end);
}

}  // namespace

void AppendJson(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      AppendNumber(v.number, out);
      return;
    case JsonValue::Kind::kString:
      out += '"';
      out += JsonEscape(v.string);
      out += '"';
      return;
    case JsonValue::Kind::kObject:
      out += '{';
      for (size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += JsonEscape(v.object[i].first);
        out += "\":";
        AppendJson(v.object[i].second, out);
      }
      out += '}';
      return;
    case JsonValue::Kind::kArray:
      out += '[';
      for (size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        AppendJson(v.array[i], out);
      }
      out += ']';
      return;
  }
}

std::string ToJson(const JsonValue& v) {
  std::string out;
  AppendJson(v, out);
  return out;
}

namespace {

// Bounds the parser's recursion on hostile input. A run record's profile
// tree takes two levels per operator, so this admits plans about 250
// operators deep (a query with 20 nested negations lowers to a plan 43
// operators deep).
constexpr int kMaxDepth = 512;

struct Parser {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipSpace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos;
  }

  Status Err(const std::string& what) const {
    return InvalidArgumentError("json parse error at offset " +
                                std::to_string(pos) + ": " + what);
  }

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipSpace();
    if (AtEnd()) return Err("unexpected end of input");
    char c = Peek();
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (!AtEnd() && Peek() == '}') {
      ++pos;
      return out;
    }
    while (true) {
      SkipSpace();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipSpace();
      if (AtEnd() || Peek() != ':') return Err("expected ':'");
      ++pos;
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      out.object.emplace_back(std::move(key->string),
                              std::move(value).value());
      SkipSpace();
      if (AtEnd()) return Err("unterminated object");
      if (Peek() == ',') {
        ++pos;
        continue;
      }
      if (Peek() == '}') {
        ++pos;
        return out;
      }
      return Err("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (!AtEnd() && Peek() == ']') {
      ++pos;
      return out;
    }
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      out.array.push_back(std::move(value).value());
      SkipSpace();
      if (AtEnd()) return Err("unterminated array");
      if (Peek() == ',') {
        ++pos;
        continue;
      }
      if (Peek() == ']') {
        ++pos;
        return out;
      }
      return Err("expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> ParseString() {
    if (AtEnd() || Peek() != '"') return Err("expected string");
    ++pos;
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    while (!AtEnd() && Peek() != '"') {
      char c = text[pos++];
      if (c != '\\') {
        out.string += c;
        continue;
      }
      if (AtEnd()) return Err("dangling escape");
      char e = text[pos++];
      switch (e) {
        case '"': out.string += '"'; break;
        case '\\': out.string += '\\'; break;
        case '/': out.string += '/'; break;
        case 'b': out.string += '\b'; break;
        case 'f': out.string += '\f'; break;
        case 'n': out.string += '\n'; break;
        case 'r': out.string += '\r'; break;
        case 't': out.string += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return Err("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad \\u escape");
          }
          // Our emitters only \u-escape control characters; encode the
          // general case as UTF-8 anyway.
          if (code < 0x80) {
            out.string += static_cast<char>(code);
          } else if (code < 0x800) {
            out.string += static_cast<char>(0xC0 | (code >> 6));
            out.string += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out.string += static_cast<char>(0xE0 | (code >> 12));
            out.string += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out.string += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    if (AtEnd()) return Err("unterminated string");
    ++pos;  // closing quote
    return out;
  }

  StatusOr<JsonValue> ParseBool() {
    JsonValue out;
    out.kind = JsonValue::Kind::kBool;
    if (text.substr(pos, 4) == "true") {
      pos += 4;
      out.boolean = true;
      return out;
    }
    if (text.substr(pos, 5) == "false") {
      pos += 5;
      out.boolean = false;
      return out;
    }
    return Err("expected 'true' or 'false'");
  }

  StatusOr<JsonValue> ParseNull() {
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      return JsonValue{};
    }
    return Err("expected 'null'");
  }

  // An integer literal in [-2^63, 2^64) parses exactly (see JsonNumber);
  // every other number, as a double.
  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos;
    bool integral = true;
    while (!AtEnd() &&
           (std::isdigit(static_cast<unsigned char>(Peek())) || Peek() == '.' ||
            Peek() == 'e' || Peek() == 'E' || Peek() == '-' || Peek() == '+')) {
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) integral = false;
      ++pos;
    }
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    const char* first = text.data() + start;
    const char* last = text.data() + pos;
    if (integral && ParseInteger(first, last, out.number)) return out;
    double d = 0;
    auto [end, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || end != last) {
      pos = start;
      return Err("malformed number");
    }
    out.number = d;
    return out;
  }

  // [first, last) as an exact integer; false when it is no integer
  // literal or lies outside [-2^63, 2^64).
  static bool ParseInteger(const char* first, const char* last,
                           JsonNumber& out) {
    std::from_chars_result r;
    if (*first == '-') {
      int64_t v = 0;
      r = std::from_chars(first, last, v);
      if (v < 0) {
        out = v;
      } else {
        out = uint64_t{0};  // "-0"
      }
    } else {
      uint64_t v = 0;
      r = std::from_chars(first, last, v);
      out = v;
    }
    return r.ec == std::errc() && r.ptr == last;
  }
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  Parser parser{text};
  auto value = parser.ParseValue(0);
  if (!value.ok()) return value.status();
  parser.SkipSpace();
  if (!parser.AtEnd()) return parser.Err("trailing content");
  return value;
}

}  // namespace emcalc::obs
