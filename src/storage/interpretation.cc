#include "src/storage/interpretation.h"

#include <algorithm>

namespace emcalc {

void FunctionRegistry::Register(
    const std::string& name, int arity,
    std::function<Value(std::span<const Value>)> fn) {
  functions_[name] = ScalarFunction{arity, std::move(fn), nullptr};
}

void FunctionRegistry::Register(
    const std::string& name, int arity,
    std::function<Value(std::span<const Value>)> fn,
    std::function<void(std::span<const std::span<const Value>>,
                       std::span<Value>)>
        batch) {
  functions_[name] = ScalarFunction{arity, std::move(fn), std::move(batch)};
}

const ScalarFunction* FunctionRegistry::Find(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

StatusOr<const ScalarFunction*> FunctionRegistry::Get(const std::string& name,
                                                      int arity) const {
  const ScalarFunction* f = Find(name);
  if (f == nullptr) {
    return NotFoundError("unknown scalar function '" + name + "'");
  }
  if (f->arity != arity) {
    return InvalidArgumentError("function '" + name + "' has arity " +
                                std::to_string(f->arity) + ", called with " +
                                std::to_string(arity));
  }
  return f;
}

namespace {

// Totality coercion: numeric view of any Value (strings map to length).
int64_t AsNum(const Value& v) {
  return v.is_int() ? v.AsInt() : static_cast<int64_t>(v.AsStr().size());
}

// String view of any Value (ints render as digits).
std::string AsText(const Value& v) {
  return v.is_int() ? std::to_string(v.AsInt()) : v.AsStr();
}

// Two's-complement arithmetic modulo 2^64: computed in uint64_t, where
// overflow is defined, and converted back (modular since C++20).
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

// AsNum with the inline-int decode kept in the loop body; pooled values
// (strings and big ints) take the out-of-line path.
int64_t FastNum(const Value& v) {
  uint64_t raw = v.raw();
  if ((raw & 1) == 0) return static_cast<int64_t>(raw) >> 1;
  return AsNum(v);
}

}  // namespace

FunctionRegistry BuiltinFunctions() {
  FunctionRegistry reg;
  // Numeric builtins register both forms from one int64 op, so the scalar
  // and batch paths cannot drift. The batch form is a tight column loop:
  // no per-row std::function dispatch, inline-int decode in the body.
  auto unary_num = [&reg](const std::string& name, auto op) {
    reg.Register(
        name, 1,
        [op](std::span<const Value> a) { return Value::Int(op(AsNum(a[0]))); },
        [op](std::span<const std::span<const Value>> args,
             std::span<Value> out) {
          const Value* a = args[0].data();
          for (size_t i = 0; i < out.size(); ++i) {
            out[i] = Value::Int(op(FastNum(a[i])));
          }
        });
  };
  auto binary_num = [&reg](const std::string& name, auto op) {
    reg.Register(
        name, 2,
        [op](std::span<const Value> a) {
          return Value::Int(op(AsNum(a[0]), AsNum(a[1])));
        },
        [op](std::span<const std::span<const Value>> args,
             std::span<Value> out) {
          const Value* a = args[0].data();
          const Value* b = args[1].data();
          for (size_t i = 0; i < out.size(); ++i) {
            out[i] = Value::Int(op(FastNum(a[i]), FastNum(b[i])));
          }
        });
  };
  // String-producing builtins keep the scalar form only (the batch kernels
  // loop it per lane; pool interning dominates either way).
  auto unary_str = [&reg](const std::string& name, auto op) {
    reg.Register(name, 1, [op](std::span<const Value> a) { return op(a[0]); });
  };
  auto binary_str = [&reg](const std::string& name, auto op) {
    reg.Register(name, 2,
                 [op](std::span<const Value> a) { return op(a[0], a[1]); });
  };

  unary_num("succ", [](int64_t n) { return WrapAdd(n, 1); });
  unary_num("pred", [](int64_t n) { return WrapSub(n, 1); });
  unary_num("double", [](int64_t n) { return WrapMul(n, 2); });
  unary_num("half", [](int64_t n) { return n / 2; });
  unary_num("abs", [](int64_t n) { return n < 0 ? WrapSub(0, n) : n; });
  unary_num("neg", [](int64_t n) { return WrapSub(0, n); });
  unary_num("len", [](int64_t n) { return n; });
  unary_str("first_char", [](const Value& v) {
    std::string s = AsText(v);
    return Value::Str(s.empty() ? "" : s.substr(0, 1));
  });

  binary_num("plus", [](int64_t a, int64_t b) { return WrapAdd(a, b); });
  binary_num("minus", [](int64_t a, int64_t b) { return WrapSub(a, b); });
  binary_num("times", [](int64_t a, int64_t b) { return WrapMul(a, b); });
  binary_num("min2", [](int64_t a, int64_t b) { return std::min(a, b); });
  binary_num("max2", [](int64_t a, int64_t b) { return std::max(a, b); });
  binary_str("concat", [](const Value& a, const Value& b) {
    return Value::Str(AsText(a) + AsText(b));
  });
  binary_num("mix", [](int64_t a, int64_t b) {
    uint64_t x = static_cast<uint64_t>(a) * 0x9e3779b97f4a7c15ULL +
                 static_cast<uint64_t>(b);
    x ^= x >> 29;
    return static_cast<int64_t>(x & 0x7fffffff);
  });
  return reg;
}

}  // namespace emcalc
