// Scalar-function interpretations. The paper assumes an interpretation F
// assigning to each function symbol a *total* function dom^n -> dom; query
// answers are defined relative to (I, F). This module provides the function
// registry and a built-in library of total functions over our mixed
// int/string domain.
#ifndef EMCALC_STORAGE_INTERPRETATION_H_
#define EMCALC_STORAGE_INTERPRETATION_H_

#include <functional>
#include <map>
#include <span>
#include <string>

#include "src/base/status.h"
#include "src/base/value.h"

namespace emcalc {

// A total scalar function of fixed arity.
struct ScalarFunction {
  int arity = 0;
  std::function<Value(std::span<const Value>)> fn;
  // Optional vectorized form used by the batch kernels
  // (src/exec/scalar_program.h): args[j] is the j-th argument column, each
  // out.size() lanes; must write fn({args[0][i], ...}) to out[i] for every
  // lane. Absent => the kernels loop the scalar form per lane.
  std::function<void(std::span<const std::span<const Value>>,
                     std::span<Value>)>
      batch;
};

// Maps function names to implementations. Keyed by name strings so a
// registry is independent of any AstContext.
class FunctionRegistry {
 public:
  FunctionRegistry() = default;

  // Registers (or replaces) `name`.
  void Register(const std::string& name, int arity,
                std::function<Value(std::span<const Value>)> fn);

  // Registers (or replaces) `name` with both scalar and vectorized forms.
  void Register(const std::string& name, int arity,
                std::function<Value(std::span<const Value>)> fn,
                std::function<void(std::span<const std::span<const Value>>,
                                   std::span<Value>)>
                    batch);

  // Lookup; nullptr when absent.
  const ScalarFunction* Find(const std::string& name) const;

  // Lookup that checks existence and arity.
  StatusOr<const ScalarFunction*> Get(const std::string& name,
                                      int arity) const;

  const std::map<std::string, ScalarFunction>& functions() const {
    return functions_;
  }

 private:
  std::map<std::string, ScalarFunction> functions_;
};

// A registry preloaded with total builtins. Functions must be total on the
// whole mixed domain; string arguments to numeric functions are coerced to
// their length (documented convention, keeps every builtin total). The
// arithmetic builtins (succ, pred, double, abs, neg, plus, minus, times)
// wrap modulo 2^64 in two's complement, so they are defined at the int64
// boundaries: succ(INT64_MAX) = INT64_MIN, and abs(INT64_MIN) =
// neg(INT64_MIN) = INT64_MIN. The scalar and batch forms of a builtin
// share one op and agree on every input.
//   succ/1, pred/1, double/1, half/1, abs/1, neg/1,
//   plus/2, minus/2, times/2, min2/2, max2/2,
//   len/1 (string length; ints pass through),
//   concat/2 (string concatenation; ints are rendered as digits),
//   first_char/1, mix/2 (a cheap injective-ish hash combiner).
FunctionRegistry BuiltinFunctions();

}  // namespace emcalc

#endif  // EMCALC_STORAGE_INTERPRETATION_H_
