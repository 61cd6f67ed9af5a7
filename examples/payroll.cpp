// Payroll analytics: the paper's motivating scenario — calculus queries
// embedded in a host program, calling the host's own scalar functions
// (tax, raises, bonus policies) inside query formulas.
//
// Demonstrates: custom function registries, function composition in
// queries, negation + functions (the q2 pattern), and evaluation cost
// reporting.
#include <cstdio>

#include "src/core/compiler.h"
#include "src/core/workload.h"

namespace {

// The host program's business logic, exposed to the query language.
emcalc::FunctionRegistry PayrollFunctions() {
  using emcalc::Value;
  emcalc::FunctionRegistry reg = emcalc::BuiltinFunctions();
  reg.Register("tax", 1, [](std::span<const Value> a) {
    int64_t gross = a[0].is_int() ? a[0].AsInt() : 0;
    // Two brackets: 20% below 50k, 35% above.
    int64_t t = gross <= 50'000 ? gross / 5 : 10'000 + (gross - 50'000) * 35 / 100;
    return Value::Int(t);
  });
  reg.Register("net", 1, [](std::span<const Value> a) {
    int64_t gross = a[0].is_int() ? a[0].AsInt() : 0;
    int64_t t = gross <= 50'000 ? gross / 5 : 10'000 + (gross - 50'000) * 35 / 100;
    return Value::Int(gross - t);
  });
  reg.Register("with_raise", 1, [](std::span<const Value> a) {
    int64_t gross = a[0].is_int() ? a[0].AsInt() : 0;
    return Value::Int(gross * 110 / 100);
  });
  return reg;
}

void Show(const emcalc::CompiledQuery& q, const emcalc::Database& db,
          const char* label) {
  std::printf("\n== %s ==\nquery: %s\nplan:  %s\n", label,
              q.QueryString().c_str(), q.PlanString().c_str());
  emcalc::ExecProfile profile;
  auto answer = q.Run(db, &profile);
  if (!answer.ok()) {
    std::printf("error: %s\n", answer.status().ToString().c_str());
    return;
  }
  std::printf("%zu answer tuples (showing up to 5):\n", answer->size());
  size_t shown = 0;
  for (const auto& t : *answer) {
    if (++shown > 5) break;
    std::printf("  (");
    for (size_t i = 0; i < t.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", t[i].ToString().c_str());
    }
    std::printf(")\n");
  }
  std::printf("work: %llu tuples produced\n",
              static_cast<unsigned long long>(
                  emcalc::SumProfile(profile).rows_out));
}

}  // namespace

int main() {
  // EMP(id, dept, salary), DEPT(dept, budget), BONUS(id, amount).
  emcalc::Database db = emcalc::MakePayrollInstance(/*employees=*/200,
                                                    /*departments=*/6,
                                                    /*seed=*/2024);
  emcalc::Compiler compiler(PayrollFunctions());

  // Q1: net pay per employee — a pure extended-projection query; the plan
  // applies the host's net() point-wise, no domain enumeration anywhere.
  auto net_pay = compiler.Compile(
      "{e, n | exists d, s (EMP(e, d, s) and n = net(s))}");
  if (!net_pay.ok()) {
    std::printf("%s\n", net_pay.status().ToString().c_str());
    return 1;
  }
  Show(*net_pay, db, "net pay per employee");

  // Q2: employees whose 10% raise would *not* keep them under their
  // department's budget — negation over a function image, the paper's q2
  // shape (em-allowed, yet not range-restricted in the AB88 sense).
  auto over_budget = compiler.Compile(
      "{e | exists d, s, r (EMP(e, d, s) and with_raise(s) = r and "
      "not UNDER(d, r))}");
  if (!over_budget.ok()) {
    std::printf("%s\n", over_budget.status().ToString().c_str());
    return 1;
  }
  // Materialize UNDER(dept, amount) = amounts under budget for this demo:
  // amount values come from the raise image, so build it from a query.
  auto raise_values = compiler.Compile(
      "{d, r | exists e, s (EMP(e, d, s) and with_raise(s) = r)}");
  if (!raise_values.ok()) return 1;
  auto rv = raise_values->Run(db);
  if (!rv.ok()) return 1;
  for (const auto& t : *rv) {
    int64_t dept = t[0].AsInt();
    int64_t amount = t[1].AsInt();
    const emcalc::Relation* depts = db.Find("DEPT");
    for (const auto& drow : *depts) {
      if (drow[0].AsInt() == dept && amount <= drow[1].AsInt()) {
        if (!db.Insert("UNDER", {t[0], t[1]}).ok()) return 1;
      }
    }
  }
  if (db.Find("UNDER") == nullptr) {
    if (!db.AddRelation("UNDER", 2).ok()) return 1;
  }
  Show(*over_budget, db, "raises breaking the department budget");

  // Q3: employees whose net pay plus bonus beats a constant threshold —
  // function composition plus a join.
  auto comfortable = compiler.Compile(
      "{e | exists d, s, b, t (EMP(e, d, s) and BONUS(e, b) and "
      "plus(net(s), b) = t and GOOD(t))}");
  if (!comfortable.ok()) {
    std::printf("%s\n", comfortable.status().ToString().c_str());
    return 1;
  }
  // GOOD holds the "comfortable" total-income values seen in this instance
  // (a materialized predicate; Section 9 of the paper discusses externally
  // defined predicates like '>' — here we stay within finite relations).
  auto totals = compiler.Compile(
      "{t | exists e, d, s, b (EMP(e, d, s) and BONUS(e, b) and "
      "plus(net(s), b) = t)}");
  if (!totals.ok()) return 1;
  auto tv = totals->Run(db);
  if (!tv.ok()) return 1;
  for (const auto& t : *tv) {
    if (t[0].AsInt() >= 60'000) {
      if (!db.Insert("GOOD", {t[0]}).ok()) return 1;
    }
  }
  if (db.Find("GOOD") == nullptr) {
    if (!db.AddRelation("GOOD", 1).ok()) return 1;
  }
  Show(*comfortable, db, "net + bonus at least 60000");

  // Q4: a *parameterized* query — the paper's "em-allowed for X"
  // (Section 9). The parameters dept/floor are bound by this program at
  // run time; the safety analysis treats them as externally bounded.
  auto by_dept = compiler.CompileParameterized(
      "{e | exists s (EMP(e, d, s) and floor <= net(s))}", {"d", "floor"});
  if (!by_dept.ok()) {
    std::printf("%s\n", by_dept.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== parameterized: well-paid employees per department ==\n");
  for (int64_t dept = 0; dept < 3; ++dept) {
    auto r = by_dept->Run(db, {emcalc::Value::Int(dept),
                               emcalc::Value::Int(55'000)});
    if (!r.ok()) return 1;
    std::printf("  dept %lld: %zu employees net >= 55000\n",
                static_cast<long long>(dept), r->size());
  }

  // Q5: views — name a subquery once, reuse it as a relation atom.
  if (!compiler
           .DefineView("WELL_PAID",
                       "{e, d | exists s (EMP(e, d, s) and 60000 <= net(s))}")
           .ok()) {
    return 1;
  }
  auto dept_has_star = compiler.Compile(
      "{d | exists b (DEPT(d, b)) and exists e (WELL_PAID(e, d))}");
  if (!dept_has_star.ok()) {
    std::printf("%s\n", dept_has_star.status().ToString().c_str());
    return 1;
  }
  Show(*dept_has_star, db, "departments with a well-paid employee (view)");

  return 0;
}
