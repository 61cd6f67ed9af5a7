// Quickstart: compile a calculus query with scalar functions, inspect the
// safety analysis and the generated extended-algebra plan, and run it.
//
//   $ ./quickstart
//
// Walks through the full pipeline on a small graph database.
#include <cstdio>

#include "src/algebra/printer.h"
#include "src/calculus/printer.h"
#include "src/core/compiler.h"

int main() {
  using emcalc::Value;

  // 1. Build a database instance: a set of nodes and weighted edges.
  emcalc::Database db;
  for (int i = 1; i <= 5; ++i) {
    if (!db.Insert("NODE", {Value::Int(i)}).ok()) return 1;
  }
  // EDGE(from, to)
  const int edges[][2] = {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}};
  for (auto [a, b] : edges) {
    if (!db.Insert("EDGE", {Value::Int(a), Value::Int(b)}).ok()) return 1;
  }

  // 2. Compile a query that uses a scalar function: "which nodes have no
  //    edge to their successor value?" succ() is a builtin; queries can
  //    mix relations, functions, negation, and quantifiers freely as long
  //    as they pass the em-allowed safety analysis.
  emcalc::Compiler compiler;
  auto query = compiler.Compile(
      "{x | NODE(x) and not exists y (succ(x) = y and EDGE(x, y))}");
  if (!query.ok()) {
    std::printf("compile error: %s\n", query.status().ToString().c_str());
    return 1;
  }

  std::printf("query:  %s\n", query->QueryString().c_str());
  std::printf("plan:   %s\n", query->PlanString().c_str());
  std::printf("tree:\n%s", query->PlanTreeString().c_str());

  // 3. Run the plan.
  emcalc::ExecProfile profile;
  auto answer = query->Run(db, &profile);
  if (!answer.ok()) {
    std::printf("run error: %s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("answer (%zu tuples):\n%s", answer->size(),
              answer->ToString().c_str());
  emcalc::ExecTotals totals = emcalc::SumProfile(profile);
  std::printf("work: %llu tuples produced, %llu scalar calls\n",
              static_cast<unsigned long long>(totals.rows_out),
              static_cast<unsigned long long>(totals.function_calls));

  // 4. Unsafe queries are rejected with an explanation instead of running
  //    forever or returning domain-dependent garbage.
  auto unsafe = compiler.Compile("{x | not NODE(x)}");
  if (!unsafe.ok()) {
    std::printf("\nrejected as expected: %s\n",
                unsafe.status().ToString().c_str());
  }
  return 0;
}
