// Human-readable explanation of the full analysis + translation of a
// query: the bd finiteness dependencies, how each safety criterion
// classifies it, the ENF/RANF intermediate forms, and the generated plan
// (with sizes). Powers the safety_lint tool and the library's
// "explain this query" API.
#ifndef EMCALC_CORE_EXPLAIN_H_
#define EMCALC_CORE_EXPLAIN_H_

#include <string>

#include "src/base/status.h"
#include "src/calculus/ast.h"
#include "src/translate/pipeline.h"

namespace emcalc {

// A structured account of one query's analysis.
struct Explanation {
  std::string query_text;
  std::string bd_text;            // reduced cover of bd(body)
  bool em_allowed = false;
  std::string rejection_reason;   // set when not em-allowed
  bool gt91_allowed = false;
  bool range_restricted = false;
  bool top91_safe = false;
  int application_count = 0;      // closure-level bound (||phi|| proxy)
  int max_function_depth = 0;
  // Only populated when em-allowed:
  std::string enf_text;
  std::string ranf_text;
  std::string plan_text;
  std::string plan_tree;
  int plan_nodes = 0;
  int raw_plan_nodes = 0;

  // Renders the whole explanation as an indented multi-line report.
  std::string ToString() const;
};

// Analyzes `q` (parsed against `ctx`). Never fails for well-formed
// queries: unsafe queries produce an Explanation with em_allowed == false
// and the reason filled in.
StatusOr<Explanation> ExplainQuery(AstContext& ctx, const Query& q,
                                   const TranslateOptions& options = {});

// Parses and analyzes query text.
StatusOr<Explanation> ExplainQuery(AstContext& ctx, std::string_view text,
                                   const TranslateOptions& options = {});

}  // namespace emcalc

#endif  // EMCALC_CORE_EXPLAIN_H_
