#include "src/core/explain.h"

#include "src/algebra/printer.h"
#include "src/calculus/analysis.h"
#include "src/calculus/parser.h"
#include "src/calculus/printer.h"
#include "src/finds/bound.h"
#include "src/safety/allowed.h"

namespace emcalc {
namespace {

// Indents every line of `text` four extra spaces.
std::string Indent(const std::string& text) {
  std::string out;
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      out += "    " + line + "\n";
      line.clear();
    } else {
      line += c;
    }
  }
  return out;
}

}  // namespace

std::string Explanation::ToString() const {
  std::string out;
  out += "query: " + query_text + "\n";
  out += "  bd (reduced cover): " + bd_text + "\n";
  out += "  function applications: " + std::to_string(application_count) +
         " (max nesting " + std::to_string(max_function_depth) + ")\n";
  out += std::string("  em-allowed:        ") + (em_allowed ? "yes" : "no");
  if (!em_allowed) out += " — " + rejection_reason;
  out += "\n";
  out += std::string("  GT91 allowed:      ") +
         (gt91_allowed ? "yes" : "no") + "\n";
  out += std::string("  AB88 range-restr.: ") +
         (range_restricted ? "yes" : "no") + "\n";
  out += std::string("  Top91 safe:        ") + (top91_safe ? "yes" : "no") +
         "\n";
  if (!em_allowed) return out;
  out += "  ENF:  " + enf_text + "\n";
  out += "  RANF: " + ranf_text + "\n";
  out += "  plan: " + plan_text + "\n";
  out += "  plan nodes: " + std::to_string(plan_nodes) + " (raw " +
         std::to_string(raw_plan_nodes) + ")\n";
  out += "  plan tree:\n";
  out += Indent(plan_tree);
  return out;
}

StatusOr<Explanation> ExplainQuery(AstContext& ctx, const Query& q,
                                   const TranslateOptions& options) {
  if (Status s = CheckWellFormed(q, ctx.symbols()); !s.ok()) return s;

  Explanation out;
  out.query_text = QueryToString(ctx, q);
  out.bd_text = BoundingFinDs(ctx, q.body, options.bound)
                    .ToString(ctx.symbols());
  out.application_count = CountApplications(q.body);
  out.max_function_depth = MaxFunctionDepth(q.body);
  out.gt91_allowed = IsAllowedGT91(ctx, q.body);
  out.range_restricted = IsRangeRestricted(ctx, q.body);
  out.top91_safe = IsTop91Safe(ctx, q.body);

  auto t = TranslateQuery(ctx, q, options);
  if (!t.ok()) {
    if (t.status().code() != StatusCode::kNotSafe) return t.status();
    out.em_allowed = false;
    out.rejection_reason = t.status().message();
    return out;
  }
  out.em_allowed = true;
  out.enf_text = FormulaToString(ctx, t->enf);
  out.ranf_text = FormulaToString(ctx, t->ranf);
  out.plan_text = AlgExprToString(ctx, t->plan);
  out.plan_tree = AlgExprToTreeString(ctx, t->plan);
  out.plan_nodes = t->plan->NodeCount();
  out.raw_plan_nodes = t->raw_plan->NodeCount();
  return out;
}

StatusOr<Explanation> ExplainQuery(AstContext& ctx, std::string_view text,
                                   const TranslateOptions& options) {
  auto q = ParseQuery(ctx, text);
  if (!q.ok()) return q.status();
  return ExplainQuery(ctx, *q, options);
}

}  // namespace emcalc
