#include "src/diag/lint.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/symbol_set.h"
#include "src/calculus/analysis.h"
#include "src/calculus/printer.h"

namespace emcalc::diag {

namespace {

class Linter {
 public:
  Linter(const AstContext& ctx, const LintOptions& options)
      : ctx_(ctx), options_(options) {}

  std::vector<Diagnostic> Run(const Formula* f) {
    // Free variables form the outermost scope for shadowing purposes.
    scope_ = FreeVars(f);
    Visit(f);
    if (options_.function_depth_threshold > 0) {
      int depth = MaxFunctionDepth(f);
      if (depth >= options_.function_depth_threshold) {
        Report(f, "lint.function-depth",
               "function applications nest " + std::to_string(depth) +
                   " deep; evaluation needs a term closure of level " +
                   std::to_string(depth) + " (Theorem 6.6)");
      }
    }
    return std::move(findings_);
  }

 private:
  template <typename NodeT>
  void Report(const NodeT* node, std::string code, std::string message,
              Severity severity = Severity::kWarning) {
    Diagnostic d(std::move(code), severity, std::move(message));
    if (const SourceSpan* span = ctx_.SpanOf(node)) d.WithSpan(*span);
    findings_.push_back(std::move(d));
  }

  std::string Name(Symbol s) const {
    return std::string(ctx_.symbols().Name(s));
  }

  void CheckRelArity(const Formula* f) {
    auto [it, inserted] =
        rel_arity_.emplace(f->rel(), static_cast<int>(f->terms().size()));
    if (!inserted && it->second != static_cast<int>(f->terms().size())) {
      Report(f, "lint.rel-arity-conflict",
             "relation '" + Name(f->rel()) + "' used with arity " +
                 std::to_string(f->terms().size()) + " but previously with " +
                 std::to_string(it->second),
             Severity::kError);
    }
  }

  void VisitTerm(const Term* t) {
    if (!t->is_apply()) return;
    auto [it, inserted] =
        fn_arity_.emplace(t->symbol(), static_cast<int>(t->args().size()));
    if (!inserted && it->second != static_cast<int>(t->args().size())) {
      Report(t, "lint.fn-arity-conflict",
             "function '" + Name(t->symbol()) + "' used with arity " +
                 std::to_string(t->args().size()) + " but previously with " +
                 std::to_string(it->second),
             Severity::kError);
    }
    for (const Term* a : t->args()) VisitTerm(a);
  }

  // x = c1 and x = c2 with c1 != c2 (or two unequal constants compared)
  // makes the whole conjunction empty.
  void CheckUnsatEqualities(const Formula* conj) {
    std::map<Symbol, std::pair<uint32_t, const Formula*>> pinned;
    for (const Formula* c : conj->children()) {
      if (!c->is(FormulaKind::kEq)) continue;
      const Term* l = c->lhs();
      const Term* r = c->rhs();
      if (l->is_const() && r->is_const()) {
        if (l->const_id() != r->const_id()) {
          Report(c, "lint.unsat-equality",
                 "equality between distinct constants is always false");
        }
        continue;
      }
      if (r->is_var() && l->is_const()) std::swap(l, r);
      if (!(l->is_var() && r->is_const())) continue;
      auto [it, inserted] =
          pinned.emplace(l->symbol(), std::make_pair(r->const_id(), c));
      if (!inserted && it->second.first != r->const_id()) {
        Report(c, "lint.unsat-equality",
               "'" + Name(l->symbol()) + "' is already pinned to " +
                   ctx_.ConstantAt(it->second.first).ToString() +
                   " in this conjunction; the conjunction is always false");
      }
    }
  }

  void CheckCrossProduct(const Formula* conj) {
    std::vector<SymbolSet> free;
    free.reserve(conj->children().size());
    for (const Formula* c : conj->children()) free.push_back(FreeVars(c));
    size_t with_vars = 0;
    for (const SymbolSet& s : free) with_vars += s.empty() ? 0u : 1u;
    if (with_vars < 2) return;
    for (size_t i = 0; i < free.size(); ++i) {
      if (free[i].empty()) continue;
      SymbolSet others;
      for (size_t j = 0; j < free.size(); ++j) {
        if (j != i) others = others.Union(free[j]);
      }
      if (free[i].Intersect(others).empty()) {
        Report(conj->children()[i], "lint.cross-product",
               "conjunct shares no variables with the rest of the "
               "conjunction; the result is a cross product");
        // One finding per conjunction: in a two-way cross product both
        // sides are disjoint from each other, and flagging each would just
        // repeat the same fact.
        return;
      }
    }
  }

  void Visit(const Formula* f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        return;
      case FormulaKind::kRel:
        CheckRelArity(f);
        for (const Term* t : f->terms()) VisitTerm(t);
        return;
      case FormulaKind::kEq:
      case FormulaKind::kNeq:
      case FormulaKind::kLess:
      case FormulaKind::kLessEq:
        VisitTerm(f->lhs());
        VisitTerm(f->rhs());
        return;
      case FormulaKind::kNot:
        Visit(f->child());
        return;
      case FormulaKind::kAnd:
        CheckUnsatEqualities(f);
        CheckCrossProduct(f);
        [[fallthrough]];
      case FormulaKind::kOr:
        for (const Formula* c : f->children()) Visit(c);
        return;
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        SymbolSet body_free = FreeVars(f->child());
        std::vector<Symbol> entered;
        for (Symbol v : f->vars()) {
          if (scope_.Contains(v)) {
            Report(f, "lint.shadowed-var",
                   "quantifier rebinds '" + Name(v) +
                       "', which is already bound (or free) in an "
                       "enclosing scope");
          } else {
            scope_.Insert(v);
            entered.push_back(v);
          }
          if (!body_free.Contains(v)) {
            Report(f, "lint.unused-quantified-var",
                   "quantified variable '" + Name(v) +
                       "' is not used in the body");
          }
        }
        Visit(f->child());
        for (Symbol v : entered) scope_.Remove(v);
        return;
      }
    }
  }

  const AstContext& ctx_;
  const LintOptions& options_;
  SymbolSet scope_;
  std::map<Symbol, int> rel_arity_;
  std::map<Symbol, int> fn_arity_;
  std::vector<Diagnostic> findings_;
};

}  // namespace

std::vector<Diagnostic> LintFormula(const AstContext& ctx, const Formula* f,
                                    const LintOptions& options) {
  return Linter(ctx, options).Run(f);
}

std::vector<Diagnostic> LintQuery(const AstContext& ctx, const Query& q,
                                  const LintOptions& options) {
  return LintFormula(ctx, q.body, options);
}

}  // namespace emcalc::diag
