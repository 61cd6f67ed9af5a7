#include "src/eval/calculus_eval.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/calculus/analysis.h"

namespace emcalc {
namespace {

// A subformula an enumeration must make true (positive) or false.
struct Goal {
  const Formula* f;
  bool positive;
};

// Candidate values for `vars`, one row of vars.size() values per candidate.
struct Candidates {
  std::vector<Symbol> vars;
  std::vector<Value> rows;
  size_t size() const { return rows.size() / vars.size(); }
};

// Recursive formula evaluator over a fixed finite domain.
class CalculusEvaluator {
 public:
  CalculusEvaluator(const AstContext& ctx, const Database& db,
                    const FunctionRegistry& registry, ValueSet domain)
      : ctx_(ctx), db_(db), registry_(registry), domain_(std::move(domain)) {}

  // Resolves relations and functions used by `f`.
  Status Validate(const Formula* f) {
    for (const auto& [rel, arity] : CollectRelations(f)) {
      std::string name(ctx_.symbols().Name(rel));
      auto r = db_.Get(name);
      if (!r.ok()) return r.status();
      if ((*r)->arity() != arity) {
        return InvalidArgumentError("relation '" + name + "' used with arity " +
                                    std::to_string(arity) + ", instance has " +
                                    std::to_string((*r)->arity()));
      }
      relations_.emplace(rel, *r);
    }
    for (const auto& [fn, arity] : CollectFunctions(f)) {
      auto sf = registry_.Get(std::string(ctx_.symbols().Name(fn)), arity);
      if (!sf.ok()) return sf.status();
      functions_.emplace(fn, *sf);
    }
    return Status::Ok();
  }

  Value EvalTerm(const Term* t) {
    switch (t->kind()) {
      case Term::Kind::kVar: {
        auto it = valuation_.find(t->symbol());
        EMCALC_CHECK_MSG(it != valuation_.end(), "unbound variable '%s'",
                         std::string(ctx_.symbols().Name(t->symbol())).c_str());
        return it->second;
      }
      case Term::Kind::kConst:
        return ctx_.ConstantAt(t->const_id());
      case Term::Kind::kApply: {
        std::vector<Value> args;
        args.reserve(t->args().size());
        for (const Term* a : t->args()) args.push_back(EvalTerm(a));
        return functions_.at(t->symbol())->fn(args);
      }
    }
    return Value();
  }

  bool Eval(const Formula* f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kRel: {
        Tuple t;
        t.reserve(f->terms().size());
        for (const Term* term : f->terms()) t.push_back(EvalTerm(term));
        return relations_.at(f->rel())->Contains(t);
      }
      case FormulaKind::kEq:
        return EvalTerm(f->lhs()) == EvalTerm(f->rhs());
      case FormulaKind::kNeq:
        return EvalTerm(f->lhs()) != EvalTerm(f->rhs());
      case FormulaKind::kLess:
        return EvalTerm(f->lhs()) < EvalTerm(f->rhs());
      case FormulaKind::kLessEq: {
        Value l = EvalTerm(f->lhs());
        Value r = EvalTerm(f->rhs());
        return l < r || l == r;
      }
      case FormulaKind::kNot:
        return !Eval(f->child());
      case FormulaKind::kAnd: {
        for (const Formula* c : f->children()) {
          if (!Eval(c)) return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        for (const Formula* c : f->children()) {
          if (Eval(c)) return true;
        }
        return false;
      }
      case FormulaKind::kExists:
        return EvalQuantifier(f, /*is_exists=*/true);
      case FormulaKind::kForall:
        return EvalQuantifier(f, /*is_exists=*/false);
    }
    return false;
  }

  // The answer of `q`: the head tuples of the valuations satisfying it.
  Relation Answer(const Query& q) {
    Relation out(static_cast<int>(q.head.size()));
    Solve({{q.body, true}}, q.head, [&] {
      Tuple t;
      for (Symbol v : q.head) t.push_back(valuation_.at(v));
      out.Insert(std::move(t));
      return !q.head.empty();
    });
    return out;
  }

  void Bind(Symbol var, const Value& v) { valuation_[var] = v; }

 private:
  bool EvalQuantifier(const Formula* f, bool is_exists) {
    // An outer binding of a quantified variable is hidden in its scope.
    std::vector<std::pair<Symbol, Value>> shadowed;
    for (Symbol v : f->vars()) {
      auto it = valuation_.find(v);
      if (it == valuation_.end()) continue;
      shadowed.push_back(*it);
      valuation_.erase(it);
    }
    // A witness of the body (exists) or of its negation (forall).
    bool found = false;
    Solve({{f->child(), is_exists}}, {f->vars().begin(), f->vars().end()},
          [&] { return found = true, false; });
    for (const auto& [v, value] : shadowed) valuation_[v] = value;
    return found == is_exists;
  }

  // Enumerates the valuations of the unbound variables `vars` under which
  // every goal holds, calling `emit` with each one bound (possibly more
  // than once). Every variable ranges over the domain, so the valuations
  // found are exactly those of the whole-domain enumeration; the rules
  // below only skip valuations under which some goal fails, and every goal
  // is evaluated before a valuation is emitted. `emit` returns false to
  // stop the enumeration, and Solve then returns false.
  bool Solve(std::vector<Goal> goals, std::vector<Symbol> vars,
             const std::function<bool()>& emit) {
    // Check the goals whose variables are all bound and flatten the rest:
    // a conjunction (or negated disjunction) into its juncts, and an
    // exists (or negated forall) into its body with its variables added to
    // `vars`, unless one of them is already in use.
    auto in_use = [&](Symbol v) {
      return valuation_.contains(v) || std::ranges::count(vars, v) > 0;
    };
    for (size_t i = 0; i < goals.size();) {
      auto [f, positive] = goals[i];
      if (IsBound(f)) {
        if (Eval(f) != positive) return true;
        goals.erase(goals.begin() + static_cast<ptrdiff_t>(i));
      } else if (f->is(FormulaKind::kNot)) {
        goals[i] = {f->child(), !positive};
      } else if (f->is(positive ? FormulaKind::kAnd : FormulaKind::kOr)) {
        goals.erase(goals.begin() + static_cast<ptrdiff_t>(i));
        for (const Formula* c : f->children()) goals.push_back({c, positive});
      } else if (f->is(positive ? FormulaKind::kExists
                                : FormulaKind::kForall) &&
                 std::ranges::none_of(f->vars(), in_use)) {
        vars.insert(vars.end(), f->vars().begin(), f->vars().end());
        goals[i] = {f->child(), positive};
      } else {
        ++i;
      }
    }
    auto open = [&](Symbol v) { return !valuation_.contains(v); };
    if (std::ranges::none_of(vars, open)) {
      EMCALC_CHECK_MSG(goals.empty(), "unbound free variable");
      return emit();
    }
    // Bind the variables with the fewest candidates first: the value of t
    // in x = t, else a positive atom's matching rows.
    std::optional<Candidates> best;
    for (bool atoms : {false, true}) {
      for (const Goal& g : goals) {
        if (best && best->size() <= 1) break;
        if (g.f->is(FormulaKind::kRel) != atoms) continue;
        std::optional<Candidates> c =
            CandidatesOf(g, best ? best->size() : SIZE_MAX);
        if (c && (!best || c->size() < best->size())) best = std::move(c);
      }
    }
    if (best) {
      const size_t n = best->vars.size();
      bool go = true;
      for (size_t r = 0; go && r < best->size(); ++r) {
        for (size_t j = 0; j < n; ++j) {
          valuation_[best->vars[j]] = best->rows[r * n + j];
        }
        go = Solve(goals, vars, emit);
      }
      for (Symbol v : best->vars) valuation_.erase(v);
      return go;
    }
    // Enumerate a disjunction (or negated conjunction) once per disjunct.
    for (size_t i = 0; i < goals.size(); ++i) {
      auto [f, positive] = goals[i];
      if (!f->is(positive ? FormulaKind::kOr : FormulaKind::kAnd)) continue;
      for (const Formula* c : f->children()) {
        std::vector<Goal> branch = goals;
        branch[i] = {c, positive};
        if (!Solve(std::move(branch), vars, emit)) return false;
      }
      return true;
    }
    // No rule applies: the first open variable ranges over the domain.
    Symbol v = *std::ranges::find_if(vars, open);
    bool go = true;
    for (size_t d = 0; go && d < domain_.size(); ++d) {
      valuation_[v] = domain_[d];
      go = Solve(goals, vars, emit);
    }
    valuation_.erase(v);
    return go;
  }

  // The candidates a goal gives its open variables, if any: the rows of a
  // positive atom that match its bound arguments, or {t} for x = t (also
  // not x != t) with t bound. Values outside the domain are dropped. An
  // atom that cannot give fewer than `limit` candidates gives none.
  std::optional<Candidates> CandidatesOf(const Goal& g, size_t limit) {
    const Formula* f = g.f;
    if (f->is(g.positive ? FormulaKind::kEq : FormulaKind::kNeq)) {
      for (auto [x, t] : {std::pair{f->lhs(), f->rhs()},
                          std::pair{f->rhs(), f->lhs()}}) {
        if (!x->is_var() || IsBound(x) || !IsBound(t)) continue;
        Candidates c{{x->symbol()}, {}};
        Value v = EvalTerm(t);
        if (InDomain(v)) c.rows.push_back(v);
        return c;
      }
      return std::nullopt;
    }
    if (!g.positive || !f->is(FormulaKind::kRel)) return std::nullopt;
    // The first column of each open variable; a repeated one is checked
    // once the atom is bound.
    Candidates c;
    std::vector<size_t> cols;
    std::vector<std::pair<size_t, Value>> fixed;
    for (size_t i = 0; i < f->terms().size(); ++i) {
      const Term* t = f->terms()[i];
      if (IsBound(t)) {
        fixed.emplace_back(i, EvalTerm(t));
      } else if (t->is_var() && std::ranges::count(c.vars, t->symbol()) == 0) {
        c.vars.push_back(t->symbol());
        cols.push_back(i);
      }
    }
    if (c.vars.empty()) return std::nullopt;
    const Relation* rel = relations_.at(f->rel());
    auto take = [&](TupleRef row) {
      for (const auto& [col, v] : fixed) {
        if (row[col] != v) return;
      }
      for (size_t col : cols) {
        if (!InDomain(row[col])) return;
      }
      for (size_t col : cols) c.rows.push_back(row[col]);
    };
    if (fixed.empty()) {
      if (rel->size() >= limit) return std::nullopt;
      for (TupleRef row : *rel) take(row);
    } else {
      const auto& rows = RowsWith(rel, fixed[0].first, fixed[0].second);
      if (rows.size() >= limit) return std::nullopt;
      for (uint32_t r : rows) take(rel->row(r));
    }
    return c;
  }

  // The rows of `rel` holding `v` in column `col`, by a lazily built index.
  const std::vector<uint32_t>& RowsWith(const Relation* rel, size_t col,
                                        const Value& v) {
    auto& index = indexes_[{rel, col}];
    if (index.empty()) {
      for (size_t r = 0; r < rel->size(); ++r) {
        index[rel->row(r)[col]].push_back(static_cast<uint32_t>(r));
      }
    }
    static const std::vector<uint32_t> kNone;
    auto it = index.find(v);
    return it == index.end() ? kNone : it->second;
  }

  bool InDomain(const Value& v) const {
    return std::binary_search(domain_.begin(), domain_.end(), v);
  }

  bool AllBound(const SymbolSet& vars) const {
    return std::ranges::all_of(
        vars, [&](Symbol v) { return valuation_.contains(v); });
  }
  bool IsBound(const Term* t) const { return AllBound(TermVars(t)); }
  bool IsBound(const Formula* f) {
    auto [it, fresh] = free_vars_.try_emplace(f);
    if (fresh) it->second = FreeVars(f);
    return AllBound(it->second);
  }

  const AstContext& ctx_;
  const Database& db_;
  const FunctionRegistry& registry_;
  ValueSet domain_;
  std::unordered_map<Symbol, Value> valuation_;
  std::unordered_map<Symbol, const Relation*> relations_;
  std::unordered_map<Symbol, const ScalarFunction*> functions_;
  std::unordered_map<const Formula*, SymbolSet> free_vars_;
  std::map<std::pair<const Relation*, size_t>,
           std::unordered_map<Value, std::vector<uint32_t>>>
      indexes_;
};

// Builds the evaluation domain term^level(adom(q, I) + extras).
StatusOr<ValueSet> EvaluationDomain(const AstContext& ctx, const Formula* f,
                                    const Database& db,
                                    const FunctionRegistry& registry,
                                    const CalculusEvalOptions& options) {
  ValueSet base = ActiveDomain(ctx, f, db);
  base.insert(base.end(), options.extra_domain.begin(),
              options.extra_domain.end());
  NormalizeValueSet(base);
  std::vector<std::pair<std::string, int>> fns;
  for (const auto& [fn, arity] : CollectFunctions(f)) {
    fns.emplace_back(std::string(ctx.symbols().Name(fn)), arity);
  }
  fns.insert(fns.end(), options.extra_closure_fns.begin(),
             options.extra_closure_fns.end());
  int level = options.level >= 0 ? options.level : CountApplications(f);
  return TermClosure(std::move(base), fns, registry, level,
                     options.domain_budget);
}

}  // namespace

StatusOr<Relation> EvaluateCalculus(const AstContext& ctx, const Query& q,
                                    const Database& db,
                                    const FunctionRegistry& registry,
                                    const CalculusEvalOptions& options) {
  auto domain = EvaluationDomain(ctx, q.body, db, registry, options);
  if (!domain.ok()) return domain.status();

  CalculusEvaluator evaluator(ctx, db, registry, *domain);
  if (Status s = evaluator.Validate(q.body); !s.ok()) return s;
  return evaluator.Answer(q);
}

StatusOr<bool> EvaluateFormulaAt(const AstContext& ctx, const Formula* f,
                                 const std::vector<Symbol>& vars,
                                 const Tuple& valuation, const Database& db,
                                 const FunctionRegistry& registry,
                                 const CalculusEvalOptions& options) {
  EMCALC_CHECK(vars.size() == valuation.size());
  auto domain = EvaluationDomain(ctx, f, db, registry, options);
  if (!domain.ok()) return domain.status();
  CalculusEvaluator evaluator(ctx, db, registry, *domain);
  if (Status s = evaluator.Validate(f); !s.ok()) return s;
  for (size_t i = 0; i < vars.size(); ++i) evaluator.Bind(vars[i], valuation[i]);
  return evaluator.Eval(f);
}

}  // namespace emcalc
