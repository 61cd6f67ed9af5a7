#include "src/algebra/eval.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/check.h"
#include "src/calculus/analysis.h"
#include "src/exec/lower.h"
#include "src/exec/physical.h"

namespace emcalc {
namespace {

// A tuple logically formed by concatenating `left` and `right` (either may
// be empty for a plain single-tuple view). TupleRefs are two-word spans,
// so views are passed by value.
struct TupleView {
  TupleRef left;
  TupleRef right;

  const Value& at(int i) const {
    size_t ln = left.size();
    if (static_cast<size_t>(i) < ln) return left[static_cast<size_t>(i)];
    return right[static_cast<size_t>(i) - ln];
  }
};

class Evaluator {
 public:
  Evaluator(const AstContext& ctx, const Database& db,
            const FunctionRegistry& registry, ExecTotals* totals,
            size_t adom_budget)
      : ctx_(ctx), db_(db), registry_(registry), totals_(totals),
        adom_budget_(adom_budget) {}

  // Counts how many parents each node has. Plans are DAGs (the translator
  // shares the context subplan between a difference's two sides and among
  // union branches); nodes referenced more than once get their results
  // memoized so shared work is done once.
  void CountRefs(const AlgExpr* plan) {
    if (++refs_[plan] > 1) return;  // children already counted once
    switch (plan->kind()) {
      case AlgKind::kProject:
      case AlgKind::kSelect:
        CountRefs(plan->input());
        break;
      case AlgKind::kJoin:
      case AlgKind::kUnion:
      case AlgKind::kDiff:
        CountRefs(plan->left());
        CountRefs(plan->right());
        break;
      case AlgKind::kRel:
      case AlgKind::kUnit:
      case AlgKind::kEmpty:
      case AlgKind::kAdom:
        break;  // leaves
    }
  }

  // Resolves every relation and function referenced by `plan`.
  Status Validate(const AlgExpr* plan) {
    switch (plan->kind()) {
      case AlgKind::kRel: {
        std::string name(ctx_.symbols().Name(plan->rel()));
        auto rel = db_.Get(name);
        if (!rel.ok()) return rel.status();
        if ((*rel)->arity() != plan->arity()) {
          return InvalidArgumentError(
              "plan expects relation '" + name + "' with arity " +
              std::to_string(plan->arity()) + ", instance has " +
              std::to_string((*rel)->arity()));
        }
        return Status::Ok();
      }
      case AlgKind::kProject: {
        for (const ScalarExpr* e : plan->exprs()) {
          if (Status s = ValidateExpr(e); !s.ok()) return s;
        }
        return Validate(plan->input());
      }
      case AlgKind::kSelect: {
        if (Status s = ValidateConds(plan->conds()); !s.ok()) return s;
        return Validate(plan->input());
      }
      case AlgKind::kJoin: {
        if (Status s = ValidateConds(plan->conds()); !s.ok()) return s;
        if (Status s = Validate(plan->left()); !s.ok()) return s;
        return Validate(plan->right());
      }
      case AlgKind::kUnion:
      case AlgKind::kDiff: {
        if (Status s = Validate(plan->left()); !s.ok()) return s;
        return Validate(plan->right());
      }
      case AlgKind::kUnit:
      case AlgKind::kEmpty:
        return Status::Ok();
      case AlgKind::kAdom: {
        for (Symbol fn : plan->adom_fns()) {
          std::string name(ctx_.symbols().Name(fn));
          const ScalarFunction* f = registry_.Find(name);
          if (f == nullptr) {
            return NotFoundError("unknown scalar function '" + name + "'");
          }
          fn_cache_.emplace(fn, f);
        }
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  StatusOr<Relation> Eval(const AlgExpr* plan) {
    auto it = memo_.find(plan);
    if (it != memo_.end()) return it->second;
    auto result = EvalUncached(plan);
    if (result.ok()) {
      auto ref = refs_.find(plan);
      if (ref != refs_.end() && ref->second > 1) {
        memo_.emplace(plan, *result);
      }
    }
    return result;
  }

  StatusOr<Relation> EvalUncached(const AlgExpr* plan) {
    switch (plan->kind()) {
      case AlgKind::kRel: {
        const Relation* rel =
            db_.Find(std::string(ctx_.symbols().Name(plan->rel())));
        EMCALC_CHECK(rel != nullptr);  // Validate ran
        Count(rel->size(), rel->size());
        return *rel;
      }
      case AlgKind::kProject: {
        auto in = Eval(plan->input());
        if (!in.ok()) return in;
        Relation out(plan->arity());
        for (TupleRef t : *in) {
          TupleView view{t, TupleRef()};
          Tuple row;
          row.reserve(plan->exprs().size());
          for (const ScalarExpr* e : plan->exprs()) {
            row.push_back(EvalExpr(e, view));
          }
          out.Insert(row);
        }
        Count(in->size(), out.size());
        return out;
      }
      case AlgKind::kSelect: {
        auto in = Eval(plan->input());
        if (!in.ok()) return in;
        Relation out(plan->arity());
        for (TupleRef t : *in) {
          TupleView view{t, TupleRef()};
          if (CondsHold(plan->conds(), view)) out.Insert(t);
        }
        Count(in->size(), out.size());
        return out;
      }
      case AlgKind::kJoin:
        return EvalJoin(plan);
      case AlgKind::kUnion: {
        auto l = Eval(plan->left());
        if (!l.ok()) return l;
        auto r = Eval(plan->right());
        if (!r.ok()) return r;
        Relation out = l->UnionWith(*r);
        Count(l->size() + r->size(), out.size());
        return out;
      }
      case AlgKind::kDiff: {
        auto l = Eval(plan->left());
        if (!l.ok()) return l;
        auto r = Eval(plan->right());
        if (!r.ok()) return r;
        Relation out = l->DifferenceWith(*r);
        Count(l->size() + r->size(), out.size());
        return out;
      }
      case AlgKind::kUnit: {
        Relation out(0);
        out.Insert(Tuple{});
        Count(0, 1);
        return out;
      }
      case AlgKind::kEmpty:
        return Relation(plan->arity());
      case AlgKind::kAdom:
        return EvalAdom(plan);
    }
    return InternalError("unhandled algebra node");
  }

 private:
  void Count(uint64_t scanned, uint64_t produced) {
    if (totals_ == nullptr) return;
    totals_->rows_in += scanned;
    totals_->rows_out += produced;
  }

  Status ValidateExpr(const ScalarExpr* e) {
    if (e->kind() == ScalarExpr::Kind::kParam) {
      return InvalidArgumentError(
          "the legacy evaluator takes no arguments for parameter $" +
          std::string(ctx_.symbols().Name(e->param_name())));
    }
    if (e->kind() == ScalarExpr::Kind::kApply) {
      std::string name(ctx_.symbols().Name(e->fn()));
      auto f = registry_.Get(name, static_cast<int>(e->args().size()));
      if (!f.ok()) return f.status();
      fn_cache_.emplace(e->fn(), *f);
      for (const ScalarExpr* a : e->args()) {
        if (Status s = ValidateExpr(a); !s.ok()) return s;
      }
    }
    return Status::Ok();
  }

  Status ValidateConds(std::span<const AlgCondition> conds) {
    for (const AlgCondition& c : conds) {
      if (Status s = ValidateExpr(c.lhs); !s.ok()) return s;
      if (Status s = ValidateExpr(c.rhs); !s.ok()) return s;
    }
    return Status::Ok();
  }

  Value EvalExpr(const ScalarExpr* e, const TupleView& view) {
    switch (e->kind()) {
      case ScalarExpr::Kind::kCol:
        return view.at(e->col());
      case ScalarExpr::Kind::kConst:
        return ctx_.ConstantAt(e->const_id());
      case ScalarExpr::Kind::kParam:
        return Value();  // rejected by ValidateExpr
      case ScalarExpr::Kind::kApply: {
        std::vector<Value> args;
        args.reserve(e->args().size());
        for (const ScalarExpr* a : e->args()) {
          args.push_back(EvalExpr(a, view));
        }
        if (totals_ != nullptr) ++totals_->function_calls;
        auto it = fn_cache_.find(e->fn());
        EMCALC_CHECK(it != fn_cache_.end());  // Validate ran
        return it->second->fn(args);
      }
    }
    return Value();
  }

  bool CondsHold(std::span<const AlgCondition> conds, const TupleView& view) {
    for (const AlgCondition& c : conds) {
      Value l = EvalExpr(c.lhs, view);
      Value r = EvalExpr(c.rhs, view);
      bool holds = false;
      switch (c.op) {
        case AlgCompareOp::kEq:
          holds = l == r;
          break;
        case AlgCompareOp::kNe:
          holds = l != r;
          break;
        case AlgCompareOp::kLt:
          holds = l < r;
          break;
        case AlgCompareOp::kLe:
          holds = l < r || l == r;
          break;
      }
      if (!holds) return false;
    }
    return true;
  }

  // True if `e` references only left columns (side 0) / right columns
  // (side 1) of a join with the given split point.
  static bool OnSide(const ScalarExpr* e, int split, int side) {
    switch (e->kind()) {
      case ScalarExpr::Kind::kCol:
        return side == 0 ? e->col() < split : e->col() >= split;
      case ScalarExpr::Kind::kConst:
      case ScalarExpr::Kind::kParam:
        return true;
      case ScalarExpr::Kind::kApply:
        for (const ScalarExpr* a : e->args()) {
          if (!OnSide(a, split, side)) return false;
        }
        return true;
    }
    return false;
  }

  StatusOr<Relation> EvalJoin(const AlgExpr* plan) {
    auto l = Eval(plan->left());
    if (!l.ok()) return l;
    auto r = Eval(plan->right());
    if (!r.ok()) return r;
    int split = plan->left()->arity();

    // Partition conditions into hashable equi-conditions (one side from
    // each input) and residual conditions.
    struct KeyPair {
      const ScalarExpr* left_key;
      const ScalarExpr* right_key;
    };
    std::vector<KeyPair> keys;
    std::vector<AlgCondition> residual;
    for (const AlgCondition& c : plan->conds()) {
      if (c.op == AlgCompareOp::kEq && OnSide(c.lhs, split, 0) &&
          OnSide(c.rhs, split, 1)) {
        keys.push_back({c.lhs, c.rhs});
      } else if (c.op == AlgCompareOp::kEq && OnSide(c.rhs, split, 0) &&
                 OnSide(c.lhs, split, 1)) {
        keys.push_back({c.rhs, c.lhs});
      } else {
        residual.push_back(c);
      }
    }

    Relation out(plan->arity());
    auto emit = [&](TupleRef a, TupleRef b) {
      TupleView joined{a, b};
      if (!residual.empty() && !CondsHold(residual, joined)) return;
      Tuple row;
      row.reserve(a.size() + b.size());
      row.insert(row.end(), a.begin(), a.end());
      row.insert(row.end(), b.begin(), b.end());
      out.Insert(row);
    };

    if (keys.empty()) {
      for (TupleRef a : *l) {
        for (TupleRef b : *r) emit(a, b);
      }
    } else {
      // Hash the right side on its key expressions. Right-side column
      // indices must be shifted down by `split` to evaluate against the
      // bare right tuple; we evaluate via a TupleView with an empty left
      // part of width `split` instead.
      Tuple empty_left(static_cast<size_t>(split), Value());
      auto key_hash = [](const std::vector<Value>& key) {
        size_t h = 0xcbf29ce484222325ULL;
        for (const Value& v : key) h = h * 1099511628211ULL ^ v.Hash();
        return h;
      };
      std::unordered_map<size_t,
                         std::vector<std::pair<std::vector<Value>, TupleRef>>>
          buckets;
      for (TupleRef b : *r) {
        TupleView view{TupleRef(empty_left), b};
        std::vector<Value> key;
        key.reserve(keys.size());
        for (const KeyPair& k : keys) key.push_back(EvalExpr(k.right_key, view));
        buckets[key_hash(key)].emplace_back(std::move(key), b);
      }
      for (TupleRef a : *l) {
        TupleView view{a, TupleRef()};
        std::vector<Value> key;
        key.reserve(keys.size());
        for (const KeyPair& k : keys) key.push_back(EvalExpr(k.left_key, view));
        auto it = buckets.find(key_hash(key));
        if (it == buckets.end()) continue;
        for (const auto& [bkey, btuple] : it->second) {
          if (bkey == key) emit(a, btuple);
        }
      }
    }
    Count(l->size() + r->size(), out.size());
    return out;
  }

  StatusOr<Relation> EvalAdom(const AlgExpr* plan) {
    ValueSet base = ActiveDomain(db_);
    for (uint32_t id : plan->adom_consts()) {
      base.push_back(ctx_.ConstantAt(id));
    }
    NormalizeValueSet(base);
    std::vector<std::pair<std::string, int>> fns;
    for (Symbol f : plan->adom_fns()) {
      auto it = fn_cache_.find(f);
      EMCALC_CHECK(it != fn_cache_.end());
      fns.emplace_back(std::string(ctx_.symbols().Name(f)),
                       it->second->arity);
    }
    auto closed = TermClosure(std::move(base), fns, registry_,
                              plan->adom_level(), adom_budget_);
    if (!closed.ok()) return closed.status();
    Relation out(1);
    for (const Value& v : *closed) out.Insert({v});
    Count(0, out.size());
    return out;
  }

  const AstContext& ctx_;
  const Database& db_;
  const FunctionRegistry& registry_;
  ExecTotals* totals_;
  size_t adom_budget_;
  std::unordered_map<Symbol, const ScalarFunction*> fn_cache_;
  std::unordered_map<const AlgExpr*, int> refs_;
  std::unordered_map<const AlgExpr*, Relation> memo_;
};

}  // namespace

StatusOr<Relation> EvaluateAlgebraLegacy(
    const AstContext& ctx, const AlgExpr* plan, const Database& db,
    const FunctionRegistry& registry, ExecTotals* totals,
    const ExecOptions& options) {
  if (totals != nullptr) *totals = {};
  Evaluator evaluator(ctx, db, registry, totals, options.adom_budget);
  if (Status s = evaluator.Validate(plan); !s.ok()) return s;
  evaluator.CountRefs(plan);
  return evaluator.Eval(plan);
}

StatusOr<Relation> EvaluateAlgebra(const AstContext& ctx, const AlgExpr* plan,
                                   const Database& db,
                                   const FunctionRegistry& registry,
                                   ExecTotals* totals,
                                   const ExecOptions& options) {
  auto physical = Lower(ctx, plan, registry, options);
  if (!physical.ok()) return physical.status();
  ExecProfile profile;
  auto result =
      physical->ExecuteToRelation(db, totals != nullptr ? &profile : nullptr);
  if (result.ok() && totals != nullptr) *totals = SumProfile(profile);
  return result;
}

}  // namespace emcalc
