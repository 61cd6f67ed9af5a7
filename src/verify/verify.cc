#include "src/verify/verify.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "src/calculus/analysis.h"
#include "src/translate/ranf.h"

namespace emcalc::verify {

namespace {

// -1 = environment/build-type default; 0/1 = forced by ForceEnabled.
std::atomic<int> g_force{-1};

// Verification runs inside every compile (always in Debug), so the clean
// path must not allocate per node. Node paths are kept as a stack-chained
// list of segments and rendered to a string only when a violation is
// recorded; expression labels ("condition 2 lhs") are likewise deferred.
struct PathNode {
  const PathNode* parent = nullptr;
  const char* label = nullptr;  // static segment (".lhs"); null when indexed
  int index = -1;               // numeric segment when >= 0

  std::string Str() const {
    std::string out;
    Append(out);
    return out;
  }
  void Append(std::string& out) const {
    if (parent != nullptr) parent->Append(out);
    if (label != nullptr) {
      out += label;
    } else if (index >= 0) {
      out += '.';
      out += std::to_string(index);
    }
  }
};

// A deferred "what" label for scalar-expression messages.
struct Label {
  const char* prefix = "";
  int index = -1;           // appended when >= 0
  const char* suffix = "";  // " lhs", " left side", ...

  std::string Str() const {
    std::string out(prefix);
    if (index >= 0) out += std::to_string(index);
    out += suffix;
    return out;
  }
};

// A small flat map over a vector; the verified structures have tens of
// nodes, where a linear scan beats hashing and its allocations.
template <typename K, typename V>
class FlatMap {
 public:
  V* Find(K key) {
    for (auto& e : entries_) {
      if (e.first == key) return &e.second;
    }
    return nullptr;
  }
  // Appends without checking for duplicates; returns the entry's index,
  // stable across later insertions.
  size_t Insert(K key, V value) {
    entries_.emplace_back(key, value);
    return entries_.size() - 1;
  }
  V& At(size_t index) { return entries_[index].second; }

 private:
  std::vector<std::pair<K, V>> entries_;
};

// Pointer-keyed map with the same interface as FlatMap but an
// open-addressed index over the entry vector, so Find stays O(1) on the
// few-hundred-node plans where a linear scan turns quadratic. Entry
// indices returned by Insert stay stable across growth (only the probe
// table is rebuilt).
template <typename K, typename V>
class PtrMap {
 public:
  V* Find(K key) {
    if (index_.empty()) return nullptr;
    for (size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      int32_t e = index_[i];
      if (e < 0) return nullptr;
      if (entries_[static_cast<size_t>(e)].first == key) {
        return &entries_[static_cast<size_t>(e)].second;
      }
    }
  }
  // Appends without checking for duplicates; returns the entry's index,
  // stable across later insertions.
  size_t Insert(K key, V value) {
    if ((entries_.size() + 1) * 4 > index_.size() * 3) Grow();
    size_t slot = entries_.size();
    entries_.emplace_back(key, value);
    Link(key, slot);
    return slot;
  }
  V& At(size_t index) { return entries_[index].second; }

 private:
  static size_t Hash(K key) {
    auto bits = reinterpret_cast<uintptr_t>(key);
    return static_cast<size_t>((bits >> 4) * 0x9E3779B97F4A7C15ull);
  }
  void Link(K key, size_t slot) {
    for (size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      if (index_[i] < 0) {
        index_[i] = static_cast<int32_t>(slot);
        return;
      }
    }
  }
  void Grow() {
    size_t cap = index_.empty() ? 16 : index_.size() * 2;
    index_.assign(cap, -1);
    mask_ = cap - 1;
    for (size_t e = 0; e < entries_.size(); ++e) Link(entries_[e].first, e);
  }

  std::vector<std::pair<K, V>> entries_;
  std::vector<int32_t> index_;
  size_t mask_ = 0;
};

void Add(VerifyReport& report, const char* rule, std::string path,
         std::string message) {
  report.violations.push_back(
      VerifyViolation{rule, std::move(path), std::move(message)});
}

void Add(VerifyReport& report, const char* rule, const PathNode& path,
         std::string message) {
  Add(report, rule, path.Str(), std::move(message));
}

// ---------------------------------------------------------------------------
// Scalar expression scanning (shared by the algebra and physical layers)
// ---------------------------------------------------------------------------

// Accumulated facts about one scalar expression tree.
struct ScalarScan {
  bool has_null = false;       // a null node or application argument
  int min_col = -1;            // smallest column referenced, -1 if none
  int max_col = -1;            // largest column referenced, -1 if none
  int max_param = -1;          // largest parameter index, -1 if none
};

void ScanScalar(const ScalarExpr* e, ScalarScan& out) {
  if (e == nullptr) {
    out.has_null = true;
    return;
  }
  switch (e->kind()) {
    case ScalarExpr::Kind::kCol:
      if (out.max_col < e->col()) out.max_col = e->col();
      if (out.min_col < 0 || e->col() < out.min_col) out.min_col = e->col();
      break;
    case ScalarExpr::Kind::kConst:
      break;
    case ScalarExpr::Kind::kParam:
      if (out.max_param < e->param()) out.max_param = e->param();
      break;
    case ScalarExpr::Kind::kApply:
      for (const ScalarExpr* a : e->args()) ScanScalar(a, out);
      break;
  }
}

// Reports a scanned expression against its input schema width and the
// query's parameter count. `what` labels the expression in messages
// ("projection expression 2", "join condition 0 lhs", ...). The rule
// prefix selects alg.* or phys.* ids.
void ReportScalar(VerifyReport& report, const ScalarScan& scan,
                  int input_arity, int num_params, const PathNode& path,
                  const Label& what, bool physical) {
  if (scan.has_null) {
    Add(report, physical ? "phys.expr-null" : "alg.expr-null", path,
        what.Str() + " is (or contains) a null expression");
  }
  if (scan.max_col >= input_arity) {
    Add(report, physical ? "phys.col-range" : "alg.col-range", path,
        what.Str() + " references column @" +
            std::to_string(scan.max_col + 1) +
            " but the input schema has " + std::to_string(input_arity) +
            " column(s)");
  }
  if (scan.max_param >= num_params) {
    Add(report, physical ? "phys.param-range" : "alg.param-range", path,
        what.Str() + " reads parameter " + std::to_string(scan.max_param) +
            " but the query has " + std::to_string(num_params) +
            " parameter(s)");
  }
}

// ---------------------------------------------------------------------------
// Formula rules (stages 1 and 2)
// ---------------------------------------------------------------------------

class FormulaChecker {
 public:
  FormulaChecker(const AstContext& ctx, VerifyReport& report,
                 bool require_spans, bool reject_shadowing)
      : ctx_(ctx),
        report_(report),
        require_spans_(require_spans),
        reject_shadowing_(reject_shadowing) {}

  void Check(const Formula* f, const char* root) {
    PathNode path{nullptr, root, -1};
    scope_.clear();
    free_.clear();
    Walk(f, path);
  }

  // Free variables seen during the last Check, collected for free by the
  // scope-tracking walk (saves the callers a second full traversal).
  SymbolSet FreeSeen() const { return SymbolSet(free_); }

 private:
  void WalkTerm(const Term* t, const PathNode& path) {
    if (t == nullptr) {
      Add(report_, "form.null-node", path, "null term");
      return;
    }
    switch (t->kind()) {
      case Term::Kind::kVar:
        if (!InScope(0, scope_.size(), t->symbol()) &&
            std::find(free_.begin(), free_.end(), t->symbol()) ==
                free_.end()) {
          free_.push_back(t->symbol());
        }
        break;
      case Term::Kind::kConst:
        break;
      case Term::Kind::kApply: {
        int arity = static_cast<int>(t->args().size());
        int* prev = fn_arities_.Find(t->symbol());
        if (prev == nullptr) {
          fn_arities_.Insert(t->symbol(), arity);
        } else if (*prev != arity) {
          Add(report_, "form.fn-arity", path,
              "function '" + std::string(ctx_.symbols().Name(t->symbol())) +
                  "' used with arity " + std::to_string(arity) +
                  " after arity " + std::to_string(*prev));
        }
        int i = 0;
        for (const Term* a : t->args()) {
          PathNode child{&path, nullptr, i++};
          WalkTerm(a, child);
        }
        break;
      }
    }
  }

  // True when `v` occurs in scope_[begin, end).
  bool InScope(size_t begin, size_t end, Symbol v) const {
    for (size_t i = begin; i < end; ++i) {
      if (scope_[i] == v) return true;
    }
    return false;
  }

  void Walk(const Formula* f, const PathNode& path) {
    if (f == nullptr) {
      Add(report_, "form.null-node", path, "null formula");
      return;
    }
    if (require_spans_ && f->kind() != FormulaKind::kTrue &&
        f->kind() != FormulaKind::kFalse &&
        ctx_.SpanOf(f) == nullptr) {
      Add(report_, "form.span", path,
          "parsed formula node has no source span recorded");
    }
    switch (f->kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        break;
      case FormulaKind::kRel: {
        int arity = static_cast<int>(f->terms().size());
        int* prev = rel_arities_.Find(f->rel());
        if (prev == nullptr) {
          rel_arities_.Insert(f->rel(), arity);
        } else if (*prev != arity) {
          Add(report_, "form.rel-arity", path,
              "relation '" + std::string(ctx_.symbols().Name(f->rel())) +
                  "' used with arity " + std::to_string(arity) +
                  " after arity " + std::to_string(*prev));
        }
        int i = 0;
        for (const Term* t : f->terms()) {
          PathNode child{&path, nullptr, i++};
          WalkTerm(t, child);
        }
        break;
      }
      case FormulaKind::kEq:
      case FormulaKind::kNeq:
      case FormulaKind::kLess:
      case FormulaKind::kLessEq: {
        PathNode lhs{&path, ".lhs", -1};
        PathNode rhs{&path, ".rhs", -1};
        WalkTerm(f->lhs(), lhs);
        WalkTerm(f->rhs(), rhs);
        break;
      }
      case FormulaKind::kNot: {
        PathNode child{&path, ".0", -1};
        Walk(f->child(), child);
        break;
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        int i = 0;
        for (const Formula* c : f->children()) {
          PathNode child{&path, nullptr, i++};
          Walk(c, child);
        }
        break;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        if (f->vars().empty()) {
          Add(report_, "form.quantifier-vars", path,
              "quantifier with an empty variable list");
        }
        size_t mark = scope_.size();
        for (Symbol v : f->vars()) {
          if (InScope(mark, scope_.size(), v)) {
            Add(report_, "form.quantifier-vars", path,
                "variable '" + std::string(ctx_.symbols().Name(v)) +
                    "' bound twice by the same quantifier");
          }
          if (reject_shadowing_ && InScope(0, mark, v)) {
            Add(report_, "form.shadow", path,
                "quantifier shadows enclosing binding of '" +
                    std::string(ctx_.symbols().Name(v)) +
                    "' (rectified formulas have distinct bound variables)");
          }
          scope_.push_back(v);
        }
        PathNode child{&path, ".0", -1};
        Walk(f->child(), child);
        scope_.resize(mark);
        break;
      }
    }
  }

  const AstContext& ctx_;
  VerifyReport& report_;
  bool require_spans_;
  bool reject_shadowing_;
  FlatMap<Symbol, int> rel_arities_;
  FlatMap<Symbol, int> fn_arities_;
  std::vector<Symbol> scope_;  // enclosing quantifier bindings, mark/restore
  std::vector<Symbol> free_;   // free variables seen, deduplicated
};

// ---------------------------------------------------------------------------
// Algebra rules (stages 3 and 4)
// ---------------------------------------------------------------------------

class AlgebraChecker {
 public:
  AlgebraChecker(VerifyReport& report, const AlgebraOptions& options)
      : report_(report), options_(options) {}

  void Check(const AlgExpr* root) {
    if (root == nullptr) {
      Add(report_, "alg.null-node", "root", "null plan root");
      return;
    }
    if (options_.expected_arity >= 0 &&
        root->arity() != options_.expected_arity) {
      Add(report_, "alg.root-arity", "root",
          "plan root has arity " + std::to_string(root->arity()) +
              " but the query head has " +
              std::to_string(options_.expected_arity) + " variable(s)");
    }
    PathNode path{nullptr, "root", -1};
    Walk(root, path);
  }

 private:
  enum class State : uint8_t { kOpen, kDone };

  void CheckExpr(const ScalarExpr* e, int input_arity, const PathNode& path,
                 const Label& what) {
    ScalarScan scan;
    ScanScalar(e, scan);
    ReportScalar(report_, scan, input_arity, options_.num_params, path, what,
                 /*physical=*/false);
  }

  void CheckConds(const AlgExpr* node, int input_arity,
                  const PathNode& path) {
    int i = 0;
    for (const AlgCondition& c : node->conds()) {
      int idx = i++;
      if (c.lhs == nullptr || c.rhs == nullptr) {
        Add(report_, "alg.cond-null", path,
            Label{"condition ", idx}.Str() + " has a null side");
        continue;
      }
      CheckExpr(c.lhs, input_arity, path, Label{"condition ", idx, " lhs"});
      CheckExpr(c.rhs, input_arity, path, Label{"condition ", idx, " rhs"});
    }
  }

  // One child, reported when absent; returns false to stop kind checks.
  bool RequireChild(const AlgExpr* child, const char* which,
                    const PathNode& path) {
    if (child != nullptr) return true;
    Add(report_, "alg.child-missing", path,
        std::string("missing ") + which + " operand");
    return false;
  }

  void Walk(const AlgExpr* node, const PathNode& path) {
    if (State* seen = state_.Find(node)) {
      if (*seen == State::kOpen) {
        Add(report_, "alg.cycle", path, "plan graph contains a cycle");
      }
      return;  // shared subplan already verified (plans are DAGs)
    }
    size_t slot = state_.Insert(node, State::kOpen);
    const char* kind = AlgKindName(node->kind());
    switch (node->kind()) {
      case AlgKind::kRel:
        if (node->arity() < 0) {
          Add(report_, "alg.rel-arity", path,
              std::string(kind) + " has negative arity " +
                  std::to_string(node->arity()));
        }
        CheckLeaf(node, path);
        break;
      case AlgKind::kProject: {
        if (!RequireChild(node->input(), "input", path)) break;
        CheckUnary(node, path);
        if (static_cast<int>(node->exprs().size()) != node->arity()) {
          Add(report_, "alg.project-arity", path,
              "kProject declares arity " + std::to_string(node->arity()) +
                  " but has " + std::to_string(node->exprs().size()) +
                  " output expression(s)");
        }
        int i = 0;
        for (const ScalarExpr* e : node->exprs()) {
          CheckExpr(e, node->input()->arity(), path,
                    Label{"projection expression ", i++});
        }
        PathNode child{&path, ".input", -1};
        Walk(node->input(), child);
        break;
      }
      case AlgKind::kSelect: {
        if (!RequireChild(node->input(), "input", path)) break;
        CheckUnary(node, path);
        if (node->arity() != node->input()->arity()) {
          Add(report_, "alg.select-arity", path,
              "kSelect has arity " + std::to_string(node->arity()) +
                  " but its input has arity " +
                  std::to_string(node->input()->arity()));
        }
        CheckConds(node, node->input()->arity(), path);
        PathNode child{&path, ".input", -1};
        Walk(node->input(), child);
        break;
      }
      case AlgKind::kJoin: {
        bool l = RequireChild(node->left(), "left", path);
        bool r = RequireChild(node->right(), "right", path);
        if (!l || !r) break;
        int combined = node->left()->arity() + node->right()->arity();
        if (node->arity() != combined) {
          Add(report_, "alg.join-arity", path,
              "kJoin has arity " + std::to_string(node->arity()) +
                  " but its operands concatenate to arity " +
                  std::to_string(combined));
        }
        CheckConds(node, combined, path);
        PathNode left{&path, ".left", -1};
        PathNode right{&path, ".right", -1};
        Walk(node->left(), left);
        Walk(node->right(), right);
        break;
      }
      case AlgKind::kUnion:
      case AlgKind::kDiff: {
        bool l = RequireChild(node->left(), "left", path);
        bool r = RequireChild(node->right(), "right", path);
        if (!l || !r) break;
        const char* rule = node->kind() == AlgKind::kUnion ? "alg.union-arity"
                                                           : "alg.diff-arity";
        if (node->left()->arity() != node->right()->arity() ||
            node->arity() != node->left()->arity()) {
          Add(report_, rule, path,
              std::string(kind) + " has arity " +
                  std::to_string(node->arity()) + " over operands of arity " +
                  std::to_string(node->left()->arity()) + " and " +
                  std::to_string(node->right()->arity()) +
                  " (all three must agree)");
        }
        PathNode left{&path, ".left", -1};
        PathNode right{&path, ".right", -1};
        Walk(node->left(), left);
        Walk(node->right(), right);
        break;
      }
      case AlgKind::kUnit:
        if (node->arity() != 0) {
          Add(report_, "alg.unit-arity", path,
              "kUnit must have arity 0, has " +
                  std::to_string(node->arity()));
        }
        CheckLeaf(node, path);
        break;
      case AlgKind::kEmpty:
        if (node->arity() < 0) {
          Add(report_, "alg.empty-arity", path,
              "kEmpty has negative arity " + std::to_string(node->arity()));
        }
        CheckLeaf(node, path);
        break;
      case AlgKind::kAdom: {
        // The direct translation never emits kAdom; only the AB88
        // baseline translator, whose plans are not verified, does.
        Add(report_, "alg.adom-in-plan", path,
            "kAdom in a directly-translated plan (only the AB88 baseline "
            "translator emits active-domain scans)");
        if (node->arity() != 1 || node->adom_level() < 0) {
          Add(report_, "alg.adom-shape", path,
              "kAdom must be unary with a non-negative closure level (arity " +
                  std::to_string(node->arity()) + ", level " +
                  std::to_string(node->adom_level()) + ")");
        }
        CheckLeaf(node, path);
        break;
      }
    }
    state_.At(slot) = State::kDone;
  }

  void CheckLeaf(const AlgExpr* node, const PathNode& path) {
    if (node->left() != nullptr || node->right() != nullptr) {
      Add(report_, "alg.child-extra", path,
          std::string(AlgKindName(node->kind())) +
              " is a leaf but has a child operand");
    }
  }

  void CheckUnary(const AlgExpr* node, const PathNode& path) {
    if (node->right() != nullptr) {
      Add(report_, "alg.child-extra", path,
          std::string(AlgKindName(node->kind())) +
              " is unary but has a right operand");
    }
  }

  VerifyReport& report_;
  AlgebraOptions options_;
  PtrMap<const AlgExpr*, State> state_;
};

// ---------------------------------------------------------------------------
// Physical rules (stage 5)
// ---------------------------------------------------------------------------

class PhysicalChecker {
 public:
  PhysicalChecker(const PhysicalPlan& plan, VerifyReport& report)
      : plan_(plan), report_(report) {}

  void Check(const AlgExpr* algebra) {
    const PhysicalOp* root = plan_.root();
    if (root == nullptr) {
      Add(report_, "phys.root-null", "root", "physical plan has no root");
      return;
    }
    PathNode path{nullptr, "root", -1};
    Walk(root, path);
    if (algebra != nullptr) Mirror(algebra, root, path);
  }

 private:
  enum class State : uint8_t { kOpen, kDone };

  void CheckExpr(const ScalarExpr* e, int input_arity, const PathNode& path,
                 const Label& what) {
    ScalarScan scan;
    ScanScalar(e, scan);
    ReportScalar(report_, scan, input_arity, plan_.NumParams(), path, what,
                 /*physical=*/true);
  }

  void Walk(const PhysicalOp* op, const PathNode& path) {
    if (State* seen = state_.Find(op)) {
      if (*seen == State::kOpen) {
        Add(report_, "phys.cycle", path, "operator graph contains a cycle");
      }
      return;
    }
    size_t slot = state_.Insert(op, State::kOpen);
    const char* kind = PhysOpKindName(op->kind);

    // Scheduling-safety: execution attributes memory to per-operator
    // MemoryScopes indexed by op id, so every operator must carry a
    // distinct id inside the plan's slot table.
    if (op->id < 0 || op->id >= plan_.NumOperators()) {
      Add(report_, "phys.op-id", path,
          std::string(kind) + " has id " + std::to_string(op->id) +
              " outside the plan's " + std::to_string(plan_.NumOperators()) +
              " stats/memory slot(s)");
    } else if (std::find(ids_.begin(), ids_.end(), op->id) != ids_.end()) {
      Add(report_, "phys.op-id", path,
          std::string(kind) + " reuses op id " + std::to_string(op->id) +
              " (memory attribution would merge two operators)");
    } else {
      ids_.push_back(op->id);
    }
    if (op->arity < 0) {
      Add(report_, "phys.arity", path,
          std::string(kind) + " has negative arity " +
              std::to_string(op->arity));
    }

    const bool is_leaf = op->kind == PhysOpKind::kScan ||
                         op->kind == PhysOpKind::kAdomScan ||
                         op->kind == PhysOpKind::kSingleton;
    const bool is_binary = op->kind == PhysOpKind::kHashJoin ||
                           op->kind == PhysOpKind::kNestedLoopJoin ||
                           op->kind == PhysOpKind::kUnionMerge ||
                           op->kind == PhysOpKind::kDiffAnti;
    if (is_leaf) {
      if (op->left != nullptr || op->right != nullptr) {
        Add(report_, "phys.children", path,
            std::string(kind) + " is a leaf but has children");
      }
    } else if (is_binary) {
      if (op->left == nullptr || op->right == nullptr) {
        Add(report_, "phys.children", path,
            std::string(kind) + " needs two children");
        state_.At(slot) = State::kDone;
        return;
      }
    } else {  // unary: ProjectMap, FilterSelect, Materialize
      if (op->left == nullptr) {
        Add(report_, "phys.children", path,
            std::string(kind) + " needs an input");
        state_.At(slot) = State::kDone;
        return;
      }
      if (op->right != nullptr) {
        Add(report_, "phys.children", path,
            std::string(kind) + " is unary but has a right child");
      }
    }

    switch (op->kind) {
      case PhysOpKind::kScan:
        break;
      case PhysOpKind::kProjectMap: {
        if (static_cast<int>(op->exprs.size()) != op->arity) {
          Add(report_, "phys.project-arity", path,
              "ProjectMap declares arity " + std::to_string(op->arity) +
                  " but has " + std::to_string(op->exprs.size()) +
                  " output expression(s)");
        }
        int i = 0;
        for (const ScalarExpr* e : op->exprs) {
          CheckExpr(e, op->left->arity, path,
                    Label{"projection expression ", i++});
        }
        break;
      }
      case PhysOpKind::kFilterSelect: {
        if (op->arity != op->left->arity) {
          Add(report_, "phys.arity", path,
              "FilterSelect arity " + std::to_string(op->arity) +
                  " != input arity " + std::to_string(op->left->arity));
        }
        CheckConds(op, op->left->arity, path);
        break;
      }
      case PhysOpKind::kHashJoin:
      case PhysOpKind::kNestedLoopJoin: {
        int combined = op->left->arity + op->right->arity;
        if (op->arity != combined) {
          Add(report_, "phys.arity", path,
              std::string(kind) + " arity " + std::to_string(op->arity) +
                  " != concatenated input arity " + std::to_string(combined));
        }
        if (op->split != op->left->arity) {
          Add(report_, "phys.join-split", path,
              std::string(kind) + " split " + std::to_string(op->split) +
                  " != left input arity " + std::to_string(op->left->arity));
        }
        CheckConds(op, combined, path);
        if (op->kind == PhysOpKind::kNestedLoopJoin && !op->keys.empty()) {
          Add(report_, "phys.key-null", path,
              "NestedLoopJoin carries equi-keys (should have lowered to a "
              "HashJoin)");
        }
        CheckKeys(op, combined, path);
        break;
      }
      case PhysOpKind::kUnionMerge:
      case PhysOpKind::kDiffAnti:
        if (!op->keys.empty()) {  // anti-join form of DiffAnti
          if (op->arity != op->split || op->split != op->left->arity) {
            Add(report_, "phys.arity", path,
                "anti-join DiffAnti arity " + std::to_string(op->arity) +
                    ", split " + std::to_string(op->split) +
                    " and left input arity " +
                    std::to_string(op->left->arity) + " (all three must agree)");
          }
          CheckKeys(op, op->left->arity + op->right->arity, path);
          break;
        }
        if (op->left->arity != op->right->arity ||
            op->arity != op->left->arity) {
          Add(report_, "phys.arity", path,
              std::string(kind) + " arity " + std::to_string(op->arity) +
                  " over inputs of arity " + std::to_string(op->left->arity) +
                  " and " + std::to_string(op->right->arity) +
                  " (all three must agree)");
        }
        break;
      case PhysOpKind::kAdomScan:
        if (op->arity != 1 || op->adom_level < 0) {
          Add(report_, "phys.arity", path,
              "AdomScan must be unary with a non-negative level (arity " +
                  std::to_string(op->arity) + ", level " +
                  std::to_string(op->adom_level) + ")");
        }
        break;
      case PhysOpKind::kSingleton:
        if (op->unit && op->arity != 0) {
          Add(report_, "phys.arity", path,
              "unit Singleton must have arity 0, has " +
                  std::to_string(op->arity));
        }
        break;
      case PhysOpKind::kMaterialize: {
        if (op->arity != op->left->arity) {
          Add(report_, "phys.arity", path,
              "Materialize arity " + std::to_string(op->arity) +
                  " != input arity " + std::to_string(op->left->arity));
        }
        if (op->memo_slot < 0 || op->memo_slot >= plan_.NumMemoSlots()) {
          Add(report_, "phys.memo", path,
              "Materialize cache slot " + std::to_string(op->memo_slot) +
                  " outside the plan's " +
                  std::to_string(plan_.NumMemoSlots()) + " slot(s)");
        } else if (std::find(memo_slots_.begin(), memo_slots_.end(),
                             op->memo_slot) != memo_slots_.end()) {
          Add(report_, "phys.memo-dup", path,
              "Materialize cache slot " + std::to_string(op->memo_slot) +
                  " used by two operators (consumers would read the wrong "
                  "cached result)");
        } else {
          memo_slots_.push_back(op->memo_slot);
        }
        if (op->consumers < 2) {
          Add(report_, "phys.memo", path,
              "Materialize with " + std::to_string(op->consumers) +
                  " consumer(s); shared nodes are only materialized for >= "
                  "2");
        }
        break;
      }
    }

    CheckPrograms(op, path);

    if (op->left != nullptr) {
      PathNode left{&path, ".left", -1};
      Walk(op->left, left);
    }
    if (op->right != nullptr) {
      PathNode right{&path, ".right", -1};
      Walk(op->right, right);
    }
    state_.At(slot) = State::kDone;
  }

  // Equi-keys of a HashJoin or an anti-join DiffAnti: both sides present,
  // the probe side reading only left columns and the build side only right
  // columns of the `combined` (left ++ right) schema.
  void CheckKeys(const PhysicalOp* op, int combined, const PathNode& path) {
    int i = 0;
    for (const PhysicalOp::KeyPair& k : op->keys) {
      int idx = i++;
      if (k.left_key == nullptr || k.right_key == nullptr) {
        Add(report_, "phys.key-null", path,
            Label{"key ", idx}.Str() + " has a null side");
        continue;
      }
      // left_key evaluates over the left tuple; right_key over the
      // concatenated schema with an empty left part, so its columns
      // must all land on the build side.
      ScalarScan l, r;
      ScanScalar(k.left_key, l);
      ScanScalar(k.right_key, r);
      ReportScalar(report_, l, op->split, plan_.NumParams(), path,
                   Label{"key ", idx, " left side"}, /*physical=*/true);
      ReportScalar(report_, r, combined, plan_.NumParams(), path,
                   Label{"key ", idx, " right side"}, /*physical=*/true);
      if (l.max_col >= op->split) {
        Add(report_, "phys.key-side", path,
            Label{"key ", idx}.Str() +
                " probe expression reads a build-side column");
      }
      if (r.min_col >= 0 && r.min_col < op->split) {
        Add(report_, "phys.key-side", path,
            Label{"key ", idx}.Str() +
                " build expression reads a probe-side column");
      }
    }
  }

  // The executor evaluates scalar expressions only through the compiled
  // programs and dereferences them unconditionally: each operator must
  // carry the programs its kind needs, with one output per expression
  // (ProjectMap) or per key (HashJoin, each side).
  void CheckPrograms(const PhysicalOp* op, const PathNode& path) {
    const std::string kind = PhysOpKindName(op->kind);
    auto outputs = [&](const std::shared_ptr<const ScalarProgram>& prog,
                       const char* what, size_t want) {
      if (prog == nullptr) {
        Add(report_, "phys.program", path, kind + " has no " + what);
      } else if (prog->num_outputs() != want) {
        Add(report_, "phys.program", path,
            kind + " " + what + " yields " +
                std::to_string(prog->num_outputs()) + " output(s) for " +
                std::to_string(want));
      }
    };
    switch (op->kind) {
      case PhysOpKind::kProjectMap:
        outputs(op->program, "projection program", op->exprs.size());
        break;
      case PhysOpKind::kDiffAnti:
        if (op->keys.empty()) break;  // the merge form runs no program
        [[fallthrough]];
      case PhysOpKind::kHashJoin:
        outputs(op->program, "probe-key program", op->keys.size());
        outputs(op->build_program, "build-key program", op->keys.size());
        [[fallthrough]];
      case PhysOpKind::kNestedLoopJoin:
      case PhysOpKind::kFilterSelect: {
        // A FilterSelect always runs its condition program; a join runs
        // one exactly when it has residual conditions.
        const bool want = op->kind == PhysOpKind::kFilterSelect ||
                          !op->conds.empty();
        if (want && op->cond_program == nullptr) {
          Add(report_, "phys.program", path,
              kind + " has no condition program");
        } else if (!want && op->cond_program != nullptr) {
          Add(report_, "phys.program", path,
              kind + " has a condition program but no conditions");
        }
        break;
      }
      default:
        break;
    }
  }

  void CheckConds(const PhysicalOp* op, int input_arity,
                  const PathNode& path) {
    int i = 0;
    for (const AlgCondition& c : op->conds) {
      int idx = i++;
      if (c.lhs == nullptr || c.rhs == nullptr) {
        Add(report_, "phys.cond-null", path,
            Label{"condition ", idx}.Str() + " has a null side");
        continue;
      }
      CheckExpr(c.lhs, input_arity, path, Label{"condition ", idx, " lhs"});
      CheckExpr(c.rhs, input_arity, path, Label{"condition ", idx, " rhs"});
    }
  }

  // Lock-step walk: the lowered operator for each algebra node must have
  // the mirroring kind and arity. Lowering memoizes shared algebra nodes,
  // so each AlgExpr must map to exactly one PhysicalOp.
  void Mirror(const AlgExpr* a, const PhysicalOp* p, const PathNode& path) {
    if (a == nullptr || p == nullptr) return;  // reported structurally
    if (const PhysicalOp** prev = mirror_.Find(a)) {
      if (*prev != p) {
        Add(report_, "phys.mirror", path,
            "shared algebra node lowered to two different operators "
            "(materialization memo broken)");
      }
      return;
    }
    mirror_.Insert(a, p);
    // Shared nodes are wrapped in a Materialize; unwrap for kind matching.
    const PhysicalOp* body = p;
    if (body->kind == PhysOpKind::kMaterialize) body = body->left;
    if (body == nullptr) return;
    if (p->arity != a->arity()) {
      Add(report_, "phys.mirror", path,
          std::string(PhysOpKindName(p->kind)) + " arity " +
              std::to_string(p->arity) + " != algebra " +
              AlgKindName(a->kind()) + " arity " +
              std::to_string(a->arity()));
    }
    if (body != p && body->arity != a->arity()) {
      // The operator under a Materialize wrapper must mirror too.
      Add(report_, "phys.mirror", path,
          std::string(PhysOpKindName(body->kind)) + " arity " +
              std::to_string(body->arity) + " != algebra " +
              AlgKindName(a->kind()) + " arity " +
              std::to_string(a->arity()));
    }
    bool kind_ok = false;
    switch (a->kind()) {
      case AlgKind::kRel:
        kind_ok = body->kind == PhysOpKind::kScan;
        break;
      case AlgKind::kProject:
        kind_ok = body->kind == PhysOpKind::kProjectMap;
        break;
      case AlgKind::kSelect:
        kind_ok = body->kind == PhysOpKind::kFilterSelect;
        break;
      case AlgKind::kJoin:
        kind_ok = body->kind == PhysOpKind::kHashJoin ||
                  body->kind == PhysOpKind::kNestedLoopJoin;
        if (kind_ok &&
            body->keys.size() + body->conds.size() != a->conds().size()) {
          Add(report_, "phys.mirror", path,
              "join partitioned " + std::to_string(a->conds().size()) +
                  " algebra condition(s) into " +
                  std::to_string(body->keys.size()) + " key(s) + " +
                  std::to_string(body->conds.size()) + " residual(s)");
        }
        break;
      case AlgKind::kUnion:
        kind_ok = body->kind == PhysOpKind::kUnionMerge;
        break;
      case AlgKind::kDiff:
        kind_ok = body->kind == PhysOpKind::kDiffAnti;
        break;
      case AlgKind::kUnit:
        kind_ok = body->kind == PhysOpKind::kSingleton && body->unit;
        break;
      case AlgKind::kEmpty:
        kind_ok = body->kind == PhysOpKind::kSingleton && !body->unit;
        break;
      case AlgKind::kAdom:
        kind_ok = body->kind == PhysOpKind::kAdomScan;
        break;
    }
    if (!kind_ok) {
      Add(report_, "phys.mirror", path,
          std::string("algebra ") + AlgKindName(a->kind()) +
              " lowered to " + PhysOpKindName(body->kind));
    }
    switch (a->kind()) {
      case AlgKind::kProject:
      case AlgKind::kSelect: {
        PathNode left{&path, ".left", -1};
        Mirror(a->input(), body->left, left);
        break;
      }
      case AlgKind::kJoin:
      case AlgKind::kUnion:
      case AlgKind::kDiff: {
        PathNode left{&path, ".left", -1};
        PathNode right{&path, ".right", -1};
        const AlgExpr* a_right = a->right();
        if (kind_ok && body->kind == PhysOpKind::kDiffAnti &&
            !body->keys.empty()) {
          a_right = AntiJoinBuildSide(a, body, path);
        }
        Mirror(a->left(), body->left, left);
        Mirror(a_right, body->right, right);
        break;
      }
      case AlgKind::kRel:
      case AlgKind::kUnit:
      case AlgKind::kEmpty:
      case AlgKind::kAdom:
        break;
    }
  }

  // An anti-join DiffAnti stands for diff = X - project[@1..@n](join(X, Y,
  // C)), its keys exactly the conditions C, in order, with no residual.
  // Returns Y, which the operator's right input mirrors, or null after
  // reporting a wrong shape.
  const AlgExpr* AntiJoinBuildSide(const AlgExpr* diff, const PhysicalOp* op,
                                   const PathNode& path) {
    const AlgExpr* proj = diff->right();
    const AlgExpr* join =
        proj->kind() == AlgKind::kProject ? proj->input() : nullptr;
    bool ok = join != nullptr && join->kind() == AlgKind::kJoin &&
              join->left() == diff->left() &&
              static_cast<int>(proj->exprs().size()) == diff->arity() &&
              op->conds.empty() && op->keys.size() == join->conds().size();
    for (int i = 0; ok && i < diff->arity(); ++i) {
      const ScalarExpr* e = proj->exprs()[static_cast<size_t>(i)];
      ok = e != nullptr && e->kind() == ScalarExpr::Kind::kCol &&
           e->col() == i;
    }
    for (size_t i = 0; ok && i < op->keys.size(); ++i) {
      const PhysicalOp::KeyPair& k = op->keys[i];
      const AlgCondition& c = join->conds()[i];
      // Null sides (CheckKeys reports them) never match.
      ok = k.left_key != nullptr && k.right_key != nullptr &&
           c.op == AlgCompareOp::kEq &&
           ((ScalarExprsEqual(k.left_key, c.lhs) &&
             ScalarExprsEqual(k.right_key, c.rhs)) ||
            (ScalarExprsEqual(k.left_key, c.rhs) &&
             ScalarExprsEqual(k.right_key, c.lhs)));
    }
    if (ok) return join->right();
    Add(report_, "phys.anti-shape", path,
        "anti-join DiffAnti with " + std::to_string(op->keys.size()) +
            " key(s) does not stand for X - project[@1..@n](join(X, Y, C)) "
            "with its keys exactly C");
    return nullptr;
  }

  const PhysicalPlan& plan_;
  VerifyReport& report_;
  PtrMap<const PhysicalOp*, State> state_;
  PtrMap<const AlgExpr*, const PhysicalOp*> mirror_;
  std::vector<int> ids_;
  std::vector<int> memo_slots_;
};

void WalkProfile(const ExecProfile& node, const PathNode& path,
                 VerifyReport& report) {
  if (node.arity < 0) {
    Add(report, "prof.arity", path,
        std::string(PhysOpKindName(node.op)) + " has negative arity " +
            std::to_string(node.arity));
  }
  int i = 0;
  for (const ExecProfile& c : node.children) {
    PathNode child{&path, nullptr, i++};
    WalkProfile(c, child, report);
  }
}

constexpr std::string_view kReportHeader = "stage-boundary verification";

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kCalculus: return "calculus";
    case Stage::kSafetyFormula: return "safety-formula";
    case Stage::kRanfAlgebra: return "ranf-algebra";
    case Stage::kOptimizedAlgebra: return "optimized-algebra";
    case Stage::kPhysical: return "physical";
  }
  return "?";
}

bool VerifyReport::Has(std::string_view rule) const {
  for (const VerifyViolation& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

std::string VerifyReport::ToString() const {
  std::string out = std::string(kReportHeader) + " failed [" +
                    StageName(stage) + "]: " +
                    std::to_string(violations.size()) + " violation(s)";
  for (const VerifyViolation& v : violations) {
    out += "\n  [" + v.rule + "] at " + v.path + ": " + v.message;
  }
  return out;
}

Status VerifyReport::ToStatus() const {
  if (ok()) return Status::Ok();
  return InternalError(ToString());
}

std::vector<diag::Diagnostic> VerifyReport::ToDiagnostics() const {
  std::vector<diag::Diagnostic> out;
  out.reserve(violations.size());
  for (const VerifyViolation& v : violations) {
    diag::Diagnostic d("verify." + v.rule, diag::Severity::kError,
                       v.message + " (at " + v.path + ")");
    d.AddNote(std::string("stage: ") + StageName(stage));
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<diag::Diagnostic> DiagnosticsFromStatus(const Status& status) {
  std::vector<diag::Diagnostic> out;
  std::string_view msg = status.message();
  if (status.ok() || msg.substr(0, kReportHeader.size()) != kReportHeader) {
    return out;
  }
  // Each violation renders as "\n  [rule] at path: message".
  size_t pos = 0;
  while ((pos = msg.find("\n  [", pos)) != std::string_view::npos) {
    pos += 4;
    size_t close = msg.find(']', pos);
    if (close == std::string_view::npos) break;
    std::string rule(msg.substr(pos, close - pos));
    size_t eol = msg.find('\n', close);
    if (eol == std::string_view::npos) eol = msg.size();
    std::string_view rest = msg.substr(close + 1, eol - close - 1);
    if (rest.substr(0, 4) == " at ") rest.remove_prefix(4);
    out.emplace_back("verify." + rule, diag::Severity::kError,
                     std::string(rest));
    pos = eol;
  }
  return out;
}

bool Enabled() {
  int force = g_force.load(std::memory_order_relaxed);
  if (force >= 0) return force != 0;
#ifndef NDEBUG
  return true;
#else
  static const bool env_enabled = [] {
    const char* v = std::getenv("EMCALC_VERIFY");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return env_enabled;
#endif
}

void ForceEnabled(int mode) {
  g_force.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                std::memory_order_relaxed);
}

VerifyReport VerifyCalculus(const AstContext& ctx, const Query& q,
                            bool require_spans) {
  VerifyReport report;
  report.stage = Stage::kCalculus;
  if (q.body == nullptr) {
    Add(report, "form.null-node", "body", "query has no body");
    return report;
  }
  FormulaChecker checker(ctx, report, require_spans,
                         /*reject_shadowing=*/false);
  checker.Check(q.body, "body");
  SymbolSet seen;
  SymbolSet free = checker.FreeSeen();
  for (Symbol h : q.head) {
    if (seen.Contains(h)) {
      Add(report, "calc.head-dup", "head",
          "head variable '" + std::string(ctx.symbols().Name(h)) +
              "' listed twice");
    }
    seen.Insert(h);
    if (!free.Contains(h)) {
      Add(report, "calc.head-free", "head",
          "head variable '" + std::string(ctx.symbols().Name(h)) +
              "' is not free in the body");
    }
  }
  return report;
}

VerifyReport VerifySafetyFormula(const AstContext& ctx, const Formula* f,
                                 const SymbolSet& allowed_free) {
  VerifyReport report;
  report.stage = Stage::kSafetyFormula;
  FormulaChecker checker(ctx, report, /*require_spans=*/false,
                         /*reject_shadowing=*/true);
  checker.Check(f, "body");
  if (f != nullptr) {
    SymbolSet free = checker.FreeSeen();
    if (!free.IsSubsetOf(allowed_free)) {
      SymbolSet escaped = free.Minus(allowed_free);
      std::string names;
      for (Symbol s : escaped) {
        if (!names.empty()) names += ", ";
        names += std::string(ctx.symbols().Name(s));
      }
      Add(report, "form.free-vars", "body",
          "rewrite introduced free variable(s) {" + names +
              "} not free in the original body");
    }
  }
  return report;
}

VerifyReport VerifyAlgebra(const AlgExpr* plan, const AlgebraOptions& options) {
  VerifyReport report;
  report.stage = options.stage;
  AlgebraChecker checker(report, options);
  checker.Check(plan);
  return report;
}

VerifyReport VerifyRanfAlgebra(const Formula* ranf, const SymbolSet& context,
                               const SymbolSet& invertible,
                               const AlgExpr* plan,
                               const AlgebraOptions& options) {
  AlgebraOptions opts = options;
  opts.stage = Stage::kRanfAlgebra;
  VerifyReport report = VerifyAlgebra(plan, opts);
  if (ranf == nullptr) {
    Add(report, "form.null-node", "ranf", "null RANF formula");
  } else if (!IsRanf(ranf, context, invertible)) {
    Add(report, "ranf.shape", "ranf",
        "formula fails the RANF conditions for its context (every subformula "
        "must map directly to an algebra operator)");
  }
  return report;
}

VerifyReport VerifyPhysical(const PhysicalPlan& plan, const AlgExpr* algebra) {
  VerifyReport report;
  report.stage = Stage::kPhysical;
  PhysicalChecker checker(plan, report);
  checker.Check(algebra);
  return report;
}

VerifyReport VerifyProfile(const ExecProfile& profile) {
  VerifyReport report;
  report.stage = Stage::kPhysical;
  PathNode root{nullptr, "root", -1};
  WalkProfile(profile, root, report);
  return report;
}

}  // namespace emcalc::verify
