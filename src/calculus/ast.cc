#include "src/calculus/ast.h"

#include "src/base/check.h"

namespace emcalc {

uint32_t AstContext::InternConstant(const Value& v) {
  auto it = constant_ids_.find(v);
  if (it != constant_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(constants_.size());
  constants_.push_back(v);
  constant_ids_.emplace(v, id);
  return id;
}

const Value& AstContext::ConstantAt(uint32_t id) const {
  EMCALC_CHECK_MSG(id < constants_.size(), "bad constant id %u", id);
  return constants_[id];
}

const Term* AstContext::MakeVar(Symbol v) {
  return arena_.New<Term>(Term(Term::Kind::kVar, v, 0, nullptr, 0));
}

const Term* AstContext::MakeVar(std::string_view name) {
  return MakeVar(symbols_.Intern(name));
}

const Term* AstContext::MakeConst(const Value& v) {
  return arena_.New<Term>(
      Term(Term::Kind::kConst, Symbol{}, InternConstant(v), nullptr, 0));
}

const Term* AstContext::MakeApply(Symbol fn,
                                  std::span<const Term* const> args) {
  const Term** copy = const_cast<const Term**>(
      arena_.NewArray<const Term*>(args.data(), args.size()));
  return arena_.New<Term>(Term(Term::Kind::kApply, fn, 0, copy,
                               static_cast<uint32_t>(args.size())));
}

const Term* AstContext::MakeApply(std::string_view fn,
                                  std::initializer_list<const Term*> args) {
  std::vector<const Term*> v(args);
  return MakeApply(symbols_.Intern(fn), v);
}

const Formula* AstContext::True() {
  if (true_ == nullptr) {
    Formula* f = arena_.New<Formula>();
    f->kind_ = FormulaKind::kTrue;
    true_ = f;
  }
  return true_;
}

const Formula* AstContext::False() {
  if (false_ == nullptr) {
    Formula* f = arena_.New<Formula>();
    f->kind_ = FormulaKind::kFalse;
    false_ = f;
  }
  return false_;
}

const Formula* AstContext::MakeRel(Symbol rel,
                                   std::span<const Term* const> args) {
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kRel;
  f->symbol_ = rel;
  f->terms_ = arena_.NewArray<const Term*>(args.data(), args.size());
  f->num_terms_ = static_cast<uint32_t>(args.size());
  return f;
}

const Formula* AstContext::MakeEq(const Term* lhs, const Term* rhs) {
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kEq;
  const Term* pair[2] = {lhs, rhs};
  f->terms_ = arena_.NewArray<const Term*>(pair, 2);
  f->num_terms_ = 2;
  return f;
}

const Formula* AstContext::MakeNeq(const Term* lhs, const Term* rhs) {
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kNeq;
  const Term* pair[2] = {lhs, rhs};
  f->terms_ = arena_.NewArray<const Term*>(pair, 2);
  f->num_terms_ = 2;
  return f;
}

const Formula* AstContext::MakeLess(const Term* lhs, const Term* rhs) {
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kLess;
  const Term* pair[2] = {lhs, rhs};
  f->terms_ = arena_.NewArray<const Term*>(pair, 2);
  f->num_terms_ = 2;
  return f;
}

const Formula* AstContext::MakeLessEq(const Term* lhs, const Term* rhs) {
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kLessEq;
  const Term* pair[2] = {lhs, rhs};
  f->terms_ = arena_.NewArray<const Term*>(pair, 2);
  f->num_terms_ = 2;
  return f;
}

const Formula* AstContext::MakeNot(const Formula* g) {
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kNot;
  const Formula* one[1] = {g};
  f->children_ = arena_.NewArray<const Formula*>(one, 1);
  f->num_children_ = 1;
  return f;
}

const Formula* AstContext::MakeAnd(std::span<const Formula* const> children) {
  EMCALC_CHECK_MSG(children.size() >= 2, "MakeAnd needs >= 2 children");
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kAnd;
  f->children_ =
      arena_.NewArray<const Formula*>(children.data(), children.size());
  f->num_children_ = static_cast<uint32_t>(children.size());
  return f;
}

const Formula* AstContext::MakeOr(std::span<const Formula* const> children) {
  EMCALC_CHECK_MSG(children.size() >= 2, "MakeOr needs >= 2 children");
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kOr;
  f->children_ =
      arena_.NewArray<const Formula*>(children.data(), children.size());
  f->num_children_ = static_cast<uint32_t>(children.size());
  return f;
}

const Formula* AstContext::MakeExists(std::span<const Symbol> vars,
                                      const Formula* body) {
  EMCALC_CHECK_MSG(!vars.empty(), "quantifier needs variables");
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kExists;
  f->vars_ = arena_.NewArray<Symbol>(vars.data(), vars.size());
  f->num_vars_ = static_cast<uint32_t>(vars.size());
  const Formula* one[1] = {body};
  f->children_ = arena_.NewArray<const Formula*>(one, 1);
  f->num_children_ = 1;
  return f;
}

const Formula* AstContext::MakeForall(std::span<const Symbol> vars,
                                      const Formula* body) {
  EMCALC_CHECK_MSG(!vars.empty(), "quantifier needs variables");
  Formula* f = arena_.New<Formula>();
  f->kind_ = FormulaKind::kForall;
  f->vars_ = arena_.NewArray<Symbol>(vars.data(), vars.size());
  f->num_vars_ = static_cast<uint32_t>(vars.size());
  const Formula* one[1] = {body};
  f->children_ = arena_.NewArray<const Formula*>(one, 1);
  f->num_children_ = 1;
  return f;
}

// Span writes go through the context that owns the (arena-allocated,
// otherwise immutable) node, hence the const_cast.
template <typename NodeT>
void AstContext::SetSpan(const NodeT* node, diag::SourceSpan span) {
  NodeT* n = const_cast<NodeT*>(node);
  n->span_ = span;
  n->has_span_ = true;
}

void AstContext::NoteSpan(const Formula* node, diag::SourceSpan span) {
  if (node == nullptr || node == true_ || node == false_) return;
  SetSpan(node, span);
}

void AstContext::NoteSpan(const Term* node, diag::SourceSpan span) {
  if (node != nullptr) SetSpan(node, span);
}

void AstContext::InheritSpan(const Formula* to, const Formula* from) {
  if (to == nullptr || to == true_ || to == false_ || to->has_span_) return;
  if (from != nullptr && from->has_span_) SetSpan(to, from->span_);
}

void AstContext::InheritSpan(const Term* to, const Term* from) {
  if (to == nullptr || to->has_span_) return;
  if (from != nullptr && from->has_span_) SetSpan(to, from->span_);
}

const diag::SourceSpan* AstContext::SpanOf(const Formula* node) const {
  return node != nullptr && node->has_span_ ? &node->span_ : nullptr;
}

const diag::SourceSpan* AstContext::SpanOf(const Term* node) const {
  return node != nullptr && node->has_span_ ? &node->span_ : nullptr;
}

bool TermsEqual(const Term* a, const Term* b) {
  if (a == b) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case Term::Kind::kVar:
      return a->symbol() == b->symbol();
    case Term::Kind::kConst:
      return a->const_id() == b->const_id();
    case Term::Kind::kApply: {
      if (a->symbol() != b->symbol()) return false;
      if (a->args().size() != b->args().size()) return false;
      for (size_t i = 0; i < a->args().size(); ++i) {
        if (!TermsEqual(a->args()[i], b->args()[i])) return false;
      }
      return true;
    }
  }
  return false;
}

bool FormulasEqual(const Formula* a, const Formula* b) {
  if (a == b) return true;
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return true;
    case FormulaKind::kRel: {
      if (a->rel() != b->rel()) return false;
      if (a->terms().size() != b->terms().size()) return false;
      for (size_t i = 0; i < a->terms().size(); ++i) {
        if (!TermsEqual(a->terms()[i], b->terms()[i])) return false;
      }
      return true;
    }
    case FormulaKind::kEq:
    case FormulaKind::kNeq:
    case FormulaKind::kLess:
    case FormulaKind::kLessEq:
      return TermsEqual(a->lhs(), b->lhs()) && TermsEqual(a->rhs(), b->rhs());
    case FormulaKind::kNot:
      return FormulasEqual(a->child(), b->child());
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      if (a->children().size() != b->children().size()) return false;
      for (size_t i = 0; i < a->children().size(); ++i) {
        if (!FormulasEqual(a->children()[i], b->children()[i])) return false;
      }
      return true;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      if (a->vars().size() != b->vars().size()) return false;
      for (size_t i = 0; i < a->vars().size(); ++i) {
        if (a->vars()[i] != b->vars()[i]) return false;
      }
      return FormulasEqual(a->child(), b->child());
    }
  }
  return false;
}

}  // namespace emcalc
