#include "src/exec/scalar_program.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/check.h"
#include "src/base/string_pool.h"

namespace emcalc {
namespace {

// Registers per instruction argument list handled without heap traffic;
// wider applications (none among the builtins) fall back to a per-batch
// vector.
constexpr size_t kMaxInlineFnArgs = 8;

// Gathers one input column into a register: a strided sequential loop for
// dense batches, an index gather for filtered ones.
void LoadColumn(const Value* input, size_t arity, size_t col, Selection sel,
                Value* dst) {
  const uint32_t n = sel.size();
  if (sel.dense()) {
    const Value* src = input + static_cast<size_t>(sel.first()) * arity + col;
    for (uint32_t i = 0; i < n; ++i) {
      dst[i] = src[static_cast<size_t>(i) * arity];
    }
  } else {
    const uint32_t* idx = sel.indices();
    for (uint32_t i = 0; i < n; ++i) {
      dst[i] = input[static_cast<size_t>(idx[i]) * arity + col];
    }
  }
}

// Per-lane order keys for kLt/kLe over mixed columns: a class byte (ints
// order before strings) and a word key that orders exactly like Value's
// total order except on string prefix ties. Int keys are sign-flipped so
// unsigned word compares match signed value compares; string keys are the
// pool's big-endian order_prefix. One pool gather per batch side replaces
// a pool lookup per comparison.
void GatherOrderKeys(const Value* v, uint32_t n, uint8_t* cls,
                     uint64_t* key) {
  const StringPool& pool = StringPool::Global();
  constexpr uint64_t kSignFlip = uint64_t{1} << 63;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t raw = v[i].raw();
    if ((raw & 1) == 0) {
      cls[i] = 0;
      key[i] =
          static_cast<uint64_t>(static_cast<int64_t>(raw) >> 1) ^ kSignFlip;
    } else {
      const StringPool::Entry& e = pool.Get(raw >> 1);
      if (e.is_str) {
        cls[i] = 1;
        key[i] = e.order_prefix;
      } else {
        cls[i] = 0;
        key[i] = static_cast<uint64_t>(e.num) ^ kSignFlip;
      }
    }
  }
}

// A thread keeps at most this many dead scratches' buffers, each at most
// this large; larger ones go back to the allocator.
constexpr size_t kMaxRecycled = 4;
constexpr size_t kMaxRecycledBytes = size_t{1} << 20;

}  // namespace

std::vector<BatchScratch::Buffers>& BatchScratch::Recycled() {
  thread_local std::vector<Buffers> recycled;
  return recycled;
}

BatchScratch::BatchScratch() {
  std::vector<Buffers>& recycled = Recycled();
  if (recycled.empty()) return;
  buf_ = std::move(recycled.back());
  recycled.pop_back();
}

BatchScratch::~BatchScratch() {
  std::vector<Buffers>& recycled = Recycled();
  const size_t bytes =
      (buf_.regs.capacity() + buf_.rows.capacity()) * sizeof(Value) +
      buf_.sel.capacity() * sizeof(uint32_t) +
      buf_.keys.capacity() * sizeof(uint64_t) + buf_.cls.capacity();
  if (recycled.size() >= kMaxRecycled || bytes > kMaxRecycledBytes) return;
  buf_.regs.clear();
  buf_.rows.clear();
  buf_.sel.clear();
  buf_.keys.clear();
  buf_.cls.clear();
  recycled.push_back(std::move(buf_));
}

void BatchScratch::Prepare(const ScalarProgram& prog, size_t batch_size,
                           size_t row_width) {
  batch_size_ = std::max(batch_size_, batch_size);
  const size_t regs =
      static_cast<size_t>(prog.num_regs_) * batch_size_;
  if (buf_.regs.size() < regs) buf_.regs.resize(regs);
  const size_t rows = row_width * batch_size_;
  if (buf_.rows.size() < rows) buf_.rows.resize(rows);
  if (prog.has_cmp_stage_ && buf_.sel.size() < batch_size_) {
    buf_.sel.resize(batch_size_);
  }
  if (prog.needs_order_keys_) {
    if (buf_.keys.size() < 2 * batch_size_) buf_.keys.resize(2 * batch_size_);
    if (buf_.cls.size() < 2 * batch_size_) buf_.cls.resize(2 * batch_size_);
  }
  // Manual sizing, so manual charging: the whole scratch is attributed to
  // the calling thread's active MemoryScope (the owning operator). Sizes,
  // not capacities: recycled storage may be larger than this use needs.
  charge_.Update(static_cast<int64_t>(
      buf_.regs.size() * sizeof(Value) + buf_.rows.size() * sizeof(Value) +
      buf_.sel.size() * sizeof(uint32_t) + buf_.keys.size() * sizeof(uint64_t) +
      buf_.cls.size() * sizeof(uint8_t)));
}

size_t ScalarProgram::ScratchBytes(size_t batch_size,
                                   size_t row_width) const {
  size_t bytes =
      (static_cast<size_t>(num_regs_) + row_width) * batch_size *
      sizeof(Value);
  if (has_cmp_stage_) bytes += batch_size * sizeof(uint32_t);
  if (needs_order_keys_) {
    bytes += 2 * batch_size * (sizeof(uint64_t) + sizeof(uint8_t));
  }
  return bytes;
}

// Value-numbering compiler: one register per structurally distinct subtree
// within a stage, all-constant applications folded at compile time.
class ScalarProgram::Builder {
 public:
  Builder(ScalarProgram* prog,
          const std::unordered_map<Symbol, const ScalarFunction*>& fns,
          int col_base = 0)
      : prog_(prog), fns_(fns), col_base_(col_base) {}

  // Registers computed by earlier stages cover lanes the current (smaller)
  // selection may not align with, so each stage numbers its values anew.
  void BeginStage() { prog_->stages_.emplace_back(); }

  uint16_t Emit(const ScalarExpr* e) {
    Insn insn;
    switch (e->kind()) {
      case ScalarExpr::Kind::kCol:
        insn.op = Insn::Op::kLoadCol;
        insn.col = e->col() - col_base_;
        break;
      case ScalarExpr::Kind::kConst:
        return EmitConst(e->value());
      case ScalarExpr::Kind::kParam:
        // Splatted per batch from the execution's arguments; never a
        // constant register, so applications over it are not folded.
        insn.op = Insn::Op::kParam;
        insn.col = e->param();
        break;
      case ScalarExpr::Kind::kApply: {
        insn.op = Insn::Op::kCall;
        insn.args.reserve(e->args().size());
        bool all_const = true;
        for (const ScalarExpr* a : e->args()) {
          uint16_t r = Emit(a);
          all_const = all_const && constants_[r].has_value();
          insn.args.push_back(r);
        }
        auto fit = fns_.find(e->fn());
        EMCALC_CHECK(fit != fns_.end());  // bound before compilation
        insn.fn = fit->second;
        if (all_const) {
          // Registry functions are pure and total, so an all-constant
          // application has one value for every lane: run it once now.
          std::vector<Value> argv;
          argv.reserve(insn.args.size());
          for (uint16_t r : insn.args) argv.push_back(*constants_[r]);
          return EmitConst(insn.fn->fn(argv));
        }
        break;
      }
    }
    return Intern(std::move(insn));
  }

 private:
  Stage& stage() { return prog_->stages_.back(); }

  uint16_t EmitConst(const Value& v) {
    Insn insn;
    insn.op = Insn::Op::kConst;
    insn.constant = v;
    return Intern(std::move(insn));
  }

  // Common-subexpression elimination: an instruction equal to one already
  // in this stage reuses its register. Stages are a handful of
  // instructions, so a scan beats hashing a key.
  uint16_t Intern(Insn insn) {
    for (const Insn& prev : stage().insns) {
      if (prev.op == insn.op && prev.col == insn.col &&
          prev.constant.raw() == insn.constant.raw() && prev.fn == insn.fn &&
          prev.args == insn.args) {
        return prev.dst;
      }
    }
    EMCALC_CHECK_MSG(prog_->num_regs_ < 0xffff,
                     "scalar program exceeds 65534 registers");
    insn.dst = static_cast<uint16_t>(prog_->num_regs_++);
    constants_.push_back(insn.op == Insn::Op::kConst
                             ? std::optional<Value>(insn.constant)
                             : std::nullopt);
    stage().insns.push_back(std::move(insn));
    return stage().insns.back().dst;
  }

  ScalarProgram* prog_;
  const std::unordered_map<Symbol, const ScalarFunction*>& fns_;
  const int col_base_;
  std::vector<std::optional<Value>> constants_;  // per register, for folding
};

ScalarProgram ScalarProgram::CompileProject(
    std::span<const ScalarExpr* const> exprs,
    const std::unordered_map<Symbol, const ScalarFunction*>& fns,
    int col_base) {
  ScalarProgram prog;
  Builder builder(&prog, fns, col_base);
  builder.BeginStage();
  prog.outputs_.reserve(exprs.size());
  for (const ScalarExpr* e : exprs) {
    prog.outputs_.push_back(builder.Emit(e));
  }
  return prog;
}

ScalarProgram ScalarProgram::CompileFilter(
    std::span<const AlgCondition> conds,
    const std::unordered_map<Symbol, const ScalarFunction*>& fns) {
  ScalarProgram prog;
  Builder builder(&prog, fns);
  for (const AlgCondition& c : conds) {
    builder.BeginStage();
    uint16_t lhs = builder.Emit(c.lhs);
    uint16_t rhs = builder.Emit(c.rhs);
    Stage& stage = prog.stages_.back();
    stage.has_cmp = true;
    stage.cmp = c.op;
    stage.lhs = lhs;
    stage.rhs = rhs;
    prog.has_cmp_stage_ = true;
    if (c.op == AlgCompareOp::kLt || c.op == AlgCompareOp::kLe) {
      prog.needs_order_keys_ = true;
    }
  }
  return prog;
}

void ScalarProgram::RunInsns(const Stage& stage, const Value* input,
                             int arity, Selection sel,
                             std::span<const Value> args,
                             BatchScratch& scratch,
                             uint64_t* fn_calls) const {
  const uint32_t n = sel.size();
  const size_t stride = scratch.batch_size_;
  Value* regs = scratch.buf_.regs.data();
  for (const Insn& insn : stage.insns) {
    Value* dst = regs + static_cast<size_t>(insn.dst) * stride;
    switch (insn.op) {
      case Insn::Op::kLoadCol:
        LoadColumn(input, static_cast<size_t>(arity),
                   static_cast<size_t>(insn.col), sel, dst);
        break;
      case Insn::Op::kConst:
        for (uint32_t i = 0; i < n; ++i) dst[i] = insn.constant;
        break;
      case Insn::Op::kParam: {
        const Value v = args[static_cast<size_t>(insn.col)];
        for (uint32_t i = 0; i < n; ++i) dst[i] = v;
        break;
      }
      case Insn::Op::kCall: {
        const size_t nargs = insn.args.size();
        *fn_calls += n;  // one application per lane
        if (insn.fn->batch && nargs <= kMaxInlineFnArgs) {
          std::span<const Value> arg_spans[kMaxInlineFnArgs];
          for (size_t j = 0; j < nargs; ++j) {
            arg_spans[j] = std::span<const Value>(
                regs + static_cast<size_t>(insn.args[j]) * stride, n);
          }
          insn.fn->batch(
              std::span<const std::span<const Value>>(arg_spans, nargs),
              std::span<Value>(dst, n));
          break;
        }
        // Scalar fallback: still no per-row heap traffic — the argument
        // row lives on the stack (or in one per-batch buffer when wide).
        if (nargs <= kMaxInlineFnArgs) {
          Value argv[kMaxInlineFnArgs];
          for (uint32_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < nargs; ++j) {
              argv[j] = regs[static_cast<size_t>(insn.args[j]) * stride + i];
            }
            dst[i] = insn.fn->fn(std::span<const Value>(argv, nargs));
          }
        } else {
          std::vector<Value> argv(nargs);
          for (uint32_t i = 0; i < n; ++i) {
            for (size_t j = 0; j < nargs; ++j) {
              argv[j] = regs[static_cast<size_t>(insn.args[j]) * stride + i];
            }
            dst[i] = insn.fn->fn(argv);
          }
        }
        break;
      }
    }
  }
}

Selection ScalarProgram::RunFilter(const Value* input, int arity,
                                   Selection sel, std::span<const Value> args,
                                   BatchScratch& scratch,
                                   uint64_t* fn_calls) const {
  const size_t stride = scratch.batch_size_;
  for (const Stage& stage : stages_) {
    if (sel.empty()) break;
    RunInsns(stage, input, arity, sel, args, scratch, fn_calls);
    if (!stage.has_cmp) continue;
    const Value* l = scratch.buf_.regs.data() +
                     static_cast<size_t>(stage.lhs) * stride;
    const Value* r = scratch.buf_.regs.data() +
                     static_cast<size_t>(stage.rhs) * stride;
    // Survivors compact in place: writes trail reads, so refining an
    // already-sparse selection backed by the same array is safe.
    uint32_t* out = scratch.buf_.sel.data();
    const uint32_t n = sel.size();
    uint32_t kept = 0;
    switch (stage.cmp) {
      case AlgCompareOp::kEq:
        // Value equality is word equality: branchless append.
        for (uint32_t i = 0; i < n; ++i) {
          out[kept] = sel[i];
          kept += static_cast<uint32_t>(l[i].raw() == r[i].raw());
        }
        break;
      case AlgCompareOp::kNe:
        for (uint32_t i = 0; i < n; ++i) {
          out[kept] = sel[i];
          kept += static_cast<uint32_t>(l[i].raw() != r[i].raw());
        }
        break;
      case AlgCompareOp::kLt:
      case AlgCompareOp::kLe: {
        const bool le = stage.cmp == AlgCompareOp::kLe;
        // One OR pass detects the all-inline-int batch; its compare loop
        // works on raw words (the inline encoding is order-preserving).
        uint64_t tag_or = 0;
        for (uint32_t i = 0; i < n; ++i) tag_or |= l[i].raw() | r[i].raw();
        if ((tag_or & 1) == 0) {
          if (le) {
            for (uint32_t i = 0; i < n; ++i) {
              out[kept] = sel[i];
              kept += static_cast<uint32_t>(
                  static_cast<int64_t>(l[i].raw()) <=
                  static_cast<int64_t>(r[i].raw()));
            }
          } else {
            for (uint32_t i = 0; i < n; ++i) {
              out[kept] = sel[i];
              kept += static_cast<uint32_t>(
                  static_cast<int64_t>(l[i].raw()) <
                  static_cast<int64_t>(r[i].raw()));
            }
          }
          break;
        }
        // Mixed batch: gather order keys once per side, then compare
        // words; a full string compare only settles prefix ties.
        uint8_t* lcls = scratch.buf_.cls.data();
        uint8_t* rcls = lcls + scratch.batch_size_;
        uint64_t* lkey = scratch.buf_.keys.data();
        uint64_t* rkey = lkey + scratch.batch_size_;
        GatherOrderKeys(l, n, lcls, lkey);
        GatherOrderKeys(r, n, rcls, rkey);
        for (uint32_t i = 0; i < n; ++i) {
          bool keep;
          if (lcls[i] != rcls[i]) {
            keep = lcls[i] < rcls[i];  // ints before strings
          } else if (lkey[i] != rkey[i]) {
            keep = lkey[i] < rkey[i];
          } else if (l[i].raw() == r[i].raw()) {
            keep = le;  // identical values
          } else if (lcls[i] == 1) {
            // Distinct strings sharing an 8-byte prefix.
            keep = le ? !(r[i] < l[i]) : l[i] < r[i];
          } else {
            keep = le;  // equal ints always share one encoding
          }
          out[kept] = sel[i];
          kept += keep ? 1u : 0u;
        }
        break;
      }
    }
    sel = Selection::Sparse(out, kept);
  }
  return sel;
}

const Value* ScalarProgram::RunProject(const Value* input, int arity,
                                       Selection sel,
                                       std::span<const Value> args,
                                       BatchScratch& scratch,
                                       uint64_t* fn_calls) const {
  if (!stages_.empty()) {
    RunInsns(stages_.front(), input, arity, sel, args, scratch, fn_calls);
  }
  // Transpose the output registers row-major into the staging area, ready
  // for a bulk append into the arity-strided relation buffer.
  const uint32_t n = sel.size();
  const size_t width = outputs_.size();
  const size_t stride = scratch.batch_size_;
  Value* rows = scratch.buf_.rows.data();
  for (size_t j = 0; j < width; ++j) {
    const Value* col = scratch.buf_.regs.data() +
                       static_cast<size_t>(outputs_[j]) * stride;
    Value* dst = rows + j;
    for (uint32_t i = 0; i < n; ++i) {
      dst[static_cast<size_t>(i) * width] = col[i];
    }
  }
  return rows;
}

}  // namespace emcalc
