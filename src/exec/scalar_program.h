// Compiled scalar programs: the batch execution form of ScalarExpr trees.
//
// At lowering time every scalar expression the executor evaluates — each
// ProjectMap expression list, each HashJoin's probe and build keys, and
// each FilterSelect or join condition list — is compiled once into a flat
// register program. Registers are column slices (one Value per active lane
// of the current batch); instructions gather an input column, splat a
// constant or one of the execution's arguments (a query parameter), or
// apply a bound ScalarFunction to argument registers. Compilation performs
//   - constant folding: an application whose arguments are all constants
//     runs once at compile time (registry functions are pure and total);
//     parameters are never folded, their values arrive per execution,
//   - common-subexpression elimination: structurally equal subtrees within
//     a stage share one register, so an expression repeated across output
//     columns is computed once per batch,
//   - function binding: the ScalarFunction* is resolved at compile time,
//     so the batch loop never touches the registry or the symbol table.
//
// A filter program is staged: each condition gets its own instruction run
// followed by a comparison that refines the batch's Selection, and later
// stages evaluate only the surviving lanes, so per-lane work never exceeds
// a short-circuiting row-at-a-time evaluation of the same conditions.
// Comparisons on all-inline-int columns run a branch-light loop over the
// raw value words (the inline encoding is order-preserving); mixed columns
// first gather per-lane order keys (int value or StringPool order_prefix)
// so the compare loop stays word-sized, falling back to a full string
// compare only on prefix ties.
//
// All per-batch state lives in a BatchScratch the caller owns — one per
// worker thread — whose buffers are charged to the active MemoryScope, so
// governor limits and per-operator attribution stay accurate. Programs
// themselves are immutable after compilation and safe to run from any
// number of threads concurrently.
#ifndef EMCALC_EXEC_SCALAR_PROGRAM_H_
#define EMCALC_EXEC_SCALAR_PROGRAM_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/algebra/ast.h"
#include "src/base/symbol.h"
#include "src/base/value.h"
#include "src/exec/selection.h"
#include "src/obs/resource.h"
#include "src/storage/interpretation.h"

namespace emcalc {

class ScalarProgram;

// Per-worker batch buffers: register columns, selection-index storage,
// order-key gather arrays, and a row-major staging area for results. The
// buffers a scratch is sized for are charged to the calling thread's
// active obs::MemoryScope (the owning operator) and released when the
// scratch dies. Their storage is recycled per thread: a dying scratch
// hands its (bounded) buffers to the next scratch constructed on the same
// thread, so a short execution repeated many times — a prepared query's
// runs — does not return its buffers to the allocator and fault them back
// in on every run.
class BatchScratch {
 public:
  BatchScratch();
  ~BatchScratch();

  BatchScratch(const BatchScratch&) = delete;
  BatchScratch& operator=(const BatchScratch&) = delete;

  // Sizes every buffer for `prog` at `batch_size` lanes plus a row staging
  // area of `row_width` values per lane, and (re)charges their size.
  // Idempotent for equal arguments; callable with different programs (the
  // buffers only grow).
  void Prepare(const ScalarProgram& prog, size_t batch_size,
               size_t row_width);

  // The row-major staging area (batch_size * row_width values).
  Value* row_staging() { return buf_.rows.data(); }

 private:
  friend class ScalarProgram;

  struct Buffers {
    std::vector<Value> regs;     // num_regs columns of batch_size lanes
    std::vector<Value> rows;     // row-major result staging
    std::vector<uint32_t> sel;   // refined selection indexes
    std::vector<uint64_t> keys;  // order-key gather, lhs then rhs halves
    std::vector<uint8_t> cls;    // per-lane value class (0 = int, 1 = str)
  };
  // This thread's buffers of dead scratches, awaiting reuse.
  static std::vector<Buffers>& Recycled();

  Buffers buf_;
  size_t batch_size_ = 0;
  obs::MemoryCharge charge_;
};

class ScalarProgram {
 public:
  // Compiles a projection's output expressions. Every kApply symbol must
  // already be bound in `fns` (the Lowerer resolves before compiling).
  // Column references are read relative to `col_base`: @(col_base + i)
  // loads column i of the input, so a join's build keys, written over the
  // concatenated schema, run directly over the build input.
  static ScalarProgram CompileProject(
      std::span<const ScalarExpr* const> exprs, const AstContext& ctx,
      const std::unordered_map<Symbol, const ScalarFunction*>& fns,
      int col_base = 0);

  // Compiles a selection's conditions into one stage per condition.
  static ScalarProgram CompileFilter(
      std::span<const AlgCondition> conds, const AstContext& ctx,
      const std::unordered_map<Symbol, const ScalarFunction*>& fns);

  ScalarProgram() = default;
  ScalarProgram(ScalarProgram&&) = default;
  ScalarProgram& operator=(ScalarProgram&&) = default;
  ScalarProgram(const ScalarProgram&) = delete;
  ScalarProgram& operator=(const ScalarProgram&) = delete;

  int num_regs() const { return num_regs_; }
  size_t num_outputs() const { return outputs_.size(); }
  // Bytes one BatchScratch will charge when prepared for this program.
  size_t ScratchBytes(size_t batch_size, size_t row_width) const;

  // Filter form: runs the staged conditions over the `sel` rows of the
  // arity-strided `input` buffer. The returned Selection (backed by
  // scratch) holds the surviving absolute row indexes, ascending.
  // `fn_calls` accumulates one count per lane per function application.
  // `args` holds the values
  // of the plan's parameters for this execution (empty for closed plans).
  Selection RunFilter(const Value* input, int arity, Selection sel,
                      std::span<const Value> args, BatchScratch& scratch,
                      uint64_t* fn_calls) const;

  // Projection form: evaluates every output column over the `sel` rows of
  // `input` and transposes the results row-major into the scratch staging
  // area (sel.size() rows of num_outputs() values). Returns the staging
  // pointer, valid until the next use of `scratch`.
  const Value* RunProject(const Value* input, int arity, Selection sel,
                          std::span<const Value> args, BatchScratch& scratch,
                          uint64_t* fn_calls) const;

 private:
  friend class BatchScratch;

  struct Insn {
    enum class Op : uint8_t { kLoadCol, kConst, kParam, kCall };
    Op op = Op::kLoadCol;
    uint16_t dst = 0;
    int col = 0;                          // kLoadCol column, kParam index
    Value constant;                       // kConst
    const ScalarFunction* fn = nullptr;   // kCall, resolved at compile
    std::vector<uint16_t> args;           // kCall argument registers
  };

  // One condition: the instructions feeding its two sides, then the
  // comparison that refines the selection. A projection is a single stage
  // with no comparison.
  struct Stage {
    std::vector<Insn> insns;
    bool has_cmp = false;
    AlgCompareOp cmp = AlgCompareOp::kEq;
    uint16_t lhs = 0;
    uint16_t rhs = 0;
  };

  class Builder;

  void RunInsns(const Stage& stage, const Value* input, int arity,
                Selection sel, std::span<const Value> args,
                BatchScratch& scratch, uint64_t* fn_calls) const;

  std::vector<Stage> stages_;
  std::vector<uint16_t> outputs_;  // projection registers, one per column
  int num_regs_ = 0;
  bool needs_order_keys_ = false;  // any kLt/kLe stage
  bool has_cmp_stage_ = false;     // filter form (needs sel_ storage)
};

}  // namespace emcalc

#endif  // EMCALC_EXEC_SCALAR_PROGRAM_H_
