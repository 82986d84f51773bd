#ifndef BAGALG_IR_LOWER_H_
#define BAGALG_IR_LOWER_H_

/// \file lower.h
/// Lowering typed BALG¹ plans into the fused loop IR.
///
/// LowerToIr is the front half of the IR engine: it (optionally) runs the
/// algebra-level rewriter first — which canonicalizes equal subplans so the
/// IR's common-subexpression pass can key on surface syntax — typechecks the
/// plan (join lowering needs the probe side's tuple arity), folds every MAP
/// / σ into fused stages on the producing node, then runs the IR passes
/// (passes.h) and annotates nodes with static_cost bounds.
///
/// The supported fragment is the paper's tractable BALG¹ (§4); anything
/// outside lowers to kUnsupported, which exec::RunPipeline returns as is.
/// Such plans run on the tree-walking evaluator (`eval`).

#include <string>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/ir/ir.h"
#include "src/ir/passes.h"
#include "src/util/result.h"

namespace bagalg::ir {

struct LowerOptions {
  /// Run algebra::Optimize before lowering. Besides the usual identity /
  /// selection-pushdown wins, this canonicalizes duplicate subplans so the
  /// CSE pass can recognize them.
  bool optimize_first = true;
  /// Annotate nodes with static_cost exact-facts bounds (cost_note,
  /// est_rows). Lowering never fails on analysis errors — annotations are
  /// best-effort.
  bool annotate_costs = true;
  /// Rows per batch for the produced plan.
  size_t batch_size = kDefaultBatchSize;
  /// Per-pass plan verification (verify.h): kAuto follows IrVerifyEnabled()
  /// — on in assert-enabled builds and whenever BAGALG_IR_VERIFY=1 — so
  /// Release builds can opt in without recompiling; kOn/kOff force it.
  enum class Verify { kAuto, kOn, kOff };
  Verify verify = Verify::kAuto;
  /// Pass snapshot observer (passes.h), the hook translation validation
  /// hangs its before/after executions on. Null for none.
  PassObserver observer;
};

/// Lowers `expr` against `db` into a pass-processed IR plan. kUnsupported
/// outside the BALG¹ pipeline fragment; kNotFound for unknown inputs;
/// kTypeError when the plan does not typecheck (joins need arities).
Result<IrPlan> LowerToIr(const Expr& expr, const Database& db,
                         const LowerOptions& options = {});

/// EXPLAIN IR: lower + render the fused pipeline tree (ExplainIrPlan).
Result<std::string> ExplainIr(const Expr& expr, const Database& db,
                              const LowerOptions& options = {});

/// EXPLAIN IR --facts: like ExplainIr, with each node annotated with its
/// dataflow facts (dataflow.h) — proven row shape, dup-freedom, keys,
/// constant columns, and distinct-row interval.
Result<std::string> ExplainIrFacts(const Expr& expr, const Database& db,
                                   const LowerOptions& options = {});

}  // namespace bagalg::ir

#endif  // BAGALG_IR_LOWER_H_
