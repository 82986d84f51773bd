#ifndef BAGALG_EXEC_COMPILE_H_
#define BAGALG_EXEC_COMPILE_H_

/// \file compile.h
/// Dispatch for the `exec` path: runs a BALG¹ plan on the fused IR engine
/// (src/ir).
///
/// RunPipeline runs the admission preflight, lowers the plan with
/// ir::LowerToIr and executes it with ir::ExecuteIr under the query's
/// governor. A plan the IR cannot lower fails with the IR's plan-time
/// status, unchanged: kUnsupported outside the paper's tractable fragment
/// (§4: no powerset, bag-destroy, fixpoints, nested-bag construction, or
/// lambda bodies above object level), kTypeError for ill-typed plans, and
/// kNotFound for unknown inputs. Nothing falls back to another engine;
/// full BALG runs on the tree-walking evaluator (`eval`).

#include <functional>

#include "src/algebra/database.h"
#include "src/algebra/expr.h"
#include "src/obs/trace.h"
#include "src/util/governor.h"
#include "src/util/result.h"

namespace bagalg::exec {

/// Execution knobs. Default-constructed options run uninstrumented.
struct ExecOptions {
  /// When non-null and enabled, RunPipeline adds a root "exec.pipeline"
  /// span and the IR engine its per-pipeline "ir.pipeline.*" spans.
  obs::Tracer* tracer = nullptr;
  /// Admission hook run by RunPipeline before lowering: a non-OK return
  /// (typically kBudgetExceeded from analysis::MakeBudgetPreflight) refuses
  /// the query without executing anything.
  std::function<Status(const Expr&, const Database&)> preflight;
  /// Per-query ResourceGovernor (deadline / memory cap / cancellation).
  /// RunPipeline installs it as the ambient governor for the run, so the
  /// IR's per-batch checkpoints and the kernels below enforce it.
  /// Borrowed; nullptr (the default) runs ungoverned.
  ResourceGovernor* governor = nullptr;
};

/// Preflight, lower to IR, execute: runs `expr` against `db` to a
/// canonical bag, or returns the preflight's or the IR's status.
Result<Bag> RunPipeline(const Expr& expr, const Database& db,
                        const ExecOptions& options = {});

/// The older name of RunPipeline, kept because the end-to-end benchmark
/// (perfbench/bagbench.cc) still calls it. New code calls RunPipeline.
inline Result<Bag> RunVolcanoPipeline(const Expr& expr, const Database& db,
                                      const ExecOptions& options = {}) {
  return RunPipeline(expr, db, options);
}

}  // namespace bagalg::exec

#endif  // BAGALG_EXEC_COMPILE_H_
