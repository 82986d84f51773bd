/// \file run.cc
/// The definition of exec::RunPipeline: preflight, lower, execute.

#include "src/exec/compile.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/obs/metrics.h"

namespace bagalg::exec {

Result<Bag> RunPipeline(const Expr& expr, const Database& db,
                        const ExecOptions& options) {
  if (options.preflight) {
    BAGALG_RETURN_IF_ERROR(options.preflight(expr, db));
  }
  static obs::Counter* const ir_runs =
      obs::GlobalMetrics().GetCounter("exec.engine.ir");
  ir_runs->Increment();
  BAGALG_ASSIGN_OR_RETURN(ir::IrPlan plan, ir::LowerToIr(expr, db));
  obs::Tracer* tracer =
      options.tracer != nullptr && options.tracer->enabled() ? options.tracer
                                                             : nullptr;
  obs::Span span;
  if (tracer != nullptr) {
    span = tracer->StartSpan("exec.pipeline", "exec");
    span.AddAttr("engine", "ir");
  }
  ir::ExecIrOptions ir_options;
  ir_options.tracer = tracer;
  Result<Bag> out = [&] {
    GovernorScope scope(options.governor);
    return ir::ExecuteIr(plan, db, ir_options);
  }();
  if (options.governor != nullptr) obs::MirrorGovernorStats();
  if (span.active() && out.ok()) {
    span.AddAttr("rows", uint64_t{out.value().DistinctCount()});
  }
  return out;
}

}  // namespace bagalg::exec
