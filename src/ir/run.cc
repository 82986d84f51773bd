/// \file run.cc
/// Engine dispatch: the definition of exec::RunPipeline.
///
/// Lives in the IR library rather than src/exec because dispatch must see
/// both engines, and bagalg_ir already links bagalg_exec (the Volcano
/// bridge and the kVolcano leg). Putting the dispatcher in exec would make
/// the two static libraries mutually dependent.

#include "src/exec/compile.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/governor.h"

namespace bagalg::exec {

namespace {

/// The exec.engine.<name> counter of an engine that ran, resolved once per
/// engine. Dispatch only ever runs kIr or kVolcano.
obs::Counter* EngineRunsCounter(Engine used) {
  if (used == Engine::kVolcano) {
    static obs::Counter* const volcano =
        obs::GlobalMetrics().GetCounter("exec.engine.volcano");
    return volcano;
  }
  static obs::Counter* const ir =
      obs::GlobalMetrics().GetCounter("exec.engine.ir");
  return ir;
}

Result<Bag> RunIrEngine(const Database& db, const ExecOptions& options,
                        Result<ir::IrPlan>&& plan) {
  BAGALG_RETURN_IF_ERROR(plan.status());
  obs::Span span;
  if (options.tracer != nullptr && options.tracer->enabled()) {
    span = options.tracer->StartSpan("exec.pipeline", "exec");
    span.AddAttr("engine", "ir");
  }
  ir::ExecIrOptions ir_options;
  ir_options.tracer = options.tracer;
  Result<Bag> out = [&] {
    GovernorScope scope(options.governor);
    return ir::ExecuteIr(plan.value(), db, ir_options);
  }();
  if (options.governor != nullptr) obs::MirrorGovernorStats();
  if (span.active() && out.ok()) {
    span.AddAttr("rows", uint64_t{out.value().DistinctCount()});
  }
  return out;
}

}  // namespace

Result<Bag> RunPipeline(const Expr& expr, const Database& db,
                        const ExecOptions& options) {
  if (options.preflight) {
    BAGALG_RETURN_IF_ERROR(options.preflight(expr, db));
  }
  // The preflight already ran; the engine legs must not run it again.
  ExecOptions leg = options;
  leg.preflight = nullptr;

  Engine engine = options.engine;
  if (engine == Engine::kAuto) engine = EngineFromEnv();
  const bool strict_ir = options.engine == Engine::kIr;

  auto report = [&options](Engine used, bool fell_back) {
    if (options.report != nullptr) {
      options.report->engine_used = used;
      options.report->fell_back = fell_back;
    }
    EngineRunsCounter(used)->Increment();
  };

  if (engine == Engine::kVolcano) {
    report(Engine::kVolcano, false);
    return RunVolcanoPipeline(expr, db, leg);
  }

  // IR preferred (strict when explicitly requested via options.engine).
  Result<ir::IrPlan> plan = ir::LowerToIr(expr, db);
  if (!plan.ok() && !strict_ir) {
    // Plan-time failure only — execution errors (governor trips, faults,
    // runtime type errors) never re-run on the other engine.
    obs::GlobalMetrics().GetCounter("ir.fallbacks")->Increment();
    report(Engine::kVolcano, true);
    return RunVolcanoPipeline(expr, db, leg);
  }
  report(Engine::kIr, false);
  return RunIrEngine(db, leg, std::move(plan));
}

}  // namespace bagalg::exec
