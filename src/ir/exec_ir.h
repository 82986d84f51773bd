#ifndef BAGALG_IR_EXEC_IR_H_
#define BAGALG_IR_EXEC_IR_H_

/// \file exec_ir.h
/// The vectorized IR interpreter: batch-at-a-time cursors over RowBatch.
///
/// Each IrNode becomes a BatchCursor producing up to plan.batch_size rows
/// per Next() call. Fused stages run inside the producing cursor's loop —
/// a filter compacts the batch in place with a write index, a projection
/// rewrites values through the compiled RowProgram (or its gather /
/// field-ref fast path) — so a scan→σ→MAP chain is literally one pass over
/// each batch with zero intermediate Bags.
///
/// Governor integration is per batch: a BatchCheckpointTicker charges and
/// checks once per ~kCheckpointStride rows instead of every row, with byte
/// accounting identical to the per-row ticker (paired test in
/// tests/ir_test.cc). Materialization points (merge kernels, dup-elim,
/// hash-join build sides) account memory through Bag::Builder, as the
/// evaluator's kernels do, so memory-cap trips are engine-independent.
///
/// Non-fusible plans never reach this layer: lowering rejects them.

#include <map>
#include <string>

#include "src/algebra/database.h"
#include "src/core/value.h"
#include "src/ir/ir.h"
#include "src/obs/trace.h"
#include "src/util/result.h"

namespace bagalg::ir {

struct ExecIrOptions {
  /// When non-null and enabled, per-pipeline spans ("ir.pipeline.<kind>")
  /// wrap each root-level cursor drain and ir.* metrics are recorded.
  obs::Tracer* tracer = nullptr;
};

/// Runs a lowered plan to a canonical bag. The ambient governor (installed
/// by the caller's GovernorScope) is enforced per batch. Scans bind their
/// bags at lowering time, so execution reads nothing from `db`; it names
/// the database the plan was lowered against.
Result<Bag> ExecuteIr(const IrPlan& plan, const Database& db,
                      const ExecIrOptions& options = {});

}  // namespace bagalg::ir

#endif  // BAGALG_IR_EXEC_IR_H_
