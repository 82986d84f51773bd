#ifndef BAGALG_IR_IR_H_
#define BAGALG_IR_IR_H_

/// \file ir.h
/// The fused loop IR: a batched pipeline tree between BALG plans and
/// execution.
///
/// Rather than mapping one algebra operator to one physical operator pulling
/// one row per virtual call, the IR collapses every fusible chain of MAP / σ
/// / α-projection into a *stage list* attached to the node that produces the
/// rows. An IrNode is therefore a pipeline: a source (scan, join, union,
/// merge) plus zero or more fused stages applied to each batch in one pass,
/// with no intermediate Bag materialized between them. Batches are columnar
/// (values ∥ counts) and default to kDefaultBatchSize rows, so per-row costs
/// — virtual dispatch, governor ticking, span bookkeeping — amortize across
/// the batch.
///
/// The supported fragment is the paper's tractable BALG¹ (§4): no powerset /
/// bag-destroy / fixpoints / nested-bag construction, object-level lambda
/// bodies only. Lowering anything else returns kUnsupported; such plans run
/// on the tree-walking evaluator.
///
/// The tree is deliberately execution-strategy-neutral: ExecuteIr (exec_ir.h)
/// interprets it batch-at-a-time today, and a codegen backend can walk the
/// same nodes to emit loops later — nothing in the node structure assumes an
/// interpreter.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/expr.h"
#include "src/core/value.h"
#include "src/ir/program.h"

namespace bagalg::ir {

/// Rows per batch. 1024 keeps a batch's value handles + counts comfortably
/// in L2 while amortizing per-batch overhead to noise.
inline constexpr size_t kDefaultBatchSize = 1024;

/// A columnar chunk of rows: parallel arrays of values and multiplicities.
/// The arena the vectorized interpreter streams through; cursors reuse one
/// batch across Next() calls, so steady-state execution does not allocate
/// per row.
struct RowBatch {
  std::vector<Value> values;
  std::vector<Mult> counts;

  size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
  void Clear() {
    values.clear();
    counts.clear();
  }
  void Reserve(size_t n) {
    values.reserve(n);
    counts.reserve(n);
  }
  void Push(Value v, Mult c) {
    values.push_back(std::move(v));
    counts.push_back(std::move(c));
  }
};

/// − / ∪ / ∩: the multiplicity-merging binary operators of a kMerge node.
enum class MergeKind : uint8_t { kMonus, kMaxUnion, kIntersect };

/// One fused per-row transformation applied in pipeline position.
enum class StageKind : uint8_t {
  kFilter,   ///< σ_{φ=φ'}: keep rows where program == rhs
  kProject,  ///< MAP φ / α-projection: rewrite each row through program
};

struct Stage {
  StageKind kind;
  RowProgram program;  ///< projection body, or the filter's left side
  RowProgram rhs;      ///< the filter's right side (unused for kProject)

  std::string ToString() const;
};

/// IR node kinds. Fusible per-row work never gets its own node — it lives
/// in `stages` on the producer.
enum class IrKind : uint8_t {
  kScan,      ///< stream a bound database bag (or constant) in canonical order
  kUnionAll,  ///< ⊎ over n children, streamed sequentially
  kCrossJoin, ///< × as a fused block-nested loop (build side materialized)
  kHashJoin,  ///< equi-join detected from σ over ×; hash table on build side
  kMerge,     ///< monus / max-union / intersect (blocking, kernel-based)
  kDupElim,   ///< ε (blocking)
};

const char* IrKindName(IrKind kind);

struct IrNode {
  explicit IrNode(IrKind k) : kind(k) {}

  IrKind kind;
  /// Children. For joins: [0] = probe/left, [1] = build/right.
  std::vector<std::unique_ptr<IrNode>> children;

  // --- kScan ---
  std::string scan_name;  ///< input name, or "const" for literals
  Bag scan_bag;           ///< bound at lowering time

  // --- kCrossJoin / kHashJoin ---
  /// Arity of the probe (left) side's tuples; build-side column c in the
  /// joined row is probe_arity + c.
  size_t probe_arity = 0;
  /// kHashJoin only: 1-based key columns in probe- and build-side rows.
  size_t probe_key = 0;
  size_t build_key = 0;

  // --- kMerge ---
  MergeKind merge_kind = MergeKind::kMonus;

  /// Fused per-row stages applied to this node's raw output, in order.
  std::vector<Stage> stages;

  // --- analysis annotations (lower.cc / passes.cc) ---
  std::string cost_note;          ///< static_cost rendering for explain ir
  std::optional<uint64_t> est_rows;  ///< exact-facts row bound when known
  bool cse_shared = false;        ///< materialization reused via the CSE cache
  std::string cse_key;            ///< canonical key for the shared result

  /// The source subexpression this node was lowered from: provenance for
  /// explain ir, the CSE key, and static_cost annotations.
  Expr origin;

  /// Deep-copies the pipeline tree. Cheap relative to node count: Bag,
  /// Value, and Expr members are shared-handle copies. Used by the
  /// translation-validation harness to snapshot a plan around each pass.
  std::unique_ptr<IrNode> Clone() const;
};

/// Deep structural equality of two pipeline trees (kinds, scan payloads,
/// join/merge configuration, stage programs, CSE marks). Annotation-only
/// fields (cost_note, est_rows, origin identity) are ignored: two plans
/// that execute identically compare equal.
bool IrEquals(const IrNode& a, const IrNode& b);

struct PassStats {
  size_t filters_pushed = 0;      ///< predicate pushdowns (incl. join sides)
  size_t projections_pushed = 0;  ///< projection/column-remap pushdowns
  size_t hash_joins = 0;          ///< σ∘× pairs promoted to hash joins
  size_t cse_nodes = 0;           ///< blocking nodes marked for result reuse
  // Fact-driven passes (dataflow.h facts feed these; see passes.cc).
  size_t dead_columns = 0;     ///< columns pruned from join sides / gathers
  size_t dup_elims_removed = 0;  ///< kDupElim dropped on proven-dup-free input
  size_t const_folds = 0;      ///< constant-folded stages / emptied plans
};

/// A lowered, pass-processed plan ready for ExecuteIr.
struct IrPlan {
  std::unique_ptr<IrNode> root;
  size_t batch_size = kDefaultBatchSize;
  PassStats passes;
  /// Names of algebra-level rewrites applied before lowering (empty when
  /// lowering ran on the raw plan).
  std::vector<std::string> rewrites;
};

/// Total number of fused stages across the plan (the "how much per-row work
/// was fused" headline of explain ir).
size_t CountFusedStages(const IrNode& node);

/// Renders the pipeline tree: one line per node with kind, details, fused
/// stages, batch size header, and cost annotations. The format is covered
/// by tests; keep it stable.
///
/// `annotate`, when set, is called once per node and its return value (if
/// non-empty) is appended to that node's line — the hook behind
/// `explain ir --facts` (verify.h renders dataflow facts through it).
using IrNodeAnnotator = std::function<std::string(const IrNode&)>;
std::string ExplainIrPlan(const IrPlan& plan,
                          const IrNodeAnnotator& annotate = nullptr);

}  // namespace bagalg::ir

#endif  // BAGALG_IR_IR_H_
