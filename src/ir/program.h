#ifndef BAGALG_IR_PROGRAM_H_
#define BAGALG_IR_PROGRAM_H_

/// \file program.h
/// Compiled row programs: the IR engine's replacement for per-row AST
/// walking.
///
/// Instead of recursively walking the lambda's Expr tree for every row, the
/// IR engine compiles each object-level lambda body once, into a flat
/// postorder instruction sequence executed by a tiny stack machine — no
/// recursion, no per-node switch re-dispatch through shared_ptr
/// indirections, and the constants pre-resolved into a pool.
///
/// Three shapes cover almost every real pipeline and get dedicated fast
/// paths that skip the stack machine entirely:
///
///   identity      λx. x                      (pass-through)
///   field-ref     λx. α_i(x)                 (join keys, filter sides)
///   gather        λx. τ(α_a1(x), ..., α_ak(x))   (projections)
///
/// The supported fragment is the BALG¹ lambda fragment: Var(0) / constants /
/// tupling / attribute projection. Anything else fails to compile with
/// kUnsupported; such lambdas run on the tree-walking evaluator.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/expr.h"
#include "src/core/value.h"
#include "src/util/result.h"

namespace bagalg::ir {

/// A compiled object-level lambda body.
class RowProgram {
 public:
  enum class OpCode : uint8_t {
    kLoadRow,    ///< push the input row
    kLoadConst,  ///< push constants[arg]
    kProjField,  ///< pop a tuple, push its arg-th field (1-based)
    kMakeTuple,  ///< pop arg values, push the tuple of them (in order)
  };

  struct Insn {
    OpCode op;
    uint32_t arg;
  };

  /// Compiles `body` (an expression over Var(0)). Unsupported when the body
  /// leaves the pipeline lambda fragment (bag operators, deeper binders).
  static Result<RowProgram> Compile(const Expr& body);

  /// λx. v — a program that ignores the row and produces `v`. The
  /// const-fold pass rewrites provably-constant stages to this shape.
  static RowProgram Constant(Value v);

  /// λx. τ(α_a1(x), ..., α_ak(x)) for the given 1-based field list; the
  /// empty list yields λx. τ() (a constant). The dead-column pass builds
  /// narrowing projections with this.
  static RowProgram GatherOf(const std::vector<size_t>& fields);

  /// λx. x — the program is a pass-through.
  bool IsIdentity() const { return identity_; }

  /// λx. α_i(x): returns the 1-based field index, nullopt otherwise.
  std::optional<size_t> FieldRef() const { return field_ref_; }

  /// λx. τ(α_a1(x), ..., α_ak(x)): the 1-based field list, empty optional
  /// otherwise. The basis of the projection fast path and of column-remap
  /// pushdowns.
  const std::optional<std::vector<size_t>>& Gather() const { return gather_; }

  /// The program's value when it never reads the row (no kLoadRow): the
  /// same value for every input. nullopt for row-dependent programs.
  const std::optional<Value>& ConstantValue() const { return const_val_; }

  /// The distinct top-level row columns this program reads (1-based,
  /// sorted). nullopt when the whole row escapes (identity, or the row used
  /// directly inside a tuple) — such a program cannot be pushed across a
  /// column boundary.
  std::optional<std::vector<size_t>> ColumnRefs() const;

  /// Rewrites every top-level row-column access c to c - delta. Used when a
  /// predicate on a joined row is pushed into the right (build) side, whose
  /// rows lack the probe side's leading columns. Requires ColumnRefs() to
  /// be available and every reference to exceed delta.
  void ShiftColumns(size_t delta);

  /// Rewrites every top-level row-column access c to map[c - 1] (1-based
  /// on both sides). Used when a predicate is pushed below a gather
  /// projection. Requires ColumnRefs(); false if some reference has no
  /// mapping (c > map.size()).
  bool RemapColumns(const std::vector<size_t>& map);

  /// Executes the program on one row. InvalidArgument on a bad attribute
  /// projection (non-tuple operand or out-of-range field).
  Result<Value> Run(const Value& row) const;

  /// Compact rendering for explain ir, e.g. "x", "a2", "t(a1, a4)", "'k".
  std::string ToString() const;

  const std::vector<Insn>& insns() const { return insns_; }

 private:
  void Reclassify();

  std::vector<Insn> insns_;
  std::vector<Value> consts_;
  bool identity_ = false;
  std::optional<size_t> field_ref_;
  std::optional<std::vector<size_t>> gather_;
  std::optional<Value> const_val_;
};

}  // namespace bagalg::ir

#endif  // BAGALG_IR_PROGRAM_H_
