#ifndef BAGALG_CORE_TYPE_H_
#define BAGALG_CORE_TYPE_H_

/// \file type.h
/// The complex-object type system of the paper (§2).
///
/// Types are built from the atomic type U with tuple and bag constructors:
///   T ::= U | [T1,...,Tk] | {{T}}
/// plus an internal Bottom type, the least element of the subtyping order,
/// used as the element type of empty bags whose contents are unconstrained.
/// The *bag nesting* of a type — the maximum number of bag constructors on a
/// root-to-leaf path — stratifies the algebra into the fragments BALG^k the
/// paper studies.
///
/// Type values are immutable shared trees; copying is O(1). The types
/// built once per row (U, Bottom, and flat tuples [U, ..., U] of arity
/// below Type::kImmortalFlatArity) are process-lifetime singletons with no
/// reference count, so copying or destroying them writes no shared memory.

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace bagalg {

/// An immutable complex-object type.
class Type {
 public:
  enum class Kind {
    kAtom,    ///< the atomic type U
    kTuple,   ///< [T1,...,Tk]
    kBag,     ///< {{T}}
    kBottom,  ///< subtype of every type (element type of untyped empty bags)
  };

  /// Constructs the atomic type U.
  static Type Atom();
  /// Constructs a tuple type from field types (arity may be 0).
  static Type Tuple(std::vector<Type> fields);
  /// Constructs a bag type with the given element type.
  static Type Bag(Type element);
  /// Constructs the Bottom type.
  static Type Bottom();
  /// The flat tuple type [U, ..., U] of the given arity: equal to (same
  /// hash, children and nesting as) Tuple over `arity` copies of Atom(),
  /// but immortal, with no allocation, below kImmortalFlatArity.
  static Type FlatTuple(size_t arity);

  /// Flat tuple arities whose types are immortal singletons.
  static constexpr size_t kImmortalFlatArity = 8;

  /// Default-constructs Bottom (so Type is regular).
  Type();

  Kind kind() const;
  bool IsAtom() const { return kind() == Kind::kAtom; }
  bool IsTuple() const { return kind() == Kind::kTuple; }
  bool IsBag() const { return kind() == Kind::kBag; }
  bool IsBottom() const { return kind() == Kind::kBottom; }

  /// Field types; requires IsTuple().
  const std::vector<Type>& fields() const;
  /// Element type; requires IsBag().
  const Type& element() const;

  /// Maximum number of bag constructors on a root-to-leaf path (paper §2).
  /// Bottom has nesting 0.
  int BagNesting() const;

  /// Structural equality.
  bool operator==(const Type& other) const;
  bool operator!=(const Type& other) const { return !(*this == other); }

  /// Structural hash.
  size_t Hash() const;

  /// True iff a value of type `other` can be used where `*this` is expected
  /// (i.e. other is `*this` with some subtrees replaced by Bottom).
  bool Accepts(const Type& other) const;

  /// Least upper bound of two types in the Bottom-order; TypeError if the
  /// types are structurally incompatible.
  static Result<Type> Join(const Type& a, const Type& b);

  /// Rendering: "U", "[U, {{U}}]", "{{[U, U]}}", "_" for Bottom.
  std::string ToString() const;

  /// Internal shared representation (public for the implementation file's
  /// static singletons; not part of the supported API).
  struct Rep;

 private:
  explicit Type(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Type& type);

}  // namespace bagalg

#endif  // BAGALG_CORE_TYPE_H_
