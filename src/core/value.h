#ifndef BAGALG_CORE_VALUE_H_
#define BAGALG_CORE_VALUE_H_

/// \file value.h
/// Complex-object values: atoms, tuples, and (nested) bags.
///
/// A value of the paper's data model (§2) is a tree built from atomic
/// constants with tuple and bag constructors. bagalg values are immutable
/// shared trees with precomputed hashes and types, so copying is O(1) and
/// structurally shared — essential for powerset outputs where the 2^n
/// subbags share all their elements.
///
/// Bags are stored in *canonical counted form*: a sorted vector of
/// (value, multiplicity) entries with distinct values and nonzero BigNat
/// multiplicities. An element "n-belongs" to the bag (paper's term) iff its
/// entry carries multiplicity n. The paper's standard encoding — duplicates
/// written out explicitly — is reproduced by the size accounting in
/// encoding.h, not by the storage; the counted/explicit distinction is
/// itself one of the experiments (E19).

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/atom.h"
#include "src/core/type.h"
#include "src/util/bignat.h"
#include "src/util/result.h"

namespace bagalg {

/// Multiplicity of a bag element. Arbitrary precision: Proposition 3.2 shows
/// iterated powerset/bag-destroy chains reach hyperexponential counts.
using Mult = BigNat;

class Bag;

/// An immutable complex-object value (atom, tuple, or bag).
class Value {
 public:
  enum class Kind { kAtom, kTuple, kBag };

  /// Constructs an atom value.
  static Value Atom(AtomId id);
  /// Constructs a tuple value (arity may be 0).
  static Value Tuple(std::vector<Value> fields);
  /// Wraps a bag as a value.
  static Value FromBag(Bag bag);

  /// Default-constructs the empty tuple (so Value is regular).
  Value();

  Kind kind() const;
  bool IsAtom() const { return kind() == Kind::kAtom; }
  bool IsTuple() const { return kind() == Kind::kTuple; }
  bool IsBag() const { return kind() == Kind::kBag; }

  /// Atom identity; requires IsAtom().
  AtomId atom_id() const;
  /// Tuple fields; requires IsTuple().
  const std::vector<Value>& fields() const;
  /// Contained bag; requires IsBag().
  const Bag& bag() const;

  /// The value's type, precomputed at construction. Empty bags carry a
  /// Bottom element type unless built with an explicit one.
  const Type& type() const;

  /// Precomputed structural hash.
  size_t Hash() const;

  /// Total order over all values: atoms (by id) < tuples (lex) < bags (lex
  /// over canonical entries). This order canonicalizes bag storage; it is
  /// *not* the database order relation of §4 (see orderings in derived.h).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Rendering, e.g. "[a, {{b*3, c}}]". Atom names resolved through `table`
  /// (the global table if null).
  std::string ToString(const AtomTable* table = nullptr) const;

  /// Internal shared representation (not part of the supported API).
  struct Rep;

 private:
  explicit Value(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

/// One canonical bag entry: a distinct value with its positive multiplicity.
struct BagEntry {
  Value value;
  Mult count;
};

/// An immutable homogeneous bag in canonical counted form.
///
/// Equality and ordering compare entries only; the element type is metadata
/// (two empty bags are equal regardless of their declared element types).
class Bag {
 public:
  /// The empty bag with Bottom element type.
  Bag();
  /// The empty bag with a declared element type.
  explicit Bag(Type element_type);

  /// Accumulates (value, multiplicity) pairs and produces a canonical bag.
  /// Zero-multiplicity additions are ignored. Build fails with TypeError if
  /// the element values are not type-compatible (inhomogeneous bag).
  class Builder {
   public:
    Builder() = default;
    /// Declares the element type up front (useful for empty results).
    explicit Builder(Type element_type) : declared_(std::move(element_type)) {}

    /// Pre-allocates room for `n` further pending additions. Safe to call
    /// once per batch inside a loop: capacity grows geometrically, so
    /// repeated incremental reservations stay amortized O(1) per item
    /// (an exact-fit reserve would recopy everything on every call).
    void Reserve(size_t n) {
      const size_t want = items_.size() + n;
      if (want > items_.capacity()) {
        items_.reserve(std::max(want, items_.capacity() * 2));
      }
    }

    /// Adds `count` occurrences of `value`.
    void Add(Value value, Mult count);
    /// Adds a single occurrence.
    void AddOne(Value value) { Add(std::move(value), Mult(1)); }
    /// Adds every entry of another bag, scaled by `factor`.
    void AddBag(const Bag& bag, const Mult& factor = Mult(1));

    /// Number of (unmerged) pending additions, for limit pre-checks.
    size_t PendingCount() const { return items_.size(); }

    /// Canonicalizes: sorts (in parallel for large pending sets, skipped
    /// entirely when the additions arrived in order — the common case for
    /// kernels that emit canonically), merges duplicates, joins element
    /// types.
    Result<Bag> Build() &&;

   private:
    Type declared_ = Type::Bottom();
    std::vector<BagEntry> items_;
  };

  /// Constructs a bag directly from entries already in canonical form:
  /// strictly sorted by Value order, distinct, positive counts, every value
  /// acceptable by `element_type`. Skips the sort / duplicate-merge / type
  /// join work of Builder; the kernels use it for outputs whose
  /// canonicality is structural (merge walks, products of canonical
  /// operands, subbag materialization). Preconditions are assert-checked in
  /// debug builds only.
  static Bag FromCanonicalEntries(Type element_type,
                                  std::vector<BagEntry> entries);

  /// The joined element type of the bag's members (Bottom if empty and
  /// undeclared).
  const Type& element_type() const;
  /// The bag's own type: {{element_type}}.
  Type type() const { return Type::Bag(element_type()); }

  /// Canonical entries: sorted by value, distinct, positive counts.
  const std::vector<BagEntry>& entries() const;

  /// Number of distinct elements.
  size_t DistinctCount() const { return entries().size(); }
  /// Total number of occurrences (the paper's bag cardinality).
  const Mult& TotalCount() const;
  /// True iff the bag has no occurrences.
  bool empty() const { return entries().empty(); }
  /// True iff every multiplicity is 1 (the bag "is a set"). O(1): every
  /// count is at least 1, so they are all 1 exactly when the total equals
  /// the number of distinct entries.
  bool IsSetLike() const;

  /// What one column of a bag of tuples looks like across its entries.
  struct ColumnFacts {
    bool constant = false;  ///< every entry carries the same value here
    bool unique = false;    ///< no two entries share a value here
  };
  /// Per-column facts of a bag whose element type is a tuple: one per
  /// field, empty for other element types and for the empty bag. The first
  /// call walks every entry (O(distinct · arity · log distinct)) and caches
  /// the result on the shared representation, once and thread-safely, so
  /// every copy of the bag answers later calls in O(1). Callers that must
  /// keep the first call cheap gate it on DistinctCount().
  const std::vector<ColumnFacts>& TupleColumnFacts() const;

  /// Multiplicity of `value` in this bag (zero if absent). Bags with at
  /// least kIndexThreshold distinct elements lazily build a hash index
  /// (once, thread-safely) and answer in O(1) expected probes; smaller
  /// bags binary-search the canonical entry list.
  Mult CountOf(const Value& value) const;
  /// True iff `value` occurs at least once.
  bool Contains(const Value& value) const { return !CountOf(value).IsZero(); }
  /// True iff this is a subbag of `other` (paper's ⊑: every multiplicity
  /// here is ≤ the multiplicity there). Probes `other`'s hash index when
  /// this bag is much smaller; merge-walks otherwise.
  bool SubBagOf(const Bag& other) const;

  /// Distinct-count threshold above which bags build the lazy hash index.
  static constexpr size_t kIndexThreshold = 64;

  /// Precomputed structural hash (entry-based; element type excluded).
  size_t Hash() const;
  /// Lexicographic order over canonical entries.
  int Compare(const Bag& other) const;
  bool operator==(const Bag& other) const;
  bool operator!=(const Bag& other) const { return !(*this == other); }

  /// Rendering, e.g. "{{a, [b, c]*3}}".
  std::string ToString(const AtomTable* table = nullptr) const;

  /// Internal shared representation (not part of the supported API).
  struct Rep;

 private:
  friend class Builder;
  explicit Bag(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);
std::ostream& operator<<(std::ostream& os, const Bag& bag);

// ----- Convenience constructors (used pervasively by tests and examples) ---

/// Atom value by name, interned in `table` (global table if null).
Value MakeAtom(std::string_view name, AtomTable* table = nullptr);

/// Tuple value from an initializer list.
Value MakeTuple(std::initializer_list<Value> fields);

/// Bag from (value, small multiplicity) pairs; dies on type error (test
/// convenience only — library code uses Bag::Builder).
Bag MakeBag(std::initializer_list<std::pair<Value, uint64_t>> items);

/// Bag of values, each with multiplicity 1.
Bag MakeBagOf(std::initializer_list<Value> values);

/// The bag B_n of the paper's proofs: n occurrences of `value` and nothing
/// else.
Bag NCopies(const Mult& n, const Value& value);

}  // namespace bagalg

#endif  // BAGALG_CORE_VALUE_H_
