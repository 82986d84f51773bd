#ifndef BAGALG_CORE_ATOM_H_
#define BAGALG_CORE_ATOM_H_

/// \file atom.h
/// Atomic constants of the paper's type U.
///
/// The domain of U is an infinite set of uninterpreted constants (paper §2).
/// bagalg represents a constant as an opaque 32-bit AtomId; the AtomTable
/// maps ids to printable names for I/O. Queries must be generic (insensitive
/// to isomorphisms of the database, §2), which the engine guarantees
/// structurally: no algebra operation ever inspects anything about an atom
/// other than its identity — names exist only at the I/O boundary.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace bagalg {

/// Identity of an atomic constant.
using AtomId = uint32_t;

/// Bidirectional mapping between atom ids and their printable names.
///
/// Interning is append-only; ids are dense starting at 0. Thread-safe, and
/// built for the many-sessions case: bagalgd parses and prints statements
/// for many sessions at once, all against the global table, and every
/// printer and wire encoder resolves one name per atom it writes.
///
/// Reads take no lock. Names live in append-only segments of geometric
/// size (segment s holds 64 << s names) that are never moved or freed.
/// `Intern` and `Find` serialize on a mutex, since they share the
/// name-to-id map. `Intern` publishes a new name in this order: it writes
/// the name into its slot (allocating the segment first if needed) and
/// indexes it, then stores the new count with release semantics.
/// `NameOf` and `size` load the count with acquire semantics, so every id
/// below the count they see names a fully written, immutable slot.
class AtomTable {
 public:
  AtomTable();
  ~AtomTable();
  AtomTable(const AtomTable&) = delete;
  AtomTable& operator=(const AtomTable&) = delete;

  /// Returns the id for `name`, interning it on first use.
  AtomId Intern(std::string_view name);

  /// Returns the id for `name` if already interned.
  std::optional<AtomId> Find(std::string_view name) const;

  /// Returns the name of an id; "#<id>" if the id was never interned here
  /// (so printing never fails, even across tables). Lock-free.
  std::string NameOf(AtomId id) const;

  /// Appends NameOf(id) to `out` without a temporary string. Lock-free.
  void AppendName(AtomId id, std::string* out) const;

  /// Number of interned atoms. Lock-free.
  size_t size() const;

 private:
  /// Names in segment 0; segment s holds kFirstSegment << s.
  static constexpr size_t kFirstSegment = 64;
  /// Enough segments for every 32-bit id: 64 * (2^27 - 1) > 2^32.
  static constexpr size_t kSegments = 27;

  /// The slot of a published id (requires id < size()).
  const std::string& Slot(size_t id) const;

  mutable std::mutex mu_;
  std::atomic<size_t> count_{0};
  std::unique_ptr<std::string[]> segments_[kSegments];
  // Keys view the names in the segments, which never move.
  std::unordered_map<std::string_view, AtomId> ids_;
};

/// Process-wide default table used by printers when none is supplied.
AtomTable& GlobalAtomTable();

/// Convenience: interns `name` in the global table.
AtomId GlobalAtom(std::string_view name);

}  // namespace bagalg

#endif  // BAGALG_CORE_ATOM_H_
