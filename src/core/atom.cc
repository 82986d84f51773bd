#include "src/core/atom.h"

#include <bit>
#include <cassert>
#include <utility>

namespace bagalg {

namespace {

/// (segment, offset) of slot `id`: segment s starts at 64 * (2^s - 1).
std::pair<size_t, size_t> Locate(size_t id, size_t first_segment) {
  const size_t s = std::bit_width(id / first_segment + 1) - 1;
  return {s, id - first_segment * ((size_t{1} << s) - 1)};
}

}  // namespace

AtomTable::AtomTable() = default;

AtomTable::~AtomTable() = default;

const std::string& AtomTable::Slot(size_t id) const {
  const auto [s, offset] = Locate(id, kFirstSegment);
  return segments_[s][offset];
}

AtomId AtomTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const size_t n = count_.load(std::memory_order_relaxed);
  assert(n <= UINT32_MAX && "AtomTable: AtomId space exhausted");
  const auto [s, offset] = Locate(n, kFirstSegment);
  if (offset == 0) {
    segments_[s] = std::make_unique<std::string[]>(kFirstSegment << s);
  }
  std::string& slot = segments_[s][offset];
  slot.assign(name);
  const auto id = static_cast<AtomId>(n);
  ids_.emplace(std::string_view(slot), id);
  // Publish: readers that see the new count see the written slot.
  count_.store(n + 1, std::memory_order_release);
  return id;
}

std::optional<AtomId> AtomTable::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::string AtomTable::NameOf(AtomId id) const {
  std::string out;
  AppendName(id, &out);
  return out;
}

void AtomTable::AppendName(AtomId id, std::string* out) const {
  if (id < count_.load(std::memory_order_acquire)) {
    out->append(Slot(id));
    return;
  }
  out->push_back('#');
  out->append(std::to_string(id));
}

size_t AtomTable::size() const {
  return count_.load(std::memory_order_acquire);
}

AtomTable& GlobalAtomTable() {
  static AtomTable* table = new AtomTable();
  return *table;
}

AtomId GlobalAtom(std::string_view name) {
  return GlobalAtomTable().Intern(name);
}

}  // namespace bagalg
