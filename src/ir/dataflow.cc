#include "src/ir/dataflow.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace bagalg::ir {

namespace {

/// Explicit keys kept per node. Key combination under joins is quadratic in
/// this, so keep it small — the passes only ever ask "is there a key inside
/// this column set", which one witness answers.
constexpr size_t kMaxKeys = 4;

/// Per-column facts (key / constant detection) are only read for bags at
/// most this large. Bag::TupleColumnFacts computes them once per bag value
/// and caches them, so only the first plan over a bag pays the walk; the
/// cap bounds that first walk.
constexpr size_t kScanFactEntryCap = 4096;

/// Scans at most this large get the all-counts-one (dup_free) fact.
/// Bag::IsSetLike is O(1), but the gate stays so the facts, and the plans
/// the passes derive from them, do not depend on how the check is made.
constexpr size_t kSetLikeEntryCap = 1 << 16;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > std::numeric_limits<uint64_t>::max() - b
             ? std::numeric_limits<uint64_t>::max()
             : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<uint64_t>::max() / b) {
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

std::optional<uint64_t> MaxAdd(const std::optional<uint64_t>& a,
                               const std::optional<uint64_t>& b) {
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return SatAdd(*a, *b);
}

std::optional<uint64_t> MaxMul(const std::optional<uint64_t>& a,
                               const std::optional<uint64_t>& b) {
  if (a.has_value() && *a == 0) return 0;
  if (b.has_value() && *b == 0) return 0;
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return SatMul(*a, *b);
}

std::optional<uint64_t> MaxMin(const std::optional<uint64_t>& a,
                               const std::optional<uint64_t>& b) {
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  return std::min(*a, *b);
}

void AddKey(IrFacts* facts, std::vector<size_t> key) {
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  if (key.empty()) return;
  // The implicit full-column key is never stored.
  if (facts->shape == IrFacts::Shape::kTuple && key.size() == facts->arity) {
    return;
  }
  for (const auto& existing : facts->keys) {
    if (existing == key) return;
  }
  if (facts->keys.size() >= kMaxKeys) return;
  facts->keys.push_back(std::move(key));
}

bool IsSubset(const std::vector<size_t>& sub, const std::vector<size_t>& sup) {
  // Both sorted.
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

/// The node's per-row "row shape error" helper: every referenced column
/// must exist under the incoming shape.
Status CheckRefs(const std::optional<std::vector<size_t>>& refs,
                 const IrFacts& in, const char* what) {
  if (!refs.has_value() || refs->empty()) return Status::Ok();
  if (in.shape == IrFacts::Shape::kNonTuple) {
    return Status::Internal(std::string("ir verify: ") + what +
                            " projects a column out of non-tuple rows");
  }
  if (in.shape == IrFacts::Shape::kTuple) {
    for (size_t c : *refs) {
      if (c < 1 || c > in.arity) {
        return Status::Internal(
            std::string("ir verify: ") + what + " references column " +
            std::to_string(c) + " of " + std::to_string(in.arity) +
            "-column rows");
      }
    }
  }
  return Status::Ok();
}

/// A general projection program decomposed into per-output-field sources,
/// when its top level is one MakeTuple of flat fields.
struct TupleField {
  enum class Kind : uint8_t { kConst, kColumn, kOpaque };
  Kind kind = Kind::kOpaque;
  size_t column = 0;  ///< kColumn: 1-based source column
  std::optional<Value> constant;
};

/// Decomposes `t(f1, ..., fk)`-shaped programs where every field is a
/// constant or a single column copy. nullopt when the program has any
/// other shape.
std::optional<std::vector<TupleField>> DecomposeTupleProgram(
    const RowProgram& program) {
  const auto& insns = program.insns();
  if (insns.empty() ||
      insns.back().op != RowProgram::OpCode::kMakeTuple) {
    return std::nullopt;
  }
  const size_t want = insns.back().arg;
  std::vector<TupleField> fields;
  size_t i = 0;
  while (i + 1 < insns.size()) {
    TupleField field;
    if (insns[i].op == RowProgram::OpCode::kLoadRow &&
        i + 2 < insns.size() &&
        insns[i + 1].op == RowProgram::OpCode::kProjField) {
      field.kind = TupleField::Kind::kColumn;
      field.column = insns[i + 1].arg;
      i += 2;
    } else if (insns[i].op == RowProgram::OpCode::kLoadConst) {
      // The constant pool is private to RowProgram; the caller recovers the
      // value by running the whole program on a probe row.
      field.kind = TupleField::Kind::kConst;
      i += 1;
    } else {
      return std::nullopt;
    }
    fields.push_back(field);
  }
  if (fields.size() != want) return std::nullopt;
  return fields;
}

/// Facts for a scan's bound bag. Exact where the bag is small enough to
/// inspect; conservative (unknown) beyond the caps. The data-dependent
/// parts are cached on the bag's representation, so this is O(arity) for
/// every plan after the first over the same bag value.
IrFacts ScanFacts(const IrNode& node) {
  IrFacts facts;
  const Bag& bag = node.scan_bag;
  const Type& element = bag.element_type();
  if (element.IsTuple()) {
    facts.shape = IrFacts::Shape::kTuple;
    facts.arity = element.fields().size();
  } else if (!element.IsBottom()) {
    facts.shape = IrFacts::Shape::kNonTuple;
  }
  const size_t distinct = bag.DistinctCount();
  facts.min_rows = distinct;
  facts.max_rows = distinct;
  if (distinct <= kSetLikeEntryCap) facts.dup_free = bag.IsSetLike();
  if (facts.shape == IrFacts::Shape::kTuple && facts.arity > 0 &&
      distinct > 0 && distinct <= kScanFactEntryCap) {
    const std::vector<Bag::ColumnFacts>& columns = bag.TupleColumnFacts();
    const Value& first_row = bag.entries()[0].value;
    for (size_t c = 1; c <= facts.arity; ++c) {
      if (columns[c - 1].constant) {
        facts.const_cols.emplace(c, first_row.fields()[c - 1]);
      }
      if (columns[c - 1].unique && facts.arity > 1) AddKey(&facts, {c});
    }
  }
  return facts;
}

/// Remaps an old key through a gather list when the gather covers it; the
/// witness picks the first gather position for each key column.
std::optional<std::vector<size_t>> RemapKeyThrough(
    const std::vector<size_t>& key, const std::vector<size_t>& gather) {
  std::vector<size_t> remapped;
  for (size_t k : key) {
    bool found = false;
    for (size_t j = 0; j < gather.size(); ++j) {
      if (gather[j] == k) {
        remapped.push_back(j + 1);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return remapped;
}

IrFacts GatherFacts(const std::vector<size_t>& gather, const IrFacts& in) {
  IrFacts out;
  out.shape = IrFacts::Shape::kTuple;
  out.arity = gather.size();
  const bool injective = in.HasKeyWithin(gather);
  out.dup_free = in.dup_free && injective;
  for (const auto& key : in.keys) {
    if (auto remapped = RemapKeyThrough(key, gather)) {
      AddKey(&out, *std::move(remapped));
    }
  }
  // The source's implicit full-column key survives when the gather covers
  // every column.
  if (in.shape == IrFacts::Shape::kTuple && in.arity > 0) {
    std::vector<size_t> full(in.arity);
    for (size_t c = 0; c < in.arity; ++c) full[c] = c + 1;
    if (auto remapped = RemapKeyThrough(full, gather)) {
      AddKey(&out, *std::move(remapped));
    }
  }
  for (size_t j = 0; j < gather.size(); ++j) {
    auto it = in.const_cols.find(gather[j]);
    if (it != in.const_cols.end()) out.const_cols.emplace(j + 1, it->second);
  }
  if (injective) {
    out.min_rows = in.min_rows;
    out.max_rows = in.max_rows;
  } else {
    out.min_rows = in.min_rows > 0 ? 1 : 0;
    out.max_rows = in.max_rows;
  }
  return out;
}

}  // namespace

bool IrFacts::HasKeyWithin(const std::vector<size_t>& cols) const {
  std::vector<size_t> sorted = cols;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const auto& key : keys) {
    if (IsSubset(key, sorted)) return true;
  }
  if (shape == Shape::kTuple) {
    // Implicit key: canonical entries are pairwise distinct values, so the
    // full column set always separates them.
    bool covers_all = true;
    for (size_t c = 1; c <= arity; ++c) {
      if (!std::binary_search(sorted.begin(), sorted.end(), c)) {
        covers_all = false;
        break;
      }
    }
    if (covers_all) return true;
  }
  return false;
}

std::string IrFacts::ToString() const {
  std::vector<std::string> parts;
  if (shape == Shape::kTuple) {
    parts.push_back("arity=" + std::to_string(arity));
  }
  if (dup_free) parts.push_back("dup_free");
  if (disjoint_children) parts.push_back("disjoint");
  for (const auto& key : keys) {
    std::string k = "key{";
    for (size_t i = 0; i < key.size(); ++i) {
      if (i > 0) k += ",";
      k += std::to_string(key[i]);
    }
    parts.push_back(k + "}");
  }
  for (const auto& [col, v] : const_cols) {
    parts.push_back("const{" + std::to_string(col) + "=" + v.ToString() + "}");
  }
  if (max_rows.has_value() || min_rows > 0) {
    std::string rows = "rows=" + std::to_string(min_rows) + "..";
    rows += max_rows.has_value() ? std::to_string(*max_rows) : "*";
    parts.push_back(rows);
  }
  if (parts.empty()) return std::string();
  std::string out = "[";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += " ";
    out += parts[i];
  }
  return out + "]";
}

Result<IrFacts> ApplyStageFacts(const Stage& stage, const IrFacts& in) {
  if (stage.program.insns().empty()) {
    return Status::Internal("ir verify: empty stage program");
  }
  if (stage.kind == StageKind::kFilter) {
    if (stage.rhs.insns().empty()) {
      return Status::Internal("ir verify: empty filter rhs program");
    }
    BAGALG_RETURN_IF_ERROR(
        CheckRefs(stage.program.ColumnRefs(), in, "filter"));
    BAGALG_RETURN_IF_ERROR(CheckRefs(stage.rhs.ColumnRefs(), in, "filter"));
    IrFacts out = in;
    out.min_rows = 0;
    out.disjoint_children = false;
    // σ_{α_c(x) = v} pins column c for every surviving row.
    const auto field = stage.program.FieldRef();
    const auto& rhs_const = stage.rhs.ConstantValue();
    if (field.has_value() && rhs_const.has_value()) {
      out.const_cols.insert_or_assign(*field, *rhs_const);
    }
    return out;
  }

  // kProject.
  const RowProgram& program = stage.program;
  if (program.IsIdentity()) return in;
  BAGALG_RETURN_IF_ERROR(CheckRefs(program.ColumnRefs(), in, "projection"));
  if (const auto& constant = program.ConstantValue(); constant.has_value()) {
    IrFacts out;
    if (constant->IsTuple()) {
      out.shape = IrFacts::Shape::kTuple;
      out.arity = constant->fields().size();
      for (size_t c = 0; c < out.arity; ++c) {
        out.const_cols.emplace(c + 1, constant->fields()[c]);
      }
    } else {
      out.shape = IrFacts::Shape::kNonTuple;
    }
    out.min_rows = in.min_rows > 0 ? 1 : 0;
    out.max_rows = MaxMin(in.max_rows, std::optional<uint64_t>(1));
    // Counts of merged entries sum, so dup-freedom needs a singleton input.
    out.dup_free =
        in.dup_free && in.max_rows.has_value() && *in.max_rows <= 1;
    return out;
  }
  if (const auto field = program.FieldRef(); field.has_value()) {
    IrFacts out;
    const bool injective = in.HasKeyWithin({*field});
    out.dup_free = in.dup_free && injective;
    if (injective) {
      out.min_rows = in.min_rows;
      out.max_rows = in.max_rows;
    } else {
      out.min_rows = in.min_rows > 0 ? 1 : 0;
      out.max_rows = in.max_rows;
    }
    return out;
  }
  if (const auto& gather = program.Gather(); gather.has_value()) {
    return GatherFacts(*gather, in);
  }
  if (auto fields = DecomposeTupleProgram(program)) {
    // t(...)-shaped with constant and column-copy fields: behave like a
    // gather over the copied columns, with the constant fields recovered by
    // running the program on one representative row (all-constant fields
    // are handled by the ConstantValue branch above, so a probe row built
    // from the incoming const facts is only needed per-field).
    IrFacts out;
    out.shape = IrFacts::Shape::kTuple;
    out.arity = fields->size();
    std::vector<size_t> copied;
    for (size_t j = 0; j < fields->size(); ++j) {
      const TupleField& field = (*fields)[j];
      if (field.kind == TupleField::Kind::kColumn) {
        copied.push_back(field.column);
        auto it = in.const_cols.find(field.column);
        if (it != in.const_cols.end()) {
          out.const_cols.emplace(j + 1, it->second);
        }
      }
    }
    // Constant fields: recover values by evaluating the program on a probe
    // row whose copied columns are filled with placeholders. Sound because
    // a kConst field ignores the row entirely.
    if (in.shape == IrFacts::Shape::kTuple) {
      std::vector<Value> probe_fields(in.arity, MakeAtom("_"));
      Result<Value> probe = program.Run(Value::Tuple(std::move(probe_fields)));
      if (probe.ok() && probe.value().IsTuple() &&
          probe.value().fields().size() == fields->size()) {
        for (size_t j = 0; j < fields->size(); ++j) {
          if ((*fields)[j].kind == TupleField::Kind::kConst) {
            out.const_cols.emplace(j + 1, probe.value().fields()[j]);
          }
        }
      }
    }
    const bool injective = !copied.empty() && in.HasKeyWithin(copied);
    out.dup_free = in.dup_free && injective;
    for (const auto& key : in.keys) {
      // A key survives when every key column is among the copied fields.
      std::vector<size_t> remapped;
      bool ok = true;
      for (size_t k : key) {
        bool found = false;
        for (size_t j = 0; j < fields->size(); ++j) {
          if ((*fields)[j].kind == TupleField::Kind::kColumn &&
              (*fields)[j].column == k) {
            remapped.push_back(j + 1);
            found = true;
            break;
          }
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (ok) AddKey(&out, std::move(remapped));
    }
    if (injective) {
      out.min_rows = in.min_rows;
      out.max_rows = in.max_rows;
    } else {
      out.min_rows = in.min_rows > 0 ? 1 : 0;
      out.max_rows = in.max_rows;
    }
    return out;
  }
  // Opaque projection: nothing survives but a coarse row interval.
  IrFacts out;
  out.min_rows = in.min_rows > 0 ? 1 : 0;
  out.max_rows = in.max_rows;
  return out;
}

Result<IrFacts> NodeBaseFacts(const IrNode& node,
                              const std::vector<const IrFacts*>& children) {
  IrFacts facts;
  switch (node.kind) {
    case IrKind::kScan:
      if (!children.empty()) {
        return Status::Internal("ir verify: scan with children");
      }
      facts = ScanFacts(node);
      break;
    case IrKind::kUnionAll: {
      if (children.size() < 2) {
        return Status::Internal("ir verify: union with fewer than two inputs");
      }
      // Shape join: known tuple arities must agree.
      for (const IrFacts* child : children) {
        if (child->shape == IrFacts::Shape::kUnknown) continue;
        if (facts.shape == IrFacts::Shape::kUnknown) {
          facts.shape = child->shape;
          facts.arity = child->arity;
        } else if (facts.shape != child->shape ||
                   facts.arity != child->arity) {
          return Status::Internal(
              "ir verify: union children disagree on row shape");
        }
      }
      // Unknown children widen facts, not shapes: the known arity stands,
      // and a real mismatch surfaces when the unknown side becomes known.
      // Constant columns common to every child (same value everywhere).
      facts.const_cols = children[0]->const_cols;
      for (size_t i = 1; i < children.size() && !facts.const_cols.empty();
           ++i) {
        for (auto it = facts.const_cols.begin();
             it != facts.const_cols.end();) {
          auto other = children[i]->const_cols.find(it->first);
          if (other == children[i]->const_cols.end() ||
              !(other->second == it->second)) {
            it = facts.const_cols.erase(it);
          } else {
            ++it;
          }
        }
      }
      // Disjointness witness: one column constant in every child with
      // pairwise-distinct values.
      size_t tag_col = 0;
      for (const auto& [col, value] : children[0]->const_cols) {
        bool everywhere = true;
        std::vector<const Value*> values{&value};
        for (size_t i = 1; i < children.size(); ++i) {
          auto it = children[i]->const_cols.find(col);
          if (it == children[i]->const_cols.end()) {
            everywhere = false;
            break;
          }
          values.push_back(&it->second);
        }
        if (!everywhere) continue;
        bool distinct = true;
        for (size_t a = 0; a < values.size() && distinct; ++a) {
          for (size_t b = a + 1; b < values.size(); ++b) {
            if (*values[a] == *values[b]) {
              distinct = false;
              break;
            }
          }
        }
        if (distinct) {
          facts.disjoint_children = true;
          tag_col = col;
          break;
        }
      }
      bool all_dup_free = true;
      for (const IrFacts* child : children) {
        all_dup_free = all_dup_free && child->dup_free;
      }
      facts.dup_free = facts.disjoint_children && all_dup_free;
      // A key shared by every child extends to the union when the tag
      // column separates the children.
      if (facts.disjoint_children) {
        for (const auto& key : children[0]->keys) {
          bool shared = true;
          for (size_t i = 1; i < children.size(); ++i) {
            bool found = false;
            for (const auto& other : children[i]->keys) {
              if (other == key) {
                found = true;
                break;
              }
            }
            if (!found) {
              shared = false;
              break;
            }
          }
          if (shared) {
            std::vector<size_t> extended = key;
            extended.push_back(tag_col);
            AddKey(&facts, std::move(extended));
          }
        }
      }
      uint64_t min_sum = 0;
      uint64_t min_max = 0;
      std::optional<uint64_t> max_sum = 0;
      for (const IrFacts* child : children) {
        min_sum = SatAdd(min_sum, child->min_rows);
        min_max = std::max(min_max, child->min_rows);
        max_sum = MaxAdd(max_sum, child->max_rows);
      }
      facts.min_rows = facts.disjoint_children ? min_sum : min_max;
      facts.max_rows = max_sum;
      break;
    }
    case IrKind::kCrossJoin:
    case IrKind::kHashJoin: {
      if (children.size() != 2) {
        return Status::Internal("ir verify: join without two inputs");
      }
      const IrFacts& probe = *children[0];
      const IrFacts& build = *children[1];
      if (probe.shape == IrFacts::Shape::kNonTuple ||
          build.shape == IrFacts::Shape::kNonTuple) {
        return Status::Internal("ir verify: join over non-tuple rows");
      }
      if (probe.shape == IrFacts::Shape::kTuple &&
          probe.arity != node.probe_arity) {
        return Status::Internal(
            "ir verify: join probe_arity " + std::to_string(node.probe_arity) +
            " disagrees with probe rows of arity " +
            std::to_string(probe.arity));
      }
      const bool build_known = build.shape == IrFacts::Shape::kTuple;
      if (build_known) {
        facts.shape = IrFacts::Shape::kTuple;
        facts.arity = node.probe_arity + build.arity;
      }
      if (node.kind == IrKind::kHashJoin) {
        if (node.probe_key < 1 || node.probe_key > node.probe_arity) {
          return Status::Internal(
              "ir verify: hash join probe key a" +
              std::to_string(node.probe_key) + " outside probe arity " +
              std::to_string(node.probe_arity));
        }
        if (build_known &&
            (node.build_key < 1 || node.build_key > build.arity)) {
          return Status::Internal(
              "ir verify: hash join build key b" +
              std::to_string(node.build_key) + " outside build arity " +
              std::to_string(build.arity));
        }
      }
      facts.dup_free = probe.dup_free && build.dup_free;
      // Keys combine across sides: (probe key) ∪ (build key shifted). The
      // implicit full-column keys participate when the side's arity is
      // known.
      if (build_known) {
        auto keys_of = [](const IrFacts& side,
                          size_t arity) -> std::vector<std::vector<size_t>> {
          std::vector<std::vector<size_t>> out = side.keys;
          if (arity > 0) {
            std::vector<size_t> full(arity);
            for (size_t c = 0; c < arity; ++c) full[c] = c + 1;
            out.push_back(std::move(full));
          }
          return out;
        };
        for (const auto& lk : keys_of(probe, node.probe_arity)) {
          for (const auto& rk : keys_of(build, build.arity)) {
            std::vector<size_t> combined = lk;
            for (size_t c : rk) combined.push_back(c + node.probe_arity);
            AddKey(&facts, std::move(combined));
          }
        }
      }
      facts.const_cols = probe.const_cols;
      if (build_known) {
        for (const auto& [col, value] : build.const_cols) {
          facts.const_cols.emplace(col + node.probe_arity, value);
        }
      }
      if (node.kind == IrKind::kCrossJoin) {
        facts.min_rows = SatMul(probe.min_rows, build.min_rows);
        facts.max_rows = MaxMul(probe.max_rows, build.max_rows);
      } else {
        facts.min_rows = 0;
        facts.max_rows = MaxMul(probe.max_rows, build.max_rows);
        // A keyed side caps the join at the other side's cardinality.
        if (probe.HasKeyWithin({node.probe_key})) {
          facts.max_rows = MaxMin(facts.max_rows, build.max_rows);
        }
        if (build_known && build.HasKeyWithin({node.build_key})) {
          facts.max_rows = MaxMin(facts.max_rows, probe.max_rows);
        }
      }
      break;
    }
    case IrKind::kMerge: {
      if (children.size() != 2) {
        return Status::Internal("ir verify: merge without two inputs");
      }
      const IrFacts& left = *children[0];
      const IrFacts& right = *children[1];
      if (left.shape != IrFacts::Shape::kUnknown &&
          right.shape != IrFacts::Shape::kUnknown &&
          (left.shape != right.shape || left.arity != right.arity)) {
        return Status::Internal(
            "ir verify: merge inputs disagree on row shape");
      }
      facts.shape =
          left.shape != IrFacts::Shape::kUnknown ? left.shape : right.shape;
      facts.arity = left.shape != IrFacts::Shape::kUnknown ? left.arity
                                                           : right.arity;
      switch (node.merge_kind) {
        case MergeKind::kMonus:
          // Entries ⊆ left's, counts ≤ left's.
          facts.dup_free = left.dup_free;
          facts.keys = left.keys;
          facts.const_cols = left.const_cols;
          facts.min_rows = 0;
          facts.max_rows = left.max_rows;
          break;
        case MergeKind::kIntersect:
          facts.dup_free = left.dup_free || right.dup_free;
          facts.keys = left.keys;
          facts.const_cols = left.const_cols;
          for (const auto& [col, value] : right.const_cols) {
            facts.const_cols.emplace(col, value);
          }
          facts.min_rows = 0;
          facts.max_rows = MaxMin(left.max_rows, right.max_rows);
          break;
        case MergeKind::kMaxUnion:
          facts.dup_free = left.dup_free && right.dup_free;
          // Entries from either side may coincide on any column subset;
          // only shared constant columns survive.
          for (const auto& [col, value] : left.const_cols) {
            auto it = right.const_cols.find(col);
            if (it != right.const_cols.end() && it->second == value) {
              facts.const_cols.emplace(col, value);
            }
          }
          facts.min_rows = std::max(left.min_rows, right.min_rows);
          facts.max_rows = MaxAdd(left.max_rows, right.max_rows);
          break;
      }
      break;
    }
    case IrKind::kDupElim: {
      if (children.size() != 1) {
        return Status::Internal("ir verify: dup-elim without one input");
      }
      // ε keeps the entry set and squashes counts: every entry-level fact
      // survives, and the output is dup-free by construction.
      facts = *children[0];
      facts.dup_free = true;
      facts.disjoint_children = false;
      break;
    }
  }
  // Cardinality tightening from the static_cost annotation (lower.cc's
  // Annotate): est_rows bounds the node source's total multiplicity, hence
  // its distinct entries.
  if (node.est_rows.has_value()) {
    facts.max_rows = MaxMin(facts.max_rows, node.est_rows);
  }
  return facts;
}

namespace {

Status ComputeNode(const IrNode& node, IrFactsMap* map) {
  std::vector<const IrFacts*> children;
  children.reserve(node.children.size());
  for (const auto& child : node.children) {
    BAGALG_RETURN_IF_ERROR(ComputeNode(*child, map));
    children.push_back(&(*map)[child.get()]);
  }
  BAGALG_ASSIGN_OR_RETURN(IrFacts facts, NodeBaseFacts(node, children));
  for (const Stage& stage : node.stages) {
    BAGALG_ASSIGN_OR_RETURN(facts, ApplyStageFacts(stage, facts));
  }
  (*map)[&node] = std::move(facts);
  return Status::Ok();
}

}  // namespace

Result<IrFactsMap> ComputeIrFacts(const IrPlan& plan) {
  if (plan.root == nullptr) {
    return Status::Internal("ir verify: plan without a root");
  }
  IrFactsMap map;
  BAGALG_RETURN_IF_ERROR(ComputeNode(*plan.root, &map));
  return map;
}

}  // namespace bagalg::ir
