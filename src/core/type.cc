#include "src/core/type.h"

#include <algorithm>
#include <cassert>

#include "src/util/strings.h"

namespace bagalg {

struct Type::Rep {
  Kind kind;
  std::vector<Type> children;  // tuple fields, or single bag element
  int bag_nesting = 0;
  size_t hash = 0;
};

namespace {

size_t CombineHash(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// The rep Type::Tuple builds over `fields`.
Type::Rep TupleRep(std::vector<Type> fields) {
  Type::Rep rep;
  rep.kind = Type::Kind::kTuple;
  size_t h = 0x54u;
  int nesting = 0;
  for (const Type& f : fields) {
    h = CombineHash(h, f.Hash());
    nesting = std::max(nesting, f.BagNesting());
  }
  rep.children = std::move(fields);
  rep.bag_nesting = nesting;
  rep.hash = h;
  return rep;
}

/// A process-lifetime rep behind a non-owning pointer: the aliasing
/// constructor over an empty owner gives it no control block, so copying
/// or destroying a Type that holds it touches no reference count. The rep
/// is leaked, so it outlives every static.
std::shared_ptr<const Type::Rep> Immortal(Type::Rep rep) {
  return std::shared_ptr<const Type::Rep>(std::shared_ptr<void>(),
                                          new Type::Rep(std::move(rep)));
}

const std::shared_ptr<const Type::Rep>& AtomRep() {
  static const auto* rep = new std::shared_ptr<const Type::Rep>(
      Immortal({Type::Kind::kAtom, {}, 0, 0x41u}));
  return *rep;
}

const std::shared_ptr<const Type::Rep>& BottomRep() {
  static const auto* rep = new std::shared_ptr<const Type::Rep>(
      Immortal({Type::Kind::kBottom, {}, 0, 0x5fu}));
  return *rep;
}

}  // namespace

Type::Type() : rep_(BottomRep()) {}

Type Type::Atom() { return Type(AtomRep()); }

Type Type::Bottom() { return Type(BottomRep()); }

Type Type::Tuple(std::vector<Type> fields) {
  return Type(std::make_shared<Rep>(TupleRep(std::move(fields))));
}

Type Type::FlatTuple(size_t arity) {
  static const auto* reps = [] {
    auto* out = new std::vector<std::shared_ptr<const Rep>>();
    for (size_t k = 0; k < kImmortalFlatArity; ++k) {
      out->push_back(Immortal(TupleRep(std::vector<Type>(k, Atom()))));
    }
    return out;
  }();
  if (arity < kImmortalFlatArity) return Type((*reps)[arity]);
  return Tuple(std::vector<Type>(arity, Atom()));
}

Type Type::Bag(Type element) {
  auto rep = std::make_shared<Rep>();
  rep->kind = Kind::kBag;
  rep->bag_nesting = element.BagNesting() + 1;
  rep->hash = CombineHash(0x42u, element.Hash());
  rep->children.push_back(std::move(element));
  return Type(std::move(rep));
}

Type::Kind Type::kind() const { return rep_->kind; }

const std::vector<Type>& Type::fields() const {
  assert(IsTuple());
  return rep_->children;
}

const Type& Type::element() const {
  assert(IsBag());
  return rep_->children[0];
}

int Type::BagNesting() const { return rep_->bag_nesting; }

bool Type::operator==(const Type& other) const {
  if (rep_ == other.rep_) return true;
  if (rep_->kind != other.rep_->kind) return false;
  if (rep_->hash != other.rep_->hash) return false;
  if (rep_->children.size() != other.rep_->children.size()) return false;
  for (size_t i = 0; i < rep_->children.size(); ++i) {
    if (rep_->children[i] != other.rep_->children[i]) return false;
  }
  return true;
}

size_t Type::Hash() const { return rep_->hash; }

bool Type::Accepts(const Type& other) const {
  if (other.IsBottom()) return true;
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case Kind::kAtom:
    case Kind::kBottom:
      return true;
    case Kind::kBag:
      return element().Accepts(other.element());
    case Kind::kTuple: {
      if (fields().size() != other.fields().size()) return false;
      for (size_t i = 0; i < fields().size(); ++i) {
        if (!fields()[i].Accepts(other.fields()[i])) return false;
      }
      return true;
    }
  }
  return false;
}

Result<Type> Type::Join(const Type& a, const Type& b) {
  if (a.IsBottom()) return b;
  if (b.IsBottom()) return a;
  if (a.kind() != b.kind()) {
    return Status::TypeError("incompatible types " + a.ToString() + " and " +
                             b.ToString());
  }
  switch (a.kind()) {
    case Kind::kAtom:
      return Type::Atom();
    case Kind::kBag: {
      BAGALG_ASSIGN_OR_RETURN(Type elem, Join(a.element(), b.element()));
      return Type::Bag(std::move(elem));
    }
    case Kind::kTuple: {
      if (a.fields().size() != b.fields().size()) {
        return Status::TypeError("tuple arity mismatch: " + a.ToString() +
                                 " vs " + b.ToString());
      }
      std::vector<Type> fields;
      fields.reserve(a.fields().size());
      for (size_t i = 0; i < a.fields().size(); ++i) {
        BAGALG_ASSIGN_OR_RETURN(Type f, Join(a.fields()[i], b.fields()[i]));
        fields.push_back(std::move(f));
      }
      return Type::Tuple(std::move(fields));
    }
    case Kind::kBottom:
      break;  // handled above
  }
  return Status::Internal("unreachable Type::Join case");
}

std::string Type::ToString() const {
  switch (kind()) {
    case Kind::kAtom:
      return "U";
    case Kind::kBottom:
      return "_";
    case Kind::kBag:
      return "{{" + element().ToString() + "}}";
    case Kind::kTuple: {
      std::string out = "[";
      for (size_t i = 0; i < fields().size(); ++i) {
        if (i > 0) out += ", ";
        out += fields()[i].ToString();
      }
      out += "]";
      return out;
    }
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Type& type) {
  return os << type.ToString();
}

}  // namespace bagalg
