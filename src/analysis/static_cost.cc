#include "src/analysis/static_cost.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/algebra/explain.h"
#include "src/algebra/typecheck.h"
#include "src/obs/metrics.h"

namespace bagalg::analysis {

const char* TractabilityName(Tractability t) {
  switch (t) {
    case Tractability::kPolynomial:
      return "poly";
    case Tractability::kExponentialTower:
      return "tower";
  }
  return "?";
}

// ------------------------------------------------------------- SizeBound

SizeBound SizeBound::Finite(Polynomial p) {
  return SizeBound{Kind::kPoly, std::move(p)};
}

SizeBound SizeBound::Constant(BigNat c) {
  return Finite(Polynomial::Constant(BigInt(std::move(c))));
}

SizeBound SizeBound::Astronomical() {
  return SizeBound{Kind::kAstronomical, Polynomial()};
}

SizeBound SizeBound::Unknown() {
  return SizeBound{Kind::kUnknown, Polynomial()};
}

SizeBound SizeBound::Add(const SizeBound& a, const SizeBound& b) {
  if (a.kind == Kind::kUnknown || b.kind == Kind::kUnknown) return Unknown();
  if (a.kind == Kind::kAstronomical || b.kind == Kind::kAstronomical) {
    return Astronomical();
  }
  return Finite(a.poly + b.poly);
}

SizeBound SizeBound::Mul(const SizeBound& a, const SizeBound& b) {
  // A statically-empty factor annihilates even an unbounded one.
  if (a.kind == Kind::kPoly && a.poly.IsZero()) return a;
  if (b.kind == Kind::kPoly && b.poly.IsZero()) return b;
  if (a.kind == Kind::kUnknown || b.kind == Kind::kUnknown) return Unknown();
  if (a.kind == Kind::kAstronomical || b.kind == Kind::kAstronomical) {
    return Astronomical();
  }
  return Finite(a.poly * b.poly);
}

SizeBound SizeBound::Join(const SizeBound& a, const SizeBound& b) {
  if (a.kind == Kind::kUnknown || b.kind == Kind::kUnknown) return Unknown();
  if (a.kind == Kind::kAstronomical || b.kind == Kind::kAstronomical) {
    return Astronomical();
  }
  // Coefficient-wise max dominates both pointwise because every coefficient
  // the analysis produces is non-negative.
  const auto& ca = a.poly.coefficients();
  const auto& cb = b.poly.coefficients();
  std::vector<BigInt> out(std::max(ca.size(), cb.size()));
  for (size_t i = 0; i < out.size(); ++i) {
    BigInt va = i < ca.size() ? ca[i] : BigInt();
    BigInt vb = i < cb.size() ? cb[i] : BigInt();
    out[i] = va >= vb ? va : vb;
  }
  return Finite(Polynomial(std::move(out)));
}

SizeBound SizeBound::Min(const SizeBound& a, const SizeBound& b) {
  // Either operand is a valid upper bound; prefer the informative / smaller.
  if (a.kind == Kind::kUnknown) return b;
  if (b.kind == Kind::kUnknown) return a;
  if (a.kind == Kind::kAstronomical) return b;
  if (b.kind == Kind::kAstronomical) return a;
  if (a.poly.Degree() != b.poly.Degree()) {
    return a.poly.Degree() < b.poly.Degree() ? a : b;
  }
  // Same degree: compare coefficients from the top; the first difference
  // decides which polynomial is eventually smaller.
  const auto& ca = a.poly.coefficients();
  const auto& cb = b.poly.coefficients();
  for (size_t i = ca.size(); i-- > 0;) {
    BigInt va = ca[i];
    BigInt vb = i < cb.size() ? cb[i] : BigInt();
    if (va != vb) return va < vb ? a : b;
  }
  return a;
}

SizeBound SizeBound::Exp2(const SizeBound& a) {
  if (a.kind == Kind::kUnknown) return Unknown();
  if (a.kind == Kind::kAstronomical) return Astronomical();
  if (a.poly.Degree() >= 1) {
    // 2^{poly(n)} with n symbolic and unbounded: beyond any polynomial.
    return Astronomical();
  }
  BigInt c = a.poly.ConstantTerm();
  if (c.IsNegative()) c = BigInt();
  const BigNat& mag = c.magnitude();
  auto as_u64 = mag.ToUint64();
  if (!as_u64.ok() || as_u64.value() >= kAstronomicalBits) {
    return Astronomical();
  }
  return Constant(BigNat::TwoPow(as_u64.value()));
}

std::string SizeBound::ToString() const {
  switch (kind) {
    case Kind::kUnknown:
      return "unbounded";
    case Kind::kAstronomical:
      return "astronomical";
    case Kind::kPoly: {
      // Huge exact constants (powerset towers) are reported by bit length;
      // printing a 300k-digit decimal helps nobody.
      if (poly.Degree() == 0) {
        // Copy, not reference: ConstantTerm() returns a temporary BigInt,
        // and a reference through .magnitude() would dangle past this line.
        const BigNat c = poly.ConstantTerm().magnitude();
        if (c.BitLength() > 64) {
          return "<=2^" + std::to_string(c.BitLength() - 1) + "+";
        }
      }
      return "<=" + poly.ToString();
    }
  }
  return "?";
}

// ----------------------------------------------------------------- shapes

namespace {

/// The abstract object attached to each subexpression, mirroring the type
/// structure: bags carry a cardinality bound plus an element shape; tuples
/// carry field shapes; atoms (and Bottom) carry nothing.
struct Shape {
  enum class Kind { kAtom, kTuple, kBag };
  Kind kind = Kind::kAtom;
  SizeBound card;                       // bags: total-cardinality bound
  std::vector<Shape> fields;            // tuples
  std::shared_ptr<const Shape> element; // bags

  static Shape AtomShape() { return Shape{}; }
  static Shape BagShape(SizeBound c, Shape elem) {
    Shape s;
    s.kind = Kind::kBag;
    s.card = std::move(c);
    s.element = std::make_shared<const Shape>(std::move(elem));
    return s;
  }
  static Shape TupleShape(std::vector<Shape> fs) {
    Shape s;
    s.kind = Kind::kTuple;
    s.fields = std::move(fs);
    return s;
  }

  const Shape& ElementShape() const {
    static const Shape kAtomShape;
    return element != nullptr ? *element : kAtomShape;
  }
};

/// Shape from a static type, with every bag's cardinality set to `card`
/// (symbolic n for inputs, unknown for fixpoint widening).
Shape ShapeFromType(const Type& t, const SizeBound& card) {
  switch (t.kind()) {
    case Type::Kind::kAtom:
    case Type::Kind::kBottom:
      return Shape::AtomShape();
    case Type::Kind::kTuple: {
      std::vector<Shape> fields;
      fields.reserve(t.fields().size());
      for (const Type& f : t.fields()) fields.push_back(ShapeFromType(f, card));
      return Shape::TupleShape(std::move(fields));
    }
    case Type::Kind::kBag:
      return Shape::BagShape(card, ShapeFromType(t.element(), card));
  }
  return Shape::AtomShape();
}

Shape JoinShapes(const Shape& a, const Shape& b);

Shape ShapeOfValue(const Value& v);

/// Exact shape of a concrete bag: its true total cardinality and the join of
/// its members' shapes. O(1) when the element type nests no bag: the members
/// are atoms and tuples of atoms, so their shapes are the element type's and
/// the join adds nothing. Only bags of nested bags walk their entries, for
/// the inner cardinalities.
Shape ShapeOfBag(const Bag& bag) {
  Shape elem =
      ShapeFromType(bag.element_type(), SizeBound::Constant(BigNat(0)));
  if (bag.element_type().BagNesting() > 0) {
    for (const BagEntry& e : bag.entries()) {
      elem = JoinShapes(elem, ShapeOfValue(e.value));
    }
  }
  return Shape::BagShape(SizeBound::Constant(bag.TotalCount()),
                         std::move(elem));
}

/// Exact shape of a concrete value (see ShapeOfBag).
Shape ShapeOfValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kAtom:
      return Shape::AtomShape();
    case Value::Kind::kTuple: {
      std::vector<Shape> fields;
      fields.reserve(v.fields().size());
      for (const Value& f : v.fields()) fields.push_back(ShapeOfValue(f));
      return Shape::TupleShape(std::move(fields));
    }
    case Value::Kind::kBag:
      return ShapeOfBag(v.bag());
  }
  return Shape::AtomShape();
}

Shape JoinShapes(const Shape& a, const Shape& b) {
  // Bottom-typed sides materialize as atoms; keep the structured one.
  if (a.kind != b.kind) {
    if (a.kind == Shape::Kind::kAtom) return b;
    if (b.kind == Shape::Kind::kAtom) return a;
    return a;  // tuple/bag mismatch cannot pass the typechecker
  }
  switch (a.kind) {
    case Shape::Kind::kAtom:
      return a;
    case Shape::Kind::kTuple: {
      std::vector<Shape> fields;
      size_t n = std::max(a.fields.size(), b.fields.size());
      fields.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (i >= a.fields.size()) {
          fields.push_back(b.fields[i]);
        } else if (i >= b.fields.size()) {
          fields.push_back(a.fields[i]);
        } else {
          fields.push_back(JoinShapes(a.fields[i], b.fields[i]));
        }
      }
      return Shape::TupleShape(std::move(fields));
    }
    case Shape::Kind::kBag:
      return Shape::BagShape(SizeBound::Join(a.card, b.card),
                             JoinShapes(a.ElementShape(), b.ElementShape()));
  }
  return a;
}

/// The per-node size bound a shape induces: a bag's cardinality bound, the
/// single object for atoms/tuples.
SizeBound BoundOfShape(const Shape& s) {
  if (s.kind == Shape::Kind::kBag) return s.card;
  return SizeBound::Constant(BigNat(1));
}

// ----------------------------------------------------- the abstract walker

struct WalkResult {
  Shape shape;
  int tower = 0;  // max P/P_b nodes on a root-to-leaf path of the subtree
};

class CostWalker {
 public:
  CostWalker(const Schema& schema, const CostFacts& facts,
             const std::map<const ExprNode*, Type>& node_types,
             std::map<const ExprNode*, NodeCost>* out)
      : schema_(schema), facts_(facts), node_types_(node_types), out_(out) {}

  Result<WalkResult> Walk(const Expr& expr) {
    const ExprNode& n = expr.node();
    BAGALG_ASSIGN_OR_RETURN(WalkResult r, WalkNode(expr));
    if (n.kind == ExprKind::kPowerset || n.kind == ExprKind::kPowerbag) {
      r.tower += 1;
    }
    Record(expr.raw(), r);
    return r;
  }

 private:
  /// A conservative shape for nodes whose precise shape the walker cannot
  /// (or need not) track, derived from the inferred static type with every
  /// bag cardinality unknown.
  Shape Widened(const Expr& expr) const {
    auto it = node_types_.find(expr.raw());
    if (it == node_types_.end()) return Shape::AtomShape();
    return ShapeFromType(it->second, SizeBound::Unknown());
  }

  void Record(const ExprNode* node, const WalkResult& r) {
    NodeCost cost;
    cost.tower_height = r.tower;
    cost.cls = r.tower > 0 ? Tractability::kExponentialTower
                           : Tractability::kPolynomial;
    cost.bound = BoundOfShape(r.shape);
    auto [it, inserted] = out_->emplace(node, cost);
    if (!inserted) {
      // Shared subtrees may be revisited under different binder shapes; keep
      // a verdict sound for every occurrence.
      NodeCost& prev = it->second;
      prev.tower_height = std::max(prev.tower_height, cost.tower_height);
      if (cost.cls == Tractability::kExponentialTower) prev.cls = cost.cls;
      prev.bound = SizeBound::Join(prev.bound, cost.bound);
    }
  }

  Result<WalkResult> WalkNode(const Expr& expr) {
    const ExprNode& n = expr.node();
    switch (n.kind) {
      case ExprKind::kInput: {
        if (facts_.db != nullptr) {
          BAGALG_ASSIGN_OR_RETURN(Bag bag, facts_.db->Get(n.name));
          return WalkResult{ShapeOfBag(bag), 0};
        }
        auto it = schema_.find(n.name);
        if (it == schema_.end()) {
          return Status::NotFound("no input bag named '" + n.name + "'");
        }
        return WalkResult{
            ShapeFromType(it->second,
                          SizeBound::Finite(Polynomial::Identity())),
            0};
      }
      case ExprKind::kConst:
        return WalkResult{ShapeOfValue(*n.literal), 0};
      case ExprKind::kVar: {
        if (n.index >= binders_.size()) {
          return Status::TypeError("unbound variable of depth " +
                                   std::to_string(n.index));
        }
        return WalkResult{binders_[binders_.size() - 1 - n.index], 0};
      }
      case ExprKind::kAdditiveUnion:
      case ExprKind::kMaxUnion: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult a, Walk(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(WalkResult b, Walk(n.children[1]));
        // Both ⊎ and ∪ are dominated by the sum of the operand totals.
        Shape s = Shape::BagShape(
            SizeBound::Add(a.shape.card, b.shape.card),
            JoinShapes(a.shape.ElementShape(), b.shape.ElementShape()));
        return WalkResult{std::move(s), std::max(a.tower, b.tower)};
      }
      case ExprKind::kSubtract: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult a, Walk(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(WalkResult b, Walk(n.children[1]));
        // Monus only removes occurrences: bounded by the left operand.
        return WalkResult{a.shape, std::max(a.tower, b.tower)};
      }
      case ExprKind::kIntersect: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult a, Walk(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(WalkResult b, Walk(n.children[1]));
        Shape s = Shape::BagShape(
            SizeBound::Min(a.shape.card, b.shape.card),
            JoinShapes(a.shape.ElementShape(), b.shape.ElementShape()));
        return WalkResult{std::move(s), std::max(a.tower, b.tower)};
      }
      case ExprKind::kProduct: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult a, Walk(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(WalkResult b, Walk(n.children[1]));
        const Shape& ea = a.shape.ElementShape();
        const Shape& eb = b.shape.ElementShape();
        std::vector<Shape> fields = ea.fields;
        fields.insert(fields.end(), eb.fields.begin(), eb.fields.end());
        Shape s = Shape::BagShape(SizeBound::Mul(a.shape.card, b.shape.card),
                                  Shape::TupleShape(std::move(fields)));
        return WalkResult{std::move(s), std::max(a.tower, b.tower)};
      }
      case ExprKind::kTupling: {
        std::vector<Shape> fields;
        fields.reserve(n.children.size());
        int tower = 0;
        for (const Expr& c : n.children) {
          BAGALG_ASSIGN_OR_RETURN(WalkResult f, Walk(c));
          tower = std::max(tower, f.tower);
          fields.push_back(std::move(f.shape));
        }
        return WalkResult{Shape::TupleShape(std::move(fields)), tower};
      }
      case ExprKind::kBagging: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult o, Walk(n.children[0]));
        return WalkResult{
            Shape::BagShape(SizeBound::Constant(BigNat(1)),
                            std::move(o.shape)),
            o.tower};
      }
      case ExprKind::kPowerset:
      case ExprKind::kPowerbag: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult o, Walk(n.children[0]));
        // |P(B)| = Π(c_i + 1) and |P_b(B)| = Π 2^{c_i}, both <= 2^{|B|};
        // every subbag's own total is <= |B|.
        Shape subbag = Shape::BagShape(o.shape.card, o.shape.ElementShape());
        Shape s = Shape::BagShape(SizeBound::Exp2(o.shape.card),
                                  std::move(subbag));
        return WalkResult{std::move(s), o.tower};  // +1 added by Walk
      }
      case ExprKind::kBagDestroy: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult o, Walk(n.children[0]));
        const Shape& inner = o.shape.ElementShape();
        // |δ(B)| = Σ mult(b)·|b| <= |B| · max inner size.
        Shape s = Shape::BagShape(SizeBound::Mul(o.shape.card, inner.card),
                                  inner.ElementShape());
        return WalkResult{std::move(s), o.tower};
      }
      case ExprKind::kDupElim: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult o, Walk(n.children[0]));
        return o;  // |ε(B)| <= |B|, same elements
      }
      case ExprKind::kAttrProj: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult o, Walk(n.children[0]));
        if (o.shape.kind == Shape::Kind::kTuple && n.index >= 1 &&
            n.index <= o.shape.fields.size()) {
          return WalkResult{o.shape.fields[n.index - 1], o.tower};
        }
        return WalkResult{Widened(expr), o.tower};
      }
      case ExprKind::kMap: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult src, Walk(n.children[1]));
        binders_.push_back(src.shape.ElementShape());
        auto body = Walk(n.children[0]);
        binders_.pop_back();
        BAGALG_RETURN_IF_ERROR(body.status());
        // MAP preserves total cardinality exactly.
        Shape s = Shape::BagShape(src.shape.card,
                                  std::move(body.value().shape));
        return WalkResult{std::move(s),
                          std::max(src.tower, body.value().tower)};
      }
      case ExprKind::kSelect: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult src, Walk(n.children[2]));
        binders_.push_back(src.shape.ElementShape());
        auto lhs = Walk(n.children[0]);
        auto rhs = lhs.ok() ? Walk(n.children[1]) : lhs;
        binders_.pop_back();
        BAGALG_RETURN_IF_ERROR(lhs.status());
        BAGALG_RETURN_IF_ERROR(rhs.status());
        int tower = std::max({src.tower, lhs.value().tower,
                              rhs.value().tower});
        return WalkResult{src.shape, tower};  // σ only filters
      }
      case ExprKind::kNest: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult src, Walk(n.children[0]));
        const Shape& elem = src.shape.ElementShape();
        if (elem.kind != Shape::Kind::kTuple) {
          return WalkResult{Widened(expr), src.tower};
        }
        std::vector<bool> nested(elem.fields.size(), false);
        for (size_t a : n.attrs) {
          if (a >= 1 && a <= elem.fields.size()) nested[a - 1] = true;
        }
        std::vector<Shape> key;
        std::vector<Shape> group;
        for (size_t i = 0; i < elem.fields.size(); ++i) {
          (nested[i] ? group : key).push_back(elem.fields[i]);
        }
        // Each group bag is a sub-multiset of the source rows.
        key.push_back(Shape::BagShape(src.shape.card,
                                      Shape::TupleShape(std::move(group))));
        Shape s = Shape::BagShape(src.shape.card,
                                  Shape::TupleShape(std::move(key)));
        return WalkResult{std::move(s), src.tower};
      }
      case ExprKind::kUnnest: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult src, Walk(n.children[0]));
        const Shape& elem = src.shape.ElementShape();
        size_t a = n.attrs.empty() ? 0 : n.attrs[0];
        if (elem.kind != Shape::Kind::kTuple || a < 1 ||
            a > elem.fields.size() ||
            elem.fields[a - 1].kind != Shape::Kind::kBag) {
          return WalkResult{Widened(expr), src.tower};
        }
        const Shape& inner = elem.fields[a - 1];
        std::vector<Shape> fields = elem.fields;
        fields[a - 1] = inner.ElementShape();
        Shape s = Shape::BagShape(
            SizeBound::Mul(src.shape.card, inner.card),
            Shape::TupleShape(std::move(fields)));
        return WalkResult{std::move(s), src.tower};
      }
      case ExprKind::kIfp:
      case ExprKind::kBoundedIfp: {
        BAGALG_ASSIGN_OR_RETURN(WalkResult seed, Walk(n.children[1]));
        int tower = seed.tower;
        WalkResult bound;
        if (n.kind == ExprKind::kBoundedIfp) {
          BAGALG_ASSIGN_OR_RETURN(bound, Walk(n.children[2]));
          tower = std::max(tower, bound.tower);
        }
        // Widen the iterate: its cardinality is not statically bounded, so
        // the body is analyzed against an unknown-size binder.
        binders_.push_back(Widened(expr));
        auto body = Walk(n.children[0]);
        binders_.pop_back();
        BAGALG_RETURN_IF_ERROR(body.status());
        tower = std::max(tower, body.value().tower);
        if (n.kind == ExprKind::kBoundedIfp) {
          // Every iterate (and hence the result) is ∩-clamped to the bound.
          return WalkResult{bound.shape, tower};
        }
        return WalkResult{Widened(expr), tower};
      }
    }
    return Status::Internal("unhandled expression kind in cost analysis");
  }

  const Schema& schema_;
  const CostFacts& facts_;
  const std::map<const ExprNode*, Type>& node_types_;
  std::map<const ExprNode*, NodeCost>* out_;
  std::vector<Shape> binders_;
};

}  // namespace

Result<CostAnalysis> AnalyzeCost(const Expr& expr, const Schema& schema,
                                 const CostFacts& facts) {
  static obs::Counter* const runs =
      obs::GlobalMetrics().GetCounter("analysis.cost.runs");
  runs->Increment();
  // Typecheck first: the walker leans on well-typedness and the node types
  // drive fixpoint widening.
  std::map<const ExprNode*, Type> node_types;
  BAGALG_RETURN_IF_ERROR(AnalyzeExpr(expr, schema, &node_types).status());
  CostAnalysis analysis;
  CostWalker walker(schema, facts, node_types, &analysis.per_node);
  BAGALG_ASSIGN_OR_RETURN(WalkResult root, walker.Walk(expr));
  auto it = analysis.per_node.find(expr.raw());
  analysis.root = it != analysis.per_node.end()
                      ? it->second
                      : NodeCost{root.tower > 0
                                     ? Tractability::kExponentialTower
                                     : Tractability::kPolynomial,
                                 root.tower, SizeBound::Unknown()};
  return analysis;
}

// ---------------------------------------------------------------- budgets

namespace {

/// Pre-order traversal handing each node its operator path from the root,
/// e.g. "flat > sel > pow".
void VisitPaths(const Expr& expr, const std::string& prefix,
                const std::function<void(const Expr&, const std::string&)>&
                    visit) {
  std::string path = prefix.empty()
                         ? std::string(ExprKindName(expr->kind))
                         : prefix + " > " + ExprKindName(expr->kind);
  visit(expr, path);
  for (const Expr& c : expr->children) VisitPaths(c, path, visit);
}

}  // namespace

bool ExceedsBudget(const SizeBound& bound, const BigNat& max) {
  if (max.IsZero()) return false;
  switch (bound.kind) {
    case SizeBound::Kind::kUnknown:
      return false;
    case SizeBound::Kind::kAstronomical:
      return true;  // >= 2^2^20 exceeds any expressible budget
    case SizeBound::Kind::kPoly: {
      if (bound.poly.Degree() != 0) return false;  // symbolic: data-free
      BigInt c = bound.poly.ConstantTerm();
      return !c.IsNegative() && c.magnitude() > max;
    }
  }
  return false;
}

Status CheckBudget(const Expr& expr, const Database& db,
                   const CostBudget& budget) {
  return CheckBudget(
      expr, AnalyzeCost(expr, db.schema(), CostFacts::Exact(db)), budget);
}

Status CheckBudget(const Expr& expr, const Result<CostAnalysis>& analysis,
                   const CostBudget& budget) {
  // Ill-typed queries are admitted: evaluation produces the real error.
  if (!analysis.ok()) return Status::Ok();
  std::string offending_path;
  SizeBound offending;
  VisitPaths(expr, "", [&](const Expr& e, const std::string& path) {
    if (!offending_path.empty()) return;
    auto it = analysis->per_node.find(e.raw());
    if (it == analysis->per_node.end()) return;
    if (ExceedsBudget(it->second.bound, budget.max_estimated_size)) {
      offending_path = path;
      offending = it->second.bound;
    }
  });
  if (offending_path.empty()) return Status::Ok();
  std::string detail = "estimated output size " + offending.ToString() +
                       " at [" + offending_path + "] exceeds budget " +
                       budget.max_estimated_size.ToString();
  // Counted twice on purpose: `budget.*` is the original (back-compat)
  // family, `governor.preflight.*` folds admission-time refusals into the
  // governor family so static refusals and runtime trips are countable in
  // one place (static refuses what it can prove; the governor stops the
  // rest — see docs/ROBUSTNESS.md).
  if (budget.on_exceed == CostBudget::OnExceed::kWarn) {
    obs::GlobalMetrics().GetCounter("budget.warnings")->Increment();
    obs::GlobalMetrics().GetCounter("governor.preflight.warnings")->Increment();
    return Status::Ok();
  }
  obs::GlobalMetrics().GetCounter("budget.refusals")->Increment();
  obs::GlobalMetrics().GetCounter("governor.preflight.refusals")->Increment();
  return Status::BudgetExceeded(detail);
}

std::function<Status(const Expr&, const Database&)> MakeBudgetPreflight(
    CostBudget budget) {
  return [budget](const Expr& expr, const Database& db) {
    return CheckBudget(expr, db, budget);
  };
}

// ----------------------------------------------------------- explain cost

Result<std::string> ExplainCostExpr(const Expr& expr, const Schema& schema,
                                    const CostFacts& facts) {
  // Class and degree come from the symbolic analysis; a bound Database
  // additionally yields concrete estimates.
  BAGALG_ASSIGN_OR_RETURN(CostAnalysis symbolic,
                          AnalyzeCost(expr, schema, CostFacts::Symbolic()));
  CostAnalysis exact;
  bool have_exact = false;
  if (facts.db != nullptr) {
    auto r = AnalyzeCost(expr, schema, facts);
    if (r.ok()) {
      exact = std::move(r).value();
      have_exact = true;
    }
  }
  auto annotate = [&](const ExprNode* node) -> std::string {
    auto it = symbolic.per_node.find(node);
    if (it == symbolic.per_node.end()) return std::string();
    const NodeCost& c = it->second;
    std::ostringstream os;
    os << " [" << TractabilityName(c.cls);
    if (c.cls == Tractability::kExponentialTower) {
      os << " h=" << c.tower_height;
    } else if (c.bound.IsFinite()) {
      os << " deg=" << c.degree();
    }
    os << " size" << (c.bound.IsFinite() ? "" : "=")
       << c.bound.ToString();
    if (have_exact) {
      auto eit = exact.per_node.find(node);
      if (eit != exact.per_node.end()) {
        os << " est" << (eit->second.bound.IsFinite() ? "" : "=")
           << eit->second.bound.ToString();
      }
    }
    os << "]";
    return os.str();
  };
  return ExplainExprAnnotated(expr, schema, annotate);
}

}  // namespace bagalg::analysis
