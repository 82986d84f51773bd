// Tests for the semantic bag operations (paper §3), including the paper's
// exact quantitative claims:
//  * §1 / §5: |P(n·a)| = n+1 distinct subbags, |P_b(n·a)| has total 2^n;
//  * Definition 5.1's worked example P_b({{a,a}}) vs P({{a,a}});
//  * Proposition 3.2's claim: δ(P(B)) has m(m+1)^k/2 occurrences of each
//    constant, δδPP(B) has 2^((m+1)^k − 2)·(m+1)^k·m;
//  * algebraic laws (commutativity/associativity, monus identities);
//  * resource-limit failure injection.

#include "src/core/bag_ops.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "src/core/encoding.h"
#include "src/core/iso.h"
#include "src/stats/sampler.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }

Bag B(std::initializer_list<std::pair<Value, uint64_t>> items) {
  return MakeBag(items);
}

// ------------------------------------------------------------ basic merges

TEST(BagOpsTest, AdditiveUnionAddsCounts) {
  Bag a = B({{A("x"), 2}, {A("y"), 1}});
  Bag b = B({{A("x"), 3}, {A("z"), 4}});
  auto r = AdditiveUnion(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(5));
  EXPECT_EQ(r->CountOf(A("y")), Mult(1));
  EXPECT_EQ(r->CountOf(A("z")), Mult(4));
  EXPECT_EQ(r->TotalCount(), Mult(10));
}

TEST(BagOpsTest, SubtractIsMonus) {
  Bag a = B({{A("x"), 2}, {A("y"), 5}});
  Bag b = B({{A("x"), 3}, {A("y"), 2}});
  auto r = Subtract(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(0));  // sup(0, 2-3)
  EXPECT_EQ(r->CountOf(A("y")), Mult(3));
  EXPECT_EQ(r->DistinctCount(), 1u);  // zero-count entries dropped
}

TEST(BagOpsTest, MaxUnionTakesSup) {
  Bag a = B({{A("x"), 2}, {A("y"), 5}});
  Bag b = B({{A("x"), 3}});
  auto r = MaxUnion(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(3));
  EXPECT_EQ(r->CountOf(A("y")), Mult(5));
}

TEST(BagOpsTest, IntersectTakesInf) {
  Bag a = B({{A("x"), 2}, {A("y"), 5}});
  Bag b = B({{A("x"), 3}, {A("z"), 1}});
  auto r = Intersect(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(2));
  EXPECT_FALSE(r->Contains(A("y")));
  EXPECT_FALSE(r->Contains(A("z")));
}

TEST(BagOpsTest, MergeOpsRejectIncompatibleTypes) {
  Bag atoms = MakeBagOf({A("x")});
  Bag tuples = MakeBagOf({MakeTuple({A("x")})});
  EXPECT_FALSE(AdditiveUnion(atoms, tuples).ok());
  EXPECT_FALSE(Subtract(atoms, tuples).ok());
  EXPECT_FALSE(MaxUnion(atoms, tuples).ok());
  EXPECT_FALSE(Intersect(atoms, tuples).ok());
}

TEST(BagOpsTest, MergeWithTypedEmptyKeepsType) {
  Bag a = MakeBagOf({MakeTuple({A("x")})});
  Bag empty(Type::Tuple({Type::Atom()}));
  auto r = AdditiveUnion(a, empty);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, a);
}

// -------------------------------------------------------- Cartesian product

TEST(BagOpsTest, ProductMultipliesCounts) {
  Bag a = B({{MakeTuple({A("x")}), 2}});
  Bag b = B({{MakeTuple({A("y"), A("z")}), 3}});
  auto r = CartesianProduct(a, b);
  ASSERT_TRUE(r.ok());
  Value t = MakeTuple({A("x"), A("y"), A("z")});
  EXPECT_EQ(r->CountOf(t), Mult(6));
  EXPECT_EQ(r->DistinctCount(), 1u);
}

TEST(BagOpsTest, ProductRequiresTuples) {
  Bag atoms = MakeBagOf({A("x")});
  Bag tuples = MakeBagOf({MakeTuple({A("x")})});
  EXPECT_FALSE(CartesianProduct(atoms, tuples).ok());
}

TEST(BagOpsTest, ProductWithEmptyIsTypedEmpty) {
  Bag a = MakeBagOf({MakeTuple({A("x")})});
  Bag empty(Type::Tuple({Type::Atom(), Type::Atom()}));
  auto r = CartesianProduct(a, empty);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(r->element_type(),
            Type::Tuple({Type::Atom(), Type::Atom(), Type::Atom()}));
}

// ---------------------------------------------------------------- powerset

TEST(BagOpsTest, PowersetOfNDuplicatesHasNPlusOneSubbags) {
  // §1: "the powerset of a bag containing n occurrences of a single
  // constant has cardinality n+1".
  for (uint64_t n = 0; n <= 8; ++n) {
    Bag bn = NCopies(Mult(n), A("a"));
    auto p = Powerset(bn);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->TotalCount(), Mult(n + 1)) << "n=" << n;
    EXPECT_TRUE(p->IsSetLike());
  }
}

TEST(BagOpsTest, PowersetWorkedExample) {
  // P({{a,a}}) = {{ {{}}, {{a}}, {{a,a}} }} (§5, Definition 5.1 example).
  Bag b = B({{A("a"), 2}});
  auto p = Powerset(b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->TotalCount(), Mult(3));
  EXPECT_EQ(p->CountOf(Value::FromBag(Bag())), Mult(1));
  EXPECT_EQ(p->CountOf(Value::FromBag(B({{A("a"), 1}}))), Mult(1));
  EXPECT_EQ(p->CountOf(Value::FromBag(B({{A("a"), 2}}))), Mult(1));
}

TEST(BagOpsTest, PowersetCountsProductOfMultPlusOne) {
  // Distinct subbags of a bag with multiplicities m_i number Π (m_i + 1).
  Bag b = B({{A("a"), 2}, {A("b"), 3}, {A("c"), 1}});
  auto p = Powerset(b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->TotalCount(), Mult(3 * 4 * 2));
  // Every member is a subbag of b, each exactly once.
  for (const BagEntry& e : p->entries()) {
    EXPECT_EQ(e.count, Mult(1));
    EXPECT_TRUE(e.value.bag().SubBagOf(b));
  }
}

TEST(BagOpsTest, PowersetOfEmptyIsSingletonEmpty) {
  auto p = Powerset(Bag(Type::Atom()));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->TotalCount(), Mult(1));
  EXPECT_EQ(p->entries()[0].value, Value::FromBag(Bag()));
}

// ---------------------------------------------------------------- powerbag

TEST(BagOpsTest, PowerbagWorkedExample) {
  // P_b({{a,a}}) = {{ {{}}, {{a}}, {{a}}, {{a,a}} }} (Definition 5.1).
  Bag b = B({{A("a"), 2}});
  auto p = Powerbag(b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->TotalCount(), Mult(4));
  EXPECT_EQ(p->CountOf(Value::FromBag(Bag())), Mult(1));
  EXPECT_EQ(p->CountOf(Value::FromBag(B({{A("a"), 1}}))), Mult(2));
  EXPECT_EQ(p->CountOf(Value::FromBag(B({{A("a"), 2}}))), Mult(1));
}

TEST(BagOpsTest, PowerbagTotalIsTwoToTheCardinality) {
  // §1: the powerbag of n occurrences of one constant has cardinality 2^n.
  for (uint64_t n = 0; n <= 10; ++n) {
    Bag bn = NCopies(Mult(n), A("a"));
    auto p = Powerbag(bn);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->TotalCount(), BigNat::TwoPow(n)) << "n=" << n;
  }
  // And in general for mixed multiplicities: total 2^|B|.
  Bag b = B({{A("a"), 3}, {A("b"), 2}});
  auto p = Powerbag(b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->TotalCount(), BigNat::TwoPow(5));
}

TEST(BagOpsTest, PowerbagCountsAreBinomialProducts) {
  Bag b = B({{A("a"), 3}, {A("b"), 2}});
  auto p = Powerbag(b);
  ASSERT_TRUE(p.ok());
  // Subbag {a*2, b*1} appears C(3,2)*C(2,1) = 6 times.
  Value sub = Value::FromBag(B({{A("a"), 2}, {A("b"), 1}}));
  EXPECT_EQ(p->CountOf(sub), Mult(6));
}

TEST(BagOpsTest, PowerbagEqualsPowersetOnSets) {
  // On duplicate-free bags the two operators agree (§3's remark that the
  // bag operators restrict to the relational ones on sets).
  Rng rng(7);
  FlatBagSpec spec;
  spec.max_mult = 1;
  Bag set_like = DupElim(RandomFlatBag(rng, spec)).value();
  auto ps = Powerset(set_like);
  auto pb = Powerbag(set_like);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(*ps, *pb);
}

// ------------------------------------------------------------- bag-destroy

TEST(BagOpsTest, BagDestroyFlattensWithAdditiveUnion) {
  Bag b1 = B({{A("x"), 2}});
  Bag b2 = B({{A("x"), 1}, {A("y"), 1}});
  Bag outer = MakeBagOf({Value::FromBag(b1), Value::FromBag(b2)});
  auto r = BagDestroy(outer);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(3));
  EXPECT_EQ(r->CountOf(A("y")), Mult(1));
}

TEST(BagOpsTest, BagDestroyScalesByOuterMultiplicity) {
  Bag inner = B({{A("x"), 2}});
  Bag outer = B({{Value::FromBag(inner), 5}});
  auto r = BagDestroy(outer);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(10));
}

TEST(BagOpsTest, BagDestroyRequiresBagElements) {
  Bag flat = MakeBagOf({A("x")});
  EXPECT_FALSE(BagDestroy(flat).ok());
}

// -------------------------------------------------- Proposition 3.2 claims

TEST(BagOpsTest, Prop32DeltaPowersetExactFormula) {
  // If B holds k constants with m occurrences each, δ(P(B)) contains
  // m(m+1)^k / 2 occurrences of each constant.
  for (uint64_t k = 1; k <= 3; ++k) {
    for (uint64_t m = 1; m <= 3; ++m) {
      Bag::Builder builder;
      for (uint64_t i = 0; i < k; ++i) {
        builder.Add(A(('c' + std::to_string(i)).c_str()), Mult(m));
      }
      Bag b = std::move(std::move(builder).Build()).value();
      auto dp = BagDestroy(Powerset(b).value());
      ASSERT_TRUE(dp.ok());
      BigNat expected = Mult(m) * BigNat::Pow(Mult(m + 1), k);
      auto half = expected.DivMod(Mult(2));
      ASSERT_TRUE(half.ok());
      ASSERT_TRUE(half->remainder.IsZero());
      for (uint64_t i = 0; i < k; ++i) {
        EXPECT_EQ(dp->CountOf(A(('c' + std::to_string(i)).c_str())),
                  half->quotient)
            << "k=" << k << " m=" << m;
      }
    }
  }
}

TEST(BagOpsTest, Prop32DoubleDeltaDoublePowersetExactFormula) {
  // δδPP(B) contains 2^((m+1)^k − 2) · (m+1)^k · m occurrences of each
  // constant (Prop 3.2 claim).
  for (uint64_t k = 1; k <= 2; ++k) {
    for (uint64_t m = 1; m <= 2; ++m) {
      Bag::Builder builder;
      for (uint64_t i = 0; i < k; ++i) {
        builder.Add(A(('d' + std::to_string(i)).c_str()), Mult(m));
      }
      Bag b = std::move(std::move(builder).Build()).value();
      Limits limits;
      limits.max_powerset_results = 1u << 20;
      auto pp = Powerset(Powerset(b, limits).value(), limits);
      ASSERT_TRUE(pp.ok());
      auto dd = BagDestroy(BagDestroy(*pp).value());
      ASSERT_TRUE(dd.ok());
      uint64_t mp1k = 1;
      for (uint64_t i = 0; i < k; ++i) mp1k *= (m + 1);
      BigNat expected =
          BigNat::TwoPow(mp1k - 2) * BigNat(mp1k) * BigNat(m);
      for (uint64_t i = 0; i < k; ++i) {
        EXPECT_EQ(dd->CountOf(A(('d' + std::to_string(i)).c_str())), expected)
            << "k=" << k << " m=" << m;
      }
    }
  }
}

TEST(BagOpsTest, Prop32PowerbagExplodesEachStep) {
  // (δ P_b)^i multiplies the bag size by 2^|B| each round: iterating from
  // |B|=2 gives sizes 2 -> 2·? ... measured here via total counts.
  Bag b = NCopies(Mult(2), A("a"));
  Limits limits;
  limits.max_mult_bits = 1u << 16;
  auto step1 = BagDestroy(Powerbag(b, limits).value(), limits);
  ASSERT_TRUE(step1.ok());
  // δ(P_b(B)): every occurrence participates in half of the 2^n occurrence
  // subsets: n · 2^(n-1) total occurrences. n=2 -> 4.
  EXPECT_EQ(step1->TotalCount(), Mult(4));
  auto step2 = BagDestroy(Powerbag(*step1, limits).value(), limits);
  ASSERT_TRUE(step2.ok());
  // n=4 -> 4 · 2^3 = 32.
  EXPECT_EQ(step2->TotalCount(), Mult(32));
  auto step3 = BagDestroy(Powerbag(*step2, limits).value(), limits);
  ASSERT_TRUE(step3.ok());
  // n=32 -> 32 · 2^31.
  EXPECT_EQ(step3->TotalCount(), Mult(32) * BigNat::TwoPow(31));
}

// ----------------------------------------------------------------- filters

TEST(BagOpsTest, DupElimKeepsOneOfEach) {
  Bag b = B({{A("x"), 7}, {A("y"), 1}});
  auto r = DupElim(b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("x")), Mult(1));
  EXPECT_EQ(r->CountOf(A("y")), Mult(1));
  EXPECT_TRUE(r->IsSetLike());
}

TEST(BagOpsTest, MapAddsImageMultiplicities) {
  // MAP λx.β(x) example from §3 and image-collision counting.
  Bag b = B({{A("a"), 2}, {A("b"), 1}});
  auto r = MapBag(b, [](const Value&) -> Result<Value> {
    return MakeAtom("k");
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(A("k")), Mult(3));  // n = n1 + n2
}

TEST(BagOpsTest, MapBagBetaExample) {
  // MAP β ({{a, a, b}}) = {{ {{a}}, {{a}}, {{b}} }} (§3 example).
  Bag b = B({{A("a"), 2}, {A("b"), 1}});
  auto r = MapBag(b, [](const Value& v) -> Result<Value> {
    return Value::FromBag(MakeBagOf({v}));
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->CountOf(Value::FromBag(MakeBagOf({A("a")}))), Mult(2));
  EXPECT_EQ(r->CountOf(Value::FromBag(MakeBagOf({A("b")}))), Mult(1));
}

TEST(BagOpsTest, SelectKeepsMultiplicities) {
  Bag b = B({{MakeTuple({A("a"), A("a")}), 3}, {MakeTuple({A("a"), A("b")}), 2}});
  auto r = SelectBag(b, [](const Value& v) -> Result<bool> {
    return v.fields()[0] == v.fields()[1];
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->TotalCount(), Mult(3));
  EXPECT_EQ(r->CountOf(MakeTuple({A("a"), A("a")})), Mult(3));
}

// ---------------------------------------------------------- nest / unnest

TEST(BagOpsTest, NestGroupsByComplementAttributes) {
  Bag b = B({{MakeTuple({A("g1"), A("x")}), 2},
             {MakeTuple({A("g1"), A("y")}), 1},
             {MakeTuple({A("g2"), A("x")}), 1}});
  auto r = Nest(b, {1});  // nest the second attribute (0-based here)
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->DistinctCount(), 2u);
  Value g1_group = Value::FromBag(
      B({{MakeTuple({A("x")}), 2}, {MakeTuple({A("y")}), 1}}));
  EXPECT_EQ(r->CountOf(MakeTuple({A("g1"), g1_group})), Mult(1));
}

TEST(BagOpsTest, UnnestInvertsNestOnGroups) {
  Bag b = B({{MakeTuple({A("g1"), A("x")}), 2},
             {MakeTuple({A("g1"), A("y")}), 1},
             {MakeTuple({A("g2"), A("x")}), 1}});
  auto nested = Nest(b, {1});
  ASSERT_TRUE(nested.ok());
  auto back = Unnest(*nested, 1);
  ASSERT_TRUE(back.ok());
  // Unnest yields tuples [group_key, inner_tuple]; flattening the inner
  // unary tuples recovers the original pairs.
  auto flat = MapBag(*back, [](const Value& v) -> Result<Value> {
    return MakeTuple({v.fields()[0], v.fields()[1].fields()[0]});
  });
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(*flat, b);
}

// -------------------------------------------------------------- properties

class BagOpsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BagOpsPropertyTest, AlgebraicLaws) {
  Rng rng(GetParam());
  FlatBagSpec spec;
  for (int i = 0; i < 25; ++i) {
    Bag a = RandomFlatBag(rng, spec);
    Bag b = RandomFlatBag(rng, spec);
    Bag c = RandomFlatBag(rng, spec);
    // Commutativity (§3: ⊎, ∪, ∩ are commutative).
    EXPECT_EQ(*AdditiveUnion(a, b), *AdditiveUnion(b, a));
    EXPECT_EQ(*MaxUnion(a, b), *MaxUnion(b, a));
    EXPECT_EQ(*Intersect(a, b), *Intersect(b, a));
    // Associativity (§3: ⊎, ∪, ∩, × are associative).
    EXPECT_EQ(*AdditiveUnion(*AdditiveUnion(a, b), c),
              *AdditiveUnion(a, *AdditiveUnion(b, c)));
    EXPECT_EQ(*MaxUnion(*MaxUnion(a, b), c), *MaxUnion(a, *MaxUnion(b, c)));
    EXPECT_EQ(*Intersect(*Intersect(a, b), c),
              *Intersect(a, *Intersect(b, c)));
    EXPECT_EQ(*CartesianProduct(CartesianProduct(a, b).value(), c),
              *CartesianProduct(a, CartesianProduct(b, c).value()));
    // Monus laws: (a ⊎ b) − b = a; a − a = ∅.
    EXPECT_EQ(*Subtract(*AdditiveUnion(a, b), b), a);
    EXPECT_TRUE(Subtract(a, a)->empty());
    // ∪ and ∩ from ⊎ and − ([Alb91], §3): a ∩ b = a − (a − b),
    // a ∪ b = (a − b) ⊎ b.
    EXPECT_EQ(*Intersect(a, b), *Subtract(a, *Subtract(a, b)));
    EXPECT_EQ(*MaxUnion(a, b), *AdditiveUnion(*Subtract(a, b), b));
  }
}

TEST_P(BagOpsPropertyTest, SetRestrictionMatchesRelationalSemantics) {
  // On duplicate-free bags, −, ∩, ∪ behave exactly as set operations (§3).
  Rng rng(GetParam() ^ 0x5555);
  FlatBagSpec spec;
  spec.max_mult = 1;
  for (int i = 0; i < 25; ++i) {
    // Repeated draws of the same tuple merge to multiplicity > 1, so
    // deduplicate to obtain genuine sets.
    Bag a = DupElim(RandomFlatBag(rng, spec)).value();
    Bag b = DupElim(RandomFlatBag(rng, spec)).value();
    auto u = MaxUnion(a, b);
    auto n = Intersect(a, b);
    auto d = Subtract(a, b);
    ASSERT_TRUE(u.ok() && n.ok() && d.ok());
    EXPECT_TRUE(u->IsSetLike());
    for (const BagEntry& e : u->entries()) {
      EXPECT_TRUE(a.Contains(e.value) || b.Contains(e.value));
    }
    for (const BagEntry& e : n->entries()) {
      EXPECT_TRUE(a.Contains(e.value) && b.Contains(e.value));
    }
    for (const BagEntry& e : d->entries()) {
      EXPECT_TRUE(a.Contains(e.value) && !b.Contains(e.value));
    }
  }
}

TEST_P(BagOpsPropertyTest, GenericityUnderAtomPermutation) {
  // Operations commute with database isomorphisms (§2 genericity).
  Rng rng(GetParam() ^ 0x777);
  FlatBagSpec spec;
  for (int i = 0; i < 10; ++i) {
    Bag a = RandomFlatBag(rng, spec);
    Bag b = RandomFlatBag(rng, spec);
    std::unordered_set<AtomId> atom_set;
    CollectAtoms(a, &atom_set);
    CollectAtoms(b, &atom_set);
    std::vector<AtomId> atoms(atom_set.begin(), atom_set.end());
    Isomorphism h = Isomorphism::RandomPermutation(atoms, rng);
    auto lhs = h.Apply(*AdditiveUnion(a, b));
    auto rhs = AdditiveUnion(*h.Apply(a), *h.Apply(b));
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs);
    auto lhs2 = h.Apply(*Powerset(a));
    auto rhs2 = Powerset(*h.Apply(a));
    ASSERT_TRUE(lhs2.ok() && rhs2.ok());
    EXPECT_EQ(*lhs2, *rhs2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagOpsPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// --------------------------------------------------------- failure injection

TEST(BagOpsLimitsTest, PowersetRespectsResultBudget) {
  Bag b = NCopies(Mult(1000), A("a"));
  Limits limits;
  limits.max_powerset_results = 100;
  auto p = Powerset(b, limits);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

TEST(BagOpsLimitsTest, PowerbagRespectsMultBudget) {
  Bag b = NCopies(Mult(100000), A("a"));
  Limits limits;
  limits.max_powerset_results = 1u << 20;
  limits.max_mult_bits = 8;
  auto p = Powerbag(b, limits);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

TEST(BagOpsLimitsTest, ProductRespectsDistinctBudget) {
  Bag::Builder ba, bb;
  for (int i = 0; i < 40; ++i) {
    ba.AddOne(MakeTuple({MakeAtom('l' + std::to_string(i))}));
    bb.AddOne(MakeTuple({MakeAtom('r' + std::to_string(i))}));
  }
  Bag a = std::move(std::move(ba).Build()).value();
  Bag b = std::move(std::move(bb).Build()).value();
  Limits limits;
  limits.max_distinct = 100;  // 40*40 = 1600 > 100
  auto p = CartesianProduct(a, b, limits);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

TEST(BagOpsLimitsTest, BagDestroyRespectsMultBudget) {
  Bag inner = NCopies(BigNat::TwoPow(40), A("a"));
  Bag outer = B({{Value::FromBag(inner), 1u << 30}});
  Limits limits;
  limits.max_mult_bits = 32;
  auto r = BagDestroy(outer, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------- determinism across thread counts

/// Restores the default pool configuration when a test exits.
struct PoolConfigGuard {
  ~PoolConfigGuard() { ThreadPool::Configure(ParallelOptions::Default()); }
};

/// A bag of `n` distinct unary tuples with varying multiplicities.
Bag WideTupleBag(size_t n, const char* prefix) {
  Bag::Builder builder;
  for (size_t i = 0; i < n; ++i) {
    builder.Add(MakeTuple({MakeAtom(prefix + std::to_string(i))}),
                Mult(i % 5 + 1));
  }
  return std::move(builder).Build().value();
}

struct KernelResults {
  Bag uni, sub, prod, pset, pbag;
};

KernelResults RunKernels(const Bag& left, const Bag& right,
                         const Bag& multbag) {
  KernelResults r;
  r.uni = AdditiveUnion(left, right).value();
  r.sub = Subtract(left, right).value();
  r.prod = CartesianProduct(left, right).value();
  r.pset = Powerset(multbag).value();
  r.pbag = Powerbag(multbag).value();
  return r;
}

void ExpectIdentical(const KernelResults& x, const KernelResults& y) {
  // Byte-identical: canonical equality, hash, and rendering all agree.
  const Bag* xs[] = {&x.uni, &x.sub, &x.prod, &x.pset, &x.pbag};
  const Bag* ys[] = {&y.uni, &y.sub, &y.prod, &y.pset, &y.pbag};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(*xs[i], *ys[i]) << "kernel " << i;
    EXPECT_EQ(xs[i]->Hash(), ys[i]->Hash()) << "kernel " << i;
    EXPECT_EQ(xs[i]->ToString(), ys[i]->ToString()) << "kernel " << i;
  }
}

TEST(BagOpsDeterminismTest, KernelsIdenticalForOneTwoAndEightThreads) {
  PoolConfigGuard guard;
  // 64x64 product = 4096 pairs (above the pair grain) and a powerset of
  // 8^4 = 4096 subbags (above the subbag grain), so the multi-thread
  // configurations genuinely dispatch in parallel.
  Bag left = WideTupleBag(64, "dl");
  Bag right = WideTupleBag(64, "dr");
  Bag multbag = B({{A("p"), 7}, {A("q"), 7}, {A("r"), 7}, {A("s"), 7}});

  ThreadPool::Configure({1, 4096});
  KernelResults serial = RunKernels(left, right, multbag);
  ThreadPool::Configure({2, 64});
  KernelResults two = RunKernels(left, right, multbag);
  ThreadPool::Configure({8, 16});
  KernelResults eight = RunKernels(left, right, multbag);

  ExpectIdentical(serial, two);
  ExpectIdentical(serial, eight);
  // Sanity: the parallel runs computed the real thing.
  EXPECT_EQ(serial.prod.DistinctCount(), 64u * 64u);
  EXPECT_EQ(serial.pset.DistinctCount(), 4096u);
  EXPECT_EQ(serial.pbag.TotalCount(),
            BigNat::TwoPow(7 * 4));  // |P_b(B)| = 2^|B|
}

TEST(BagOpsDeterminismTest, BuilderCanonicalizationIdenticalAcrossThreads) {
  PoolConfigGuard guard;
  Rng rng(2024);
  FlatBagSpec spec;
  spec.arity = 2;
  spec.num_atoms = 12;
  spec.num_elements = 20000;  // large enough for the parallel sort path
  spec.max_mult = 9;
  ThreadPool::Configure({1, 4096});
  Bag serial = RandomFlatBag(rng, spec);
  rng = Rng(2024);
  ThreadPool::Configure({8, 128});
  Bag parallel = RandomFlatBag(rng, spec);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.Hash(), parallel.Hash());
  EXPECT_EQ(serial.ToString(), parallel.ToString());
}

// ------------------------------------------------ indexed merge fast paths

TEST(BagOpsIndexTest, IndexedIntersectMatchesMergeWalk) {
  // large is big enough to carry a hash index and small is a fraction of
  // it, so Intersect takes the probe path; verify against a linear scan.
  Bag large = WideTupleBag(256, "ix");
  Bag::Builder sb;
  for (size_t i = 0; i < 32; ++i) {
    // Every other element overlaps with `large`.
    const std::string name =
        i % 2 == 0 ? "ix" + std::to_string(i * 4) : "only" + std::to_string(i);
    sb.Add(MakeTuple({MakeAtom(name)}), Mult(2));
  }
  Bag small = std::move(sb).Build().value();

  auto isect = Intersect(small, large);
  ASSERT_TRUE(isect.ok());
  auto isect_flipped = Intersect(large, small);
  ASSERT_TRUE(isect_flipped.ok());
  EXPECT_EQ(*isect, *isect_flipped);

  Bag::Builder expected;
  for (const BagEntry& e : small.entries()) {
    Mult in_large;
    for (const BagEntry& f : large.entries()) {
      if (f.value == e.value) in_large = f.count;
    }
    Mult m = Mult::Min(e.count, in_large);
    if (!m.IsZero()) expected.Add(e.value, std::move(m));
  }
  EXPECT_EQ(*isect, std::move(expected).Build().value());
}

TEST(BagOpsIndexTest, IndexedSubtractMatchesMergeWalk) {
  Bag large = WideTupleBag(256, "sx");
  Bag::Builder sb;
  for (size_t i = 0; i < 32; ++i) {
    const std::string name =
        i % 2 == 0 ? "sx" + std::to_string(i * 4) : "keep" + std::to_string(i);
    sb.Add(MakeTuple({MakeAtom(name)}), Mult(3));
  }
  Bag small = std::move(sb).Build().value();

  auto diff = Subtract(small, large);
  ASSERT_TRUE(diff.ok());
  Bag::Builder expected;
  for (const BagEntry& e : small.entries()) {
    Mult in_large;
    for (const BagEntry& f : large.entries()) {
      if (f.value == e.value) in_large = f.count;
    }
    Mult m = e.count.MonusSub(in_large);
    if (!m.IsZero()) expected.Add(e.value, std::move(m));
  }
  EXPECT_EQ(*diff, std::move(expected).Build().value());
}

TEST(BagOpsIndexTest, EmptyOperandIdentities) {
  Bag a = WideTupleBag(8, "eid");
  Bag empty;
  EXPECT_EQ(AdditiveUnion(a, empty).value(), a);
  EXPECT_EQ(AdditiveUnion(empty, a).value(), a);
  EXPECT_EQ(MaxUnion(a, empty).value(), a);
  EXPECT_EQ(Subtract(a, empty).value(), a);
  EXPECT_TRUE(Subtract(empty, a).value().empty());
  EXPECT_TRUE(Intersect(a, empty).value().empty());
  EXPECT_TRUE(Intersect(empty, a).value().empty());
  // Typed-empty results keep the joined element type.
  EXPECT_EQ(Intersect(a, empty).value().element_type(), a.element_type());
}

}  // namespace
}  // namespace bagalg
