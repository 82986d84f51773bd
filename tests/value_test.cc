// Tests for complex-object values and canonical counted bags (paper §2):
// construction, n-membership, canonicalization, ordering, subbag relation,
// rendering, and the standard-encoding size measure.

#include "src/core/value.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "src/core/encoding.h"
#include "src/core/iso.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }

TEST(ValueTest, AtomBasics) {
  Value a = A("a");
  EXPECT_TRUE(a.IsAtom());
  EXPECT_EQ(a.type(), Type::Atom());
  EXPECT_EQ(a.ToString(), "a");
  EXPECT_EQ(a, A("a"));
  EXPECT_NE(a, A("b"));
}

TEST(ValueTest, TupleBasics) {
  Value t = MakeTuple({A("a"), A("b")});
  EXPECT_TRUE(t.IsTuple());
  EXPECT_EQ(t.fields().size(), 2u);
  EXPECT_EQ(t.type(), Type::Tuple({Type::Atom(), Type::Atom()}));
  EXPECT_EQ(t.ToString(), "[a, b]");
}

TEST(ValueTest, DefaultValueIsEmptyTuple) {
  Value v;
  EXPECT_TRUE(v.IsTuple());
  EXPECT_EQ(v.fields().size(), 0u);
}

TEST(ValueTest, NestedBagValue) {
  Bag inner = MakeBagOf({A("a"), A("b")});
  Value v = Value::FromBag(inner);
  EXPECT_TRUE(v.IsBag());
  EXPECT_EQ(v.type(), Type::Bag(Type::Atom()));
  EXPECT_EQ(v.bag(), inner);
}

TEST(BagTest, CanonicalizationMergesDuplicates) {
  Bag b = MakeBag({{A("b"), 2}, {A("a"), 1}, {A("b"), 3}});
  ASSERT_EQ(b.DistinctCount(), 2u);
  // Entries are sorted by the value order (atom ids) and counts merged.
  EXPECT_LT(b.entries()[0].value.Compare(b.entries()[1].value), 0);
  EXPECT_EQ(b.CountOf(A("a")), Mult(1));
  EXPECT_EQ(b.CountOf(A("b")), Mult(5));
  EXPECT_EQ(b.TotalCount(), Mult(6));
}

TEST(BagTest, NMembership) {
  // "an element n-belongs to a bag if it has exactly n occurrences" (§2).
  Bag b = MakeBag({{A("a"), 3}, {A("c"), 1}});
  EXPECT_EQ(b.CountOf(A("a")), Mult(3));
  EXPECT_EQ(b.CountOf(A("c")), Mult(1));
  EXPECT_EQ(b.CountOf(A("zz")), Mult(0));
  EXPECT_TRUE(b.Contains(A("a")));
  EXPECT_FALSE(b.Contains(A("zz")));
}

TEST(BagTest, ZeroCountAdditionsIgnored) {
  Bag::Builder builder;
  builder.Add(A("a"), Mult(0));
  auto b = std::move(builder).Build();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
}

TEST(BagTest, InhomogeneousBuildFails) {
  Bag::Builder builder;
  builder.AddOne(A("a"));
  builder.AddOne(MakeTuple({A("a")}));
  auto b = std::move(builder).Build();
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kTypeError);
}

TEST(BagTest, DeclaredElementTypeSurvivesEmptiness) {
  Bag b(Type::Tuple({Type::Atom()}));
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.element_type(), Type::Tuple({Type::Atom()}));
  EXPECT_EQ(b.type(), Type::Bag(Type::Tuple({Type::Atom()})));
}

TEST(BagTest, EmptyBagsEqualRegardlessOfElementType) {
  Bag a(Type::Atom());
  Bag b(Type::Tuple({Type::Atom(), Type::Atom()}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(BagTest, SetLikeDetection) {
  EXPECT_TRUE(MakeBagOf({A("a"), A("b")}).IsSetLike());
  EXPECT_FALSE(MakeBag({{A("a"), 2}}).IsSetLike());
  EXPECT_TRUE(Bag().IsSetLike());
}

TEST(BagTest, SubBagRelation) {
  Bag big = MakeBag({{A("a"), 3}, {A("b"), 1}});
  EXPECT_TRUE(MakeBag({{A("a"), 2}}).SubBagOf(big));
  EXPECT_TRUE(MakeBag({{A("a"), 3}, {A("b"), 1}}).SubBagOf(big));
  EXPECT_TRUE(Bag().SubBagOf(big));
  EXPECT_FALSE(MakeBag({{A("a"), 4}}).SubBagOf(big));
  EXPECT_FALSE(MakeBag({{A("zzz"), 1}}).SubBagOf(big));
  EXPECT_FALSE(big.SubBagOf(MakeBag({{A("a"), 3}})));
}

TEST(BagTest, NCopiesBuildsThePaperBn) {
  Bag bn = NCopies(Mult(7), MakeTuple({A("a")}));
  EXPECT_EQ(bn.DistinctCount(), 1u);
  EXPECT_EQ(bn.TotalCount(), Mult(7));
}

TEST(ValueTest, TotalOrderIsConsistent) {
  // atoms < tuples < bags; recursive lexicographic within kinds.
  std::vector<Value> values = {
      A("a"),
      MakeTuple({A("a")}),
      Value::FromBag(MakeBagOf({A("a")})),
      MakeTuple({A("a"), A("b")}),
      Value::FromBag(MakeBag({{A("a"), 2}})),
  };
  for (const Value& x : values) {
    EXPECT_EQ(x.Compare(x), 0);
    for (const Value& y : values) {
      EXPECT_EQ(x.Compare(y), -y.Compare(x));
      for (const Value& z : values) {
        if (x.Compare(y) < 0 && y.Compare(z) < 0) {
          EXPECT_LT(x.Compare(z), 0);
        }
      }
    }
  }
}

TEST(ValueTest, EqualValuesShareHash) {
  Value v1 = Value::FromBag(MakeBag({{MakeTuple({A("a"), A("b")}), 5}}));
  Value v2 = Value::FromBag(MakeBag({{MakeTuple({A("a"), A("b")}), 5}}));
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1.Hash(), v2.Hash());
}

TEST(ValueTest, RenderingWithMultiplicities) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 3}, {MakeTuple({A("b"), A("a")}), 1}});
  EXPECT_EQ(b.ToString(), "{{[a, b]*3, [b, a]}}");
}

TEST(EncodingTest, StandardSizeWeighsDuplicates) {
  // Standard encoding repeats each object per occurrence (§2).
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 3}});
  // Tuple [a, b] weighs 1 + 1 + 1 = 3; three occurrences -> 9.
  EXPECT_EQ(StandardEncodingSize(b), BigNat(9));
  // Counted representation charges the tuple once plus one limb.
  EXPECT_EQ(CountedEncodingSize(b), 4u);
}

TEST(EncodingTest, StandardSizeNested) {
  Bag inner = MakeBag({{A("a"), 2}});       // size 2
  Bag outer = MakeBag({{Value::FromBag(inner), 3}});  // 3 * (2 + 1)
  EXPECT_EQ(StandardEncodingSize(outer), BigNat(9));
}

TEST(EncodingTest, MaxMultiplicityFindsNestedCounts) {
  Bag inner = MakeBag({{A("a"), 17}});
  Bag outer = MakeBag({{Value::FromBag(inner), 3}});
  EXPECT_EQ(MaxMultiplicity(outer), BigNat(17));
}

TEST(IsoTest, RenamingPreservesStructureAndCounts) {
  AtomId a = GlobalAtom("a"), b = GlobalAtom("b"), c = GlobalAtom("c");
  Isomorphism iso;
  iso.Map(a, b);
  iso.Map(b, c);
  iso.Map(c, a);
  Bag bag = MakeBag({{MakeTuple({A("a"), A("b")}), 2}, {MakeTuple({A("c"), A("c")}), 5}});
  auto renamed = iso.Apply(bag);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed->CountOf(MakeTuple({A("b"), A("c")})), Mult(2));
  EXPECT_EQ(renamed->CountOf(MakeTuple({A("a"), A("a")})), Mult(5));
  // Applying the inverse recovers the original.
  auto back = iso.Inverse().Apply(*renamed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bag);
}

TEST(IsoTest, RandomPermutationIsBijective) {
  Rng rng(42);
  std::vector<AtomId> atoms;
  for (int i = 0; i < 10; ++i) {
    atoms.push_back(GlobalAtom('p' + std::to_string(i)));
  }
  Isomorphism iso = Isomorphism::RandomPermutation(atoms, rng);
  std::set<AtomId> images;
  for (AtomId id : atoms) images.insert(iso.Apply(id));
  EXPECT_EQ(images.size(), atoms.size());
}

TEST(IsoTest, CollectAtomsFindsAllOccurrences) {
  Bag inner = MakeBagOf({A("x1")});
  Bag bag = MakeBag({{MakeTuple({A("x2"), Value::FromBag(inner)}), 2}});
  std::unordered_set<AtomId> atoms;
  CollectAtoms(bag, &atoms);
  EXPECT_EQ(atoms.size(), 2u);
  EXPECT_TRUE(atoms.count(GlobalAtom("x1")));
  EXPECT_TRUE(atoms.count(GlobalAtom("x2")));
}

// ------------------------------------------------------- lazy hash index

/// Reference membership lookup: a linear scan of the canonical entries.
Mult LinearCountOf(const Bag& bag, const Value& v) {
  for (const BagEntry& e : bag.entries()) {
    if (e.value == v) return e.count;
  }
  return Mult();
}

class BagIndexTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BagIndexTest, CountOfAgreesWithLinearScanOnRandomBags) {
  Rng rng(GetParam());
  FlatBagSpec spec;
  spec.arity = 2;
  spec.num_atoms = 24;
  spec.num_elements = 400;  // distinct count well above kIndexThreshold
  spec.max_mult = 7;
  Bag bag = RandomFlatBag(rng, spec);
  ASSERT_GE(bag.DistinctCount(), Bag::kIndexThreshold);

  // Every present value answers its exact multiplicity.
  for (const BagEntry& e : bag.entries()) {
    EXPECT_EQ(bag.CountOf(e.value), e.count);
    EXPECT_TRUE(bag.Contains(e.value));
  }
  // Random probes (present or absent) agree with the linear scan.
  std::vector<Value> pool = AtomPool(spec.num_atoms + 8);
  for (int i = 0; i < 500; ++i) {
    Value probe = MakeTuple({pool[rng.Below(pool.size())],
                             pool[rng.Below(pool.size())]});
    EXPECT_EQ(bag.CountOf(probe), LinearCountOf(bag, probe))
        << probe.ToString();
  }
  // Values of a different shape never match.
  EXPECT_TRUE(bag.CountOf(pool[0]).IsZero());
  EXPECT_TRUE(bag.CountOf(MakeTuple({pool[0]})).IsZero());
}

TEST_P(BagIndexTest, SubBagOfAgreesWithDefinitionOnRandomBags) {
  Rng rng(GetParam() ^ 0x5eed);
  FlatBagSpec spec;
  spec.arity = 2;
  spec.num_atoms = 12;
  spec.num_elements = 300;
  spec.max_mult = 5;
  Bag large = RandomFlatBag(rng, spec);
  ASSERT_GE(large.DistinctCount(), Bag::kIndexThreshold);

  // A genuine subbag drawn from large's entries (indexed probe path).
  Bag::Builder sub_builder;
  for (const BagEntry& e : large.entries()) {
    if (rng.Coin(0.15)) sub_builder.Add(e.value, Mult(1));
  }
  Bag sub = std::move(sub_builder).Build().value();
  EXPECT_TRUE(sub.SubBagOf(large));

  // Bumping one multiplicity past its entry in large breaks the relation.
  if (!sub.empty()) {
    Bag::Builder bump;
    bump.AddBag(sub);
    const Value& v = sub.entries().front().value;
    bump.Add(v, large.CountOf(v));  // now count(v) = large's count + 1
    Bag not_sub = std::move(bump).Build().value();
    EXPECT_FALSE(not_sub.SubBagOf(large));
  }

  // Reference check on random small bags in both directions.
  for (int trial = 0; trial < 20; ++trial) {
    FlatBagSpec small_spec;
    small_spec.arity = 2;
    small_spec.num_atoms = 12;
    small_spec.num_elements = 10;
    small_spec.max_mult = 5;
    Bag small = RandomFlatBag(rng, small_spec);
    bool expected = true;
    for (const BagEntry& e : small.entries()) {
      if (LinearCountOf(large, e.value) < e.count) expected = false;
    }
    EXPECT_EQ(small.SubBagOf(large), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagIndexTest,
                         ::testing::Values(7, 21, 1234, 987654));

TEST(BagIndexTest, SmallBagsAnswerWithoutIndex) {
  // Below the threshold CountOf binary-searches; semantics are identical.
  Bag bag = MakeBag({{A("a"), 3}, {A("b"), 1}});
  EXPECT_LT(bag.DistinctCount(), Bag::kIndexThreshold);
  EXPECT_EQ(bag.CountOf(A("a")), Mult(3));
  EXPECT_EQ(bag.CountOf(A("b")), Mult(1));
  EXPECT_TRUE(bag.CountOf(A("c")).IsZero());
}

}  // namespace
}  // namespace bagalg
