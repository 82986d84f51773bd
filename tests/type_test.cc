// Tests for the complex-object type system (paper §2): construction, bag
// nesting, equality, the Bottom order (Accepts/Join), and rendering.

#include "src/core/type.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/value.h"

namespace bagalg {
namespace {

Type U() { return Type::Atom(); }

TEST(TypeTest, AtomBasics) {
  Type u = U();
  EXPECT_TRUE(u.IsAtom());
  EXPECT_EQ(u.BagNesting(), 0);
  EXPECT_EQ(u.ToString(), "U");
}

TEST(TypeTest, TupleBasics) {
  Type t = Type::Tuple({U(), U()});
  EXPECT_TRUE(t.IsTuple());
  EXPECT_EQ(t.fields().size(), 2u);
  EXPECT_EQ(t.BagNesting(), 0);
  EXPECT_EQ(t.ToString(), "[U, U]");
}

TEST(TypeTest, EmptyTupleAllowed) {
  Type t = Type::Tuple({});
  EXPECT_TRUE(t.IsTuple());
  EXPECT_EQ(t.ToString(), "[]");
}

TEST(TypeTest, BagNestingCountsBagConstructorsOnPath) {
  // {{ [ U, {{U}} ] }} has nesting 2: the outer bag plus the inner bag.
  Type t = Type::Bag(Type::Tuple({U(), Type::Bag(U())}));
  EXPECT_EQ(t.BagNesting(), 2);
  // Tuple of two bags side by side: nesting 1 (max over paths, not sum).
  Type s = Type::Tuple({Type::Bag(U()), Type::Bag(U())});
  EXPECT_EQ(s.BagNesting(), 1);
}

TEST(TypeTest, DeepNesting) {
  Type t = U();
  for (int i = 1; i <= 5; ++i) {
    t = Type::Bag(t);
    EXPECT_EQ(t.BagNesting(), i);
  }
  EXPECT_EQ(t.ToString(), "{{{{{{{{{{U}}}}}}}}}}");
}

TEST(TypeTest, StructuralEquality) {
  Type a = Type::Bag(Type::Tuple({U(), U()}));
  Type b = Type::Bag(Type::Tuple({U(), U()}));
  Type c = Type::Bag(Type::Tuple({U()}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a, U());
}

TEST(TypeTest, DefaultIsBottom) {
  Type t;
  EXPECT_TRUE(t.IsBottom());
  EXPECT_EQ(t.ToString(), "_");
  EXPECT_EQ(t.BagNesting(), 0);
}

TEST(TypeTest, AcceptsBottomAnywhere) {
  Type target = Type::Bag(Type::Tuple({U(), Type::Bag(U())}));
  EXPECT_TRUE(target.Accepts(Type::Bottom()));
  EXPECT_TRUE(target.Accepts(Type::Bag(Type::Bottom())));
  EXPECT_TRUE(
      target.Accepts(Type::Bag(Type::Tuple({U(), Type::Bag(Type::Bottom())}))));
  EXPECT_TRUE(target.Accepts(target));
  EXPECT_FALSE(target.Accepts(Type::Bag(U())));
  EXPECT_FALSE(Type::Bottom().Accepts(U()));
}

TEST(TypeTest, JoinWithBottom) {
  Type t = Type::Bag(U());
  auto j1 = Type::Join(t, Type::Bottom());
  ASSERT_TRUE(j1.ok());
  EXPECT_EQ(*j1, t);
  auto j2 = Type::Join(Type::Bottom(), t);
  ASSERT_TRUE(j2.ok());
  EXPECT_EQ(*j2, t);
}

TEST(TypeTest, JoinRefinesNestedBottoms) {
  Type partial = Type::Tuple({Type::Bottom(), Type::Bag(U())});
  Type other = Type::Tuple({U(), Type::Bag(Type::Bottom())});
  auto j = Type::Join(partial, other);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(*j, Type::Tuple({U(), Type::Bag(U())}));
}

TEST(TypeTest, JoinIncompatibleKindsFails) {
  auto j = Type::Join(U(), Type::Bag(U()));
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kTypeError);
}

TEST(TypeTest, JoinArityMismatchFails) {
  auto j = Type::Join(Type::Tuple({U()}), Type::Tuple({U(), U()}));
  ASSERT_FALSE(j.ok());
  EXPECT_EQ(j.status().code(), StatusCode::kTypeError);
}

TEST(TypeTest, JoinIsCommutativeAndIdempotent) {
  Type a = Type::Bag(Type::Tuple({U(), Type::Bottom()}));
  Type b = Type::Bag(Type::Tuple({Type::Bottom(), U()}));
  auto ab = Type::Join(a, b);
  auto ba = Type::Join(b, a);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(*ab, *ba);
  auto aa = Type::Join(a, a);
  ASSERT_TRUE(aa.ok());
  EXPECT_EQ(*aa, a);
}

TEST(TypeTest, CopyIsCheapAndShared) {
  Type a = Type::Bag(Type::Tuple({U(), U()}));
  Type b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

// Flat tuples [U, ..., U] below kImmortalFlatArity are process-lifetime
// singletons; at and past the edge they are built like any other tuple.
// Either way they must be indistinguishable from the general path.
TEST(TypeTest, FlatTuplesAgreeWithTheGeneralPath) {
  static_assert(Type::kImmortalFlatArity == 8);
  for (size_t arity = 0; arity <= 9; ++arity) {
    SCOPED_TRACE(arity);
    const Type flat = Type::FlatTuple(arity);
    const Type general = Type::Tuple(std::vector<Type>(arity, U()));
    EXPECT_TRUE(flat.IsTuple());
    EXPECT_EQ(flat.fields().size(), arity);
    EXPECT_EQ(flat, general);
    EXPECT_EQ(general, flat);
    EXPECT_EQ(flat.Hash(), general.Hash());
    EXPECT_EQ(flat.BagNesting(), 0);
    EXPECT_EQ(flat.BagNesting(), general.BagNesting());
    EXPECT_TRUE(flat.Accepts(general));
    EXPECT_TRUE(general.Accepts(flat));
    EXPECT_EQ(flat.ToString(), general.ToString());
    auto joined = Type::Join(flat, general);
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(*joined, general);
    EXPECT_EQ(joined->Hash(), general.Hash());
    // A tuple with a Bottom field is accepted by, and joins to, the flat one.
    if (arity > 0) {
      std::vector<Type> fields(arity, U());
      fields[arity - 1] = Type::Bottom();
      const Type partial = Type::Tuple(fields);
      EXPECT_TRUE(flat.Accepts(partial));
      EXPECT_FALSE(partial.Accepts(flat));
      auto refined = Type::Join(partial, flat);
      ASSERT_TRUE(refined.ok());
      EXPECT_EQ(*refined, flat);
    }
    // Distinct arities stay distinct.
    EXPECT_NE(flat, Type::FlatTuple(arity + 1));
    auto mismatch = Type::Join(flat, Type::FlatTuple(arity + 1));
    EXPECT_FALSE(mismatch.ok());
    // The type of a row of atoms is the flat tuple type.
    std::vector<Value> row(arity, MakeAtom("flat_row"));
    const Type row_type = Value::Tuple(std::move(row)).type();
    EXPECT_EQ(row_type, general);
    EXPECT_EQ(row_type.Hash(), general.Hash());
  }
}

TEST(TypeTest, MixedTuplesAreUnchanged) {
  const Type mixed = Type::Tuple({U(), Type::Bag(U())});
  EXPECT_EQ(mixed.ToString(), "[U, {{U}}]");
  EXPECT_EQ(mixed.BagNesting(), 1);
  EXPECT_NE(mixed, Type::FlatTuple(2));
  EXPECT_FALSE(Type::Join(mixed, Type::FlatTuple(2)).ok());
  const Value inner = Value::FromBag(MakeBagOf({MakeAtom("mixed_b")}));
  const Value row = Value::Tuple({MakeAtom("mixed_a"), inner});
  EXPECT_EQ(row.type(), mixed);
  EXPECT_EQ(row.type().Hash(), mixed.Hash());
  const Type nested = Type::Tuple({Type::FlatTuple(2), U()});
  EXPECT_EQ(nested.ToString(), "[[U, U], U]");
  const Value pair = MakeTuple({MakeAtom("n1"), MakeAtom("n2")});
  EXPECT_EQ(MakeTuple({pair, MakeAtom("n3")}).type(), nested);
}

}  // namespace
}  // namespace bagalg
