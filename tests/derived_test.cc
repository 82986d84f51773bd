// Tests for the derived-operation library: §3 aggregates, the §3
// interdefinability constructions (checked against the primitive operators
// on random bags — Prop 3.1 and friends), and the §4 counting queries.

#include "src/algebra/derived.h"

#include <gtest/gtest.h>

#include "src/algebra/eval.h"
#include "src/core/bag_ops.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }

Bag EvalBag(const Expr& e, const Database& db) {
  Evaluator eval;
  auto r = eval.EvalToBag(e, db);
  EXPECT_TRUE(r.ok()) << r.status() << " for " << e.ToString();
  return r.ok() ? std::move(r).value() : Bag();
}

Database Db(std::initializer_list<std::pair<std::string, Bag>> items) {
  Database db;
  for (const auto& [name, bag] : items) {
    Status st = db.Put(name, bag);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

// ------------------------------------------------------------------ shifts

TEST(ShiftVarsTest, ShiftsOnlyFreeVariables) {
  // map(v -> [v.1, x], src) where x is free (depth 0 outside): shifting by
  // 2 moves x but not the bound v.
  Expr body = Tup({Proj(Var(0), 1), Var(1)});
  Expr e = Map(body, Var(0));
  Expr shifted = ShiftVars(e, 0, 2);
  const ExprNode& map_node = shifted.node();
  // Source Var(0) became Var(2).
  EXPECT_EQ(map_node.children[1]->index, 2u);
  // Inside the body: bound Var(0) unchanged; free Var(1) became Var(3).
  const ExprNode& tup = map_node.children[0].node();
  EXPECT_EQ(tup.children[0]->children[0]->index, 0u);
  EXPECT_EQ(tup.children[1]->index, 3u);
}

// -------------------------------------------------------------- aggregates

TEST(AggregateTest, CountAggIsCardinality) {
  Bag b = MakeBag({{MakeTuple({A("p"), A("q")}), 3},
                   {MakeTuple({A("q"), A("p")}), 2}});
  Database db = Db({{"B", b}});
  Bag r = EvalBag(CountAgg(Input("B"), A("one")), db);
  EXPECT_EQ(DecodeIntBag(r).value(), 5u);
  EXPECT_EQ(r.DistinctCount(), 1u);
  EXPECT_EQ(r.entries()[0].value, MakeTuple({A("one")}));
}

TEST(AggregateTest, SumAggAddsIntegerBags) {
  // {{ int(3), int(4)*2 }} sums to 11.
  Bag b = MakeBagOf({Value::FromBag(IntAsBag(3, A("u")))});
  Bag::Builder builder;
  builder.AddBag(b);
  builder.Add(Value::FromBag(IntAsBag(4, A("u"))), Mult(2));
  Bag nested = std::move(std::move(builder).Build()).value();
  Database db = Db({{"B", nested}});
  Bag r = EvalBag(SumAgg(Input("B")), db);
  EXPECT_EQ(DecodeIntBag(r).value(), 11u);
}

TEST(AggregateTest, AverageAggExactDivision) {
  // avg{2, 4, 6} = 4.
  Bag b = MakeBagOf({Value::FromBag(IntAsBag(2, A("u"))),
                     Value::FromBag(IntAsBag(4, A("u"))),
                     Value::FromBag(IntAsBag(6, A("u")))});
  Database db = Db({{"B", b}});
  Bag r = EvalBag(AverageAgg(Input("B"), A("u")), db);
  EXPECT_EQ(DecodeIntBag(r).value(), 4u);
}

TEST(AggregateTest, AverageAggRespectsMultiplicities) {
  // avg of {{ int(1)*3, int(5) }} = (3+5)/4 = 2.
  Bag::Builder builder;
  builder.Add(Value::FromBag(IntAsBag(1, A("u"))), Mult(3));
  builder.Add(Value::FromBag(IntAsBag(5, A("u"))), Mult(1));
  Bag b = std::move(std::move(builder).Build()).value();
  Database db = Db({{"B", b}});
  Bag r = EvalBag(AverageAgg(Input("B"), A("u")), db);
  EXPECT_EQ(DecodeIntBag(r).value(), 2u);
}

TEST(AggregateTest, AverageAggEmptyWhenNotDivisible) {
  // avg{1, 2} = 1.5: exact-division semantics yield the empty bag.
  Bag b = MakeBagOf({Value::FromBag(IntAsBag(1, A("u"))),
                     Value::FromBag(IntAsBag(2, A("u")))});
  Database db = Db({{"B", b}});
  Bag r = EvalBag(AverageAgg(Input("B"), A("u")), db);
  EXPECT_TRUE(r.empty());
}

// ------------------------------------------------------- counting queries

TEST(CountingTest, CardGreaterMatchesCardinalities) {
  for (uint64_t nr : {0u, 1u, 3u}) {
    for (uint64_t ns : {0u, 1u, 3u}) {
      Bag::Builder br, bs;
      for (uint64_t i = 0; i < nr; ++i) {
        br.AddOne(MakeTuple({MakeAtom('r' + std::to_string(i))}));
      }
      for (uint64_t i = 0; i < ns; ++i) {
        bs.AddOne(MakeTuple({MakeAtom('s' + std::to_string(i))}));
      }
      Database db;
      ASSERT_TRUE(db.Put("R", std::move(std::move(br).Build()).value()).ok());
      ASSERT_TRUE(db.Put("S", std::move(std::move(bs).Build()).value()).ok());
      ASSERT_TRUE(db.Declare("R", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
      ASSERT_TRUE(db.Declare("S", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
      Bag r = EvalBag(CardGreater(Input("R"), Input("S")), db);
      EXPECT_EQ(!r.empty(), nr > ns) << "nr=" << nr << " ns=" << ns;
    }
  }
}

TEST(CountingTest, CardEqualHartig) {
  Bag r2 = MakeBagOf({MakeTuple({A("r1")}), MakeTuple({A("r2")})});
  Bag s2 = MakeBagOf({MakeTuple({A("s1")}), MakeTuple({A("s2")})});
  Bag s3 = MakeBagOf({MakeTuple({A("s1")}), MakeTuple({A("s2")}),
                      MakeTuple({A("s3")})});
  EXPECT_FALSE(
      EvalBag(CardEqual(Input("R"), Input("S"), A("u")),
              Db({{"R", r2}, {"S", s2}})).empty());
  EXPECT_TRUE(
      EvalBag(CardEqual(Input("R"), Input("S"), A("u")),
              Db({{"R", r2}, {"S", s3}})).empty());
}

TEST(CountingTest, AtLeastDistinctQuantifier) {
  Bag r = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"R", r}});
  // Two distinct elements despite six occurrences.
  EXPECT_FALSE(EvalBag(AtLeastDistinct(Input("R"), 0, A("u")), db).empty());
  EXPECT_FALSE(EvalBag(AtLeastDistinct(Input("R"), 1, A("u")), db).empty());
  EXPECT_FALSE(EvalBag(AtLeastDistinct(Input("R"), 2, A("u")), db).empty());
  EXPECT_TRUE(EvalBag(AtLeastDistinct(Input("R"), 3, A("u")), db).empty());
}

TEST(CountingTest, AtLeastTotalCountsOccurrences) {
  Bag r = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"R", r}});
  EXPECT_FALSE(EvalBag(AtLeastTotal(Input("R"), 6, A("u")), db).empty());
  EXPECT_TRUE(EvalBag(AtLeastTotal(Input("R"), 7, A("u")), db).empty());
  EXPECT_FALSE(EvalBag(AtLeastTotal(Input("R"), 0, A("u")), db).empty());
}

TEST(CountingTest, EvenCardinalityWithOrder) {
  // §4: parity of |R| is definable given a total order.
  std::vector<Value> atoms = AtomPool(6, "o");
  Bag leq = TotalOrderLeq(atoms);
  for (size_t card = 1; card <= 6; ++card) {
    Bag::Builder builder;
    for (size_t i = 0; i < card; ++i) builder.AddOne(MakeTuple({atoms[i]}));
    Bag r = std::move(std::move(builder).Build()).value();
    Database db = Db({{"R", r}, {"Leq", leq}});
    Bag out = EvalBag(EvenCardinalityWithOrder(Input("R"), Input("Leq"),
                                               A("u")),
                      db);
    EXPECT_EQ(!out.empty(), card % 2 == 0) << "card=" << card;
  }
}

TEST(CountingTest, EvenCardinalityWorksOnNonPrefixSubsets) {
  std::vector<Value> atoms = AtomPool(6, "o");
  Bag leq = TotalOrderLeq(atoms);
  // R = {o1, o3, o4, o5}: even.
  Bag r = MakeBagOf({MakeTuple({atoms[1]}), MakeTuple({atoms[3]}),
                     MakeTuple({atoms[4]}), MakeTuple({atoms[5]})});
  Database db = Db({{"R", r}, {"Leq", leq}});
  EXPECT_FALSE(
      EvalBag(EvenCardinalityWithOrder(Input("R"), Input("Leq"), A("u")), db)
          .empty());
  // R = {o0, o2, o5}: odd.
  Bag r2 = MakeBagOf({MakeTuple({atoms[0]}), MakeTuple({atoms[2]}),
                      MakeTuple({atoms[5]})});
  Database db2 = Db({{"R", r2}, {"Leq", leq}});
  EXPECT_TRUE(
      EvalBag(EvenCardinalityWithOrder(Input("R"), Input("Leq"), A("u")), db2)
          .empty());
}

// -------------------------------------- §3 interdefinability (Prop 3.1 etc.)

class DerivedEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DerivedEquivalenceTest, UplusViaMaxUnionAgrees) {
  Rng rng(GetParam());
  FlatBagSpec spec;
  for (int i = 0; i < 15; ++i) {
    Bag a = RandomFlatBag(rng, spec);
    Bag b = RandomFlatBag(rng, spec);
    Database db = Db({{"A", a}, {"B", b}});
    Bag direct = EvalBag(Uplus(Input("A"), Input("B")), db);
    Bag derived = EvalBag(UplusViaMaxUnion(Input("A"), Input("B"), spec.arity,
                                           A("tagA"), A("tagB")),
                          db);
    EXPECT_EQ(direct, derived);
  }
}

TEST_P(DerivedEquivalenceTest, MonusViaPowersetAgrees) {
  Rng rng(GetParam() ^ 0x1111);
  FlatBagSpec spec;
  spec.num_elements = 4;  // powerset of A is enumerated; keep A small
  spec.max_mult = 2;
  for (int i = 0; i < 10; ++i) {
    Bag a = RandomFlatBag(rng, spec);
    Bag b = RandomFlatBag(rng, spec);
    Database db = Db({{"A", a}, {"B", b}});
    Bag direct = EvalBag(Monus(Input("A"), Input("B")), db);
    Bag derived = EvalBag(MonusViaPowerset(Input("A"), Input("B")), db);
    EXPECT_EQ(direct, derived);
  }
}

TEST_P(DerivedEquivalenceTest, EpsViaPowersetAgrees) {
  Rng rng(GetParam() ^ 0x2222);
  FlatBagSpec spec;
  spec.num_elements = 4;
  spec.max_mult = 3;
  for (int i = 0; i < 10; ++i) {
    Bag b = RandomFlatBag(rng, spec);
    Database db = Db({{"B", b}});
    Bag direct = EvalBag(Eps(Input("B")), db);
    Bag derived = EvalBag(EpsViaPowerset(Input("B")), db);
    EXPECT_EQ(direct, derived);
  }
}

TEST_P(DerivedEquivalenceTest, EpsViaPowersetNestedAgrees) {
  Rng rng(GetParam() ^ 0x3333);
  FlatBagSpec inner;
  inner.num_elements = 2;
  inner.max_mult = 2;
  for (int i = 0; i < 10; ++i) {
    Bag b = RandomNestedBag(rng, 3, inner);
    Database db = Db({{"B", b}});
    Bag direct = EvalBag(Eps(Input("B")), db);
    Bag derived = EvalBag(EpsViaPowersetNested(Input("B")), db);
    EXPECT_EQ(direct, derived);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerivedEquivalenceTest,
                         ::testing::Values(5, 6, 7));

// --------------------------------------------------- boolean-test plumbing

TEST(BoolTestTest, WitnessSemantics) {
  Bag b = MakeBag({{A("x"), 2}});
  Database db = Db({{"B", b}});
  EXPECT_FALSE(EvalBag(BoolTest(Input("B"), Input("B"), A("w")), db).empty());
  EXPECT_TRUE(
      EvalBag(BoolTest(Input("B"), Eps(Input("B")), A("w")), db).empty());
}

TEST(BoolTestTest, MembershipPredicate) {
  Bag b = MakeBag({{MakeTuple({A("x")}), 3}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"B", b}});
  // σ_{t ∈ B}(B) = B (everything is a member).
  auto [lhs, rhs] = MemberTestPair(Var(0), ShiftVars(Input("B"), 0, 1));
  Bag r = EvalBag(Select(lhs, rhs, Input("B")), db);
  EXPECT_EQ(r, b);
}

TEST(BoolTestTest, SubbagPredicate) {
  Bag small = MakeBag({{A("x"), 1}});
  Bag big = MakeBag({{A("x"), 2}, {A("y"), 1}});
  Database db = Db({{"S", small}, {"B", big}});
  auto [lhs, rhs] = SubbagTestPair(Input("S"), Input("B"));
  EXPECT_FALSE(EvalBag(Select(ShiftVars(lhs, 0, 1), ShiftVars(rhs, 0, 1),
                              ConstBag(MakeBagOf({MakeTuple({A("w")})}))),
                       db)
                   .empty());
  auto [lhs2, rhs2] = SubbagTestPair(Input("B"), Input("S"));
  EXPECT_TRUE(EvalBag(Select(ShiftVars(lhs2, 0, 1), ShiftVars(rhs2, 0, 1),
                             ConstBag(MakeBagOf({MakeTuple({A("w")})}))),
                      db)
                  .empty());
}

}  // namespace
}  // namespace bagalg
