// Tests for the surface-syntax lexer, parser, printer round-trips, and the
// script runner.

#include "src/lang/parser.h"

#include <gtest/gtest.h>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/algebra/rewrite.h"
#include "src/lang/lexer.h"
#include "src/lang/script.h"

namespace bagalg {
namespace {

using lang::ParseExpr;
using lang::ParseType;
using lang::ParseValue;
using lang::ScriptRunner;
using lang::Tokenize;

Value A(const char* name) { return MakeAtom(name); }

TEST(LexerTest, TokenizesAllTokenKinds) {
  auto toks = Tokenize("foo 42 ( ) [ ] {{ }} , -> == = * ' : _");
  ASSERT_TRUE(toks.ok());
  std::vector<lang::TokenKind> kinds;
  for (const auto& t : *toks) kinds.push_back(t.kind);
  using K = lang::TokenKind;
  std::vector<K> expected = {K::kIdent,  K::kNumber,     K::kLParen,
                             K::kRParen, K::kLBracket,   K::kRBracket,
                             K::kLBagBrace, K::kRBagBrace, K::kComma,
                             K::kArrow,  K::kEqEq,       K::kEq,
                             K::kStar,   K::kQuote,      K::kColon,
                             K::kUnderscore, K::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, CommentsSkippedAndErrorsReported) {
  auto toks = Tokenize("a # everything here is ignored {{\nb");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks->size(), 3u);  // a, b, end
  EXPECT_FALSE(Tokenize("{x").ok());
  EXPECT_FALSE(Tokenize("a - b").ok());
  EXPECT_FALSE(Tokenize("?").ok());
}

TEST(ParseValueTest, AtomsTuplesBags) {
  auto v1 = ParseValue("a");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, A("a"));
  auto v2 = ParseValue("[a, b]");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, MakeTuple({A("a"), A("b")}));
  auto v3 = ParseValue("{{[a, b]*3, [b, a]}}");
  ASSERT_TRUE(v3.ok());
  ASSERT_TRUE(v3->IsBag());
  EXPECT_EQ(v3->bag().CountOf(MakeTuple({A("a"), A("b")})), Mult(3));
  EXPECT_EQ(v3->bag().CountOf(MakeTuple({A("b"), A("a")})), Mult(1));
}

TEST(ParseValueTest, EmptyContainersAndBigCounts) {
  auto v1 = ParseValue("{{}}");
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->bag().empty());
  auto v2 = ParseValue("[]");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->fields().size(), 0u);
  auto v3 = ParseValue("{{a*340282366920938463463374607431768211456}}");
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->bag().TotalCount(), BigNat::TwoPow(128));
}

TEST(ParseValueTest, ValueRoundTripsThroughToString) {
  const char* cases[] = {
      "a",
      "[a, b]",
      "{{a*3, b}}",
      "{{[a, {{b*2}}], [c, {{}}]}}",
      "{{{{a}}*5, {{b, c}}}}",
  };
  for (const char* text : cases) {
    auto v = ParseValue(text);
    ASSERT_TRUE(v.ok()) << text;
    auto back = ParseValue(v->ToString());
    ASSERT_TRUE(back.ok()) << v->ToString();
    EXPECT_EQ(*v, *back) << text;
  }
}

// Each distinct atom name is interned once per parse, however often the
// literal repeats it, and the parsed bag is the one MakeAtom builds.
TEST(ParseValueTest, RepeatedAtomsInternOncePerName) {
  AtomTable flat_table;
  auto flat = ParseValue("{{[a, b]*2, [b, a], [a, a], [c, b], [b, b]}}",
                         &flat_table);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(flat_table.size(), 3u);
  const auto at = [&](const char* name) { return MakeAtom(name, &flat_table); };
  Bag::Builder builder;
  builder.Add(MakeTuple({at("a"), at("b")}), Mult(2));
  builder.AddOne(MakeTuple({at("b"), at("a")}));
  builder.AddOne(MakeTuple({at("a"), at("a")}));
  builder.AddOne(MakeTuple({at("c"), at("b")}));
  builder.AddOne(MakeTuple({at("b"), at("b")}));
  auto expected = std::move(builder).Build();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(flat_table.size(), 3u);  // MakeAtom found every name
  EXPECT_EQ(*flat, Value::FromBag(*expected));
  EXPECT_EQ(flat->type(), Value::FromBag(*expected).type());
  EXPECT_EQ(flat->ToString(&flat_table),
            "{{[a, a], [a, b]*2, [b, a], [b, b], [c, b]}}");
  // A second parse reuses the interned ids.
  auto again = ParseValue("{{[c, c], [a, c]}}", &flat_table);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(flat_table.size(), 3u);
  // Nested literals and quoted expression literals share the memo too.
  AtomTable nested_table;
  auto nested = ParseValue("{{[x, {{y, x*3}}], [y, {{x}}]}}", &nested_table);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested_table.size(), 2u);
  AtomTable expr_table;
  auto expr = ParseExpr("uplus('{{p, q, p}}, '{{q, p}})", &expr_table);
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr_table.size(), 2u);
}

TEST(ParseValueTest, Errors) {
  EXPECT_FALSE(ParseValue("").ok());
  EXPECT_FALSE(ParseValue("[a").ok());
  EXPECT_FALSE(ParseValue("{{a*}}").ok());
  EXPECT_FALSE(ParseValue("{{a, [b]}}").ok());  // inhomogeneous
  EXPECT_FALSE(ParseValue("a b").ok());         // trailing input
}

TEST(ParseTypeTest, AllConstructors) {
  auto t1 = ParseType("U");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(*t1, Type::Atom());
  auto t2 = ParseType("[U, {{U}}]");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, Type::Tuple({Type::Atom(), Type::Bag(Type::Atom())}));
  auto t3 = ParseType("{{[U, U]}}");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->BagNesting(), 1);
  auto t4 = ParseType("_");
  ASSERT_TRUE(t4.ok());
  EXPECT_TRUE(t4->IsBottom());
  EXPECT_FALSE(ParseType("V").ok());
  EXPECT_FALSE(ParseType("{{U").ok());
}

TEST(ParseExprTest, OperatorsAndVariables) {
  auto e = ParseExpr("map(x -> proj(1, x), sel(y -> proj(1, y) == proj(2, y), B))");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kMap);
  // Variable resolution: x and y are separate binders, both depth 0 in
  // their own scopes.
  const Expr& body = (*e)->children[0];
  EXPECT_EQ(body->kind, ExprKind::kAttrProj);
  EXPECT_EQ(body->children[0]->kind, ExprKind::kVar);
  EXPECT_EQ(body->children[0]->index, 0u);
}

TEST(ParseExprTest, NestedBindersResolveByDepth) {
  auto e = ParseExpr("map(x -> map(y -> tup(x, y), B), C)");
  ASSERT_TRUE(e.ok());
  const Expr& inner_body = (*e)->children[0]->children[0];
  ASSERT_EQ(inner_body->kind, ExprKind::kTupling);
  EXPECT_EQ(inner_body->children[0]->index, 1u);  // x from outer scope
  EXPECT_EQ(inner_body->children[1]->index, 0u);  // y innermost
}

TEST(ParseExprTest, ShadowingInnermostWins) {
  auto e = ParseExpr("map(x -> map(x -> x, B), C)");
  ASSERT_TRUE(e.ok());
  const Expr& inner_body = (*e)->children[0]->children[0];
  EXPECT_EQ(inner_body->kind, ExprKind::kVar);
  EXPECT_EQ(inner_body->index, 0u);
}

TEST(ParseExprTest, LiteralsAndReservedWords) {
  auto e = ParseExpr("uplus(B, '{{[a]*2}})");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->children[1]->kind, ExprKind::kConst);
  EXPECT_FALSE(ParseExpr("uplus(map, B)").ok());  // reserved word as input
  EXPECT_FALSE(ParseExpr("map(pow -> pow, B)").ok());
}

TEST(ParseExprTest, FixpointForms) {
  auto e = ParseExpr("ifp(X -> umax(X, X), G)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kIfp);
  auto b = ParseExpr("bifp(X -> X, G, dedup(G))");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->kind, ExprKind::kBoundedIfp);
  EXPECT_EQ((*b)->children.size(), 3u);
}

TEST(ParseExprTest, NestUnnestAttributeLists) {
  auto e = ParseExpr("nest([2, 3], B)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->attrs, (std::vector<size_t>{2, 3}));
  auto u = ParseExpr("unnest([2], B)");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ((*u)->attrs, (std::vector<size_t>{2}));
  EXPECT_FALSE(ParseExpr("unnest([1, 2], B)").ok());
  EXPECT_FALSE(ParseExpr("proj(0, B)").ok());  // attrs are 1-based
}

TEST(ParseExprTest, ExpressionRoundTripsThroughToString) {
  // Build a representative zoo with the C++ API, print, re-parse, and
  // compare structurally.
  Value unit = A("u");
  std::vector<Expr> zoo = {
      Input("B"),
      CardGreater(Input("R"), Input("S")),
      EvenCardinalityWithOrder(Input("R"), Input("Leq"), unit),
      TransitiveClosure(Input("G")),
      TransitiveClosureBounded(Input("G")),
      AverageAgg(Input("B"), unit),
      MonusViaPowerset(Input("A"), Input("B")),
      EpsViaPowerset(Input("B")),
      NestExpr(Input("B"), {1, 2}),
      Powbag(UnnestExpr(NestExpr(Input("B"), {2}), 2)),
  };
  for (const Expr& e : zoo) {
    std::string text = e.ToString();
    auto parsed = ParseExpr(text);
    ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status();
    EXPECT_TRUE(ExprEquals(e, *parsed)) << text;
  }
}

// ---------------------------------------------------------- script runner

TEST(ScriptTest, LetEvalCountFlow) {
  ScriptRunner runner;
  auto r1 = runner.RunLine("let B = {{[a, b]*4, [b, a]*3}}");
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r2 = runner.RunLine(
      "count map(x -> tup(proj(1, x), proj(4, x)),"
      " sel(x -> proj(2, x) == proj(3, x), prod(B, B)))");
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(*r2, "24");  // 2nm with n=4, m=3
}

TEST(ScriptTest, OnlyResultCommandsLeaveALastResult) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{a, b*2}}").ok());
  EXPECT_FALSE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("eval uplus(B, B)").ok());
  ASSERT_TRUE(runner.last_result().has_value());
  // A let after a result-producing statement must not carry that result.
  ASSERT_TRUE(runner.RunLine("let C = {{c}}").ok());
  EXPECT_FALSE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("exec uplus(C, C)").ok());
  ASSERT_TRUE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("type C").ok());
  EXPECT_FALSE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("count B").ok());
  ASSERT_TRUE(runner.last_result().has_value());
  ASSERT_TRUE(runner.RunLine("# a comment line").ok());
  EXPECT_FALSE(runner.last_result().has_value());
}

TEST(ScriptTest, ExecRefusesIllTypedLambdasWhetherOrNotInputsHaveRows) {
  // exec returns the IR's plan-time TypeError. The verdict does not depend
  // on the data: the empty E and the non-empty B are refused alike.
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("schema E : {{[U]}}").ok());
  ASSERT_TRUE(runner.RunLine("let B = {{[a]}}").ok());
  for (const char* statement :
       {"exec map(p -> proj(9, p), E)", "exec map(p -> proj(9, p), B)"}) {
    auto r = runner.RunLine(statement);
    ASSERT_FALSE(r.ok()) << statement;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError)
        << statement << ": " << r.status();
    EXPECT_FALSE(runner.last_result().has_value());
  }
}

TEST(ScriptTest, SchemaAndTypeCommands) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("schema G : {{[U, U]}}").ok());
  auto t = runner.RunLine("type map(x -> proj(1, x), G)");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, "{{U}}");
  auto a = runner.RunLine("analyze pow(G)");
  ASSERT_TRUE(a.ok());
  EXPECT_NE(a->find("BALG^2"), std::string::npos);
  EXPECT_NE(a->find("power_nesting=1"), std::string::npos);
}

TEST(ScriptTest, OptimizeCommand) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("schema B : {{[U]}}").ok());
  auto r = runner.RunLine("optimize dedup(dedup(B))");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "dedup(B)");
}

TEST(ScriptTest, ErrorsCarryLineNumbers) {
  ScriptRunner runner;
  auto r = runner.RunScript("let B = {{a}}\neval flat(B)\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ScriptTest, FullScriptProducesOutput) {
  ScriptRunner runner;
  auto r = runner.RunScript(
      "# Example 4.1\n"
      "let G = {{[u1, c], [u2, c], [c, w1]}}\n"
      "eval monus(map(x -> tup(proj(2, x)), sel(x -> proj(2, x) == 'c, G)),"
      " map(x -> tup(proj(1, x)), sel(x -> proj(1, x) == 'c, G)))\n");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("{{[c]}}"), std::string::npos);
}

TEST(ScriptTest, DumpRoundTripsTheDatabase) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{[a, b]*3}}").ok());
  ASSERT_TRUE(runner.RunLine("let C = {{x, y*2}}").ok());
  auto dump = runner.RunLine("dump");
  ASSERT_TRUE(dump.ok());
  // Replaying the dump in a fresh runner reproduces the instances.
  ScriptRunner replay;
  ASSERT_TRUE(replay.RunScript(*dump + "\n").ok());
  EXPECT_EQ(replay.database().instances(), runner.database().instances());
}

TEST(ScriptTest, ResetClearsState) {
  ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{a}}").ok());
  ASSERT_TRUE(runner.RunLine("reset").ok());
  auto r = runner.RunLine("eval B");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace bagalg
