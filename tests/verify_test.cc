// The IR verifier, the dataflow fact framework, the fact-driven passes,
// and the translation-validation harness — including the seeded
// mutation corpus: every intentionally broken pass variant behind
// SetPassMutationForTesting must be rejected by the verifier or by
// translation validation, with zero silent escapes. Also pins the lint
// registry's ordering contract and the W006/W007 rules that surface the
// same facts at the algebra level.

#include "src/ir/verify.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algebra/builder.h"
#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/analysis/lint.h"
#include "src/ir/dataflow.h"
#include "src/ir/exec_ir.h"
#include "src/ir/lower.h"
#include "src/ir/passes.h"
#include "src/stats/expr_gen.h"
#include "src/stats/sampler.h"
#include "src/util/rng.h"

namespace bagalg {
namespace {

using analysis::CostFacts;
using analysis::LintDiag;
using analysis::LintRule;
using analysis::LintRuleRegistry;
using analysis::RunLint;
using ir::ComputeIrFacts;
using ir::IrFacts;
using ir::IrKind;
using ir::IrNode;
using ir::IrPlan;
using ir::IrVerifyEnabled;
using ir::LowerOptions;
using ir::LowerToIr;
using ir::PassMutation;
using ir::RowProgram;
using ir::SetPassMutationForTesting;
using ir::Stage;
using ir::StageKind;
using ir::ValidateTranslation;
using ir::ValidationReport;
using ir::VerifyIr;

Value A(const char* name) { return MakeAtom(name); }

/// R: set-like 2-tuples with a distinct key column and a duplicate-heavy
/// value column; R2: a second such bag sharing some values with R.
/// S: unary tuples with real duplicate counts (not set-like).
Database CorpusDb() {
  Database db;
  EXPECT_TRUE(db.Put("R", MakeBag({{MakeTuple({A("k0"), A("v0")}), 1},
                                   {MakeTuple({A("k1"), A("v1")}), 1},
                                   {MakeTuple({A("k2"), A("v0")}), 1},
                                   {MakeTuple({A("k3"), A("v2")}), 1}}))
                  .ok());
  EXPECT_TRUE(db.Put("R2", MakeBag({{MakeTuple({A("a0"), A("v0")}), 1},
                                    {MakeTuple({A("a1"), A("v1")}), 1},
                                    {MakeTuple({A("a2"), A("v5")}), 1}}))
                  .ok());
  EXPECT_TRUE(db.Put("S", MakeBag({{MakeTuple({A("x")}), 5},
                                   {MakeTuple({A("y")}), 2},
                                   {MakeTuple({A("z")}), 1}}))
                  .ok());
  return db;
}

/// Lowering options with the algebra rewriter off, so crafted stage
/// patterns (the mutation triggers) reach the IR passes intact.
LowerOptions NoRewrite() {
  LowerOptions options;
  options.optimize_first = false;
  return options;
}

/// Restores PassMutation::kNone on scope exit.
struct MutationGuard {
  explicit MutationGuard(PassMutation m) { SetPassMutationForTesting(m); }
  ~MutationGuard() { SetPassMutationForTesting(PassMutation::kNone); }
};

RowProgram MustCompile(const Expr& body) {
  auto program = RowProgram::Compile(body);
  EXPECT_TRUE(program.ok()) << program.status();
  return *std::move(program);
}

Stage FilterStage(const Expr& lhs, const Expr& rhs) {
  Stage stage;
  stage.kind = StageKind::kFilter;
  stage.program = MustCompile(lhs);
  stage.rhs = MustCompile(rhs);
  return stage;
}

Stage ProjectStage(const Expr& body) {
  Stage stage;
  stage.kind = StageKind::kProject;
  stage.program = MustCompile(body);
  return stage;
}

std::unique_ptr<IrNode> ScanOf(const char* name, Bag bag) {
  auto node = std::make_unique<IrNode>(IrKind::kScan);
  node->scan_name = name;
  node->scan_bag = std::move(bag);
  return node;
}

Bag TwoColBag() {
  auto bag = MakeBag({{MakeTuple({A("k0"), A("v0")}), 1},
                      {MakeTuple({A("k1"), A("v1")}), 2}});
  return bag;
}

// --------------------------------------------------- verifier structure

TEST(VerifyIrTest, AcceptsAWellFormedPlan) {
  IrPlan plan;
  plan.root = ScanOf("B", TwoColBag());
  plan.root->stages.push_back(
      FilterStage(Proj(Var(0), 1), ConstExpr(A("k0"))));
  plan.root->stages.push_back(ProjectStage(Tup({Proj(Var(0), 2)})));
  EXPECT_TRUE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsFilterColumnOffTheRowShape) {
  IrPlan plan;
  plan.root = ScanOf("B", TwoColBag());
  plan.root->stages.push_back(
      FilterStage(Proj(Var(0), 5), ConstExpr(A("k0"))));
  Status st = VerifyIr(plan);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ir verify"), std::string::npos) << st;
}

TEST(VerifyIrTest, RejectsGatherNamingAMissingColumn) {
  IrPlan plan;
  plan.root = ScanOf("B", TwoColBag());
  plan.root->stages.push_back(
      ProjectStage(Tup({Proj(Var(0), 1), Proj(Var(0), 3)})));
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsHashJoinKeyOutsideItsSide) {
  IrPlan plan;
  auto join = std::make_unique<IrNode>(IrKind::kHashJoin);
  join->children.push_back(ScanOf("B", TwoColBag()));
  join->children.push_back(ScanOf("C", TwoColBag()));
  join->probe_arity = 2;
  join->probe_key = 3;  // off the probe row
  join->build_key = 1;
  plan.root = std::move(join);
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsProbeArityDisagreeingWithTheProbeChild) {
  IrPlan plan;
  auto join = std::make_unique<IrNode>(IrKind::kCrossJoin);
  join->children.push_back(ScanOf("B", TwoColBag()));
  join->children.push_back(ScanOf("C", TwoColBag()));
  join->probe_arity = 4;  // the probe child produces 2-tuples
  plan.root = std::move(join);
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, RejectsUnionOfConflictingShapes) {
  IrPlan plan;
  auto u = std::make_unique<IrNode>(IrKind::kUnionAll);
  u->children.push_back(ScanOf("B", TwoColBag()));
  u->children.push_back(
      ScanOf("C", MakeBag({{MakeTuple({A("x")}), 1}})));  // 1-tuple bag
  plan.root = std::move(u);
  EXPECT_FALSE(VerifyIr(plan).ok());
}

TEST(VerifyIrTest, EnvOverrideParsesBothDirections) {
  // Can only observe the process's cached value; assert it is consistent
  // with the environment contract rather than flipping it mid-process.
  const char* env = std::getenv("BAGALG_IR_VERIFY");
  if (env != nullptr && std::string(env) == "1") {
    EXPECT_TRUE(IrVerifyEnabled());
  }
  if (env != nullptr && std::string(env) == "0") {
    EXPECT_FALSE(IrVerifyEnabled());
  }
#ifndef NDEBUG
  if (env == nullptr) EXPECT_TRUE(IrVerifyEnabled());
#endif
}

// ------------------------------------------------------- dataflow facts

TEST(IrFactsTest, ScanFactsCoverShapeDupFreedomKeysAndInterval) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Input("R"), db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto facts = ComputeIrFacts(*plan);
  ASSERT_TRUE(facts.ok()) << facts.status();
  const IrFacts& root = facts->at(plan->root.get());
  EXPECT_EQ(root.shape, IrFacts::Shape::kTuple);
  EXPECT_EQ(root.arity, 2u);
  EXPECT_TRUE(root.dup_free);  // R is set-like
  EXPECT_TRUE(root.HasKeyWithin({1}));  // k0..k3 are distinct
  EXPECT_EQ(root.min_rows, 4u);
  EXPECT_EQ(root.max_rows, 4u);
}

TEST(IrFactsTest, DupElimProvesDupFreedomOverADupHeavyScan) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Eps(Input("S")), db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto facts = ComputeIrFacts(*plan);
  ASSERT_TRUE(facts.ok()) << facts.status();
  const IrFacts& root = facts->at(plan->root.get());
  EXPECT_TRUE(root.dup_free);
}

TEST(IrFactsTest, ExplainIrFactsRendersTheAnnotations) {
  Database db = CorpusDb();
  auto out = ir::ExplainIrFacts(
      Select(Proj(Var(0), 1), ConstExpr(A("k0")), Input("R")), db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("dup_free"), std::string::npos) << *out;
  EXPECT_NE(out->find("rows="), std::string::npos) << *out;
  EXPECT_NE(out->find("const{1=k0}"), std::string::npos) << *out;
}

// ------------------------------------------------ scan facts, cached

/// A copy of `bag` with its own representation, so nothing computed for
/// `bag` is cached on it yet.
Bag FreshCopy(const Bag& bag) {
  return Bag::FromCanonicalEntries(bag.element_type(), bag.entries());
}

/// The per-column facts a scan of `bag` must carry, recomputed here by
/// walking every entry: constant columns, and single-column keys (in
/// column order, at most four, none on unary rows). Empty beyond 4096
/// distinct entries, where the planner does not inspect columns.
struct ColumnReference {
  std::map<size_t, Value> const_cols;
  std::vector<std::vector<size_t>> keys;
};

ColumnReference ReferenceColumns(const Bag& bag) {
  ColumnReference ref;
  const Type& element = bag.element_type();
  if (!element.IsTuple() || bag.empty() || bag.DistinctCount() > 4096) {
    return ref;
  }
  const size_t arity = element.fields().size();
  for (size_t c = 1; c <= arity; ++c) {
    std::set<Value> seen;
    bool constant = true;
    const Value& first = bag.entries()[0].value.fields()[c - 1];
    for (const BagEntry& e : bag.entries()) {
      const Value& v = e.value.fields()[c - 1];
      constant = constant && v == first;
      seen.insert(v);
    }
    if (constant) ref.const_cols.emplace(c, first);
    if (seen.size() == bag.DistinctCount() && arity > 1 &&
        ref.keys.size() < 4) {
      ref.keys.push_back({c});
    }
  }
  return ref;
}

void ExpectSameFacts(const IrFacts& a, const IrFacts& b,
                     const std::string& what) {
  EXPECT_EQ(a.shape, b.shape) << what;
  EXPECT_EQ(a.arity, b.arity) << what;
  EXPECT_EQ(a.dup_free, b.dup_free) << what;
  EXPECT_EQ(a.keys, b.keys) << what;
  EXPECT_EQ(a.const_cols, b.const_cols) << what;
  EXPECT_EQ(a.disjoint_children, b.disjoint_children) << what;
  EXPECT_EQ(a.min_rows, b.min_rows) << what;
  EXPECT_EQ(a.max_rows, b.max_rows) << what;
  EXPECT_EQ(a.ToString(), b.ToString()) << what;
}

/// Bags covering every scan-fact case: set-like and duplicate-heavy,
/// key and constant columns, unary and non-tuple rows, random wide bags,
/// and one bag past the per-column cap.
std::vector<Bag> ScanFactCorpus() {
  Database db = CorpusDb();
  std::vector<Bag> bags;
  for (const auto& [name, bag] : db.instances()) bags.push_back(bag);
  bags.push_back(TwoColBag());
  bags.push_back(MakeBag({{MakeTuple({A("k0"), A("c"), A("v0")}), 1},
                          {MakeTuple({A("k1"), A("c"), A("v0")}), 3},
                          {MakeTuple({A("k2"), A("c"), A("v1")}), 1}}));
  bags.push_back(MakeBagOf({A("x"), A("y")}));
  Rng rng(7);
  for (size_t arity : {1u, 3u, 6u}) {
    FlatBagSpec spec;
    spec.arity = arity;
    spec.num_atoms = 40;
    spec.num_elements = 300;
    bags.push_back(RandomFlatBag(rng, spec));
  }
  Bag::Builder wide;
  for (size_t i = 0; i < 4200; ++i) {
    wide.AddOne(MakeTuple({MakeAtom('w' + std::to_string(i)), A("c")}));
  }
  bags.push_back(*std::move(wide).Build());
  return bags;
}

/// Facts of a one-scan plan over `bag`.
IrFacts ScanPlanFacts(const Bag& bag) {
  IrPlan plan;
  plan.root = ScanOf("X", bag);
  auto facts = ComputeIrFacts(plan);
  EXPECT_TRUE(facts.ok()) << facts.status();
  return facts.ok() ? facts->at(plan.root.get()) : IrFacts{};
}

TEST(IrFactsTest, CachedScanFactsEqualAFreshComputation) {
  for (const Bag& original : ScanFactCorpus()) {
    const std::string what = original.ToString().substr(0, 80);
    const Bag bag = FreshCopy(original);
    const IrFacts first = ScanPlanFacts(bag);   // walks, then caches
    const IrFacts second = ScanPlanFacts(bag);  // reads the cache
    ExpectSameFacts(first, second, what);
    ExpectSameFacts(first, ScanPlanFacts(FreshCopy(original)), what);
    const ColumnReference ref = ReferenceColumns(original);
    EXPECT_EQ(first.const_cols, ref.const_cols) << what;
    EXPECT_EQ(first.keys, ref.keys) << what;
    EXPECT_EQ(first.dup_free, original.IsSetLike()) << what;
    EXPECT_EQ(first.max_rows, original.DistinctCount()) << what;
  }
}

void CollectNodes(const IrNode* node, std::vector<const IrNode*>* out) {
  out->push_back(node);
  for (const auto& child : node->children) CollectNodes(child.get(), out);
}

TEST(IrFactsTest, PlanFactsMatchBetweenWarmAndFreshInstances) {
  const Database warm = CorpusDb();
  const std::vector<Expr> corpus = {
      Input("R"),
      Eps(Input("S")),
      Select(Proj(Var(0), 1), ConstExpr(A("k0")), Input("R")),
      Select(Proj(Var(0), 2), Proj(Var(0), 4),
             Product(Input("R"), Input("R2"))),
      Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2"))),
      Monus(Input("R"), Input("R2")),
      Inter(Input("R"), Uplus(Input("R"), Input("R2"))),
  };
  for (const Expr& q : corpus) {
    // Lowering twice over `warm` reads cached scan facts the second time;
    // a fresh instance with the same contents computes them anew.
    for (int round = 0; round < 2; ++round) {
      const Database fresh_db = CorpusDb();
      auto cached = LowerToIr(q, warm);
      auto fresh = LowerToIr(q, fresh_db);
      ASSERT_TRUE(cached.ok() && fresh.ok()) << q.ToString();
      auto cached_facts = ComputeIrFacts(*cached);
      auto fresh_facts = ComputeIrFacts(*fresh);
      ASSERT_TRUE(cached_facts.ok() && fresh_facts.ok()) << q.ToString();
      std::vector<const IrNode*> a, b;
      CollectNodes(cached->root.get(), &a);
      CollectNodes(fresh->root.get(), &b);
      ASSERT_EQ(a.size(), b.size()) << q.ToString();
      for (size_t i = 0; i < a.size(); ++i) {
        ExpectSameFacts(cached_facts->at(a[i]), fresh_facts->at(b[i]),
                        q.ToString() + " node " + std::to_string(i));
      }
      EXPECT_EQ(ir::ExplainIrPlan(*cached), ir::ExplainIrPlan(*fresh))
          << q.ToString();
    }
  }
}

TEST(IrFactsTest, RebindingANameYieldsFreshFacts) {
  Database db;
  ASSERT_TRUE(db.Put("T", MakeBagOf({MakeTuple({A("k0"), A("c")}),
                                     MakeTuple({A("k1"), A("c")})}))
                  .ok());
  auto before = ir::ExplainIrFacts(Input("T"), db);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NE(before->find("const{2=c}"), std::string::npos) << *before;
  EXPECT_NE(before->find("key{1}"), std::string::npos) << *before;

  // Same name, new value: now column 1 is constant and column 2 the key.
  ASSERT_TRUE(db.Put("T", MakeBagOf({MakeTuple({A("k0"), A("c")}),
                                     MakeTuple({A("k0"), A("d")})}))
                  .ok());
  auto after = ir::ExplainIrFacts(Input("T"), db);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->find("const{2=c}"), std::string::npos) << *after;
  EXPECT_NE(after->find("const{1=k0}"), std::string::npos) << *after;
  EXPECT_EQ(after->find("key{1}"), std::string::npos) << *after;
  EXPECT_NE(after->find("key{2}"), std::string::npos) << *after;
}

TEST(IrFactsTest, ConcurrentPlansOverOneSharedBagAgree) {
  Rng rng(11);
  FlatBagSpec spec;
  spec.arity = 3;
  spec.num_atoms = 60;
  spec.num_elements = 2000;
  // A fresh representation: all eight threads race to fill its cache.
  const Bag shared = FreshCopy(RandomFlatBag(rng, spec));
  const std::string expected = ScanPlanFacts(FreshCopy(shared)).ToString();
  constexpr int kThreads = 8;
  std::vector<IrPlan> plans(kThreads);
  for (IrPlan& plan : plans) plan.root = ScanOf("X", shared);
  std::vector<std::string> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&plans, &seen, t] {
      const IrPlan& plan = plans[static_cast<size_t>(t)];
      for (int i = 0; i < 20; ++i) {
        auto facts = ComputeIrFacts(plan);
        seen[static_cast<size_t>(t)] =
            facts.ok() ? facts->at(plan.root.get()).ToString()
                       : facts.status().ToString();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expected) << t;
}

// --------------------------------------------------- fact-driven passes

TEST(FactPassTest, RedundantDupElimIsRemovedOverASetLikeScan) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Eps(Input("R")), db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->passes.dup_elims_removed, 1u);
  EXPECT_EQ(plan->root->kind, IrKind::kScan);
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(Eps(Input("R")), db);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(*got == *want);
}

TEST(FactPassTest, DupElimOverADupHeavyScanIsKept) {
  Database db = CorpusDb();
  auto plan = LowerToIr(Eps(Input("S")), db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->passes.dup_elims_removed, 0u);
  EXPECT_EQ(plan->root->kind, IrKind::kDupElim);
}

TEST(FactPassTest, DeadColumnsNarrowAJoinSide) {
  Database db = CorpusDb();
  // Join R and R2 on their value columns, then keep only R's key: R2
  // contributes no live column beyond its join key.
  Expr q = ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                               Product(Input("R"), Input("R2"))),
                        {1});
  auto plan = LowerToIr(q, db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->passes.dead_columns, 0u);
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(q, db);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(*got == *want);
}

TEST(FactPassTest, ConstFoldErasesATautologicalFilter) {
  Database db = CorpusDb();
  // MAP builds ('x, a1); the filter compares the constant column to 'x.
  Expr q = Select(Proj(Var(0), 1), ConstExpr(A("x")),
                  Map(Tup({ConstExpr(A("x")), Proj(Var(0), 1)}),
                      Input("S")));
  auto plan = LowerToIr(q, db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->passes.const_folds, 0u);
  auto got = ExecuteIr(*plan, db);
  Evaluator eval;
  auto want = eval.EvalToBag(q, db);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(*got == *want);
}

TEST(FactPassTest, ConstFoldEmptiesAProvablyFalseFilter) {
  Database db = CorpusDb();
  Expr q = Select(Proj(Var(0), 1), ConstExpr(A("nope")),
                  Map(Tup({ConstExpr(A("x")), Proj(Var(0), 1)}),
                      Input("S")));
  auto plan = LowerToIr(q, db, NoRewrite());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto got = ExecuteIr(*plan, db);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->DistinctCount(), 0u);
}

// --------------------------------------------- translation validation

TEST(ValidateTranslationTest, SoundPassesValidateCleanly) {
  Database db = CorpusDb();
  const std::vector<Expr> corpus = {
      Eps(Input("R")),
      Select(Proj(Var(0), 2), Proj(Var(0), 4),
             Product(Input("R"), Input("R2"))),
      ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                          Product(Input("R"), Input("R2"))),
                   {1}),
      Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2"))),
      Select(Proj(Var(0), 1), ConstExpr(A("v0")),
             Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R"))),
  };
  for (const Expr& q : corpus) {
    ValidationReport report;
    Status st = ValidateTranslation(q, db, &report, NoRewrite());
    EXPECT_TRUE(st.ok()) << q.ToString() << ": " << st;
    EXPECT_GT(report.passes_changed, 0u) << q.ToString();
  }
}

// Each seeded mutation must be rejected by the verifier or by
// translation validation — zero silent escapes. Every trigger expression
// is chosen so the mutated code path demonstrably fires (the companion
// sanity check: with kNone the same expression validates cleanly).
struct MutationCase {
  PassMutation mutation;
  const char* name;
  Expr expr;
};

std::vector<MutationCase> MutationCorpus() {
  Expr reorder_trigger =
      Select(Proj(Var(0), 1), ConstExpr(A("v0")),
             Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}), Input("R")));
  Expr hash_join = Select(Proj(Var(0), 2), Proj(Var(0), 4),
                          Product(Input("R"), Input("R2")));
  return {
      {PassMutation::kDropFilterDuringReorder, "drop-filter",
       reorder_trigger},
      {PassMutation::kWrongGatherRemap, "wrong-gather-remap",
       reorder_trigger},
      {PassMutation::kHashJoinProbeKeyOutOfBounds, "probe-key-oob",
       hash_join},
      {PassMutation::kHashJoinWrongBuildKey, "wrong-build-key", hash_join},
      {PassMutation::kNoShiftOnBuildPushdown, "no-shift-build-pushdown",
       Select(Proj(Var(0), 3), ConstExpr(A("a1")),
              Product(Input("R"), Input("R2")))},
      {PassMutation::kUnionPushdownDropsChild, "union-drops-child",
       Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2")))},
      {PassMutation::kDupElimDropUnproven, "dup-elim-unproven",
       Eps(Input("S"))},
      {PassMutation::kConstFoldInverted, "const-fold-inverted",
       Select(Proj(Var(0), 1), ConstExpr(A("x")),
              Map(Tup({ConstExpr(A("x")), Proj(Var(0), 1)}),
                  Input("S")))},
      {PassMutation::kDeadColumnDropsLive, "dead-column-drops-live",
       ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 4),
                           Product(Input("R"), Input("R2"))),
                    {1})},
      {PassMutation::kCseKeyIgnoresStages, "cse-key-ignores-stages",
       Uplus(Map(Tup({ConstExpr(A("q"))}), Eps(Input("S"))),
             Eps(Input("S")))},
  };
}

TEST(MutationCorpusTest, EveryMutantIsRejectedWithZeroSilentEscapes) {
  Database db = CorpusDb();
  for (const MutationCase& c : MutationCorpus()) {
    {
      // Sanity: the unmutated pipeline handles the trigger cleanly.
      Status clean = ValidateTranslation(c.expr, db, nullptr, NoRewrite());
      EXPECT_TRUE(clean.ok()) << c.name << " (clean): " << clean;
    }
    MutationGuard guard(c.mutation);
    Status st = ValidateTranslation(c.expr, db, nullptr, NoRewrite());
    EXPECT_FALSE(st.ok()) << c.name << " escaped silently";
    if (!st.ok()) {
      bool named = st.message().find("ir verify") != std::string::npos ||
                   st.message().find("translation validation") !=
                       std::string::npos;
      EXPECT_TRUE(named) << c.name << ": " << st;
    }
  }
}

TEST(MutationCorpusTest, StructuralMutantsAreCaughtByTheVerifierAlone) {
  // These corrupt the plan shape itself, so plain lowering with
  // verification on — no execution, no observer — must already fail.
  Database db = CorpusDb();
  const std::vector<MutationCase> structural = {
      {PassMutation::kHashJoinProbeKeyOutOfBounds, "probe-key-oob",
       Select(Proj(Var(0), 2), Proj(Var(0), 4),
              Product(Input("R"), Input("R2")))},
      {PassMutation::kNoShiftOnBuildPushdown, "no-shift-build-pushdown",
       Select(Proj(Var(0), 3), ConstExpr(A("a1")),
              Product(Input("R"), Input("R2")))},
      {PassMutation::kUnionPushdownDropsChild, "union-drops-child",
       Map(Tup({Proj(Var(0), 1)}), Uplus(Input("R"), Input("R2")))},
  };
  for (const MutationCase& c : structural) {
    MutationGuard guard(c.mutation);
    LowerOptions options = NoRewrite();
    options.verify = LowerOptions::Verify::kOn;
    auto plan = LowerToIr(c.expr, db, options);
    EXPECT_FALSE(plan.ok()) << c.name;
    if (!plan.ok()) {
      EXPECT_NE(plan.status().message().find("ir verify after pass"),
                std::string::npos)
          << c.name << ": " << plan.status();
    }
  }
}

// ------------------------------------------------------------ fuzzing

TEST(ValidateTranslationFuzzTest, RandomPlansValidateAcrossThePipeline) {
  Schema schema{{"R", Type::Bag(Type::Tuple({Type::Atom()}))},
                {"S", Type::Bag(Type::Tuple({Type::Atom(), Type::Atom()}))}};
  ExprGenOptions gen;
  gen.max_bag_nesting = 1;
  gen.allow_powerset = false;
  gen.growth_rounds = 10;
  size_t lowered = 0;
  for (uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(0x5eedf00d + seed);
    FlatBagSpec spec1;
    spec1.arity = 1;
    spec1.num_atoms = 3;
    spec1.num_elements = 4;
    spec1.max_mult = 3;
    FlatBagSpec spec2 = spec1;
    spec2.arity = 2;
    Database db;
    ASSERT_TRUE(db.Put("R", RandomFlatBag(rng, spec1)).ok());
    ASSERT_TRUE(db.Put("S", RandomFlatBag(rng, spec2)).ok());
    auto e = RandomExpr(rng, schema, gen);
    ASSERT_TRUE(e.ok()) << e.status();
    Status st = ValidateTranslation(*e, db);
    if (st.ok()) {
      lowered++;
      continue;
    }
    // Plans outside the BALG¹ pipeline fragment legitimately fail to
    // lower (kUnsupported); verifier or validator rejections are bugs.
    EXPECT_NE(st.code(), StatusCode::kInternal)
        << "seed " << seed << " over " << e->ToString() << ": " << st;
  }
  // The generator must actually exercise the pipeline, not just produce
  // unsupported plans.
  EXPECT_GE(lowered, 50u);
}

// ------------------------------------------- lint: registry + W006/W007

TEST(LintRegistryTest, BuiltInsKeepRegistrationOrderAndReplaceInPlace) {
  const std::vector<std::string> want = {"W001", "W002", "W003", "W004",
                                         "W005", "W006", "W007", "E001"};
  auto codes = [] {
    std::vector<std::string> got;
    for (const LintRule& r : LintRuleRegistry::Global().rules()) {
      got.push_back(r.code);
    }
    return got;
  };
  EXPECT_EQ(codes(), want);
  // Re-registering an existing code replaces the rule in place: the order
  // is unchanged and the replacement is live.
  LintRule original;
  for (const LintRule& r : LintRuleRegistry::Global().rules()) {
    if (r.code == "W003") original = r;
  }
  LintRuleRegistry::Global().Register(
      {"W003", "replacement", [](const analysis::LintContext&,
                                 std::vector<LintDiag>*) {}});
  EXPECT_EQ(codes(), want);
  EXPECT_EQ(LintRuleRegistry::Global().rules()[2].description,
            "replacement");
  LintRuleRegistry::Global().Register(original);
  EXPECT_EQ(codes(), want);
}

TEST(LintTest, W006FiresOnDupElimOfDupElim) {
  Database db = CorpusDb();
  auto diags =
      RunLint(Eps(Eps(Input("S"))), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W006") {
      found = true;
      EXPECT_EQ(d.span, "dedup");
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W006FiresOnDupElimOfSetLikeInputOnlyWithExactFacts) {
  Database db = CorpusDb();
  auto exact =
      RunLint(Eps(Input("R")), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(exact.ok());
  bool found = false;
  for (const LintDiag& d : *exact) found |= d.code == "W006";
  EXPECT_TRUE(found);
  // Symbolic facts carry no instance, so dup-freedom of R is unprovable.
  auto symbolic =
      RunLint(Eps(Input("R")), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(symbolic.ok());
  for (const LintDiag& d : *symbolic) EXPECT_NE(d.code, "W006");
}

TEST(LintTest, W006SilentOnDupElimOfADupHeavyInput) {
  Database db = CorpusDb();
  auto diags = RunLint(Eps(Input("S")), db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok());
  for (const LintDiag& d : *diags) EXPECT_NE(d.code, "W006");
}

TEST(LintTest, W007FiresOnAPartiallyReadProjection) {
  Database db = CorpusDb();
  // The inner MAP builds 2 columns; the outer MAP reads only column 1.
  Expr q = Map(Tup({Proj(Var(0), 1)}),
               Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}), Input("R")));
  auto diags = RunLint(q, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W007") {
      found = true;
      EXPECT_NE(d.message.find("dead columns: 2"), std::string::npos)
          << d.message;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W007SilentWhenEveryColumnIsReadOrTheRowEscapes) {
  Database db = CorpusDb();
  Expr full = Map(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}),
                  Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}), Input("R")));
  auto diags = RunLint(full, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(diags.ok());
  for (const LintDiag& d : *diags) EXPECT_NE(d.code, "W007");
  // The raw row escaping into the body makes every column live.
  Expr escape = Map(Var(0), Map(Tup({Proj(Var(0), 1), Proj(Var(0), 2)}),
                                Input("R")));
  auto escaped = RunLint(escape, db.schema(), CostFacts::Exact(db));
  ASSERT_TRUE(escaped.ok());
  for (const LintDiag& d : *escaped) EXPECT_NE(d.code, "W007");
}

// ------------------------------- lint edge cases through derived ops

TEST(LintTest, W003FiresThroughDerivedEpsExpansions) {
  Database db = CorpusDb();
  Expr eps = EpsViaPowerset(Input("S"));
  auto diags = RunLint(Monus(eps, eps), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) found |= d.code == "W003";
  EXPECT_TRUE(found);
}

TEST(LintTest, W004FiresOnARewritableDerivedExpansion) {
  Database db = CorpusDb();
  // ∸ of the empty constant bag is removable (monus-empty), buried under
  // a derived expansion.
  Expr q = Monus(EpsViaPowerset(Input("S")), ConstBag(Bag()));
  auto diags = RunLint(q, db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const LintDiag& d : *diags) {
    if (d.code == "W004") {
      found = true;
      EXPECT_NE(d.message.find("monus-empty"), std::string::npos)
          << d.message;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, W005FiresPerOccurrenceOnCseSharedSubtrees) {
  Database db = CorpusDb();
  // The same physically shared MAP-over-powerset subtree used twice: the
  // rule reports both occurrences (spans are per pre-order path), even
  // though CSE will evaluate the subtree once.
  Expr shared = Map(Var(0), Pow(Input("S")));
  auto diags =
      RunLint(Uplus(shared, shared), db.schema(), CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  size_t w005 = 0;
  for (const LintDiag& d : *diags) {
    if (d.code == "W005") {
      w005++;
      EXPECT_EQ(d.span, "uplus > map");
    }
  }
  EXPECT_EQ(w005, 2u);
}

}  // namespace
}  // namespace bagalg
