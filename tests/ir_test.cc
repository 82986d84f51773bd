// Tests for the fused loop IR: compiled row programs, lowering and the IR
// passes (hash-join promotion, pushdowns, CSE), the vectorized batch
// interpreter, engine dispatch/reporting, and — the governor-parity
// property promised in util/governor.h — byte-for-byte agreement between
// per-row and per-batch checkpoint ticking.

#include "src/ir/lower.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/analysis/lint.h"
#include "src/analysis/static_cost.h"
#include "src/exec/compile.h"
#include "src/ir/exec_ir.h"
#include "src/ir/ir.h"
#include "src/ir/program.h"
#include "src/lang/script.h"
#include "src/util/governor.h"

namespace bagalg {
namespace {

using ir::ExecuteIr;
using ir::IrKind;
using ir::LowerOptions;
using ir::LowerToIr;
using ir::RowProgram;

Value A(const char* name) { return MakeAtom(name); }

Database Db(std::initializer_list<std::pair<std::string, Bag>> items) {
  Database db;
  for (const auto& [name, bag] : items) {
    Status st = db.Put(name, bag);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

/// The §4 join pipeline over B: π_{1,4}(σ_{2=3}(B × B)).
Expr JoinChain(const char* input) {
  return ProjectAttrs(Select(Proj(Var(0), 2), Proj(Var(0), 3),
                             Product(Input(input), Input(input))),
                      {1, 4});
}

/// A flat bag of n distinct 2-tuples [kI, vI], each with multiplicity 1 —
/// sized to straddle batch boundaries.
Bag DistinctPairs(size_t n) {
  Bag::Builder builder;
  builder.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    builder.AddOne(MakeTuple({MakeAtom('k' + std::to_string(i)),
                              MakeAtom('v' + std::to_string(i % 7))}));
  }
  auto bag = std::move(builder).Build();
  EXPECT_TRUE(bag.ok());
  return *bag;
}

// ------------------------------------------------------------ RowProgram

TEST(RowProgramTest, IdentityFastPath) {
  auto p = RowProgram::Compile(Var(0));
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsIdentity());
  EXPECT_EQ(p->ToString(), "x");
  Value row = MakeTuple({A("a"), A("b")});
  auto out = p->Run(row);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, row);
  // The whole row escapes: no column set to push across.
  EXPECT_FALSE(p->ColumnRefs().has_value());
}

TEST(RowProgramTest, FieldRefFastPath) {
  auto p = RowProgram::Compile(Proj(Var(0), 2));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->FieldRef().has_value());
  EXPECT_EQ(*p->FieldRef(), 2u);
  EXPECT_EQ(p->ToString(), "a2");
  auto out = p->Run(MakeTuple({A("a"), A("b")}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, A("b"));
  auto refs = p->ColumnRefs();
  ASSERT_TRUE(refs.has_value());
  EXPECT_EQ(*refs, std::vector<size_t>{2});
}

TEST(RowProgramTest, GatherFastPathSwapsColumns) {
  auto p = RowProgram::Compile(Tup({Proj(Var(0), 2), Proj(Var(0), 1)}));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->Gather().has_value());
  EXPECT_EQ(*p->Gather(), (std::vector<size_t>{2, 1}));
  EXPECT_EQ(p->ToString(), "t(a2, a1)");
  auto out = p->Run(MakeTuple({A("a"), A("b")}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, MakeTuple({A("b"), A("a")}));
}

TEST(RowProgramTest, RunReportsBadProjection) {
  auto p = RowProgram::Compile(Proj(Var(0), 9));
  ASSERT_TRUE(p.ok());
  auto out = p->Run(MakeTuple({A("a"), A("b")}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("bad attribute projection"),
            std::string::npos);
  // Non-tuple operand trips the same way.
  EXPECT_FALSE(RowProgram::Compile(Proj(Var(0), 1))->Run(A("x")).ok());
}

TEST(RowProgramTest, CompileRejectsOutsideFragment) {
  auto deep = RowProgram::Compile(Var(1));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(deep.status().message().find("single binder level"),
            std::string::npos);
  auto bag_op = RowProgram::Compile(Eps(Var(0)));
  ASSERT_FALSE(bag_op.ok());
  EXPECT_EQ(bag_op.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(bag_op.status().message().find("outside the pipeline fragment"),
            std::string::npos);
}

TEST(RowProgramTest, ShiftColumnsRebasesForBuildSide) {
  auto p = RowProgram::Compile(Proj(Var(0), 3));
  ASSERT_TRUE(p.ok());
  p->ShiftColumns(2);
  ASSERT_TRUE(p->FieldRef().has_value());
  EXPECT_EQ(*p->FieldRef(), 1u);
}

TEST(RowProgramTest, RemapColumnsFollowsGatherPermutation) {
  // Pushing a filter on column 2 below a projection t(a3, a1) means the
  // filter must read column 1 of the *unprojected* row.
  auto p = RowProgram::Compile(Proj(Var(0), 2));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p->RemapColumns({3, 1}));
  EXPECT_EQ(*p->FieldRef(), 1u);
  // A reference with no mapping refuses the push.
  auto q = RowProgram::Compile(Proj(Var(0), 5));
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->RemapColumns({3, 1}));
}

// ------------------------------------------ batched governor checkpoints

/// The satellite's paired property: for any item count and any batch
/// split, BatchCheckpointTicker must account exactly the bytes the per-row
/// CheckpointTicker accounts for the same items (both followed by the
/// mandatory final Flush).
TEST(BatchTickerTest, ByteAccountingMatchesPerRowTicker) {
  constexpr uint64_t kBytes = 16;
  const uint64_t counts[] = {0, 1, 511, 512, 513, 1024, 1025, 5000};
  for (uint64_t n : counts) {
    ResourceGovernor per_row{GovernorOptions{}};
    {
      CheckpointTicker ticker(&per_row, kBytes);
      for (uint64_t i = 0; i < n; ++i) {
        if (ticker.Due()) {
          ASSERT_TRUE(ticker.Flush().ok());
        }
      }
      ASSERT_TRUE(ticker.Flush().ok());
    }
    ResourceGovernor batched{GovernorOptions{}};
    {
      BatchCheckpointTicker ticker(&batched, kBytes);
      // Deliberately ragged batch sizes, including empty batches.
      const uint64_t splits[] = {1, 7, 0, 511, 1024, 3};
      uint64_t remaining = n;
      size_t i = 0;
      while (remaining > 0) {
        uint64_t take = splits[i++ % (sizeof(splits) / sizeof(splits[0]))];
        if (take > remaining) take = remaining;
        ASSERT_TRUE(ticker.OnBatch(take).ok());
        remaining -= take;
      }
      ASSERT_TRUE(ticker.Flush().ok());
    }
    EXPECT_EQ(per_row.bytes_allocated(), batched.bytes_allocated())
        << "n=" << n;
    EXPECT_EQ(batched.bytes_allocated(), n * kBytes) << "n=" << n;
  }
}

TEST(BatchTickerTest, FullBatchObservesDeadline) {
  GovernorOptions options;
  options.wall_limit_ns = 1;
  ResourceGovernor gov{options};
  BatchCheckpointTicker ticker(&gov, 8);
  // A full batch crosses the stride, so the trip lands on this OnBatch.
  Status st = ticker.OnBatch(1024);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gov.trip_kind(), TripKind::kDeadline);
}

TEST(BatchTickerTest, MemoryCapTripsOnAccountedBatches) {
  GovernorOptions options;
  options.memory_limit_bytes = 4096;
  ResourceGovernor gov{options};
  BatchCheckpointTicker ticker(&gov, 64);
  Status st = ticker.OnBatch(1024);  // accounts 64 KiB, far over the cap
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.trip_kind(), TripKind::kMemcap);
}

TEST(BatchTickerTest, UngovernedTickerIsANoop) {
  BatchCheckpointTicker ticker(nullptr, 64);
  EXPECT_FALSE(ticker.active());
  EXPECT_TRUE(ticker.OnBatch(1 << 20).ok());
  EXPECT_TRUE(ticker.Flush().ok());
}

// --------------------------------------------------- lowering and passes

TEST(LowerTest, JoinChainPromotesToHashJoin) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  LowerOptions options;
  options.optimize_first = false;  // assert on the raw lowering shape
  auto plan = LowerToIr(JoinChain("B"), db, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->passes.hash_joins, 1u);
  ASSERT_NE(plan->root, nullptr);
  EXPECT_EQ(plan->root->kind, IrKind::kHashJoin);
  EXPECT_EQ(plan->root->probe_arity, 2u);
  EXPECT_EQ(plan->root->probe_key, 2u);
  EXPECT_EQ(plan->root->build_key, 1u);
  ASSERT_EQ(plan->root->children.size(), 2u);
  // The fused projection π_{1,4} stays on the join node.
  ASSERT_FALSE(plan->root->stages.empty());
  EXPECT_EQ(plan->root->stages.back().kind, ir::StageKind::kProject);
}

TEST(LowerTest, ExplainIrRendersThePipelineTree) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  auto text = ir::ExplainIr(JoinChain("B"), db);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("ir plan:"), std::string::npos) << *text;
  EXPECT_NE(text->find("batch=1024"), std::string::npos) << *text;
  EXPECT_NE(text->find("hash_join"), std::string::npos) << *text;
  EXPECT_NE(text->find("probe:"), std::string::npos) << *text;
  EXPECT_NE(text->find("build:"), std::string::npos) << *text;
  EXPECT_NE(text->find("| project"), std::string::npos) << *text;
}

TEST(LowerTest, OutsideFragmentIsUnsupported) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  auto plan = LowerToIr(Pow(Input("S")), db);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
  auto missing = LowerToIr(Input("ZZZ"), db);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(LowerTest, CsePassMarksRepeatedBlockingSubplans) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"X", x}});
  LowerOptions options;
  options.optimize_first = false;
  auto plan = LowerToIr(Uplus(Eps(Input("X")), Eps(Input("X"))), db, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // One shared group: the two identical ε pipelines.
  EXPECT_EQ(plan->passes.cse_nodes, 1u);
  ASSERT_EQ(plan->root->children.size(), 2u);
  for (const auto& child : plan->root->children) {
    EXPECT_TRUE(child->cse_shared);
    EXPECT_FALSE(child->cse_key.empty());
  }
  EXPECT_EQ(plan->root->children[0]->cse_key, plan->root->children[1]->cse_key);
}

// ------------------------------------------------ the batch interpreter

TEST(ExecIrTest, JoinMatchesTheEvaluator) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  Evaluator eval;
  auto reference = eval.EvalToBag(JoinChain("B"), db);
  ASSERT_TRUE(reference.ok());
  auto plan = LowerToIr(JoinChain("B"), db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto out = ExecuteIr(*plan, db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, *reference);
  EXPECT_EQ(out->CountOf(MakeTuple({A("a"), A("a")})), Mult(12));
}

TEST(ExecIrTest, BatchBoundarySizesRoundTrip) {
  // One row short of a batch, exactly one batch, one row over.
  for (size_t n : {1023u, 1024u, 1025u}) {
    Database db = Db({{"R", DistinctPairs(n)}});
    Expr q = Select(Proj(Var(0), 2), Proj(Var(0), 2),
                    ProjectAttrs(Input("R"), {2, 1}));
    Evaluator eval;
    auto reference = eval.EvalToBag(q, db);
    ASSERT_TRUE(reference.ok());
    auto plan = LowerToIr(q, db);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto out = ExecuteIr(*plan, db);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, *reference) << "n=" << n;
    EXPECT_EQ(out->TotalCount(), Mult(n)) << "n=" << n;
  }
}

TEST(ExecIrTest, MergeKindsNativeAndViaBridgeAgree) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Bag y = MakeBag({{MakeTuple({A("x")}), 2}, {MakeTuple({A("z")}), 7}});
  Database db = Db({{"X", x}, {"Y", y}});
  Evaluator eval;
  const Expr queries[] = {Monus(Input("X"), Input("Y")),
                          Umax(Input("X"), Input("Y")),
                          Inter(Input("X"), Input("Y"))};
  for (const Expr& q : queries) {
    auto reference = eval.EvalToBag(q, db);
    ASSERT_TRUE(reference.ok());
    auto native = LowerToIr(q, db);
    ASSERT_TRUE(native.ok()) << native.status();
    EXPECT_EQ(native->root->kind, IrKind::kMerge);
    auto native_out = ExecuteIr(*native, db);
    ASSERT_TRUE(native_out.ok()) << native_out.status();
    EXPECT_EQ(*native_out, *reference) << q.ToString();

    LowerOptions bridged;
    bridged.merges_via_bridge = true;
    auto bridge = LowerToIr(q, db, bridged);
    ASSERT_TRUE(bridge.ok()) << bridge.status();
    EXPECT_EQ(bridge->root->kind, IrKind::kBridge);
    auto bridge_out = ExecuteIr(*bridge, db);
    ASSERT_TRUE(bridge_out.ok()) << bridge_out.status();
    EXPECT_EQ(*bridge_out, *reference) << q.ToString();
  }
}

TEST(ExecIrTest, CseSharingPreservesSemantics) {
  Bag x = MakeBag({{MakeTuple({A("x")}), 5}, {MakeTuple({A("y")}), 1}});
  Database db = Db({{"X", x}});
  Expr q = Uplus(Eps(Input("X")), Eps(Input("X")));
  Evaluator eval;
  auto reference = eval.EvalToBag(q, db);
  ASSERT_TRUE(reference.ok());
  LowerOptions options;
  options.optimize_first = false;
  auto plan = LowerToIr(q, db, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_GE(plan->passes.cse_nodes, 1u);
  auto out = ExecuteIr(*plan, db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, *reference);
}

// ------------------------------------------------------- engine dispatch

TEST(EngineTest, StrictIrRefusesUnsupportedPlans) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  exec::ExecOptions options;
  options.engine = exec::Engine::kIr;
  auto out = exec::RunPipeline(Pow(Input("S")), db, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
}

TEST(EngineTest, AutoPrefersTheIrEngine) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  exec::ExecReport report;
  exec::ExecOptions options;
  options.engine = exec::Engine::kAuto;
  options.report = &report;
  auto out = exec::RunPipeline(Eps(Input("S")), db, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(report.engine_used, exec::Engine::kIr);
  EXPECT_FALSE(report.fell_back);
}

TEST(EngineTest, AutoFallsBackToVolcanoOnPlansTheIrCannotLower) {
  // P is outside both engines' fragments, but under kAuto the dispatcher
  // records the attempted fallback: the IR refuses at lowering time, the
  // Volcano leg runs (and refuses too — the final status is its verdict).
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  exec::ExecReport report;
  exec::ExecOptions options;
  options.engine = exec::Engine::kAuto;
  options.report = &report;
  auto out = exec::RunPipeline(Pow(Input("S")), db, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(report.engine_used, exec::Engine::kVolcano);
  EXPECT_TRUE(report.fell_back);
}

TEST(EngineTest, VolcanoPinRunsTheOldEngine) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")})})}});
  exec::ExecReport report;
  exec::ExecOptions options;
  options.engine = exec::Engine::kVolcano;
  options.report = &report;
  auto out = exec::RunPipeline(Eps(Input("S")), db, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(report.engine_used, exec::Engine::kVolcano);
  EXPECT_FALSE(report.fell_back);
}

TEST(EngineTest, StrictIrAndPinnedVolcanoAgreeOnResults) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 4},
                   {MakeTuple({A("b"), A("a")}), 3}});
  Database db = Db({{"B", b}});
  auto volcano = exec::RunVolcanoPipeline(JoinChain("B"), db);
  ASSERT_TRUE(volcano.ok()) << volcano.status();
  exec::ExecOptions strict;
  strict.engine = exec::Engine::kIr;
  auto fused = exec::RunPipeline(JoinChain("B"), db, strict);
  ASSERT_TRUE(fused.ok()) << fused.status();
  EXPECT_EQ(*fused, *volcano);
}

TEST(EngineTest, StrictIrCatchesIllTypedLambdasAtPlanTime) {
  // The IR engine typechecks before lowering, so an out-of-range
  // projection is a plan-time kTypeError rather than a mid-run abort —
  // and being a plan-time error it never silently falls back under kIr.
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 1}});
  Database db = Db({{"B", b}});
  exec::ExecOptions strict;
  strict.engine = exec::Engine::kIr;
  auto out = exec::RunPipeline(Map(Proj(Var(0), 9), Input("B")), db, strict);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeError);
}

TEST(EngineTest, EngineFromEnvParsesTheKnownNames) {
  ASSERT_EQ(setenv("BAGALG_EXEC_ENGINE", "ir", 1), 0);
  EXPECT_EQ(exec::EngineFromEnv(), exec::Engine::kIr);
  ASSERT_EQ(setenv("BAGALG_EXEC_ENGINE", "interp", 1), 0);
  EXPECT_EQ(exec::EngineFromEnv(), exec::Engine::kVolcano);
  ASSERT_EQ(setenv("BAGALG_EXEC_ENGINE", "volcano", 1), 0);
  EXPECT_EQ(exec::EngineFromEnv(), exec::Engine::kVolcano);
  ASSERT_EQ(setenv("BAGALG_EXEC_ENGINE", "sorcery", 1), 0);
  EXPECT_EQ(exec::EngineFromEnv(), exec::Engine::kAuto);
  ASSERT_EQ(unsetenv("BAGALG_EXEC_ENGINE"), 0);
  EXPECT_EQ(exec::EngineFromEnv(), exec::Engine::kAuto);
}

// ------------------------------------------------------- REPL and lint

TEST(IrScriptTest, ExplainIrCommandRendersThePlan) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{[a, b], [b, a]}}").ok());
  auto out = runner.RunLine(
      "explain ir map(x -> tup(proj(2, x)), sel(x -> proj(1, x) == 'a, B))");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("ir plan:"), std::string::npos) << *out;
  EXPECT_NE(out->find("batch=1024"), std::string::npos) << *out;
  EXPECT_NE(out->find("scan B"), std::string::npos) << *out;
}

TEST(IrScriptTest, JournalRecordsTheEngineThatRan) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let B = {{[a, b], [b, a]}}").ok());
  ASSERT_TRUE(runner.RunLine("exec uplus(B, B)").ok());
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].kind, "exec");
  EXPECT_EQ(tail[0].engine, "ir");
  ASSERT_TRUE(runner.RunLine("eval uplus(B, B)").ok());
  tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].engine, "eval");
}

TEST(LintTest, W005FiresWhenPowersetBlocksFusion) {
  Database db = Db({{"S", MakeBagOf({MakeTuple({A("x")}),
                                     MakeTuple({A("y")})})}});
  auto diags = analysis::RunLint(Eps(Pow(Input("S"))), db.schema(),
                                 analysis::CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  bool found = false;
  for (const auto& d : *diags) found |= d.code == "W005";
  EXPECT_TRUE(found);

  auto map_over = analysis::RunLint(Map(Var(0), Pow(Input("S"))), db.schema(),
                                    analysis::CostFacts::Symbolic());
  ASSERT_TRUE(map_over.ok()) << map_over.status();
  found = false;
  for (const auto& d : *map_over) found |= d.code == "W005";
  EXPECT_TRUE(found);
}

TEST(LintTest, W005SilentOnFusiblePlans) {
  Bag b = MakeBag({{MakeTuple({A("a"), A("b")}), 1}});
  Database db = Db({{"B", b}});
  auto diags = analysis::RunLint(JoinChain("B"), db.schema(),
                                 analysis::CostFacts::Symbolic());
  ASSERT_TRUE(diags.ok()) << diags.status();
  for (const auto& d : *diags) EXPECT_NE(d.code, "W005");
  // P in operand position (not pipeline position) is W001's business only.
  auto hoisted = analysis::RunLint(Pow(Eps(Input("B"))), db.schema(),
                                   analysis::CostFacts::Symbolic());
  ASSERT_TRUE(hoisted.ok()) << hoisted.status();
  for (const auto& d : *hoisted) EXPECT_NE(d.code, "W005");
}

}  // namespace
}  // namespace bagalg
