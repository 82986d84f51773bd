// Tests for the runtime resource governor: cancellation tokens, deadline /
// memory-cap / cancellation trips, checkpoint tickers, thread-pool governor
// propagation, deterministic fault injection (one-shot sweeps and the
// probabilistic mode), the REPL \timeout / \memlimit commands, and the
// governor.* metric mirroring. Every abort path must surface as a typed
// Status — never a crash — and leave the session usable.

#include "src/util/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/builder.h"
#include "src/algebra/eval.h"
#include "src/exec/compile.h"
#include "src/lang/script.h"
#include "src/obs/metrics.h"
#include "src/util/bignat.h"
#include "src/util/fault.h"
#include "src/util/parallel.h"

namespace bagalg {
namespace {

// ------------------------------------------------------------- fixtures

/// Disarms fault injection on scope exit so a failing test cannot leave a
/// process-global fault armed for the tests after it.
struct FaultDisarmer {
  ~FaultDisarmer() { fault::Disarm(); }
};

/// Restores the default global thread pool on scope exit.
struct PoolRestorer {
  ~PoolRestorer() { ThreadPool::Configure(ParallelOptions::Default()); }
};

Value A(const std::string& name) { return MakeAtom(name); }

/// A bag of n distinct atoms e0..e(n-1); pow() of it has 2^n subbags.
Bag Atoms(size_t n) {
  Bag::Builder b;
  for (size_t i = 0; i < n; ++i) b.AddOne(A('e' + std::to_string(i)));
  auto r = std::move(b).Build();
  EXPECT_TRUE(r.ok()) << r.status();
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

/// A REPL `let` line binding NAME to a bag of n distinct atoms.
std::string LetAtoms(const std::string& name, size_t n) {
  std::string line = "let " + name + " = {{";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) line += ", ";
    line += name + std::to_string(i);
  }
  return line + "}}";
}

GovernorOptions ExpiredDeadline() {
  GovernorOptions options;
  options.wall_limit_ns = 1;
  return options;
}

// ------------------------------------------------------ token + scope

TEST(CancellationTokenTest, DefaultTokenIsInert) {
  CancellationToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  t.Cancel();  // no-op, must not crash
  EXPECT_FALSE(t.cancelled());
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken t = CancellationToken::Create();
  EXPECT_TRUE(t.valid());
  CancellationToken copy = t;
  EXPECT_FALSE(copy.cancelled());
  t.Cancel();
  EXPECT_TRUE(copy.cancelled());
  t.Reset();
  EXPECT_FALSE(copy.cancelled());
}

TEST(GovernorScopeTest, InstallsAndRestores) {
  EXPECT_EQ(CurrentGovernor(), nullptr);
  ResourceGovernor outer{GovernorOptions{}};
  {
    GovernorScope scope(&outer);
    EXPECT_EQ(CurrentGovernor(), &outer);
    {
      ResourceGovernor inner{GovernorOptions{}};
      GovernorScope nested(&inner);
      EXPECT_EQ(CurrentGovernor(), &inner);
    }
    EXPECT_EQ(CurrentGovernor(), &outer);
    {
      // Installing nullptr keeps the outer governor in effect.
      GovernorScope noop(nullptr);
      EXPECT_EQ(CurrentGovernor(), &outer);
    }
  }
  EXPECT_EQ(CurrentGovernor(), nullptr);
}

TEST(GovernorScopeTest, UngovernedHooksAreNoOps) {
  ASSERT_EQ(CurrentGovernor(), nullptr);
  EXPECT_TRUE(GovernorCheckpoint().ok());
  GovernorAccountBytes(1 << 20);  // must not crash or trip anything
  CheckpointTicker ticker(/*bytes_per_tick=*/1);
  EXPECT_FALSE(ticker.active());
  for (int i = 0; i < 2000; ++i) EXPECT_FALSE(ticker.Due());
  EXPECT_TRUE(ticker.Flush().ok());
}

// ---------------------------------------------------------- trip paths

TEST(GovernorTest, ExpiredDeadlineTrips) {
  ResourceGovernor gov(ExpiredDeadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  Status st = gov.Check();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(gov.tripped());
  // Sticky: every later checkpoint repeats the recorded status.
  EXPECT_EQ(gov.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, MemoryCapTrips) {
  GovernorOptions options;
  options.memory_limit_bytes = 100;
  ResourceGovernor gov(options);
  EXPECT_TRUE(gov.Check().ok());
  gov.AccountBytes(250);
  EXPECT_EQ(gov.bytes_allocated(), 250u);
  Status st = gov.Check();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("250"), std::string::npos);
  EXPECT_NE(st.message().find("100"), std::string::npos);
}

TEST(GovernorTest, CancellationTrips) {
  GovernorOptions options;
  options.cancel = CancellationToken::Create();
  ResourceGovernor gov(options);
  EXPECT_TRUE(gov.Check().ok());
  options.cancel.Cancel();
  EXPECT_EQ(gov.Check().code(), StatusCode::kCancelled);
}

TEST(GovernorTest, FirstTripWinsAndIsSticky) {
  // Cancellation is checked before the memory cap, so with both violated
  // the first Check records kCancelled...
  GovernorOptions options;
  options.memory_limit_bytes = 1;
  options.cancel = CancellationToken::Create();
  options.cancel.Cancel();
  ResourceGovernor gov(options);
  gov.AccountBytes(1000);
  EXPECT_EQ(gov.Check().code(), StatusCode::kCancelled);
  // ...and un-cancelling does not un-trip: the memcap violation persists
  // but the recorded first status keeps being returned.
  options.cancel.Reset();
  EXPECT_EQ(gov.Check().code(), StatusCode::kCancelled);
}

TEST(GovernorTest, TickerChecksOnlyAtStrideBoundaries) {
  GovernorOptions options;
  options.memory_limit_bytes = 10;
  ResourceGovernor gov(options);
  CheckpointTicker ticker(&gov, /*bytes_per_tick=*/100);
  ASSERT_TRUE(ticker.active());
  // Bytes are charged lazily: no check is due until the stride-th tick.
  for (uint64_t i = 0; i + 1 < kCheckpointStride; ++i) {
    EXPECT_FALSE(ticker.Due()) << "tick " << i;
  }
  EXPECT_EQ(gov.bytes_allocated(), 0u);
  ASSERT_TRUE(ticker.Due());
  Status st = ticker.Flush();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.bytes_allocated(), 100 * kCheckpointStride);
}

TEST(GovernorTest, StatsCountTrips) {
  GovernorStats before = ResourceGovernor::Stats();
  ResourceGovernor gov(ExpiredDeadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(gov.Check().ok());
  EXPECT_FALSE(gov.Check().ok());  // sticky repeat must not double-count
  GovernorStats after = ResourceGovernor::Stats();
  EXPECT_EQ(after.deadline_trips, before.deadline_trips + 1);
  EXPECT_GE(after.checkpoints, before.checkpoints + 2);
}

TEST(GovernorTest, NewStatusCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
}

// ------------------------------------------------- accounting coverage

TEST(GovernorTest, BagBuilderAccountsLargeOutputs) {
  ResourceGovernor gov{GovernorOptions{}};
  GovernorScope scope(&gov);
  Bag b = Atoms(2 * kGovernorAccountMinEntries);
  EXPECT_EQ(b.DistinctCount(), 2 * kGovernorAccountMinEntries);
  EXPECT_GT(gov.bytes_allocated(), 0u);
}

TEST(GovernorTest, BigNatLimbGrowthIsAccounted) {
  ResourceGovernor gov{GovernorOptions{}};
  GovernorScope scope(&gov);
  // 2^128 needs four 32-bit limbs — past the small-value fast path.
  auto n = BigNat::FromDecimal("340282366920938463463374607431768211456");
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_GT(gov.bytes_allocated(), 0u);
}

// ------------------------------------------------ engine-level trips

TEST(GovernorEvalTest, DeadlineSurfacesAsTypedError) {
  Database db = Db({{"R", Atoms(18)}});
  Evaluator eval;
  ResourceGovernor gov(ExpiredDeadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  eval.set_governor(&gov);
  auto r = eval.EvalToBag(Pow(Input("R")), db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // Detached evaluator works again.
  eval.set_governor(nullptr);
  EXPECT_TRUE(eval.EvalToBag(Input("R"), db).ok());
}

TEST(GovernorEvalTest, MemoryCapSurfacesAsTypedError) {
  Database db = Db({{"R", Atoms(18)}});
  Evaluator eval;
  GovernorOptions options;
  options.memory_limit_bytes = 4096;
  ResourceGovernor gov(options);
  eval.set_governor(&gov);
  auto r = eval.EvalToBag(Pow(Input("R")), db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(gov.bytes_allocated(), options.memory_limit_bytes);
}

TEST(GovernorEvalTest, CrossThreadCancellationAborts) {
  Database db = Db({{"R", Atoms(22)}});
  Evaluator eval;
  GovernorOptions options;
  options.cancel = CancellationToken::Create();
  ResourceGovernor gov(options);
  eval.set_governor(&gov);
  std::thread canceller([&options] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    options.cancel.Cancel();
  });
  // 2^22 subbags takes far longer than 20ms, so the cancel always lands
  // mid-enumeration.
  auto r = eval.EvalToBag(Pow(Input("R")), db);
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(GovernorEvalTest, PoolWorkersInheritTheGovernor) {
  PoolRestorer restore;
  ThreadPool::Configure(ParallelOptions{2, 4096});
  ResourceGovernor gov{GovernorOptions{}};
  GovernorScope scope(&gov);
  std::vector<ResourceGovernor*> seen(8, nullptr);
  ThreadPool::Global().Run(seen.size(),
                           [&seen](size_t i) { seen[i] = CurrentGovernor(); });
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], &gov) << "task " << i;
  }
}

TEST(GovernorEvalTest, ResultOrErrorIsThreadCountInvariant) {
  PoolRestorer restore;
  Database db = Db({{"R", Atoms(14)}});
  // Small grain forces the powerset odometer onto the parallel path.
  std::vector<unsigned> thread_counts = {1, 2, 8};
  std::vector<Bag> results;
  for (unsigned threads : thread_counts) {
    ThreadPool::Configure(ParallelOptions{threads, 64});
    Evaluator eval;
    auto ok = eval.EvalToBag(Pow(Input("R")), db);
    ASSERT_TRUE(ok.ok()) << "threads=" << threads << ": " << ok.status();
    results.push_back(std::move(ok).value());
    // A pre-expired deadline yields the same typed error at every count.
    ResourceGovernor gov(ExpiredDeadline());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    eval.set_governor(&gov);
    auto err = eval.EvalToBag(Pow(Input("R")), db);
    ASSERT_FALSE(err.ok()) << "threads=" << threads;
    EXPECT_EQ(err.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(GovernorExecTest, PipelineHonorsTheGovernor) {
  Bag::Builder b;
  for (size_t i = 0; i < 40; ++i) {
    b.AddOne(MakeTuple({A('a' + std::to_string(i)), A("b")}));
  }
  auto left = std::move(b).Build();
  ASSERT_TRUE(left.ok());
  Database db = Db({{"B", *left}});
  Expr query = Product(Input("B"), Input("B"));  // 1600 rows > one stride
  exec::ExecOptions options;
  ASSERT_TRUE(exec::RunPipeline(query, db, options).ok());
  ResourceGovernor gov(ExpiredDeadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  options.governor = &gov;
  auto r = exec::RunPipeline(query, db, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------------------ fault injection

TEST(FaultTest, ParseAcceptsTheDocumentedSyntax) {
  auto one_shot = fault::FaultSpec::Parse("alloc:after=42");
  ASSERT_TRUE(one_shot.ok()) << one_shot.status();
  EXPECT_EQ(one_shot->point, fault::FaultPoint::kAlloc);
  EXPECT_EQ(one_shot->after, 42u);
  EXPECT_EQ(one_shot->probability, 0.0);

  auto checkpoint = fault::FaultSpec::Parse("checkpoint:after=7");
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_EQ(checkpoint->point, fault::FaultPoint::kCheckpoint);
  EXPECT_EQ(checkpoint->after, 7u);

  auto prob = fault::FaultSpec::Parse("alloc:p=0.25:seed=9");
  ASSERT_TRUE(prob.ok()) << prob.status();
  EXPECT_DOUBLE_EQ(prob->probability, 0.25);
  EXPECT_EQ(prob->seed, 9u);
}

TEST(FaultTest, ParseRejectsMalformedSpecs) {
  const char* bad[] = {"",           "alloc",          "bogus:after=1",
                       "alloc:p=0",  "alloc:p=1.5",    "alloc:after=x",
                       "alloc:zz=1", "alloc:after=1:p"};
  for (const char* text : bad) {
    EXPECT_FALSE(fault::FaultSpec::Parse(text).ok()) << text;
  }
}

TEST(FaultTest, CheckpointFaultTripsWithTypedStatus) {
  FaultDisarmer disarm;
  fault::FaultSpec spec;
  spec.point = fault::FaultPoint::kCheckpoint;
  spec.after = 0;
  fault::Configure(spec);
  ResourceGovernor gov{GovernorOptions{}};
  Status st = gov.Check();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("fault injection"), std::string::npos);
  EXPECT_EQ(fault::FireCount(), 1u);
  EXPECT_GE(fault::EventCount(), 1u);
}

TEST(FaultTest, AllocFaultSurfacesAtTheNextCheckpoint) {
  FaultDisarmer disarm;
  fault::FaultSpec spec;
  spec.point = fault::FaultPoint::kAlloc;
  spec.after = 0;
  fault::Configure(spec);
  ResourceGovernor gov{GovernorOptions{}};
  gov.AccountBytes(64);  // event 0 fires; the trip lands at the next Check
  Status st = gov.Check();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("fault injection"), std::string::npos);
}

TEST(FaultTest, ProbabilisticModeIsDeterministic) {
  FaultDisarmer disarm;
  fault::FaultSpec spec;
  spec.point = fault::FaultPoint::kAlloc;
  spec.probability = 0.5;
  spec.seed = 9;
  auto run_once = [&spec] {
    fault::Configure(spec);  // resets the event / fire counters
    ResourceGovernor gov{GovernorOptions{}};
    GovernorScope scope(&gov);
    for (int i = 0; i < 100; ++i) gov.AccountBytes(8);
    return std::pair<uint64_t, uint64_t>{fault::EventCount(),
                                         fault::FireCount()};
  };
  auto first = run_once();
  auto second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.first, 100u);
  EXPECT_GT(first.second, 0u);
  EXPECT_LT(first.second, 100u);
}

/// The sweep corpus: nested powerset, product, a map/sel pipeline, and the
/// Volcano exec path — every family of checkpointed loop.
std::vector<std::string> SweepSetup() {
  return {LetAtoms("S", 12), LetAtoms("T", 3),
          "let B = {{[a1, b1], [a2, b2], [a3, b3], [a4, b4], [a5, b5],"
          " [a6, b6], [a7, b7], [a8, b8], [a9, b9], [a10, b10]}}"};
}

std::vector<std::string> SweepCorpus() {
  return {
      "count pow(S)",
      "count pow(pow(T))",
      "eval prod(B, B)",
      "count map(x -> tup(proj(2, x)), sel(x -> proj(1, x) == 'a1, B))",
      "exec prod(B, B)",
  };
}

/// Runs the corpus with a one-shot fault armed at event N. Every statement
/// must either succeed or fail with the expected typed code; afterwards the
/// session must still evaluate queries normally.
void RunFaultSweep(fault::FaultPoint point, StatusCode expected_code) {
  FaultDisarmer disarm;
  PoolRestorer restore;
  ThreadPool::Configure(ParallelOptions{2, 64});
  const uint64_t sweep[] = {0, 1, 2, 3, 4, 5, 6, 7, 15, 31, 64, 1000};
  for (uint64_t after : sweep) {
    fault::FaultSpec spec;
    spec.point = point;
    spec.after = after;
    lang::ScriptRunner runner;
    for (const std::string& line : SweepSetup()) {
      ASSERT_TRUE(runner.RunLine(line).ok()) << line;
    }
    fault::Configure(spec);
    for (const std::string& line : SweepCorpus()) {
      auto r = runner.RunLine(line);
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), expected_code)
            << "after=" << after << " line=" << line << ": " << r.status();
        EXPECT_NE(r.status().message().find("fault injection"),
                  std::string::npos)
            << r.status();
      }
    }
    fault::Disarm();
    auto alive = runner.RunLine("count S");
    ASSERT_TRUE(alive.ok()) << "after=" << after << ": " << alive.status();
    EXPECT_EQ(*alive, "12");
  }
}

TEST(FaultTest, AllocSweepOverQueryCorpus) {
  RunFaultSweep(fault::FaultPoint::kAlloc, StatusCode::kResourceExhausted);
}

TEST(FaultTest, CheckpointSweepOverQueryCorpus) {
  RunFaultSweep(fault::FaultPoint::kCheckpoint, StatusCode::kCancelled);
}

// ------------------------------------------------------------ REPL layer

TEST(GovernorReplTest, TimeoutAndMemlimitCommands) {
  lang::ScriptRunner runner;
  auto on = runner.RunLine("\\timeout 250");
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(*on, "timeout 250ms");
  EXPECT_EQ(runner.timeout_ms(), 250u);
  auto off = runner.RunLine("\\timeout off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, "timeout off");
  EXPECT_EQ(runner.timeout_ms(), 0u);
  EXPECT_FALSE(runner.RunLine("\\timeout").ok());
  EXPECT_FALSE(runner.RunLine("\\timeout soon").ok());

  auto mem = runner.RunLine("\\memlimit 1048576");
  ASSERT_TRUE(mem.ok()) << mem.status();
  EXPECT_EQ(*mem, "memlimit 1048576 bytes");
  EXPECT_EQ(runner.memlimit_bytes(), 1048576u);
  ASSERT_TRUE(runner.RunLine("\\memlimit off").ok());
  EXPECT_EQ(runner.memlimit_bytes(), 0u);
  EXPECT_FALSE(runner.RunLine("\\memlimit -3").ok());
}

TEST(GovernorReplTest, TimeoutTripsAndSessionSurvives) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 20)).ok());
  ASSERT_TRUE(runner.RunLine("\\timeout 1").ok());
  auto r = runner.RunLine("count pow(R)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(runner.RunLine("\\timeout off").ok());
  auto alive = runner.RunLine("count R");
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_EQ(*alive, "20");
}

TEST(GovernorReplTest, MemlimitTripsAndSessionSurvives) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 18)).ok());
  ASSERT_TRUE(runner.RunLine("\\memlimit 4096").ok());
  auto r = runner.RunLine("count pow(R)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(runner.RunLine("\\memlimit off").ok());
  auto alive = runner.RunLine("count R");
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_EQ(*alive, "18");
}

TEST(GovernorReplTest, SessionTokenCancelsARunningStatement) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 22)).ok());
  CancellationToken token = runner.cancel_token();
  std::thread canceller([token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  auto r = runner.RunLine("count pow(R)");
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The token is re-armed per statement, so the session keeps working.
  auto alive = runner.RunLine("count R");
  ASSERT_TRUE(alive.ok()) << alive.status();
  EXPECT_EQ(*alive, "22");
}

// ------------------------------------------------------------- metrics

TEST(GovernorMetricsTest, TripsAreMirroredIntoCounters) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 18)).ok());
  ASSERT_TRUE(runner.RunLine("\\memlimit 4096").ok());
  ASSERT_FALSE(runner.RunLine("count pow(R)").ok());
  auto& metrics = obs::GlobalMetrics();
  // Monotone governor totals surface as counters (Prometheus-typed), not
  // gauges.
  EXPECT_GE(metrics.GetCounter("governor.memcap.trips")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("governor.checkpoints")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("governor.bytes_accounted")->value(), 4096u);
}

TEST(GovernorMetricsTest, PreflightRefusalsCountInBothFamilies) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(
      runner.RunLine("let R = {{[r1], [r2], [r3], [r4]}}").ok());
  ASSERT_TRUE(runner.RunLine("\\budget 5").ok());
  auto& metrics = obs::GlobalMetrics();
  uint64_t legacy = metrics.GetCounter("budget.refusals")->value();
  uint64_t governor = metrics.GetCounter("governor.preflight.refusals")->value();
  auto r = runner.RunLine("eval prod(R, R)");  // estimate 16 > budget 5
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(metrics.GetCounter("budget.refusals")->value(), legacy + 1);
  EXPECT_EQ(metrics.GetCounter("governor.preflight.refusals")->value(),
            governor + 1);
}

}  // namespace
}  // namespace bagalg
