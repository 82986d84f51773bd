// Obs v2 tests: cross-thread trace propagation (worker chunk spans parent
// to the kernel span that dispatched them, and the non-chunk span tree is
// identical across thread counts), the flight recorder (ring semantics,
// ancestry dumps on governor trips and injected faults), the query journal
// (outcomes, analyzer verdicts, JSONL export), histogram percentiles, and
// the Prometheus text exposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bag_ops.h"
#include "src/lang/script.h"
#include "src/net/json_reader.h"
#include "src/obs/flight.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/fault.h"
#include "src/util/parallel.h"

namespace bagalg {
namespace {

Value A(const char* name) { return MakeAtom(name); }

Bag B(std::initializer_list<std::pair<Value, uint64_t>> items) {
  return MakeBag(items);
}

/// Restores the default pool configuration when a test exits.
struct PoolConfigGuard {
  ~PoolConfigGuard() { ThreadPool::Configure(ParallelOptions::Default()); }
};

/// Disarms fault injection when a test exits.
struct FaultDisarmGuard {
  ~FaultDisarmGuard() { fault::Disarm(); }
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

/// A REPL `let` line binding NAME to a bag of n distinct atoms.
std::string LetAtoms(const std::string& name, size_t n) {
  std::string line = "let " + name + " = {{";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) line += ", ";
    line += name + std::to_string(i);
  }
  return line + "}}";
}

// --------------------------------------------- cross-thread trace parents

/// Runs product + powerset kernels under a root span on `tracer` and
/// copies the finished events into `events`. The root span installs the
/// ambient context, so KernelScope spans (and, through pool propagation,
/// worker chunk spans) land in this tracer.
void CollectKernelTrace(obs::Tracer& tracer,
                        std::vector<obs::TraceEvent>& events) {
  Bag left = WideTupleBag(64, "dl");
  Bag right = WideTupleBag(64, "dr");
  Bag multbag = B({{A("p"), 7}, {A("q"), 7}, {A("r"), 7}, {A("s"), 7}});
  {
    obs::Span root = tracer.StartSpan("test.root", "test");
    ASSERT_TRUE(CartesianProduct(left, right).ok());
    ASSERT_TRUE(Powerset(multbag).ok());
  }
  events = tracer.SnapshotEvents();
}

bool IsChunkSpan(const obs::TraceEvent& e) {
  return e.name.find(".chunk") != std::string::npos ||
         e.name == "kernel.build.sort_merge";
}

TEST(TracePropagationTest, WorkerChunkSpansParentToOwningKernelSpan) {
  PoolConfigGuard guard;
  ThreadPool::Configure({8, 16});
  obs::Tracer tracer;
  std::vector<obs::TraceEvent> events;
  ASSERT_NO_FATAL_FAILURE(CollectKernelTrace(tracer, events));
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : events) by_id[e.id] = &e;
  size_t chunk_spans = 0;
  for (const auto& e : events) {
    if (!IsChunkSpan(e)) continue;
    ++chunk_spans;
    // Propagation means no orphaned depth-0 worker spans: every chunk span
    // parents to a recorded kernel span one level up.
    EXPECT_NE(e.parent_id, 0u) << e.name;
    EXPECT_GT(e.depth, 0u) << e.name;
    auto parent = by_id.find(e.parent_id);
    ASSERT_NE(parent, by_id.end()) << e.name;
    EXPECT_EQ(parent->second->name.rfind("kernel.", 0), 0u)
        << e.name << " parented to " << parent->second->name;
    EXPECT_EQ(e.depth, parent->second->depth + 1) << e.name;
  }
  // Sanity: 64x64 pairs and 8^4 subbags are above the dispatch grains, so
  // the 8-thread pool really produced worker chunk spans.
  EXPECT_GT(chunk_spans, 0u);
}

TEST(TracePropagationTest, ChunkSpansNameTheirDispatchingKernel) {
  PoolConfigGuard guard;
  ThreadPool::Configure({8, 16});
  obs::Tracer tracer;
  std::vector<obs::TraceEvent> events;
  ASSERT_NO_FATAL_FAILURE(CollectKernelTrace(tracer, events));
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : events) by_id[e.id] = &e;
  for (const auto& e : events) {
    auto parent = by_id.find(e.parent_id);
    if (parent == by_id.end()) continue;
    if (e.name == "kernel.product.chunk") {
      EXPECT_EQ(parent->second->name, "kernel.product");
    }
    if (e.name == "kernel.subbag.chunk") {
      EXPECT_EQ(parent->second->name, "kernel.powerset");
    }
    if (e.name == "kernel.build.sort_chunk" ||
        e.name == "kernel.build.sort_merge") {
      EXPECT_EQ(parent->second->name, "kernel.build.sort");
    }
  }
}

/// The multiset of (name, ancestor-name-path) pairs for non-chunk spans.
/// Chunk spans are excluded because their count tracks the chunking, which
/// legitimately varies with the pool configuration — the *structural* span
/// tree must not.
std::vector<std::string> StructuralSpanPaths(
    const std::vector<obs::TraceEvent>& events) {
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  for (const auto& e : events) by_id[e.id] = &e;
  std::vector<std::string> paths;
  for (const auto& e : events) {
    if (IsChunkSpan(e)) continue;
    // kernel.build.sort only appears when the sort chunks, which depends on
    // the pool parallelism; skip it alongside its chunks.
    if (e.name == "kernel.build.sort") continue;
    std::string path = e.name;
    uint64_t parent = e.parent_id;
    size_t hops = 0;
    while (parent != 0 && hops++ <= by_id.size()) {
      auto it = by_id.find(parent);
      if (it == by_id.end()) break;
      if (!IsChunkSpan(*it->second) && it->second->name != "kernel.build.sort") {
        path = it->second->name + "/" + path;
      }
      parent = it->second->parent_id;
    }
    paths.push_back(path);
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(TracePropagationTest, StructuralSpanTreeIdenticalAcrossThreadCounts) {
  PoolConfigGuard guard;
  ThreadPool::Configure({1, 4096});
  obs::Tracer serial_tracer;
  std::vector<obs::TraceEvent> serial;
  ASSERT_NO_FATAL_FAILURE(CollectKernelTrace(serial_tracer, serial));
  ThreadPool::Configure({2, 64});
  obs::Tracer two_tracer;
  std::vector<obs::TraceEvent> two;
  ASSERT_NO_FATAL_FAILURE(CollectKernelTrace(two_tracer, two));
  ThreadPool::Configure({8, 16});
  obs::Tracer eight_tracer;
  std::vector<obs::TraceEvent> eight;
  ASSERT_NO_FATAL_FAILURE(CollectKernelTrace(eight_tracer, eight));

  const auto serial_paths = StructuralSpanPaths(serial);
  EXPECT_FALSE(serial_paths.empty());
  EXPECT_EQ(serial_paths, StructuralSpanPaths(two));
  EXPECT_EQ(serial_paths, StructuralSpanPaths(eight));
}

TEST(TracePropagationTest, ContextSurvivesNestedPoolDispatches) {
  // A span opened on this thread is the ancestor of every chunk span even
  // when kernels nest (powerset builds bags whose builders sort in
  // parallel under the powerset kernel span).
  PoolConfigGuard guard;
  ThreadPool::Configure({4, 16});
  obs::Tracer tracer;
  std::vector<obs::TraceEvent> events;
  ASSERT_NO_FATAL_FAILURE(CollectKernelTrace(tracer, events));
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  uint64_t root_id = 0;
  for (const auto& e : events) {
    by_id[e.id] = &e;
    if (e.name == "test.root") root_id = e.id;
  }
  ASSERT_NE(root_id, 0u);
  for (const auto& e : events) {
    // Walk to the root: every span in the trace descends from test.root.
    uint64_t cursor = e.id;
    size_t hops = 0;
    while (cursor != root_id && hops++ <= by_id.size()) {
      auto it = by_id.find(cursor);
      ASSERT_NE(it, by_id.end()) << e.name;
      cursor = it->second->parent_id;
    }
    EXPECT_EQ(cursor, root_id) << e.name << " is not rooted at test.root";
  }
}

// ------------------------------------------------------- tracer atomics

TEST(TracerTest, SetMaxEventsRacesWithRecordSafely) {
  // Exercised under TSan in CI: the cap is an atomic read per Record, so
  // resizing it mid-flight must not race.
  obs::Tracer tracer;
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    for (int i = 0; i < 1000; ++i) {
      tracer.set_max_events(i % 2 == 0 ? 4 : (size_t{1} << 20));
    }
    stop.store(true);
  });
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&] {
      while (!stop.load()) {
        obs::Span span = tracer.StartSpan("race.span", "test");
        span.End();
      }
    });
  }
  resizer.join();
  for (auto& r : recorders) r.join();
  // No crash, and the buffer respected *some* cap along the way.
  EXPECT_LE(tracer.event_count(), size_t{1} << 20);
}

TEST(ChromeTraceTest, LateSpansKeepExactMicrosecondsAndNest) {
  // Past 10 s a six-significant-digit rendering moves timestamps in 100 µs
  // steps; these three spans straddle such a step, so only exact
  // microseconds keep each child inside its parent.
  const uint64_t base_ns = 12'345'649'001;
  std::vector<obs::TraceEvent> events(3);
  for (size_t i = 0; i < events.size(); ++i) {
    obs::TraceEvent& e = events[i];
    e.name = "late." + std::to_string(i);
    e.category = "test";
    e.id = i + 1;
    e.parent_id = i;
    e.depth = static_cast<uint32_t>(i);
    e.tid = 7;
  }
  events[0].start_ns = base_ns;
  events[0].wall_ns = 10'000;
  events[1].start_ns = base_ns + 1'999;  // 12345651.000 µs
  events[1].wall_ns = 8'000;
  events[2].start_ns = base_ns + 2'250;
  events[2].wall_ns = 7'748;  // ends 1 ns before its parent
  events[2].cpu_ns = 1'230;
  std::ostringstream os;
  obs::WriteChromeTrace(events, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"ts\":12345649.001,\"dur\":10,"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"cpu_us\":1.23,"), std::string::npos) << text;

  auto doc = net::ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << text;
  const net::JsonValue* list = doc->Find("traceEvents");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const net::JsonValue& e = list->items[i];
    EXPECT_EQ(e.Find("ts")->number, events[i].start_ns / 1000.0) << i;
    EXPECT_EQ(e.Find("dur")->number, events[i].wall_ns / 1000.0) << i;
    if (i == 0) continue;
    const net::JsonValue& parent = list->items[i - 1];
    const double ts = e.Find("ts")->number;
    const double end = ts + e.Find("dur")->number;
    const double parent_ts = parent.Find("ts")->number;
    EXPECT_GE(ts, parent_ts) << i;
    EXPECT_LE(end, parent_ts + parent.Find("dur")->number) << i;
  }

  // The repository's trace validator accepts it too.
  const std::string path = ::testing::TempDir() + "late_spans_trace.json";
  {
    std::ofstream file(path);
    file << text;
  }
  const std::string command = "python3 " BAGALG_SOURCE_DIR
                              "/tools/validate_obs.py --trace " +
                              path + " > /dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  std::remove(path.c_str());
}

TEST(TracerTest, BufferingOffStillFeedsFlightRecorder) {
  obs::FlightRecorder flight(8);
  obs::Tracer tracer;
  tracer.set_flight_recorder(&flight);
  tracer.set_buffering(false);
  {
    obs::Span span = tracer.StartSpan("blackbox.span", "test");
  }
  EXPECT_EQ(tracer.event_count(), 0u);  // not buffered...
  auto records = flight.Snapshot();     // ...but in the ring
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "blackbox.span");
  tracer.set_flight_recorder(nullptr);
}

// ------------------------------------------------------- flight recorder

obs::TraceEvent SyntheticEvent(uint64_t id, uint64_t parent_id,
                               const std::string& name) {
  obs::TraceEvent e;
  e.id = id;
  e.parent_id = parent_id;
  e.depth = 0;
  e.name = name;
  e.category = "test";
  return e;
}

TEST(FlightRecorderTest, RingRetainsTheMostRecentSpans) {
  obs::FlightRecorder recorder(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.Record(SyntheticEvent(i, 0, "s" + std::to_string(i)));
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
  auto records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest-first, and only the final four survived the wrap.
  EXPECT_EQ(records[0].name, "s7");
  EXPECT_EQ(records[3].name, "s10");
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq);
  }
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, DisabledRecorderDropsSpans) {
  obs::FlightRecorder recorder(4);
  recorder.set_enabled(false);
  recorder.Record(SyntheticEvent(1, 0, "dropped"));
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, FormatDumpShowsAbortingSpanAncestry) {
  obs::FlightRecorder recorder(8);
  recorder.Record(SyntheticEvent(11, 0, "stmt"));
  recorder.Record(SyntheticEvent(12, 11, "kernel.powerset"));
  obs::TraceEvent errored = SyntheticEvent(13, 12, "kernel.subbag.chunk");
  errored.attrs.emplace_back("error", std::string("memory cap exceeded"));
  recorder.Record(errored);
  std::string dump = obs::FormatFlightDump(recorder.Snapshot());
  size_t ancestry = dump.find("ancestry");
  ASSERT_NE(ancestry, std::string::npos) << dump;
  // Root -> leaf order within the ancestry section.
  size_t stmt_pos = dump.find("stmt", ancestry);
  size_t kernel_pos = dump.find("kernel.powerset", ancestry);
  size_t chunk_pos = dump.find("kernel.subbag.chunk", ancestry);
  ASSERT_NE(stmt_pos, std::string::npos) << dump;
  ASSERT_NE(kernel_pos, std::string::npos) << dump;
  ASSERT_NE(chunk_pos, std::string::npos) << dump;
  EXPECT_LT(stmt_pos, kernel_pos);
  EXPECT_LT(kernel_pos, chunk_pos);
  EXPECT_NE(dump.find("memory cap exceeded"), std::string::npos) << dump;
}

// ------------------------------------------- REPL trips leave flight dumps

TEST(FlightReplTest, MemcapTripProducesDumpWithAncestry) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 18)).ok());
  ASSERT_TRUE(runner.RunLine("\\memlimit 4096").ok());
  auto r = runner.RunLine("count pow(R)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  std::string dump = runner.TakeFlightDump();
  EXPECT_NE(dump.find("ancestry"), std::string::npos) << dump;
  // The dump is take-once: a second read (and the next, clean statement)
  // returns nothing.
  EXPECT_TRUE(runner.TakeFlightDump().empty());
  ASSERT_TRUE(runner.RunLine("\\memlimit off").ok());
  ASSERT_TRUE(runner.RunLine("count R").ok());
  EXPECT_TRUE(runner.TakeFlightDump().empty());
}

TEST(FlightReplTest, DeadlineTripProducesDump) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 20)).ok());
  // 1ms against a powerset that cannot finish in it: pow(20 atoms)
  // enumerates 2^20 subbags.
  ASSERT_TRUE(runner.RunLine("\\timeout 1").ok());
  auto r = runner.RunLine("count pow(R)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(runner.TakeFlightDump().empty());
}

TEST(FlightReplTest, InjectedFaultProducesDumpAndJournalsAsFault) {
  FaultDisarmGuard guard;
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 14)).ok());
  fault::FaultSpec spec;
  spec.point = fault::FaultPoint::kCheckpoint;
  spec.after = 3;
  fault::Configure(spec);
  auto r = runner.RunLine("count pow(R)");
  ASSERT_FALSE(r.ok());
  fault::Disarm();
  EXPECT_FALSE(runner.TakeFlightDump().empty());
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, "fault");
  EXPECT_FALSE(tail[0].status_message.empty());
}

TEST(FlightReplTest, FlightrecOffSuppressesDumps) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 18)).ok());
  ASSERT_TRUE(runner.RunLine("\\flightrec off").ok());
  ASSERT_TRUE(runner.RunLine("\\memlimit 4096").ok());
  ASSERT_FALSE(runner.RunLine("count pow(R)").ok());
  EXPECT_TRUE(runner.TakeFlightDump().empty());
  ASSERT_TRUE(runner.RunLine("\\flightrec on").ok());
  ASSERT_FALSE(runner.RunLine("count pow(R)").ok());
  EXPECT_FALSE(runner.TakeFlightDump().empty());
}

// --------------------------------------------------------- query journal

TEST(JournalTest, RecordsSuccessWithAnalyzerVerdict) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 4)).ok());
  ASSERT_TRUE(runner.RunLine("count R").ok());
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  const obs::JournalEntry& e = tail[0];
  EXPECT_EQ(e.kind, "count");
  EXPECT_EQ(e.statement, "R");
  EXPECT_EQ(e.outcome, "ok");
  EXPECT_EQ(e.statement_hash, obs::HashStatementText("R"));
  EXPECT_EQ(e.result_distinct, 4u);
  EXPECT_FALSE(e.tractability.empty());
  EXPECT_FALSE(e.cost_bound.empty());
  EXPECT_TRUE(e.status_message.empty());
}

TEST(JournalTest, RecordsFailuresWithTypedOutcomes) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 18)).ok());
  // An evaluation error (not a trip): journaled as "error".
  ASSERT_FALSE(runner.RunLine("eval NoSuchBag").ok());
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, "error");
  EXPECT_FALSE(tail[0].status_message.empty());
  // A memcap trip: journaled as "memcap" with bytes accounted.
  ASSERT_TRUE(runner.RunLine("\\memlimit 4096").ok());
  ASSERT_FALSE(runner.RunLine("count pow(R)").ok());
  tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, "memcap");
  EXPECT_GE(tail[0].bytes_accounted, 4096u);
}

TEST(JournalTest, BudgetRefusalJournalsAsBudgetRefused) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine("let R = {{[r1], [r2], [r3], [r4]}}").ok());
  ASSERT_TRUE(runner.RunLine("\\budget 5").ok());
  auto r = runner.RunLine("eval prod(R, R)");  // estimate 16 > budget 5
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  auto tail = runner.journal().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, "budget-refused");
}

TEST(JournalTest, SeqNumbersAreMonotoneAndTailIsOldestFirst) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 3)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(runner.RunLine("count R").ok());
  }
  auto tail = runner.journal().Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_LT(tail[0].seq, tail[1].seq);
  EXPECT_LT(tail[1].seq, tail[2].seq);
  EXPECT_EQ(runner.journal().total(), 5u);
}

TEST(JournalTest, RingEvictsOldestBeyondCapacity) {
  obs::QueryJournal journal(3);
  for (int i = 0; i < 7; ++i) {
    obs::JournalEntry e;
    e.kind = "eval";
    e.statement = "q" + std::to_string(i);
    journal.Append(std::move(e));
  }
  EXPECT_EQ(journal.total(), 7u);
  auto tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].statement, "q4");
  EXPECT_EQ(tail[2].statement, "q6");
}

TEST(JournalTest, JsonLineCarriesTheSchemaFields) {
  obs::JournalEntry e;
  e.seq = 7;
  e.kind = "count";
  e.statement = "pow(R)";
  e.statement_hash = obs::HashStatementText("pow(R)");
  e.tractability = "intractable";
  e.cost_bound = "astronomical";
  e.wall_ns = 1234;
  e.outcome = "memcap";
  e.status_message = "memory cap exceeded";
  std::string line = e.ToJsonLine();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"seq\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"kind\":\"count\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"outcome\":\"memcap\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"wall_ns\":1234"), std::string::npos) << line;
  // The hash is a fixed-width 16-hex-digit *string* (a raw uint64 would
  // lose precision in double-parsing JSON consumers).
  size_t hash_key = line.find("\"statement_hash\":\"");
  ASSERT_NE(hash_key, std::string::npos) << line;
  size_t hash_start = hash_key + std::string("\"statement_hash\":\"").size();
  size_t hash_end = line.find('"', hash_start);
  ASSERT_NE(hash_end, std::string::npos);
  EXPECT_EQ(hash_end - hash_start, 16u) << line;
}

TEST(JournalTest, ExportWritesOneJsonObjectPerLine) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 3)).ok());
  ASSERT_TRUE(runner.RunLine("count R").ok());
  ASSERT_TRUE(runner.RunLine("eval R").ok());
  const std::string path = ::testing::TempDir() + "/obs_v2_journal.jsonl";
  auto exported = runner.RunLine("\\journal export " + path);
  ASSERT_TRUE(exported.ok()) << exported.status();
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(file, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (lines == 1) {
      // The export opens with a build-info header line.
      EXPECT_NE(line.find("\"header\":true"), std::string::npos) << line;
      EXPECT_NE(line.find("\"build\""), std::string::npos) << line;
    }
  }
  EXPECT_EQ(lines, 3u);  // header + one line per journaled statement
  std::remove(path.c_str());
}

TEST(JournalTest, JournalCommandPrintsRecentEntries) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 3)).ok());
  ASSERT_TRUE(runner.RunLine("count R").ok());
  auto out = runner.RunLine("\\journal");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("outcome=ok"), std::string::npos) << *out;
  EXPECT_NE(out->find(":: R"), std::string::npos) << *out;
  auto bad = runner.RunLine("\\journal nope");
  EXPECT_FALSE(bad.ok());
}

// ---------------------------------------------------- histogram percentiles

TEST(PercentileTest, EmptyHistogramIsZero) {
  obs::HistogramSnapshot h;
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 0.0);
}

TEST(PercentileTest, SingleObservationReturnsItForEveryQuantile) {
  obs::Histogram h;
  h.Observe(42);
  obs::HistogramSnapshot snap;
  snap.count = h.count();
  snap.sum = h.sum();
  snap.max = h.max();
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    if (h.bucket(i) != 0) snap.buckets.resize(i + 1);
  }
  for (size_t i = 0; i < snap.buckets.size(); ++i) snap.buckets[i] = h.bucket(i);
  EXPECT_EQ(snap.Percentile(0.0), 42.0);
  EXPECT_EQ(snap.Percentile(0.5), 42.0);
  EXPECT_EQ(snap.Percentile(0.99), 42.0);
  EXPECT_EQ(snap.Percentile(1.0), 42.0);
}

TEST(PercentileTest, TopQuantileIsTheRecordedMax) {
  obs::HistogramSnapshot h;
  h.count = 100;
  h.sum = 5000;
  h.max = 900;
  h.buckets.assign(11, 0);
  h.buckets[6] = 90;   // values 32..63
  h.buckets[10] = 10;  // values 512..1023, max observed 900
  EXPECT_EQ(h.Percentile(1.0), 900.0);
  // p50 lands inside bucket 6 and stays within its range.
  double p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 63.0);
  // Monotone in q.
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(1.0));
}

TEST(PercentileTest, ZeroOnlyObservationsStayZero) {
  obs::HistogramSnapshot h;
  h.count = 5;
  h.sum = 0;
  h.max = 0;
  h.buckets = {5};
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 0.0);
}

TEST(PercentileTest, OutOfRangeQuantilesClamp) {
  obs::HistogramSnapshot h;
  h.count = 1;
  h.max = 8;
  h.buckets.assign(5, 0);
  h.buckets[4] = 1;
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(PercentileTest, BucketUpperBoundsMatchBitWidthBuckets) {
  EXPECT_EQ(obs::HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(3), 7u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(10), 1023u);
  EXPECT_EQ(obs::HistogramBucketUpperBound(64), ~uint64_t{0});
}

// ------------------------------------------------- Prometheus exposition

TEST(PrometheusTest, ExpositionTypesAndSeriesAreWellFormed) {
  obs::MetricsSnapshot snap;
  snap.counters["governor.memcap.trips"] = 3;
  snap.gauges["pool.size"] = 8;
  obs::HistogramSnapshot h;
  h.count = 3;
  h.sum = 10;
  h.max = 7;
  h.buckets = {1, 1, 0, 1};  // values 0, 1, and one in 4..7
  snap.histograms["repl.eval.wall_us"] = h;
  const std::string text = snap.ToPrometheusText();

  // Counter: sanitized name, _total suffix, counter type.
  EXPECT_NE(
      text.find("# TYPE bagalg_governor_memcap_trips_total counter\n"
                "bagalg_governor_memcap_trips_total 3\n"),
      std::string::npos)
      << text;
  // Gauge: no suffix.
  EXPECT_NE(text.find("# TYPE bagalg_pool_size gauge\nbagalg_pool_size 8\n"),
            std::string::npos)
      << text;
  // Histogram: cumulative buckets with pow-2 le labels, +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE bagalg_repl_eval_wall_us histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_bucket{le=\"0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_bucket{le=\"1\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_bucket{le=\"3\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_bucket{le=\"7\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_sum 10"), std::string::npos)
      << text;
  EXPECT_NE(text.find("bagalg_repl_eval_wall_us_count 3"), std::string::npos)
      << text;
}

TEST(PrometheusTest, EveryRegisteredInstrumentAppearsInTheExposition) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 4)).ok());
  ASSERT_TRUE(runner.RunLine("count R").ok());
  obs::MetricsSnapshot snap = obs::GlobalMetrics().Snapshot();
  const std::string text = snap.ToPrometheusText();
  auto sanitized = [](const std::string& name) {
    std::string out = "bagalg_";
    for (char c : name) {
      const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         (c >= '0' && c <= '9') || c == '_' || c == ':';
      out.push_back(valid ? c : '_');
    }
    return out;
  };
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(text.find(sanitized(name) + "_total "), std::string::npos)
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_NE(text.find(sanitized(name) + " "), std::string::npos) << name;
  }
  for (const auto& [name, h] : snap.histograms) {
    EXPECT_NE(text.find(sanitized(name) + "_count "), std::string::npos)
        << name;
    EXPECT_NE(text.find(sanitized(name) + "_bucket{le=\"+Inf\"} "),
              std::string::npos)
        << name;
  }
}

TEST(PrometheusTest, PromCommandWritesTheExposition) {
  lang::ScriptRunner runner;
  ASSERT_TRUE(runner.RunLine(LetAtoms("R", 4)).ok());
  ASSERT_TRUE(runner.RunLine("count R").ok());
  auto printed = runner.RunLine("\\prom");
  ASSERT_TRUE(printed.ok()) << printed.status();
  EXPECT_NE(printed->find("# TYPE "), std::string::npos);
  const std::string path = ::testing::TempDir() + "/obs_v2_metrics.prom";
  auto written = runner.RunLine("\\prom " + path);
  ASSERT_TRUE(written.ok()) << written.status();
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_NE(contents.str().find("bagalg_repl_statements_total"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bagalg
