// End-to-end integration: the shipped example script runs through the
// ScriptRunner (parser → typecheck → optimize → evaluate pipeline), plus
// multi-line script handling and Database/AtomTable edge cases that the
// pipeline depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/algebra/database.h"
#include "src/core/atom.h"
#include "src/lang/script.h"

namespace bagalg {
namespace {

using lang::ScriptRunner;

TEST(IntegrationTest, TourScriptRunsEndToEnd) {
  // Locate the script relative to the source tree (tests run from the
  // build tree; fall back to the repo-root path).
  std::string content;
  for (const char* path : {"examples/scripts/tour.bag",
                           "../examples/scripts/tour.bag",
                           "../../examples/scripts/tour.bag"}) {
    std::ifstream file(path);
    if (file) {
      std::ostringstream text;
      text << file.rdbuf();
      content = text.str();
      break;
    }
  }
  if (content.empty()) {
    GTEST_SKIP() << "tour.bag not found from the test working directory";
  }
  ScriptRunner runner;
  auto out = runner.RunScript(content);
  ASSERT_TRUE(out.ok()) << out.status();
  // Spot-check the §4 worked numbers surface in the output.
  EXPECT_NE(out->find("49"), std::string::npos);          // |B×B| = (4+3)^2
  EXPECT_NE(out->find("[a, a]*12"), std::string::npos);   // nm = 12
  EXPECT_NE(out->find("{{[c]}}"), std::string::npos);     // Example 4.1
  EXPECT_NE(out->find("within BALG^1"), std::string::npos);
  EXPECT_NE(out->find("[n1, n4]"), std::string::npos);    // TC reached 4
}

TEST(IntegrationTest, MultiLineCommandsJoinOnBrackets) {
  ScriptRunner runner;
  auto out = runner.RunScript(
      "let B = {{[a, b]*2,\n"
      "          [b, a]}}\n"
      "count prod(B,\n"
      "           B)   # comment with ) inside is ignored\n");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("9"), std::string::npos);
}

TEST(IntegrationTest, UnbalancedScriptReportsStartLine) {
  ScriptRunner runner;
  auto out = runner.RunScript("let B = {{a}}\ncount prod(B,\n");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("line 2"), std::string::npos);
}

// --------------------------------------------------- database edge cases

TEST(DatabaseTest, DeclareThenPutEnforcesSchema) {
  Database db;
  ASSERT_TRUE(
      db.Declare("R", Type::Bag(Type::Tuple({Type::Atom()}))).ok());
  // Conforming bag: OK.
  EXPECT_TRUE(db.Put("R", MakeBagOf({MakeTuple({MakeAtom("x")})})).ok());
  // Non-conforming bag: rejected.
  auto st = db.Put("R", MakeBagOf({MakeAtom("x")}));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, DeclareRequiresBagType) {
  Database db;
  EXPECT_FALSE(db.Declare("R", Type::Atom()).ok());
  EXPECT_FALSE(db.Declare("R", Type::Tuple({Type::Atom()})).ok());
}

TEST(DatabaseTest, DeclareProvidesTypedEmptyInstance) {
  Database db;
  ASSERT_TRUE(db.Declare("R", Type::Bag(Type::Atom())).ok());
  auto bag = db.Get("R");
  ASSERT_TRUE(bag.ok());
  EXPECT_TRUE(bag->empty());
  EXPECT_EQ(bag->element_type(), Type::Atom());
  EXPECT_EQ(db.TypeOfInput("R").value(), Type::Bag(Type::Atom()));
  EXPECT_FALSE(db.Get("Missing").ok());
  EXPECT_FALSE(db.TypeOfInput("Missing").ok());
}

TEST(DatabaseTest, PutInfersSchemaFromBag) {
  Database db;
  Bag b = MakeBag({{MakeTuple({MakeAtom("x"), MakeAtom("y")}), 2}});
  ASSERT_TRUE(db.Put("S", b).ok());
  EXPECT_EQ(db.TypeOfInput("S").value(), b.type());
}

// --------------------------------------------------- atom table edge cases

TEST(AtomTableTest, InternIsIdempotentAndDense) {
  AtomTable table;
  AtomId a = table.Intern("alpha");
  AtomId b = table.Intern("beta");
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.NameOf(a), "alpha");
  EXPECT_EQ(table.Find("beta").value(), b);
  EXPECT_FALSE(table.Find("gamma").has_value());
}

TEST(AtomTableTest, UnknownIdsPrintPlaceholders) {
  AtomTable table;
  EXPECT_EQ(table.NameOf(12345), "#12345");
}

TEST(AtomTableTest, SeparateTablesAreIndependent) {
  AtomTable t1, t2;
  AtomId a1 = t1.Intern("x");
  AtomId b2 = t2.Intern("completely-different");
  // Dense ids start at 0 in each table.
  EXPECT_EQ(a1, b2);
  EXPECT_EQ(t1.NameOf(a1), "x");
  EXPECT_EQ(t2.NameOf(b2), "completely-different");
}

// Writers intern overlapping name sets while readers resolve every id
// published so far: ids stay dense, each name gets exactly one id, and
// every name round-trips. Run under TSan, this also checks that NameOf's
// lock-free reads are ordered after the writes that publish them.
TEST(AtomTableTest, ConcurrentInternAndNameOf) {
  AtomTable table;
  constexpr int kWriters = 4;
  constexpr int kNames = 600;  // crosses three segment edges
  auto name_of = [](int i) { return "atom_" + std::to_string(i); };
  std::atomic<bool> writers_done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::vector<AtomId>> ids(kWriters, std::vector<AtomId>(kNames));
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Writer w interns names w*100 .. w*100+kNames-1, in a rotated order,
      // so every pair of writers overlaps on most of its names.
      for (int k = 0; k < kNames; ++k) {
        const int i = w * 100 + (k * 7 + w) % kNames;
        const AtomId id = table.Intern(name_of(i));
        ids[w][(k * 7 + w) % kNames] = id;
        if (table.NameOf(id) != name_of(i)) ++mismatches;
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      size_t seen = 0;
      while (!writers_done.load(std::memory_order_acquire) ||
             seen < table.size()) {
        const size_t n = table.size();
        for (AtomId id = 0; id < n; ++id) {
          const std::string name = table.NameOf(id);
          if (name.rfind("atom_", 0) != 0) ++mismatches;
        }
        // An id far past the published count prints its placeholder.
        std::string placeholder = "#";
        placeholder += std::to_string(n + 1000000);
        if (table.NameOf(static_cast<AtomId>(n + 1000000)) != placeholder) {
          ++mismatches;
        }
        seen = n;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(mismatches.load(), 0);
  const int distinct = (kWriters - 1) * 100 + kNames;
  ASSERT_EQ(table.size(), static_cast<size_t>(distinct));
  std::vector<bool> used(distinct, false);
  for (int i = 0; i < distinct; ++i) {
    const auto id = table.Find(name_of(i));
    ASSERT_TRUE(id.has_value()) << name_of(i);
    ASSERT_LT(*id, static_cast<AtomId>(distinct));
    EXPECT_FALSE(used[*id]) << "id " << *id << " named twice";
    used[*id] = true;
    EXPECT_EQ(table.NameOf(*id), name_of(i));
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kNames; ++k) {
      EXPECT_EQ(table.NameOf(ids[w][k]), name_of(w * 100 + k));
    }
  }
}

// Segment s holds 64 << s names, so segments start at ids 64, 192, 448.
TEST(AtomTableTest, SegmentBoundaries) {
  AtomTable table;
  auto name_of = [](int i) { return "seg_" + std::to_string(i); };
  for (int i = 0; i < 449; ++i) {
    ASSERT_EQ(table.Intern(name_of(i)), static_cast<AtomId>(i));
    ASSERT_EQ(table.size(), static_cast<size_t>(i + 1));
  }
  for (int edge : {63, 64, 191, 192, 447, 448}) {
    SCOPED_TRACE(edge);
    EXPECT_EQ(table.NameOf(static_cast<AtomId>(edge)), name_of(edge));
    EXPECT_EQ(table.Find(name_of(edge)), static_cast<AtomId>(edge));
    EXPECT_EQ(table.Intern(name_of(edge)), static_cast<AtomId>(edge));
  }
  EXPECT_EQ(table.size(), 449u);
  EXPECT_EQ(table.NameOf(449), "#449");
  EXPECT_EQ(table.NameOf(1000), "#1000");
  EXPECT_FALSE(table.Find(name_of(449)).has_value());
  // Every earlier name survived the segment allocations.
  for (int i = 0; i < 449; ++i) {
    ASSERT_EQ(table.NameOf(static_cast<AtomId>(i)), name_of(i));
  }
  std::string appended = "<";
  table.AppendName(448, &appended);
  table.AppendName(449, &appended);
  EXPECT_EQ(appended, "<seg_448#449");
}

}  // namespace
}  // namespace bagalg
