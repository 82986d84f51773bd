#include "perfbench/workload.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/util/rng.h"

namespace perfbench {

namespace {

using bagalg::Rng;

std::string Atom(char prefix, uint64_t i) {
  return std::string(1, prefix) + std::to_string(i);
}

/// A bag literal of `rows` distinct arity-2 rows over `domain` atoms
/// named PREFIX0.., each with multiplicity 1..max_mult.
std::string PairBag(Rng& rng, size_t rows, uint64_t domain, char prefix,
                    uint64_t max_mult) {
  std::set<std::pair<uint64_t, uint64_t>> picked;
  while (picked.size() < rows) {
    picked.emplace(rng.Below(domain), rng.Below(domain));
  }
  std::string out = "{{";
  bool first = true;
  for (const auto& [a, b] : picked) {
    if (!first) out += ", ";
    first = false;
    out += "[" + Atom(prefix, a) + ", " + Atom(prefix, b) + "]";
    const uint64_t mult = rng.Range(1, max_mult);
    if (mult > 1) out += "*" + std::to_string(mult);
  }
  return out + "}}";
}

/// A bag literal of `distinct` distinct atoms drawn from a0..a(domain-1).
std::string AtomBag(Rng& rng, size_t distinct, uint64_t domain) {
  std::set<uint64_t> picked;
  while (picked.size() < distinct) picked.insert(rng.Below(domain));
  std::string out = "{{";
  bool first = true;
  for (uint64_t a : picked) {
    if (!first) out += ", ";
    first = false;
    out += Atom('a', a);
  }
  return out + "}}";
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* items) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Below(i)]);
  }
}

/// `count` sizes evenly spread over [lo, hi], in a seeded order.
std::vector<size_t> StratifiedSizes(Rng& rng, size_t count, size_t lo,
                                    size_t hi) {
  std::vector<size_t> sizes;
  for (size_t i = 0; i < count; ++i) {
    sizes.push_back(lo + (hi - lo) * i / (count - 1));
  }
  Shuffle(rng, &sizes);
  return sizes;
}

std::string Pick(Rng& rng, const std::vector<std::string>& names) {
  return names[rng.Below(names.size())];
}

std::string Call(const char* op, const std::string& a, const std::string& b) {
  return std::string(op) + "(" + a + ", " + b + ")";
}

std::string SelConst(int column, const std::string& atom,
                     const std::string& input) {
  return "sel(x -> proj(" + std::to_string(column) + ", x) == '" + atom +
         ", " + input + ")";
}

std::string EquiJoin(int left, int right, const std::string& a,
                     const std::string& b) {
  return "sel(x -> proj(" + std::to_string(left) + ", x) == proj(" +
         std::to_string(right) + ", x), prod(" + a + ", " + b + "))";
}

std::string Project(int column, const std::string& input) {
  return "map(x -> tup(proj(" + std::to_string(column) + ", x)), " + input +
         ")";
}

Statement Stmt(StmtKind kind, const std::string& expr) {
  static const char* const kVerb[] = {"let", "eval", "count", "exec"};
  return Statement{kind, std::string(kVerb[static_cast<int>(kind)]) + " " +
                             expr};
}

// ------------------------------------------------------------------ point

constexpr size_t kPointSessions = 4;
constexpr size_t kPointBags = 16;
constexpr size_t kPointScratch = 4;
constexpr uint64_t kPointDomain = 16;
constexpr size_t kPointTemplates = 11;  // plus `count`, eval only

/// One of the small BALG¹ templates over operands from `any` (every bag)
/// and `scratch` (the 4..12-row T bags). A join pairs a scratch bag with a
/// constant-filtered slice of another bag, so its product stays under ~50
/// rows and kernels stay noise next to the fixed per-statement cost.
std::string PointExpr(Rng& rng, size_t t, const std::vector<std::string>& any,
                      const std::vector<std::string>& scratch) {
  const std::string r = Pick(rng, any);
  const std::string s = Pick(rng, any);
  const std::string c = Atom('a', rng.Below(kPointDomain));
  const std::string join =
      EquiJoin(2, 3, Pick(rng, scratch), SelConst(1, c, s));
  switch (t) {
    case 0: return SelConst(1, c, r);
    case 1: return Project(2, r);
    case 2: return Call("uplus", r, s);
    case 3: return Call("monus", r, s);
    case 4: return Call("umax", r, s);
    case 5: return Call("inter", r, s);
    case 6: return "dedup(" + r + ")";
    case 7: return join;
    case 8: return "map(x -> tup(proj(1, x), proj(4, x)), " + join + ")";
    case 9: return "sel(x -> proj(1, x) == proj(2, x), " + r + ")";
    default: return "dedup(" + Project(1, r) + ")";
  }
}

SessionSpec PointSession(Rng& rng, size_t index) {
  SessionSpec session;
  session.name = "point" + std::to_string(index);
  std::vector<std::string> any;
  std::vector<std::string> scratch;
  const std::vector<size_t> sizes = StratifiedSizes(rng, kPointBags, 8, 64);
  for (size_t i = 0; i < kPointBags; ++i) {
    const std::string name = "R" + std::to_string(i);
    session.load.push_back("let " + name + " = " +
                           PairBag(rng, sizes[i], kPointDomain, 'a', 3));
    any.push_back(name);
  }
  std::vector<std::string> scratch_init;
  for (size_t i = 0; i < kPointScratch; ++i) {
    const std::string name = "T" + std::to_string(i);
    scratch_init.push_back("let " + name + " = " +
                           PairBag(rng, rng.Range(4, 12), kPointDomain, 'a',
                                   2));
    session.load.push_back(scratch_init.back());
    any.push_back(name);
    scratch.push_back(name);
  }

  // Per cycle: 12 x 12 eval-path statements, 4 x 11 exec, 6 random
  // rebinding lets, then the 4 resets — about 73% eval, 22% exec, 5% let.
  std::vector<Statement>& cycle = session.cycle;
  for (int rep = 0; rep < 12; ++rep) {
    for (size_t t = 0; t < kPointTemplates; ++t) {
      cycle.push_back(Stmt(StmtKind::kEval, PointExpr(rng, t, any, scratch)));
    }
    cycle.push_back(
        Stmt(StmtKind::kCount, Call("uplus", Pick(rng, any), Pick(rng, any))));
  }
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t t = 0; t < kPointTemplates; ++t) {
      cycle.push_back(Stmt(StmtKind::kExec, PointExpr(rng, t, any, scratch)));
    }
  }
  for (int i = 0; i < 6; ++i) {
    cycle.push_back(Stmt(StmtKind::kLet,
                         "T" + std::to_string(rng.Below(kPointScratch)) +
                             " = " +
                             PairBag(rng, rng.Range(4, 12), kPointDomain,
                                     'a', 2)));
  }
  Shuffle(rng, &cycle);
  for (const std::string& reset : scratch_init) {
    cycle.push_back(Statement{StmtKind::kLet, reset});
  }
  return session;
}

// --------------------------------------------------------------- analytic

constexpr size_t kAnalyticBags = 8;
constexpr uint64_t kAnalyticDomain = 64;

/// The BALG¹ templates. Every result is projected to one column (at most 64
/// distinct rows), so rendering stays small and kernel time dominates. The
/// operands are the bags rotated by `rotation`; a template runs once at
/// each rotation per cycle, so every bag size is used alike whatever the
/// seed.
std::string AnalyticExpr(Rng& rng, size_t t, size_t rotation,
                         const std::vector<std::string>& bags,
                         const std::vector<std::string>& dims) {
  auto b = [&](size_t k) { return bags[(rotation + k) % bags.size()]; };
  auto d = [&](size_t k) { return dims[(rotation + k) % dims.size()]; };
  const std::string c = Atom('a', rng.Below(kAnalyticDomain));
  switch (t) {
    case 0:  // σ-π join chain: a fact-bag slice against a dimension
      return Project(4, EquiJoin(2, 3, SelConst(1, c, b(0)), d(0)));
    case 1:  // 3-way join
      return Project(
          1, EquiJoin(4, 5, EquiJoin(2, 3, SelConst(1, c, b(0)), d(0)),
                      d(1)));
    case 2:  // 4-way ⊎ chain
      return Project(1, Call("uplus", Call("uplus", b(0), b(1)),
                             Call("uplus", b(2), b(3))));
    case 3:  // 8-way ⊎ chain
      return Project(
          2, Call("uplus",
                  Call("uplus", Call("uplus", b(0), b(1)),
                       Call("uplus", b(2), b(3))),
                  Call("uplus", Call("uplus", b(4), b(5)),
                       Call("uplus", b(6), b(7)))));
    case 4:  // ∸ merge
      return Project(2, Call("monus", Call("uplus", b(0), b(1)), b(2)));
    case 5:  // ∩ merge
      return Project(1, Call("inter", b(0), b(1)));
    case 6:  // ∪ merge
      return Project(2, Call("umax", b(0), b(1)));
    default:  // ε
      return Project(1, "dedup(" + Call("uplus", b(0), b(1)) + ")");
  }
}

/// BALG² statements only the evaluator runs; `count` keeps rendering small.
/// The i-th statement of a template reads a fixed input, as above.
std::string AnalyticBalg2(Rng& rng, size_t t, size_t i,
                          const std::vector<std::string>& bags,
                          const std::vector<std::string>& powersets) {
  const std::string c = Atom('a', rng.Below(kAnalyticDomain));
  switch (t) {
    case 0:
      return "pow(" + powersets[i % powersets.size()] + ")";
    case 1:
      return "flat(map(x -> bag(tup(proj(2, x))), " +
             SelConst(1, c, bags[(3 * i) % bags.size()]) + "))";
    default:
      return "nest([1], " + bags[(2 * i + 1) % bags.size()] + ")";
  }
}

SessionSpec AnalyticSession(Rng& rng) {
  SessionSpec session;
  session.name = "analytic";
  // A0..A7 grow evenly from 512 to 2048 rows.
  std::vector<std::string> bags;
  for (size_t i = 0; i < kAnalyticBags; ++i) {
    bags.push_back("A" + std::to_string(i));
    const size_t rows = 512 + (2048 - 512) * i / (kAnalyticBags - 1);
    session.load.push_back("let " + bags.back() + " = " +
                           PairBag(rng, rows, kAnalyticDomain, 'a', 3));
  }
  // Join dimensions: 64 rows each, so the evaluator's products stay at a
  // few thousand rows while the IR hash-joins them.
  std::vector<std::string> dims;
  for (size_t i = 0; i < 4; ++i) {
    dims.push_back("D" + std::to_string(i));
    session.load.push_back("let " + dims.back() + " = " +
                           PairBag(rng, 64, kAnalyticDomain, 'a', 2));
  }
  // Powerset inputs: 8..11 distinct atoms, so |P(K)| <= 2048.
  std::vector<std::string> powersets;
  for (size_t i = 0; i < 4; ++i) {
    powersets.push_back("K" + std::to_string(i));
    session.load.push_back("let " + powersets.back() + " = " +
                           AtomBag(rng, 8 + i, kAnalyticDomain));
  }

  // Per cycle: 8 BALG¹ templates x (4 eval + 4 exec), plus 16 BALG²
  // statements (6 pow, 6 flat, 4 nest): 80 statements, 20% BALG².
  std::vector<Statement>& cycle = session.cycle;
  for (size_t t = 0; t < 8; ++t) {
    for (size_t rotation = 0; rotation < kAnalyticBags; rotation += 2) {
      cycle.push_back(Stmt(StmtKind::kEval,
                           AnalyticExpr(rng, t, rotation, bags, dims)));
      cycle.push_back(Stmt(StmtKind::kExec,
                           AnalyticExpr(rng, t, rotation + 1, bags, dims)));
    }
  }
  const size_t balg2_counts[] = {6, 6, 4};  // pow, flat, nest
  for (size_t t = 0; t < 3; ++t) {
    for (size_t i = 0; i < balg2_counts[t]; ++i) {
      cycle.push_back(Stmt(StmtKind::kCount,
                           AnalyticBalg2(rng, t, i, bags, powersets)));
    }
  }
  Shuffle(rng, &cycle);
  return session;
}

// ------------------------------------------------------------------- bulk

constexpr size_t kBulkUploadRows = 2048;
constexpr uint64_t kBulkDomain = 64;

/// Alternates a 2048-row upload with a download whose result, U x K, has
/// 2048 x 4 = 8192 distinct rows — above bagalgd's default stream threshold.
/// The downloads alternate between the evaluator and the IR, so both
/// engines' result paths are on the wire.
SessionSpec BulkSession(Rng& rng, const std::string& name, Wire wire) {
  SessionSpec session;
  session.name = name;
  session.wire = wire;
  const std::string first = PairBag(rng, kBulkUploadRows, kBulkDomain, 'b', 2);
  const std::string second =
      PairBag(rng, kBulkUploadRows, kBulkDomain, 'b', 2);
  session.load.push_back("let K = {{[k0], [k1], [k2], [k3]}}");
  session.load.push_back("let U = " + second);
  session.cycle = {
      {StmtKind::kLet, "let U = " + first},
      {StmtKind::kEval, "eval prod(U, K)"},
      {StmtKind::kLet, "let U = " + second},
      {StmtKind::kExec, "exec prod(U, K)"},
  };
  return session;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + name.size());
  WorkloadSpec spec;
  spec.name = name;
  if (name == "point") {
    for (size_t i = 0; i < kPointSessions; ++i) {
      spec.sessions.push_back(PointSession(rng, i));
    }
    spec.open_loop_rate = 3000;
  } else if (name == "analytic") {
    spec.in_process = true;
    spec.sessions.push_back(AnalyticSession(rng));
  } else if (name == "bulk") {
    spec.sessions.push_back(BulkSession(rng, "bulk_json", Wire::kJson));
    spec.sessions.push_back(BulkSession(rng, "bulk_bag1", Wire::kBag1));
    spec.open_loop_rate = 40;
  } else {
    return false;
  }
  *out = std::move(spec);
  return true;
}

}  // namespace perfbench
