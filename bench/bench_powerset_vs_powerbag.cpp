// Experiment E1 — powerset vs powerbag cardinality (paper §1, Def 5.1).
//
// Paper claim: for B_n = n occurrences of a single constant,
//   |P(B_n)|   = n + 1         (one occurrence of each distinct subbag)
//   |P_b(B_n)| = 2^n           (occurrence-distinguishing)
// This is the gap that makes the powerbag intractable and justifies basing
// BALG on the powerset (§5). The table prints both series; the benchmarks
// time the two operators on duplicate-heavy and distinct-heavy inputs.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/core/bag_ops.h"
#include "src/core/encoding.h"

using namespace bagalg;

namespace {

void PrintReproductionTable() {
  std::printf(
      "=== E1: |P(n*a)| vs |P_b(n*a)| — paper: n+1 vs 2^n (exact) ===\n");
  std::printf("%4s  %16s  %10s  %20s  %10s\n", "n", "|P(B_n)|", "expect",
              "|P_b(B_n)|", "expect");
  for (uint64_t n = 0; n <= 16; n += 2) {
    Bag bn = NCopies(Mult(n), MakeAtom("a"));
    Limits limits;
    limits.max_powerset_results = 1u << 20;
    Bag ps = Powerset(bn, limits).value();
    Bag pb = Powerbag(bn, limits).value();
    std::printf("%4llu  %16s  %10llu  %20s  %10s\n",
                static_cast<unsigned long long>(n),
                ps.TotalCount().ToString().c_str(),
                static_cast<unsigned long long>(n + 1),
                pb.TotalCount().ToString().c_str(),
                BigNat::TwoPow(n).ToString().c_str());
  }
  std::printf("\n");
}

/// Powerset over a bag of n duplicates of one element: linear output.
void BM_PowersetDuplicates(benchmark::State& state) {
  Bag bn = NCopies(Mult(static_cast<uint64_t>(state.range(0))),
                   MakeAtom("a"));
  Limits limits;
  limits.max_powerset_results = 1u << 22;
  for (auto _ : state) {
    auto p = Powerset(bn, limits);
    benchmark::DoNotOptimize(p);
  }
  state.counters["distinct_subbags"] =
      static_cast<double>(state.range(0) + 1);
}
BENCHMARK(BM_PowersetDuplicates)->RangeMultiplier(4)->Range(4, 4096);

/// Powerbag over the same input: 2^n total occurrences (counted form keeps
/// it n+1 entries, with binomial multiplicities).
void BM_PowerbagDuplicates(benchmark::State& state) {
  Bag bn = NCopies(Mult(static_cast<uint64_t>(state.range(0))),
                   MakeAtom("a"));
  Limits limits;
  limits.max_powerset_results = 1u << 22;
  limits.max_mult_bits = 1u << 20;
  for (auto _ : state) {
    auto p = Powerbag(bn, limits);
    benchmark::DoNotOptimize(p);
  }
  Bag out = Powerbag(bn, limits).value();
  state.counters["standard_size_bits"] =
      static_cast<double>(out.TotalCount().BitLength());
}
BENCHMARK(BM_PowerbagDuplicates)->RangeMultiplier(4)->Range(4, 1024);

/// Powerset over n *distinct* elements: 2^n distinct subbags — the
/// exponential case both operators share.
void BM_PowersetDistinct(benchmark::State& state) {
  Bag::Builder builder;
  for (int64_t i = 0; i < state.range(0); ++i) {
    builder.AddOne(MakeAtom('d' + std::to_string(i)));
  }
  Bag bag = std::move(builder).Build().value();
  Limits limits;
  limits.max_powerset_results = 1u << 22;
  for (auto _ : state) {
    auto p = Powerset(bag, limits);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PowersetDistinct)->DenseRange(2, 14, 2);

}  // namespace

int main(int argc, char** argv) {
  PrintReproductionTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
