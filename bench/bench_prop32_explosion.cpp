// Experiments E2/E3/E17 — the duplicate explosion of Proposition 3.2.
//
// Paper claims, for B with k constants of multiplicity m each:
//   δ(P(B))          has m(m+1)^k / 2 occurrences of each constant;
//   δδ(P(P(B)))      has 2^((m+1)^k − 2) · (m+1)^k · m occurrences;
// and iterating:
//   (δP)^i           explodes exponentially once, then only polynomially;
//   (δδPP)^i         reaches hyper(i+1);
//   (δP_b)^i         explodes exponentially at *every* step (the powerbag
//                    pathology of Theorem 5.5 / Prop 6.4).
// This growth separation is the engine of the complexity results
// (Theorems 4.4, 5.1, 6.1, 6.2). The tables print exact counts; the
// benchmarks time one (δP) / (δP_b) round as the seed grows.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/core/bag_ops.h"
#include "src/core/encoding.h"

using namespace bagalg;

namespace {

Bag UniformBag(uint64_t k, uint64_t m) {
  Bag::Builder builder;
  for (uint64_t i = 0; i < k; ++i) {
    builder.Add(MakeAtom('c' + std::to_string(i)), Mult(m));
  }
  return std::move(builder).Build().value();
}

void PrintExactClaimTable() {
  std::printf(
      "=== E2: Prop 3.2 exact claims — occurrences of each constant ===\n");
  std::printf("%3s %3s  %14s  %14s  %22s  %22s\n", "k", "m", "deltaP",
              "claim", "deltadeltaPP", "claim");
  Limits limits;
  limits.max_powerset_results = 1u << 20;
  limits.max_mult_bits = 1u << 20;
  for (uint64_t k = 1; k <= 3; ++k) {
    for (uint64_t m = 1; m <= 3; ++m) {
      Bag b = UniformBag(k, m);
      Bag dp = BagDestroy(Powerset(b, limits).value(), limits).value();
      BigNat claim1 = (Mult(m) * BigNat::Pow(Mult(m + 1), k))
                          .DivMod(Mult(2))
                          .value()
                          .quotient;
      uint64_t mp1k = 1;
      for (uint64_t i = 0; i < k; ++i) mp1k *= m + 1;
      std::string ddpp = "-";
      std::string claim2 = "-";
      if (mp1k <= 12) {  // keep the doubly exponential case enumerable
        Bag pp = Powerset(Powerset(b, limits).value(), limits).value();
        Bag dd = BagDestroy(BagDestroy(pp, limits).value(), limits).value();
        ddpp = dd.CountOf(MakeAtom("c0")).ToString();
        claim2 = (BigNat::TwoPow(mp1k - 2) * BigNat(mp1k) * BigNat(m))
                     .ToString();
      }
      std::printf("%3llu %3llu  %14s  %14s  %22s  %22s\n",
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(m),
                  dp.CountOf(MakeAtom("c0")).ToString().c_str(),
                  claim1.ToString().c_str(), ddpp.c_str(), claim2.c_str());
    }
  }
  std::printf("\n");
}

void PrintIterationTable() {
  std::printf(
      "=== E3/E17: growth regimes under iteration (max multiplicity, in "
      "bits) ===\n");
  std::printf("%6s  %18s  %18s\n", "round", "(deltaP)^i bits",
              "(deltaP_b)^i bits");
  Limits limits;
  limits.max_powerset_results = 1u << 20;
  limits.max_mult_bits = 1u << 22;
  Bag dp_state = UniformBag(1, 2);
  Bag dpb_state = dp_state;
  bool dpb_alive = true;
  for (int round = 1; round <= 6; ++round) {
    dp_state =
        BagDestroy(Powerset(dp_state, limits).value(), limits).value();
    std::string dpb_bits = "(budget exhausted)";
    if (dpb_alive) {
      auto pb = Powerbag(dpb_state, limits);
      if (pb.ok()) {
        auto flat = BagDestroy(*pb, limits);
        if (flat.ok()) {
          dpb_state = std::move(flat).value();
          dpb_bits =
              std::to_string(MaxMultiplicity(dpb_state).BitLength());
        } else {
          dpb_alive = false;
        }
      } else {
        dpb_alive = false;
      }
    }
    std::printf("%6d  %18zu  %18s\n", round,
                MaxMultiplicity(dp_state).BitLength(), dpb_bits.c_str());
  }
  std::printf(
      "(paper: after the first blow-up each deltaP round is a *polynomial*\n"
      " explosion — the value is squared, so the bit count merely doubles;\n"
      " each deltaP_b round is an *exponential* explosion — the new value\n"
      " is 2^old, so the bit count itself jumps to the old value: the\n"
      " hyperexponential regime of Theorem 5.5 / Prop 6.4.)\n\n");
}

void BM_DeltaPowersetRound(benchmark::State& state) {
  Bag b = UniformBag(static_cast<uint64_t>(state.range(0)), 2);
  Limits limits;
  limits.max_powerset_results = 1u << 22;
  for (auto _ : state) {
    auto r = BagDestroy(Powerset(b, limits).value(), limits);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DeltaPowersetRound)->DenseRange(1, 7, 1);

void BM_DeltaPowerbagRound(benchmark::State& state) {
  Bag b = UniformBag(static_cast<uint64_t>(state.range(0)), 2);
  Limits limits;
  limits.max_powerset_results = 1u << 22;
  limits.max_mult_bits = 1u << 22;
  for (auto _ : state) {
    auto r = BagDestroy(Powerbag(b, limits).value(), limits);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DeltaPowerbagRound)->DenseRange(1, 7, 1);

}  // namespace

int main(int argc, char** argv) {
  PrintExactClaimTable();
  PrintIterationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
