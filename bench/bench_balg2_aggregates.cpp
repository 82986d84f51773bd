// Experiments E11/E12 — BALG² aggregates and the Theorem 5.1 mechanism.
//
// §3 defines count/sum/average inside the algebra via one level of bag
// nesting; Theorem 5.1 bounds BALG² by PSPACE because intermediate bags
// stay at most exponential. The table verifies the aggregates against
// native arithmetic; the proxy table tracks the Theorem 5.1 quantities
// (max multiplicity bits, distinct elements) for aggregate pipelines with
// one powerset, contrasting with the BALG¹ series of bench_balg1_counting.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <numeric>

#include "src/algebra/derived.h"
#include "src/algebra/eval.h"
#include "src/util/rng.h"

using namespace bagalg;

namespace {

Bag BagOfInts(const std::vector<uint64_t>& values, const Value& unit) {
  Bag::Builder builder;
  for (uint64_t v : values) {
    builder.AddOne(Value::FromBag(IntAsBag(v, unit)));
  }
  return std::move(builder).Build().value();
}

void PrintAggregateTable() {
  std::printf("=== E12: §3 aggregates inside the algebra vs native ===\n");
  std::printf("%-24s %8s %8s %10s   %s\n", "multiset", "count", "sum", "avg",
              "(avg empty when not integral)");
  Value unit = MakeAtom("u");
  Evaluator eval;
  std::vector<std::vector<uint64_t>> inputs = {
      {2, 4, 6}, {1, 2}, {5}, {3, 3, 3, 3}, {1, 2, 3, 4, 5, 6, 7}, {0, 0, 4}};
  for (const auto& values : inputs) {
    Database db;
    (void)db.Put("B", BagOfInts(values, unit));
    uint64_t count =
        DecodeIntBag(eval.EvalToBag(CountAgg(Input("B"), unit), db).value())
            .value();
    uint64_t sum =
        DecodeIntBag(eval.EvalToBag(SumAgg(Input("B")), db).value()).value();
    Bag avg_bag = eval.EvalToBag(AverageAgg(Input("B"), unit), db).value();
    std::string avg = avg_bag.empty()
                          ? "(empty)"
                          : avg_bag.TotalCount().ToString();
    std::string label = "{";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i != 0) label += ',';
      label += std::to_string(values[i]);
    }
    label += "}";
    uint64_t native_sum = std::accumulate(values.begin(), values.end(),
                                          uint64_t{0});
    std::printf("%-24s %8llu %8llu %10s   native: %zu, %llu%s\n",
                label.c_str(), static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum), avg.c_str(),
                values.size(), static_cast<unsigned long long>(native_sum),
                native_sum % values.size() == 0 ? " (divisible)" : "");
  }
  std::printf("\n");
}

void PrintPspaceProxyTable() {
  std::printf(
      "=== E11: Thm 5.1 proxy — BALG² intermediates stay <= exponential "
      "===\n");
  std::printf("%8s  %16s  %14s   %s\n", "sum(B)", "max mult bits",
              "max distinct", "(bits ~ O(n): single-exponential counts)");
  Value unit = MakeAtom("u");
  for (uint64_t n : {4, 8, 12, 16, 20}) {
    Database db;
    (void)db.Put("B", BagOfInts({n / 2, n / 2}, unit));
    Evaluator eval;
    Limits limits;
    limits.max_powerset_results = 1u << 22;
    Evaluator bounded(limits);
    // The average pipeline contains P(sum(B)) — the one-powerset shape the
    // theorem's claim bounds.
    auto r = bounded.EvalToBag(AverageAgg(Input("B"), unit), db);
    if (!r.ok()) continue;
    std::printf("%8llu  %16llu  %14llu\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(
                    bounded.stats().max_mult_bits),
                static_cast<unsigned long long>(
                    bounded.stats().max_distinct));
  }
  std::printf("\n");
}

void BM_CountAgg(benchmark::State& state) {
  Value unit = MakeAtom("u");
  std::vector<uint64_t> values(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 7 + 1;
  Database db;
  (void)db.Put("B", BagOfInts(values, unit));
  Expr q = CountAgg(Input("B"), unit);
  Evaluator eval;
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CountAgg)->RangeMultiplier(4)->Range(8, 512);

void BM_SumAgg(benchmark::State& state) {
  Value unit = MakeAtom("u");
  std::vector<uint64_t> values(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 7 + 1;
  Database db;
  (void)db.Put("B", BagOfInts(values, unit));
  Expr q = SumAgg(Input("B"));
  Evaluator eval;
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SumAgg)->RangeMultiplier(4)->Range(8, 512);

void BM_AverageAgg(benchmark::State& state) {
  // The powerset of sum(B) is linear in |sum| here (single distinct
  // element), so average stays tractable — Theorem 5.1 in action.
  Value unit = MakeAtom("u");
  uint64_t n = static_cast<uint64_t>(state.range(0));
  Database db;
  (void)db.Put("B", BagOfInts({n, n, n, n}, unit));
  Expr q = AverageAgg(Input("B"), unit);
  Evaluator eval;
  for (auto _ : state) {
    auto r = eval.EvalToBag(q, db);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AverageAgg)->RangeMultiplier(2)->Range(4, 64);

}  // namespace

int main(int argc, char** argv) {
  PrintAggregateTable();
  PrintPspaceProxyTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
