// Shared helpers for the benchmark harnesses. Each bench binary
// regenerates one table or figure of the paper on the synthetic dataset
// registry (see "Paper reproduction notes" in docs/ARCHITECTURE.md for
// the experiment index; each binary's header states the expected
// shape). STL_BENCH_SCALE=small|medium|large selects dataset count and
// workload sizes.
#ifndef STL_BENCH_BENCH_COMMON_H_
#define STL_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/query_workload.h"

namespace stl {
namespace bench {

/// Workload sizes per scale.
struct BenchConfig {
  BenchScale scale;
  std::vector<DatasetSpec> datasets;
  size_t query_count;       // random queries for Table 5
  size_t batch_size;        // updates per batch for Table 3
  size_t num_batches;       // batches for Table 3
  size_t per_query_set;     // pairs per Q_i for Figure 9
};

inline BenchConfig MakeConfig() {
  BenchConfig cfg;
  cfg.scale = ScaleFromEnv();
  cfg.datasets = DatasetsForScale(cfg.scale);
  switch (cfg.scale) {
    case BenchScale::kSmall:
      cfg.query_count = 100000;
      cfg.batch_size = 100;
      cfg.num_batches = 3;
      cfg.per_query_set = 2000;
      break;
    case BenchScale::kMedium:
      cfg.query_count = 300000;
      cfg.batch_size = 300;
      cfg.num_batches = 5;
      cfg.per_query_set = 5000;
      break;
    case BenchScale::kLarge:
      cfg.query_count = 1000000;
      cfg.batch_size = 1000;
      cfg.num_batches = 10;
      cfg.per_query_set = 10000;
      break;
  }
  return cfg;
}

inline const char* ScaleName(BenchScale s) {
  switch (s) {
    case BenchScale::kSmall:
      return "small";
    case BenchScale::kMedium:
      return "medium";
    case BenchScale::kLarge:
      return "large";
  }
  return "?";
}

inline void PrintHeader(const char* what, const BenchConfig& cfg) {
  std::printf("== %s ==\n", what);
  std::printf(
      "scale=%s (STL_BENCH_SCALE), datasets=%zu — synthetic stand-ins for "
      "the paper's DIMACS/PTV networks (docs/ARCHITECTURE.md, "
      "Paper reproduction notes)\n\n",
      ScaleName(cfg.scale), cfg.datasets.size());
}

/// Keeps `value` observable so the compiler cannot elide the computation
/// that produced it (same idea as benchmark::DoNotOptimize, dependency-
/// free so the table harnesses need not link google-benchmark).
inline void DoNotOptimize(uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

/// Mean time per query in microseconds over the pair list.
template <typename QueryFn>
double TimeQueriesMicros(const std::vector<QueryPair>& pairs, QueryFn&& fn) {
  // One warmup pass keeps first-touch cache effects out of the numbers.
  uint64_t sink = 0;
  for (size_t i = 0; i < pairs.size() && i < 1000; ++i) {
    sink += fn(pairs[i].first, pairs[i].second);
  }
  Timer t;
  for (const auto& [s, u] : pairs) sink += fn(s, u);
  DoNotOptimize(sink);
  return pairs.empty() ? 0.0 : t.ElapsedMicros() / pairs.size();
}

}  // namespace bench
}  // namespace stl

#endif  // STL_BENCH_BENCH_COMMON_H_
