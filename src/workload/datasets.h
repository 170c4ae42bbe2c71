// Dataset registry for the experiment harnesses.
//
// The paper's Table 2 uses nine DIMACS USA networks plus PTV Western
// Europe. Offline we substitute deterministic synthetic road networks
// with the same ~1.5x size progression, named after their role models
// (NY-S = "NY-scaled" etc.). See "Paper reproduction notes" in
// docs/ARCHITECTURE.md for why this preserves the trends.
// STL_BENCH_SCALE=small|medium|large controls how many datasets (and
// how much workload) the bench binaries run, so the default suite
// finishes in minutes on a laptop.
#ifndef STL_WORKLOAD_DATASETS_H_
#define STL_WORKLOAD_DATASETS_H_

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace stl {

/// Benchmark effort level, from the STL_BENCH_SCALE environment variable.
enum class BenchScale { kSmall, kMedium, kLarge };

/// Reads STL_BENCH_SCALE (default kSmall).
BenchScale ScaleFromEnv();

/// One synthetic dataset recipe.
struct DatasetSpec {
  std::string name;      // e.g. "NY-S"
  std::string mirrors;   // the paper dataset it stands in for
  uint32_t width;
  uint32_t height;
  uint64_t seed;
};

/// The full registry (10 datasets, increasing size).
const std::vector<DatasetSpec>& AllDatasets();

/// The registry prefix appropriate for `scale` (4 / 7 / 10 datasets).
std::vector<DatasetSpec> DatasetsForScale(BenchScale scale);

/// Materializes the dataset (deterministic in the spec).
Graph LoadDataset(const DatasetSpec& spec);

}  // namespace stl

#endif  // STL_WORKLOAD_DATASETS_H_
