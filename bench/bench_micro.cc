// google-benchmark microbenchmarks of the core primitives: query paths of
// every index, both maintenance engines, the no-index Dijkstra
// references, and the boundary overlay's all-pairs publish and row
// search. Complements the table/figure harnesses with
// statistically-stable per-operation numbers.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "baselines/h2h.h"
#include "baselines/hc2l.h"
#include "core/stl_index.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "index/overlay.h"
#include "partition/cells.h"
#include "util/rng.h"
#include "util/simd.h"
#include "workload/datasets.h"
#include "workload/query_workload.h"
#include "workload/update_workload.h"

namespace stl {
namespace {

/// Shared state: one mid-sized dataset, all indexes built once.
struct Env {
  Graph g_stl;
  Graph g_h2h;
  Graph g_ref;
  StlIndex stl_idx;
  Hc2lIndex hc2l;
  H2hIndex h2h;
  std::vector<QueryPair> pairs;

  static Env* Get() {
    static Env* env = new Env();
    return env;
  }

 private:
  Env()
      : g_stl(LoadDataset(AllDatasets()[2])),  // COL-S, ~7k vertices
        g_h2h(g_stl),
        g_ref(g_stl),
        stl_idx(StlIndex::Build(&g_stl, HierarchyOptions{})),
        hc2l(Hc2lIndex::Build(g_ref, HierarchyOptions{})),
        h2h(H2hIndex::Build(&g_h2h)),
        pairs(RandomQueryPairs(g_ref, 4096, 12345)) {}
};

void BM_StlQuery(benchmark::State& state) {
  Env* env = Env::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto [s, t] = env->pairs[i++ & 4095];
    benchmark::DoNotOptimize(env->stl_idx.Query(s, t));
  }
}
BENCHMARK(BM_StlQuery);

void BM_Hc2lQuery(benchmark::State& state) {
  Env* env = Env::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto [s, t] = env->pairs[i++ & 4095];
    benchmark::DoNotOptimize(env->hc2l.Query(s, t));
  }
}
BENCHMARK(BM_Hc2lQuery);

void BM_H2hQuery(benchmark::State& state) {
  Env* env = Env::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto [s, t] = env->pairs[i++ & 4095];
    benchmark::DoNotOptimize(env->h2h.Query(s, t));
  }
}
BENCHMARK(BM_H2hQuery);

void BM_BidirectionalDijkstra(benchmark::State& state) {
  Env* env = Env::Get();
  BidirectionalDijkstra bi(env->g_ref);
  size_t i = 0;
  for (auto _ : state) {
    auto [s, t] = env->pairs[i++ & 4095];
    benchmark::DoNotOptimize(bi.Distance(s, t));
  }
}
BENCHMARK(BM_BidirectionalDijkstra)->Unit(benchmark::kMicrosecond);

void BM_ParetoIncreaseDecreaseCycle(benchmark::State& state) {
  Env* env = Env::Get();
  Rng rng(99);
  for (auto _ : state) {
    EdgeId e = static_cast<EdgeId>(rng.NextBounded(env->g_stl.NumEdges()));
    Weight w = env->g_stl.EdgeWeight(e);
    env->stl_idx.ApplyUpdate(WeightUpdate{e, w, w * 2},
                             MaintenanceStrategy::kParetoSearch);
    env->stl_idx.ApplyUpdate(WeightUpdate{e, w * 2, w},
                             MaintenanceStrategy::kParetoSearch);
  }
}
BENCHMARK(BM_ParetoIncreaseDecreaseCycle)->Unit(benchmark::kMicrosecond);

void BM_LabelSearchIncreaseDecreaseCycle(benchmark::State& state) {
  Env* env = Env::Get();
  Rng rng(98);
  for (auto _ : state) {
    EdgeId e = static_cast<EdgeId>(rng.NextBounded(env->g_stl.NumEdges()));
    Weight w = env->g_stl.EdgeWeight(e);
    env->stl_idx.ApplyUpdate(WeightUpdate{e, w, w * 2},
                             MaintenanceStrategy::kLabelSearch);
    env->stl_idx.ApplyUpdate(WeightUpdate{e, w * 2, w},
                             MaintenanceStrategy::kLabelSearch);
  }
}
BENCHMARK(BM_LabelSearchIncreaseDecreaseCycle)
    ->Unit(benchmark::kMicrosecond);

void BM_IncH2HIncreaseDecreaseCycle(benchmark::State& state) {
  Env* env = Env::Get();
  Rng rng(97);
  for (auto _ : state) {
    EdgeId e = static_cast<EdgeId>(rng.NextBounded(env->g_h2h.NumEdges()));
    Weight w = env->g_h2h.EdgeWeight(e);
    env->h2h.ApplyUpdate(WeightUpdate{e, w, w * 2},
                         H2hIndex::Maintenance::kIncH2H);
    env->h2h.ApplyUpdate(WeightUpdate{e, w * 2, w},
                         H2hIndex::Maintenance::kIncH2H);
  }
}
BENCHMARK(BM_IncH2HIncreaseDecreaseCycle)->Unit(benchmark::kMicrosecond);

void BM_LcaLevel(benchmark::State& state) {
  Env* env = Env::Get();
  const auto& h = env->stl_idx.hierarchy();
  size_t i = 0;
  for (auto _ : state) {
    auto [s, t] = env->pairs[i++ & 4095];
    benchmark::DoNotOptimize(h.LcaLevel(s, t));
  }
}
BENCHMARK(BM_LcaLevel);

/// The boundary overlay of the sharded benchmark's layout: the 160x160
/// generated grid cut into 4 cells, cliques built once. `matrix` holds
/// the published table, which is its own closure and so a valid search
/// matrix of the same size; the row search does the same n steps of n
/// lanes whatever the cell values, so it costs what the real one does.
struct OverlayEnv {
  ShardPlan plan;
  std::unique_ptr<BoundaryOverlay> overlay;
  uint32_t n = 0;
  std::vector<Weight> matrix;

  static OverlayEnv* Get() {
    static OverlayEnv* env = new OverlayEnv();
    return env;
  }

 private:
  OverlayEnv() {
    RoadNetworkOptions net;
    net.width = 160;
    net.height = 160;
    const Graph g = GenerateRoadNetwork(net);
    plan = BuildShardPlan(g, PartitionCells(g, 4, HierarchyOptions{}));
    overlay = std::make_unique<BoundaryOverlay>(&plan.layout, g);
    for (uint32_t s = 0; s < plan.layout.num_shards(); ++s) {
      overlay->RebuildClique(s, plan.shard_graphs[s]);
    }
    const auto table = overlay->Publish(/*allow_repair=*/false);
    n = table->num_boundary();
    for (uint32_t a = 0; a < n; ++a) {
      matrix.insert(matrix.end(), table->Row(a), table->Row(a) + n);
    }
  }
};

void BM_OverlayFullPublish(benchmark::State& state) {
  OverlayEnv* env = OverlayEnv::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(env->overlay->Publish(/*allow_repair=*/false));
  }
  state.counters["rows"] = env->n;
}
BENCHMARK(BM_OverlayFullPublish)->Unit(benchmark::kMillisecond);

template <typename SearchRow>
void OverlaySearchRowLoop(benchmark::State& state, SearchRow search) {
  OverlayEnv* env = OverlayEnv::Get();
  std::vector<Weight> row(env->n);
  std::vector<uint32_t> done(env->n);
  uint32_t src = 0;
  for (auto _ : state) {
    search(env->matrix.data(), env->n, src, row.data(), done.data());
    benchmark::DoNotOptimize(row.data());
    src = src + 1 == env->n ? 0 : src + 1;
  }
}

void BM_OverlaySearchRow_Scalar(benchmark::State& state) {
  OverlaySearchRowLoop(state, &DenseSearchRowScalar);
}
BENCHMARK(BM_OverlaySearchRow_Scalar)
    ->Name("BM_OverlaySearchRow/scalar")
    ->Unit(benchmark::kMicrosecond);

#ifdef STL_HAVE_AVX2_KERNEL
void BM_OverlaySearchRow_Avx2(benchmark::State& state) {
  if (!CpuHasAvx2()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  OverlaySearchRowLoop(state, &simd_internal::DenseSearchRowAvx2);
}
BENCHMARK(BM_OverlaySearchRow_Avx2)
    ->Name("BM_OverlaySearchRow/avx2")
    ->Unit(benchmark::kMicrosecond);
#endif

}  // namespace
}  // namespace stl

BENCHMARK_MAIN();
