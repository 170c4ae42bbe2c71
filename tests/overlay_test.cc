// Incremental overlay repair audit (index/overlay.h): a persistent
// BoundaryOverlay fed batches of weight changes must publish tables
// bitwise-identical to a from-scratch overlay built on the same
// weights — increases, decreases, direct S–S updates, kInfDistance
// disconnect/reconnect transitions, and multi-cell batches — while
// pointer-sharing the rows the batch left clean. Those tables are also
// checked against full-graph Dijkstra, which shares no code with the
// overlay's row search, and the search kernel itself (DenseSearchRow,
// util/simd.h) against a heap Dijkstra on random matrices. The
// engine-level section replays the same contract through ShardedEngine
// on all four backends under concurrent batch load (the TSan target).
#include "index/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.h"
#include "graph/dijkstra.h"
#include "partition/cells.h"
#include "tests/test_util.h"
#include "util/min_heap.h"
#include "util/rng.h"
#include "util/simd.h"

namespace stl {
namespace {

// Drives one layout with two overlays: `inc` lives across rounds and
// publishes incrementally; Scratch() builds a throwaway overlay from
// the current weights and publishes with repair disabled. Exact
// distances are unique, so the two tables must match byte for byte.
class OverlayHarness {
 public:
  OverlayHarness(uint32_t side, uint64_t seed, uint32_t cells)
      : master_(testing_util::SmallRoadNetwork(side, seed)) {
    CellPartition partition =
        PartitionCells(master_, cells, HierarchyOptions{});
    plan_ = BuildShardPlan(master_, partition);
    inc_ = std::make_unique<BoundaryOverlay>(&plan_.layout, master_);
    for (uint32_t s = 0; s < plan_.layout.num_shards(); ++s) {
      inc_->RebuildClique(s, plan_.shard_graphs[s]);
    }
  }

  const ShardLayout& layout() const { return plan_.layout; }
  const Graph& master() const { return master_; }

  // Applies one weight change to the master graph and routes it to the
  // owning shard graph (marking its clique dirty) or the overlay's
  // direct edge set — the same plumbing ShardedEngine's writer runs.
  void ApplyWeight(EdgeId e, Weight w) {
    master_.SetEdgeWeight(e, w);
    const uint32_t s = plan_.layout.shard_of_edge[e];
    if (s == ShardLayout::kOverlayShard) {
      inc_->SetDirectWeight(plan_.layout.local_of_edge[e], w);
    } else {
      plan_.shard_graphs[s].SetEdgeWeight(plan_.layout.local_of_edge[e],
                                          w);
      touched_.insert(s);
    }
  }

  // Forces clique entry (i, j) of shard s to `w` on both the
  // incremental overlay and every future Scratch() build — the only
  // way a weight-only stream can be made to exercise kInfDistance
  // transitions inside a connected test graph.
  void OverrideCliqueEntry(uint32_t s, uint32_t i, uint32_t j, Weight w) {
    inc_->OverrideCliqueEntryForTest(s, i, j, w);
    overrides_.emplace_back(s, i, j, w);
  }

  void ClearOverrides(uint32_t s) {
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, Weight>> keep;
    for (const auto& o : overrides_) {
      if (std::get<0>(o) != s) keep.push_back(o);
    }
    overrides_ = std::move(keep);
    touched_.insert(s);  // rebuild recomputes the true entries
  }

  std::shared_ptr<const OverlayTable> PublishIncremental(
      OverlayPublishStats* stats = nullptr, bool allow_repair = true) {
    for (uint32_t s : touched_) {
      inc_->RebuildClique(s, plan_.shard_graphs[s]);
      for (const auto& [os, i, j, w] : overrides_) {
        if (os == s) inc_->OverrideCliqueEntryForTest(os, i, j, w);
      }
    }
    touched_.clear();
    return inc_->Publish(allow_repair, stats);
  }

  std::shared_ptr<const OverlayTable> Scratch() {
    BoundaryOverlay fresh(&plan_.layout, master_);
    for (uint32_t s = 0; s < plan_.layout.num_shards(); ++s) {
      fresh.RebuildClique(s, plan_.shard_graphs[s]);
    }
    for (const auto& [s, i, j, w] : overrides_) {
      fresh.OverrideCliqueEntryForTest(s, i, j, w);
    }
    return fresh.Publish(/*allow_repair=*/false);
  }

  // Picks an edge owned by a shard (never the overlay), deterministic
  // in rng state.
  EdgeId ShardOwnedEdge(Rng* rng) const {
    for (;;) {
      EdgeId e = static_cast<EdgeId>(rng->NextBounded(master_.NumEdges()));
      if (plan_.layout.shard_of_edge[e] != ShardLayout::kOverlayShard) {
        return e;
      }
    }
  }

 private:
  Graph master_;
  ShardPlan plan_;
  std::unique_ptr<BoundaryOverlay> inc_;
  std::set<uint32_t> touched_;
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, Weight>> overrides_;
};

void ExpectSameTable(const OverlayTable& got, const OverlayTable& want,
                     const ShardLayout& layout, const char* context) {
  ASSERT_EQ(got.num_boundary(), want.num_boundary()) << context;
  const uint32_t n = got.num_boundary();
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      ASSERT_EQ(got.At(a, b), want.At(a, b))
          << context << " a=" << a << " b=" << b;
    }
  }
  for (uint32_t s = 0; s < layout.num_shards(); ++s) {
    const uint32_t w =
        static_cast<uint32_t>(layout.shards[s].boundary_local.size());
    for (uint32_t a = 0; a < n; ++a) {
      const Weight* gp = got.PackedRow(s, a);
      const Weight* wp = want.PackedRow(s, a);
      for (uint32_t j = 0; j < w; ++j) {
        ASSERT_EQ(gp[j], wp[j])
            << context << " packed s=" << s << " a=" << a << " j=" << j;
      }
    }
  }
}

TEST(OverlayRepairTest, FirstPublishMatchesScratch) {
  OverlayHarness h(9, 101, 4);
  OverlayPublishStats st;
  auto table = h.PublishIncremental(&st);
  EXPECT_TRUE(st.full_rebuild);  // nothing to diff against yet
  EXPECT_EQ(st.rows_repaired, st.rows_total);
  ExpectSameTable(*table, *h.Scratch(), h.layout(), "first publish");
}

TEST(OverlayRepairTest, RandomMixedBatchesMatchScratch) {
  OverlayHarness h(9, 102, 4);
  h.PublishIncremental();
  Rng rng(102);
  uint64_t repaired_publishes = 0;
  for (int round = 0; round < 24; ++round) {
    // Multi-cell batches: edges drawn across the whole network, sizes
    // 1..6, mixed increases and decreases (RandomUpdate flips a coin).
    const int batch = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < batch; ++i) {
      WeightUpdate u = testing_util::RandomUpdate(h.master(), &rng);
      h.ApplyWeight(u.edge, u.new_weight);
    }
    OverlayPublishStats st;
    auto table = h.PublishIncremental(&st);
    // A repaired row whose re-run reproduced identical bytes counts in
    // both rows_repaired and rows_shared, so the partition is bounded,
    // not exact.
    ASSERT_LE(st.rows_shared + st.rows_patched, st.rows_total)
        << "round " << round;
    ASSERT_GE(st.rows_repaired + st.rows_patched + st.rows_shared,
              st.rows_total)
        << "round " << round;
    if (!st.full_rebuild) ++repaired_publishes;
    ExpectSameTable(*table, *h.Scratch(), h.layout(),
                    ("mixed round " + std::to_string(round)).c_str());
  }
  // The stream must actually exercise the incremental path, not ride
  // the fallback the whole way.
  EXPECT_GT(repaired_publishes, 0u);
}

TEST(OverlayRepairTest, PureIncreaseBatchesShareCleanRows) {
  OverlayHarness h(10, 103, 4);
  auto prev = h.PublishIncremental();
  Rng rng(103);
  bool saw_shared_row = false;
  for (int round = 0; round < 12; ++round) {
    EdgeId e = h.ShardOwnedEdge(&rng);
    Weight w = h.master().EdgeWeight(e);
    h.ApplyWeight(e, std::min<Weight>(kMaxEdgeWeight, w * 2 + 1));
    OverlayPublishStats st;
    auto table = h.PublishIncremental(&st);
    ExpectSameTable(*table, *h.Scratch(), h.layout(), "pure increase");
    if (!st.full_rebuild) {
      // Increases produce no anchors, so nothing is patched: every row
      // is either re-run (tightness-tagged) or pointer-shared.
      EXPECT_EQ(st.rows_patched, 0u) << "round " << round;
      EXPECT_GE(st.rows_repaired + st.rows_shared, st.rows_total);
      for (uint32_t r = 0; r < table->num_boundary(); ++r) {
        if (table->Row(r) == prev->Row(r)) {
          saw_shared_row = true;
          break;
        }
      }
    }
    prev = table;
  }
  EXPECT_TRUE(saw_shared_row)
      << "no single-edge increase ever pointer-shared a row";
}

TEST(OverlayRepairTest, PureDecreaseBatchesMatchScratch) {
  OverlayHarness h(10, 104, 4);
  h.PublishIncremental();
  Rng rng(104);
  // Congest a pool of edges first so every later decrease is real.
  std::vector<EdgeId> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(h.ShardOwnedEdge(&rng));
  for (EdgeId e : pool) {
    h.ApplyWeight(e, std::min<Weight>(kMaxEdgeWeight,
                                      h.master().EdgeWeight(e) * 4));
  }
  h.PublishIncremental();
  for (size_t i = 0; i < pool.size(); i += 2) {
    h.ApplyWeight(pool[i], std::max<Weight>(1u, h.master().EdgeWeight(
                                                    pool[i]) /
                                                    4));
    if (i + 1 < pool.size()) {
      h.ApplyWeight(pool[i + 1],
                    std::max<Weight>(
                        1u, h.master().EdgeWeight(pool[i + 1]) / 4));
    }
    OverlayPublishStats st;
    auto table = h.PublishIncremental(&st);
    ASSERT_GE(st.rows_repaired + st.rows_patched + st.rows_shared,
              st.rows_total);
    ExpectSameTable(*table, *h.Scratch(), h.layout(), "pure decrease");
  }
}

TEST(OverlayRepairTest, DirectEdgeUpdatesMatchScratch) {
  // A fine partition of a small grid owns S-S edges directly.
  OverlayHarness h(8, 105, 8);
  if (h.layout().direct_edges.empty()) {
    GTEST_SKIP() << "layout produced no direct overlay edges";
  }
  h.PublishIncremental();
  Rng rng(105);
  for (int round = 0; round < 10; ++round) {
    const uint32_t slot = static_cast<uint32_t>(
        rng.NextBounded(h.layout().direct_edges.size()));
    const EdgeId e = h.layout().direct_edges[slot].global_edge;
    const Weight w = h.master().EdgeWeight(e);
    const Weight nw = (round % 2 == 0)
                          ? std::min<Weight>(kMaxEdgeWeight, w * 3)
                          : std::max<Weight>(1u, w / 3);
    if (nw == w) continue;
    h.ApplyWeight(e, nw);
    auto table = h.PublishIncremental();
    ExpectSameTable(*table, *h.Scratch(), h.layout(), "direct edge");
  }
}

TEST(OverlayRepairTest, InfinityTransitionsMatchScratch) {
  OverlayHarness h(9, 106, 4);
  h.PublishIncremental();
  // Disconnect: force a finite clique entry to kInfDistance (an
  // increase whose new weight never enters the search graph), publish,
  // compare. Reconnect: drop the override and rebuild the clique (a
  // kInf -> finite decrease), publish, compare.
  const ShardLayout& layout = h.layout();
  for (uint32_t s = 0; s < layout.num_shards(); ++s) {
    const uint32_t w =
        static_cast<uint32_t>(layout.shards[s].boundary_local.size());
    if (w < 2) continue;
    h.OverrideCliqueEntry(s, 0, w - 1, kInfDistance);
    auto cut = h.PublishIncremental();
    ExpectSameTable(*cut, *h.Scratch(), layout, "disconnect");
    h.ClearOverrides(s);
    auto back = h.PublishIncremental();
    ExpectSameTable(*back, *h.Scratch(), layout, "reconnect");
  }
}

TEST(OverlayRepairTest, EmptyPublishSharesEveryRow) {
  OverlayHarness h(9, 107, 4);
  auto first = h.PublishIncremental();
  OverlayPublishStats st;
  auto second = h.PublishIncremental(&st);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_EQ(st.rows_repaired, 0u);
  EXPECT_EQ(st.rows_shared, st.rows_total);
  EXPECT_GT(st.bytes_shared, 0u);
  for (uint32_t r = 0; r < first->num_boundary(); ++r) {
    ASSERT_EQ(first->Row(r), second->Row(r)) << "row " << r;
  }
}

TEST(OverlayRepairTest, RepairDisallowedFallsBackExactly) {
  OverlayHarness h(9, 108, 4);
  h.PublishIncremental();
  Rng rng(108);
  for (int i = 0; i < 4; ++i) {
    WeightUpdate u = testing_util::RandomUpdate(h.master(), &rng);
    h.ApplyWeight(u.edge, u.new_weight);
  }
  OverlayPublishStats st;
  auto table =
      h.PublishIncremental(&st, /*allow_repair=*/false);
  EXPECT_TRUE(st.full_rebuild);
  EXPECT_EQ(st.rows_repaired, st.rows_total);
  ExpectSameTable(*table, *h.Scratch(), h.layout(), "repair disallowed");
}

// Checks every entry of `table` against a full-graph Dijkstra between
// the two boundary vertices on `g`: an oracle that shares no code with
// the overlay's row search, so a kernel fault cannot hide behind a
// from-scratch overlay that runs the same search.
void ExpectTableMatchesGraph(const OverlayTable& table,
                             const ShardLayout& layout, const Graph& g,
                             const std::string& context) {
  const std::vector<Vertex>& boundary = layout.partition.boundary;
  ASSERT_EQ(table.num_boundary(), boundary.size()) << context;
  Dijkstra dij(g);
  for (uint32_t a = 0; a < table.num_boundary(); ++a) {
    const std::vector<Weight>& dist = dij.AllDistances(boundary[a]);
    for (uint32_t b = 0; b < table.num_boundary(); ++b) {
      ASSERT_EQ(table.At(a, b), dist[boundary[b]])
          << context << " a=" << a << " b=" << b;
    }
  }
}

TEST(OverlayRepairTest, TablesMatchFullGraphDijkstra) {
  for (const auto& [side, seed, cells] :
       {std::tuple<uint32_t, uint64_t, uint32_t>{9, 110, 4},
        std::tuple<uint32_t, uint64_t, uint32_t>{8, 105, 8}}) {
    OverlayHarness h(side, seed, cells);
    ExpectTableMatchesGraph(*h.PublishIncremental(), h.layout(), h.master(),
                            "first publish");
    Rng rng(seed);
    uint64_t repaired_publishes = 0;
    for (int round = 0; round < 12; ++round) {
      // Mixed increases and decreases over the whole network, direct
      // S-S edges included when the layout has them.
      const int batch = 1 + static_cast<int>(rng.NextBounded(4));
      for (int i = 0; i < batch; ++i) {
        WeightUpdate u = testing_util::RandomUpdate(h.master(), &rng);
        h.ApplyWeight(u.edge, u.new_weight);
      }
      OverlayPublishStats st;
      auto table = h.PublishIncremental(&st);
      if (!st.full_rebuild) ++repaired_publishes;
      ExpectTableMatchesGraph(*table, h.layout(), h.master(),
                              "cells=" + std::to_string(cells) +
                                  " round=" + std::to_string(round));
    }
    EXPECT_GT(repaired_publishes, 0u) << "cells=" << cells;
  }
}

// ---------------------------------------------------------------------
// The row search kernel against the heap Dijkstra the overlay ran
// before its dense search, made saturating: a key at or above
// kInfDistance is unreachable, so no distance exceeds kInfDistance.

void HeapSearchReference(const std::vector<Weight>& w, uint32_t n,
                         uint32_t src, Weight* row) {
  std::vector<Weight> dist(n, kInfDistance);
  std::vector<uint8_t> settled(n, 0);
  MinHeap<Weight, uint32_t> heap;
  dist[src] = 0;
  heap.Push(0, src);
  while (!heap.empty()) {
    const auto top = heap.Pop();
    const uint32_t u = top.payload;
    if (settled[u] || top.key != dist[u]) continue;
    settled[u] = 1;
    for (uint32_t v = 0; v < n; ++v) {
      const Weight arc = w[static_cast<size_t>(u) * n + v];
      if (v == u || arc >= kInfDistance) continue;
      // Both terms are below kInfDistance, so the sum does not wrap.
      const Weight nd = std::min(top.key + arc, kInfDistance);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.Push(nd, v);
      }
    }
  }
  std::copy(dist.begin(), dist.end(), row);
}

using SearchRowFn = void (*)(const Weight*, uint32_t, uint32_t, Weight*,
                             uint32_t*);

// The kernel arms this machine can run: the scalar twin always, the
// AVX2 twin only where the CPU has AVX2.
std::vector<std::pair<const char*, SearchRowFn>> SearchArms() {
  std::vector<std::pair<const char*, SearchRowFn>> arms = {
      {"scalar", &DenseSearchRowScalar}};
#ifdef STL_HAVE_AVX2_KERNEL
  if (CpuHasAvx2()) {
    arms.emplace_back("avx2", &simd_internal::DenseSearchRowAvx2);
  }
#endif
  return arms;
}

// Compares every row of `w` from every arm (and the dispatched search)
// with the reference, starting each from garbage output and scratch.
void ExpectSearchMatchesReference(const std::vector<Weight>& w, uint32_t n,
                                  const std::string& context) {
  std::vector<Weight> want(n);
  std::vector<Weight> got(n);
  std::vector<uint32_t> done(n);
  auto arms = SearchArms();
  arms.emplace_back("dispatched", &DenseSearchRow);
  for (uint32_t src = 0; src < n; ++src) {
    HeapSearchReference(w, n, src, want.data());
    for (const auto& [name, fn] : arms) {
      std::fill(got.begin(), got.end(), 0xabababab);
      std::fill(done.begin(), done.end(), 0xcdcdcdcd);
      fn(w.data(), n, src, got.data(), done.data());
      ASSERT_EQ(got, want) << context << " arm=" << name << " src=" << src;
    }
  }
}

enum class MatrixKind { kMixed, kTies, kNearInfinity, kSplit };

// An n x n search matrix with 0 on the diagonal. kMixed draws weights
// up to kMaxEdgeWeight, zeros included; kTies draws 0-2, so equal keys
// are common; kNearInfinity draws weights just below kInfDistance, so
// sums pass it; kSplit cuts the vertices into two halves with no arc
// between them and leaves every third vertex isolated (an all-kInf
// row and column).
std::vector<Weight> RandomSearchMatrix(uint32_t n, MatrixKind kind,
                                       Rng* rng) {
  std::vector<Weight> w(static_cast<size_t>(n) * n, kInfDistance);
  for (uint32_t u = 0; u < n; ++u) {
    for (uint32_t v = 0; v < n; ++v) {
      Weight& cell = w[static_cast<size_t>(u) * n + v];
      if (u == v) {
        cell = 0;
        continue;
      }
      if (kind == MatrixKind::kSplit &&
          ((u < n / 2) != (v < n / 2) || u % 3 == 2 || v % 3 == 2)) {
        continue;
      }
      if (rng->NextBounded(4) == 0) continue;  // no arc
      switch (kind) {
        case MatrixKind::kMixed:
        case MatrixKind::kSplit:
          cell = rng->NextBounded(8) == 0
                     ? 0
                     : static_cast<Weight>(
                           rng->NextBounded(kMaxEdgeWeight + 1));
          break;
        case MatrixKind::kTies:
          cell = static_cast<Weight>(rng->NextBounded(3));
          break;
        case MatrixKind::kNearInfinity:
          cell = kInfDistance - 1 - static_cast<Weight>(rng->NextBounded(3));
          break;
      }
    }
  }
  return w;
}

TEST(DenseSearchRowTest, MatchesHeapReferenceOnRandomMatrices) {
  Rng rng(111);
  for (const uint32_t n : {1u, 2u, 7u, 8u, 9u, 31u, 214u}) {
    for (const MatrixKind kind :
         {MatrixKind::kMixed, MatrixKind::kTies, MatrixKind::kNearInfinity,
          MatrixKind::kSplit}) {
      const std::vector<Weight> w = RandomSearchMatrix(n, kind, &rng);
      ExpectSearchMatchesReference(
          w, n,
          "n=" + std::to_string(n) +
              " kind=" + std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST(DenseSearchRowTest, ChainOfNearInfiniteArcsSaturates) {
  // A path 0-1-...-(n-1) of kInfDistance - 1 arcs: only the first hop
  // is below kInfDistance. Unsaturated uint32 sums would exceed it from
  // the second hop and wrap to a small finite value from the fifth.
  for (const uint32_t n : {7u, 9u, 24u}) {
    std::vector<Weight> w(static_cast<size_t>(n) * n, kInfDistance);
    for (uint32_t u = 0; u < n; ++u) {
      w[static_cast<size_t>(u) * n + u] = 0;
      if (u + 1 < n) {
        w[static_cast<size_t>(u) * n + u + 1] = kInfDistance - 1;
        w[static_cast<size_t>(u + 1) * n + u] = kInfDistance - 1;
      }
    }
    ExpectSearchMatchesReference(w, n, "chain n=" + std::to_string(n));
    std::vector<Weight> row(n);
    std::vector<uint32_t> done(n);
    for (const auto& [name, fn] : SearchArms()) {
      fn(w.data(), n, 0, row.data(), done.data());
      EXPECT_EQ(row[0], 0u) << name;
      EXPECT_EQ(row[1], kInfDistance - 1) << name;
      for (uint32_t v = 2; v < n; ++v) {
        EXPECT_EQ(row[v], kInfDistance) << name << " v=" << v;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Engine level: the repair path serving live traffic on all four
// backends, audited against per-epoch Dijkstra ground truth while
// batched readers race the writer (the TSan workload).

class OverlayEngineTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(OverlayEngineTest, IncrementalEpochsStayExactUnderLoad) {
  Graph g = testing_util::SmallRoadNetwork(7, 109);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardedEngineOptions opt;
  opt.backend = GetParam();
  opt.target_shards = 4;
  opt.num_query_threads = 4;
  opt.max_batch_size = 4;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);
  Rng rng(109);
  testing_util::EpochOracle oracle;
  for (int round = 0; round < 6; ++round) {
    std::vector<WeightUpdate> updates;
    for (int i = 0; i < 3; ++i) {
      updates.push_back(
          WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                       1 + static_cast<Weight>(rng.NextBounded(500))});
    }
    engine.EnqueueUpdates(updates);
    // Readers race the repair-and-republish writer.
    std::vector<QueryPair> batch;
    for (int i = 0; i < 32; ++i) {
      batch.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    }
    ShardedEngine::Ticket ticket = engine.SubmitBatch(batch);
    engine.Flush();
    ticket.Wait();
    Dijkstra& batch_audit =
        oracle.For(ticket.epoch(), ticket.snapshot()->graph);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(ticket.code(i), StatusCode::kOk);
      ASSERT_EQ(ticket.distance(i),
                batch_audit.Distance(batch[i].first, batch[i].second))
          << BackendName(GetParam()) << " round=" << round << " i=" << i;
    }
    auto snap = engine.CurrentSnapshot();
    Dijkstra& audit = oracle.For(snap->epoch, snap->graph);
    for (int i = 0; i < 40; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), audit.Distance(s, t))
          << BackendName(GetParam()) << " round=" << round;
    }
  }
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.overlay_rows_total, 0u);
  EXPECT_LE(stats.overlay_rows_repaired, stats.overlay_rows_total);
  EXPECT_GT(stats.clique_entries_recomputed, 0u);
  EXPECT_GT(stats.boundary_row_cache_lookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OverlayEngineTest,
                         ::testing::Values(BackendKind::kStl,
                                           BackendKind::kCh,
                                           BackendKind::kH2h,
                                           BackendKind::kHc2l),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

}  // namespace
}  // namespace stl
