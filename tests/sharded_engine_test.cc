// The sharded section of the engine test audit: ShardedEngine must keep
// the exact-per-epoch serving contract of QueryEngine while cutting the
// network into per-cell shards — readers racing the per-shard writer,
// every answer Dijkstra-checked on the full-graph weights of the epoch
// it was served from, and single-cell batches republishing only their
// own shard.
#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/query_workload.h"

namespace stl {
namespace {

ShardedEngineOptions SmallShardedOptions(BackendKind backend,
                                         uint32_t shards) {
  ShardedEngineOptions opt;
  opt.backend = backend;
  opt.target_shards = shards;
  opt.num_query_threads = 4;
  opt.max_batch_size = 8;
  return opt;
}

class ShardedBackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ShardedBackendTest, ServesExactAnswersOnInitialEpoch) {
  Graph g = testing_util::SmallRoadNetwork(8, 51);
  Graph ref = g;
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(GetParam(), 4));
  EXPECT_EQ(engine.backend(), GetParam());
  EXPECT_GE(engine.num_shards(), 4u);
  Dijkstra dij(ref);
  Rng rng(51);
  for (int i = 0; i < 150; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    ShardedQueryResult r = engine.Submit({s, t}).get();
    ASSERT_EQ(r.distance, dij.Distance(s, t))
        << BackendName(GetParam()) << " s=" << s << " t=" << t;
    EXPECT_EQ(r.epoch, 0u);
    ASSERT_NE(r.snapshot, nullptr);
  }
  // Boundary endpoints exercise the overlay-only and mixed routes.
  const auto& boundary = engine.layout().partition.boundary;
  ASSERT_FALSE(boundary.empty());
  for (size_t i = 0; i < boundary.size(); ++i) {
    Vertex b = boundary[i];
    Vertex t = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    ASSERT_EQ(engine.Submit({b, t}).get().distance, dij.Distance(b, t))
        << BackendName(GetParam()) << " boundary s=" << b << " t=" << t;
    Vertex b2 = boundary[rng.NextBounded(boundary.size())];
    ASSERT_EQ(engine.Submit({b, b2}).get().distance, dij.Distance(b, b2))
        << BackendName(GetParam()) << " boundary pair " << b << "," << b2;
  }
}

TEST_P(ShardedBackendTest, UpdatesPublishEpochsWithExactAnswers) {
  Graph g = testing_util::SmallRoadNetwork(7, 52);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(GetParam(), 4));
  Rng rng(52);
  for (int round = 0; round < 4; ++round) {
    std::vector<WeightUpdate> updates;
    for (int i = 0; i < 3; ++i) {
      updates.push_back(
          WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                       1 + static_cast<Weight>(rng.NextBounded(400))});
    }
    engine.EnqueueUpdates(updates);
    engine.Flush();
    auto snap = engine.CurrentSnapshot();
    Dijkstra dij(snap->graph);
    for (int i = 0; i < 60; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), dij.Distance(s, t))
          << BackendName(GetParam()) << " round=" << round << " s=" << s
          << " t=" << t;
    }
  }
  EngineStats stats = engine.Stats();
  EXPECT_GE(stats.epochs_published, 1u);
  EXPECT_EQ(stats.num_shards, engine.num_shards());
  EXPECT_EQ(stats.shards.size(), engine.num_shards());
  EXPECT_GE(stats.overlay_republishes, stats.epochs_published);
  // Every effective update was routed to exactly one shard or the
  // overlay; per-shard counters must sum to at most the total.
  uint64_t shard_sum = 0;
  for (const ShardStats& row : stats.shards) {
    shard_sum += row.updates_applied;
  }
  EXPECT_LE(shard_sum, stats.updates_applied);
}

// The headline sharded audit: reader threads racing the writer that
// repairs and republishes individual shards; every answer must be exact
// for the full-network weights of the epoch it was served from.
// `row_cache_entries` is the engine's boundary_row_cache_entries; the
// final stats land in *stats_out.
void ConcurrentReadersAudit(BackendKind backend, size_t row_cache_entries,
                            EngineStats* stats_out) {
  Graph g = testing_util::SmallRoadNetwork(7, 53);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardedEngineOptions opt = SmallShardedOptions(backend, 4);
  opt.max_batch_size = 4;
  opt.boundary_row_cache_entries = row_cache_entries;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);

  std::atomic<bool> done{false};
  std::thread updater([&engine, m, &done] {
    Rng urng(253);
    for (int i = 0; i < 48; ++i) {
      EdgeId e = static_cast<EdgeId>(urng.NextBounded(m));
      engine.EnqueueUpdate(e, 1 + static_cast<Weight>(urng.NextBounded(300)));
      if (i % 6 == 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    done.store(true);
  });

  Rng qrng(254);
  std::vector<std::vector<QueryPair>> waves;
  std::vector<ShardedEngine::Ticket> tickets;
  size_t total = 0;
  while (!done.load() || total < 600) {
    std::vector<QueryPair> wave;
    for (int i = 0; i < 30; ++i) {
      wave.emplace_back(static_cast<Vertex>(qrng.NextBounded(n)),
                        static_cast<Vertex>(qrng.NextBounded(n)));
    }
    tickets.push_back(engine.SubmitBatch(wave));
    total += wave.size();
    waves.push_back(std::move(wave));
    if (total >= 3000) break;  // safety valve
  }
  updater.join();
  engine.Flush();

  // Every ticket was routed from ONE pinned snapshot: audit against
  // Dijkstra on that snapshot's full-graph weights AND against the
  // per-query router on the same snapshot — the batched path (grouped,
  // row-reusing) must be bit-identical to per-query serving.
  std::map<uint64_t, std::shared_ptr<const ShardedSnapshot>> snapshots;
  testing_util::EpochOracle oracle;
  uint64_t mismatches = 0;
  uint64_t batch_vs_query_mismatches = 0;
  for (size_t w = 0; w < tickets.size(); ++w) {
    ShardedEngine::Ticket& ticket = tickets[w];
    ticket.Wait();
    const auto& snap = ticket.snapshot();
    ASSERT_NE(snap, nullptr);
    snapshots.emplace(ticket.epoch(), snap);
    Dijkstra& audit = oracle.For(ticket.epoch(), snap->graph);
    for (size_t i = 0; i < waves[w].size(); ++i) {
      const auto [s, t] = waves[w][i];
      if (ticket.distance(i) != audit.Distance(s, t)) ++mismatches;
      if (ticket.distance(i) != snap->Query(s, t)) {
        ++batch_vs_query_mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << BackendName(backend);
  EXPECT_EQ(batch_vs_query_mismatches, 0u) << BackendName(backend);

  // Held snapshots still answer for their own epoch after the writer
  // has moved on (per-shard immutability).
  for (auto& [epoch, snap] : snapshots) {
    Rng rng(static_cast<uint64_t>(epoch) + 7000);
    for (int i = 0; i < 20; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), oracle.At(epoch).Distance(s, t))
          << BackendName(backend) << " epoch=" << epoch;
    }
  }

  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, total);
  EXPECT_GE(stats.epochs_published, 1u);
  EXPECT_EQ(stats.updates_enqueued, 48u);
  EXPECT_EQ(stats.updates_applied + stats.updates_coalesced, 48u);
  EXPECT_GT(stats.resident_index_bytes, 0u);
  *stats_out = stats;
}

TEST_P(ShardedBackendTest, ConcurrentReadersMatchDijkstraPerEpoch) {
  EngineStats stats;
  ConcurrentReadersAudit(GetParam(),
                         ShardedEngineOptions{}.boundary_row_cache_entries,
                         &stats);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ShardedBackendTest,
    ::testing::Values(BackendKind::kStl, BackendKind::kCh,
                      BackendKind::kH2h, BackendKind::kHc2l),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendName(info.param));
    });

// The same audit with the boundary-row cache off: the batched path then
// computes every row fresh too, and must still agree bit for bit with
// the per-query reference ShardedSnapshot::Query.
TEST(ShardedEngineTest, ConcurrentReadersMatchDijkstraWithRowCacheOff) {
  EngineStats stats;
  ConcurrentReadersAudit(BackendKind::kStl, 0, &stats);
  EXPECT_EQ(stats.boundary_row_cache_lookups, 0u);
  EXPECT_EQ(stats.boundary_row_cache_hits, 0u);
}

TEST(ShardedEngineTest, ExhaustiveAllPairsMatchFloydWarshall) {
  Graph g = testing_util::SmallRoadNetwork(5, 54);
  Graph ref = g;
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(BackendKind::kStl, 3));
  auto all = FloydWarshallAllPairs(ref);
  auto snap = engine.CurrentSnapshot();
  std::vector<QueryPair> pairs;
  for (Vertex s = 0; s < ref.NumVertices(); ++s) {
    for (Vertex t = 0; t < ref.NumVertices(); ++t) {
      ASSERT_EQ(snap->Query(s, t), all[s][t]) << "s=" << s << " t=" << t;
      pairs.emplace_back(s, t);
    }
  }
  // The same pairs as ONE batch: the grouped, row-reusing batched
  // router covers every routing case here (same-cell, cross-cell,
  // boundary endpoints, s == t) and must reproduce every distance
  // bit-identically.
  ShardedEngine::Ticket ticket = engine.SubmitBatch(pairs);
  ticket.Wait();
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(ticket.distance(i), all[pairs[i].first][pairs[i].second])
        << "batched s=" << pairs[i].first << " t=" << pairs[i].second;
  }
}

TEST(ShardedEngineTest, CompletionQueueDeliversExactlyOnceUnderRaces) {
  Graph g = testing_util::SmallRoadNetwork(7, 67);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(BackendKind::kStl, 4));
  CompletionQueue cq;
  constexpr size_t kQueries = 900;
  std::thread updater([&engine, m] {
    Rng urng(671);
    for (int i = 0; i < 40; ++i) {
      engine.EnqueueUpdate(static_cast<EdgeId>(urng.NextBounded(m)),
                           1 + static_cast<Weight>(urng.NextBounded(300)));
      if (i % 5 == 4) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  Rng rng(672);
  for (size_t i = 0; i < kQueries; ++i) {
    engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n))},
                        i, &cq);
  }
  std::vector<bool> seen(kQueries, false);
  size_t received = 0;
  Completion buf[64];
  while (received < kQueries) {
    const size_t got = cq.WaitPoll(buf, 64);
    for (size_t i = 0; i < got; ++i) {
      ASSERT_LT(buf[i].tag, kQueries);
      ASSERT_FALSE(seen[buf[i].tag]);
      seen[buf[i].tag] = true;
    }
    received += got;
  }
  updater.join();
  EXPECT_EQ(cq.Poll(buf, 64), 0u);
}

TEST(ShardedEngineTest, ResultCacheKeepsShardedAnswersExactAcrossEpochs) {
  Graph g = testing_util::SmallRoadNetwork(7, 68);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardedEngineOptions opt = SmallShardedOptions(BackendKind::kStl, 4);
  opt.result_cache_entries = 1 << 12;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);
  Rng rng(68);
  std::vector<QueryPair> queries;
  for (int i = 0; i < 60; ++i) {
    queries.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n)));
  }
  ShardedEngine::Ticket first = engine.SubmitBatch(queries);
  first.Wait();
  ShardedEngine::Ticket repeat = engine.SubmitBatch(queries);
  repeat.Wait();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(first.distance(i), repeat.distance(i));
  }
  EXPECT_GT(engine.Stats().result_cache_hits, 0u);
  // New epoch -> stale entries stop matching; answers follow the new
  // weights exactly.
  for (int i = 0; i < 10; ++i) {
    engine.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                         1 + static_cast<Weight>(rng.NextBounded(400)));
  }
  engine.Flush();
  ShardedEngine::Ticket after = engine.SubmitBatch(queries);
  after.Wait();
  Dijkstra dij(after.snapshot()->graph);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(after.distance(i),
              dij.Distance(queries[i].first, queries[i].second));
  }
}

// The update-locality acceptance check: a batch whose edges all live in
// one cell republishes that shard's epoch and the overlay — every other
// shard's ShardServing pointer in the next snapshot is the same object.
TEST(ShardedEngineTest, SingleCellBatchRepublishesOnlyThatShard) {
  Graph g = testing_util::SmallRoadNetwork(8, 55);
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(BackendKind::kStl, 4));
  const ShardLayout& lay = engine.layout();
  ASSERT_GE(lay.num_shards(), 2u);

  // Pick the shard owning the most edges and a few of its edges.
  uint32_t target = 0;
  for (uint32_t c = 1; c < lay.num_shards(); ++c) {
    if (lay.shards[c].edge_to_global.size() >
        lay.shards[target].edge_to_global.size()) {
      target = c;
    }
  }
  ASSERT_GE(lay.shards[target].edge_to_global.size(), 3u);

  auto before = engine.CurrentSnapshot();
  std::vector<WeightUpdate> updates;
  Rng rng(55);
  for (int i = 0; i < 3; ++i) {
    const EdgeId e = lay.shards[target].edge_to_global[i];
    updates.push_back(WeightUpdate{
        e, 0, before->graph.EdgeWeight(e) + 100 +
                  static_cast<Weight>(rng.NextBounded(100))});
  }
  engine.EnqueueUpdates(updates);
  engine.Flush();
  auto after = engine.CurrentSnapshot();

  ASSERT_GT(after->epoch, before->epoch);
  EXPECT_NE(after->overlay.get(), before->overlay.get());
  for (uint32_t c = 0; c < lay.num_shards(); ++c) {
    if (c == target) {
      EXPECT_NE(after->shards[c].get(), before->shards[c].get());
      EXPECT_EQ(after->shards[c]->shard_epoch,
                before->shards[c]->shard_epoch + 1);
    } else {
      // Pointer-shared: the clean shard was not republished.
      EXPECT_EQ(after->shards[c].get(), before->shards[c].get())
          << "shard " << c << " republished by a foreign batch";
    }
  }

  // The stats rows agree with the snapshot lineage.
  EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.shards.size(), lay.num_shards());
  EXPECT_EQ(stats.shards[target].updates_applied, 3u);
  EXPECT_EQ(stats.shards[target].shard_epoch, 1u);
  for (uint32_t c = 0; c < lay.num_shards(); ++c) {
    if (c != target) {
      EXPECT_EQ(stats.shards[c].shard_epoch, 0u);
      EXPECT_EQ(stats.shards[c].updates_applied, 0u);
    }
  }

  // And the answers on the new epoch are still exact.
  Dijkstra dij(after->graph);
  const uint32_t n = after->graph.NumVertices();
  for (int i = 0; i < 80; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    ASSERT_EQ(after->Query(s, t), dij.Distance(s, t));
  }
}

TEST(ShardedEngineTest, BoundaryEdgeUpdateKeepsEveryShardClean) {
  // An S–S edge belongs to the overlay: updating it must republish no
  // shard at all, only the overlay table.
  Graph g = testing_util::SmallRoadNetwork(8, 56);
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(BackendKind::kStl, 4));
  const ShardLayout& lay = engine.layout();
  if (lay.direct_edges.empty()) {
    GTEST_SKIP() << "partition produced no S-S edges";
  }
  const EdgeId e = lay.direct_edges[0].global_edge;
  auto before = engine.CurrentSnapshot();
  engine.EnqueueUpdate(e, before->graph.EdgeWeight(e) + 50);
  engine.Flush();
  auto after = engine.CurrentSnapshot();
  ASSERT_GT(after->epoch, before->epoch);
  EXPECT_NE(after->overlay.get(), before->overlay.get());
  for (uint32_t c = 0; c < lay.num_shards(); ++c) {
    EXPECT_EQ(after->shards[c].get(), before->shards[c].get());
  }
  Dijkstra dij(after->graph);
  Rng rng(56);
  const uint32_t n = after->graph.NumVertices();
  for (int i = 0; i < 80; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    ASSERT_EQ(after->Query(s, t), dij.Distance(s, t));
  }
}

// The localized regime incremental overlay repair is built for, at
// every shard count k in {2, 4, 8} for STL and CH on a 24x24 grid: the
// partition reaches k cells with a non-empty boundary; epochs whose
// updates all fall in ONE peripheral cell (alternating congest /
// restore, 4 edges each) serve exact answers; and at k >= 4 at least
// half of them take the repair path (no full rebuild, strictly fewer
// overlay rows recomputed than the table has). At k = 2 one cell
// touches most of S, so the threshold fallback is the correct
// behaviour there and only exactness is asserted.
class ShardCountTest
    : public ::testing::TestWithParam<std::tuple<BackendKind, uint32_t>> {};

TEST_P(ShardCountTest, SingleCellEpochsMostlyRepair) {
  const auto [backend, k] = GetParam();
  const Graph base = testing_util::SmallRoadNetwork(24, 7);
  ShardedEngineOptions opt = SmallShardedOptions(backend, k);
  opt.result_cache_entries = 1 << 15;
  ShardedEngine engine(base, HierarchyOptions{}, opt);
  ASSERT_GE(engine.num_shards(), k);
  EXPECT_GT(engine.layout().num_boundary(), 0u);

  // Update the shard with the smallest boundary set (ties broken by
  // more edges): a peripheral cell whose clique entries sit on few
  // cross-boundary shortest paths, so the increase-affected row set
  // stays small.
  const ShardLayout& lay = engine.layout();
  const uint32_t shards = lay.num_shards();
  std::vector<uint32_t> edge_count(shards, 0);
  for (const uint32_t owner : lay.shard_of_edge) {
    if (owner != ShardLayout::kOverlayShard) ++edge_count[owner];
  }
  uint32_t target = 0;
  for (uint32_t c = 1; c < shards; ++c) {
    const size_t bc = lay.shards[c].boundary_local.size();
    const size_t bt = lay.shards[target].boundary_local.size();
    if (edge_count[c] == 0) continue;
    if (edge_count[target] == 0 || bc < bt ||
        (bc == bt && edge_count[c] > edge_count[target])) {
      target = c;
    }
  }
  std::vector<EdgeId> pool;
  for (EdgeId e = 0; e < base.NumEdges(); ++e) {
    if (lay.shard_of_edge[e] == target) pool.push_back(e);
  }
  ASSERT_FALSE(pool.empty());

  const std::vector<QueryPair> pairs = RandomQueryPairs(base, 300, 515151);
  constexpr size_t kRounds = 8;
  constexpr size_t kBatch = 4;
  engine.ResetStats();
  EngineStats prev = engine.Stats();
  uint64_t epochs = 0;
  uint64_t repaired_epochs = 0;
  uint64_t mismatches = 0;
  testing_util::EpochOracle oracle;
  std::vector<std::future<ShardedQueryResult>> futures;
  for (size_t round = 0; round < kRounds; ++round) {
    const bool restore = round % 2 == 1;
    Rng ering(12000 + 31 * (round / 2));  // restore reuses the edges
    std::vector<WeightUpdate> batch;
    for (size_t i = 0; i < kBatch; ++i) {
      const EdgeId e = pool[ering.NextBounded(pool.size())];
      const Weight w0 = base.EdgeWeight(e);
      batch.push_back(WeightUpdate{
          e, 0, restore ? w0 : std::min<Weight>(w0 * 2, kMaxEdgeWeight)});
    }
    engine.EnqueueUpdates(batch);
    engine.Flush();
    const EngineStats now = engine.Stats();
    const uint64_t round_epochs =
        now.epochs_published - prev.epochs_published;
    epochs += round_epochs;
    if (round_epochs > 0 &&
        now.overlay_full_rebuilds == prev.overlay_full_rebuilds &&
        now.overlay_rows_repaired - prev.overlay_rows_repaired <
            now.overlay_rows_total - prev.overlay_rows_total) {
      repaired_epochs += round_epochs;
    }
    prev = now;

    futures.clear();
    for (const QueryPair& q : pairs) futures.push_back(engine.Submit(q));
    for (size_t i = 0; i < pairs.size(); ++i) {
      const ShardedQueryResult r = futures[i].get();
      if (r.distance != oracle.Distance(r.epoch, r.snapshot->graph,
                                        pairs[i].first, pairs[i].second)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(epochs, 1u);
  if (engine.num_shards() >= 4) {
    EXPECT_GE(repaired_epochs * 2, epochs)
        << repaired_epochs << " of " << epochs << " single-cell epochs "
        << "repaired; the rest rebuilt the overlay from scratch";
  }
}

// The serving audit with the result cache on, at every shard count:
// per-query futures and batch tickets racing a writer; every answer
// exact on its serving epoch (so equal to a flat engine on the same
// weights) and every batched (grouped, row-reusing) answer
// bit-identical to the per-query route on its pinned snapshot.
TEST_P(ShardCountTest, CachedMixedWorkloadMatchesDijkstraPerEpoch) {
  const auto [backend, k] = GetParam();
  const Graph base = testing_util::SmallRoadNetwork(24, 7);
  ShardedEngineOptions opt = SmallShardedOptions(backend, k);
  opt.result_cache_entries = 1 << 15;
  ShardedEngine engine(base, HierarchyOptions{}, opt);
  const testing_util::MixedAudit audit = testing_util::RunMixedWorkloadAudit(
      engine, base, {.queries = 2000, .wave = 150, .update_rounds = 8,
                     .batch_size = 8, .seed = 4242});
  EXPECT_EQ(audit.futures_mismatches, 0u);
  EXPECT_EQ(audit.batch_mismatches, 0u);
  EXPECT_EQ(audit.not_ok, 0u);
  EXPECT_GE(engine.Stats().epochs_published, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    StlAndCh, ShardCountTest,
    ::testing::Combine(::testing::Values(BackendKind::kStl,
                                         BackendKind::kCh),
                       ::testing::Values(2u, 4u, 8u)),
    [](const auto& info) {
      return std::string(BackendName(std::get<0>(info.param))) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ShardedEngineTest, DisconnectedGraphRoutesToInfinity) {
  Graph g = testing_util::TwoComponentGraph();
  Graph ref = g;
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(BackendKind::kStl, 2));
  auto all = FloydWarshallAllPairs(ref);
  auto snap = engine.CurrentSnapshot();
  for (Vertex s = 0; s < ref.NumVertices(); ++s) {
    for (Vertex t = 0; t < ref.NumVertices(); ++t) {
      ASSERT_EQ(snap->Query(s, t), all[s][t]) << "s=" << s << " t=" << t;
    }
  }
  EXPECT_EQ(snap->Query(0, 4), kInfDistance);
}

TEST(ShardedEngineTest, SingleShardDegeneratesToFlatServing) {
  Graph g = testing_util::SmallRoadNetwork(6, 57);
  Graph ref = g;
  ShardedEngine engine(std::move(g), HierarchyOptions{},
                       SmallShardedOptions(BackendKind::kStl, 1));
  EXPECT_EQ(engine.num_shards(), 1u);
  EXPECT_EQ(engine.layout().num_boundary(), 0u);
  Rng rng(57);
  const uint32_t m = ref.NumEdges();
  for (int i = 0; i < 10; ++i) {
    engine.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                         1 + static_cast<Weight>(rng.NextBounded(300)));
  }
  engine.Flush();
  auto snap = engine.CurrentSnapshot();
  Dijkstra dij(snap->graph);
  const uint32_t n = snap->graph.NumVertices();
  for (int i = 0; i < 80; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    ASSERT_EQ(snap->Query(s, t), dij.Distance(s, t));
  }
}

// Construction runs up to num_threads build threads (STL: label workers
// of one shard at a time; other backends: shards built side by side):
// the answers must not depend on that count, on any epoch.
TEST(ShardedEngineTest, DefaultThreadBuildAnswersLikeSerialBuild) {
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendName(kind));
    Graph g = testing_util::SmallRoadNetwork(12, 59);
    const uint32_t n = g.NumVertices();
    const uint32_t m = g.NumEdges();
    HierarchyOptions serial;
    serial.num_threads = 1;
    ShardedEngine one(g, serial, SmallShardedOptions(kind, 4));
    ShardedEngine all(std::move(g), HierarchyOptions{},
                      SmallShardedOptions(kind, 4));
    ASSERT_EQ(one.num_shards(), all.num_shards());
    Rng rng(59);
    for (int round = 0; round < 3; ++round) {
      auto a = one.CurrentSnapshot();
      auto b = all.CurrentSnapshot();
      for (Vertex s = 0; s < n; ++s) {
        for (Vertex t = 0; t < n; ++t) {
          ASSERT_EQ(a->Query(s, t), b->Query(s, t))
              << "round=" << round << " s=" << s << " t=" << t;
        }
      }
      for (int i = 0; i < 100; ++i) {
        const QueryPair q{static_cast<Vertex>(rng.NextBounded(n)),
                          static_cast<Vertex>(rng.NextBounded(n))};
        ASSERT_EQ(one.Submit(q).get().distance,
                  all.Submit(q).get().distance)
            << "round=" << round << " s=" << q.first << " t=" << q.second;
      }
      std::vector<WeightUpdate> updates;
      for (int i = 0; i < 5; ++i) {
        updates.push_back(
            WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                         1 + static_cast<Weight>(rng.NextBounded(400))});
      }
      one.EnqueueUpdates(updates);
      all.EnqueueUpdates(updates);
      one.Flush();
      all.Flush();
    }
  }
}

TEST(ShardedEngineTest, DestructorDrainsInFlightWork) {
  Graph g = testing_util::SmallRoadNetwork(6, 58);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  std::vector<std::future<ShardedQueryResult>> futures;
  {
    ShardedEngine engine(std::move(g), HierarchyOptions{},
                         SmallShardedOptions(BackendKind::kStl, 4));
    Rng rng(58);
    for (int i = 0; i < 50; ++i) {
      futures.push_back(engine.Submit(
          {static_cast<Vertex>(rng.NextBounded(n)),
           static_cast<Vertex>(rng.NextBounded(n))}));
    }
    for (int i = 0; i < 10; ++i) {
      engine.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                           1 + static_cast<Weight>(rng.NextBounded(100)));
    }
    // Engine destroyed here with queries and updates still in flight.
  }
  for (auto& f : futures) {
    ShardedQueryResult r = f.get();  // must not hang or throw
    EXPECT_NE(r.snapshot, nullptr);
  }
}

}  // namespace
}  // namespace stl
