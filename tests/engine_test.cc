#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/latency_histogram.h"
#include "engine/slot_cache.h"
#include "engine/thread_pool.h"
#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace stl {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Enqueue([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  // One worker, a slow head-of-line task, and a burst behind it: Shutdown
  // must run every queued task before joining, not drop the backlog.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Enqueue([&ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ran.fetch_add(1);
  }));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Enqueue([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPoolTest, EnqueueAfterShutdownIsRejected) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> ran{0};
  EXPECT_FALSE(pool.Enqueue([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 0);
  pool.Shutdown();  // idempotent
}

// ----------------------------------------------------------- histogram

TEST(LatencyHistogramTest, BucketBoundsAreMonotoneAndConsistent) {
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    uint64_t lo = LatencyHistogram::BucketLowerBound(b);
    EXPECT_EQ(LatencyHistogram::BucketIndex(lo), b) << "bucket " << b;
    if (b > 0) {
      EXPECT_GT(lo, LatencyHistogram::BucketLowerBound(b - 1));
    }
  }
}

TEST(LatencyHistogramTest, QuantilesMeanAndMax) {
  LatencyHistogram h;
  // 100 samples: 1us, 2us, ..., 100us.
  for (uint64_t i = 1; i <= 100; ++i) h.Record(i * 1000);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_NEAR(h.MeanMicros(), 50.5, 0.01);
  EXPECT_NEAR(h.MaxMicros(), 100.0, 0.01);
  // Bucket resolution is ~6%, so allow 10% slack on quantiles.
  EXPECT_NEAR(h.QuantileMicros(0.5), 50.0, 5.0);
  EXPECT_NEAR(h.QuantileMicros(0.99), 99.0, 10.0);
  EXPECT_LE(h.QuantileMicros(0.5), h.QuantileMicros(0.99));
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.QuantileMicros(0.5), 0.0);
}

// ---------------------------------------------------------- slot cache

TEST(SlotCacheTest, ZeroEntriesIsDisabledAndCountsNothing) {
  for (uint32_t width : {1u, 8u}) {
    SlotCache cache;
    cache.Init(0, width);
    const Weight in[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    cache.Insert(PairKey(1, 2), 0, width, in);
    Weight out[8] = {};
    EXPECT_FALSE(cache.Lookup(PairKey(1, 2), 0, width, out));
    EXPECT_EQ(cache.lookups(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
  }
  SlotCache never_armed;
  Weight out = 0;
  EXPECT_FALSE(never_armed.Lookup(PairKey(1, 2), 0, 1, &out));
  EXPECT_EQ(never_armed.lookups(), 0u);
}

TEST(SlotCacheTest, KeyOrEpochMismatchIsAMiss) {
  SlotCache cache;
  cache.Init(64, 1);
  const Weight d = 42;
  cache.Insert(PairKey(3, 4), 7, 1, &d);
  Weight out = 0;
  EXPECT_FALSE(cache.Lookup(PairKey(4, 3), 7, 1, &out));  // other key
  EXPECT_FALSE(cache.Lookup(PairKey(3, 4), 8, 1, &out));  // newer epoch
  EXPECT_FALSE(cache.Lookup(PairKey(3, 4), 6, 1, &out));  // older epoch
  ASSERT_TRUE(cache.Lookup(PairKey(3, 4), 7, 1, &out));
  EXPECT_EQ(out, d);
  EXPECT_EQ(cache.lookups(), 4u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.ResetCounters();
  EXPECT_EQ(cache.lookups(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  ASSERT_TRUE(cache.Lookup(PairKey(3, 4), 7, 1, &out));  // entries survive
}

TEST(SlotCacheTest, WidePayloadRoundTrips) {
  constexpr uint32_t kWidth = 37;
  SlotCache cache;
  cache.Init(16, kWidth);
  std::vector<Weight> row(kWidth);
  for (uint32_t i = 0; i < kWidth; ++i) row[i] = 1000 + 3 * i;
  row[5] = kInfDistance;
  cache.Insert(PairKey(9, 2), 3, kWidth, row.data());
  std::vector<Weight> out(kWidth, 0);
  ASSERT_TRUE(cache.Lookup(PairKey(9, 2), 3, kWidth, out.data()));
  EXPECT_EQ(out, row);
  // A narrower payload under another key shares the slot layout.
  const Weight short_row[3] = {7, 8, 9};
  cache.Insert(PairKey(10, 2), 3, 3, short_row);
  Weight short_out[3] = {};
  ASSERT_TRUE(cache.Lookup(PairKey(10, 2), 3, 3, short_out));
  EXPECT_EQ(short_out[0], 7u);
  EXPECT_EQ(short_out[2], 9u);
}

TEST(SlotCacheTest, CollidingInsertOverwritesTheSlot) {
  // A one-slot cache: every key maps to the same slot.
  SlotCache cache;
  cache.Init(1, 2);
  const Weight a[2] = {1, 2};
  const Weight b[2] = {3, 4};
  cache.Insert(PairKey(1, 1), 0, 2, a);
  cache.Insert(PairKey(2, 2), 0, 2, b);
  Weight out[2] = {};
  EXPECT_FALSE(cache.Lookup(PairKey(1, 1), 0, 2, out));
  ASSERT_TRUE(cache.Lookup(PairKey(2, 2), 0, 2, out));
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 4u);
}

// Writers and readers hammer a small cache; every hit must hold exactly
// the payload inserted for its (key, epoch) — a torn slot may only read
// as a miss.
TEST(SlotCacheTest, ConcurrentInsertLookupHitsAreExact) {
  constexpr uint32_t kWidth = 6;
  constexpr uint32_t kKeys = 64;
  SlotCache cache;
  cache.Init(16, kWidth);  // fewer slots than keys: constant collisions
  // The payload is a pure function of (key, epoch), so readers can
  // verify any hit.
  auto payload = [](uint32_t key, uint64_t epoch, uint32_t i) {
    return static_cast<Weight>(key * 1000 + epoch * 10 + i);
  };
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(900 + w);
      Weight row[kWidth];
      for (int op = 0; op < 20000; ++op) {
        const uint32_t key = static_cast<uint32_t>(rng.NextBounded(kKeys));
        const uint64_t epoch = rng.NextBounded(4);
        for (uint32_t i = 0; i < kWidth; ++i) row[i] = payload(key, epoch, i);
        cache.Insert(PairKey(key, 0), epoch, kWidth, row);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(950 + r);
      Weight row[kWidth];
      for (int op = 0; op < 20000; ++op) {
        const uint32_t key = static_cast<uint32_t>(rng.NextBounded(kKeys));
        const uint64_t epoch = rng.NextBounded(4);
        if (!cache.Lookup(PairKey(key, 0), epoch, kWidth, row)) continue;
        hits.fetch_add(1);
        for (uint32_t i = 0; i < kWidth; ++i) {
          if (row[i] != payload(key, epoch, i)) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cache.hits(), hits.load());
  EXPECT_EQ(cache.lookups(), 40000u);
}

// -------------------------------------------------------------- engine

EngineOptions SmallEngineOptions() {
  EngineOptions opt;
  opt.num_query_threads = 4;
  opt.max_batch_size = 8;
  return opt;
}

TEST(QueryEngineTest, ServesQueriesOnInitialEpoch) {
  Graph g = testing_util::SmallRoadNetwork(8, 21);
  Graph ref = g;
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  Dijkstra dij(ref);
  Rng rng(21);
  std::vector<QueryPair> queries;
  for (int i = 0; i < 100; ++i) {
    queries.emplace_back(
        static_cast<Vertex>(rng.NextBounded(ref.NumVertices())),
        static_cast<Vertex>(rng.NextBounded(ref.NumVertices())));
  }
  QueryEngine::Ticket ticket = engine.SubmitBatch(queries);
  ticket.Wait();
  ASSERT_TRUE(ticket.valid());
  EXPECT_EQ(ticket.size(), queries.size());
  EXPECT_EQ(ticket.epoch(), 0u);
  ASSERT_NE(ticket.snapshot(), nullptr);
  EXPECT_GE(ticket.latency_micros(), 0.0);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(ticket.distance(i),
              dij.Distance(queries[i].first, queries[i].second));
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, 100u);
  EXPECT_EQ(stats.query_batches_submitted, 1u);
  EXPECT_EQ(stats.batched_queries, 100u);
  EXPECT_EQ(stats.epochs_published, 0u);
  EXPECT_GT(stats.queries_per_second, 0.0);
  EXPECT_LE(stats.latency_p50_micros, stats.latency_p99_micros);
  EXPECT_LE(stats.latency_p99_micros, stats.latency_max_micros + 0.01);
}

TEST(QueryEngineTest, FlushPublishesEnqueuedUpdates) {
  Graph g = testing_util::SmallRoadNetwork(8, 22);
  Graph ref = g;
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  Rng rng(22);
  // Enqueue updates on distinct random edges, remembering the final
  // weight per edge.
  std::map<EdgeId, Weight> want_weight;
  for (int i = 0; i < 12; ++i) {
    EdgeId e = static_cast<EdgeId>(rng.NextBounded(ref.NumEdges()));
    Weight w = 1 + static_cast<Weight>(rng.NextBounded(200));
    engine.EnqueueUpdate(e, w);
    want_weight[e] = w;
  }
  engine.Flush();
  auto snap = engine.CurrentSnapshot();
  EXPECT_GE(snap->epoch, 1u);
  for (const auto& [e, w] : want_weight) {
    EXPECT_EQ(snap->graph.EdgeWeight(e), w) << "edge " << e;
  }
  // Post-update queries are exact for the new weights.
  Dijkstra dij(snap->graph);
  for (int i = 0; i < 80; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    QueryResult r = engine.Submit({s, t}).get();
    ASSERT_EQ(r.distance, dij.Distance(s, t)) << "s=" << s << " t=" << t;
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.updates_enqueued, 12u);
  EXPECT_EQ(stats.updates_applied + stats.updates_coalesced, 12u);
  EXPECT_GE(stats.epochs_published, 1u);
}

TEST(QueryEngineTest, SnapshotsAreImmutableUnderLaterUpdates) {
  Graph g = testing_util::SmallRoadNetwork(8, 23);
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  auto before = engine.CurrentSnapshot();
  Graph frozen = before->graph;  // weights at epoch 0
  // Change every sampled edge drastically.
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    EdgeId e = static_cast<EdgeId>(rng.NextBounded(frozen.NumEdges()));
    engine.EnqueueUpdate(e, 1 + static_cast<Weight>(rng.NextBounded(500)));
  }
  engine.Flush();
  ASSERT_GE(engine.CurrentEpoch(), 1u);
  // The old snapshot still answers exactly for the old weights.
  Dijkstra dij(frozen);
  for (int i = 0; i < 60; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(frozen.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(frozen.NumVertices()));
    ASSERT_EQ(before->Query(s, t), dij.Distance(s, t));
  }
  EXPECT_EQ(before->epoch, 0u);
}

TEST(QueryEngineTest, NoOpUpdatesDoNotPublishAnEpoch) {
  Graph g = testing_util::SmallRoadNetwork(6, 24);
  Weight w0 = g.EdgeWeight(0);
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  engine.EnqueueUpdate(0, w0);  // weight unchanged
  engine.Flush();
  EngineStats stats = engine.Stats();
  EXPECT_EQ(engine.CurrentEpoch(), 0u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.updates_coalesced, 1u);
  EXPECT_EQ(stats.epochs_published, 0u);
}

// The per-batch maintenance choice at its boundary: an atomic group of
// kAutoLabelSearchThreshold - 1 distinct, effective updates is one
// STL-P batch; one more edge makes it one STL-L batch.
TEST(QueryEngineTest, LabelSearchThresholdDrivesBatchCounters) {
  for (const size_t group : {kAutoLabelSearchThreshold - 1,
                             kAutoLabelSearchThreshold}) {
    Graph g = testing_util::SmallRoadNetwork(6, 25);
    ASSERT_GE(g.NumEdges(), group);
    std::vector<WeightUpdate> updates;
    for (EdgeId e = 0; e < group; ++e) {
      updates.push_back(WeightUpdate{e, 0, g.EdgeWeight(e) + 5});
    }
    EngineOptions opt = SmallEngineOptions();
    opt.max_batch_size = 64;  // the whole group lands in one batch
    QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
    engine.EnqueueUpdates(updates);
    engine.Flush();
    EngineStats stats = engine.Stats();
    EXPECT_EQ(stats.epochs_published, 1u) << group;
    if (group < kAutoLabelSearchThreshold) {
      EXPECT_GE(stats.batches_pareto, 1u);
      EXPECT_EQ(stats.batches_label, 0u);
    } else {
      EXPECT_GE(stats.batches_label, 1u);
      EXPECT_EQ(stats.batches_pareto, 0u);
    }
  }
}

// The headline test: N reader threads racing one writer; every answer
// must be exact for the epoch it was served from.
TEST(QueryEngineTest, ConcurrentReadersWithWriterMatchDijkstraPerEpoch) {
  Graph g = testing_util::SmallRoadNetwork(8, 27);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  EngineOptions opt;
  opt.num_query_threads = 4;
  opt.max_batch_size = 64;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  // Writer-side driver: rounds of lone updates (batches below
  // kAutoLabelSearchThreshold, so STL-P) and one atomic group of
  // distinct edges (one batch well above it, so STL-L). Each is drained
  // before the next is enqueued, so the writer sees exactly those batch
  // sizes while the readers race both kinds of epoch.
  constexpr int kRounds = 8;
  constexpr int kLoneUpdates = 3;
  constexpr uint32_t kGroupSize = 2 * kAutoLabelSearchThreshold;
  ASSERT_GE(m, kGroupSize);
  std::atomic<bool> done{false};
  std::thread updater([&engine, m, &done] {
    Rng urng(127);
    auto random_weight = [&urng] {
      return 1 + static_cast<Weight>(urng.NextBounded(300));
    };
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kLoneUpdates; ++i) {
        engine.EnqueueUpdate(static_cast<EdgeId>(urng.NextBounded(m)),
                             random_weight());
        engine.Flush();
      }
      const EdgeId first = static_cast<EdgeId>(urng.NextBounded(m));
      std::vector<WeightUpdate> group;
      for (uint32_t j = 0; j < kGroupSize; ++j) {
        group.push_back(WeightUpdate{(first + j) % m, 0, random_weight()});
      }
      engine.EnqueueUpdates(group);
      engine.Flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });

  Rng qrng(128);
  std::vector<std::vector<QueryPair>> waves;
  std::vector<QueryEngine::Ticket> tickets;
  size_t total = 0;
  while (!done.load() || total < 800) {
    std::vector<QueryPair> wave;
    for (int i = 0; i < 40; ++i) {
      wave.emplace_back(static_cast<Vertex>(qrng.NextBounded(n)),
                        static_cast<Vertex>(qrng.NextBounded(n)));
    }
    tickets.push_back(engine.SubmitBatch(wave));
    total += wave.size();
    waves.push_back(std::move(wave));
    if (total >= 4000) break;  // safety valve
  }
  updater.join();
  engine.Flush();

  // Every ticket was answered from ONE pinned snapshot: audit each
  // answer against a Dijkstra recomputation on that snapshot's graph
  // AND against the per-query path on the same snapshot (batched
  // serving must be bit-identical to per-query serving on the pinned
  // epoch).
  uint64_t mismatches = 0;
  uint64_t batch_vs_query_mismatches = 0;
  testing_util::EpochOracle oracle;
  for (size_t w = 0; w < tickets.size(); ++w) {
    QueryEngine::Ticket& ticket = tickets[w];
    ticket.Wait();
    const auto& snap = ticket.snapshot();
    ASSERT_NE(snap, nullptr);
    Dijkstra& audit = oracle.For(ticket.epoch(), snap->graph);
    for (size_t i = 0; i < waves[w].size(); ++i) {
      const auto [s, t] = waves[w][i];
      if (ticket.distance(i) != audit.Distance(s, t)) ++mismatches;
      if (ticket.distance(i) != snap->Query(s, t)) {
        ++batch_vs_query_mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(batch_vs_query_mismatches, 0u);

  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, total);
  EXPECT_EQ(stats.query_batches_submitted, tickets.size());
  EXPECT_GE(stats.epochs_published, 1u);
  constexpr uint64_t kUpdates = kRounds * (kLoneUpdates + kGroupSize);
  EXPECT_EQ(stats.updates_enqueued, kUpdates);
  EXPECT_EQ(stats.updates_applied + stats.updates_coalesced, kUpdates);
  // Both maintenance algorithms served epochs the readers raced.
  EXPECT_GT(stats.batches_pareto, 0u);
  EXPECT_GT(stats.batches_label, 0u);
}

// The stable hierarchy is never copied: every published STL view, of
// every epoch, holds the master index's own object.
TEST(QueryEngineTest, StlViewsShareTheIndexHierarchyObject) {
  Graph g = testing_util::SmallRoadNetwork(6, 29);
  std::unique_ptr<DistanceIndex> index =
      MakeDistanceIndex(BackendKind::kStl, &g, HierarchyOptions{});
  ASSERT_NE(index->StlHierarchy(), nullptr);
  PublishInfo info;
  const std::shared_ptr<const IndexView> first = index->PublishView(&info);
  index->ApplyBatch({WeightUpdate{0, g.EdgeWeight(0), g.EdgeWeight(0) + 1}},
                    MaintenanceStrategy::kParetoSearch);
  const std::shared_ptr<const IndexView> second = index->PublishView(&info);
  EXPECT_EQ(first->StlHierarchy(), index->StlHierarchy());
  EXPECT_EQ(second->StlHierarchy(), index->StlHierarchy());
  // The resident walk counts the shared hierarchy once across views.
  std::unordered_set<const void*> seen;
  first->AddResidentBytes(&seen);
  EXPECT_TRUE(seen.count(index->StlHierarchy()));
}

// The CoW aliasing audit: hold every epoch's snapshot while the writer
// keeps detaching pages, verify (a) each held snapshot stays
// byte-for-byte identical to the deep copy frozen at capture time, and
// (b) each new epoch's labels match a from-scratch BuildLabelling on
// that epoch's exact graph state.
TEST(QueryEngineTest, CowSnapshotsSurviveAliasingAndMatchScratchBuilds) {
  Graph g = testing_util::SmallRoadNetwork(8, 31);
  const uint32_t m = g.NumEdges();
  QueryEngine engine(std::move(g), HierarchyOptions{},
                     SmallEngineOptions());
  Rng rng(31);
  struct Held {
    std::shared_ptr<const EngineSnapshot> snap;
    Labelling frozen_labels;
    std::vector<Weight> frozen_weights;
  };
  std::vector<Held> held;
  auto capture = [&held, m](std::shared_ptr<const EngineSnapshot> snap) {
    std::vector<Weight> w(m);
    for (EdgeId e = 0; e < m; ++e) w[e] = snap->graph.EdgeWeight(e);
    held.push_back(Held{snap, snap->StlLabels()->DeepCopy(), std::move(w)});
  };
  capture(engine.CurrentSnapshot());
  for (int round = 0; round < 12; ++round) {
    const size_t batch = 1 + rng.NextBounded(6);
    for (size_t i = 0; i < batch; ++i) {
      engine.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                           1 + static_cast<Weight>(rng.NextBounded(400)));
    }
    engine.Flush();
    auto snap = engine.CurrentSnapshot();
    // (b) labels of the new epoch == from-scratch build on its graph.
    Labelling scratch = BuildLabelling(snap->graph, *snap->StlHierarchy());
    ASSERT_EQ(testing_util::LabelDiffCount(*snap->StlLabels(), scratch), 0u)
        << "round " << round << " epoch " << snap->epoch;
    capture(snap);
    // (a) every held snapshot is untouched by later maintenance.
    for (size_t c = 0; c < held.size(); ++c) {
      ASSERT_TRUE(*held[c].snap->StlLabels() == held[c].frozen_labels)
          << "round " << round << " snapshot " << c;
      for (EdgeId e = 0; e < m; ++e) {
        ASSERT_EQ(held[c].snap->graph.EdgeWeight(e),
                  held[c].frozen_weights[e]);
      }
    }
  }
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.label_pages_cloned, 0u);
  EXPECT_GT(stats.cow_bytes_cloned, 0u);
  EXPECT_EQ(stats.publish_bytes_deep_copied, 0u);  // CoW mode: no copies
  EXPECT_GT(stats.resident_index_bytes, 0u);
}

// ResetStats opens a fresh counting window without touching epoch ids:
// after N epochs, a reset and M more, the window counts M epochs while
// the ids keep rising to N + M.
TEST(QueryEngineTest, ResetStatsCountsOnlyTheNewWindowsEpochs) {
  EngineOptions opt;
  opt.num_query_threads = 1;
  QueryEngine engine(testing_util::SmallRoadNetwork(8, 41), HierarchyOptions{},
                     opt);
  constexpr uint64_t kBefore = 3;
  constexpr uint64_t kAfter = 4;
  testing_util::PublishEpochs(engine, 0, kBefore);
  engine.ResetStats();
  EXPECT_EQ(engine.Stats().epochs_published, 0u);
  testing_util::PublishEpochs(engine, kBefore, kAfter);
  EXPECT_EQ(engine.Stats().epochs_published, kAfter);
  EXPECT_EQ(engine.CurrentEpoch(), kBefore + kAfter);
}

// The CoW publish guard on a 100x100 grid: for batch sizes 1/4/16/64
// (40 epochs each, one fresh engine per size), publication deep-copies
// nothing, the bytes cloned stay within the dirty granularity — label
// pages (each at most the largest physical page: kPageEntries entries,
// or one oversized dedicated-page label) plus graph chunks (edge chunks
// <= kEdgeChunkSize Edge, arc chunks vertex-aligned around
// kEdgeChunkSize Arc; 4x bounds the max-degree overshoot far beyond any
// road network's) — and a single-edge epoch clones >= 10x fewer bytes
// than a deep copy of the published labels and graph weights would.
// The grid size matters: the ratio grows with the index, so a small
// graph would not show it.
TEST(QueryEngineTest, CowPublishClonesOnlyDirtyPages) {
  const Graph base = testing_util::SmallRoadNetwork(100, 7);
  const uint32_t m = base.NumEdges();
  for (const size_t batch : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    SCOPED_TRACE("batch size " + std::to_string(batch));
    EngineOptions opt;
    opt.num_query_threads = 1;  // the writer path is what is measured
    opt.max_batch_size = batch;
    QueryEngine engine(base, HierarchyOptions{}, opt);
    engine.ResetStats();
    Rng rng(1000 + batch);
    std::vector<WeightUpdate> round_updates;
    for (int round = 0; round < 40; ++round) {
      round_updates.clear();
      for (size_t i = 0; i < batch; ++i) {
        const EdgeId e = static_cast<EdgeId>(rng.NextBounded(m));
        const Weight old = engine.CurrentSnapshot()->graph.EdgeWeight(e);
        Weight nw;
        do {
          nw = 1 + static_cast<Weight>(rng.NextBounded(2 * old + 2));
        } while (nw == old);
        round_updates.push_back(WeightUpdate{e, old, nw});
      }
      // Atomic bulk enqueue: the writer pops the whole round as one
      // batch, so each epoch really carries `batch` updates.
      engine.EnqueueUpdates(round_updates);
      engine.Flush();
    }
    const EngineStats stats = engine.Stats();
    ASSERT_GE(stats.epochs_published, 1u);
    EXPECT_EQ(stats.publish_bytes_deep_copied, 0u);

    const auto snap = engine.CurrentSnapshot();
    const uint64_t page_bytes =
        std::max<uint64_t>(Labelling::kPageEntries * sizeof(Weight),
                           snap->StlLabels()->MaxPageBytes());
    const uint64_t bound =
        stats.label_pages_cloned * page_bytes +
        stats.graph_chunks_cloned * uint64_t{4} * Graph::kEdgeChunkSize *
            sizeof(Arc);
    EXPECT_LE(stats.cow_bytes_cloned, bound);

    if (batch == 1) {
      // What a deep-copy publish copies per epoch: every label entry
      // plus every graph weight chunk.
      const uint64_t flat_bytes_per_epoch =
          snap->StlLabels()->PayloadBytes() + snap->graph.CowPayloadBytes();
      const double cow_bytes_per_epoch =
          static_cast<double>(stats.cow_bytes_cloned) /
          static_cast<double>(stats.epochs_published);
      EXPECT_LE(cow_bytes_per_epoch * 10.0,
                static_cast<double>(flat_bytes_per_epoch));
    }
  }
}

// ------------------------------------------------- per-backend audit
//
// The same serving contract, asserted for every DistanceIndex backend:
// readers racing the writer, every answer checked against Dijkstra on
// the exact epoch it was served from.

class BackendEngineTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  EngineOptions BackendOptions() {
    EngineOptions opt;
    opt.backend = GetParam();
    opt.num_query_threads = 4;
    opt.max_batch_size = 4;
    return opt;
  }
};

TEST_P(BackendEngineTest, ServesExactAnswersOnInitialEpoch) {
  Graph g = testing_util::SmallRoadNetwork(7, 41);
  Graph ref = g;
  QueryEngine engine(std::move(g), HierarchyOptions{}, BackendOptions());
  EXPECT_EQ(engine.backend(), GetParam());
  Dijkstra dij(ref);
  Rng rng(41);
  for (int i = 0; i < 120; ++i) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    Vertex t = static_cast<Vertex>(rng.NextBounded(ref.NumVertices()));
    QueryResult r = engine.Submit({s, t}).get();
    ASSERT_EQ(r.distance, dij.Distance(s, t))
        << BackendName(GetParam()) << " s=" << s << " t=" << t;
    EXPECT_EQ(r.epoch, 0u);
  }
  EXPECT_GT(engine.Stats().resident_index_bytes, 0u);
}

TEST_P(BackendEngineTest, UpdatesPublishEpochsWithExactAnswers) {
  Graph g = testing_util::SmallRoadNetwork(7, 42);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  QueryEngine engine(std::move(g), HierarchyOptions{}, BackendOptions());
  Rng rng(42);
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
    for (int i = 0; i < 50; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), dij.Distance(s, t))
          << BackendName(GetParam()) << " round=" << round << " s=" << s
          << " t=" << t;
    }
  }
  // Batch accounting lands in the counter matching the backend's
  // capabilities: STL splits across the two maintenance engines,
  // CH/H2H repair incrementally, HC2L rebuilds.
  EngineStats stats = engine.Stats();
  EXPECT_GE(stats.epochs_published, 1u);
  const uint64_t stl_batches = stats.batches_pareto + stats.batches_label;
  switch (GetParam()) {
    case BackendKind::kStl:
      EXPECT_GT(stl_batches, 0u);
      EXPECT_EQ(stats.batches_incremental + stats.batches_rebuild, 0u);
      break;
    case BackendKind::kCh:
    case BackendKind::kH2h:
      EXPECT_GT(stats.batches_incremental, 0u);
      EXPECT_EQ(stl_batches + stats.batches_rebuild, 0u);
      break;
    case BackendKind::kHc2l:
      EXPECT_GT(stats.batches_rebuild, 0u);
      EXPECT_EQ(stl_batches + stats.batches_incremental, 0u);
      break;
  }
}

TEST_P(BackendEngineTest, PathQueriesMatchCapability) {
  Graph g = testing_util::SmallRoadNetwork(5, 43);
  QueryEngine engine(std::move(g), HierarchyOptions{}, BackendOptions());
  auto snap = engine.CurrentSnapshot();
  const Vertex s = 0;
  const Vertex t = snap->graph.NumVertices() - 1;
  std::vector<Vertex> path = snap->QueryShortestPath(s, t);
  if (engine.capabilities().path_queries) {
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), s);
    EXPECT_EQ(path.back(), t);
    // The path's edge weights sum to the reported distance.
    Weight sum = 0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      auto e = snap->graph.FindEdge(path[i], path[i + 1]);
      ASSERT_TRUE(e.has_value());
      sum += snap->graph.EdgeWeight(*e);
    }
    EXPECT_EQ(sum, snap->Query(s, t));
  } else {
    EXPECT_TRUE(path.empty());
  }
}

// The headline audit, per backend: N reader threads racing one writer;
// every answer must be exact for the epoch it was served from, and held
// snapshots must keep answering for their own epoch's weights.
TEST_P(BackendEngineTest, ConcurrentReadersWithWriterMatchDijkstraPerEpoch) {
  Graph g = testing_util::SmallRoadNetwork(7, 44);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  QueryEngine engine(std::move(g), HierarchyOptions{}, BackendOptions());

  std::atomic<bool> done{false};
  std::thread updater([&engine, m, &done] {
    Rng urng(144);
    for (int i = 0; i < 48; ++i) {
      EdgeId e = static_cast<EdgeId>(urng.NextBounded(m));
      engine.EnqueueUpdate(e, 1 + static_cast<Weight>(urng.NextBounded(300)));
      if (i % 6 == 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    done.store(true);
  });

  Rng qrng(145);
  std::vector<std::vector<QueryPair>> waves;
  std::vector<QueryEngine::Ticket> tickets;
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

  std::map<uint64_t, std::shared_ptr<const EngineSnapshot>> snapshots;
  testing_util::EpochOracle oracle;
  uint64_t mismatches = 0;
  uint64_t batch_vs_query_mismatches = 0;
  for (size_t w = 0; w < tickets.size(); ++w) {
    QueryEngine::Ticket& ticket = tickets[w];
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
  EXPECT_EQ(mismatches, 0u) << BackendName(GetParam());
  EXPECT_EQ(batch_vs_query_mismatches, 0u) << BackendName(GetParam());

  // Every held snapshot still answers for its own epoch after the
  // writer has moved on (immutability across backends).
  for (auto& [epoch, snap] : snapshots) {
    Rng rng(static_cast<uint64_t>(epoch) + 9000);
    for (int i = 0; i < 20; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), oracle.At(epoch).Distance(s, t))
          << BackendName(GetParam()) << " epoch=" << epoch;
    }
  }

  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, total);
  EXPECT_GE(stats.epochs_published, 1u);
  EXPECT_EQ(stats.updates_enqueued, 48u);
  EXPECT_EQ(stats.updates_applied + stats.updates_coalesced, 48u);
}

// The serving audit with the result cache on, per backend, on a 30x30
// grid: per-query futures and batch tickets racing a writer that
// streams increase / restore batches; every answer exact on its
// serving epoch and every batched answer bit-identical to the
// per-query route on its pinned snapshot.
TEST_P(BackendEngineTest, CachedMixedWorkloadMatchesDijkstraPerEpoch) {
  const Graph base = testing_util::SmallRoadNetwork(30, 7);
  EngineOptions opt = BackendOptions();
  opt.max_batch_size = 8;
  opt.result_cache_entries = 1 << 15;
  QueryEngine engine(base, HierarchyOptions{}, opt);
  const testing_util::MixedAudit audit = testing_util::RunMixedWorkloadAudit(
      engine, base, {.queries = 3000, .wave = 150, .update_rounds = 10,
                     .batch_size = 8, .seed = 2024});
  EXPECT_EQ(audit.futures_mismatches, 0u) << BackendName(GetParam());
  EXPECT_EQ(audit.batch_mismatches, 0u) << BackendName(GetParam());
  EXPECT_EQ(audit.not_ok, 0u) << BackendName(GetParam());
  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.epochs_published, 1u);
  EXPECT_GT(stats.resident_index_bytes, 0u);
  EXPECT_GT(stats.result_cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendEngineTest,
    ::testing::Values(BackendKind::kStl, BackendKind::kCh,
                      BackendKind::kH2h, BackendKind::kHc2l),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendName(info.param));
    });

// ------------------------------------------- completion-queue delivery
//
// The exactly-once contract of the tagged sink path: every submitted
// tag arrives exactly once, from concurrent submitters racing the
// writer. Runs under the TSan CI job via this binary.

TEST(QueryEngineTest, CompletionQueueDeliversEveryTagExactlyOnce) {
  Graph g = testing_util::SmallRoadNetwork(8, 61);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  CompletionQueue cq;
  constexpr size_t kQueries = 1500;

  std::thread updater([&engine, m] {
    Rng urng(611);
    for (int i = 0; i < 60; ++i) {
      engine.EnqueueUpdate(static_cast<EdgeId>(urng.NextBounded(m)),
                           1 + static_cast<Weight>(urng.NextBounded(300)));
      if (i % 6 == 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  // Two submitter threads with disjoint tag ranges race the writer.
  auto submit = [&engine, &cq, n](uint64_t base, size_t count,
                                  uint64_t seed) {
    Rng rng(seed);
    for (size_t i = 0; i < count; ++i) {
      engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                           static_cast<Vertex>(rng.NextBounded(n))},
                          base + i, &cq);
    }
  };
  std::thread s1(submit, 0, kQueries / 2, 612);
  std::thread s2(submit, kQueries / 2, kQueries - kQueries / 2, 613);
  s1.join();
  s2.join();

  std::vector<bool> seen(kQueries, false);
  size_t received = 0;
  Completion buf[64];
  while (received < kQueries) {
    const size_t got = cq.WaitPoll(buf, 64);
    ASSERT_GT(got, 0u);
    for (size_t i = 0; i < got; ++i) {
      ASSERT_LT(buf[i].tag, kQueries);
      ASSERT_FALSE(seen[buf[i].tag]) << "tag " << buf[i].tag << " twice";
      seen[buf[i].tag] = true;
      EXPECT_GE(buf[i].latency_micros, 0.0);
    }
    received += got;
  }
  updater.join();
  EXPECT_EQ(cq.Poll(buf, 64), 0u);  // nothing extra was delivered
  EXPECT_EQ(cq.size(), 0u);
  EXPECT_EQ(engine.Stats().queries_served, kQueries);
}

TEST(QueryEngineTest, CompletionQueueAnswersAreExactOnQuiescentEpoch) {
  Graph g = testing_util::SmallRoadNetwork(7, 63);
  const uint32_t n = g.NumVertices();
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  auto snap = engine.CurrentSnapshot();
  Dijkstra dij(snap->graph);
  CompletionQueue cq;
  Rng rng(63);
  std::vector<QueryPair> queries;
  for (int i = 0; i < 80; ++i) {
    queries.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n)));
    engine.SubmitTagged(queries.back(), static_cast<uint64_t>(i), &cq);
  }
  size_t received = 0;
  Completion buf[32];
  while (received < queries.size()) {
    const size_t got = cq.WaitPoll(buf, 32);
    for (size_t i = 0; i < got; ++i) {
      const QueryPair& q = queries[buf[i].tag];
      EXPECT_EQ(buf[i].distance, dij.Distance(q.first, q.second));
      EXPECT_EQ(buf[i].epoch, snap->epoch);
    }
    received += got;
  }
}

TEST(QueryEngineTest, SubmitBatchTaggedDeliversOncePerTagAndMatchesTicket) {
  Graph g = testing_util::SmallRoadNetwork(7, 64);
  const uint32_t n = g.NumVertices();
  QueryEngine engine(std::move(g), HierarchyOptions{}, SmallEngineOptions());
  Rng rng(64);
  std::vector<QueryPair> queries;
  std::vector<uint64_t> tags;
  for (int i = 0; i < 120; ++i) {
    queries.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n)));
    tags.push_back(1000 + i);
  }
  CompletionQueue cq;
  QueryEngine::Ticket ticket = engine.SubmitBatchTagged(queries, tags, &cq);
  ticket.Wait();
  std::vector<bool> seen(queries.size(), false);
  size_t received = 0;
  Completion buf[32];
  while (received < queries.size()) {
    const size_t got = cq.WaitPoll(buf, 32);
    for (size_t i = 0; i < got; ++i) {
      ASSERT_GE(buf[i].tag, 1000u);
      const size_t slot = buf[i].tag - 1000;
      ASSERT_LT(slot, queries.size());
      ASSERT_FALSE(seen[slot]);
      seen[slot] = true;
      EXPECT_EQ(buf[i].distance, ticket.distance(slot));
      EXPECT_EQ(buf[i].epoch, ticket.epoch());
    }
    received += got;
  }
  EXPECT_EQ(cq.Poll(buf, 32), 0u);
}

// ----------------------------------------------- epoch-keyed result cache

TEST(QueryEngineTest, ResultCacheHitsAndEpochInvalidation) {
  Graph g = testing_util::SmallRoadNetwork(8, 65);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  EngineOptions opt = SmallEngineOptions();
  opt.result_cache_entries = 1 << 12;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
  Rng rng(65);
  std::vector<QueryPair> queries;
  for (int i = 0; i < 80; ++i) {
    queries.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n)));
  }
  // First pass fills the cache; the repeat pass on the SAME epoch must
  // return identical distances (now mostly from the memo).
  QueryEngine::Ticket first = engine.SubmitBatch(queries);
  first.Wait();
  QueryEngine::Ticket repeat = engine.SubmitBatch(queries);
  repeat.Wait();
  ASSERT_EQ(first.epoch(), repeat.epoch());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(first.distance(i), repeat.distance(i));
  }
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.result_cache_lookups, 0u);
  EXPECT_GT(stats.result_cache_hits, 0u);
  EXPECT_GT(stats.result_cache_hit_rate, 0.0);

  // Publishing a new epoch invalidates for free (the epoch is part of
  // the key): the same queries must be exact for the NEW weights.
  for (int i = 0; i < 15; ++i) {
    engine.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                         1 + static_cast<Weight>(rng.NextBounded(400)));
  }
  engine.Flush();
  QueryEngine::Ticket after = engine.SubmitBatch(queries);
  after.Wait();
  ASSERT_GT(after.epoch(), first.epoch());
  Dijkstra dij(after.snapshot()->graph);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(after.distance(i),
              dij.Distance(queries[i].first, queries[i].second))
        << "stale cache entry served across epochs, query " << i;
  }
  // Per-query Submit consults the same cache.
  QueryResult r = engine.Submit(queries[0]).get();
  EXPECT_EQ(r.distance, after.distance(0));
}

TEST(QueryEngineTest, EmptyAndAllHitBatchesResolveImmediately) {
  Graph g = testing_util::SmallRoadNetwork(6, 66);
  EngineOptions opt = SmallEngineOptions();
  opt.result_cache_entries = 256;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
  QueryEngine::Ticket empty = engine.SubmitBatch({});
  empty.Wait();
  EXPECT_EQ(empty.size(), 0u);
  // A batch of one repeated pair: after the first resolves, resubmit —
  // the all-hits path must still produce a done ticket with the same
  // answer.
  std::vector<QueryPair> one{{0, 1}};
  QueryEngine::Ticket a = engine.SubmitBatch(one);
  a.Wait();
  QueryEngine::Ticket b = engine.SubmitBatch(one);
  b.Wait();
  EXPECT_EQ(a.distance(0), b.distance(0));
}

TEST(QueryEngineTest, DestructorDrainsInFlightWork) {
  Graph g = testing_util::SmallRoadNetwork(6, 28);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  std::vector<std::future<QueryResult>> futures;
  {
    QueryEngine engine(std::move(g), HierarchyOptions{},
                       SmallEngineOptions());
    Rng rng(28);
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
    QueryResult r = f.get();  // must not hang or throw broken_promise
    EXPECT_NE(r.snapshot, nullptr);
  }
}

}  // namespace
}  // namespace stl
