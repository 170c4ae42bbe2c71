// Conformance suite for the replicated shard-router tier (src/dist/):
// the router over a loopback transport must be BIT-IDENTICAL to the
// direct in-process ShardedEngine on every epoch — same distances, same
// bytes — across all four backends and replica counts {1, 2, 3}, while
// audited against per-epoch Dijkstra ground truth. Plus the epoch
// invariants: a batch pins ONE epoch across all shards even while a
// writer republishes, and replicas only ever answer on the pinned
// epoch.
#include "dist/shard_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "dist/replica_node.h"
#include "dist/socket_transport.h"
#include "graph/dijkstra.h"
#include "net/server.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace stl {
namespace {

using testing_util::SmallRoadNetwork;

// Backend × replica-count grid: the full conformance matrix.
class RouterConformanceTest
    : public ::testing::TestWithParam<std::tuple<BackendKind, uint32_t>> {
 protected:
  BackendKind backend() const { return std::get<0>(GetParam()); }
  uint32_t replicas() const { return std::get<1>(GetParam()); }
};

ShardedEngineOptions EngineOpts(BackendKind backend) {
  ShardedEngineOptions opt;
  opt.backend = backend;
  opt.target_shards = 4;
  opt.num_query_threads = 2;
  opt.max_batch_size = 8;
  return opt;
}

ShardRouterOptions RouterOpts(BackendKind backend) {
  ShardRouterOptions opt;
  opt.engine = EngineOpts(backend);
  opt.num_query_threads = 2;
  opt.max_batch_size = 8;
  return opt;
}

// The tentpole invariant: lockstep identical updates into a direct
// ShardedEngine and a routed tier, and every epoch's batch answers must
// match bitwise — and match per-epoch Dijkstra ground truth.
TEST_P(RouterConformanceTest, LockstepBitIdenticalToDirectEngine) {
  Graph g = SmallRoadNetwork(7, 211);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  Graph g_router = g;  // same weights, same ids

  ShardedEngine direct(std::move(g), HierarchyOptions{},
                       EngineOpts(backend()));
  LoopbackCluster cluster = MakeLoopbackCluster(
      g_router, HierarchyOptions{}, RouterOpts(backend()), replicas());
  ShardRouter router(std::move(g_router), HierarchyOptions{},
                     RouterOpts(backend()), cluster.transport.get(), {});
  ASSERT_EQ(router.num_shards(), direct.num_shards());

  Rng rng(211);
  testing_util::EpochOracle oracle;
  uint64_t mismatches = 0;
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      // The SAME batch into both tiers, flushed so both serve it.
      std::vector<WeightUpdate> updates;
      for (int i = 0; i < 3; ++i) {
        updates.push_back(
            WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                         1 + static_cast<Weight>(rng.NextBounded(500))});
      }
      direct.EnqueueUpdates(updates);
      router.EnqueueUpdates(updates);
      direct.Flush();
      router.Flush();
    }
    std::vector<QueryPair> batch;
    for (int i = 0; i < 48; ++i) {
      batch.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    }
    ShardedEngine::Ticket dt = direct.SubmitBatch(batch);
    ShardRouter::Ticket rt = router.SubmitBatch(batch);
    dt.Wait();
    rt.Wait();
    // Both tiers are quiescent (flushed, no concurrent writer), so the
    // pinned epochs line up round for round.
    ASSERT_EQ(rt.epoch(), dt.epoch()) << "round=" << round;
    Dijkstra& audit = oracle.For(rt.epoch(), rt.snapshot()->graph);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(dt.code(i), StatusCode::kOk);
      ASSERT_EQ(rt.code(i), StatusCode::kOk)
          << "round=" << round << " i=" << i;
      if (rt.distance(i) != dt.distance(i)) ++mismatches;
      ASSERT_EQ(rt.distance(i),
                audit.Distance(batch[i].first, batch[i].second))
          << BackendName(backend()) << " replicas=" << replicas()
          << " round=" << round << " i=" << i;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << BackendName(backend()) << " replicas=" << replicas();

  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.replicas, replicas());
  EXPECT_GT(stats.rpcs_sent, 0u);
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  // No faults armed: the transport delivers every response exactly once.
  EXPECT_EQ(stats.rpc_duplicates_dropped, 0u);
  // Every replica holds every published epoch (installed before the
  // router's readers could pin it).
  for (const auto& replica : cluster.replicas) {
    EXPECT_EQ(replica->installs_applied(),
              stats.serving.epochs_published + 1);
  }
}

// Per-query Submit must agree with the reference router on the pinned
// snapshot (which the direct engine's suite already audits against
// Dijkstra), replica count notwithstanding.
TEST_P(RouterConformanceTest, PerQuerySubmitMatchesSnapshotReference) {
  Graph g = SmallRoadNetwork(6, 223);
  const uint32_t n = g.NumVertices();
  LoopbackCluster cluster = MakeLoopbackCluster(
      g, HierarchyOptions{}, RouterOpts(backend()), replicas());
  ShardRouter router(std::move(g), HierarchyOptions{},
                     RouterOpts(backend()), cluster.transport.get(), {});
  Rng rng(223);
  for (int i = 0; i < 64; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    ASSERT_EQ(r.code, StatusCode::kOk);
    ASSERT_NE(r.snapshot, nullptr);
    ASSERT_EQ(r.distance, Dijkstra(r.snapshot->graph).Distance(s, t))
        << BackendName(backend()) << " replicas=" << replicas()
        << " s=" << s << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsAllReplicaCounts, RouterConformanceTest,
    ::testing::Combine(::testing::Values(BackendKind::kStl,
                                         BackendKind::kCh,
                                         BackendKind::kH2h,
                                         BackendKind::kHc2l),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& info) {
      return std::string(BackendName(std::get<0>(info.param))) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

// The serving audit through the routed tier at 1, 2 and 3 replicas:
// per-query futures and batch tickets racing a writer, every answer kOk
// and exact on its serving epoch, and no duplicate response dropped
// with no fault armed. The replica ring is deeper than the number of
// epochs the run can publish, so a pinned epoch is never evicted
// mid-flight however slow a sanitizer makes the fan-out.
class RouterMixedWorkloadTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RouterMixedWorkloadTest, FuturesAndBatchesMatchDijkstraUnderWriter) {
  const Graph base = SmallRoadNetwork(20, 7);
  ReplicaNodeOptions deep_ring;
  deep_ring.epoch_ring = 64;
  ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  opt.engine.num_query_threads = 4;
  opt.num_query_threads = 4;
  LoopbackCluster cluster = MakeLoopbackCluster(base, HierarchyOptions{},
                                                opt, GetParam(), deep_ring);
  ShardRouter router(base, HierarchyOptions{}, opt, cluster.transport.get(),
                     {});
  const testing_util::MixedAudit audit = testing_util::RunMixedWorkloadAudit(
      router, base, {.queries = 1500, .wave = 100, .update_rounds = 6,
                     .batch_size = 8, .seed = 6161});
  EXPECT_EQ(audit.futures_mismatches, 0u);
  EXPECT_EQ(audit.batch_mismatches, 0u);
  EXPECT_EQ(audit.not_ok, 0u);
  const RouterStats stats = router.Stats();
  EXPECT_GE(stats.serving.epochs_published, 1u);
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  EXPECT_GT(stats.rpcs_sent, 0u);
  EXPECT_EQ(stats.rpc_duplicates_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Replicas, RouterMixedWorkloadTest,
                         ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           std::string name = "r";
                           name += std::to_string(info.param);
                           return name;
                         });

// ------------------------------------------------------ epoch pinning

// A batch pins ONE epoch across all shards even while a concurrent
// writer republishes underneath it: every answered query of a ticket is
// exact for the ticket's single pinned snapshot, audited per epoch
// against Dijkstra. This is the TSan workload for the routed tier.
TEST(RouterEpochPinningTest, BatchPinsSingleEpochUnderConcurrentWriter) {
  Graph g = SmallRoadNetwork(7, 307);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  opt.num_query_threads = 4;
  opt.max_batch_size = 4;  // force several epochs
  // 48 updates can publish at most 48 epochs; a ring deeper than that
  // means a pinned epoch is never evicted mid-flight, so every query
  // must come back kOk even when the sanitizer slows the fan-out far
  // behind the racing writer (ring eviction is covered separately by
  // ReplicaNodeTest.SpansMatchDirectEngineAtEveryEpoch).
  ReplicaNodeOptions deep_ring;
  deep_ring.epoch_ring = 64;
  LoopbackCluster cluster =
      MakeLoopbackCluster(g, HierarchyOptions{}, opt, 2, deep_ring);
  ShardRouter router(std::move(g), HierarchyOptions{}, opt,
                     cluster.transport.get(), {});

  // Writer races the readers: 48 updates trickled through the router.
  std::atomic<bool> done{false};
  std::thread updater([&router, m, &done] {
    Rng rng(307);
    for (int i = 0; i < 48; ++i) {
      router.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                           1 + static_cast<Weight>(rng.NextBounded(400)));
      if (i % 6 == 5) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    done.store(true);
  });

  Rng rng(308);
  std::vector<std::vector<QueryPair>> waves;
  std::vector<ShardRouter::Ticket> tickets;
  size_t total = 0;
  while (!done.load() || total < 600) {
    std::vector<QueryPair> wave;
    for (int i = 0; i < 24; ++i) {
      wave.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n))});
    }
    tickets.push_back(router.SubmitBatch(wave));
    total += wave.size();
    waves.push_back(std::move(wave));
    if (total >= 3000) break;  // safety valve
  }
  updater.join();
  router.Flush();
  // 48 random re-weights cannot all be no-ops: the router republished.
  ASSERT_GT(router.CurrentEpoch(), 0u);
  // One post-flush wave necessarily pins a later epoch than wave 0 did,
  // so the multi-epoch assertion below cannot go vacuous on a machine
  // where the whole racing phase lands inside one epoch.
  {
    std::vector<QueryPair> wave;
    for (int i = 0; i < 24; ++i) {
      wave.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n))});
    }
    tickets.push_back(router.SubmitBatch(wave));
    waves.push_back(std::move(wave));
  }

  std::set<uint64_t> epochs_seen;
  testing_util::EpochOracle oracle;
  for (size_t w = 0; w < tickets.size(); ++w) {
    ShardRouter::Ticket& ticket = tickets[w];
    ticket.Wait();
    ASSERT_NE(ticket.snapshot(), nullptr);
    ASSERT_EQ(ticket.epoch(), ticket.snapshot()->epoch);
    epochs_seen.insert(ticket.epoch());
    Dijkstra& audit = oracle.For(ticket.epoch(), ticket.snapshot()->graph);
    for (size_t i = 0; i < waves[w].size(); ++i) {
      const auto [s, t] = waves[w][i];
      ASSERT_EQ(ticket.code(i), StatusCode::kOk)
          << "wave=" << w << " i=" << i << " epoch=" << ticket.epoch();
      // Exact for the ONE pinned epoch: if any shard had served a
      // different shard_epoch, the mixed-epoch distance would disagree
      // with this epoch's ground truth.
      ASSERT_EQ(ticket.distance(i), audit.Distance(s, t))
          << "wave=" << w << " i=" << i << " epoch=" << ticket.epoch();
    }
  }
  // The writer actually republished while we served (several distinct
  // epochs were pinned), so the invariant was exercised, not vacuous.
  EXPECT_GT(epochs_seen.size(), 1u);
  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  EXPECT_GE(stats.serving.epochs_published, 1u);
  EXPECT_EQ(stats.rpc_failovers, 0u);  // healthy replicas: no failover
}

// ------------------------------------------------- completion delivery

// A sink that records every delivery under a lock (tests only).
class RecordingSink : public CompletionSink {
 public:
  void Deliver(const Completion& done) override {
    std::lock_guard<std::mutex> lock(mu_);
    completions_.push_back(done);
  }
  std::vector<Completion> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return completions_;
  }

 private:
  std::mutex mu_;
  std::vector<Completion> completions_;
};

// Tagged submission through the routed tier: every tag delivered
// exactly once, every answer exact for its completion's epoch.
TEST(RouterCompletionTest, TaggedDeliveryExactlyOnceAndExact) {
  Graph g = SmallRoadNetwork(6, 401);
  const uint32_t n = g.NumVertices();
  LoopbackCluster cluster = MakeLoopbackCluster(
      g, HierarchyOptions{}, RouterOpts(BackendKind::kStl), 2);
  ShardRouter router(std::move(g), HierarchyOptions{},
                     RouterOpts(BackendKind::kStl),
                     cluster.transport.get(), {});
  // No updates in this test: epoch 0 is the ground truth throughout.
  const std::shared_ptr<const RouterSnapshot> snap0 =
      router.CurrentSnapshot();
  Dijkstra audit(snap0->graph);

  RecordingSink sink;
  Rng rng(401);
  std::vector<QueryPair> queries;
  std::vector<uint64_t> tags;
  for (uint64_t i = 0; i < 128; ++i) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    tags.push_back(1000 + i);
  }
  ShardRouter::Ticket ticket =
      router.SubmitBatchTagged(queries, tags, &sink);
  ticket.Wait();

  std::map<uint64_t, Completion> by_tag;
  for (const Completion& done : sink.Take()) {
    ASSERT_TRUE(by_tag.emplace(done.tag, done).second)
        << "tag " << done.tag << " delivered twice";
  }
  ASSERT_EQ(by_tag.size(), tags.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Completion& done = by_tag.at(tags[i]);
    ASSERT_EQ(done.code, StatusCode::kOk);
    ASSERT_EQ(done.distance,
              audit.Distance(queries[i].first, queries[i].second));
  }
}

// A ring-of-1 replica refuses every span pinned to an epoch it has
// already replaced; its deep-ringed sibling answers instead. Under a
// racing writer every tag is still delivered exactly once, kOk, and
// exact for its ticket's pinned epoch, and each refusal is one
// failover.
TEST(RouterCompletionTest, RingOfOneReplicaBehindHealthySiblingDeliversOnce) {
  Graph g = SmallRoadNetwork(6, 409);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  opt.num_query_threads = 4;
  opt.max_batch_size = 2;  // many epochs
  ReplicaNodeOptions ring1;
  ring1.epoch_ring = 1;
  ReplicaNodeOptions deep_ring;
  deep_ring.epoch_ring = 64;  // more than the run can publish
  ReplicaNode strict(g, HierarchyOptions{}, opt.engine, ring1);
  ReplicaNode healthy(g, HierarchyOptions{}, opt.engine, deep_ring);
  LoopbackTransport transport;
  transport.AddEndpoint([&strict](const uint8_t* data, size_t size) {
    return strict.Handle(data, size);
  });
  transport.AddEndpoint([&healthy](const uint8_t* data, size_t size) {
    return healthy.Handle(data, size);
  });
  ShardRouter router(std::move(g), HierarchyOptions{}, opt, &transport, {});

  std::atomic<bool> done{false};
  std::thread updater([&router, m, &done] {
    Rng rng(409);
    for (int i = 0; i < 40; ++i) {
      router.EnqueueUpdate(static_cast<EdgeId>(rng.NextBounded(m)),
                           1 + static_cast<Weight>(rng.NextBounded(400)));
      if (i % 4 == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    done.store(true);
  });
  RecordingSink sink;
  Rng rng(410);
  std::vector<std::vector<QueryPair>> waves;
  std::vector<ShardRouter::Ticket> tickets;
  uint64_t next_tag = 0;
  while (!done.load() || waves.size() < 20) {
    std::vector<QueryPair> wave;
    std::vector<uint64_t> tags;
    for (int i = 0; i < 16; ++i) {
      wave.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n))});
      tags.push_back(next_tag++);
    }
    tickets.push_back(router.SubmitBatchTagged(wave, tags, &sink));
    waves.push_back(std::move(wave));
    if (waves.size() >= 200) break;  // safety valve
  }
  updater.join();
  router.Flush();
  for (ShardRouter::Ticket& t : tickets) t.Wait();

  std::map<uint64_t, Completion> by_tag;
  for (const Completion& c : sink.Take()) {
    ASSERT_TRUE(by_tag.emplace(c.tag, c).second)
        << "tag " << c.tag << " delivered twice";
  }
  ASSERT_EQ(by_tag.size(), next_tag);
  testing_util::EpochOracle oracle;
  for (size_t w = 0; w < waves.size(); ++w) {
    Dijkstra& audit =
        oracle.For(tickets[w].epoch(), tickets[w].snapshot()->graph);
    for (size_t i = 0; i < waves[w].size(); ++i) {
      const Completion& c = by_tag.at(16 * w + i);
      ASSERT_EQ(c.code, StatusCode::kOk) << "wave=" << w << " i=" << i;
      ASSERT_EQ(c.epoch, tickets[w].epoch());
      ASSERT_EQ(c.distance,
                audit.Distance(waves[w][i].first, waves[w][i].second))
          << "wave=" << w << " i=" << i;
    }
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  EXPECT_EQ(healthy.requests_rejected(), 0u);
  EXPECT_EQ(stats.rpc_stale_responses, strict.requests_rejected());
  EXPECT_EQ(stats.rpc_failovers, strict.requests_rejected());
}

// ------------------------------------------------- replica epoch ring

// Sends one QueryRequest straight to `node` and decodes the answer.
QueryResponse AskReplica(ReplicaNode& node, uint64_t engine_epoch,
                         std::vector<QueryPair> pairs) {
  QueryRequest req;
  req.engine_epoch = engine_epoch;
  req.pairs = std::move(pairs);
  const std::vector<uint8_t> bytes = req.Encode();
  const std::vector<uint8_t> reply = node.Handle(bytes.data(), bytes.size());
  QueryResponse resp;
  EXPECT_TRUE(QueryResponse::Decode(reply.data(), reply.size(), &resp).ok());
  return resp;
}

// The replica-side conformance check: over a lockstep update run, at
// every epoch, a replica answers a lone pair and a 64-pair span on the
// snapshot of exactly the pinned engine epoch, bit-identical to the
// direct engine. It holds only its ring of recent epochs: an evicted or
// a future epoch, and a vertex id out of range, answer kUnavailable —
// never another epoch's bytes.
TEST(ReplicaNodeTest, SpansMatchDirectEngineAtEveryEpoch) {
  Graph g = SmallRoadNetwork(7, 503);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  const ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  ReplicaNodeOptions ring2;
  ring2.epoch_ring = 2;
  LoopbackCluster cluster =
      MakeLoopbackCluster(g, HierarchyOptions{}, opt, 1, ring2);
  ReplicaNode& node = *cluster.replicas[0];
  ShardedEngine direct(g, HierarchyOptions{}, EngineOpts(BackendKind::kStl));
  ShardRouter router(std::move(g), HierarchyOptions{}, opt,
                     cluster.transport.get(), {});

  Rng rng(503);
  uint64_t rejected = 0;
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      std::vector<WeightUpdate> updates;
      for (int i = 0; i < 3; ++i) {
        updates.push_back(
            WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                         1 + static_cast<Weight>(rng.NextBounded(500))});
      }
      direct.EnqueueUpdates(updates);
      router.EnqueueUpdates(updates);
      direct.Flush();
      router.Flush();
    }
    const uint64_t epoch = router.CurrentEpoch();
    ASSERT_EQ(direct.CurrentEpoch(), epoch) << "round=" << round;
    std::vector<QueryPair> pairs;
    for (int i = 0; i < 64; ++i) {
      pairs.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    }
    ShardedEngine::Ticket ticket = direct.SubmitBatch(pairs);
    ticket.Wait();
    ASSERT_EQ(ticket.epoch(), epoch);

    const QueryResponse span = AskReplica(node, epoch, pairs);
    ASSERT_EQ(span.code, StatusCode::kOk) << "round=" << round;
    ASSERT_EQ(span.engine_epoch, epoch);
    ASSERT_EQ(span.distances.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(span.distances[i], ticket.distance(i))
          << "round=" << round << " i=" << i;
      const QueryResponse lone = AskReplica(node, epoch, {pairs[i]});
      ASSERT_EQ(lone.code, StatusCode::kOk);
      ASSERT_EQ(lone.distances, std::vector<Weight>{ticket.distance(i)})
          << "round=" << round << " i=" << i;
    }

    // Not yet installed, evicted (the ring holds the two newest epochs,
    // and every router epoch is installed), and out of range.
    EXPECT_EQ(AskReplica(node, epoch + 1, pairs).code,
              StatusCode::kUnavailable);
    ++rejected;
    if (epoch >= 2) {
      const QueryResponse old = AskReplica(node, epoch - 2, pairs);
      EXPECT_EQ(old.code, StatusCode::kUnavailable);
      EXPECT_EQ(old.engine_epoch, epoch - 2);
      EXPECT_TRUE(old.distances.empty());
      ++rejected;
    }
    EXPECT_EQ(AskReplica(node, epoch, {{0, 1}, {n, 0}}).code,
              StatusCode::kUnavailable);
    ++rejected;
  }
  EXPECT_GE(router.CurrentEpoch(), 3u);  // eviction was exercised
  EXPECT_EQ(node.requests_rejected(), rejected);
  EXPECT_GT(node.requests_served(), 0u);
}

// ---------------------------------------------- socket skeleton shape

// The socket transport is a skeleton: a router configured against it
// degrades exactly like a router whose replicas are all unreachable —
// typed kUnavailable, never a crash, never a wrong answer.
TEST(SocketTransportTest, RouterDegradesToTypedUnavailable) {
  Graph g = SmallRoadNetwork(5, 601);
  const uint32_t n = g.NumVertices();
  SocketTransport transport({"127.0.0.1:7001", "127.0.0.1:7002"});
  ShardRouter router(std::move(g), HierarchyOptions{},
                     RouterOpts(BackendKind::kStl), &transport, {});

  Rng rng(601);
  uint64_t unavailable = 0;
  for (int i = 0; i < 32; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    if (r.code == StatusCode::kUnavailable) {
      ++unavailable;
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    } else {
      // Only s == t never needs a replica; it still answers exactly.
      ASSERT_EQ(r.code, StatusCode::kOk);
      ASSERT_EQ(r.distance, Dijkstra(r.snapshot->graph).Distance(s, t));
    }
  }
  EXPECT_GT(unavailable, 0u);
  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, unavailable);
  EXPECT_GT(stats.rpc_stale_responses, 0u);
}

// ------------------------------------------- conformance over real TCP

// An in-process socket cluster: N ReplicaNodes, each served by its own
// FrameServer on an ephemeral localhost port. The router reaches them
// through a SocketTransport, so queries AND the kInstall replication
// stream cross real sockets.
struct SocketCluster {
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  std::vector<std::unique_ptr<FrameServer>> servers;  // after nodes: die first
  std::vector<std::string> endpoints;
};

SocketCluster MakeSocketCluster(uint32_t num_nodes, uint32_t side,
                                uint64_t seed, BackendKind backend) {
  SocketCluster cluster;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    // The identical graph + engine options the router is built with:
    // the state-machine replication contract.
    auto node = std::make_unique<ReplicaNode>(
        SmallRoadNetwork(side, seed), HierarchyOptions{}, EngineOpts(backend));
    ReplicaNode* raw = node.get();
    auto server = std::make_unique<FrameServer>(
        FrameServer::Options{}, [raw](const uint8_t* data, size_t size) {
          return raw->Handle(data, size);
        });
    EXPECT_TRUE(server->Start().ok());
    cluster.endpoints.push_back("127.0.0.1:" +
                                std::to_string(server->port()));
    cluster.nodes.push_back(std::move(node));
    cluster.servers.push_back(std::move(server));
  }
  return cluster;
}

class SocketConformanceTest
    : public ::testing::TestWithParam<std::tuple<BackendKind, uint32_t>> {
 protected:
  BackendKind backend() const { return std::get<0>(GetParam()); }
  uint32_t replicas() const { return std::get<1>(GetParam()); }
};

// The PR-9 lockstep invariant over the wire: a router whose replicas
// are ReplicaNode processes-in-miniature behind real TCP sockets must
// be bit-identical to the direct in-process engine on every epoch —
// with updates replicated as kInstall sequences, zero kUnavailable,
// and every wire install acked.
TEST_P(SocketConformanceTest, LockstepBitIdenticalOverRealTcp) {
  const uint32_t side = 7;
  const uint64_t seed = 211;
  Graph g = SmallRoadNetwork(side, seed);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  Graph g_router = g;

  ShardedEngine direct(std::move(g), HierarchyOptions{},
                       EngineOpts(backend()));
  SocketCluster cluster = MakeSocketCluster(replicas(), side, seed, backend());
  SocketTransport transport(cluster.endpoints);
  ShardRouter router(std::move(g_router), HierarchyOptions{},
                     RouterOpts(backend()), &transport, {});
  ASSERT_EQ(router.num_shards(), direct.num_shards());

  Rng rng(211);
  testing_util::EpochOracle oracle;
  for (int round = 0; round < 5; ++round) {
    if (round > 0) {
      std::vector<WeightUpdate> updates;
      for (int i = 0; i < 3; ++i) {
        updates.push_back(
            WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                         1 + static_cast<Weight>(rng.NextBounded(500))});
      }
      direct.EnqueueUpdates(updates);
      router.EnqueueUpdates(updates);
      direct.Flush();
      router.Flush();
    }
    std::vector<QueryPair> batch;
    for (int i = 0; i < 48; ++i) {
      batch.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    }
    ShardedEngine::Ticket dt = direct.SubmitBatch(batch);
    ShardRouter::Ticket rt = router.SubmitBatch(batch);
    dt.Wait();
    rt.Wait();
    ASSERT_EQ(rt.epoch(), dt.epoch()) << "round=" << round;
    Dijkstra& audit = oracle.For(rt.epoch(), rt.snapshot()->graph);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(dt.code(i), StatusCode::kOk);
      ASSERT_EQ(rt.code(i), StatusCode::kOk)
          << "round=" << round << " i=" << i;
      ASSERT_EQ(rt.distance(i), dt.distance(i))
          << "round=" << round << " i=" << i;
      ASSERT_EQ(rt.distance(i),
                audit.Distance(batch[i].first, batch[i].second))
          << BackendName(backend()) << " replicas=" << replicas()
          << " round=" << round << " i=" << i;
    }
  }

  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.replicas, replicas());
  EXPECT_GT(stats.rpcs_sent, 0u);
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  // Replication flowed over the wire (seq 0 plus one per published
  // epoch, to every endpoint) and every install was acked.
  EXPECT_EQ(stats.wire_installs, stats.serving.epochs_published + 1);
  EXPECT_EQ(stats.install_failures, 0u);
  for (const auto& node : cluster.nodes) {
    EXPECT_EQ(node->installs_applied(), stats.wire_installs);
    EXPECT_EQ(node->install_nacks(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsOverTcp, SocketConformanceTest,
    ::testing::Combine(::testing::Values(BackendKind::kStl,
                                         BackendKind::kCh,
                                         BackendKind::kH2h,
                                         BackendKind::kHc2l),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(BackendName(std::get<0>(info.param))) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

// Tagged completion-queue mode over real sockets: exactly-once per
// tag, every answer exact — the loopback contract survives the wire.
TEST(SocketConformanceTest2, TaggedDeliveryExactlyOnceOverTcp) {
  const uint32_t side = 6;
  const uint64_t seed = 401;
  Graph g = SmallRoadNetwork(side, seed);
  const uint32_t n = g.NumVertices();
  SocketCluster cluster =
      MakeSocketCluster(2, side, seed, BackendKind::kStl);
  SocketTransport transport(cluster.endpoints);
  ShardRouter router(std::move(g), HierarchyOptions{},
                     RouterOpts(BackendKind::kStl), &transport, {});
  const std::shared_ptr<const RouterSnapshot> snap0 =
      router.CurrentSnapshot();
  Dijkstra audit(snap0->graph);

  RecordingSink sink;
  Rng rng(401);
  std::vector<QueryPair> queries;
  std::vector<uint64_t> tags;
  for (uint64_t i = 0; i < 96; ++i) {
    queries.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    tags.push_back(5000 + i);
  }
  ShardRouter::Ticket ticket =
      router.SubmitBatchTagged(queries, tags, &sink);
  ticket.Wait();

  std::map<uint64_t, Completion> by_tag;
  for (const Completion& done : sink.Take()) {
    ASSERT_TRUE(by_tag.emplace(done.tag, done).second)
        << "tag " << done.tag << " delivered twice";
  }
  ASSERT_EQ(by_tag.size(), tags.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Completion& done = by_tag.at(tags[i]);
    ASSERT_EQ(done.code, StatusCode::kOk);
    ASSERT_EQ(done.distance,
              audit.Distance(queries[i].first, queries[i].second));
  }
}

// --------------------------------------------- non-blocking fan-out

// A transport that parks every Send until released — in-flight RPCs
// exist but never complete, so the test can observe what the router's
// reader threads do while a fan-out is outstanding.
class HoldingTransport final : public Transport {
 public:
  explicit HoldingTransport(Transport* inner, bool holding = true)
      : inner_(inner), holding_(holding) {}
  ~HoldingTransport() override { Release(); }

  uint32_t NumEndpoints() const override { return inner_->NumEndpoints(); }

  void Send(uint32_t endpoint, uint64_t tag,
            std::shared_ptr<const std::vector<uint8_t>> request,
            TransportSink* sink) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (holding_) {
        held_.push_back(Held{endpoint, tag, std::move(request), sink});
        return;
      }
    }
    inner_->Send(endpoint, tag, std::move(request), sink);
  }

  size_t held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
  }

  /// Holds every Send from now on, until Release().
  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    holding_ = true;
  }

  /// Forwards everything held and stops holding. Idempotent.
  void Release() {
    std::vector<Held> drain;
    {
      std::lock_guard<std::mutex> lock(mu_);
      holding_ = false;
      drain.swap(held_);
    }
    for (Held& h : drain) {
      inner_->Send(h.endpoint, h.tag, std::move(h.request), h.sink);
    }
  }

 private:
  struct Held {
    uint32_t endpoint;
    uint64_t tag;
    std::shared_ptr<const std::vector<uint8_t>> request;
    TransportSink* sink;
  };
  Transport* const inner_;
  std::mutex mu_;
  bool holding_;
  std::vector<Held> held_;
};

// The async acceptance criterion: a fan-out of in-flight RPCs parks NO
// reader thread. With a single reader and a fan-out held in the
// transport, a second query that needs no RPC must still complete —
// under the old parked-reader design the lone reader would be blocked
// inside the first query's mailbox wait and the second could never run.
TEST(RouterAsyncTest, FanoutParksNoReaderThread) {
  Graph g = SmallRoadNetwork(7, 811);
  const uint32_t n = g.NumVertices();
  ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  opt.num_query_threads = 1;  // the whole reader pool is ONE thread
  LoopbackCluster cluster =
      MakeLoopbackCluster(g, HierarchyOptions{}, opt, 1);
  HoldingTransport holding(cluster.transport.get(), /*holding=*/false);
  ShardRouter router(std::move(g), HierarchyOptions{}, opt, &holding, {});
  holding.Hold();  // the epoch-0 install has passed

  // Find a query that actually fans out (lands at least one RPC in the
  // holding transport). Trivial ones (s == t) complete with no RPC and
  // are skipped.
  Rng rng(811);
  std::future<RouterQueryResult> first;
  QueryPair first_q{0, 0};
  bool held_one = false;
  for (int attempt = 0; attempt < 64 && !held_one; ++attempt) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    if (s == t) continue;
    std::future<RouterQueryResult> f = router.Submit({s, t});
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (holding.held() > 0) {
        held_one = true;
        break;
      }
      if (f.wait_for(std::chrono::milliseconds(1)) ==
          std::future_status::ready) {
        break;  // needed no RPC; try another pair
      }
    }
    if (held_one) {
      first = std::move(f);
      first_q = {s, t};
    } else {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(5)),
                std::future_status::ready);
      f.get();
    }
  }
  ASSERT_TRUE(held_one) << "no query produced an in-flight fan-out";

  // The fan-out is parked in the transport; the single reader must
  // already be back in the pool: an RPC-free query completes now.
  std::future<RouterQueryResult> second = router.Submit({3, 3});
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "reader thread was parked by the in-flight fan-out";
  RouterQueryResult trivial = second.get();
  EXPECT_EQ(trivial.code, StatusCode::kOk);
  EXPECT_EQ(trivial.distance, 0u);
  EXPECT_NE(first.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "first query completed although its RPCs are held";

  // Release: the held responses flow, the fan-out completes, and the
  // answer is exact on its pinned snapshot.
  holding.Release();
  RouterQueryResult r = first.get();
  ASSERT_EQ(r.code, StatusCode::kOk);
  ASSERT_NE(r.snapshot, nullptr);
  EXPECT_EQ(r.distance, Dijkstra(r.snapshot->graph)
                            .Distance(first_q.first, first_q.second));
}

// Shutdown with socket RPCs still in flight: the router is destroyed
// while its fan-outs are held, and the held requests are released only
// once the destructor is draining. Their replies land on the socket
// transport's loop thread, which then runs the last continuations (and
// the final in-flight decrement) while the destructor waits; every
// query must still complete, exactly, before the destructor returns.
TEST(RouterAsyncTest, DestroyWithSocketRpcsInFlightDrainsThem) {
  const uint32_t side = 6;
  const uint64_t seed = 823;
  Graph g = SmallRoadNetwork(side, seed);
  const uint32_t n = g.NumVertices();
  SocketCluster cluster = MakeSocketCluster(1, side, seed, BackendKind::kStl);
  SocketTransport socket(cluster.endpoints);
  HoldingTransport holding(&socket, /*holding=*/false);  // installs pass
  auto router = std::make_unique<ShardRouter>(
      std::move(g), HierarchyOptions{}, RouterOpts(BackendKind::kStl),
      &holding, std::vector<ShardReplica*>{});

  holding.Hold();
  Rng rng(seed);
  std::vector<QueryPair> queries;
  std::vector<std::future<RouterQueryResult>> futures;
  for (int i = 0; i < 24; ++i) {
    const QueryPair q{static_cast<Vertex>(rng.NextBounded(n)),
                      static_cast<Vertex>(rng.NextBounded(n))};
    queries.push_back(q);
    futures.push_back(router->Submit(q));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (holding.held() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(holding.held(), 0u) << "no query produced an in-flight fan-out";

  std::thread releaser([&holding] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    holding.Release();
  });
  router.reset();  // waits out every continuation the release triggers
  releaser.join();

  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "query " << i << " outlived the router";
    RouterQueryResult r = futures[i].get();
    ASSERT_EQ(r.code, StatusCode::kOk) << "query " << i;
    ASSERT_NE(r.snapshot, nullptr);
    EXPECT_EQ(r.distance,
              Dijkstra(r.snapshot->graph)
                  .Distance(queries[i].first, queries[i].second))
        << "query " << i;
  }
}

// ------------------------------------------------------ one writer

// Install batches are cut once, by the router: a replica applies each
// install whole, as one epoch, whatever the batch size its own options
// name. Replicas built with max_batch_size 8 behind a router at the
// default 128 stay in lockstep through a 20-edge batch.
TEST(RouterReplicationTest, ReplicaBatchSizeCannotSplitAnInstall) {
  Graph g = SmallRoadNetwork(7, 211);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardRouterOptions replica_opt;
  replica_opt.engine.max_batch_size = 8;
  LoopbackCluster cluster =
      MakeLoopbackCluster(g, HierarchyOptions{}, replica_opt, 2);
  std::vector<WeightUpdate> updates;
  for (EdgeId e = 0; e < m && updates.size() < 20; e += m / 20) {
    updates.push_back(WeightUpdate{e, 0, g.EdgeWeight(e) + 1});
  }
  ASSERT_EQ(updates.size(), 20u);
  ShardRouter router(std::move(g), HierarchyOptions{}, ShardRouterOptions{},
                     cluster.transport.get(), {});
  router.EnqueueUpdates(updates);
  router.Flush();
  ASSERT_EQ(router.CurrentEpoch(), 1u);

  Rng rng(211);
  std::vector<QueryPair> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                     static_cast<Vertex>(rng.NextBounded(n))});
  }
  ShardRouter::Ticket ticket = router.SubmitBatch(batch);
  ticket.Wait();
  Dijkstra audit(ticket.snapshot()->graph);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(ticket.code(i), StatusCode::kOk) << "i=" << i;
    ASSERT_EQ(ticket.distance(i),
              audit.Distance(batch[i].first, batch[i].second))
        << "i=" << i;
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.install_failures, 0u);
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  for (const auto& node : cluster.replicas) {
    EXPECT_EQ(node->install_nacks(), 0u);
    EXPECT_EQ(node->installs_applied(), stats.wire_installs);
  }
}

// A well-framed install carrying an edge id out of range or a zero
// weight is malformed: the replica nacks it like an undecodable one
// (counted, not sticky, nothing applied), then acks the honest seq-0
// install and serves exactly.
TEST(RouterReplicationTest, MalformedInstallNacksWithoutApplying) {
  Graph g = SmallRoadNetwork(6, 331);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  const ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  const uint32_t shards =
      ShardedWriter(g, HierarchyOptions{}, opt.engine).layout().num_shards();
  LoopbackCluster cluster =
      MakeLoopbackCluster(g, HierarchyOptions{}, opt, 1);
  ReplicaNode* node = cluster.replicas[0].get();

  for (const WeightUpdate& bad :
       {WeightUpdate{m, 0, 5}, WeightUpdate{0, 0, 0}}) {
    InstallRequest req;
    req.seq = 0;
    req.expected_engine_epoch = 0;
    req.expected_shard_epochs.assign(shards, 0);
    req.updates = {bad};
    const std::vector<uint8_t> bytes = req.Encode();
    const std::vector<uint8_t> reply = node->Handle(bytes.data(), bytes.size());
    InstallAck ack;
    ASSERT_TRUE(InstallAck::Decode(reply.data(), reply.size(), &ack).ok());
    EXPECT_FALSE(ack.ok) << "edge=" << bad.edge << " w=" << bad.new_weight;
    EXPECT_EQ(ack.next_seq, 0u);
    EXPECT_EQ(ack.engine_epoch, 0u);
  }
  EXPECT_EQ(node->install_nacks(), 2u);
  EXPECT_EQ(node->installs_applied(), 0u);

  ShardRouter router(std::move(g), HierarchyOptions{}, opt,
                     cluster.transport.get(), {});
  EXPECT_EQ(router.Stats().install_failures, 0u);
  EXPECT_EQ(node->installs_applied(), 1u);
  EXPECT_EQ(node->install_nacks(), 2u);
  const std::shared_ptr<const RouterSnapshot> snap = router.CurrentSnapshot();
  Dijkstra audit(snap->graph);
  Rng rng(331);
  for (int i = 0; i < 48; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    ASSERT_EQ(r.code, StatusCode::kOk);
    ASSERT_EQ(r.distance, audit.Distance(s, t));
  }
}

// The router holds no index: its stats carry the ledger's bookkeeping
// (updates, epochs, one row per shard with its shard epoch) and no
// index, publish or overlay work, which runs on the replicas.
TEST(RouterReplicationTest, StatsReportTheLedgersBookkeeping) {
  Graph g = SmallRoadNetwork(6, 223);
  const ShardRouterOptions opt = RouterOpts(BackendKind::kStl);
  LoopbackCluster cluster = MakeLoopbackCluster(g, HierarchyOptions{}, opt, 1);
  ShardRouter router(std::move(g), HierarchyOptions{}, opt,
                     cluster.transport.get(), {});
  constexpr int kEpochs = 5;
  testing_util::PublishEpochs(router, 0, kEpochs);
  const EngineStats s = router.Stats().serving;
  EXPECT_EQ(s.epochs_published, static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(s.updates_applied, static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(s.num_shards, router.num_shards());
  ASSERT_EQ(s.shards.size(), router.num_shards());
  const std::shared_ptr<const RouterSnapshot> snap = router.CurrentSnapshot();
  uint64_t shard_updates = 0;
  for (const ShardStats& row : s.shards) {
    EXPECT_EQ(row.shard_epoch, snap->shard_epochs[row.shard]);
    EXPECT_EQ(row.shard_epoch, row.updates_applied);  // one edge per epoch
    shard_updates += row.updates_applied;
  }
  // Lone updates: each lands on one shard, or on the overlay (S-S).
  EXPECT_LE(shard_updates, static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(s.batches_pareto + s.batches_label, 0u);
  EXPECT_EQ(s.overlay_republishes, 0u);
  EXPECT_EQ(s.publish_total_micros, 0.0);
  EXPECT_EQ(s.cow_bytes_cloned, 0u);
  EXPECT_GT(s.resident_index_bytes, 0u);  // the weights and the layout

  router.ResetStats();
  const EngineStats reset = router.Stats().serving;
  EXPECT_EQ(reset.updates_applied, 0u);
  for (const ShardStats& row : reset.shards) {
    EXPECT_EQ(row.updates_applied, 0u);
    EXPECT_EQ(row.shard_epoch, snap->shard_epochs[row.shard]);
  }
  EXPECT_EQ(router.CurrentEpoch(), static_cast<uint64_t>(kEpochs));
  // The reset opens one fresh window for every RouterStats counter
  // without touching epoch ids: M more epochs count M epochs and M
  // installs while the ids keep rising to kEpochs + M.
  EXPECT_EQ(reset.epochs_published, 0u);
  EXPECT_EQ(router.Stats().wire_installs, 0u);
  constexpr uint64_t kAfter = 4;
  testing_util::PublishEpochs(router, kEpochs, kAfter);
  const RouterStats after = router.Stats();
  EXPECT_EQ(after.serving.epochs_published, kAfter);
  EXPECT_EQ(after.wire_installs, kAfter);
  EXPECT_EQ(after.install_failures, 0u);
  EXPECT_EQ(router.CurrentEpoch(), kEpochs + kAfter);
}

// Threads of this process, from /proc/self/task.
size_t CountThreads() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// A replica is a writer plus a snapshot ring: it starts no threads,
// whatever reader count its options name (the build's workers are
// joined before the constructor returns).
TEST(RouterReplicationTest, ReplicaNodeStartsNoThreads) {
  ShardedEngineOptions opt = EngineOpts(BackendKind::kStl);
  opt.num_query_threads = 4;
  Graph g = SmallRoadNetwork(6, 337);
  const size_t before = CountThreads();
  ReplicaNode node(std::move(g), HierarchyOptions{}, opt);
  // A joined worker's task entry can outlive its join by a moment; a
  // thread that stays running never leaves.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (CountThreads() > before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(CountThreads(), before);
}

}  // namespace
}  // namespace stl
