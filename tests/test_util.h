// Shared helpers for the test suites.
#ifndef STL_TESTS_TEST_UTIL_H_
#define STL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/labelling.h"
#include "core/tree_hierarchy.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/updates.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/query_workload.h"

namespace stl {
namespace testing_util {

/// Small connected road-like graph (~n vertices), deterministic in seed.
inline Graph SmallRoadNetwork(uint32_t side, uint64_t seed) {
  RoadNetworkOptions opt;
  opt.width = side;
  opt.height = side;
  opt.seed = seed;
  return GenerateRoadNetwork(opt);
}

/// Hand-built graph from an edge list; dies on invalid input.
inline Graph MakeGraph(uint32_t n, std::vector<Edge> edges) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges));
  STL_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// A graph with two components: a triangle {0,1,2} and an edge {3,4}.
inline Graph TwoComponentGraph() {
  return MakeGraph(5, {{0, 1, 4}, {1, 2, 5}, {0, 2, 10}, {3, 4, 7}});
}

/// The number of differing label entries between two labellings of the
/// same shape (UINT64_MAX if shapes differ).
inline uint64_t LabelDiffCount(const Labelling& a, const Labelling& b) {
  if (a.NumVertices() != b.NumVertices()) return UINT64_MAX;
  uint64_t diff = 0;
  for (Vertex v = 0; v < a.NumVertices(); ++v) {
    if (a.LabelSize(v) != b.LabelSize(v)) return UINT64_MAX;
    for (uint32_t i = 0; i < a.LabelSize(v); ++i) {
      if (a.At(v, i) != b.At(v, i)) ++diff;
    }
  }
  return diff;
}

/// Per-epoch Dijkstra ground truth, built lazily per distinct epoch —
/// the audit helper the engine/sharded/overlay/router suites share.
/// Each epoch's oracle is constructed from that epoch's snapshot graph
/// the first time the epoch is seen and reused for every later audit of
/// the same epoch.
class EpochOracle {
 public:
  /// The oracle for `epoch`, built from `graph` on first use (`graph`
  /// must be that epoch's full-network weights). The oracle keeps its
  /// own copy of the graph (CoW-cheap), so the caller's snapshot need
  /// not outlive it.
  Dijkstra& For(uint64_t epoch, const Graph& graph) {
    auto [it, fresh] = oracles_.try_emplace(epoch);
    if (fresh) {
      it->second.graph = graph;  // structural chunk share
      it->second.dijkstra = std::make_unique<Dijkstra>(it->second.graph);
    }
    return *it->second.dijkstra;
  }

  /// Exact distance under `epoch`'s weights.
  Weight Distance(uint64_t epoch, const Graph& graph, Vertex s, Vertex t) {
    return For(epoch, graph).Distance(s, t);
  }

  /// The already-built oracle for `epoch` (dies if the epoch was never
  /// seen by For/Distance).
  Dijkstra& At(uint64_t epoch) { return *oracles_.at(epoch).dijkstra; }

 private:
  /// One epoch's ground truth; the map node owns the graph the Dijkstra
  /// references (std::map nodes are address-stable).
  struct Entry {
    Graph graph;
    std::unique_ptr<Dijkstra> dijkstra;
  };
  std::map<uint64_t, Entry> oracles_;
};

/// Random weight update on a random edge (never a no-op); flips a coin
/// between increase and decrease.
inline WeightUpdate RandomUpdate(const Graph& g, Rng* rng) {
  EdgeId e = static_cast<EdgeId>(rng->NextBounded(g.NumEdges()));
  Weight w = g.EdgeWeight(e);
  bool inc = rng->NextBounded(2) == 0;
  Weight nw;
  if (inc || w <= 1) {
    nw = w + 1 + static_cast<Weight>(rng->NextBounded(2 * w + 2));
  } else {
    nw = 1 + static_cast<Weight>(rng->NextBounded(w - 1));
  }
  return WeightUpdate{e, w, nw};
}

/// Shape of RunMixedWorkloadAudit's workload.
struct MixedWorkload {
  size_t queries = 2000;      ///< Pairs per phase.
  size_t wave = 100;          ///< Pairs per closed-loop wave / batch.
  size_t update_rounds = 8;   ///< Update batches per phase.
  size_t batch_size = 8;      ///< Edges per update batch.
  uint64_t seed = 1;          ///< Pairs and edges derive from it.
};

/// What RunMixedWorkloadAudit saw.
struct MixedAudit {
  uint64_t futures_mismatches = 0;  ///< Submit() answers vs Dijkstra.
  /// SubmitBatch() answers vs Dijkstra on the pinned epoch, or vs the
  /// per-query route (snapshot->Query) on the same snapshot where the
  /// snapshot has one.
  uint64_t batch_mismatches = 0;
  uint64_t not_ok = 0;  ///< Answers whose code was not kOk.
};

/// The serving audit shared by the engine, sharded and router suites:
/// closed-loop waves of per-query Submit() futures, then waves of
/// SubmitBatch() tickets over the same pairs, each phase racing a
/// writer thread that streams alternating increase (x4) / restore
/// batches. A quarter of the pairs repeat from a 64-pair hot pool, so
/// an engine with a result cache serves hits across epochs. Every
/// answer is checked against Dijkstra on the epoch it was served from;
/// every batched answer also against the per-query route on the
/// ticket's pinned snapshot (bit-identity) when the snapshot has one.
template <typename Engine>
MixedAudit RunMixedWorkloadAudit(Engine& engine, const Graph& base,
                                 const MixedWorkload& w) {
  std::vector<QueryPair> pairs = RandomQueryPairs(base, w.queries, w.seed);
  const std::vector<QueryPair> hot = RandomQueryPairs(base, 64, w.seed + 1);
  for (size_t i = 3; i < pairs.size(); i += 4) {
    pairs[i] = hot[(i / 4) % hot.size()];
  }

  auto stream_updates = [&engine, &base, &w] {
    for (size_t round = 0; round < w.update_rounds; ++round) {
      Rng ering(w.seed + 17 * (round / 2));  // restore reuses the edges
      std::vector<WeightUpdate> batch;
      for (size_t i = 0; i < w.batch_size; ++i) {
        const EdgeId e =
            static_cast<EdgeId>(ering.NextBounded(base.NumEdges()));
        const Weight w0 = base.EdgeWeight(e);
        batch.push_back(WeightUpdate{
            e, 0,
            round % 2 == 1 ? w0 : std::min<Weight>(w0 * 4, kMaxEdgeWeight)});
      }
      engine.EnqueueUpdates(batch);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  };

  MixedAudit audit;
  EpochOracle oracle;
  {
    std::thread updater(stream_updates);
    std::vector<decltype(engine.Submit(pairs[0]))> futures;
    for (size_t i = 0; i < pairs.size(); i += w.wave) {
      const size_t end = std::min(pairs.size(), i + w.wave);
      futures.clear();
      for (size_t j = i; j < end; ++j) {
        futures.push_back(engine.Submit(pairs[j]));
      }
      for (size_t j = i; j < end; ++j) {
        const auto r = futures[j - i].get();
        if (r.code != StatusCode::kOk) {
          ++audit.not_ok;
        } else if (r.distance != oracle.Distance(r.epoch, r.snapshot->graph,
                                                 pairs[j].first,
                                                 pairs[j].second)) {
          ++audit.futures_mismatches;
        }
      }
    }
    updater.join();
    engine.Flush();
  }
  {
    std::thread updater(stream_updates);
    for (size_t i = 0; i < pairs.size(); i += w.wave) {
      const size_t end = std::min(pairs.size(), i + w.wave);
      const std::vector<QueryPair> wave(pairs.begin() + i,
                                        pairs.begin() + end);
      auto ticket = engine.SubmitBatch(wave);
      ticket.Wait();
      Dijkstra& dij = oracle.For(ticket.epoch(), ticket.snapshot()->graph);
      for (size_t q = 0; q < wave.size(); ++q) {
        if (ticket.code(q) != StatusCode::kOk) {
          ++audit.not_ok;
          continue;
        }
        const auto [s, t] = wave[q];
        bool mismatch = ticket.distance(q) != dij.Distance(s, t);
        // A tier whose snapshot routes in process is also held to that
        // per-query route (the router's snapshot holds no index).
        if constexpr (requires { ticket.snapshot()->Query(s, t); }) {
          mismatch = mismatch ||
                     ticket.distance(q) != ticket.snapshot()->Query(s, t);
        }
        if (mismatch) ++audit.batch_mismatches;
      }
    }
    updater.join();
    engine.Flush();
  }
  return audit;
}

/// Publishes epochs first .. first + count - 1 of an update stream on
/// `tier` (any serving tier), one single-update epoch each: edge
/// (i * 7919) % NumEdges gains 1 in step i. Expects every epoch id to
/// exceed the one before.
template <typename Tier>
void PublishEpochs(Tier& tier, uint64_t first, uint64_t count) {
  for (uint64_t i = first; i < first + count; ++i) {
    const uint64_t before = tier.CurrentEpoch();
    const auto snap = tier.CurrentSnapshot();
    const Graph& g = snap->graph;
    const EdgeId e = static_cast<EdgeId>((i * 7919u) % g.NumEdges());
    tier.EnqueueUpdate(e, g.EdgeWeight(e) + 1);
    tier.Flush();
    EXPECT_GT(tier.CurrentEpoch(), before) << "step " << i;
  }
}

}  // namespace testing_util
}  // namespace stl

#endif  // STL_TESTS_TEST_UTIL_H_
