// Concurrent query-serving engine, generic over DistanceIndex backends
// (STL, CH, H2H, HC2L — see index/distance_index.h).
//
// Architecture (the serving/maintenance split of Section 1's "dynamic
// road network" setting, engineered for concurrency):
//
//   readers (ThreadPool)              single writer thread
//   ─────────────────────             ─────────────────────────────
//   load current snapshot  ◄───────┐  accumulate EnqueueUpdate()s
//   answer from its view           │  coalesce into a distinct-edge
//   (pure const reads, never       │  batch, apply it to the master
//    blocked by maintenance)       │  backend (incremental repair, or a
//                                  │  full rebuild for static backends),
//                                  └─ publish a new EngineSnapshot
//
// All the serving plumbing — thread pool, update queue, snapshot slot,
// batch submission, completion delivery, result cache, stats — lives in
// ServingCore (engine/serving_core.h), shared with the sharded engine
// and the shard router. This file contributes only FlatPolicy, which
// owns the master state (one graph, one DistanceIndex, the writer
// counters): apply-batch = repair and return the next snapshot,
// route = one IndexView query. QueryEngine is ServingCore<FlatPolicy>
// plus two getters.
//
// Epoch-versioned snapshots: every published EngineSnapshot is
// immutable. The per-epoch graph is always shared structurally (weights
// live in copy-on-write chunks, graph/graph.h). The index side is
// backend-shaped: STL shares the stable hierarchy across all epochs
// (the paper's central property — weight updates never change it) and
// label pages copy-on-write, so publishing an epoch copies page
// pointers, not entries — O(touched pages), the in-memory mirror of the
// paper's bounded blast radius. CH and H2H mutate their structures in
// place, so each of their epochs is a deep copy of the weight-carrying
// state; HC2L rebuilds on update and publishes the fresh immutable
// index by pointer share. Publication is one atomic pointer swap
// (engine/atomic_shared_ptr.h); a query holds its snapshot alive via
// shared_ptr for exactly as long as it runs, so the writer never waits
// for readers and readers never observe a half-applied batch.
// QueryEngineTest.CowPublishClonesOnlyDirtyPages (tests/engine_test.cc)
// guards the STL publish cost: no deep copy, clones bounded by the
// dirty pages, and >= 10x fewer bytes than a deep copy per single-edge
// epoch.
//
// Consistency contract (all backends): a query submitted at time t is
// answered from some epoch published at or after the epoch current at
// t; the answer is exact for that epoch's weights (verified against
// Dijkstra per backend by BackendEngineTest in tests/engine_test.cc).
// A batch is answered entirely from the one snapshot pinned at
// submission (engine/serving_core.h).
#ifndef STL_ENGINE_QUERY_ENGINE_H_
#define STL_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "engine/serving_core.h"
#include "graph/updates.h"
#include "index/distance_index.h"
#include "workload/query_workload.h"

namespace stl {

/// One immutable published version of the serving state: the graph
/// weights as of this epoch (chunk-shared copy-on-write with
/// neighbouring epochs) plus the backend's index view.
struct EngineSnapshot {
  /// Epoch id (0 = the initial publish; bumps per effective batch).
  uint64_t epoch = 0;
  /// Graph weights as of this epoch (chunk-shared with neighbours).
  Graph graph;
  /// The backend's immutable query surface for this epoch.
  std::shared_ptr<const IndexView> view;
  /// Label pages detached by the producing maintenance batch (the CoW
  /// work that isolated this epoch). Zero for epoch 0 and for backends
  /// without CoW snapshots.
  uint64_t label_pages_cloned = 0;
  /// Total bytes cloned to isolate this epoch (label pages + graph
  /// weight chunks); zero under the same conditions as above.
  uint64_t cow_bytes_cloned = 0;

  /// Exact distance under this epoch's weights; kInfDistance when
  /// unreachable.
  Weight Query(Vertex s, Vertex t) const { return view->Query(s, t); }
  /// Empty when t is unreachable — or when the backend does not support
  /// path queries (BackendCapabilities::path_queries).
  std::vector<Vertex> QueryShortestPath(Vertex s, Vertex t) const {
    return view->QueryShortestPath(graph, s, t);
  }

  /// STL-backend label introspection (CoW audits, publish benches);
  /// null on every other backend.
  const Labelling* StlLabels() const { return view->StlLabels(); }
  /// STL-backend hierarchy introspection; null on other backends.
  const TreeHierarchy* StlHierarchy() const { return view->StlHierarchy(); }
};

/// Answer to one submitted query.
struct QueryResult {
  /// Exact distance for the serving snapshot's weights. Meaningful only
  /// when code == StatusCode::kOk (kInfDistance otherwise).
  Weight distance = kInfDistance;
  /// Epoch of the serving snapshot.
  uint64_t epoch = 0;
  /// Submit-to-completion latency (queue wait included).
  double latency_micros = 0;
  /// The snapshot the query was served from; lets callers audit the
  /// answer against the exact weights of that epoch.
  std::shared_ptr<const EngineSnapshot> snapshot;
  /// kOk for an answered query; kOverloaded when admission control (or
  /// the shutdown drain) shed it; kDeadlineExceeded when its deadline
  /// passed before a reader dequeued it.
  StatusCode code = StatusCode::kOk;

  /// Typed status view of `code` (ServingStatus(code)).
  Status status() const { return ServingStatus(code); }
};

/// Construction options for the flat (single-index) serving engine.
struct EngineOptions {
  /// Which index family serves this engine (index/distance_index.h).
  BackendKind backend = BackendKind::kStl;
  /// Reader threads.
  int num_query_threads = 4;
  /// Updates taken from the pending queue per epoch (larger batches mean
  /// fewer snapshot publishes but staler reads).
  size_t max_batch_size = 128;
  /// Capacity of the epoch-keyed (s, t) result memo consulted by every
  /// submission path; 0 disables it. The serving epoch is part of the
  /// cache key, so publishes invalidate for free.
  size_t result_cache_entries = 0;
  /// Overload-hardening knobs (admission bounds, deadlines enforcement,
  /// stall watchdog, bounded shutdown drain, fault injection). Defaults
  /// to everything off — the pre-hardening behaviour.
  ServingOptions serving;
};

/// The flat serving policy (see the ServingCore policy contract in
/// engine/serving_core.h): the master graph and DistanceIndex, owned
/// by the core's writer thread after construction (queries and Stats()
/// work off published snapshots), plus the writer's counters.
class FlatPolicy {
 public:
  /// The published epoch type.
  using Snapshot = EngineSnapshot;
  /// The per-query result type.
  using Result = QueryResult;
  /// One IndexView answers any (s, t); there is no per-group state to
  /// reuse, so batch misses are routed unsorted.
  static constexpr bool kGroupsBatches = false;

  /// Takes ownership of the graph and builds the `backend` index on it.
  FlatPolicy(Graph graph, const HierarchyOptions& hierarchy_options,
             BackendKind backend);

  /// The index family serving this policy.
  BackendKind backend() const { return backend_; }
  /// What the backend supports (path queries, CoW, ...).
  const BackendCapabilities& capabilities() const { return capabilities_; }

 private:
  friend class ServingCore<FlatPolicy>;

  std::shared_ptr<const EngineSnapshot> PublishInitial(ThreadPool* helpers);
  Weight ResolveOldWeight(EdgeId e) const;
  std::shared_ptr<const EngineSnapshot> ApplyBatch(const UpdateBatch& batch,
                                                   ThreadPool* helpers);
  uint32_t NumEdges() const;
  void RouteSpan(const std::shared_ptr<const EngineSnapshot>& snap,
                 const QueryPair* queries, const uint32_t* idx, size_t count,
                 Weight* out, StatusCode* codes,
                 std::function<void()> done) const;
  void AugmentStats(const EngineSnapshot& current, EngineStats* s) const;
  void ResetStats();

  // The master index state as a snapshot of epoch `epoch`.
  std::shared_ptr<const EngineSnapshot> Publish(uint64_t epoch);

  const BackendKind backend_;
  // Heap-allocated so its address stays stable for the backend's
  // non-owning pointer.
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<DistanceIndex> index_;
  BackendCapabilities capabilities_;

  // Last-harvested cumulative CoW counters of the master graph; only the
  // writer touches these, so per-epoch deltas need no synchronization.
  // (The label-side harvest lives in the STL backend.)
  uint64_t harvested_graph_chunks_ = 0;
  uint64_t harvested_graph_bytes_ = 0;

  uint64_t epoch_ = 0;  // the last published epoch id; never reset
  WriterCounters counters_;
};

/// Concurrent query-serving engine: ServingCore over the flat (one
/// master DistanceIndex) policy. Thread-safe: Submit/SubmitBatch/
/// SubmitTagged/EnqueueUpdate/Flush/Stats may be called from any
/// thread.
class QueryEngine : public ServingCore<FlatPolicy> {
 public:
  /// Takes ownership of the graph, builds the backend selected by
  /// `options.backend`, starts the workers, and publishes epoch 0.
  QueryEngine(Graph graph, const HierarchyOptions& hierarchy_options,
              const EngineOptions& options = {})
      : ServingCore(CoreOptionsOf(options), std::move(graph),
                    hierarchy_options, options.backend) {}

  /// The index family serving this engine.
  BackendKind backend() const { return policy().backend(); }
  /// What the selected backend supports (path queries, CoW, ...).
  const BackendCapabilities& capabilities() const {
    return policy().capabilities();
  }
};

static_assert(sizeof(QueryEngine) == sizeof(ServingCore<FlatPolicy>),
              "a serving tier declares no data members");

}  // namespace stl

#endif  // STL_ENGINE_QUERY_ENGINE_H_
