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
// engine/serving_core.h and is shared with the sharded engine; this
// file contributes only the flat policy: one master DistanceIndex,
// apply-batch = repair-and-publish, route = one IndexView query.
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

/// Concurrent query-serving engine: the flat (one master DistanceIndex)
/// policy over the shared ServingCore. Thread-safe: Submit/SubmitBatch/
/// SubmitTagged/EnqueueUpdate/Flush/Stats may be called from any
/// thread.
class QueryEngine {
 public:
  /// Batch handle type returned by SubmitBatch (one pinned snapshot per
  /// batch; see engine/serving_core.h).
  using Ticket = BatchTicket<EngineSnapshot>;

  /// Takes ownership of the graph, builds the backend selected by
  /// `options.backend`, starts the workers, and publishes epoch 0.
  QueryEngine(Graph graph, const HierarchyOptions& hierarchy_options,
              const EngineOptions& options = {});

  /// Drains: answers every submitted query and applies every enqueued
  /// update before returning.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;             ///< Not copyable.
  QueryEngine& operator=(const QueryEngine&) = delete;  ///< Not copyable.

  /// Schedules one distance query; the future resolves when a reader
  /// thread has answered it — or, under overload, with a kOverloaded /
  /// kDeadlineExceeded result code. Compatibility adapter: allocates
  /// one promise per query (prefer SubmitBatch / SubmitTagged at high
  /// qps).
  std::future<QueryResult> Submit(QueryPair query,
                                  Deadline deadline = kNoDeadline) {
    return core_.Submit(query, deadline);
  }

  /// Schedules a batch of queries pinned to ONE snapshot; answers are
  /// bit-identical to per-query Submit calls on that same snapshot.
  /// Under overload queries may complete with failure codes on the
  /// ticket (BatchTicket::code).
  Ticket SubmitBatch(const std::vector<QueryPair>& queries,
                     Deadline deadline = kNoDeadline) {
    return core_.SubmitBatch(queries, deadline);
  }

  /// Completion-queue mode: the completion is delivered to `sink`
  /// exactly once with the caller's tag — answered, shed or expired —
  /// and no promise or future is allocated.
  void SubmitTagged(QueryPair query, uint64_t tag, CompletionSink* sink,
                    Deadline deadline = kNoDeadline) {
    core_.SubmitTagged(query, tag, sink, deadline);
  }

  /// Batched completion-queue mode: pins one snapshot and delivers
  /// `tags[i]` with query i's completion to `sink` exactly once.
  Ticket SubmitBatchTagged(const std::vector<QueryPair>& queries,
                           const std::vector<uint64_t>& tags,
                           CompletionSink* sink,
                           Deadline deadline = kNoDeadline) {
    return core_.SubmitBatchTagged(queries, tags, sink, deadline);
  }

  /// Records a desired new weight for an edge. The writer re-resolves
  /// the old weight from the master graph at apply time, so callers need
  /// not know the current weight (update.old_weight is ignored).
  void EnqueueUpdate(const WeightUpdate& update) {
    core_.EnqueueUpdate(update.edge, update.new_weight);
  }
  /// Convenience overload of EnqueueUpdate(const WeightUpdate&).
  void EnqueueUpdate(EdgeId edge, Weight new_weight) {
    core_.EnqueueUpdate(edge, new_weight);
  }

  /// Enqueues many updates atomically (one lock, one writer wakeup): the
  /// writer cannot pop a partial prefix, so up to max_batch_size of them
  /// land in the same maintenance batch / epoch.
  void EnqueueUpdates(const std::vector<WeightUpdate>& updates) {
    core_.EnqueueUpdates(updates);
  }

  /// Blocks until every update enqueued before the call has been applied
  /// and, if it changed any weight, published in a snapshot.
  void Flush() { core_.Flush(); }

  /// The latest published snapshot (never null after construction).
  std::shared_ptr<const EngineSnapshot> CurrentSnapshot() const {
    return core_.CurrentSnapshot();
  }

  /// Epoch of the latest published snapshot.
  uint64_t CurrentEpoch() const { return CurrentSnapshot()->epoch; }

  /// The index family serving this engine.
  BackendKind backend() const { return options_.backend; }
  /// What the selected backend supports (path queries, CoW, ...).
  const BackendCapabilities& capabilities() const { return capabilities_; }

  /// Point-in-time counters and latency summary.
  EngineStats Stats() const { return core_.Stats(); }

  /// Zeroes counters (except the epoch allocator) and the latency
  /// histogram and restarts the wall clock (for bench warmup). Call only
  /// while no queries are in flight.
  void ResetStats() { core_.ResetStats(); }

  /// Reader thread count.
  int num_query_threads() const { return core_.num_query_threads(); }

 private:
  // The flat Apply + Route policy the shared ServingCore drives (see
  // the policy contract in engine/serving_core.h).
  struct Policy {
    using Snapshot = EngineSnapshot;
    using Result = QueryResult;
    // One IndexView answers any (s, t); there is no per-group state to
    // reuse, so batch misses are routed unsorted.
    static constexpr bool kGroupsBatches = false;

    QueryEngine* engine;

    void PublishInitial();
    Weight ResolveOldWeight(EdgeId e) const;
    void ApplyBatch(const UpdateBatch& batch);
    uint32_t NumEdges() const;
    void RouteSpan(const std::shared_ptr<const EngineSnapshot>& snap,
                   const QueryPair* queries, const uint32_t* idx,
                   size_t count, Weight* out, StatusCode* codes,
                   std::function<void()> done) const;
    void AugmentStats(EngineStats* s) const;
  };

  /// Publishes the master index state as epoch `epoch`. Called only by
  /// the writer thread (or the constructor, before concurrency starts).
  void PublishSnapshot(uint64_t epoch);

  const EngineOptions options_;

  // Master state, owned by the writer after construction (no other
  // thread reads it: queries and Stats() work off published snapshots).
  // graph_ is heap-allocated so its address stays stable for the
  // backend's non-owning pointer.
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<DistanceIndex> index_;
  BackendCapabilities capabilities_;

  // Last-harvested cumulative CoW counters of the master graph; only the
  // publishing thread touches these, so per-epoch deltas need no
  // synchronization. (The label-side harvest lives in the STL backend.)
  uint64_t harvested_graph_chunks_ = 0;
  uint64_t harvested_graph_bytes_ = 0;

  Policy policy_{this};
  ServingCore<Policy> core_;  // last member: its workers die first
};

}  // namespace stl

#endif  // STL_ENGINE_QUERY_ENGINE_H_
