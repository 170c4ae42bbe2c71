// Sharded query-serving engine: the partition tree machinery that makes
// the paper's hierarchy stable also carves the serving layer into k
// independently-updatable shards.
//
//   readers (ThreadPool)               single writer thread
//   ─────────────────────              ────────────────────────────────
//   load the current                ┌─ accumulate EnqueueUpdate()s,
//   ShardedSnapshot (one atomic     │  coalesce, then ShardedWriter::
//   pointer: k shard views +        │  Apply PARTITIONS the batch by
//   one overlay table), route       │  owning cell: repair and
//   the query (below)               │  republish only the dirtied
//                                   │  shards (other shards' serving
//                                   │  pointers are re-shared), rebuild
//                                   └─ the overlay, swap the snapshot
//
// The writer half is ShardedWriter: this engine, the shard router
// (dist/shard_router.h) and every replica (dist/replica_node.h) each
// own one. The serving plumbing (pool, update queue, snapshot slot,
// submission paths, result cache, stats) is the shared ServingCore of
// engine/serving_core.h; this engine adds the boundary-row cache and
// the shard decomposition below as its route policy.
//
// Construction: PartitionCells (partition/cells.h) cuts the graph into
// k connected cells isolated by the separator set S; BuildShardPlan
// (index/overlay.h) derives per-cell subgraphs on C_i ∪ S_i; one
// DistanceIndex backend (any of STL/CH/H2H/HC2L) is built per cell; a
// BoundaryOverlay maintains the exact S×S distance table D. k is the
// caller's ShardedEngineOptions::target_shards (at least 1).
//
// Query routing (all answers exact — equal to per-epoch Dijkstra, and
// so to a flat engine on the same weights; guarded by
// ShardedBackendTest in tests/sharded_engine_test.cc) is the
// five-case decomposition of RouteShardedPair below, the one copy every
// sharded tier runs: this engine on its shard views, ShardedSnapshot::
// Query uncached, and the router (dist/shard_router.h) on rows fetched
// from replicas. Correctness rests on S being a vertex separator: a
// shortest path leaves a cell only through S, its first/last boundary
// vertices split it into shard-local prefix/suffix plus a
// boundary-to-boundary middle, and D is exact for the middle
// (index/overlay.h).
//
// Batched routing (SubmitBatch): the batch is pinned to one snapshot,
// grouped by (source cell, target cell, target), and the ds/dt
// boundary-distance rows are memoised per endpoint across the span —
// plus one shared inner vector min_{b2} D[b1][b2] + dt[b2] per group,
// computed through OverlayTable::MinPlusRowsInto. A single query is a
// one-element span through the same code, so batch and per-query
// answers are bit-identical on the pinned epoch (asserted by
// ShardedBackendTest.ConcurrentReadersMatchDijkstraPerEpoch in
// tests/sharded_engine_test.cc).
//
// Update locality: a batch that only touches edges inside cell i
// republishes shard i's epoch and the overlay; every other shard's
// ShardServing pointer in the next snapshot is the SAME object
// (asserted in tests/sharded_engine_test.cc).
#ifndef STL_ENGINE_SHARDED_ENGINE_H_
#define STL_ENGINE_SHARDED_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "engine/serving_core.h"
#include "engine/slot_cache.h"
#include "index/overlay.h"
#include "partition/cells.h"
#include "util/logging.h"
#include "util/simd.h"

namespace stl {

/// One shard's published serving state: an immutable backend view plus
/// the shard's own epoch counter. Re-shared by pointer across global
/// snapshots while the shard stays clean.
struct ShardServing {
  /// Cell id this serving state belongs to.
  uint32_t shard = 0;
  /// Per-shard epoch: number of times this shard has republished
  /// (0 = the initial build).
  uint64_t shard_epoch = 0;
  /// The shard backend's immutable query surface.
  std::shared_ptr<const IndexView> view;
};

/// One immutable published version of the sharded serving state. A
/// query loads exactly one ShardedSnapshot, so it always sees a
/// mutually consistent set of shard views and overlay table.
struct ShardedSnapshot {
  /// Global epoch (bumps on every effective update batch).
  uint64_t epoch = 0;
  /// Full-network weights as of this epoch (copy-on-write chunk share
  /// with neighbouring epochs); the per-epoch ground truth that
  /// Dijkstra audits run against.
  Graph graph;
  /// The shared shard layout (vertex/edge ownership, boundary maps).
  std::shared_ptr<const ShardLayout> layout;
  /// Per-cell serving state; entries are pointer-shared with the
  /// previous snapshot for every shard the producing batch left clean.
  std::vector<std::shared_ptr<const ShardServing>> shards;
  /// The epoch's boundary-to-boundary distance table.
  std::shared_ptr<const OverlayTable> overlay;

  /// Exact distance under this epoch's weights; kInfDistance when
  /// unreachable. Thread-safe for concurrent readers.
  Weight Query(Vertex s, Vertex t) const;
};

/// Answer to one query submitted to the sharded engine.
struct ShardedQueryResult {
  /// Exact distance for the serving snapshot's weights. Meaningful only
  /// when code == StatusCode::kOk (kInfDistance otherwise).
  Weight distance = kInfDistance;
  /// Global epoch of the serving snapshot.
  uint64_t epoch = 0;
  /// Submit-to-completion latency (queue wait included).
  double latency_micros = 0;
  /// The snapshot the query was served from; lets callers audit the
  /// answer against that epoch's exact weights.
  std::shared_ptr<const ShardedSnapshot> snapshot;
  /// kOk for an answered query; kOverloaded when admission control (or
  /// the shutdown drain) shed it; kDeadlineExceeded when its deadline
  /// passed before a reader dequeued it.
  StatusCode code = StatusCode::kOk;

  /// Typed status view of `code` (ServingStatus(code)).
  Status status() const { return ServingStatus(code); }
};

/// Construction options for the sharded engine. ShardedWriter reads
/// backend, target_shards and serving.fault_injector (kOverlayRepair).
struct ShardedEngineOptions {
  /// Index family built per shard (index/distance_index.h).
  BackendKind backend = BackendKind::kStl;
  /// Requested cell count, at least 1; the layout may produce more
  /// (extra connected components) or fewer (graph too small to cut).
  /// 1 = a single shard with an empty overlay.
  uint32_t target_shards = 4;
  /// Reader threads.
  int num_query_threads = 4;
  /// Updates taken from the pending queue per global epoch.
  size_t max_batch_size = 128;
  /// Capacity of the epoch-keyed (s, t) result memo consulted by every
  /// submission path; 0 disables it.
  size_t result_cache_entries = 0;
  /// Capacity (slots) of the shard-epoch-keyed boundary-row cache
  /// shared by per-query and batched routing. Each slot holds one
  /// endpoint's |S_i| shard-to-boundary distances, validated by
  /// (shard, vertex, shard_epoch) — rows survive global epochs as long
  /// as their own shard stays clean. 0 disables it. Cached rows are
  /// bit-identical to freshly computed ones (they are exact shard
  /// distances on the validated shard epoch), so answers don't change.
  size_t boundary_row_cache_entries = 2048;
  /// Overload-hardening knobs (admission bounds, deadlines enforcement,
  /// stall watchdog, bounded shutdown drain, fault injection). Defaults
  /// to everything off — the pre-hardening behaviour.
  ServingOptions serving;
};

/// The batch grouping of every route policy over ShardedSnapshot (this
/// engine and the shard-router tier, dist/shard_router.h).
struct ShardedBatchGrouping {
  /// Batch misses are sorted by BatchSortKey before chunking.
  static constexpr bool kGroupsBatches = true;

  /// (source cell, target cell, target): same-group queries share the
  /// inner vector and the dt row; same-source runs share ds. Boundary
  /// endpoints truncate kBoundaryCell to 0xffff — still a stable group
  /// of their own.
  static uint64_t BatchSortKey(const ShardedSnapshot& snap,
                               const QueryPair& q);
};

/// The inner-vector memo of a span routed in BatchSortKey order: the
/// current (source cell cs, target cell ct, target t) group's
/// inner[i] = min_{b2} D[S_cs[i]][b2] + dt[b2], shared by every query of
/// the group. Valid for one snapshot: Reset() before reusing it (and
/// its storage) on the next span.
class InnerVectorMemo {
 public:
  /// Forgets the current group; keeps the storage.
  void Reset() { cs_ = CellPartition::kBoundaryCell; }

  /// The inner vector of group (cs, ct, t) — |S_cs| entries — where
  /// `dt` is t's boundary row on shard ct. Recomputed only when the
  /// group changes.
  const Weight* Get(const ShardedSnapshot& snap, uint32_t cs, uint32_t ct,
                    Vertex t, const Weight* dt);

 private:
  uint32_t cs_ = CellPartition::kBoundaryCell;
  uint32_t ct_ = CellPartition::kBoundaryCell;
  Vertex t_ = 0;
  std::vector<Weight> inner_;
};

/// The sharded query decomposition, written once for every tier:
///   * s == t                     -> 0
///   * both endpoints boundary    -> D[s][t]
///   * s boundary (t mirrored)    -> min_{b2} D[s][b2] + dt[b2]
///   * different cells            -> min_{b1,b2} ds[b1] + D[b1][b2] + dt[b2]
///   * same cell                  -> min(shard-local distance, the above)
/// where ds/dt are the shard-local distances from each endpoint to its
/// cell's boundary set S_i and the minima run on the overlay's packed
/// rows through the util/simd.h min-plus kernels. `pieces` supplies the
/// shard-local inputs — the only thing that differs between callers:
///   const std::vector<Weight>* Row(uint32_t shard, Vertex v) — v's
///       |S_shard| distances to the shard's boundary set, in
///       ShardLayout::Shard::boundary_local order; null if unavailable.
///   bool Point(uint32_t shard, Vertex s, Vertex t, Weight* d) — the
///       shard-local distance of a same-cell pair; false if unavailable.
/// Every piece a pair needs is requested before any is combined, so a
/// `pieces` that records the requests (the router's fetch enumeration)
/// sees the pair's full list. When a piece is unavailable, writes
/// kUnavailable to *code and returns kInfDistance. A null `memo` (a
/// lone pair, where no group shares the inner vector) runs the pruned
/// double loop instead, skipping every b1 with ds[b1] >= the best so
/// far; both forms reach the same minimum.
template <typename Pieces>
Weight RouteShardedPair(const ShardedSnapshot& snap, Vertex s, Vertex t,
                        Pieces* pieces, InnerVectorMemo* memo,
                        StatusCode* code) {
  const ShardLayout& lay = *snap.layout;
  STL_DCHECK(s < lay.shard_of_vertex.size());
  STL_DCHECK(t < lay.shard_of_vertex.size());
  if (s == t) return 0;
  const uint32_t cs = lay.shard_of_vertex[s];
  const uint32_t ct = lay.shard_of_vertex[t];
  const bool s_boundary = cs == CellPartition::kBoundaryCell;
  const bool t_boundary = ct == CellPartition::kBoundaryCell;
  if (s_boundary && t_boundary) {
    // The overlay table is already the exact full-graph distance.
    return snap.overlay->At(lay.boundary_pos_of_vertex[s],
                            lay.boundary_pos_of_vertex[t]);
  }
  // Same cell: the path may stay inside the shard entirely, or leave
  // through the boundary and come back (the general case below; D[b][b]
  // = 0 makes touch-and-return a special case of it).
  Weight local = kInfDistance;
  const bool same_cell = !s_boundary && !t_boundary && cs == ct;
  const bool local_ok = !same_cell || pieces->Point(cs, s, t, &local);
  const std::vector<Weight>* ds = s_boundary ? nullptr : pieces->Row(cs, s);
  const std::vector<Weight>* dt = t_boundary ? nullptr : pieces->Row(ct, t);
  if (!local_ok || (!s_boundary && ds == nullptr) ||
      (!t_boundary && dt == nullptr)) {
    *code = StatusCode::kUnavailable;
    return kInfDistance;
  }
  uint64_t best = local;
  if (s_boundary) {
    // The first boundary vertex of any path from s is s itself.
    best = std::min<uint64_t>(
        best, MinPlusReduce(
                  snap.overlay->PackedRow(ct, lay.boundary_pos_of_vertex[s]),
                  dt->data(), static_cast<uint32_t>(dt->size())));
  } else if (t_boundary) {
    // Mirror image (distances are symmetric on an undirected graph).
    best = std::min<uint64_t>(
        best, MinPlusReduce(
                  snap.overlay->PackedRow(cs, lay.boundary_pos_of_vertex[t]),
                  ds->data(), static_cast<uint32_t>(ds->size())));
  } else if (memo == nullptr) {
    // Decompose at the first and last boundary vertices, b1 by b1.
    const std::vector<uint32_t>& pos = lay.shards[cs].boundary_pos;
    for (size_t i = 0; i < ds->size(); ++i) {
      if ((*ds)[i] >= best) continue;  // no path through b1 can win
      best = std::min<uint64_t>(
          best, static_cast<uint64_t>((*ds)[i]) +
                    MinPlusReduce(snap.overlay->PackedRow(ct, pos[i]),
                                  dt->data(),
                                  static_cast<uint32_t>(dt->size())));
    }
  } else {
    // The same decomposition on the group's shared inner vector:
    // min_i ds[i] + inner[i]. All terms are <= 3 * kInfDistance, so the
    // uint32 min-plus cannot wrap.
    best = std::min<uint64_t>(
        best, MinPlusReduce(ds->data(),
                            memo->Get(snap, cs, ct, t, dt->data()),
                            static_cast<uint32_t>(ds->size())));
  }
  // Saturate the three-term sums back into the Weight range.
  return best >= kInfDistance ? kInfDistance : static_cast<Weight>(best);
}

/// Routes queries[idx[j]] into out[idx[j]] for j < count through
/// RouteShardedPair, sharing `memo` (fresh or Reset()) across a span of
/// more than one query; codes[idx[j]] is written only when a piece was
/// unavailable.
template <typename Pieces>
void RouteShardedSpan(const ShardedSnapshot& snap, const QueryPair* queries,
                      const uint32_t* idx, size_t count, Weight* out,
                      StatusCode* codes, Pieces* pieces,
                      InnerVectorMemo* memo) {
  for (size_t j = 0; j < count; ++j) {
    const QueryPair& q = queries[idx[j]];
    out[idx[j]] = RouteShardedPair(snap, q.first, q.second, pieces,
                                   count > 1 ? memo : nullptr,
                                   &codes[idx[j]]);
  }
}

/// The one place an update batch becomes a ShardedSnapshot. Owns the
/// partition, the shard graphs and indexes with their shard epochs, the
/// BoundaryOverlay, the epoch-id allocator and the work counters.
/// Identical (graph, options, batch sequence) give bit-identical
/// snapshots with identical epochs: the contract of the router's
/// install stream (dist/replica_node.h). One thread at a time calls
/// PublishInitial, Apply and EdgeWeight; the rest is thread-safe.
class ShardedWriter {
 public:
  /// Takes ownership of the graph, partitions it and builds one backend
  /// index per cell plus the boundary overlay (at most
  /// hierarchy_options.num_threads build threads, all joined before
  /// returning: STL cells one at a time, each on that many label
  /// workers; other backends' cells on that many shard workers).
  ShardedWriter(Graph graph, const HierarchyOptions& hierarchy_options,
                const ShardedEngineOptions& options);

  ShardedWriter(const ShardedWriter&) = delete;  ///< Not copyable.
  /// Not copyable.
  ShardedWriter& operator=(const ShardedWriter&) = delete;

  /// Builds the epoch-0 snapshot (construction cost: no counter moves).
  /// Call once, before Apply. `helpers` as in Apply.
  std::shared_ptr<const ShardedSnapshot> PublishInitial(ThreadPool* helpers);

  /// Applies one coalesced batch (CoalesceUpdates, engine/
  /// update_queue.h), republishing only the dirtied shards, and returns
  /// the next epoch's snapshot. The dirty cliques' recompute fans out
  /// across `helpers` while its queue is empty; null runs it inline.
  std::shared_ptr<const ShardedSnapshot> Apply(const UpdateBatch& batch,
                                               ThreadPool* helpers);

  /// Current master weight of global edge `e`.
  Weight EdgeWeight(EdgeId e) const { return graph_->EdgeWeight(e); }
  /// Edge count of the full graph (the update validation bound).
  uint32_t NumEdges() const { return graph_->NumEdges(); }
  /// The immutable shard layout.
  const ShardLayout& layout() const { return *layout_; }
  /// The backend family each shard runs.
  BackendKind backend() const { return backend_; }
  /// Capabilities of the shard backends (identical across shards).
  const BackendCapabilities& capabilities() const { return capabilities_; }

  /// Fills the writer's EngineStats fields (work counters, overlay,
  /// per-shard rows); resident bytes are those of `current`.
  void FillStats(const ShardedSnapshot& current, EngineStats* s) const;

  /// Zeroes the counters except the epoch allocator and shard epochs.
  void ResetStats();

 private:
  /// Writer-owned mutable state of one shard.
  struct ShardState {
    std::unique_ptr<Graph> graph;          // shard master subgraph
    std::unique_ptr<DistanceIndex> index;  // shard master index
    uint64_t shard_epoch = 0;
  };

  /// Publishes shard c's view as shard epoch `shard_epoch`, recomputes
  /// its boundary clique through `executor` and stores the new
  /// ShardServing in serving_[c]. Fills `info` with the view's CoW
  /// accounting and returns the nanoseconds the clique took.
  uint64_t PublishShard(uint32_t c, uint64_t shard_epoch,
                        OverlayExecutor* executor, PublishInfo* info);

  /// The snapshot of the current master state at `epoch`.
  std::shared_ptr<const ShardedSnapshot> Snapshot(
      uint64_t epoch, std::shared_ptr<const OverlayTable> overlay) const;

  const BackendKind backend_;
  FaultInjector* const faults_;  // kOverlayRepair only; null = none

  std::unique_ptr<Graph> graph_;  // full network (weights kept current)
  std::shared_ptr<const ShardLayout> layout_;
  std::vector<ShardState> states_;
  std::unique_ptr<BoundaryOverlay> overlay_;
  // The serving vector of the last snapshot (the next one is this
  // vector with dirty entries replaced).
  std::vector<std::shared_ptr<const ShardServing>> serving_;
  BackendCapabilities capabilities_;

  // Last-harvested cumulative CoW counters of the master FULL graph
  // only (shard subgraphs are never snapshotted, so their writes don't
  // clone; shard-side label copy cost arrives via PublishInfo).
  uint64_t harvested_graph_chunks_ = 0;
  uint64_t harvested_graph_bytes_ = 0;

  WriterCounters counters_;  // epochs_published is the epoch allocator
  std::atomic<uint64_t> overlay_nanos_{0};
  std::atomic<uint64_t> overlay_repair_nanos_{0};
  std::atomic<uint64_t> overlay_republishes_{0};
  std::atomic<uint64_t> overlay_rows_repaired_{0};
  std::atomic<uint64_t> overlay_rows_total_{0};
  std::atomic<uint64_t> overlay_full_rebuilds_{0};
  std::atomic<uint64_t> clique_entries_recomputed_{0};
  std::atomic<uint64_t> overlay_bytes_shared_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> shard_updates_;
};

/// Concurrent sharded serving engine: a ShardedWriter, the
/// boundary-row cache and the shard routing policy over the shared
/// ServingCore. Thread-safe: Submit/SubmitBatch/SubmitTagged/
/// EnqueueUpdate/Flush/Stats may be called from any thread. Mirrors
/// QueryEngine's API; the difference is inside the writer (per-shard
/// repair + overlay rebuild) and the read path (shard routing).
class ShardedEngine {
 public:
  /// Batch handle type returned by SubmitBatch (one pinned snapshot per
  /// batch; see engine/serving_core.h).
  using Ticket = BatchTicket<ShardedSnapshot>;

  /// Builds the ShardedWriter from the graph, starts the workers, and
  /// publishes epoch 0.
  ShardedEngine(Graph graph, const HierarchyOptions& hierarchy_options,
                const ShardedEngineOptions& options = {});

  /// Drains: answers every submitted query and applies every enqueued
  /// update before returning.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;  ///< Not copyable.
  /// Not copyable.
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Schedules one distance query; the future resolves when a reader
  /// thread has answered it — or, under overload, with a kOverloaded /
  /// kDeadlineExceeded result code. Compatibility adapter: allocates
  /// one promise per query (prefer SubmitBatch / SubmitTagged at high
  /// qps).
  std::future<ShardedQueryResult> Submit(QueryPair query,
                                         Deadline deadline = kNoDeadline);

  /// Schedules a batch of queries pinned to ONE snapshot, grouped by
  /// (source cell, target cell, target) so boundary-distance rows are
  /// reused across the group; answers are bit-identical to per-query
  /// Submit calls on that same snapshot. Under overload queries may
  /// complete with failure codes on the ticket (BatchTicket::code).
  Ticket SubmitBatch(const std::vector<QueryPair>& queries,
                     Deadline deadline = kNoDeadline);

  /// Completion-queue mode: the completion is delivered to `sink`
  /// exactly once with the caller's tag — answered, shed or expired —
  /// and no promise or future is allocated.
  void SubmitTagged(QueryPair query, uint64_t tag, CompletionSink* sink,
                    Deadline deadline = kNoDeadline);

  /// Batched completion-queue mode: pins one snapshot and delivers
  /// `tags[i]` with query i's completion to `sink` exactly once.
  Ticket SubmitBatchTagged(const std::vector<QueryPair>& queries,
                           const std::vector<uint64_t>& tags,
                           CompletionSink* sink,
                           Deadline deadline = kNoDeadline);

  /// Records a desired new weight for an edge of the FULL graph (global
  /// edge ids; the writer routes it to the owning shard or the
  /// overlay). The old weight is re-resolved at apply time.
  void EnqueueUpdate(const WeightUpdate& update);
  /// Convenience overload of EnqueueUpdate(const WeightUpdate&).
  void EnqueueUpdate(EdgeId edge, Weight new_weight);

  /// Enqueues many updates atomically (one lock, one writer wakeup).
  void EnqueueUpdates(const std::vector<WeightUpdate>& updates);

  /// Blocks until every update enqueued before the call has been
  /// applied and, if effective, published.
  void Flush();

  /// The latest published snapshot (never null after construction).
  std::shared_ptr<const ShardedSnapshot> CurrentSnapshot() const;

  /// Global epoch of the latest snapshot.
  uint64_t CurrentEpoch() const { return CurrentSnapshot()->epoch; }

  /// The backend family each shard runs.
  BackendKind backend() const { return writer_.backend(); }
  /// Capabilities of the shard backends (identical across shards).
  const BackendCapabilities& capabilities() const {
    return writer_.capabilities();
  }
  /// Number of cells actually produced by the partition.
  uint32_t num_shards() const { return writer_.layout().num_shards(); }
  /// The immutable shard layout (cell assignment, edge ownership,
  /// boundary bookkeeping).
  const ShardLayout& layout() const { return writer_.layout(); }

  /// Point-in-time counters; `shards` carries the per-shard rows.
  EngineStats Stats() const;

  /// Zeroes counters (except the epoch allocators) and the latency
  /// histogram and restarts the wall clock (for bench warmup). Call
  /// only while no queries are in flight.
  void ResetStats();

  /// Reader thread count.
  int num_query_threads() const;

 private:
  // The sharded Apply + Route policy the shared ServingCore drives (see
  // the policy contract in engine/serving_core.h).
  struct Policy : ShardedBatchGrouping {
    using Snapshot = ShardedSnapshot;
    using Result = ShardedQueryResult;

    ShardedEngine* engine;

    void PublishInitial();
    Weight ResolveOldWeight(EdgeId e) const;
    void ApplyBatch(const UpdateBatch& batch);
    uint32_t NumEdges() const;
    void RouteSpan(const std::shared_ptr<const ShardedSnapshot>& snap,
                   const QueryPair* queries, const uint32_t* idx,
                   size_t count, Weight* out, StatusCode* codes,
                   std::function<void()> done) const;
    void AugmentStats(EngineStats* s) const;
  };

  ShardedWriter writer_;

  // The boundary-row cache: shard-to-boundary rows keyed by (vertex,
  // shard) and tagged with the shard's epoch, so rows of clean shards
  // stay hot across global epochs. Readers insert concurrently.
  SlotCache row_cache_;

  Policy policy_{{}, this};
  ServingCore<Policy> core_;  // last member: its workers die first
};

}  // namespace stl

#endif  // STL_ENGINE_SHARDED_ENGINE_H_
