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
// The writer half is ShardedWriter: this engine and every replica
// (dist/replica_node.h) each own one. Its bookkeeping (master weights,
// layout, epoch ids, the batch split) is a ShardLedger, which the
// shard router (dist/shard_router.h) holds alone. The serving plumbing (pool, update queue, snapshot slot,
// submission paths, result cache, stats) is ServingCore
// (engine/serving_core.h); ShardedEngine is ServingCore<ShardedPolicy>
// plus four getters, and ShardedPolicy owns the writer, the
// boundary-row cache and the shard decomposition below as its route.
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
// five-case decomposition of RouteLocalSpan below, the one copy every
// sharded tier runs: this engine's readers, ShardedSnapshot::Query
// uncached, and each replica answering a routed span whole
// (dist/replica_node.h). Correctness rests on S being a vertex separator: a
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

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "engine/serving_core.h"
#include "engine/slot_cache.h"
#include "index/overlay.h"
#include "partition/cells.h"

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

/// Answer to one query submitted to a sharded tier whose published
/// epoch type is `Snapshot` (ShardedSnapshot here; the router's
/// RouterSnapshot, dist/shard_router.h).
template <typename Snapshot>
struct ShardedTierResult {
  /// Exact distance for the serving snapshot's weights. Meaningful only
  /// when code == StatusCode::kOk (kInfDistance otherwise).
  Weight distance = kInfDistance;
  /// Global epoch of the serving snapshot.
  uint64_t epoch = 0;
  /// Submit-to-completion latency (queue wait included).
  double latency_micros = 0;
  /// The snapshot the query was served from; lets callers audit the
  /// answer against that epoch's exact weights.
  std::shared_ptr<const Snapshot> snapshot;
  /// kOk for an answered query; kOverloaded when admission control (or
  /// the shutdown drain) shed it; kDeadlineExceeded when its deadline
  /// passed before a reader dequeued it; kUnavailable when every
  /// replica failed the pinned epoch (the router only).
  StatusCode code = StatusCode::kOk;

  /// Typed status view of `code` (ServingStatus(code)).
  Status status() const { return ServingStatus(code); }
};

/// Answer to one query submitted to the sharded engine.
using ShardedQueryResult = ShardedTierResult<ShardedSnapshot>;

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

/// The batch grouping of every route policy over a sharded layout (this
/// engine and the shard-router tier, dist/shard_router.h): any snapshot
/// type with a `layout` member.
struct ShardedBatchGrouping {
  /// Batch misses are sorted by BatchSortKey before chunking.
  static constexpr bool kGroupsBatches = true;

  /// (source cell, target cell, target): same-group queries share the
  /// inner vector and the dt row; same-source runs share ds. Boundary
  /// endpoints truncate kBoundaryCell to 0xffff — still a stable group
  /// of their own.
  template <typename Snapshot>
  static uint64_t BatchSortKey(const Snapshot& snap, const QueryPair& q) {
    const ShardLayout& lay = *snap.layout;
    const uint64_t cs = lay.shard_of_vertex[q.first] & 0xffff;
    const uint64_t ct = lay.shard_of_vertex[q.second] & 0xffff;
    return (cs << 48) | (ct << 32) | q.second;
  }
};

/// The sharded query decomposition, the one copy every sharded tier
/// runs (this engine's readers, ShardedSnapshot::Query and the
/// replica's whole-query handler, dist/replica_node.h):
///   * s == t                     -> 0
///   * both endpoints boundary    -> D[s][t]
///   * s boundary (t mirrored)    -> min_{b2} D[s][b2] + dt[b2]
///   * different cells            -> min_{b1,b2} ds[b1] + D[b1][b2] + dt[b2]
///   * same cell                  -> min(shard-local distance, the above)
/// where ds/dt are the shard-local distances from each endpoint to its
/// cell's boundary set S_i, computed on `snap`'s own shard views and
/// memoised per span behind `row_cache` (an unarmed cache computes every
/// row; a hit holds exactly the row the view computes, so answers are
/// bit-identical either way). The minima run on the overlay's packed
/// rows through the util/simd.h min-plus kernels. Answers
/// queries[idx[j]] into out[idx[j]] for j < count; a span of more than
/// one query shares each (source cell, target cell, target) group's
/// inner vector, which pays off in BatchSortKey order. Thread-safe for
/// concurrent spans on one snapshot.
void RouteLocalSpan(const ShardedSnapshot& snap, const QueryPair* queries,
                    const uint32_t* idx, size_t count, Weight* out,
                    SlotCache* row_cache);

/// The bookkeeping half of a sharded writer, and all the shard router
/// keeps: the master weights (the coalescing authority), the shard
/// layout, the engine and per-shard epoch ids, and the split of each
/// batch by owning shard. ShardedWriter holds one next to its indexes;
/// the router (dist/shard_router.h) holds one alone. Identical (graph,
/// options, batch sequence) give identical epochs on every holder. One
/// thread at a time calls Apply and the accessors; FillStats and
/// ResetStats are thread-safe.
class ShardLedger {
 public:
  /// One batch split by owner.
  struct Split {
    /// Per shard: the updates of its subgraph's edges, in shard-local
    /// edge ids (old weights from the master).
    std::vector<UpdateBatch> per_shard;
    /// Boundary-to-boundary edges, as overlay-local edge slots.
    UpdateBatch overlay;
  };

  /// Takes ownership of the graph and partitions it (PartitionCells,
  /// then BuildShardPlan) into at least one cell; `target_shards` >= 1.
  /// Moves the per-cell subgraphs into `*shard_graphs` unless it is null
  /// (the router needs none).
  ShardLedger(Graph graph, const HierarchyOptions& hierarchy_options,
              uint32_t target_shards, std::vector<Graph>* shard_graphs);

  ShardLedger(const ShardLedger&) = delete;             ///< Not copyable.
  ShardLedger& operator=(const ShardLedger&) = delete;  ///< Not copyable.

  /// Writes one coalesced batch (CoalesceUpdates, engine/update_queue.h)
  /// into the master weights, bumps the engine epoch and the epoch of
  /// every shard it dirties, counts it, and returns its split.
  Split Apply(const UpdateBatch& batch);

  /// Current master weight of global edge `e`.
  Weight EdgeWeight(EdgeId e) const { return graph_.EdgeWeight(e); }
  /// Edge count of the full graph (the update validation bound).
  uint32_t NumEdges() const { return graph_.NumEdges(); }
  /// The master weights (snapshots take a copy-on-write share).
  const Graph& graph() const { return graph_; }
  /// The immutable shard layout.
  const std::shared_ptr<const ShardLayout>& layout() const { return layout_; }
  /// The last engine epoch id (0 = the initial build); never reset.
  uint64_t epoch() const { return epoch_; }
  /// Per-shard epoch ids (index = shard id); never reset.
  const std::vector<uint64_t>& shard_epochs() const { return shard_epochs_; }

  /// The writer counter block: Apply counts updates_applied and
  /// epochs_published; a ShardedWriter adds its index work.
  WriterCounters& counters() { return counters_; }

  /// Fills the counter block, the shard count, |S| and one row per
  /// shard: its layout sizes, its update count and `shard_epochs[c]`
  /// (the caller's snapshot's; resident_bytes stay 0).
  void FillStats(const std::vector<uint64_t>& shard_epochs,
                 EngineStats* s) const;

  /// Zeroes the counters; epoch ids keep rising.
  void ResetStats();

 private:
  Graph graph_;  // full network, weights kept current
  std::shared_ptr<const ShardLayout> layout_;
  uint64_t epoch_ = 0;
  std::vector<uint64_t> shard_epochs_;
  WriterCounters counters_;
  std::unique_ptr<std::atomic<uint64_t>[]> shard_updates_;
};

/// The one place an update batch becomes a ShardedSnapshot: a
/// ShardLedger plus, per cell, the shard graph and its backend index,
/// and the BoundaryOverlay. Identical (graph, options, batch sequence)
/// give bit-identical snapshots with identical epochs: the contract of
/// the router's install stream (dist/replica_node.h). One thread at a
/// time calls PublishInitial, Apply and EdgeWeight; the rest is
/// thread-safe.
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
  Weight EdgeWeight(EdgeId e) const { return ledger_.EdgeWeight(e); }
  /// Edge count of the full graph (the update validation bound).
  uint32_t NumEdges() const { return ledger_.NumEdges(); }
  /// The immutable shard layout.
  const ShardLayout& layout() const { return *ledger_.layout(); }
  /// The backend family each shard runs.
  BackendKind backend() const { return backend_; }
  /// Capabilities of the shard backends (identical across shards).
  const BackendCapabilities& capabilities() const { return capabilities_; }

  /// Fills the writer's EngineStats fields (work counters, overlay,
  /// per-shard rows); resident bytes are those of `current`.
  void FillStats(const ShardedSnapshot& current, EngineStats* s) const;

  /// Zeroes the counters; epoch ids and shard epochs keep rising.
  void ResetStats();

 private:
  /// The public constructor, with the ledger's shard graphs moved into
  /// `shard_graphs` (empty on entry) before the indexes are built.
  ShardedWriter(Graph graph, const HierarchyOptions& hierarchy_options,
                const ShardedEngineOptions& options,
                std::vector<Graph> shard_graphs);

  /// Writer-owned mutable state of one shard.
  struct ShardState {
    std::unique_ptr<Graph> graph;          // shard master subgraph
    std::unique_ptr<DistanceIndex> index;  // shard master index
  };

  /// Publishes shard c's view as shard epoch `shard_epoch`, recomputes
  /// its boundary clique through `executor` and stores the new
  /// ShardServing in serving_[c]. Fills `info` with the view's CoW
  /// accounting and returns the nanoseconds the clique took.
  uint64_t PublishShard(uint32_t c, uint64_t shard_epoch,
                        OverlayExecutor* executor, PublishInfo* info);

  /// The snapshot of the current master state at the ledger's epoch.
  std::shared_ptr<const ShardedSnapshot> Snapshot(
      std::shared_ptr<const OverlayTable> overlay) const;

  const BackendKind backend_;
  FaultInjector* const faults_;  // kOverlayRepair only; null = none

  ShardLedger ledger_;
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

  std::atomic<uint64_t> overlay_nanos_{0};
  std::atomic<uint64_t> overlay_repair_nanos_{0};
  std::atomic<uint64_t> overlay_republishes_{0};
  std::atomic<uint64_t> overlay_rows_repaired_{0};
  std::atomic<uint64_t> overlay_rows_total_{0};
  std::atomic<uint64_t> overlay_full_rebuilds_{0};
  std::atomic<uint64_t> clique_entries_recomputed_{0};
  std::atomic<uint64_t> overlay_bytes_shared_{0};
};

/// The sharded serving policy (see the ServingCore policy contract in
/// engine/serving_core.h): a ShardedWriter applies each batch, and
/// spans route through RouteLocalSpan behind the boundary-row cache.
class ShardedPolicy : public ShardedBatchGrouping {
 public:
  /// The published epoch type.
  using Snapshot = ShardedSnapshot;
  /// The per-query result type.
  using Result = ShardedQueryResult;

  /// Builds the ShardedWriter from the graph and sizes the boundary-row
  /// cache (options.boundary_row_cache_entries) to its widest shard.
  ShardedPolicy(Graph graph, const HierarchyOptions& hierarchy_options,
                const ShardedEngineOptions& options);

  /// The writer (layout, backend, capabilities).
  const ShardedWriter& writer() const { return writer_; }

 private:
  friend class ServingCore<ShardedPolicy>;

  std::shared_ptr<const ShardedSnapshot> PublishInitial(ThreadPool* helpers);
  Weight ResolveOldWeight(EdgeId e) const;
  std::shared_ptr<const ShardedSnapshot> ApplyBatch(const UpdateBatch& batch,
                                                    ThreadPool* helpers);
  uint32_t NumEdges() const;
  void RouteSpan(const std::shared_ptr<const ShardedSnapshot>& snap,
                 const QueryPair* queries, const uint32_t* idx, size_t count,
                 Weight* out, StatusCode* codes, std::function<void()> done);
  void AugmentStats(const ShardedSnapshot& current, EngineStats* s) const;
  void ResetStats();

  ShardedWriter writer_;  // applied by the core's writer thread only

  // The boundary-row cache: shard-to-boundary rows keyed by (vertex,
  // shard) and tagged with the shard's epoch, so rows of clean shards
  // stay hot across global epochs. Readers insert concurrently.
  SlotCache row_cache_;
};

/// Concurrent sharded serving engine: ServingCore over ShardedPolicy.
/// Thread-safe: Submit/SubmitBatch/SubmitTagged/EnqueueUpdate/Flush/
/// Stats may be called from any thread. Same API as QueryEngine; the
/// difference is inside the writer (per-shard repair + overlay rebuild)
/// and the read path (shard routing). EnqueueUpdate takes edge ids of
/// the FULL graph; the writer routes each to its owning shard or the
/// overlay.
class ShardedEngine : public ServingCore<ShardedPolicy> {
 public:
  /// Builds the ShardedWriter from the graph, starts the workers, and
  /// publishes epoch 0.
  ShardedEngine(Graph graph, const HierarchyOptions& hierarchy_options,
                const ShardedEngineOptions& options = {})
      : ServingCore(CoreOptionsOf(options), std::move(graph),
                    hierarchy_options, options) {}

  /// The backend family each shard runs.
  BackendKind backend() const { return policy().writer().backend(); }
  /// Capabilities of the shard backends (identical across shards).
  const BackendCapabilities& capabilities() const {
    return policy().writer().capabilities();
  }
  /// Number of cells actually produced by the partition.
  uint32_t num_shards() const { return layout().num_shards(); }
  /// The immutable shard layout (cell assignment, edge ownership,
  /// boundary bookkeeping).
  const ShardLayout& layout() const { return policy().writer().layout(); }
};

static_assert(sizeof(ShardedEngine) == sizeof(ServingCore<ShardedPolicy>),
              "a serving tier declares no data members");

}  // namespace stl

#endif  // STL_ENGINE_SHARDED_ENGINE_H_
