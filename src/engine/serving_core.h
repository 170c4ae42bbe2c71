// The one serving surface. ServingCore<Policy> owns the reader thread
// pool, the single-writer update-queue protocol, the snapshot
// publication slot, the result cache and every serving-side counter,
// and it owns its Policy by value: the master state (graph, indexes,
// writer, transport) plus what differs between tiers — how a coalesced
// batch becomes the next snapshot and how a span of queries is routed
// on one. Each serving tier is a public subclass of ServingCore<its
// policy> that declares no data members and adds only getters, so the
// Submit/Stats/lifecycle surface exists exactly once:
//
//   tier                            policy
//   ─────────────────────────────   ──────────────────────────────────
//   QueryEngine (query_engine.h)    FlatPolicy: one master
//                                   DistanceIndex
//   ShardedEngine (sharded_...h)    ShardedPolicy: a ShardedWriter and
//                                   the boundary-row cache
//   ShardRouter (dist/shard_...h)   RouterPolicy: a ShardedWriter, the
//                                   transport, the install log
//
//   callers                       ServingCore<Policy>
//   ───────────────────────────   ──────────────────────────────────────
//   Submit()        -> future     compat adapter: one promise per query
//   SubmitBatch()   -> ticket     pins ONE snapshot for the whole batch,
//                                 consults the epoch-keyed result cache,
//                                 groups the misses by Policy::
//                                 BatchSortKey and routes them in chunks
//                                 on the reader pool (Policy::RouteSpan)
//   SubmitTagged()  -> sink       completion-queue mode: no promise, no
//   SubmitBatchTagged()           future — the answer is pushed to a
//                                 CompletionSink with the caller's tag
//
// Lifetime: the policy is the core's first member and the reader pool
// its last, so the master state outlives every reader, the writer and
// every in-flight route continuation by construction. The constructor
// builds the policy, publishes its epoch-0 snapshot and starts the
// writer; the policy returns each snapshot and the core alone
// publishes it.
//
// Consistency contract (inherited by every tier): every query is
// answered exactly for the weights of the single epoch snapshot it was
// served from; a batch is answered entirely from the one snapshot
// pinned at submission, so its answers are bit-identical to per-query
// serving on that same epoch. Completions are delivered exactly once
// per submitted tag, including across engine destruction (the
// destructor drains the writer, then the pool, then every route
// continuation).
//
// Overload hardening (ServingOptions): submission is bounded. When the
// admission queue is full, new work is rejected — or the oldest queued
// work is shed — with a typed util::Status (kOverloaded) instead of
// queueing without bound; per-query/per-batch deadlines expire queued
// work as kDeadlineExceeded at dequeue (and between route chunks)
// before it consumes reader time; a writer-stall watchdog flips the
// engine into a DEGRADED mode (still serving, from the pinned stale
// snapshot and the result cache, with `degraded`/`staleness_epochs`
// surfaced in EngineStats) and recovers on its own once the writer
// catches up; destruction drains with an optional deadline, failing
// residual queued tags as kOverloaded rather than hanging. Exactly-once
// delivery holds for shed and expired tags exactly as for served ones.
// Every degraded path is forceable deterministically through the
// FaultInjector sites (engine/fault_injector.h).
#ifndef STL_ENGINE_SERVING_CORE_H_
#define STL_ENGINE_SERVING_CORE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "engine/atomic_shared_ptr.h"
#include "engine/fault_injector.h"
#include "engine/latency_histogram.h"
#include "engine/slot_cache.h"
#include "engine/thread_pool.h"
#include "engine/update_queue.h"
#include "graph/updates.h"
#include "index/distance_index.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/query_workload.h"

namespace stl {

/// Absolute deadline for a submitted query or batch. Work still queued
/// when its deadline passes completes with StatusCode::kDeadlineExceeded
/// instead of consuming reader time.
using Deadline = std::chrono::steady_clock::time_point;

/// The default deadline: never expires.
inline constexpr Deadline kNoDeadline = Deadline::max();

/// What happens to a submission when the admission queue is at its
/// configured limit (ServingOptions::max_queued_queries / _batches).
enum class AdmissionPolicy {
  /// The NEW submission completes immediately with kOverloaded; queued
  /// work keeps its place (favors work already waiting).
  kRejectNew,
  /// The OLDEST still-queued work is shed with kOverloaded and the new
  /// submission is admitted (favors fresh work — queued work is the
  /// most likely to miss its deadline anyway).
  kShedOldest,
};

/// Overload-hardening knobs shared by every serving engine. All
/// default to "off" (unbounded admission, no deadlines enforced beyond
/// the ones callers pass, no watchdog, drain-forever shutdown), which
/// is the pre-hardening behaviour.
struct ServingOptions {
  /// Admission bound on queued (submitted, not yet routing) single
  /// queries; 0 = unbounded. At the bound, admission_policy decides.
  size_t max_queued_queries = 0;
  /// Admission bound on in-flight (submitted, not yet done) batch
  /// tickets; 0 = unbounded.
  size_t max_queued_batches = 0;
  /// Reject-new vs shed-oldest at the admission bound.
  AdmissionPolicy admission_policy = AdmissionPolicy::kRejectNew;
  /// Writer-stall watchdog: if updates are pending and the writer has
  /// made no progress for this long, the engine enters degraded mode
  /// (EngineStats::degraded + staleness_epochs) until the writer
  /// catches up. 0 disables the watchdog.
  double writer_stall_ms = 0;
  /// Destruction drains for at most this long before failing residual
  /// queued work with kOverloaded (exactly-once still holds for the
  /// failed tags). 0 = drain without bound (the original contract).
  double shutdown_drain_ms = 0;
  /// Deterministic fault hooks (tests/chaos bench only; not owned,
  /// must outlive the engine). Null = no faults, one branch per site.
  FaultInjector* fault_injector = nullptr;
};

/// The Status equivalent of a serving-path StatusCode (failure
/// messages are fixed strings; the hot path never allocates for kOk).
inline Status ServingStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kOverloaded:
      return Status::Overloaded("shed by admission control");
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded("deadline passed before routing");
    case StatusCode::kUnavailable:
      return Status::Unavailable("no replica could serve the pinned epoch");
    default:
      return Status::Internal("unexpected serving status");
  }
}

/// Batches with at least this many effective updates use Label Search
/// (STL-L), which amortizes its per-ancestor searches over large
/// batches (Table 3); smaller ones use Pareto Search (STL-P).
inline constexpr size_t kAutoLabelSearchThreshold = 16;

/// The per-batch STL maintenance choice on a batch of `batch_size`
/// effective updates (other backends use their own single maintenance
/// scheme and ignore it). Shared by both serving engines.
inline MaintenanceStrategy ChooseStrategy(size_t batch_size) {
  return batch_size >= kAutoLabelSearchThreshold
             ? MaintenanceStrategy::kLabelSearch
             : MaintenanceStrategy::kParetoSearch;
}

/// Per-shard serving counters, reported by the sharded engine
/// (engine/sharded_engine.h). Always empty for the flat QueryEngine.
struct ShardStats {
  /// Cell id (index into the engine's shard layout).
  uint32_t shard = 0;
  /// Vertices owned by the cell (|C_i|).
  uint32_t cell_vertices = 0;
  /// Boundary vertices adjacent to the cell (|S_i|).
  uint32_t boundary_vertices = 0;
  /// Edges owned by the shard's subgraph.
  uint32_t subgraph_edges = 0;
  /// This shard's own epoch counter: bumps only when an update batch
  /// dirtied the shard (0 = still serving its initial publish).
  uint64_t shard_epoch = 0;
  /// Effective updates routed to this shard so far.
  uint64_t updates_applied = 0;
  /// Serving-view bytes unique to this shard (shared blocks counted
  /// once across the whole engine).
  uint64_t resident_bytes = 0;
};

/// Point-in-time engine counters and latency summary.
struct EngineStats {
  /// The index family serving the engine.
  BackendKind backend = BackendKind::kStl;
  uint64_t queries_served = 0;     ///< Queries answered so far.
  uint64_t updates_enqueued = 0;   ///< Updates ever enqueued.
  uint64_t updates_applied = 0;    ///< Effective updates (after coalescing).
  uint64_t updates_coalesced = 0;  ///< Duplicates / no-ops dropped.
  uint64_t epochs_published = 0;   ///< Snapshots published after epoch 0.
  uint64_t batches_pareto = 0;       ///< STL-P batches.
  uint64_t batches_label = 0;        ///< STL-L batches.
  uint64_t batches_incremental = 0;  ///< DCH / IncH2H batches.
  uint64_t batches_rebuild = 0;      ///< Static-backend full rebuilds.
  // Batched submission (SubmitBatch / SubmitBatchTagged).
  uint64_t query_batches_submitted = 0;  ///< Batch tickets issued.
  uint64_t batched_queries = 0;  ///< Queries that arrived inside a batch.
  // Epoch-keyed (s, t) result memo (EngineOptions::result_cache_entries;
  // zero when the cache is disabled).
  uint64_t result_cache_lookups = 0;  ///< Cache probes on the read path.
  uint64_t result_cache_hits = 0;     ///< Probes answered from the cache.
  double result_cache_hit_rate = 0;   ///< hits / lookups (0 when unused).
  // Copy-on-write publish economics. cow_bytes_cloned counts bytes of
  // label pages + graph weight chunks detached by maintenance (the true
  // per-epoch copy cost under structural sharing);
  // publish_bytes_deep_copied counts bytes copied by deep-copy publishes
  // (every CH/H2H epoch; STL publishes copy none, which
  // QueryEngineTest.CowPublishClonesOnlyDirtyPages asserts).
  uint64_t label_pages_cloned = 0;   ///< CoW label pages detached.
  uint64_t graph_chunks_cloned = 0;  ///< CoW graph weight chunks detached.
  uint64_t cow_bytes_cloned = 0;     ///< Bytes of the above clones.
  uint64_t publish_bytes_deep_copied = 0;  ///< Deep-copy publish bytes.
  double publish_total_micros = 0;  ///< Time inside snapshot publication.
  /// Actual resident bytes of the serving state (current snapshot's view
  /// + graph + any state shared with it), with every shared physical
  /// page/chunk counted exactly once (Table-4-style honest memory under
  /// page sharing). The STL master shares all but its not-yet-published
  /// dirty pages with the snapshot, so those appear here after the next
  /// publish.
  uint64_t resident_index_bytes = 0;
  // Sharded serving (engine/sharded_engine.h); zero / empty for the
  // flat QueryEngine.
  uint32_t num_shards = 0;           ///< Cells served (0 = unsharded).
  uint32_t boundary_vertices = 0;    ///< Overlay size |S|.
  uint64_t overlay_republishes = 0;  ///< Overlay tables published.
  /// Time spent rebuilding boundary cliques + the all-pairs overlay
  /// table (a subset of publish_total_micros).
  double overlay_rebuild_micros = 0;
  /// Time inside BoundaryOverlay::Publish alone (repair or fallback
  /// rebuild; a subset of overlay_rebuild_micros).
  double overlay_repair_micros = 0;
  /// Boundary rows recomputed by a per-source Dijkstra across all
  /// overlay publishes (n per full rebuild; the dirty-source set R per
  /// incremental repair).
  uint64_t overlay_rows_repaired = 0;
  /// Boundary rows published across all overlay publishes (n per
  /// publish) — the denominator for overlay_rows_repaired.
  uint64_t overlay_rows_total = 0;
  /// Overlay publishes that ran the from-scratch all-pairs rebuild
  /// (first publish, dirty set over threshold, or repair disallowed,
  /// e.g. FaultSite::kOverlayRepair).
  uint64_t overlay_full_rebuilds = 0;
  /// Shard clique entries recomputed by dirty-clique rebuilds (sum of
  /// |S_i| * (|S_i| - 1) / 2 over rebuilt shards, all epochs).
  uint64_t clique_entries_recomputed = 0;
  /// Payload bytes of overlay rows pointer-shared with the previous
  /// epoch instead of copied (full-table + packed copies).
  uint64_t overlay_bytes_shared = 0;
  // Epoch-keyed boundary-row cache
  // (ShardedEngineOptions::boundary_row_cache_entries; zero when off).
  uint64_t boundary_row_cache_lookups = 0;  ///< Row-cache probes.
  uint64_t boundary_row_cache_hits = 0;     ///< Probes served from cache.
  /// hits / lookups (0 when the cache is disabled or untouched).
  double boundary_row_cache_hit_rate = 0;
  std::vector<ShardStats> shards;    ///< Per-shard counters.
  // Overload & degradation (the ServingOptions robustness layer).
  /// True while the writer-stall watchdog holds the engine in degraded
  /// mode: updates are pending but the writer has made no progress for
  /// longer than ServingOptions::writer_stall_ms. Queries keep being
  /// served (exactly, from the pinned stale snapshot and the result
  /// cache); the flag tells operators the answers are aging.
  bool degraded = false;
  /// While degraded: roughly how many epochs behind the serving
  /// snapshot is (ceil(pending updates / max_batch_size)); 0 otherwise.
  uint64_t staleness_epochs = 0;
  /// Times the watchdog flipped the engine into degraded mode.
  uint64_t degraded_entries = 0;
  /// Queries completed with kOverloaded (admission rejects + sheds,
  /// including per-query members of shed batches and tags failed by
  /// the shutdown drain deadline).
  uint64_t queries_shed = 0;
  /// Batch tickets rejected or shed by admission control.
  uint64_t batches_shed = 0;
  /// Queries completed with kDeadlineExceeded (expired at dequeue or
  /// between route chunks, without consuming reader time).
  uint64_t queries_deadline_exceeded = 0;
  /// Queries the routing policy itself failed with kUnavailable: every
  /// replica of a required shard was unreachable or stale for the
  /// pinned epoch (dist/shard_router.h). Always zero for in-process
  /// engines, whose routing cannot fail.
  uint64_t queries_unavailable = 0;
  /// Coalesced update batches dropped by an injected apply failure
  /// (FaultSite::kApplyFailure); the master state stays untouched.
  uint64_t apply_failures = 0;
  /// Completion deliveries whose first attempt was dropped at
  /// FaultSite::kCompletionDropCandidate and redelivered by the
  /// exactly-once retry path.
  uint64_t completions_retried = 0;
  /// Point-in-time admission queue depth (submitted single queries not
  /// yet claimed by a reader); 0 when admission tracking is off.
  uint64_t queued_queries = 0;
  double wall_seconds = 0;           ///< Wall time since start / reset.
  double queries_per_second = 0;     ///< queries_served / wall_seconds.
  double latency_mean_micros = 0;    ///< Mean request latency.
  double latency_p50_micros = 0;     ///< Median request latency.
  double latency_p99_micros = 0;     ///< 99th-percentile latency.
  double latency_max_micros = 0;     ///< Largest observed latency.
};

/// One finished query in completion-queue delivery mode. Carries the
/// caller's tag instead of a snapshot pointer, so the high-qps path
/// allocates no promise and keeps no snapshot alive per query.
struct Completion {
  /// The tag the caller attached at submission (request id, slot index,
  /// pointer bits — opaque to the engine).
  uint64_t tag = 0;
  /// Exact distance for the serving snapshot's weights. Meaningful
  /// only when code == StatusCode::kOk (kInfDistance otherwise).
  Weight distance = kInfDistance;
  /// Epoch of the snapshot the query was served from.
  uint64_t epoch = 0;
  /// Submit-to-completion latency (queue wait included).
  double latency_micros = 0;
  /// kOk for an answered query; kOverloaded for work shed by admission
  /// control (or failed by the shutdown drain deadline);
  /// kDeadlineExceeded for work whose deadline passed before routing;
  /// kUnavailable when the routing policy itself failed (routed mode,
  /// every replica of a required shard unreachable or stale).
  /// Every submitted tag is delivered exactly once regardless of code.
  StatusCode code = StatusCode::kOk;
};

/// Where completion-mode answers go. Deliver() is called exactly once
/// per submitted tag, from a reader-pool thread (or from the submitting
/// thread for result-cache hits inside SubmitBatchTagged); it must be
/// thread-safe and should not block for long — it runs on the serving
/// path.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;  ///< Sinks are caller-owned.

  /// Accepts one finished query. Called exactly once per tag.
  virtual void Deliver(const Completion& done) = 0;
};

/// The default sink: an unbounded MPMC completion queue the caller
/// drains with Poll() (non-blocking) or WaitPoll() (blocking). All
/// methods are thread-safe.
class CompletionQueue final : public CompletionSink {
 public:
  /// Pushes one completion and wakes one waiting poller.
  void Deliver(const Completion& done) override;

  /// Drains up to `max_completions` finished queries into `out` without
  /// blocking. Returns how many were written (0 when empty).
  size_t Poll(Completion* out, size_t max_completions);

  /// Blocks until at least one completion is available, then drains up
  /// to `max_completions` into `out`. Returns how many were written.
  size_t WaitPoll(Completion* out, size_t max_completions);

  /// Like WaitPoll, but gives up after `timeout` and returns 0 if no
  /// completion arrived. A zero or negative timeout (a deadline in the
  /// past) never blocks — it degenerates to Poll().
  size_t WaitPoll(Completion* out, size_t max_completions,
                  std::chrono::milliseconds timeout);

  /// Completions currently queued (point-in-time).
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Completion> done_;
};

/// The writer-side counter block: what applying and publishing update
/// batches cost. Relaxed atomics for monitoring, bumped by the one
/// thread that applies batches. Every writer owns one (the flat policy,
/// engine/query_engine.h; ShardedWriter, engine/sharded_engine.h) and
/// fills it into EngineStats from its policy's AugmentStats.
struct WriterCounters {
  std::atomic<uint64_t> updates_applied{0};  ///< Effective updates.
  /// Snapshots published after epoch 0 since the last Reset(). Epoch
  /// ids come from each writer's own allocator, not from this count.
  std::atomic<uint64_t> epochs_published{0};
  BatchExecutionCounters batch_counters;     ///< How batches executed.
  std::atomic<uint64_t> label_pages_cloned{0};   ///< CoW label pages.
  std::atomic<uint64_t> graph_chunks_cloned{0};  ///< CoW graph chunks.
  std::atomic<uint64_t> cow_bytes_cloned{0};     ///< Bytes CoW-cloned.
  /// Bytes copied by deep-copy publishes (CH/H2H epochs).
  std::atomic<uint64_t> publish_bytes_deep_copied{0};
  std::atomic<uint64_t> publish_nanos{0};  ///< Time inside publication.

  /// Copies the block into the matching EngineStats fields.
  void FillStats(EngineStats* s) const;

  /// Zeroes every counter.
  void Reset();
};

/// The serving-side counter block of every tier: relaxed atomics for
/// the query side, the latency histogram and the wall clock. ServingCore
/// bumps them from the reader pool and its writer thread.
struct ServingCounters {
  std::atomic<uint64_t> queries_served{0};   ///< Queries answered.
  std::atomic<uint64_t> updates_coalesced{0};  ///< Dropped no-ops/dups.
  /// Batch tickets issued (SubmitBatch / SubmitBatchTagged).
  std::atomic<uint64_t> query_batches_submitted{0};
  /// Queries that arrived inside a batch.
  std::atomic<uint64_t> batched_queries{0};
  /// Queries completed with kOverloaded.
  std::atomic<uint64_t> queries_shed{0};
  /// Batch tickets rejected or shed by admission control.
  std::atomic<uint64_t> batches_shed{0};
  /// Queries completed with kDeadlineExceeded.
  std::atomic<uint64_t> queries_deadline_exceeded{0};
  /// Queries the routing policy failed with kUnavailable (routed-mode
  /// replica exhaustion; zero for in-process engines).
  std::atomic<uint64_t> queries_unavailable{0};
  /// Update batches dropped by an injected apply failure.
  std::atomic<uint64_t> apply_failures{0};
  /// Completion deliveries redelivered by the exactly-once retry path.
  std::atomic<uint64_t> completions_retried{0};
  /// Times the watchdog flipped the engine into degraded mode.
  std::atomic<uint64_t> degraded_entries{0};
  /// Submit-to-completion latency of ANSWERED (kOk) queries. Shed and
  /// expired work is excluded so overload cannot poison the served
  /// quantiles; its latencies travel in the Completion / result.
  LatencyHistogram latency;
  Timer wall;                ///< Serving wall clock (Restart on start).

  /// Copies the counter block into the matching EngineStats fields and
  /// derives the rates (qps, latency quantiles).
  void FillStats(EngineStats* s) const;

  /// Zeroes every counter and restarts the wall clock.
  void Reset();
};

/// A handle to one submitted batch. The whole batch is answered from
/// the single snapshot pinned when SubmitBatch was called, so every
/// distance is exact for that epoch — bit-identical to what per-query
/// Submit calls would have returned on the same snapshot. Cheap to copy
/// (shared state); default-constructed tickets are empty.
template <typename Snapshot>
class BatchTicket {
 public:
  /// An empty ticket (no queries; Wait() returns immediately).
  BatchTicket() = default;

  /// True iff this ticket came from a SubmitBatch call.
  bool valid() const { return state_ != nullptr; }

  /// Number of queries in the batch.
  size_t size() const { return state_ ? state_->distances.size() : 0; }

  /// Blocks until every query in the batch has been answered.
  void Wait() const {
    if (!state_) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->done_cv.wait(lock, [this] { return state_->done; });
  }

  /// Exact distance of query i under the pinned epoch's weights
  /// (blocks until the batch is done). Meaningful only when
  /// code(i) == StatusCode::kOk; kInfDistance for shed/expired queries.
  Weight distance(size_t i) const {
    Wait();
    STL_CHECK(state_ != nullptr && i < state_->distances.size());
    return state_->distances[i];
  }

  /// Completion code of query i (blocks until the batch is done): kOk
  /// when answered, kOverloaded when shed by admission control or the
  /// shutdown drain, kDeadlineExceeded when the batch deadline passed
  /// before its chunk was routed, kUnavailable when the routing policy
  /// failed the query (routed-mode replica exhaustion).
  StatusCode code(size_t i) const {
    Wait();
    STL_CHECK(state_ != nullptr && i < state_->codes.size());
    return state_->codes[i];
  }

  /// Typed status of query i (ServingStatus(code(i))).
  Status status(size_t i) const { return ServingStatus(code(i)); }

  /// Epoch of the pinned snapshot.
  uint64_t epoch() const {
    STL_CHECK(state_ != nullptr);
    return state_->snapshot->epoch;
  }

  /// The snapshot the whole batch was served from (never null on a
  /// valid ticket); lets callers audit every answer against the exact
  /// weights of that one epoch.
  const std::shared_ptr<const Snapshot>& snapshot() const {
    STL_CHECK(state_ != nullptr);
    return state_->snapshot;
  }

  /// Submit-to-last-answer latency of the batch (blocks until done).
  double latency_micros() const {
    Wait();
    STL_CHECK(state_ != nullptr);
    return state_->latency_micros;
  }

 private:
  template <typename Policy>
  friend class ServingCore;

  struct State {
    std::vector<QueryPair> queries;
    std::vector<Weight> distances;
    // Per-query completion codes. A slot is written exactly once, by
    // whoever claims its chunk (reader, shedder or drain), before the
    // batch is marked done; readers look only after Wait().
    std::vector<StatusCode> codes;
    // Miss indices into `queries`, sorted by the policy's batch key so
    // same-group queries land in the same chunk. Immutable once the
    // chunks are enqueued.
    std::vector<uint32_t> order;
    // Chunk c covers order[chunk_begin[c] .. chunk_begin[c+1]); the
    // trailing entry is order.size(). Immutable once enqueued.
    std::vector<uint32_t> chunk_begin;
    // One claim flag per chunk: the reader that routes it, the
    // admission shedder, or the drain path — whoever wins the exchange
    // completes (and delivers) that chunk's queries exactly once.
    std::unique_ptr<std::atomic<bool>[]> chunk_claimed;
    // Set when admission control shed this batch; only claim winners
    // act on it, so it needs no ordering beyond the claim itself.
    std::atomic<bool> shed{false};
    // Set (after done) for cheap lock-free FIFO pruning.
    std::atomic<bool> finished{false};
    // True iff the ticket was registered with admission control (it
    // then holds an in-flight slot until its last chunk completes).
    bool tracked = false;
    Deadline deadline = kNoDeadline;
    // Completion-mode extras (empty / null for plain SubmitBatch).
    std::vector<uint64_t> tags;
    CompletionSink* sink = nullptr;
    std::shared_ptr<const Snapshot> snapshot;
    std::chrono::steady_clock::time_point submitted;
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending_chunks = 0;  // guarded by mu
    double latency_micros = 0;  // guarded by mu until done
    bool done = false;          // guarded by mu
  };

  explicit BatchTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Construction knobs common to every serving engine (each engine's
/// options struct converts into one of these).
struct ServingCoreOptions {
  /// Reader threads.
  int num_query_threads = 4;
  /// Updates taken from the pending queue per epoch (larger batches mean
  /// fewer snapshot publishes but staler reads).
  size_t max_batch_size = 128;
  /// Capacity of the epoch-keyed (s, t) result memo; 0 disables it.
  size_t result_cache_entries = 0;
  /// Overload-hardening knobs (admission bounds, watchdog, drain
  /// deadline, fault hooks). Defaults to everything off.
  ServingOptions serving;
};

/// The core knobs of an engine's options struct: every engine options
/// type carries these four fields under the same names.
template <typename EngineOptionsT>
ServingCoreOptions CoreOptionsOf(const EngineOptionsT& options) {
  ServingCoreOptions core;
  core.num_query_threads = options.num_query_threads;
  core.max_batch_size = options.max_batch_size;
  core.result_cache_entries = options.result_cache_entries;
  core.serving = options.serving;
  return core;
}

/// The one serving core every tier is built on (see the file comment).
/// Owns the reader pool, the single-writer update queue, the snapshot
/// slot, the result cache, the serving counters and the Policy, which
/// supplies what differs between tiers — how a coalesced batch is
/// applied (Apply side) and how a span of queries is routed on a
/// snapshot (Route side).
///
/// Policy requirements (the core is a friend, so they may be private):
///   using Snapshot / Result   — the published epoch type (must expose
///       a uint64_t `epoch`) and the per-query result type (must expose
///       distance / epoch / latency_micros / snapshot / code fields).
///   A constructor from the core's trailing constructor arguments.
///   std::shared_ptr<const Snapshot> PublishInitial(ThreadPool* helpers)
///       — builds the epoch-0 snapshot (never null). Runs once, inside
///       the core's constructor, before the writer starts.
///   Weight ResolveOldWeight(EdgeId) — master weight authority for
///       coalescing.
///   std::shared_ptr<const Snapshot> ApplyBatch(const UpdateBatch&,
///       ThreadPool* helpers) — applies one coalesced batch to the
///       master state and returns the next epoch's snapshot, which the
///       core then publishes (writer thread only). Whatever must hold
///       before readers can pin the epoch (the router's replica
///       installs) happens before it returns.
///   `helpers` is the core's reader pool, lent for writer-side fan-out
///       (the sharded boundary-clique recompute); ThreadPool::Enqueue
///       may return false during shutdown, so users keep an inline
///       fallback.
///   uint32_t NumEdges()       — update validation bound.
///   static constexpr bool kGroupsBatches — whether batch misses are
///       sorted by BatchSortKey before chunking.
///   uint64_t BatchSortKey(const Snapshot&, const QueryPair&) — the
///       grouping key for batched routing (needed only when
///       kGroupsBatches).
///   void RouteSpan(const std::shared_ptr<const Snapshot>&,
///                  const QueryPair* queries, const uint32_t* idx,
///                  size_t count, Weight* out, StatusCode* codes,
///                  std::function<void()> done) —
///       the one routing method. Answers queries[idx[j]] into
///       out[idx[j]] for j < count, reusing per-group state across the
///       span; codes[idx[j]] is pre-set to kOk and written only when
///       that query's routing failed (kUnavailable, with kInfDistance).
///       Then invokes `done` exactly once. In-process policies call it
///       inline; a policy that waits on remote replicas returns at once
///       and calls it from whichever thread delivers the last answer, so
///       a fan-out of N RPCs parks no reader thread. The snapshot and
///       the arrays stay valid until `done` runs (which may free them).
///       A single query is a one-element span.
///   void AugmentStats(const Snapshot& current, EngineStats*) const —
///       the writer's counter block and the tier's own fields (backend,
///       resident bytes of `current`, shard rows, caches).
///   void ResetStats()         — zeroes the policy's counters (never
///       its epoch ids).
///
/// The core counts every issued span; its destructor waits for all of
/// their continuations after the pool drains, so `done` may always
/// touch the arrays it was handed.
///
/// Thread-safety: Submit*/EnqueueUpdate*/Flush/Stats may be called from
/// any thread. Destruction drains: every submitted query is answered
/// and every enqueued update applied before the destructor returns.
template <typename Policy>
class ServingCore {
 public:
  /// The policy's published epoch type.
  using Snapshot = typename Policy::Snapshot;
  /// The policy's per-query result type.
  using Result = typename Policy::Result;
  /// The batch handle type returned by SubmitBatch.
  using Ticket = BatchTicket<Snapshot>;

  /// Builds the policy from `policy_args`, starts the reader pool,
  /// publishes the policy's epoch-0 snapshot, then starts the writer
  /// thread (and the stall watchdog when writer_stall_ms is set).
  template <typename... Args>
  explicit ServingCore(const ServingCoreOptions& options,
                       Args&&... policy_args)
      : policy_(std::forward<Args>(policy_args)...),
        options_(options),
        serving_(options.serving),
        faults_(options.serving.fault_injector),
        track_queries_(serving_.max_queued_queries > 0 ||
                       serving_.shutdown_drain_ms > 0),
        track_batches_(serving_.max_queued_batches > 0 ||
                       serving_.shutdown_drain_ms > 0),
        pool_(options.num_query_threads) {
    STL_CHECK_GE(options_.max_batch_size, size_t{1});
    cache_.Init(options.result_cache_entries, 1);
    current_.store(policy_.PublishInitial(&pool_));
    STL_CHECK(current_.load() != nullptr)
        << "PublishInitial() must return the epoch-0 snapshot";
    writer_ = std::thread([this] { WriterLoop(); });
    if (serving_.writer_stall_ms > 0) {
      watchdog_ = std::thread([this] { WatchdogLoop(); });
    }
    // Start the throughput clock after the (potentially long) index
    // build, so Stats() reports serving throughput, not build dilution.
    counters_.wall.Restart();
  }

  /// Drains: answers every submitted query and applies every enqueued
  /// update, then joins the workers and the writer. With
  /// ServingOptions::shutdown_drain_ms set, the query drain is bounded:
  /// work still queued when the drain deadline passes is claimed and
  /// failed kOverloaded (delivered exactly once like any other
  /// completion) instead of being answered. The policy dies last.
  ~ServingCore() {
    if (serving_.shutdown_drain_ms > 0) DrainWithDeadline();
    if (watchdog_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(watchdog_mu_);
        watchdog_stop_ = true;
      }
      watchdog_cv_.notify_all();
      watchdog_.join();
    }
    // The writer must be gone before the pool: publish borrows the idle
    // reader pool for the dirty-clique recompute, so joining in the
    // other order races the writer's pool use against pool teardown.
    // Readers never wait on the writer, so stopping it first cannot
    // strand a query.
    updates_.Stop();
    if (writer_.joinable()) writer_.join();  // drains pending updates
    pool_.Shutdown();  // answer every query already submitted
    // A policy that routes over the network may still owe continuations
    // for spans the drained pool tasks issued; every one touches ticket
    // or result state this core hands out, so wait them all out before
    // any member dies (the policy, and so its transport, dies last).
    // Drop the core's own reference (see EndRoute); whoever takes the
    // count to zero sets routes_idle_ under the mutex.
    if (routes_inflight_.fetch_sub(1) != 1) {
      std::unique_lock<std::mutex> lock(routes_mu_);
      routes_cv_.wait(lock, [this] { return routes_idle_; });
    }
  }

  ServingCore(const ServingCore&) = delete;             ///< Not copyable.
  ServingCore& operator=(const ServingCore&) = delete;  ///< Not copyable.

  /// Schedules one distance query; the future resolves when a reader
  /// thread has answered it — or, under overload, when admission
  /// control sheds it (Result::code == kOverloaded) or `deadline`
  /// passes before a reader dequeues it (kDeadlineExceeded, without
  /// consuming routing time). Compatibility adapter over the completion
  /// machinery: allocates one promise per query — high-qps callers
  /// should prefer SubmitBatch or the tagged sink paths.
  std::future<Result> Submit(QueryPair query,
                             Deadline deadline = kNoDeadline) {
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> result = promise->get_future();
    SubmitOne(query, deadline, "Submit()",
              [promise](Weight d, StatusCode code,
                        std::shared_ptr<const Snapshot> snap,
                        uint64_t nanos) {
                Result r;
                r.distance = d;
                r.code = code;
                r.epoch = snap != nullptr ? snap->epoch : 0;
                r.latency_micros = static_cast<double>(nanos) / 1e3;
                r.snapshot = std::move(snap);
                promise->set_value(std::move(r));
              });
    return result;
  }

  /// Schedules a batch of queries pinned to ONE snapshot: the current
  /// epoch is loaded once, result-cache hits are answered inline, and
  /// the misses are grouped by the policy's batch key and routed in
  /// chunks on the reader pool. The returned ticket resolves when every
  /// answer is in; answers are bit-identical to per-query Submit calls
  /// on the same pinned snapshot. Under overload the whole batch may be
  /// rejected or shed kOverloaded, and `deadline` expires chunks still
  /// queued when it passes as kDeadlineExceeded (per-query codes on the
  /// ticket).
  Ticket SubmitBatch(const std::vector<QueryPair>& queries,
                     Deadline deadline = kNoDeadline) {
    return SubmitBatchInternal(queries, nullptr, nullptr, deadline);
  }

  /// Completion-queue mode, single query: no promise, no future — the
  /// completion is delivered to `sink` exactly once with the caller's
  /// tag, whether the query was answered (code kOk), shed by admission
  /// control or the shutdown drain (kOverloaded), or expired at dequeue
  /// (kDeadlineExceeded).
  void SubmitTagged(QueryPair query, uint64_t tag, CompletionSink* sink,
                    Deadline deadline = kNoDeadline) {
    STL_CHECK(sink != nullptr);
    SubmitOne(query, deadline, "SubmitTagged()",
              [this, tag, sink](Weight d, StatusCode code,
                                std::shared_ptr<const Snapshot> snap,
                                uint64_t nanos) {
                Completion done;
                done.tag = tag;
                done.distance = d;
                done.code = code;
                done.epoch = snap != nullptr ? snap->epoch : 0;
                done.latency_micros = static_cast<double>(nanos) / 1e3;
                DeliverCompletion(sink, done);
              });
  }

  /// Completion-queue mode, batched: pins one snapshot like
  /// SubmitBatch and delivers `tags[i]` with query i's answer to `sink`
  /// exactly once (result-cache hits are delivered inline from the
  /// submitting thread). Also returns the ticket for callers that want
  /// to Wait() or audit against the pinned snapshot.
  Ticket SubmitBatchTagged(const std::vector<QueryPair>& queries,
                           const std::vector<uint64_t>& tags,
                           CompletionSink* sink,
                           Deadline deadline = kNoDeadline) {
    STL_CHECK(sink != nullptr);
    STL_CHECK_EQ(queries.size(), tags.size());
    return SubmitBatchInternal(queries, &tags, sink, deadline);
  }

  /// Records a desired new weight for an edge. The writer re-resolves
  /// the old weight from the master state at apply time, so callers
  /// need not know the current weight.
  void EnqueueUpdate(EdgeId edge, Weight new_weight) {
    STL_CHECK(edge < policy_.NumEdges());
    STL_CHECK(new_weight >= 1 && new_weight <= kMaxEdgeWeight);
    updates_.Enqueue(edge, new_weight);
  }

  /// EnqueueUpdate(update.edge, update.new_weight); update.old_weight is
  /// ignored.
  void EnqueueUpdate(const WeightUpdate& update) {
    EnqueueUpdate(update.edge, update.new_weight);
  }

  /// Enqueues many updates atomically (one lock, one writer wakeup):
  /// the writer cannot pop a partial prefix, so up to max_batch_size of
  /// them land in the same maintenance batch / epoch.
  void EnqueueUpdates(const std::vector<WeightUpdate>& updates) {
    for (const WeightUpdate& u : updates) {
      STL_CHECK(u.edge < policy_.NumEdges());
      STL_CHECK(u.new_weight >= 1 && u.new_weight <= kMaxEdgeWeight);
    }
    updates_.EnqueueMany(updates);
  }

  /// Blocks until every update enqueued before the call has been
  /// applied and, if it changed any weight, published in a snapshot.
  void Flush() { updates_.Flush(); }

  /// The latest published snapshot (never null).
  std::shared_ptr<const Snapshot> CurrentSnapshot() const {
    return current_.load();
  }

  /// Epoch of the latest published snapshot.
  uint64_t CurrentEpoch() const { return current_.load()->epoch; }

  /// Point-in-time counters and latency summary; the policy adds its
  /// writer's counters and its tier's fields (backend, resident bytes,
  /// shard rows, caches).
  EngineStats Stats() const {
    EngineStats s;
    counters_.FillStats(&s);
    s.updates_enqueued = updates_.enqueued();
    s.degraded = degraded_.load(std::memory_order_relaxed);
    s.staleness_epochs =
        staleness_epochs_.load(std::memory_order_relaxed);
    s.queued_queries = queued_queries_.load(std::memory_order_relaxed);
    s.result_cache_lookups = cache_.lookups();
    s.result_cache_hits = cache_.hits();
    s.result_cache_hit_rate =
        s.result_cache_lookups > 0
            ? static_cast<double>(s.result_cache_hits) /
                  static_cast<double>(s.result_cache_lookups)
            : 0;
    policy_.AugmentStats(*current_.load(), &s);
    return s;
  }

  /// Zeroes every counter (the policy's too) and the latency histogram
  /// and restarts the wall clock, for bench warmup; epoch ids keep
  /// rising. Call only while no queries are in flight.
  void ResetStats() {
    counters_.Reset();
    cache_.ResetCounters();
    policy_.ResetStats();
  }

  /// Reader thread count.
  int num_query_threads() const { return pool_.num_threads(); }

 protected:
  /// The tier's policy (read-only), for the tier's own getters.
  const Policy& policy() const { return policy_; }

 private:
  /// Nanoseconds elapsed since `start`.
  static uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  /// The single-query pipeline behind Submit and SubmitTagged:
  /// admission, the deadline check at dequeue, then RouteQuery on the
  /// reader pool. `finish(distance, code, snapshot, latency_nanos)` runs
  /// exactly once — with the serving snapshot when routed, with the
  /// then-current one when shed, drained or expired.
  template <typename Finish>
  void SubmitOne(QueryPair query, Deadline deadline, const char* caller,
                 Finish finish) {
    const auto submitted = std::chrono::steady_clock::now();
    // Completes the query without an answer (admission shed, expired
    // deadline, or shutdown drain) — exactly once, via the unit claim.
    auto fail = [this, finish, submitted](StatusCode code) {
      finish(kInfDistance, code, current_.load(), NanosSince(submitted));
    };
    std::shared_ptr<QueryAdmission> unit;
    if (track_queries_) {
      unit = std::make_shared<QueryAdmission>();
      unit->fail = fail;
      if (!AdmitQuery(unit)) {
        counters_.queries_shed.fetch_add(1, std::memory_order_relaxed);
        fail(StatusCode::kOverloaded);
        return;
      }
    }
    const bool accepted = pool_.Enqueue(
        [this, query, submitted, deadline, finish = std::move(finish),
         fail = std::move(fail), unit = std::move(unit)] {
          if (unit != nullptr) {
            if (unit->claimed.exchange(true)) return;  // shed or drained
            queued_queries_.fetch_sub(1, std::memory_order_relaxed);
          }
          if (deadline != kNoDeadline &&
              std::chrono::steady_clock::now() >= deadline) {
            counters_.queries_deadline_exceeded.fetch_add(
                1, std::memory_order_relaxed);
            fail(StatusCode::kDeadlineExceeded);
            return;
          }
          MaybeReaderDelay();
          // The entire read path: one atomic load, then const reads on
          // an immutable snapshot. Never blocks on maintenance work.
          RouteQuery(current_.load(), query, submitted, finish);
        });
    STL_CHECK(accepted) << caller << " on a shut-down engine";
  }

  /// The one per-query route path: a result-cache hit finishes inline;
  /// a miss is routed as a one-element span, and its continuation fills
  /// the cache before finishing. Failed answers are never cached — a
  /// retry on the same epoch may succeed.
  template <typename Finish>
  void RouteQuery(std::shared_ptr<const Snapshot> snap, QueryPair query,
                  std::chrono::steady_clock::time_point submitted,
                  const Finish& finish) {
    const uint64_t key = PairKey(query.first, query.second);
    Weight d;
    if (cache_.Lookup(key, snap->epoch, 1, &d)) {
      const uint64_t nanos = NanosSince(submitted);
      CountAnswer(StatusCode::kOk, nanos);
      finish(d, StatusCode::kOk, std::move(snap), nanos);
      return;
    }
    // The span's whole state in one allocation, owned by the
    // continuation; capturing only two pointers keeps the continuation
    // itself inside std::function's small buffer.
    struct OneQuery {
      QueryPair query;
      uint32_t idx;
      Weight distance;
      StatusCode code;
      uint64_t key;
      std::chrono::steady_clock::time_point submitted;
      std::shared_ptr<const Snapshot> snap;
      Finish finish;
    };
    auto* one = new OneQuery{query, 0, kInfDistance, StatusCode::kOk,
                             key, submitted, std::move(snap), finish};
    BeginRoute();
    policy_.RouteSpan(
        one->snap, &one->query, &one->idx, 1, &one->distance, &one->code,
        [this, one] {
          std::unique_ptr<OneQuery> owned(one);
          if (one->code == StatusCode::kOk) {
            cache_.Insert(one->key, one->snap->epoch, 1, &one->distance);
          }
          const uint64_t nanos = NanosSince(one->submitted);
          CountAnswer(one->code, nanos);
          one->finish(one->distance, one->code, std::move(one->snap), nanos);
          owned.reset();
          EndRoute();
        });
  }

  /// Counts one routed query: served (with its latency) or unavailable.
  void CountAnswer(StatusCode code, uint64_t nanos) {
    if (code == StatusCode::kOk) {
      counters_.latency.Record(nanos);
      counters_.queries_served.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.queries_unavailable.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Registers one issued RouteSpan; the destructor waits for the
  /// matching EndRoute of every Begin.
  void BeginRoute() { routes_inflight_.fetch_add(1); }

  /// Retires one RouteSpan continuation. The count starts at 1, the
  /// core's own reference, which only the destructor drops, so it can
  /// reach zero only while the destructor drains: no query before that
  /// takes the mutex. The zero-taker sets routes_idle_ and notifies
  /// under routes_mu_, and the destructor's wait returns only after it
  /// reacquires the mutex, so the unlock here is this continuation's
  /// last access to the core.
  void EndRoute() {
    if (routes_inflight_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(routes_mu_);
      routes_idle_ = true;
      routes_cv_.notify_all();
    }
  }

  using TicketState = typename Ticket::State;

  /// The shared batch pipeline behind SubmitBatch / SubmitBatchTagged.
  Ticket SubmitBatchInternal(const std::vector<QueryPair>& queries,
                             const std::vector<uint64_t>* tags,
                             CompletionSink* sink, Deadline deadline) {
    counters_.query_batches_submitted.fetch_add(1,
                                                std::memory_order_relaxed);
    counters_.batched_queries.fetch_add(queries.size(),
                                        std::memory_order_relaxed);

    // Batch admission: decided before any work (in particular before
    // the cache pass delivers anything, so a rejected batch's tags are
    // failed exactly once, never answered-then-failed).
    if (track_batches_ && serving_.max_queued_batches > 0 &&
        inflight_batches_.load(std::memory_order_relaxed) >=
            serving_.max_queued_batches) {
      if (serving_.admission_policy == AdmissionPolicy::kRejectNew) {
        counters_.batches_shed.fetch_add(1, std::memory_order_relaxed);
        counters_.queries_shed.fetch_add(queries.size(),
                                         std::memory_order_relaxed);
        return RejectedBatch(queries, tags, sink);
      }
      ShedOldestBatches();
    }

    auto state = std::make_shared<TicketState>();
    state->queries = queries;
    state->distances.assign(queries.size(), kInfDistance);
    state->codes.assign(queries.size(), StatusCode::kOk);
    state->deadline = deadline;
    if (tags != nullptr) state->tags = *tags;
    state->sink = sink;
    state->submitted = std::chrono::steady_clock::now();
    state->snapshot = current_.load();
    const uint64_t epoch = state->snapshot->epoch;

    // Cache pass: hits are answered (and delivered) inline; only the
    // misses go to the reader pool.
    state->order.reserve(queries.size());
    size_t hits = 0;
    for (uint32_t i = 0; i < queries.size(); ++i) {
      Weight d;
      if (cache_.Lookup(PairKey(queries[i].first, queries[i].second), epoch,
                        1, &d)) {
        state->distances[i] = d;
        ++hits;
        if (sink != nullptr) {
          Completion done;
          done.tag = state->tags[i];
          done.distance = d;
          done.epoch = epoch;
          done.latency_micros =
              static_cast<double>(NanosSince(state->submitted)) / 1e3;
          DeliverCompletion(sink, done);
        }
      } else {
        state->order.push_back(i);
      }
    }
    if (hits > 0) {
      const uint64_t nanos = NanosSince(state->submitted);
      for (size_t i = 0; i < hits; ++i) counters_.latency.Record(nanos);
      counters_.queries_served.fetch_add(hits, std::memory_order_relaxed);
    }

    std::vector<uint64_t> keys;  // aligned with order once grouped
    if constexpr (Policy::kGroupsBatches) {
      if (state->order.size() > 1) SortByGroup(state.get(), &keys);
    }

    // Chunk the misses across the pool along GROUP boundaries: the
    // policy's RouteSpan reuses per-group state only within one chunk,
    // so a boundary inside a group forfeits that reuse and recomputes
    // the group row in both halves. Chunks grow to ~misses/threads and
    // then extend to the next group edge (a single group larger than
    // the target stays whole; a group-free policy chunks evenly).
    const size_t misses = state->order.size();
    const size_t threads =
        std::max<size_t>(static_cast<size_t>(pool_.num_threads()), 1);
    const size_t target =
        std::max<size_t>(1, (misses + threads - 1) / threads);
    state->chunk_begin.reserve(threads + 2);
    state->chunk_begin.push_back(0);
    size_t pos = 0;
    while (pos < misses) {
      size_t end = std::min(misses, pos + target);
      if (!keys.empty()) {
        while (end < misses && keys[end] == keys[end - 1]) ++end;
      }
      state->chunk_begin.push_back(static_cast<uint32_t>(end));
      pos = end;
    }
    const size_t num_chunks = state->chunk_begin.size() - 1;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->pending_chunks = num_chunks;
      if (num_chunks == 0) {
        state->done = true;
        state->latency_micros =
            static_cast<double>(NanosSince(state->submitted)) / 1e3;
      }
    }
    if (num_chunks == 0) {
      state->finished.store(true, std::memory_order_relaxed);
      state->done_cv.notify_all();
      return Ticket(std::move(state));
    }
    if (track_batches_) {
      // Register the ticket with admission control: a claim flag per
      // chunk lets a shedder (or the shutdown drain) fail whatever has
      // not started routing yet, exactly once per query.
      state->tracked = true;
      state->chunk_claimed.reset(new std::atomic<bool>[num_chunks]);
      for (size_t c = 0; c < num_chunks; ++c) {
        state->chunk_claimed[c].store(false, std::memory_order_relaxed);
      }
      inflight_batches_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(admit_mu_);
      while (!batch_fifo_.empty()) {  // lazily prune settled heads
        std::shared_ptr<TicketState> head = batch_fifo_.front().lock();
        if (head != nullptr &&
            !head->finished.load(std::memory_order_relaxed)) {
          break;
        }
        batch_fifo_.pop_front();
      }
      batch_fifo_.push_back(state);
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      const bool accepted = pool_.Enqueue([this, state, c] {
        if (state->chunk_claimed != nullptr &&
            state->chunk_claimed[c].exchange(true)) {
          return;  // shed by admission control or the shutdown drain
        }
        const size_t begin = state->chunk_begin[c];
        const size_t end = state->chunk_begin[c + 1];
        if (state->deadline != kNoDeadline &&
            std::chrono::steady_clock::now() >= state->deadline) {
          counters_.queries_deadline_exceeded.fetch_add(
              end - begin, std::memory_order_relaxed);
          FailChunk(*state, c, StatusCode::kDeadlineExceeded);
          return;
        }
        MaybeReaderDelay();
        // The one batch-chunk path: route the chunk as one span; the
        // continuation finishes the chunk whenever the answers land.
        // Chunks touch disjoint answer slots, so they need no lock.
        BeginRoute();
        policy_.RouteSpan(
            state->snapshot, state->queries.data(),
            state->order.data() + begin, end - begin,
            state->distances.data(), state->codes.data(),
            [this, state, begin, end] {
              FinishBatchChunk(*state, begin, end);
              CompleteChunk(*state);
              EndRoute();
            });
      });
      STL_CHECK(accepted) << "SubmitBatch() on a shut-down engine";
    }
    return Ticket(std::move(state));
  }

  /// Sorts state->order by the policy's batch key so same-key queries
  /// land adjacently (and thus in the same routing chunk, where the
  /// policy reuses per-group rows); `keys` comes back aligned with the
  /// sorted order for the chunker.
  void SortByGroup(TicketState* state, std::vector<uint64_t>* keys) {
    const Snapshot& snap = *state->snapshot;
    keys->resize(state->order.size());
    for (size_t j = 0; j < state->order.size(); ++j) {
      (*keys)[j] =
          policy_.BatchSortKey(snap, state->queries[state->order[j]]);
    }
    std::vector<uint32_t> by_key(state->order.size());
    for (uint32_t j = 0; j < by_key.size(); ++j) by_key[j] = j;
    std::stable_sort(by_key.begin(), by_key.end(),
                     [keys](uint32_t a, uint32_t b) {
                       return (*keys)[a] < (*keys)[b];
                     });
    std::vector<uint32_t> sorted(state->order.size());
    std::vector<uint64_t> sorted_keys(state->order.size());
    for (size_t j = 0; j < by_key.size(); ++j) {
      sorted[j] = state->order[by_key[j]];
      sorted_keys[j] = (*keys)[by_key[j]];
    }
    state->order.swap(sorted);
    keys->swap(sorted_keys);
  }

  /// A ticket that completes immediately with every query kOverloaded:
  /// admission rejected the whole batch before any routing. Tags are
  /// still delivered exactly once (with the failure code).
  Ticket RejectedBatch(const std::vector<QueryPair>& queries,
                       const std::vector<uint64_t>* tags,
                       CompletionSink* sink) {
    auto state = std::make_shared<TicketState>();
    state->queries = queries;
    state->distances.assign(queries.size(), kInfDistance);
    state->codes.assign(queries.size(), StatusCode::kOverloaded);
    state->submitted = std::chrono::steady_clock::now();
    state->snapshot = current_.load();
    state->shed.store(true, std::memory_order_relaxed);
    state->finished.store(true, std::memory_order_relaxed);
    state->done = true;
    if (tags != nullptr) state->tags = *tags;
    state->sink = sink;
    if (sink != nullptr) {
      for (size_t i = 0; i < state->tags.size(); ++i) {
        Completion done;
        done.tag = state->tags[i];
        done.code = StatusCode::kOverloaded;
        done.epoch = state->snapshot->epoch;
        DeliverCompletion(sink, done);
      }
    }
    return Ticket(std::move(state));
  }

  /// The post-routing half of a chunk: cache fills, latency/served
  /// counters, tagged completion delivery. Slots in [begin, end) must
  /// already hold the policy's answers.
  void FinishBatchChunk(TicketState& state, size_t begin, size_t end) {
    const Snapshot& snap = *state.snapshot;
    const uint64_t epoch = snap.epoch;
    const uint64_t nanos = NanosSince(state.submitted);
    size_t served = 0;
    for (size_t j = begin; j < end; ++j) {
      const uint32_t i = state.order[j];
      const QueryPair& q = state.queries[i];
      const StatusCode code = state.codes[i];
      if (code == StatusCode::kOk) {
        cache_.Insert(PairKey(q.first, q.second), epoch, 1,
                      &state.distances[i]);
        counters_.latency.Record(nanos);
        ++served;
      } else {
        counters_.queries_unavailable.fetch_add(1,
                                                std::memory_order_relaxed);
      }
      if (state.sink != nullptr) {
        Completion done;
        done.tag = state.tags[i];
        done.distance = state.distances[i];
        done.epoch = epoch;
        done.code = code;
        done.latency_micros = static_cast<double>(nanos) / 1e3;
        DeliverCompletion(state.sink, done);
      }
    }
    counters_.queries_served.fetch_add(served, std::memory_order_relaxed);
  }

  /// Completes chunk `c` of a ticket without routing it: every query in
  /// the chunk gets kInfDistance and `code`, completions (if any) are
  /// delivered with that code, and the normal chunk bookkeeping runs.
  /// The caller must own the chunk (be its reader, or have won its
  /// claim), so each slot is written exactly once.
  void FailChunk(TicketState& state, size_t c, StatusCode code) {
    const uint64_t nanos = NanosSince(state.submitted);
    for (size_t j = state.chunk_begin[c]; j < state.chunk_begin[c + 1];
         ++j) {
      const uint32_t i = state.order[j];
      state.distances[i] = kInfDistance;
      state.codes[i] = code;
      if (state.sink != nullptr) {
        Completion done;
        done.tag = state.tags[i];
        done.code = code;
        done.epoch = state.snapshot->epoch;
        done.latency_micros = static_cast<double>(nanos) / 1e3;
        DeliverCompletion(state.sink, done);
      }
    }
    CompleteChunk(state);
  }

  /// The one chunk-completion path (answered or failed): decrements
  /// pending_chunks and, on the last chunk, marks the ticket done,
  /// wakes waiters and releases its admission slot.
  void CompleteChunk(TicketState& state) {
    const uint64_t nanos = NanosSince(state.submitted);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.pending_chunks == 0) {
        state.done = true;
        state.latency_micros = static_cast<double>(nanos) / 1e3;
        last = true;
      }
    }
    if (last) {
      state.finished.store(true, std::memory_order_relaxed);
      state.done_cv.notify_all();
      if (state.tracked) {
        inflight_batches_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  /// One tracked single-query submission: whoever wins the claim —
  /// the reader that dequeues it, an admission shedder, or the
  /// shutdown drain — completes the query, so it completes exactly
  /// once. `fail` finishes it without an answer (promise or sink).
  struct QueryAdmission {
    std::atomic<bool> claimed{false};       ///< Completion ownership.
    std::function<void(StatusCode)> fail;   ///< Failure completer.
  };

  /// Registers a tracked single query with admission control. Returns
  /// false when the bound is hit under kRejectNew (the caller fails
  /// the new unit); under kShedOldest the oldest still-queued queries
  /// are claimed and failed kOverloaded to make room and the new unit
  /// is admitted.
  bool AdmitQuery(const std::shared_ptr<QueryAdmission>& unit) {
    std::vector<std::shared_ptr<QueryAdmission>> shed;
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      while (!query_fifo_.empty() &&
             query_fifo_.front()->claimed.load(std::memory_order_relaxed)) {
        query_fifo_.pop_front();  // lazily prune claimed heads
      }
      if (serving_.max_queued_queries > 0 &&
          queued_queries_.load(std::memory_order_relaxed) >=
              serving_.max_queued_queries) {
        if (serving_.admission_policy == AdmissionPolicy::kRejectNew) {
          return false;
        }
        while (queued_queries_.load(std::memory_order_relaxed) >=
                   serving_.max_queued_queries &&
               !query_fifo_.empty()) {
          std::shared_ptr<QueryAdmission> oldest =
              std::move(query_fifo_.front());
          query_fifo_.pop_front();
          if (!oldest->claimed.exchange(true)) {
            queued_queries_.fetch_sub(1, std::memory_order_relaxed);
            shed.push_back(std::move(oldest));
          }
        }
      }
      query_fifo_.push_back(unit);
      queued_queries_.fetch_add(1, std::memory_order_relaxed);
    }
    // Fail the victims outside the lock: fail() runs caller code
    // (promise fulfilment / sink delivery).
    for (const std::shared_ptr<QueryAdmission>& u : shed) {
      counters_.queries_shed.fetch_add(1, std::memory_order_relaxed);
      u->fail(StatusCode::kOverloaded);
    }
    return true;
  }

  /// Sheds the oldest still-live batch tickets until the in-flight
  /// count makes room for one more (or the FIFO runs dry). Shedding
  /// claims a victim's not-yet-routing chunks and fails them
  /// kOverloaded; chunks already routing finish normally (their
  /// queries stay kOk) and release the slot when they do.
  void ShedOldestBatches() {
    std::vector<std::shared_ptr<TicketState>> victims;
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      const uint64_t inflight =
          inflight_batches_.load(std::memory_order_relaxed);
      size_t need = inflight + 1 > serving_.max_queued_batches
                        ? static_cast<size_t>(inflight + 1 -
                                              serving_.max_queued_batches)
                        : 0;
      while (need > 0 && !batch_fifo_.empty()) {
        std::shared_ptr<TicketState> s = batch_fifo_.front().lock();
        batch_fifo_.pop_front();
        if (s == nullptr || s->finished.load(std::memory_order_relaxed)) {
          continue;  // already settled; not a victim
        }
        victims.push_back(std::move(s));
        --need;
      }
    }
    for (const std::shared_ptr<TicketState>& s : victims) ShedTicket(*s);
  }

  /// Sheds one registered ticket: claims and fails (kOverloaded) every
  /// chunk that has not started routing. Used by shed-oldest admission
  /// and the shutdown drain.
  void ShedTicket(TicketState& state) {
    state.shed.store(true, std::memory_order_relaxed);
    counters_.batches_shed.fetch_add(1, std::memory_order_relaxed);
    const size_t num_chunks = state.chunk_begin.size() - 1;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (!state.chunk_claimed[c].exchange(true)) {
        counters_.queries_shed.fetch_add(
            state.chunk_begin[c + 1] - state.chunk_begin[c],
            std::memory_order_relaxed);
        FailChunk(state, c, StatusCode::kOverloaded);
      }
    }
  }

  /// Bounded shutdown drain: waits up to shutdown_drain_ms for the
  /// admission queues to empty, then claims whatever is still queued
  /// and fails it kOverloaded. Exactly-once holds: a pool task that
  /// later dequeues a claimed unit or chunk returns without touching
  /// it, and chunks already routing finish normally.
  void DrainWithDeadline() {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                serving_.shutdown_drain_ms));
    while (std::chrono::steady_clock::now() < deadline) {
      if (queued_queries_.load(std::memory_order_relaxed) == 0 &&
          inflight_batches_.load(std::memory_order_relaxed) == 0) {
        return;  // drained in time — nothing to fail
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::vector<std::shared_ptr<QueryAdmission>> residual;
    std::vector<std::shared_ptr<TicketState>> residual_batches;
    {
      std::lock_guard<std::mutex> lock(admit_mu_);
      for (std::shared_ptr<QueryAdmission>& u : query_fifo_) {
        if (!u->claimed.exchange(true)) {
          queued_queries_.fetch_sub(1, std::memory_order_relaxed);
          residual.push_back(std::move(u));
        }
      }
      query_fifo_.clear();
      for (std::weak_ptr<TicketState>& w : batch_fifo_) {
        std::shared_ptr<TicketState> s = w.lock();
        if (s != nullptr && !s->finished.load(std::memory_order_relaxed)) {
          residual_batches.push_back(std::move(s));
        }
      }
      batch_fifo_.clear();
    }
    for (const std::shared_ptr<QueryAdmission>& u : residual) {
      counters_.queries_shed.fetch_add(1, std::memory_order_relaxed);
      u->fail(StatusCode::kOverloaded);
    }
    for (const std::shared_ptr<TicketState>& s : residual_batches) {
      ShedTicket(*s);
    }
  }

  /// FaultSite::kReaderDelay hook: sleeps the injector's delay when
  /// the site fires (no-op without an injector).
  void MaybeReaderDelay() {
    if (faults_ != nullptr && faults_->Fire(FaultSite::kReaderDelay)) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          faults_->DelayMicros(FaultSite::kReaderDelay)));
    }
  }

  /// The one path every completion takes to a caller sink. When
  /// FaultSite::kCompletionDropCandidate fires, the first delivery
  /// attempt is treated as dropped (and counted); the exactly-once
  /// retry then delivers it anyway — the invariant is exercised, never
  /// broken.
  void DeliverCompletion(CompletionSink* sink, const Completion& done) {
    if (faults_ != nullptr &&
        faults_->Fire(FaultSite::kCompletionDropCandidate)) {
      counters_.completions_retried.fetch_add(1,
                                              std::memory_order_relaxed);
    }
    sink->Deliver(done);
  }

  /// The stall-watchdog body: polls the writer's applied counter at a
  /// fraction of the stall threshold. Updates pending with no progress
  /// for writer_stall_ms flips degraded mode on (once per episode);
  /// any progress — or an empty backlog, so idle time can never trip
  /// it — flips it back off and refreshes the baseline.
  void WatchdogLoop() {
    const auto stall =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double, std::milli>(
                serving_.writer_stall_ms));
    const auto poll = std::max<std::chrono::nanoseconds>(
        stall / 4, std::chrono::microseconds(100));
    uint64_t last_applied = updates_.applied();
    auto last_progress = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(watchdog_mu_);
    while (!watchdog_stop_) {
      watchdog_cv_.wait_for(lock, poll,
                            [this] { return watchdog_stop_; });
      if (watchdog_stop_) break;
      const uint64_t applied = updates_.applied();
      const uint64_t pending = updates_.pending();
      const auto now = std::chrono::steady_clock::now();
      if (applied != last_applied || pending == 0) {
        last_applied = applied;
        last_progress = now;
        staleness_epochs_.store(0, std::memory_order_relaxed);
        degraded_.store(false, std::memory_order_relaxed);
      } else if (now - last_progress >= stall) {
        staleness_epochs_.store(
            (pending + options_.max_batch_size - 1) /
                options_.max_batch_size,
            std::memory_order_relaxed);
        if (!degraded_.exchange(true, std::memory_order_relaxed)) {
          counters_.degraded_entries.fetch_add(1,
                                               std::memory_order_relaxed);
        }
      }
    }
  }

  void WriterLoop() {
    // The drain/coalesce/Flush protocol lives in UpdateQueue; the
    // policy's apply step repairs the master state and returns one
    // epoch per effective batch, published here. An injected apply
    // failure drops the coalesced batch before the policy sees it — the
    // master state is untouched, so serving stays exact on the last
    // good epoch.
    updates_.RunWriter(
        options_.max_batch_size,
        [this](EdgeId e) { return policy_.ResolveOldWeight(e); },
        [this](const UpdateBatch& batch) {
          if (faults_ != nullptr &&
              faults_->Fire(FaultSite::kApplyFailure)) {
            counters_.apply_failures.fetch_add(1,
                                               std::memory_order_relaxed);
            return;
          }
          current_.store(policy_.ApplyBatch(batch, &pool_));
        },
        &counters_.updates_coalesced, faults_);
  }

  Policy policy_;  // first member: the master state dies last
  const ServingCoreOptions options_;
  const ServingOptions serving_;  // overload-hardening knobs (copy)
  FaultInjector* const faults_;   // null = no fault hooks
  // Whether single queries / batch tickets carry admission tracking
  // (needed for bounds and for the bounded shutdown drain).
  const bool track_queries_;
  const bool track_batches_;

  AtomicSharedPtr<const Snapshot> current_;

  // Pending-update queue (writer input; one protocol for every engine).
  UpdateQueue updates_;

  ServingCounters counters_;
  SlotCache cache_;  // the (s, t) result memo, payload width 1

  // Admission state: FIFOs of claimable work (pruned lazily) plus the
  // point-in-time depth counters the bounds are enforced against.
  std::mutex admit_mu_;
  std::deque<std::shared_ptr<QueryAdmission>> query_fifo_;
  std::deque<std::weak_ptr<TicketState>> batch_fifo_;
  std::atomic<uint64_t> queued_queries_{0};
  std::atomic<uint64_t> inflight_batches_{0};

  // Issued RouteSpan continuations not yet finished, plus the core's
  // own reference (see EndRoute); the destructor drops that reference
  // after the pool drains and waits for routes_idle_.
  std::atomic<uint64_t> routes_inflight_{1};
  std::mutex routes_mu_;
  bool routes_idle_ = false;  // guarded by routes_mu_
  std::condition_variable routes_cv_;

  // Degraded-mode state (written by the watchdog, read by Stats()).
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> staleness_epochs_{0};
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // guarded by watchdog_mu_
  std::thread watchdog_;

  std::thread writer_;

  ThreadPool pool_;  // last member: workers die before state they touch
};

}  // namespace stl

#endif  // STL_ENGINE_SERVING_CORE_H_
