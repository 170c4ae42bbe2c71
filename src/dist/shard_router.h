// The replicated shard-router tier: ShardedEngine's Submit/SubmitBatch/
// SubmitTagged surface served by fanning per-cell boundary-row fetches
// and intra-cell point queries out to N interchangeable shard replicas
// over a pluggable Transport, with the overlay min-plus reduction run
// router-side on the fetched rows.
//
//   callers          ShardRouter = ServingCore<RouterPolicy>
//   ─────────────    ────────────────────────────────────────────────
//   Submit*          pin ONE ShardedSnapshot; enumerate every unique
//                    ds/dt row and same-cell point the span needs,
//                    issue ALL of them concurrently (pinning each
//                    shard's shard_epoch on the wire), and reduce
//                    through the pinned epoch's OverlayTable min-plus
//                    kernels when the last fetch lands — the reader
//                    thread issues and returns; no thread parks per RPC
//
//   updates          router core's writer thread coalesces a batch ->
//                    the router's ShardedWriter applies it as one epoch
//                    -> the batch is shipped to every replica as a
//                    kInstall wire message, applied whole by each
//                    ReplicaNode's own ShardedWriter and epoch-checked
//                    -> THEN RouterPolicy::ApplyBatch returns the new
//                    snapshot and the core publishes it to the
//                    router's readers
//
// Every replica, behind loopback, TCP or a separate process, is a
// ReplicaNode fed by that one sequenced install stream. ShardRouter is
// a ServingCore whose RouterPolicy owns the one ShardedWriter, the
// transport handle, the response mailbox, the install log and the RPC
// counters; nothing else serves. The core owns the policy and drains
// every reader, the writer and every in-flight fan-out before the
// policy dies.
//
// Epoch-consistent fan-out is the hard invariant: a batch pins one
// snapshot, every row request carries that snapshot's per-shard
// shard_epoch, and a replica that does not hold the pinned version
// answers kUnavailable instead of a different epoch's bytes. The
// router then retries the sibling replicas (round-robin start, all N
// tried); only when every replica fails does the query complete with
// a typed kUnavailable — delivered exactly once per user tag through
// the same one-shot-claim completion machinery as every other serving
// path.
//
// The fan-out is asynchronous end to end: the router's RouteSpan (the
// ServingCore route contract, engine/serving_core.h) enumerates the
// span's unique fetches, issues them all, and returns the reader thread
// to the pool; each RPC's answer arrives through the tag-keyed Mailbox
// (from the transport's delivery thread), sibling failover chains
// through PendingCall without blocking anyone, and the LAST arrival
// runs the sequential min-plus compute phase and the core's
// continuation — so the answer bytes are produced by one thread in
// deterministic order, bit-identical to the in-process ShardedEngine,
// while a fan-out of N RPCs blocks zero reader threads.
//
// Bit-identity (the conformance contract,
// RouterConformanceTest.LockstepBitIdenticalToDirectEngine in
// tests/router_test.cc): the fetch enumeration and the reduction
// are both RouteShardedPair (engine/sharded_engine.h), the decomposition
// the in-process engine runs; replica-served rows are computed by the
// same FillShardBoundaryRow on the same immutable shard views, and the
// reduction runs on the same pinned overlay — so every routed answer is
// byte-identical to ShardedEngine on the same epoch.
#ifndef STL_DIST_SHARD_ROUTER_H_
#define STL_DIST_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/loopback_transport.h"
#include "dist/replica.h"
#include "dist/replica_node.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "engine/sharded_engine.h"

namespace stl {

/// Construction options for the router tier.
struct ShardRouterOptions {
  /// The router's ShardedWriter reads backend, target_shards and
  /// serving.fault_injector (FaultSite::kOverlayRepair) of these; the
  /// other fields are unused (the router's own serving knobs are
  /// below). Replicas must be built with the same backend and
  /// target_shards.
  ShardedEngineOptions engine;
  /// Router reader threads (the tier that fans queries out; they also
  /// lend the writer a hand with the boundary-clique recompute).
  int num_query_threads = 4;
  /// Updates taken per router epoch: each coalesced slice is one epoch
  /// on the router and on every replica.
  size_t max_batch_size = 128;
  /// Router-side epoch-keyed (s, t) result memo; 0 disables it.
  size_t result_cache_entries = 0;
  /// Overload-hardening knobs of the ROUTER core (admission, deadlines,
  /// watchdog, drain, fault hooks). The transport fault sites fire in
  /// the transport itself (LoopbackTransport's injector), not here.
  ServingOptions serving;
};

/// Router-tier counters: the router core's serving stats plus the RPC
/// fan-out accounting.
struct RouterStats {
  /// The router core's serving-side stats (queries served/unavailable,
  /// latency quantiles, cache rates) and its writer's work (updates
  /// applied, epochs_published, batch, CoW, publish and overlay
  /// counters, shard rows).
  EngineStats serving;
  /// Replica endpoints the transport reaches.
  uint32_t replicas = 0;
  /// RPC attempts sent (every Send, including retries).
  uint64_t rpcs_sent = 0;
  /// RPC attempts beyond the first for their fetch (sibling retries).
  uint64_t rpc_retries = 0;
  /// Replica answers rejected for not holding the pinned shard_epoch
  /// (or failing/corrupt), each triggering a sibling retry.
  uint64_t rpc_stale_responses = 0;
  /// Fetches that succeeded on a sibling after at least one failed
  /// attempt (the failover path working as designed).
  uint64_t rpc_failovers = 0;
  /// Responses delivered under an already-settled tag (transport
  /// duplicates) and absorbed by the one-shot claim.
  uint64_t rpc_duplicates_dropped = 0;
  /// kInstall sequences shipped to the replicas: seq 0 (which only
  /// verifies epoch 0) plus one per router-published epoch.
  uint64_t wire_installs = 0;
  /// Publishes where at least one endpoint failed to ack its install
  /// within its attempt budget (the router published anyway).
  uint64_t install_failures = 0;
};

/// The routed serving policy (see the ServingCore policy contract in
/// engine/serving_core.h): applies each batch through its
/// ShardedWriter, installs it on every replica, then returns the
/// snapshot for the core to publish; routes each span by fanning its
/// boundary-row and point fetches out over the transport. Batched
/// misses sort by the same grouping as ShardedEngine, so fetched rows
/// and inner vectors are deduplicated across each group.
class RouterPolicy : public ShardedBatchGrouping {
 public:
  /// The published epoch type.
  using Snapshot = ShardedSnapshot;
  /// The per-query result type.
  using Result = ShardedQueryResult;

  /// Builds the writer from `graph` (`engine_options` as in
  /// ShardRouterOptions::engine) over `transport` (not owned, never
  /// null).
  RouterPolicy(Graph graph, const HierarchyOptions& hierarchy_options,
               const ShardedEngineOptions& engine_options,
               Transport* transport);

  /// The writer (layout, backend, capabilities).
  const ShardedWriter& writer() const { return writer_; }

  /// Fills every RouterStats field except `serving`.
  void FillStats(RouterStats* s) const;

 private:
  friend class ServingCore<RouterPolicy>;
  struct SpanFanout;
  struct PendingCall;

  std::shared_ptr<const ShardedSnapshot> PublishInitial(ThreadPool* helpers);
  Weight ResolveOldWeight(EdgeId e) const;
  std::shared_ptr<const ShardedSnapshot> ApplyBatch(const UpdateBatch& batch,
                                                    ThreadPool* helpers);
  uint32_t NumEdges() const;
  // Issues the span's fetches and returns; `done` runs when the last
  // answer lands (the continuation-passing half of the contract).
  void RouteSpan(const std::shared_ptr<const ShardedSnapshot>& snap,
                 const QueryPair* queries, const uint32_t* idx, size_t count,
                 Weight* out, StatusCode* codes, std::function<void()> done);
  void AugmentStats(const ShardedSnapshot& current, EngineStats* s) const;
  void ResetStats();

  // The router side of the transport: a tag-keyed registry of response
  // callbacks. OnResponse settles the tag's callback exactly once
  // (invoked outside the lock, on the transport's delivery thread); a
  // delivery for an unknown — already-settled — tag is a transport
  // duplicate and is counted and dropped: the one-shot claim at RPC
  // granularity.
  class Mailbox final : public TransportSink {
   public:
    using Callback = std::function<void(Status, std::vector<uint8_t>)>;

    // Registers a fresh tag -> callback binding and returns the tag.
    uint64_t Register(Callback callback);

    void OnResponse(uint64_t tag, Status transport_status,
                    std::vector<uint8_t> payload) override;

    uint64_t duplicates_dropped() const {
      return duplicates_.load(std::memory_order_relaxed);
    }
    void ResetCounters() { duplicates_.store(0, std::memory_order_relaxed); }

   private:
    std::mutex mu_;
    std::unordered_map<uint64_t, Callback> calls_;  // guarded by mu_
    std::atomic<uint64_t> next_tag_{1};
    std::atomic<uint64_t> duplicates_{0};
  };

  // One pinned-epoch RPC with asynchronous sibling failover: encodes the
  // request ONCE (the buffer is shared across every sibling attempt)
  // and tries replica endpoints round-robin until one serves it at the
  // pinned shard_epoch — with a boundary row of exactly |S_shard|
  // weights for a row fetch. `done` runs exactly once — from the
  // transport's delivery thread (or inline for a synchronous transport)
  // — with ok=false after every endpoint failed.
  void CallReplicaAsync(const ShardRequest& req,
                        std::function<void(bool, ShardResponse)> done);

  // Installs `snap` on every replica as the next kInstall sequence,
  // carrying `updates`. The core publishes `snap` only after this
  // returns, so a reader-pinned epoch is always held by the replicas on
  // the healthy path. A failed install is counted and the snapshot is
  // published anyway: the lagging replica answers the new epochs with
  // typed kUnavailable (never wrong bytes) until replay catches it up.
  void Install(const ShardedSnapshot& snap, const UpdateBatch& updates);

  // Drives `endpoint` to the newest install log entry (replaying
  // earlier entries on a sequence-gap nack). Writer thread only. False
  // when the endpoint cannot be caught up within the attempt budget,
  // nacked a seq it should have accepted (divergence), or acked ok
  // without moving past the seq it was sent (a protocol violation that
  // would otherwise replay forever).
  bool WireInstallEndpoint(uint32_t endpoint);

  // One blocking RPC (writer thread only — the install path is the
  // single place the router blocks on the wire). False on transport
  // failure or when the ack misses its deadline.
  bool BlockingRpc(uint32_t endpoint,
                   std::shared_ptr<const std::vector<uint8_t>> bytes,
                   std::vector<uint8_t>* payload);

  ShardedWriter writer_;        // applied by the core's writer thread only
  Transport* const transport_;  // not owned

  Mailbox mailbox_;
  std::atomic<uint32_t> next_replica_{0};  // round-robin fan-out start

  // One wire-install log entry: the sequence number and the
  // encoded-once InstallRequest shared by every (re)send.
  struct InstallLogEntry {
    uint64_t seq = 0;
    std::shared_ptr<const std::vector<uint8_t>> encoded;
  };
  // Wire-install replication state (writer thread only).
  std::deque<InstallLogEntry> install_log_;
  uint64_t install_log_base_ = 0;  // seq of install_log_.front()
  uint64_t next_install_seq_ = 0;

  // RPC accounting (relaxed; surfaced through FillStats).
  std::atomic<uint64_t> rpcs_sent_{0};
  std::atomic<uint64_t> rpc_retries_{0};
  std::atomic<uint64_t> rpc_stale_{0};
  std::atomic<uint64_t> rpc_failovers_{0};
  std::atomic<uint64_t> wire_installs_{0};
  std::atomic<uint64_t> install_failures_{0};
};

/// The replicated router over a pluggable transport: ServingCore over
/// RouterPolicy, so it serves ShardedEngine's submission surface with
/// the same exactly-once completion contract; updates are applied by
/// the router's ShardedWriter and installed on every replica before the
/// router's readers see the new epoch. Flush() returns once every
/// earlier update is applied, installed and published. Thread-safe like
/// the engines.
class ShardRouter : public ServingCore<RouterPolicy> {
 public:
  /// Builds the writer from `graph`, installs the initial epoch on the
  /// replicas and starts the router core. `transport` (not owned) must
  /// outlive the router and route endpoint i to replica i: a
  /// ReplicaNode built from the same graph, hierarchy options and
  /// `options.engine`, kept in sync by kInstall replication. `replicas`
  /// must be empty; it stays only because existing callers still pass
  /// an empty list.
  ShardRouter(Graph graph, const HierarchyOptions& hierarchy_options,
              const ShardRouterOptions& options, Transport* transport,
              std::vector<ShardReplica*> replicas)
      : ServingCore(CoreOptionsOf(options), std::move(graph),
                    hierarchy_options, options.engine, transport) {
    STL_CHECK(replicas.empty());  // see the constructor doc
  }

  /// Number of cells of the writer's partition.
  uint32_t num_shards() const {
    return policy().writer().layout().num_shards();
  }

  /// Point-in-time router-tier counters (hides ServingCore::Stats,
  /// which RouterStats::serving carries).
  RouterStats Stats() const {
    RouterStats s;
    s.serving = ServingCore::Stats();
    policy().FillStats(&s);
    return s;
  }
};

static_assert(sizeof(ShardRouter) == sizeof(ServingCore<RouterPolicy>),
              "a serving tier declares no data members");

/// An in-process cluster: N ReplicaNodes behind one LoopbackTransport,
/// endpoint i serving from replicas[i] — everything a test needs to
/// stand up the routed tier deterministically.
struct LoopbackCluster {
  /// The replica nodes, owned by the cluster (endpoint order).
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  /// The transport routing endpoint i to replicas[i]->Handle.
  std::unique_ptr<LoopbackTransport> transport;
};

/// Builds `num_replicas` ReplicaNodes (each with `replica_options`)
/// behind one loopback transport. `graph`, `hierarchy_options` and
/// `router_options.engine` must be what the router is built with: the
/// nodes replay its install stream on identical writers. `faults` (not
/// owned, may be null) arms the transport fault sites.
LoopbackCluster MakeLoopbackCluster(
    const Graph& graph, const HierarchyOptions& hierarchy_options,
    const ShardRouterOptions& router_options, uint32_t num_replicas,
    const ShardReplicaOptions& replica_options = {},
    FaultInjector* faults = nullptr);

}  // namespace stl

#endif  // STL_DIST_SHARD_ROUTER_H_
