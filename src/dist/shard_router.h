// The replicated shard-router tier: ShardedEngine's Submit/SubmitBatch/
// SubmitTagged surface, served by N interchangeable replicas over a
// pluggable Transport. The router holds no index: each routed span of
// queries goes whole to one replica as one RPC, and the replica answers
// it on its own copy of the pinned epoch.
//
//   callers          ShardRouter = ServingCore<RouterPolicy>
//   ─────────────    ────────────────────────────────────────────────
//   Submit*          pin ONE RouterSnapshot; send the span's pairs
//                    (s == t answers 0 locally) as one QueryRequest
//                    pinned to that snapshot's engine epoch, to one
//                    replica; the reader thread issues and returns, and
//                    the answer lands through the transport
//
//   updates          the core's writer thread coalesces a batch
//                    against the router's ShardLedger (master weights,
//                    layout, epoch ids) -> the ledger numbers the epoch
//                    -> the batch is shipped to every replica as a
//                    kInstall wire message, applied whole by each
//                    ReplicaNode's ShardedWriter and epoch-checked ->
//                    THEN RouterPolicy::ApplyBatch returns the new
//                    RouterSnapshot and the core publishes it
//
// Every replica, behind loopback, TCP or a separate process, is a
// ReplicaNode (dist/replica_node.h) fed by that one sequenced install
// stream. The router keeps admission, deadlines, epoch pinning, the
// result cache and exactly-once delivery (all ServingCore's), plus the
// install log and the RPC failover below.
//
// Epoch consistency is the hard invariant: a span pins one snapshot,
// the request carries its engine epoch, and a replica that does not
// hold that epoch answers kUnavailable instead of another epoch's
// bytes. The router then tries the sibling replicas (round-robin
// start, all N tried); only when every replica fails does the span
// complete with a typed kUnavailable — delivered exactly once per user
// tag through the same one-shot-claim completion machinery as every
// other serving path. A reply whose epoch echo or distance count is
// wrong is failed over like a stale one.
//
// Bit-identity (RouterConformanceTest.LockstepBitIdenticalToDirectEngine
// in tests/router_test.cc) holds by construction: a replica answers
// through RouteLocalSpan (engine/sharded_engine.h), the route the
// in-process ShardedEngine runs, on a snapshot its own ShardedWriter
// built from the same graph and batches. Installs happen before
// publish, so on the healthy path every epoch a reader pins is already
// held by every replica.
#ifndef STL_DIST_SHARD_ROUTER_H_
#define STL_DIST_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/loopback_transport.h"
#include "dist/replica_node.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "engine/sharded_engine.h"

namespace stl {

/// Declared only for ShardRouter's legacy fifth constructor parameter,
/// which must be empty; a replica is a ReplicaNode.
class ShardReplica;

/// Construction options for the router tier.
struct ShardRouterOptions {
  /// The router's ShardLedger reads target_shards of these; replicas
  /// must be built with the same backend and target_shards. The other
  /// fields are unused (the router's own serving knobs are below).
  ShardedEngineOptions engine;
  /// Router reader threads (they only encode requests and hand them to
  /// the transport; answers land on the transport's thread).
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

/// One published router epoch: what the router pins a span to, and no
/// index.
struct RouterSnapshot {
  /// Global epoch (bumps on every effective update batch); the epoch a
  /// QueryRequest pins.
  uint64_t epoch = 0;
  /// Per-shard epochs (index = shard id), as every replica's snapshot
  /// of this epoch holds them.
  std::vector<uint64_t> shard_epochs;
  /// The shared shard layout (batch grouping).
  std::shared_ptr<const ShardLayout> layout;
  /// Full-network weights as of this epoch (copy-on-write chunk share
  /// with neighbouring epochs): the ground truth Dijkstra audits run
  /// against.
  Graph graph;
};

/// Answer to one query submitted to the router tier.
using RouterQueryResult = ShardedTierResult<RouterSnapshot>;

/// Router-tier counters: the router core's serving stats plus the RPC
/// accounting.
struct RouterStats {
  /// The router core's serving-side stats (queries served/unavailable,
  /// latency quantiles, cache rates) and its ledger's bookkeeping
  /// (updates applied, epochs_published, shard rows). The router holds
  /// no index, so the index and overlay work counters stay 0; that
  /// work happens on the replicas.
  EngineStats serving;
  /// Replica endpoints the transport reaches.
  uint32_t replicas = 0;
  /// RPC attempts sent (every Send, including retries and installs).
  uint64_t rpcs_sent = 0;
  /// RPC attempts beyond the first for their span (sibling retries).
  uint64_t rpc_retries = 0;
  /// Replica answers rejected for not holding the pinned epoch (or
  /// failing/corrupt/mis-sized), each triggering a sibling retry.
  uint64_t rpc_stale_responses = 0;
  /// Spans that succeeded on a sibling after at least one failed
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
/// engine/serving_core.h): numbers each batch's epoch in its
/// ShardLedger, installs the batch on every replica, then returns the
/// snapshot for the core to publish; routes each span as one
/// QueryRequest with sibling failover. Batched misses sort by the same
/// grouping as ShardedEngine, so a replica's span shares rows and inner
/// vectors across each group.
class RouterPolicy : public ShardedBatchGrouping {
 public:
  /// The published epoch type.
  using Snapshot = RouterSnapshot;
  /// The per-query result type.
  using Result = RouterQueryResult;

  /// Partitions `graph` into the replicas' layout (`engine_options` as
  /// in ShardRouterOptions::engine) and routes over `transport` (not
  /// owned, never null).
  RouterPolicy(Graph graph, const HierarchyOptions& hierarchy_options,
               const ShardedEngineOptions& engine_options,
               Transport* transport);

  /// The bookkeeping (weights, layout, epoch ids).
  const ShardLedger& ledger() const { return ledger_; }

  /// Fills every RouterStats field except `serving`.
  void FillStats(RouterStats* s) const;

 private:
  friend class ServingCore<RouterPolicy>;
  struct PendingCall;

  std::shared_ptr<const RouterSnapshot> PublishInitial(ThreadPool* helpers);
  Weight ResolveOldWeight(EdgeId e) const;
  std::shared_ptr<const RouterSnapshot> ApplyBatch(const UpdateBatch& batch,
                                                   ThreadPool* helpers);
  uint32_t NumEdges() const;
  // Sends the span and returns; `done` runs when its answer lands (the
  // continuation-passing half of the contract).
  void RouteSpan(const std::shared_ptr<const RouterSnapshot>& snap,
                 const QueryPair* queries, const uint32_t* idx, size_t count,
                 Weight* out, StatusCode* codes, std::function<void()> done);
  void AugmentStats(const RouterSnapshot& current, EngineStats* s) const;
  void ResetStats();

  // The snapshot of the ledger's current epoch.
  std::shared_ptr<const RouterSnapshot> LedgerSnapshot() const;

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

  // Installs `snap` on every replica as the next kInstall sequence,
  // carrying `updates`. The core publishes `snap` only after this
  // returns, so a reader-pinned epoch is always held by the replicas on
  // the healthy path. A failed install is counted and the snapshot is
  // published anyway: the lagging replica answers the new epochs with
  // typed kUnavailable (never wrong bytes) until replay catches it up.
  void Install(const RouterSnapshot& snap, const UpdateBatch& updates);

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

  const BackendKind backend_;  // what the replicas run (stats only)
  ShardLedger ledger_;         // applied by the core's writer thread only
  Transport* const transport_;  // not owned

  Mailbox mailbox_;
  std::atomic<uint32_t> next_replica_{0};  // round-robin start

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
/// the same exactly-once completion contract; each update batch is
/// installed on every replica before the router's readers see the new
/// epoch. Flush() returns once every earlier update is installed and
/// published. Thread-safe like the engines.
class ShardRouter : public ServingCore<RouterPolicy> {
 public:
  /// Partitions `graph`, installs the initial epoch on the replicas and
  /// starts the router core. `transport` (not owned) must outlive the
  /// router and route endpoint i to replica i: a ReplicaNode built from
  /// the same graph, hierarchy options and `options.engine`, kept in
  /// sync by kInstall replication. `replicas` must be empty; it stays
  /// only because existing callers still pass an empty list.
  ShardRouter(Graph graph, const HierarchyOptions& hierarchy_options,
              const ShardRouterOptions& options, Transport* transport,
              std::vector<ShardReplica*> replicas)
      : ServingCore(CoreOptionsOf(options), std::move(graph),
                    hierarchy_options, options.engine, transport) {
    STL_CHECK(replicas.empty());  // see the constructor doc
  }

  /// Number of cells of the partition.
  uint32_t num_shards() const {
    return policy().ledger().layout()->num_shards();
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
    const ReplicaNodeOptions& replica_options = {},
    FaultInjector* faults = nullptr);

}  // namespace stl

#endif  // STL_DIST_SHARD_ROUTER_H_
