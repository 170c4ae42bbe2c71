// One shard replica of the replicated tier: what a replica_server
// process (examples/replica_server.cpp), an in-process FrameServer or a
// LoopbackTransport endpoint (MakeLoopbackCluster, dist/shard_router.h)
// serves. It holds a ShardedWriter and a short ring of the snapshots
// that writer published, and answers the two wire requests
// (dist/wire.h). A replica runs no threads of its own.
//
// Queries. A QueryRequest carries a routed span of (s, t) pairs and the
// engine epoch the router pinned. The replica answers every pair on the
// ring snapshot of exactly that epoch, through RouteLocalSpan
// (engine/sharded_engine.h) — the route ShardedEngine runs in process —
// behind its own boundary-row cache, so every answer is bit-identical
// to the direct engine's on that epoch. An epoch the ring does not hold
// (evicted, or not yet installed), a malformed request or a vertex id
// out of range comes back as a typed kUnavailable, never as another
// epoch's bytes; vertex ids are checked against the immutable layout
// before any snapshot is touched. A replica that lags on any shard thus
// serves nothing newer than its last install, and the router fails
// over to a sibling.
//
// Installs. Replication is state-machine style: every replica builds
// an identical writer from the identical graph and options, the
// router's ShardLedger numbers the same epochs, and each install
// carries one batch that the router published as one epoch. The
// replica coalesces it with the same CoalesceUpdates and applies it
// whole — one install, one epoch, whatever its size — inline on the
// thread that handles the install, so every replica produces
// bit-identical snapshots with identical epoch ids. The
// InstallRequest's expected_* epochs make that assumption checked, not
// trusted: any divergence nacks (the replica keeps serving the epochs
// it has) instead of silently serving different weights. Installs are
// sequence-numbered per replica; a gap nacks with the needed seq and
// the router replays from its bounded log. A malformed install
// (undecodable, an edge out of range or a weight outside
// [1, kMaxEdgeWeight]) nacks without being applied.
#ifndef STL_DIST_REPLICA_NODE_H_
#define STL_DIST_REPLICA_NODE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "dist/wire.h"
#include "engine/sharded_engine.h"

namespace stl {

/// Construction knobs of a replica's query side.
struct ReplicaNodeOptions {
  /// How many published snapshots the replica keeps. A deeper ring lets
  /// spans pinned to older epochs still be served; a ring of 1 models a
  /// replica that only ever holds the latest version (maximally strict
  /// staleness behaviour for tests).
  size_t epoch_ring = 8;
};

/// One served replica. See the file comment. Thread-safe: Handle may
/// run concurrently from server worker threads.
class ReplicaNode {
 public:
  /// Builds the writer from `graph` — which MUST be the same graph,
  /// hierarchy and writer options (backend, target_shards) the router
  /// was built with: epoch determinism is the replication contract —
  /// and puts its epoch-0 snapshot in the ring. Of `engine_options` the
  /// replica reads the fields ShardedWriter reads and
  /// boundary_row_cache_entries; the other serving knobs (threads,
  /// batch size, result cache) are unused.
  ReplicaNode(Graph graph, const HierarchyOptions& hierarchy_options,
              const ShardedEngineOptions& engine_options,
              const ReplicaNodeOptions& replica_options = {});

  /// Serves one encoded request: kInstall goes to the replication path,
  /// everything else to the query path. Always returns an encoded
  /// response (a nack or a kUnavailable QueryResponse on malformed
  /// input). Matches FrameServer::Handler.
  std::vector<uint8_t> Handle(const uint8_t* data, size_t size);

  /// Query requests answered kOk so far. Relaxed; test assertions.
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Query requests answered kUnavailable: the pinned epoch was not
  /// held (stale, evicted or ahead of this replica), or the request was
  /// malformed or out of range. Relaxed.
  uint64_t requests_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Installs applied (acked ok) so far. Relaxed; test assertions.
  uint64_t installs_applied() const {
    return installs_applied_.load(std::memory_order_relaxed);
  }

  /// Installs nacked (gap, divergence or malformed). Relaxed.
  uint64_t install_nacks() const {
    return install_nacks_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<uint8_t> HandleQuery(const uint8_t* data, size_t size);
  std::vector<uint8_t> HandleInstall(const uint8_t* data, size_t size);

  /// The held snapshot of exactly `engine_epoch`; null when none is.
  std::shared_ptr<const ShardedSnapshot> FindEpoch(
      uint64_t engine_epoch) const;

  const ReplicaNodeOptions options_;
  ShardedWriter writer_;
  // Shard-epoch-keyed boundary rows, shared by every query thread.
  SlotCache row_cache_;

  std::mutex install_mu_;  // serializes the apply/verify/install step
  // The writer's newest snapshot; guarded by install_mu_.
  std::shared_ptr<const ShardedSnapshot> current_;
  uint64_t next_seq_ = 0;  // guarded by install_mu_
  bool diverged_ = false;  // guarded by install_mu_; sticky

  mutable std::mutex ring_mu_;  // guards ring_ only; entries immutable
  // Held snapshots, oldest first.
  std::deque<std::shared_ptr<const ShardedSnapshot>> ring_;

  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> installs_applied_{0};
  std::atomic<uint64_t> install_nacks_{0};
};

}  // namespace stl

#endif  // STL_DIST_REPLICA_NODE_H_
