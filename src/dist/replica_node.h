// The server side of a replica: one ReplicaNode is what a
// replica_server process (examples/replica_server.cpp), an in-process
// FrameServer or a LoopbackTransport endpoint (MakeLoopbackCluster,
// dist/shard_router.h) serves. It bundles the query half — a
// ShardReplica ring answering boundary-row / point-query requests —
// with the replication half: a ShardedWriter that applies the kInstall
// update batches shipped by the router, inline on the thread that
// handles the install. A replica runs no threads of its own.
//
// Replication is state-machine style: router and replica build
// identical writers from the identical graph and options, and each
// install carries one batch that the router's writer applied as one
// epoch. The replica coalesces it with the same CoalesceUpdates and
// applies it whole — one install, one epoch, whatever its size — so
// both sides produce bit-identical snapshots with identical epoch ids.
// The InstallRequest's expected_* epochs make that assumption checked,
// not trusted: any divergence nacks (the replica keeps serving the
// epochs it has) instead of silently serving different weights.
// Installs are sequence-numbered per replica; a gap nacks with the
// needed seq and the router replays from its bounded log. A malformed
// install (undecodable, an edge out of range or a weight outside
// [1, kMaxEdgeWeight]) nacks without being applied.
#ifndef STL_DIST_REPLICA_NODE_H_
#define STL_DIST_REPLICA_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dist/replica.h"
#include "dist/wire.h"
#include "engine/sharded_engine.h"

namespace stl {

/// One served replica: ShardReplica (queries) + ShardedWriter (kInstall
/// replication). See file comment. Thread-safe: Handle may run
/// concurrently from server worker threads.
class ReplicaNode {
 public:
  /// Builds the writer from `graph` — which MUST be the same graph,
  /// hierarchy and writer options (backend, target_shards) the router
  /// was built with: epoch determinism is the replication contract —
  /// and installs its epoch-0 snapshot into the replica ring. Of
  /// `engine_options` only the fields ShardedWriter reads matter; the
  /// serving-side ones (threads, batch size, caches) are unused.
  ReplicaNode(Graph graph, const HierarchyOptions& hierarchy_options,
              const ShardedEngineOptions& engine_options,
              const ShardReplicaOptions& replica_options = {});

  /// Serves one encoded request: kInstall goes to the replication
  /// path, the query kinds to ShardReplica::Handle. Always returns an
  /// encoded response (nack / kUnavailable on malformed input).
  /// Matches FrameServer::Handler.
  std::vector<uint8_t> Handle(const uint8_t* data, size_t size);

  /// The query-serving replica (test observability: counters).
  ShardReplica* replica() { return &replica_; }

  /// Installs applied (acked ok) so far. Relaxed; test assertions.
  uint64_t installs_applied() const {
    return installs_applied_.load(std::memory_order_relaxed);
  }

  /// Installs nacked (gap, divergence or malformed). Relaxed.
  uint64_t install_nacks() const {
    return install_nacks_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<uint8_t> HandleInstall(const uint8_t* data, size_t size);

  ShardedWriter writer_;
  ShardReplica replica_;

  std::mutex install_mu_;  // serializes the apply/verify/install step
  // The writer's newest snapshot; guarded by install_mu_.
  std::shared_ptr<const ShardedSnapshot> current_;
  uint64_t next_seq_ = 0;  // guarded by install_mu_
  bool diverged_ = false;  // guarded by install_mu_; sticky

  std::atomic<uint64_t> installs_applied_{0};
  std::atomic<uint64_t> install_nacks_{0};
};

}  // namespace stl

#endif  // STL_DIST_REPLICA_NODE_H_
