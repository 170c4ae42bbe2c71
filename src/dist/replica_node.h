// The server side of a replica: one ReplicaNode is what a
// replica_server process (examples/replica_server.cpp), an in-process
// FrameServer or a LoopbackTransport endpoint (MakeLoopbackCluster,
// dist/shard_router.h) serves. It bundles the query half — a
// ShardReplica ring answering boundary-row / point-query requests —
// with the replication half: an inner ShardedEngine that applies
// kInstall update batches shipped by the router.
//
// Replication is state-machine style: router and replica construct
// identical engines from the identical graph and options, so applying
// the identical coalesced update batches in the identical order yields
// bit-identical snapshots with identical epoch ids on both sides. The
// InstallRequest's expected_* epochs make that assumption checked, not
// trusted: any divergence nacks (the replica keeps serving the epochs
// it has) instead of silently serving different weights. Installs are
// sequence-numbered per replica; a gap nacks with the needed seq and
// the router replays from its bounded log.
#ifndef STL_DIST_REPLICA_NODE_H_
#define STL_DIST_REPLICA_NODE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "dist/replica.h"
#include "dist/wire.h"
#include "engine/sharded_engine.h"

namespace stl {

/// One served replica: ShardReplica (queries) + inner engine
/// (kInstall replication). See file comment. Thread-safe: Handle may
/// run concurrently from server worker threads.
class ReplicaNode {
 public:
  /// Builds the inner engine from `graph` — which MUST be the same
  /// graph, hierarchy and engine options the router was built with
  /// (epoch determinism is the replication contract) — and installs
  /// its initial snapshot into the replica ring.
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

  ShardedEngine engine_;
  ShardReplica replica_;

  std::mutex install_mu_;   // serializes the apply/verify/install step
  uint64_t next_seq_ = 0;   // guarded by install_mu_
  bool diverged_ = false;   // guarded by install_mu_; sticky

  std::atomic<uint64_t> installs_applied_{0};
  std::atomic<uint64_t> install_nacks_{0};
};

}  // namespace stl

#endif  // STL_DIST_REPLICA_NODE_H_
