// One shard replica of the distributed tier: holds a short ring of the
// most recently installed ShardedSnapshots and serves the two wire
// requests (boundary-distance rows, intra-cell point queries) against
// the exact snapshot whose shard_epoch the request pins. The replica
// never answers from a different epoch: a version it does not hold
// comes back as a typed kUnavailable so the router fails over to a
// sibling — epoch consistency is enforced where the data lives, not
// trusted to the caller.
//
// Snapshots are installed by the owning ReplicaNode (on each verified
// kInstall) and served concurrently by whatever thread the transport
// delivers requests on; a mutex guards only the ring itself — the
// served state is immutable, so the actual row/point computation runs
// outside the lock.
#ifndef STL_DIST_REPLICA_H_
#define STL_DIST_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/sharded_engine.h"

namespace stl {

/// Construction knobs for one shard replica.
struct ShardReplicaOptions {
  /// How many installed snapshots the replica keeps. A deeper ring lets
  /// long-running batches pinned to older epochs still be served; a
  /// ring of 1 models a replica that only ever holds the latest
  /// version (maximally strict staleness behaviour for tests).
  size_t epoch_ring = 8;
};

/// The query half of a replica: the server side of the two query
/// kinds of the wire protocol (dist/wire.h). Thread-safe: Install and
/// Handle may run concurrently from different threads.
class ShardReplica {
 public:
  /// A replica with an empty ring; Install() publishes versions to it.
  explicit ShardReplica(const ShardReplicaOptions& options = {});

  /// Installs `snap` as the newest held version, evicting the oldest
  /// beyond the epoch ring. `snap` must be newer than every held
  /// version (ReplicaNode installs each epoch once).
  void Install(std::shared_ptr<const ShardedSnapshot> snap);

  /// Serves one encoded ShardRequest and returns the encoded
  /// ShardResponse. Malformed requests, unknown shards/vertices and
  /// epochs the ring does not hold all come back as kUnavailable
  /// responses (never a wrong-epoch answer). Matches
  /// LoopbackTransport::Handler.
  std::vector<uint8_t> Handle(const uint8_t* data, size_t size);

  /// Requests answered kOk so far (relaxed; test assertions).
  uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  /// Requests rejected because the pinned shard_epoch was not held
  /// (stale or ahead of this replica), or were malformed.
  uint64_t requests_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Snapshots installed so far.
  uint64_t installs() const {
    return installs_.load(std::memory_order_relaxed);
  }

 private:
  /// Newest-first scan of the ring for a snapshot serving `shard` at
  /// exactly `shard_epoch`; null when none is held.
  std::shared_ptr<const ShardedSnapshot> FindEpoch(
      uint32_t shard, uint64_t shard_epoch) const;

  const ShardReplicaOptions options_;
  mutable std::mutex mu_;
  /// Held versions, oldest first (guarded by mu_; entries immutable).
  std::deque<std::shared_ptr<const ShardedSnapshot>> ring_;
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> installs_{0};
};

}  // namespace stl

#endif  // STL_DIST_REPLICA_H_
