#include "dist/replica.h"

#include <utility>

#include "dist/wire.h"
#include "partition/cells.h"

namespace stl {

namespace {

/// Encodes the one failure shape the replica ever sends: the request's
/// pinned (shard, shard_epoch) echoed back with code kUnavailable.
std::vector<uint8_t> Unavailable(uint32_t shard, uint64_t shard_epoch) {
  ShardResponse resp;
  resp.code = StatusCode::kUnavailable;
  resp.shard = shard;
  resp.shard_epoch = shard_epoch;
  return resp.Encode();
}

}  // namespace

ShardReplica::ShardReplica(const ShardReplicaOptions& options)
    : options_(options) {}

void ShardReplica::Install(std::shared_ptr<const ShardedSnapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(snap));
  while (ring_.size() > std::max<size_t>(options_.epoch_ring, 1)) {
    ring_.pop_front();
  }
  installs_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const ShardedSnapshot> ShardReplica::FindEpoch(
    uint32_t shard, uint64_t shard_epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    const std::shared_ptr<const ShardedSnapshot>& snap = *it;
    if (shard < snap->shards.size() &&
        snap->shards[shard]->shard_epoch == shard_epoch) {
      return snap;
    }
  }
  return nullptr;
}

std::vector<uint8_t> ShardReplica::Handle(const uint8_t* data,
                                          size_t size) {
  ShardRequest req;
  if (!ShardRequest::Decode(data, size, &req).ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Unavailable(0, 0);
  }
  // Pin the exact requested version; the computation below runs on
  // immutable state outside the ring lock.
  std::shared_ptr<const ShardedSnapshot> snap =
      FindEpoch(req.shard, req.shard_epoch);
  if (snap == nullptr) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Unavailable(req.shard, req.shard_epoch);
  }
  const ShardLayout& lay = *snap->layout;
  const IndexView& view = *snap->shards[req.shard]->view;

  ShardResponse resp;
  resp.shard = req.shard;
  resp.shard_epoch = req.shard_epoch;
  switch (req.kind) {
    case WireKind::kBoundaryRow: {
      // The request's vertex must be owned by the pinned shard — the
      // row is defined on that shard's local renumbering.
      if (req.u >= lay.shard_of_vertex.size() ||
          lay.shard_of_vertex[req.u] != req.shard) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Unavailable(req.shard, req.shard_epoch);
      }
      FillShardBoundaryRow(lay, req.shard, view, req.u, &resp.row);
      break;
    }
    case WireKind::kPointQuery: {
      if (req.u >= lay.shard_of_vertex.size() ||
          req.v >= lay.shard_of_vertex.size() ||
          lay.shard_of_vertex[req.u] != req.shard ||
          lay.shard_of_vertex[req.v] != req.shard) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return Unavailable(req.shard, req.shard_epoch);
      }
      resp.distance = view.Query(lay.local_of_vertex[req.u],
                                 lay.local_of_vertex[req.v]);
      break;
    }
    case WireKind::kInstall:  // ShardRequest::Decode never yields it
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Unavailable(req.shard, req.shard_epoch);
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  return resp.Encode();
}

}  // namespace stl
