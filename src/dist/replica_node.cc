#include "dist/replica_node.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "engine/update_queue.h"

namespace stl {

ReplicaNode::ReplicaNode(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         const ShardedEngineOptions& engine_options,
                         const ReplicaNodeOptions& replica_options)
    : options_(replica_options),
      writer_(std::move(graph), hierarchy_options, engine_options),
      current_(writer_.PublishInitial(/*helpers=*/nullptr)) {
  uint32_t max_width = 0;
  for (const ShardLayout::Shard& shard : writer_.layout().shards) {
    max_width = std::max(max_width,
                         static_cast<uint32_t>(shard.boundary_local.size()));
  }
  row_cache_.Init(engine_options.boundary_row_cache_entries, max_width);
  // Epoch 0 is servable immediately; the router's seq-0 install only
  // verifies it.
  ring_.push_back(current_);
}

std::vector<uint8_t> ReplicaNode::Handle(const uint8_t* data, size_t size) {
  WireKind kind = WireKind::kPointQuery;
  if (PeekWireKind(data, size, &kind).ok() && kind == WireKind::kInstall) {
    return HandleInstall(data, size);
  }
  // Queries — and every other kind or malformed bytes, which the query
  // path answers with a typed kUnavailable.
  return HandleQuery(data, size);
}

std::shared_ptr<const ShardedSnapshot> ReplicaNode::FindEpoch(
    uint64_t engine_epoch) const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if ((*it)->epoch == engine_epoch) return *it;
  }
  return nullptr;
}

std::vector<uint8_t> ReplicaNode::HandleQuery(const uint8_t* data,
                                              size_t size) {
  QueryRequest req;
  QueryResponse resp;
  resp.code = StatusCode::kUnavailable;
  if (!QueryRequest::Decode(data, size, &req).ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return resp.Encode();
  }
  resp.engine_epoch = req.engine_epoch;
  // The layout is immutable, so ids are checked before any snapshot is
  // pinned.
  const size_t n = writer_.layout().shard_of_vertex.size();
  for (const QueryPair& q : req.pairs) {
    if (q.first >= n || q.second >= n) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return resp.Encode();
    }
  }
  // Pin the exact requested epoch; the route below runs on immutable
  // state outside the ring lock.
  const std::shared_ptr<const ShardedSnapshot> snap =
      FindEpoch(req.engine_epoch);
  if (snap == nullptr) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return resp.Encode();
  }
  std::vector<uint32_t> idx(req.pairs.size());
  std::iota(idx.begin(), idx.end(), 0u);
  resp.code = StatusCode::kOk;
  resp.distances.resize(req.pairs.size());
  RouteLocalSpan(*snap, req.pairs.data(), idx.data(), idx.size(),
                 resp.distances.data(), &row_cache_);
  served_.fetch_add(1, std::memory_order_relaxed);
  return resp.Encode();
}

std::vector<uint8_t> ReplicaNode::HandleInstall(const uint8_t* data,
                                                size_t size) {
  InstallAck ack;
  InstallRequest req;
  std::lock_guard<std::mutex> lock(install_mu_);
  ack.next_seq = next_seq_;
  ack.engine_epoch = current_->epoch;
  bool well_formed = InstallRequest::Decode(data, size, &req).ok();
  for (const WeightUpdate& u : req.updates) {
    well_formed = well_formed && u.edge < writer_.NumEdges() &&
                  u.new_weight >= 1 && u.new_weight <= kMaxEdgeWeight;
  }
  if (!well_formed || diverged_) {
    install_nacks_.fetch_add(1, std::memory_order_relaxed);
    return ack.Encode();
  }
  if (req.seq < next_seq_) {
    // Already applied (router retry after a lost ack): idempotent ok.
    ack.ok = true;
    return ack.Encode();
  }
  if (req.seq > next_seq_) {
    // Gap: the router must replay from next_seq_.
    install_nacks_.fetch_add(1, std::memory_order_relaxed);
    return ack.Encode();
  }

  // One install is one epoch: the batch is coalesced as the router
  // coalesced it and applied whole. Seq 0 carries no updates and leaves
  // the snapshot unchanged.
  uint64_t dropped = 0;
  const UpdateBatch batch = CoalesceUpdates(
      req.updates, [this](EdgeId e) { return writer_.EdgeWeight(e); },
      &dropped);
  if (!batch.empty()) current_ = writer_.Apply(batch, /*helpers=*/nullptr);
  const ShardedSnapshot& snap = *current_;
  bool matches = snap.epoch == req.expected_engine_epoch &&
                 req.expected_shard_epochs.size() == snap.shards.size();
  for (size_t i = 0; matches && i < snap.shards.size(); ++i) {
    matches = snap.shards[i]->shard_epoch == req.expected_shard_epochs[i];
  }
  ack.engine_epoch = snap.epoch;
  if (!matches) {
    // The state machines diverged — by construction this cannot happen
    // with identical (graph, options, update stream); if it does, stop
    // applying and keep serving the epochs already held (never wrong
    // bytes, only typed staleness).
    diverged_ = true;
    install_nacks_.fetch_add(1, std::memory_order_relaxed);
    return ack.Encode();
  }
  if (!batch.empty()) {
    std::lock_guard<std::mutex> ring_lock(ring_mu_);
    ring_.push_back(current_);
    while (ring_.size() > std::max<size_t>(options_.epoch_ring, 1)) {
      ring_.pop_front();
    }
  }
  ++next_seq_;
  ack.ok = true;
  ack.next_seq = next_seq_;
  installs_applied_.fetch_add(1, std::memory_order_relaxed);
  return ack.Encode();
}

}  // namespace stl
