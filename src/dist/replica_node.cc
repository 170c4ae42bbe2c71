#include "dist/replica_node.h"

#include <utility>

#include "engine/update_queue.h"

namespace stl {

ReplicaNode::ReplicaNode(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         const ShardedEngineOptions& engine_options,
                         const ShardReplicaOptions& replica_options)
    : writer_(std::move(graph), hierarchy_options, engine_options),
      replica_(replica_options),
      current_(writer_.PublishInitial(/*helpers=*/nullptr)) {
  // Epoch 0 is servable immediately; the router's seq-0 install only
  // verifies it.
  replica_.Install(current_);
}

std::vector<uint8_t> ReplicaNode::Handle(const uint8_t* data, size_t size) {
  WireKind kind = WireKind::kBoundaryRow;
  if (PeekWireKind(data, size, &kind).ok() && kind == WireKind::kInstall) {
    return HandleInstall(data, size);
  }
  // Query kinds — and malformed bytes, which ShardReplica::Handle
  // already answers with a typed kUnavailable response.
  return replica_.Handle(data, size);
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

  // One install is one epoch: the batch is coalesced as the router's
  // writer coalesced it and applied whole. Seq 0 carries no updates and
  // leaves the snapshot unchanged.
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
  if (!batch.empty()) replica_.Install(current_);
  ++next_seq_;
  ack.ok = true;
  ack.next_seq = next_seq_;
  installs_applied_.fetch_add(1, std::memory_order_relaxed);
  return ack.Encode();
}

}  // namespace stl
