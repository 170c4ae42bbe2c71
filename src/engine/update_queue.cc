#include "engine/update_queue.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

namespace stl {

UpdateBatch CoalesceUpdates(std::span<const WeightUpdate> updates,
                            const std::function<Weight(EdgeId)>& resolve_old,
                            uint64_t* dropped) {
  // Later updates win, matching apply-one-at-a-time order.
  UpdateBatch batch;
  batch.reserve(updates.size());
  std::unordered_map<EdgeId, size_t> slot_of_edge;
  for (const WeightUpdate& u : updates) {
    auto [it, inserted] = slot_of_edge.try_emplace(u.edge, batch.size());
    if (!inserted) {
      batch[it->second].new_weight = u.new_weight;
      ++*dropped;
      continue;
    }
    batch.push_back(WeightUpdate{u.edge, resolve_old(u.edge), u.new_weight});
  }
  std::erase_if(batch, [dropped](const WeightUpdate& u) {
    const bool noop = u.old_weight == u.new_weight;
    *dropped += noop;
    return noop;
  });
  return batch;
}

void UpdateQueue::Enqueue(EdgeId edge, Weight new_weight) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(WeightUpdate{edge, 0, new_weight});
    ++enqueue_seq_;
  }
  work_cv_.notify_one();
}

void UpdateQueue::EnqueueMany(const std::vector<WeightUpdate>& updates) {
  if (updates.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const WeightUpdate& u : updates) {
      pending_.push_back(u);
    }
    enqueue_seq_ += updates.size();
  }
  work_cv_.notify_one();
}

void UpdateQueue::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = enqueue_seq_;
  flush_cv_.wait(lock, [this, target] { return applied_seq_ >= target; });
}

uint64_t UpdateQueue::enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueue_seq_;
}

uint64_t UpdateQueue::applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_seq_;
}

uint64_t UpdateQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueue_seq_ - applied_seq_;
}

void UpdateQueue::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
}

void UpdateQueue::RunWriter(
    size_t max_batch, const std::function<Weight(EdgeId)>& resolve_old,
    const std::function<void(const UpdateBatch&)>& apply,
    std::atomic<uint64_t>* coalesced_total, FaultInjector* faults) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return !pending_.empty() || stop_; });
    if (pending_.empty()) return;  // stop requested and fully drained
    const size_t take = std::min(max_batch, pending_.size());
    std::vector<WeightUpdate> taken(pending_.begin(),
                                    pending_.begin() + take);
    pending_.erase(pending_.begin(), pending_.begin() + take);
    lock.unlock();

    // Stall site: the slice is taken (so it counts as backlog for the
    // watchdog) but not yet applied. Stalling here is exactly the
    // failure the epoch-age watchdog is built to detect.
    if (faults != nullptr && faults->Fire(FaultSite::kWriterStall)) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          faults->DelayMicros(FaultSite::kWriterStall)));
    }

    uint64_t coalesced = 0;
    const UpdateBatch batch = CoalesceUpdates(taken, resolve_old, &coalesced);
    if (!batch.empty()) apply(batch);
    coalesced_total->fetch_add(coalesced, std::memory_order_relaxed);

    lock.lock();
    applied_seq_ += take;
    flush_cv_.notify_all();
  }
}

}  // namespace stl
