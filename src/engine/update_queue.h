// The single-writer update-queue protocol shared by QueryEngine and
// ShardedEngine: thread-safe enqueue, slice draining, per-edge
// coalescing (later enqueues win, no-ops dropped), and the Flush()
// contract — callers of Flush() block until every update enqueued
// before the call has been fully applied by the writer.
//
// Factored out so the concurrency-sensitive part of the writer exists
// exactly once; the engines differ only in what "apply" means (one
// master index vs. per-shard repair + overlay rebuild).
#ifndef STL_ENGINE_UPDATE_QUEUE_H_
#define STL_ENGINE_UPDATE_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "engine/fault_injector.h"
#include "graph/updates.h"
#include "index/distance_index.h"

namespace stl {

/// Coalesces `updates`, in arrival order, to one update per edge: a
/// later update of an edge wins, the old weight comes from
/// `resolve_old` (the caller's master state, the only authority on
/// current weights; the inputs' old_weight fields are ignored), and an
/// update that leaves its edge's weight unchanged is dropped. Returns
/// the distinct, effective batch every ApplyBatch requires and adds the
/// number of dropped duplicates and no-ops to *dropped. The one
/// coalescer of the writer loop below and of replica installs
/// (dist/replica_node.h), so both cut an update stream identically.
UpdateBatch CoalesceUpdates(std::span<const WeightUpdate> updates,
                            const std::function<Weight(EdgeId)>& resolve_old,
                            uint64_t* dropped);

/// Thread-safe pending-update queue plus the writer-side drain loop.
/// Any thread may Enqueue/EnqueueMany/Flush/Stop; exactly one thread
/// runs RunWriter.
class UpdateQueue {
 public:
  /// Records one desired (edge, new weight) pair and wakes the writer.
  /// Validation (edge range, weight bounds) is the caller's job.
  void Enqueue(EdgeId edge, Weight new_weight);

  /// Enqueues many updates atomically (one lock, one writer wakeup):
  /// the writer cannot drain a partial prefix, so up to max_batch of
  /// them land in the same maintenance batch.
  void EnqueueMany(const std::vector<WeightUpdate>& updates);

  /// Blocks until every update enqueued before the call has been taken
  /// and fully applied by the writer.
  void Flush();

  /// Updates ever enqueued (for EngineStats::updates_enqueued).
  uint64_t enqueued() const;

  /// Updates taken from the queue and fully processed by the writer
  /// (applied, dropped as no-ops, or discarded by an injected apply
  /// failure). enqueued() - applied() is the writer's backlog — the
  /// signal the stall watchdog ages.
  uint64_t applied() const;

  /// Point-in-time writer backlog (enqueued() - applied()).
  uint64_t pending() const;

  /// Asks RunWriter to return once the queue is drained; wakes it.
  void Stop();

  /// The writer-thread body. Repeatedly: waits for work, takes a slice
  /// of up to `max_batch` pending updates, coalesces it through
  /// CoalesceUpdates with `resolve_old`, counts the dropped
  /// duplicates/no-ops into `coalesced`, and hands every non-empty
  /// batch to `apply`. Returns when Stop() was called and the queue is
  /// fully drained — so every Flush() issued before Stop() completes.
  /// When `faults` is non-null, the writer consults it at
  /// FaultSite::kWriterStall after taking each slice and sleeps the
  /// injector's delay when it fires (the stall the watchdog detects).
  void RunWriter(size_t max_batch,
                 const std::function<Weight(EdgeId)>& resolve_old,
                 const std::function<void(const UpdateBatch&)>& apply,
                 std::atomic<uint64_t>* coalesced,
                 FaultInjector* faults = nullptr);

 private:
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // writer wakeup
  std::condition_variable flush_cv_;  // Flush() wakeup
  std::deque<WeightUpdate> pending_;  // old_weight unused (resolved late)
  uint64_t enqueue_seq_ = 0;  // updates ever enqueued
  uint64_t applied_seq_ = 0;  // updates taken and fully applied
  bool stop_ = false;
};

/// Counters for how update batches were executed, shared by the
/// engines' stats plumbing (relaxed atomics: monitoring only).
struct BatchExecutionCounters {
  std::atomic<uint64_t> pareto{0};       ///< STL-P batches.
  std::atomic<uint64_t> label{0};        ///< STL-L batches.
  std::atomic<uint64_t> incremental{0};  ///< DCH / IncH2H batches.
  std::atomic<uint64_t> rebuild{0};      ///< Static-backend rebuilds.

  /// Bumps the counter matching `executed`.
  void Count(BatchExecution executed) {
    switch (executed) {
      case BatchExecution::kParetoSearch:
        pareto.fetch_add(1, std::memory_order_relaxed);
        break;
      case BatchExecution::kLabelSearch:
        label.fetch_add(1, std::memory_order_relaxed);
        break;
      case BatchExecution::kIncremental:
        incremental.fetch_add(1, std::memory_order_relaxed);
        break;
      case BatchExecution::kFullRebuild:
        rebuild.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  /// Zeroes every counter.
  void Reset() {
    pareto.store(0, std::memory_order_relaxed);
    label.store(0, std::memory_order_relaxed);
    incremental.store(0, std::memory_order_relaxed);
    rebuild.store(0, std::memory_order_relaxed);
  }
};

}  // namespace stl

#endif  // STL_ENGINE_UPDATE_QUEUE_H_
