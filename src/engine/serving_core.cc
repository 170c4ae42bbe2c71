#include "engine/serving_core.h"

namespace stl {

// ----------------------------------------------------- CompletionQueue

void CompletionQueue::Deliver(const Completion& done) {
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(done);
  // Notify while holding the lock: a poller can then not consume the
  // last completion and destroy this queue before the notify call has
  // finished touching the condition variable (the caller-owned-queue
  // teardown race).
  ready_cv_.notify_one();
}

size_t CompletionQueue::Poll(Completion* out, size_t max_completions) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  while (n < max_completions && !done_.empty()) {
    out[n++] = done_.front();
    done_.pop_front();
  }
  return n;
}

size_t CompletionQueue::WaitPoll(Completion* out, size_t max_completions) {
  std::unique_lock<std::mutex> lock(mu_);
  ready_cv_.wait(lock, [this] { return !done_.empty(); });
  size_t n = 0;
  while (n < max_completions && !done_.empty()) {
    out[n++] = done_.front();
    done_.pop_front();
  }
  return n;
}

size_t CompletionQueue::WaitPoll(Completion* out, size_t max_completions,
                                 std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout.count() > 0) {
    ready_cv_.wait_for(lock, timeout, [this] { return !done_.empty(); });
  }
  size_t n = 0;
  while (n < max_completions && !done_.empty()) {
    out[n++] = done_.front();
    done_.pop_front();
  }
  return n;
}

size_t CompletionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

// ------------------------------------------- WriterCounters, ServingCounters

void WriterCounters::FillStats(EngineStats* s) const {
  s->updates_applied = updates_applied.load(std::memory_order_relaxed);
  s->epochs_published = epochs_published.load(std::memory_order_relaxed);
  s->batches_pareto =
      batch_counters.pareto.load(std::memory_order_relaxed);
  s->batches_label = batch_counters.label.load(std::memory_order_relaxed);
  s->batches_incremental =
      batch_counters.incremental.load(std::memory_order_relaxed);
  s->batches_rebuild =
      batch_counters.rebuild.load(std::memory_order_relaxed);
  s->label_pages_cloned =
      label_pages_cloned.load(std::memory_order_relaxed);
  s->graph_chunks_cloned =
      graph_chunks_cloned.load(std::memory_order_relaxed);
  s->cow_bytes_cloned = cow_bytes_cloned.load(std::memory_order_relaxed);
  s->publish_bytes_deep_copied =
      publish_bytes_deep_copied.load(std::memory_order_relaxed);
  s->publish_total_micros =
      static_cast<double>(publish_nanos.load(std::memory_order_relaxed)) /
      1e3;
}

void WriterCounters::Reset() {
  updates_applied.store(0, std::memory_order_relaxed);
  epochs_published.store(0, std::memory_order_relaxed);
  batch_counters.Reset();
  label_pages_cloned.store(0, std::memory_order_relaxed);
  graph_chunks_cloned.store(0, std::memory_order_relaxed);
  cow_bytes_cloned.store(0, std::memory_order_relaxed);
  publish_bytes_deep_copied.store(0, std::memory_order_relaxed);
  publish_nanos.store(0, std::memory_order_relaxed);
}

void ServingCounters::FillStats(EngineStats* s) const {
  s->queries_served = queries_served.load(std::memory_order_relaxed);
  s->updates_coalesced =
      updates_coalesced.load(std::memory_order_relaxed);
  s->query_batches_submitted =
      query_batches_submitted.load(std::memory_order_relaxed);
  s->batched_queries = batched_queries.load(std::memory_order_relaxed);
  s->queries_shed = queries_shed.load(std::memory_order_relaxed);
  s->batches_shed = batches_shed.load(std::memory_order_relaxed);
  s->queries_deadline_exceeded =
      queries_deadline_exceeded.load(std::memory_order_relaxed);
  s->queries_unavailable =
      queries_unavailable.load(std::memory_order_relaxed);
  s->apply_failures = apply_failures.load(std::memory_order_relaxed);
  s->completions_retried =
      completions_retried.load(std::memory_order_relaxed);
  s->degraded_entries = degraded_entries.load(std::memory_order_relaxed);
  s->wall_seconds = wall.ElapsedSeconds();
  s->queries_per_second =
      s->wall_seconds > 0
          ? static_cast<double>(s->queries_served) / s->wall_seconds
          : 0;
  s->latency_mean_micros = latency.MeanMicros();
  s->latency_p50_micros = latency.QuantileMicros(0.5);
  s->latency_p99_micros = latency.QuantileMicros(0.99);
  s->latency_max_micros = latency.MaxMicros();
}

void ServingCounters::Reset() {
  queries_served.store(0, std::memory_order_relaxed);
  updates_coalesced.store(0, std::memory_order_relaxed);
  query_batches_submitted.store(0, std::memory_order_relaxed);
  batched_queries.store(0, std::memory_order_relaxed);
  queries_shed.store(0, std::memory_order_relaxed);
  batches_shed.store(0, std::memory_order_relaxed);
  queries_deadline_exceeded.store(0, std::memory_order_relaxed);
  queries_unavailable.store(0, std::memory_order_relaxed);
  apply_failures.store(0, std::memory_order_relaxed);
  completions_retried.store(0, std::memory_order_relaxed);
  degraded_entries.store(0, std::memory_order_relaxed);
  latency.Reset();
  wall.Restart();
}

}  // namespace stl
