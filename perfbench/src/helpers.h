// Pure helpers of the benchmark program: order statistics, the open-loop
// generator's lateness ledger, the epoch-weight replay the answer audit
// runs against, and the span recorder with its self-time reduction.
// Everything here is deterministic and unit-tested
// (tests/helpers_test.cc); the timed code lives in workloads.cc.
#ifndef PERFBENCH_HELPERS_H_
#define PERFBENCH_HELPERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/updates.h"

namespace perfbench {

/// One nearest-rank percentile: the value at rank ceil(q * n) of the
/// sorted sample, and how many samples lie strictly beyond that rank.
/// `beyond` is what says whether a tail percentile is supported: p90 of
/// 50 samples rests on 5 samples beyond it.
struct Quantile {
  double value = 0;
  size_t beyond = 0;
  size_t samples = 0;
};

/// Nearest-rank percentile of `sorted` (ascending), q in (0, 1]. An
/// empty sample gives a zero Quantile.
Quantile NearestRank(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (mean of the middle two for an even
/// count); 0 for an empty sample.
double Median(std::vector<double> values);

/// Closed-loop throughput that one host stall cannot move: splits
/// [start_ns, end_ns) into whole windows of `window_ns`, sums the
/// `weight` of the events completing in each (events at or after the
/// last whole window are ignored), and returns the median of the
/// per-window rates in units per second. 0 when no whole window fits.
double SubWindowMedianRate(const std::vector<int64_t>& event_ns,
                           const std::vector<uint32_t>& weight,
                           int64_t start_ns, int64_t end_ns,
                           int64_t window_ns);

/// A tail that host stalls hitting a few seconds of a run cannot move:
/// groups the samples by `time_ns` into whole windows of `window_ns`
/// from `start_ns`, takes the nearest-rank q-quantile of each window
/// holding at least `min_samples`, and returns the median of those
/// per-window quantiles (0 when no window qualifies).
double WindowedQuantile(const std::vector<int64_t>& time_ns,
                        const std::vector<double>& values, int64_t start_ns,
                        int64_t window_ns, double q, size_t min_samples);

/// How late an open-loop generator sent its requests.
struct Lateness {
  double mean_us = 0;
  double max_us = 0;
  /// Requests sent more than the threshold after their due time, and
  /// their share of all requests.
  size_t late = 0;
  double late_share = 0;
};

/// Lateness of each request = sent - due (negative values, sends ahead
/// of schedule, count as on time: 0).
Lateness SummarizeLateness(const std::vector<int64_t>& due_ns,
                           const std::vector<int64_t>& sent_ns,
                           int64_t late_threshold_ns);

/// Which sends of an open-loop generator the host, not the tier, made
/// late. The generator owns its CPU, so request r sent more than
/// `late_threshold_ns` after both its due time and the end of request
/// r-1's Submit call means that CPU was taken from the process. A send
/// delayed only because the previous Submit was slow is not flagged:
/// that wait is the tier's, and leaving it out would hide a blocking tier.
/// The three vectors are aligned per request, in send order.
std::vector<bool> HostDelayedSends(const std::vector<int64_t>& due_ns,
                                   const std::vector<int64_t>& sent_ns,
                                   const std::vector<int64_t>& submitted_ns,
                                   int64_t late_threshold_ns);

/// The weights every published epoch served, rebuilt from the seeded
/// update stream: epoch e is mapped to the number of batches applied
/// when it was current, and GraphAt replays that prefix on a copy of
/// the base graph. Only the base graph and the batches are kept, so
/// nothing snapshot-sized stays alive while the timed phase runs.
class EpochWeights {
 public:
  explicit EpochWeights(const stl::Graph& base) : base_(base) {}

  /// Declares that `epoch` serves the weights after the first
  /// `prefix` batches of the stream.
  void MapEpoch(uint64_t epoch, size_t prefix);

  /// Appends the next batch of the stream (desired new weights; the
  /// old_weight field is ignored).
  void AddBatch(stl::UpdateBatch batch) { batches_.push_back(std::move(batch)); }

  /// Writes epoch `epoch`'s weights into *out. False when the epoch was
  /// never mapped (an answer from an epoch the stream cannot explain).
  bool GraphAt(uint64_t epoch, stl::Graph* out) const;

 private:
  stl::Graph base_;
  std::vector<stl::UpdateBatch> batches_;
  std::map<uint64_t, size_t> prefix_of_epoch_;
};

/// One traced interval. Times are steady-clock nanoseconds; `parent`
/// indexes the span that
/// caused this one (kNoParent for a root); `request` groups the spans
/// of one request (or update batch, or replayed call).
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  uint32_t parent = kNoParent;
  uint16_t name = 0;
};

/// Fixed-capacity, thread-safe, in-memory span store. Spans past the
/// capacity are counted and dropped, never reallocated mid-run.
class SpanRecorder {
 public:
  SpanRecorder(std::vector<std::string> names, size_t capacity);

  /// Records one span and returns its index (Span::kNoParent when the
  /// store is full).
  uint32_t Add(uint16_t name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint64_t request);

  /// The spans recorded so far (call once writers are quiescent).
  std::vector<Span> Snapshot() const;

  const std::vector<std::string>& names() const { return names_; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Writes the spans as CSV (index,name,start_ns,end_ns,parent,request)
  /// to `path`. False on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  size_t capacity_;
  std::unique_ptr<Span[]> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped
/// to the parent). Aligned with `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per span name: the self times of its spans, in microseconds.
std::map<uint16_t, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HELPERS_H_
