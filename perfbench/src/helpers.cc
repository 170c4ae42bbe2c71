#include "helpers.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

Quantile NearestRank(const std::vector<double>& sorted, double q) {
  Quantile out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const double exact = q * static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SubWindowMedianRate(const std::vector<int64_t>& event_ns,
                           const std::vector<uint32_t>& weight,
                           int64_t start_ns, int64_t end_ns,
                           int64_t window_ns) {
  if (window_ns <= 0 || end_ns <= start_ns) return 0;
  const int64_t windows = (end_ns - start_ns) / window_ns;
  if (windows <= 0) return 0;
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (size_t i = 0; i < event_ns.size(); ++i) {
    if (event_ns[i] < start_ns) continue;
    const int64_t w = (event_ns[i] - start_ns) / window_ns;
    if (w >= windows) continue;
    counts[static_cast<size_t>(w)] += weight[i];
  }
  const double seconds = static_cast<double>(window_ns) * 1e-9;
  for (double& c : counts) c /= seconds;
  return Median(std::move(counts));
}

double WindowedQuantile(const std::vector<int64_t>& time_ns,
                        const std::vector<double>& values, int64_t start_ns,
                        int64_t window_ns, double q, size_t min_samples) {
  if (window_ns <= 0) return 0;
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < time_ns.size() && i < values.size(); ++i) {
    if (time_ns[i] < start_ns) continue;
    windows[(time_ns[i] - start_ns) / window_ns].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [index, v] : windows) {
    if (v.size() < min_samples) continue;
    std::sort(v.begin(), v.end());
    per_window.push_back(NearestRank(v, q).value);
  }
  return Median(std::move(per_window));
}

Lateness SummarizeLateness(const std::vector<int64_t>& due_ns,
                           const std::vector<int64_t>& sent_ns,
                           int64_t late_threshold_ns) {
  Lateness out;
  const size_t n = std::min(due_ns.size(), sent_ns.size());
  if (n == 0) return out;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t late = std::max<int64_t>(0, sent_ns[i] - due_ns[i]);
    sum += static_cast<double>(late);
    out.max_us = std::max(out.max_us, static_cast<double>(late) * 1e-3);
    if (late > late_threshold_ns) ++out.late;
  }
  out.mean_us = sum / static_cast<double>(n) * 1e-3;
  out.late_share = static_cast<double>(out.late) / static_cast<double>(n);
  return out;
}

std::vector<bool> HostDelayedSends(const std::vector<int64_t>& due_ns,
                                   const std::vector<int64_t>& sent_ns,
                                   const std::vector<int64_t>& submitted_ns,
                                   int64_t late_threshold_ns) {
  const size_t n =
      std::min({due_ns.size(), sent_ns.size(), submitted_ns.size()});
  std::vector<bool> out(n);
  int64_t previous_submit_end = INT64_MIN;
  for (size_t r = 0; r < n; ++r) {
    const int64_t free_at = std::max(due_ns[r], previous_submit_end);
    out[r] = sent_ns[r] - free_at > late_threshold_ns;
    previous_submit_end = submitted_ns[r];
  }
  return out;
}

void EpochWeights::MapEpoch(uint64_t epoch, size_t prefix) {
  prefix_of_epoch_.emplace(epoch, prefix);
}

bool EpochWeights::GraphAt(uint64_t epoch, stl::Graph* out) const {
  const auto it = prefix_of_epoch_.find(epoch);
  if (it == prefix_of_epoch_.end() || it->second > batches_.size()) {
    return false;
  }
  *out = base_;
  for (size_t b = 0; b < it->second; ++b) {
    for (const stl::WeightUpdate& u : batches_[b]) {
      out->SetEdgeWeight(u.edge, u.new_weight);
    }
  }
  return true;
}

SpanRecorder::SpanRecorder(std::vector<std::string> names, size_t capacity)
    : names_(std::move(names)),
      capacity_(capacity),
      spans_(new Span[capacity]) {}

uint32_t SpanRecorder::Add(uint16_t name, int64_t start_ns, int64_t end_ns,
                           uint32_t parent, uint64_t request) {
  const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return Span::kNoParent;
  }
  spans_[slot] = Span{start_ns, end_ns, request, parent, name};
  return static_cast<uint32_t>(slot);
}

std::vector<Span> SpanRecorder::Snapshot() const {
  const size_t n =
      std::min(next_.load(std::memory_order_acquire), capacity_);
  return std::vector<Span>(spans_.get(), spans_.get() + n);
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index,name,start_ns,end_ns,parent,request\n");
  const std::vector<Span> spans = Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const long long parent =
        s.parent == Span::kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f, "%zu,%s,%" PRId64 ",%" PRId64 ",%lld,%" PRIu64 "\n", i,
                 names_[s.name].c_str(), s.start_ns, s.end_ns, parent,
                 s.request);
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children grouped by parent, each group's intervals merged after
  // clipping to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent < spans.size()) {
      const Span& p = spans[s.parent];
      const int64_t a = std::max(s.start_ns, p.start_ns);
      const int64_t b = std::min(s.end_ns, p.end_ns);
      if (a < b) children[s.parent].emplace_back(a, b);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = INT64_MIN;
    for (const auto& [a, b] : kids) {
      if (a > run_end) {
        if (run_end != INT64_MIN) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end != INT64_MIN) covered += run_end - run_start;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              covered;
  }
  return self;
}

std::map<uint16_t, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<uint16_t, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(static_cast<double>(self[i]) * 1e-3);
  }
  return out;
}

}  // namespace perfbench
