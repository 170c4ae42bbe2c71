// Tests of the benchmark's own helpers: percentiles with their
// samples-beyond count, the sub-window median, open-loop lateness, the
// epoch-weight replay behind the audit, and span self time.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "helpers.h"

namespace perfbench {
namespace {

TEST(NearestRank, ValueAndSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Quantile p50 = NearestRank(v, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.beyond, 50u);
  const Quantile p90 = NearestRank(v, 0.9);
  EXPECT_EQ(p90.value, 90);
  EXPECT_EQ(p90.beyond, 10u);
  const Quantile p999 = NearestRank(v, 0.999);
  EXPECT_EQ(p999.value, 100);
  EXPECT_EQ(p999.beyond, 0u);
  EXPECT_EQ(p999.samples, 100u);
}

TEST(NearestRank, SmallAndEmptySamples) {
  EXPECT_EQ(NearestRank({}, 0.5).samples, 0u);
  const Quantile one = NearestRank({7.0}, 0.9);
  EXPECT_EQ(one.value, 7);
  EXPECT_EQ(one.beyond, 0u);
  // p90 of 50 samples rests on only 5 beyond it.
  std::vector<double> fifty(50, 1.0);
  EXPECT_EQ(NearestRank(fifty, 0.9).beyond, 5u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(SubWindowMedianRate, OneStalledWindowDoesNotMoveIt) {
  // 10 windows of 100 ms; 100 events each except window 3 (a stall: 0)
  // and window 7 (a burst after the stall: 200).
  std::vector<int64_t> t;
  const int64_t w = 100'000'000;
  for (int win = 0; win < 10; ++win) {
    const int n = win == 3 ? 0 : (win == 7 ? 200 : 100);
    for (int i = 0; i < n; ++i) t.push_back(win * w + i * (w / 250));
  }
  const std::vector<uint32_t> weight(t.size(), 2);
  EXPECT_DOUBLE_EQ(SubWindowMedianRate(t, weight, 0, 10 * w, w), 2000.0);
}

TEST(SubWindowMedianRate, PartialWindowAndOutOfRangeIgnored) {
  const int64_t w = 1'000'000'000;
  const std::vector<int64_t> t = {-5, 10, 20, w + 1, 2 * w + 5};
  const std::vector<uint32_t> weight(t.size(), 1);
  // [0, 2.5 s): two whole windows with 2 and 1 events; the event at 2 s
  // lies in the partial third window.
  EXPECT_DOUBLE_EQ(SubWindowMedianRate(t, weight, 0, 2 * w + w / 2, w), 1.5);
  EXPECT_EQ(SubWindowMedianRate(t, weight, 0, w / 2, w), 0);
}

TEST(WindowedQuantile, MedianOfPerWindowQuantiles) {
  // Five 1 s windows of 10 samples 1..10 (p90 = 9); window 2 holds a
  // host stall (every sample 1000) and window 4 only 3 samples (skipped).
  const int64_t w = 1'000'000'000;
  std::vector<int64_t> t;
  std::vector<double> v;
  for (int win = 0; win < 5; ++win) {
    const int n = win == 4 ? 3 : 10;
    for (int i = 1; i <= n; ++i) {
      t.push_back(win * w + i);
      v.push_back(win == 2 ? 1000 : i);
    }
  }
  // Windows 0, 1, 3 give 9; window 2 gives 1000: the median is 9.
  EXPECT_DOUBLE_EQ(WindowedQuantile(t, v, 0, w, 0.9, 5), 9.0);
  // With every window admitted the stalled one is still outvoted.
  EXPECT_DOUBLE_EQ(WindowedQuantile(t, v, 0, w, 0.5, 1), 5.0);
  EXPECT_EQ(WindowedQuantile(t, v, 0, w, 0.9, 100), 0);
}

TEST(Lateness, CountsOnlySendsAfterDue) {
  const std::vector<int64_t> due = {0, 1000, 2000, 3000};
  // On time, early, 50 us late, 250 us late.
  const std::vector<int64_t> sent = {0, 500, 52'000, 253'000};
  const Lateness l = SummarizeLateness(due, sent, 100'000);
  EXPECT_EQ(l.late, 1u);
  EXPECT_DOUBLE_EQ(l.late_share, 0.25);
  EXPECT_DOUBLE_EQ(l.max_us, 250.0);
  EXPECT_DOUBLE_EQ(l.mean_us, (50.0 + 250.0) / 4);
}

TEST(HostDelayedSends, KeepsTierWaitsAndFlagsHostStalls) {
  // Requests due every 1 ms; Submit normally takes 10 us.
  const std::vector<int64_t> due = {0, 1'000'000, 2'000'000, 3'000'000,
                                    4'000'000};
  const std::vector<int64_t> sent = {
      5'000,      // on time
      1'000'000,  // on time
      2'000'000,  // on time, but this Submit blocks until 2.9 ms
      2'900'000,  // 900 us late, only because the previous Submit was slow
      4'300'000,  // 300 us late with the previous Submit long done: host
  };
  const std::vector<int64_t> submitted = {15'000, 1'010'000, 2'900'000,
                                          2'910'000, 4'310'000};
  EXPECT_EQ(HostDelayedSends(due, sent, submitted, 100'000),
            (std::vector<bool>{false, false, false, false, true}));
}

TEST(HostDelayedSends, SlowSubmitPlusHostStallIsFlagged) {
  // Request 1 waits for request 0's slow Submit (ends at 1.5 ms), then
  // the host holds the generator another 200 us before sending it.
  const std::vector<int64_t> due = {0, 1'000'000};
  const std::vector<int64_t> sent = {0, 1'700'000};
  const std::vector<int64_t> submitted = {1'500'000, 1'710'000};
  EXPECT_EQ(HostDelayedSends(due, sent, submitted, 100'000),
            (std::vector<bool>{false, true}));
  EXPECT_TRUE(HostDelayedSends({}, {}, {}, 100'000).empty());
}

TEST(EpochWeights, ReplaysThePrefixOfEachEpoch) {
  const stl::Graph base = stl::GeneratePath(4, 10);  // edges 0-1, 1-2, 2-3
  EpochWeights weights(base);
  weights.MapEpoch(5, 0);
  weights.AddBatch({{0, 0, 40}, {2, 0, 40}});  // congest
  weights.MapEpoch(6, 1);
  weights.AddBatch({{0, 0, 10}, {2, 0, 10}});  // restore
  weights.MapEpoch(7, 2);

  stl::Graph g;
  ASSERT_TRUE(weights.GraphAt(6, &g));
  EXPECT_EQ(g.EdgeWeight(0), 40u);
  EXPECT_EQ(g.EdgeWeight(1), 10u);
  EXPECT_EQ(g.EdgeWeight(2), 40u);
  ASSERT_TRUE(weights.GraphAt(7, &g));
  EXPECT_EQ(g.EdgeWeight(0), 10u);
  ASSERT_TRUE(weights.GraphAt(5, &g));
  EXPECT_EQ(g.EdgeWeight(2), 10u);
  EXPECT_FALSE(weights.GraphAt(8, &g));
  // The base graph itself is never written.
  EXPECT_EQ(base.EdgeWeight(0), 10u);
}

TEST(SpanSelfTime, SubtractsTheUnionOfClippedChildren) {
  SpanRecorder rec({"request", "submit"}, 8);
  const uint32_t root = rec.Add(0, 0, 100, Span::kNoParent, 1);
  rec.Add(1, 10, 30, root, 1);   // 20 covered
  rec.Add(1, 20, 40, root, 1);   // overlaps: union 10..40 = 30
  rec.Add(1, 90, 150, root, 1);  // clipped to 90..100: 10 more
  const uint32_t lone = rec.Add(0, 200, 260, Span::kNoParent, 2);
  const std::vector<Span> spans = rec.Snapshot();
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[root], 100 - 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[lone], 60);
  const auto by_name = SelfTimesByName(spans);
  EXPECT_EQ(by_name.at(0).size(), 2u);
  EXPECT_DOUBLE_EQ(by_name.at(0)[0], 0.060);
}

TEST(SpanRecorder, DropsPastCapacity) {
  SpanRecorder rec({"x"}, 2);
  EXPECT_EQ(rec.Add(0, 0, 1, Span::kNoParent, 0), 0u);
  EXPECT_EQ(rec.Add(0, 0, 1, Span::kNoParent, 0), 1u);
  EXPECT_EQ(rec.Add(0, 0, 1, Span::kNoParent, 0), Span::kNoParent);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.Snapshot().size(), 2u);
}

}  // namespace
}  // namespace perfbench
