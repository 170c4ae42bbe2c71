// Overload-hardening and fault-injection tests for the serving stack:
// bounded admission (reject-new / shed-oldest), per-query and per-batch
// deadlines, the writer-stall watchdog / degraded mode, the bounded
// shutdown drain, completion-queue teardown, and the chaos suite that
// arms every FaultSite at once across all four backends and asserts the
// robustness invariants: every tag delivered exactly once, every
// ANSWERED query exact for its epoch, and full recovery once the
// faults clear. Runs under TSan in CI (fixed seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "dist/loopback_transport.h"
#include "dist/replica_node.h"
#include "dist/shard_router.h"
#include "dist/socket_transport.h"
#include "engine/fault_injector.h"
#include "net/server.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "graph/dijkstra.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/query_workload.h"

namespace stl {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// --------------------------------------------------- fault injector

TEST(FaultInjectorTest, DisarmedNeverFires) {
  SeededFaultInjector faults(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(faults.Fire(FaultSite::kReaderDelay));
  }
  EXPECT_EQ(faults.fired(FaultSite::kReaderDelay), 0u);
}

TEST(FaultInjectorTest, RateOneAlwaysFires) {
  SeededFaultInjector faults(2);
  faults.SetRate(FaultSite::kApplyFailure, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(faults.Fire(FaultSite::kApplyFailure));
  }
  EXPECT_EQ(faults.fired(FaultSite::kApplyFailure), 100u);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  SeededFaultInjector a(42), b(42), c(43);
  for (SeededFaultInjector* f : {&a, &b, &c}) {
    f->SetRate(FaultSite::kWriterStall, 0.3);
  }
  std::vector<bool> fa, fb, fc;
  for (int i = 0; i < 2000; ++i) {
    fa.push_back(a.Fire(FaultSite::kWriterStall));
    fb.push_back(b.Fire(FaultSite::kWriterStall));
    fc.push_back(c.Fire(FaultSite::kWriterStall));
  }
  EXPECT_EQ(fa, fb);           // same seed -> identical schedule
  EXPECT_NE(fa, fc);           // different seed -> different schedule
  // The rate is roughly honoured (0.3 +- generous slack on 2000 visits).
  EXPECT_GT(a.fired(FaultSite::kWriterStall), 400u);
  EXPECT_LT(a.fired(FaultSite::kWriterStall), 800u);
}

TEST(FaultInjectorTest, VisitsCountWhileDisarmedSoReArmingContinues) {
  // The fire schedule is a pure function of (seed, site, visit index):
  // a run that disarms the site for a while and re-arms it must see the
  // same decisions at the same visit indices as an always-armed run.
  SeededFaultInjector armed(7), gated(7);
  armed.SetRate(FaultSite::kReaderDelay, 0.5);
  std::vector<bool> expected;
  for (int i = 0; i < 300; ++i) {
    expected.push_back(armed.Fire(FaultSite::kReaderDelay));
  }
  gated.SetRate(FaultSite::kReaderDelay, 0.5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gated.Fire(FaultSite::kReaderDelay), expected[i]) << i;
  }
  gated.Clear();  // disarm: visits 100..199 never fire but still count
  for (int i = 100; i < 200; ++i) {
    EXPECT_FALSE(gated.Fire(FaultSite::kReaderDelay));
  }
  gated.SetRate(FaultSite::kReaderDelay, 0.5);
  for (int i = 200; i < 300; ++i) {
    EXPECT_EQ(gated.Fire(FaultSite::kReaderDelay), expected[i]) << i;
  }
}

// ------------------------------------------------- completion queue

TEST(CompletionQueueTest, TimedWaitPollPastDeadlineNeverBlocks) {
  CompletionQueue queue;
  Completion out[4];
  // Empty queue + zero / negative timeout: returns immediately with 0.
  EXPECT_EQ(queue.WaitPoll(out, 4, milliseconds(0)), 0u);
  EXPECT_EQ(queue.WaitPoll(out, 4, milliseconds(-50)), 0u);
  // Non-empty queue + past deadline: degenerates to Poll().
  Completion done;
  done.tag = 9;
  queue.Deliver(done);
  EXPECT_EQ(queue.WaitPoll(out, 4, milliseconds(0)), 1u);
  EXPECT_EQ(out[0].tag, 9u);
}

TEST(CompletionQueueTest, TimedWaitPollTimesOutEmpty) {
  CompletionQueue queue;
  Completion out[1];
  const auto start = steady_clock::now();
  EXPECT_EQ(queue.WaitPoll(out, 1, milliseconds(30)), 0u);
  EXPECT_GE(steady_clock::now() - start, milliseconds(25));
}

TEST(CompletionQueueTest, TimedWaitPollWakesOnDelivery) {
  CompletionQueue queue;
  std::thread producer([&queue] {
    std::this_thread::sleep_for(milliseconds(10));
    Completion done;
    done.tag = 5;
    queue.Deliver(done);
  });
  Completion out[1];
  EXPECT_EQ(queue.WaitPoll(out, 1, milliseconds(5000)), 1u);
  EXPECT_EQ(out[0].tag, 5u);
  producer.join();
}

TEST(CompletionQueueTest, TeardownWithUndrainedCompletions) {
  // Completions left in the queue at destruction are simply dropped —
  // no leak, no crash, no touching freed state (ASan/TSan guard this).
  auto queue = std::make_unique<CompletionQueue>();
  for (uint64_t i = 0; i < 64; ++i) {
    Completion done;
    done.tag = i;
    queue->Deliver(done);
  }
  EXPECT_EQ(queue->size(), 64u);
  queue.reset();
}

TEST(CompletionQueueTest, EngineTeardownDeliversEveryPendingTag) {
  // Destroy an engine with tagged work still in flight; the queue
  // outlives it and must end up with every tag exactly once.
  Graph g = testing_util::SmallRoadNetwork(5, 91);
  const uint32_t n = g.NumVertices();
  CompletionQueue queue;
  constexpr uint64_t kTags = 200;
  {
    EngineOptions opt;
    opt.num_query_threads = 2;
    QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
    Rng rng(91);
    for (uint64_t tag = 0; tag < kTags; ++tag) {
      engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                           static_cast<Vertex>(rng.NextBounded(n))},
                          tag, &queue);
    }
    // Engine destructor drains: every submitted tag must be delivered
    // before the readers join.
  }
  std::set<uint64_t> seen;
  Completion out[32];
  size_t got;
  while ((got = queue.Poll(out, 32)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      EXPECT_TRUE(seen.insert(out[i].tag).second)
          << "tag " << out[i].tag << " delivered twice";
    }
  }
  EXPECT_EQ(seen.size(), kTags);
}

// -------------------------------------------------------- admission

// A sink that records every delivery under a lock (tests only).
class RecordingSink : public CompletionSink {
 public:
  void Deliver(const Completion& done) override {
    std::lock_guard<std::mutex> lock(mu_);
    completions_.push_back(done);
  }
  std::vector<Completion> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return completions_;
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return completions_.size();
  }

 private:
  std::mutex mu_;
  std::vector<Completion> completions_;
};

// One slow reader + a tight admission bound: the overflow must complete
// kOverloaded instead of queueing without bound, and every future must
// still resolve (exactly-once for promises).
TEST(AdmissionTest, RejectNewShedsOverflowQueries) {
  Graph g = testing_util::SmallRoadNetwork(5, 17);
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(17);
  faults.SetRate(FaultSite::kReaderDelay, 1.0);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 3000);
  EngineOptions opt;
  opt.num_query_threads = 1;
  opt.serving.max_queued_queries = 4;
  opt.serving.admission_policy = AdmissionPolicy::kRejectNew;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  Rng rng(17);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(
        engine.Submit({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))}));
  }
  size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    QueryResult r = f.get();
    if (r.code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.code, StatusCode::kOverloaded);
      EXPECT_EQ(r.distance, kInfDistance);
      EXPECT_FALSE(r.status().ok());
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 64u);
  EXPECT_GT(shed, 0u) << "bound 4 + 3ms/query reader must overflow";
  EXPECT_GT(ok, 0u) << "admitted work must still be answered";
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_shed, shed);
  EXPECT_EQ(stats.queries_served, ok);
}

TEST(AdmissionTest, ShedOldestFavorsFreshQueries) {
  Graph g = testing_util::SmallRoadNetwork(5, 18);
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(18);
  faults.SetRate(FaultSite::kReaderDelay, 1.0);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 3000);
  EngineOptions opt;
  opt.num_query_threads = 1;
  opt.serving.max_queued_queries = 4;
  opt.serving.admission_policy = AdmissionPolicy::kShedOldest;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  Rng rng(18);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(
        engine.Submit({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))}));
  }
  std::vector<StatusCode> codes;
  for (auto& f : futures) codes.push_back(f.get().code);
  const size_t shed = static_cast<size_t>(
      std::count(codes.begin(), codes.end(), StatusCode::kOverloaded));
  EXPECT_GT(shed, 0u);
  // Shed-oldest sheds work from the FRONT of the queue: the last
  // submissions are the freshest and must survive to be answered.
  EXPECT_EQ(codes.back(), StatusCode::kOk);
}

TEST(AdmissionTest, RejectNewFailsWholeBatchExactlyOnce) {
  Graph g = testing_util::SmallRoadNetwork(5, 19);
  SeededFaultInjector faults(19);
  faults.SetRate(FaultSite::kReaderDelay, 1.0);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 5000);
  EngineOptions opt;
  opt.num_query_threads = 1;
  opt.serving.max_queued_batches = 1;
  opt.serving.admission_policy = AdmissionPolicy::kRejectNew;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  std::vector<QueryPair> queries(16, {0, 1});
  RecordingSink sink;
  std::vector<uint64_t> tags_a, tags_b;
  for (uint64_t i = 0; i < queries.size(); ++i) {
    tags_a.push_back(i);
    tags_b.push_back(100 + i);
  }
  // Batch A occupies the single in-flight slot (slow readers keep it
  // alive); batch B must be rejected outright.
  QueryEngine::Ticket a = engine.SubmitBatchTagged(queries, tags_a, &sink);
  QueryEngine::Ticket b = engine.SubmitBatchTagged(queries, tags_b, &sink);
  b.Wait();
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.code(i), StatusCode::kOverloaded);
    EXPECT_EQ(b.distance(i), kInfDistance);
  }
  a.Wait();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.code(i), StatusCode::kOk);
  }
  // Exactly-once: every tag of both batches delivered once.
  std::map<uint64_t, int> count;
  for (const Completion& done : sink.Take()) ++count[done.tag];
  EXPECT_EQ(count.size(), 32u);
  for (const auto& [tag, c] : count) {
    EXPECT_EQ(c, 1) << "tag " << tag;
  }
  EXPECT_EQ(engine.Stats().batches_shed, 1u);
}

TEST(AdmissionTest, ShedOldestClaimsUnstartedChunksOfOldestBatch) {
  Graph g = testing_util::SmallRoadNetwork(5, 20);
  SeededFaultInjector faults(20);
  faults.SetRate(FaultSite::kReaderDelay, 1.0);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 5000);
  EngineOptions opt;
  opt.num_query_threads = 1;
  opt.serving.max_queued_batches = 1;
  opt.serving.admission_policy = AdmissionPolicy::kShedOldest;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  // Occupy the single reader with a slow query FIRST (pool FIFO), so
  // batch A's chunk is still queued-unclaimed when B arrives — the
  // shed is then deterministic under any thread schedule.
  std::future<QueryResult> plug = engine.Submit({0, 2});
  std::vector<QueryPair> queries(16, {0, 1});
  QueryEngine::Ticket a = engine.SubmitBatch(queries);
  QueryEngine::Ticket b = engine.SubmitBatch(queries);
  a.Wait();
  b.Wait();
  plug.get();
  // A was the oldest in-flight ticket when B arrived: its unstarted
  // chunk was shed, while B was admitted and fully answered.
  size_t a_shed = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.code(i) == StatusCode::kOverloaded) ++a_shed;
  }
  EXPECT_GT(a_shed, 0u);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.code(i), StatusCode::kOk) << i;
  }
  EXPECT_GE(engine.Stats().batches_shed, 1u);
}

// -------------------------------------------------------- deadlines

TEST(DeadlineTest, PastDeadlineExpiresAtDequeueWithoutRouting) {
  Graph g = testing_util::SmallRoadNetwork(5, 21);
  EngineOptions opt;
  opt.num_query_threads = 2;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
  const Deadline past = steady_clock::now() - milliseconds(10);
  QueryResult r = engine.Submit({0, 7}, past).get();
  EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.distance, kInfDistance);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.Stats().queries_deadline_exceeded, 1u);
  // Future deadlines do not interfere with normal serving.
  QueryResult ok =
      engine.Submit({0, 7}, steady_clock::now() + milliseconds(5000)).get();
  EXPECT_EQ(ok.code, StatusCode::kOk);
}

TEST(DeadlineTest, BatchDeadlineExpiresQueuedChunks) {
  Graph g = testing_util::SmallRoadNetwork(6, 22);
  const uint32_t n = g.NumVertices();
  EngineOptions opt;
  opt.num_query_threads = 2;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
  Rng rng(22);
  std::vector<QueryPair> queries;
  for (int i = 0; i < 64; ++i) {
    queries.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n)));
  }
  const Deadline past = steady_clock::now() - milliseconds(1);
  QueryEngine::Ticket t = engine.SubmitBatch(queries, past);
  t.Wait();
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.code(i), StatusCode::kDeadlineExceeded) << i;
    EXPECT_EQ(t.distance(i), kInfDistance) << i;
  }
  EXPECT_EQ(engine.Stats().queries_deadline_exceeded, queries.size());
  // A generous deadline leaves the batch fully answered.
  QueryEngine::Ticket ok =
      engine.SubmitBatch(queries, steady_clock::now() + milliseconds(5000));
  ok.Wait();
  for (size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok.code(i), StatusCode::kOk) << i;
  }
}

// ------------------------------------------- degraded mode / faults

TEST(DegradedModeTest, WriterStallFlipsDegradedAndRecovers) {
  Graph g = testing_util::SmallRoadNetwork(5, 23);
  SeededFaultInjector faults(23);
  faults.SetRate(FaultSite::kWriterStall, 1.0);
  faults.SetDelayMicros(FaultSite::kWriterStall, 200000);  // 200ms stall
  EngineOptions opt;
  opt.num_query_threads = 2;
  opt.serving.writer_stall_ms = 20;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
  EXPECT_FALSE(engine.Stats().degraded);

  const Weight before = engine.Submit({0, 7}).get().distance;
  engine.EnqueueUpdate(0, 1);
  // The stalled writer makes no progress with one update pending: the
  // watchdog must flip degraded within the 200ms stall window.
  bool entered = false;
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < deadline) {
    EngineStats s = engine.Stats();
    if (s.degraded) {
      entered = true;
      EXPECT_GE(s.staleness_epochs, 1u);
      break;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(entered) << "watchdog never flipped degraded";
  // Degraded mode still SERVES — exactly, from the pinned stale epoch.
  EXPECT_EQ(engine.Submit({0, 7}).get().distance, before);
  // The stall passes, the writer applies, the watchdog recovers.
  engine.Flush();
  bool recovered = false;
  const auto rec_deadline = steady_clock::now() + milliseconds(5000);
  while (steady_clock::now() < rec_deadline) {
    EngineStats s = engine.Stats();
    if (!s.degraded) {
      recovered = true;
      EXPECT_EQ(s.staleness_epochs, 0u);
      break;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(recovered) << "degraded mode never cleared";
  EXPECT_GE(engine.Stats().degraded_entries, 1u);
}

// The overload drill at 2x measured capacity on a 24x24 grid, three
// phases on one engine. A 200us injected reader delay on two reader
// threads fixes the capacity (~10k qps) independently of host speed.
//   capacity — closed-loop waves of Submit() futures, well under the
//              admission bound, measure the sustainable qps.
//   overload — an open-loop submitter paces 6000 tagged queries at 2x
//              that rate against a 256-deep reject-new admission queue
//              (every 4th with a 5ms deadline) while a collector drains
//              the completion queue: no tag lost or delivered twice, no
//              served answer wrong, shedding engaged, admitted work
//              still served, and rejection cheaper than service
//              (p99 of shed latency < p50 of served latency).
//   stall    — a 100ms writer stall flips degraded mode; clearing it
//              recovers, and a post-recovery batch is exact.
TEST(OverloadDrillTest, TwiceCapacityShedsCheaplyAndRecovers) {
  const Graph base = testing_util::SmallRoadNetwork(24, 71);
  const uint32_t n = base.NumVertices();
  SeededFaultInjector faults(71);
  faults.SetRate(FaultSite::kReaderDelay, 1.0);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 200);

  EngineOptions opt;
  opt.num_query_threads = 2;
  opt.result_cache_entries = 0;  // every query pays the service floor
  opt.serving.max_queued_queries = 256;
  opt.serving.admission_policy = AdmissionPolicy::kRejectNew;
  opt.serving.writer_stall_ms = 10;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(base, HierarchyOptions{}, opt);

  // ---- capacity
  double capacity_qps = 0;
  {
    engine.ResetStats();
    Rng rng(711);
    constexpr size_t kQueries = 2000;
    constexpr size_t kWave = 64;
    std::vector<std::future<QueryResult>> wave;
    for (size_t i = 0; i < kQueries; i += kWave) {
      wave.clear();
      for (size_t j = i; j < std::min(kQueries, i + kWave); ++j) {
        wave.push_back(
            engine.Submit({static_cast<Vertex>(rng.NextBounded(n)),
                           static_cast<Vertex>(rng.NextBounded(n))}));
      }
      for (auto& f : wave) f.get();
    }
    capacity_qps = engine.Stats().queries_per_second;
  }
  ASSERT_GT(capacity_qps, 0.0);

  // ---- overload
  {
    engine.ResetStats();
    const std::vector<QueryPair> pairs = RandomQueryPairs(base, 6000, 712);
    CompletionQueue queue;
    std::vector<StatusCode> code(pairs.size(), StatusCode::kOk);
    std::vector<Weight> answer(pairs.size(), kInfDistance);
    std::vector<double> latency(pairs.size(), 0);
    std::vector<uint64_t> epoch_of(pairs.size(), 0);
    std::vector<uint8_t> deliveries(pairs.size(), 0);
    size_t received = 0;
    size_t double_deliveries = 0;
    // Drains concurrently so the sink never backs up; a 5s silence
    // leaves the missing tags counted as lost instead of hanging.
    std::thread collector([&] {
      Completion out[128];
      while (received < pairs.size()) {
        const size_t got = queue.WaitPoll(out, 128, milliseconds(5000));
        if (got == 0) return;
        for (size_t i = 0; i < got; ++i) {
          const uint64_t tag = out[i].tag;
          if (tag >= pairs.size() || ++deliveries[tag] > 1) {
            ++double_deliveries;
            continue;
          }
          code[tag] = out[i].code;
          answer[tag] = out[i].distance;
          latency[tag] = out[i].latency_micros;
          epoch_of[tag] = out[i].epoch;
        }
        received += got;
      }
    });

    // A burst every 500us sized for 2x capacity.
    const size_t burst =
        std::max<size_t>(1, static_cast<size_t>(2 * capacity_qps / 2000.0));
    auto next_tick = steady_clock::now();
    for (size_t i = 0; i < pairs.size(); i += burst) {
      for (size_t tag = i; tag < std::min(pairs.size(), i + burst); ++tag) {
        const Deadline dl = tag % 4 == 3
                                ? steady_clock::now() + milliseconds(5)
                                : kNoDeadline;
        engine.SubmitTagged(pairs[tag], tag, &queue, dl);
      }
      next_tick += std::chrono::microseconds(500);
      std::this_thread::sleep_until(next_tick);
    }
    collector.join();
    EXPECT_EQ(received, pairs.size()) << "tags lost";
    EXPECT_EQ(double_deliveries, 0u);

    // No updates run in this phase: every served answer comes from the
    // one current snapshot.
    const auto snap = engine.CurrentSnapshot();
    Dijkstra dij(snap->graph);
    std::vector<double> served_latency;
    std::vector<double> shed_latency;
    size_t served_mismatches = 0;
    for (size_t tag = 0; tag < pairs.size(); ++tag) {
      if (deliveries[tag] == 0) continue;
      if (code[tag] == StatusCode::kOverloaded) {
        shed_latency.push_back(latency[tag]);
      } else if (code[tag] == StatusCode::kOk) {
        served_latency.push_back(latency[tag]);
        if (epoch_of[tag] != snap->epoch ||
            answer[tag] !=
                dij.Distance(pairs[tag].first, pairs[tag].second)) {
          ++served_mismatches;
        }
      }
    }
    EXPECT_EQ(served_mismatches, 0u);
    ASSERT_GT(shed_latency.size(), 0u) << "2x load never shed";
    ASSERT_GT(served_latency.size(), 0u) << "admitted work never served";
    auto percentile = [](std::vector<double> v, double q) {
      std::sort(v.begin(), v.end());
      return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
    };
    EXPECT_LT(percentile(shed_latency, 0.99),
              percentile(served_latency, 0.5))
        << "rejection must be cheaper than service";
  }

  // ---- stall
  faults.Clear();  // drop the reader delay; arm only the stall
  faults.SetRate(FaultSite::kWriterStall, 1.0);
  faults.SetDelayMicros(FaultSite::kWriterStall, 100000);  // 100ms
  engine.EnqueueUpdate(
      0, std::min<Weight>(base.EdgeWeight(0) * 2 + 1, kMaxEdgeWeight));
  bool entered = false;
  const auto deadline = steady_clock::now() + milliseconds(5000);
  while (!entered && steady_clock::now() < deadline) {
    entered = engine.Stats().degraded;
    if (!entered) std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(entered) << "the writer stall never flipped degraded mode";
  faults.Clear();  // the stall passes
  engine.Flush();
  bool recovered = false;
  const auto rec_deadline = steady_clock::now() + milliseconds(5000);
  while (!recovered && steady_clock::now() < rec_deadline) {
    recovered = !engine.Stats().degraded;
    if (!recovered) std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(recovered) << "degraded mode never cleared";

  const std::vector<QueryPair> final_pairs = RandomQueryPairs(base, 200, 713);
  QueryEngine::Ticket ticket = engine.SubmitBatch(final_pairs);
  ticket.Wait();
  Dijkstra dij(ticket.snapshot()->graph);
  for (size_t i = 0; i < ticket.size(); ++i) {
    ASSERT_EQ(ticket.code(i), StatusCode::kOk) << "i=" << i;
    ASSERT_EQ(ticket.distance(i),
              dij.Distance(final_pairs[i].first, final_pairs[i].second))
        << "i=" << i;
  }
}

TEST(FaultTest, ApplyFailureDropsBatchButServingStaysExact) {
  Graph g = testing_util::SmallRoadNetwork(5, 24);
  Graph ref = g;
  SeededFaultInjector faults(24);
  faults.SetRate(FaultSite::kApplyFailure, 1.0);
  EngineOptions opt;
  opt.num_query_threads = 2;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  engine.EnqueueUpdate(0, ref.EdgeWeight(0) + 5);
  engine.Flush();
  EngineStats stats = engine.Stats();
  EXPECT_GE(stats.apply_failures, 1u);
  EXPECT_EQ(stats.epochs_published, 0u) << "dropped batch must not publish";
  // The master state was untouched: answers still match epoch 0.
  Dijkstra dij(ref);
  QueryResult r = engine.Submit({0, ref.NumVertices() - 1}).get();
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_EQ(r.distance, dij.Distance(0, ref.NumVertices() - 1));
  // The fault clears; the next update applies and publishes.
  faults.Clear();
  engine.EnqueueUpdate(0, ref.EdgeWeight(0) + 5);
  engine.Flush();
  EXPECT_EQ(engine.Stats().epochs_published, 1u);
}

TEST(FaultTest, CompletionDropCandidateStillDeliversExactlyOnce) {
  Graph g = testing_util::SmallRoadNetwork(5, 25);
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(25);
  faults.SetRate(FaultSite::kCompletionDropCandidate, 1.0);
  EngineOptions opt;
  opt.num_query_threads = 2;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  CompletionQueue queue;
  constexpr uint64_t kTags = 300;
  Rng rng(25);
  for (uint64_t tag = 0; tag < kTags; ++tag) {
    engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n))},
                        tag, &queue);
  }
  std::set<uint64_t> seen;
  Completion out[32];
  while (seen.size() < kTags) {
    const size_t got = queue.WaitPoll(out, 32);
    for (size_t i = 0; i < got; ++i) {
      EXPECT_TRUE(seen.insert(out[i].tag).second)
          << "tag " << out[i].tag << " delivered twice";
    }
  }
  // Every delivery's first attempt was a drop candidate; the retry
  // path redelivered all of them.
  EXPECT_EQ(engine.Stats().completions_retried, kTags);
}

// --------------------------------------------------- shutdown drain

TEST(ShutdownDrainTest, DeadlineFailsResidualTagsAsOverloaded) {
  Graph g = testing_util::SmallRoadNetwork(5, 26);
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(26);
  faults.SetRate(FaultSite::kReaderDelay, 1.0);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 20000);  // 20ms/query
  CompletionQueue queue;
  constexpr uint64_t kTags = 32;
  {
    EngineOptions opt;
    opt.num_query_threads = 1;
    opt.serving.shutdown_drain_ms = 30;  // << 32 queries x 20ms
    opt.serving.fault_injector = &faults;
    QueryEngine engine(std::move(g), HierarchyOptions{}, opt);
    Rng rng(26);
    for (uint64_t tag = 0; tag < kTags; ++tag) {
      engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                           static_cast<Vertex>(rng.NextBounded(n))},
                          tag, &queue);
    }
    // Destructor: drains for <= 30ms, then fails the residual queue.
  }
  std::map<uint64_t, StatusCode> seen;
  Completion out[32];
  size_t got;
  while ((got = queue.Poll(out, 32)) > 0) {
    for (size_t i = 0; i < got; ++i) {
      EXPECT_TRUE(seen.emplace(out[i].tag, out[i].code).second)
          << "tag " << out[i].tag << " delivered twice";
    }
  }
  ASSERT_EQ(seen.size(), kTags) << "every tag delivered despite the drain";
  size_t failed = 0;
  for (const auto& [tag, code] : seen) {
    if (code == StatusCode::kOverloaded) ++failed;
  }
  EXPECT_GT(failed, 0u) << "30ms drain cannot answer 32 x 20ms queries";
}

// ------------------------------------------------------------ chaos

// The full chaos matrix, per backend: every fault site armed at once,
// tight admission bounds, deadlines on part of the traffic, one updater
// thread streaming weight changes — and at the end, the invariants:
// every tag delivered exactly once, every ANSWERED batch query exact
// for its pinned epoch (Dijkstra audit), and clean recovery (faults
// cleared -> a final batch is fully answered and exact).
class ChaosBackendTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(ChaosBackendTest, InvariantsHoldUnderAllFaults) {
  Graph g = testing_util::SmallRoadNetwork(6, 27);
  Graph ref = g;
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  SeededFaultInjector faults(1234);
  faults.SetRate(FaultSite::kReaderDelay, 0.05);
  faults.SetDelayMicros(FaultSite::kReaderDelay, 500);
  faults.SetRate(FaultSite::kWriterStall, 0.2);
  faults.SetDelayMicros(FaultSite::kWriterStall, 2000);
  faults.SetRate(FaultSite::kApplyFailure, 0.3);
  faults.SetRate(FaultSite::kCompletionDropCandidate, 0.2);
  // Armed for completeness of the matrix; the site lives on the
  // sharded writer, so it never fires on the flat engine. The sharded
  // test below asserts that it fires and that the fallback stays exact.
  faults.SetRate(FaultSite::kOverlayRepair, 0.5);

  EngineOptions opt;
  opt.backend = GetParam();
  opt.num_query_threads = 2;
  opt.max_batch_size = 8;
  opt.result_cache_entries = 1u << 10;
  opt.serving.max_queued_queries = 32;
  opt.serving.max_queued_batches = 4;
  opt.serving.admission_policy = AdmissionPolicy::kShedOldest;
  opt.serving.writer_stall_ms = 5;
  opt.serving.fault_injector = &faults;
  QueryEngine engine(std::move(g), HierarchyOptions{}, opt);

  std::atomic<bool> stop{false};
  std::thread updater([&engine, m, &stop] {
    Rng urng(4321);
    while (!stop.load()) {
      engine.EnqueueUpdate(static_cast<EdgeId>(urng.NextBounded(m)),
                           1 + static_cast<Weight>(urng.NextBounded(50)));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  CompletionQueue queue;
  Rng rng(27);
  uint64_t next_tag = 0;
  std::vector<QueryEngine::Ticket> tickets;
  std::vector<std::vector<QueryPair>> ticket_queries;
  // 40 waves: single tagged queries (some with tight deadlines)
  // interleaved with audited batches.
  for (int wave = 0; wave < 40; ++wave) {
    for (int i = 0; i < 8; ++i) {
      const Deadline dl =
          i % 4 == 3 ? steady_clock::now() + std::chrono::microseconds(200)
                     : kNoDeadline;
      engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                           static_cast<Vertex>(rng.NextBounded(n))},
                          next_tag++, &queue, dl);
    }
    std::vector<QueryPair> batch;
    for (int i = 0; i < 12; ++i) {
      batch.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n)));
    }
    tickets.push_back(engine.SubmitBatch(batch));
    ticket_queries.push_back(std::move(batch));
  }
  stop.store(true);
  updater.join();

  // Invariant 1: every single-query tag delivered exactly once, no
  // matter how it completed.
  std::set<uint64_t> seen;
  Completion out[64];
  while (seen.size() < next_tag) {
    const size_t got = queue.WaitPoll(out, 64, milliseconds(5000));
    ASSERT_GT(got, 0u) << "lost tags: " << seen.size() << "/" << next_tag;
    for (size_t i = 0; i < got; ++i) {
      EXPECT_TRUE(seen.insert(out[i].tag).second)
          << "tag " << out[i].tag << " delivered twice";
    }
  }

  // Invariant 2: every ANSWERED batch query is exact for the weights of
  // its ticket's pinned epoch (shed/expired queries carry their code).
  testing_util::EpochOracle oracle;
  for (size_t w = 0; w < tickets.size(); ++w) {
    QueryEngine::Ticket& t = tickets[w];
    t.Wait();
    Dijkstra& audit = oracle.For(t.epoch(), t.snapshot()->graph);
    for (size_t i = 0; i < t.size(); ++i) {
      if (t.code(i) != StatusCode::kOk) continue;
      const QueryPair& q = ticket_queries[w][i];
      ASSERT_EQ(t.distance(i), audit.Distance(q.first, q.second))
          << "backend " << static_cast<int>(GetParam()) << " wave " << w
          << " query " << i << " epoch " << t.epoch();
    }
  }

  // Invariant 3: recovery. Faults cleared, backlog flushed: a final
  // batch is fully answered and exact, and the engine is not degraded.
  faults.Clear();
  engine.Flush();
  std::vector<QueryPair> final_batch;
  for (int i = 0; i < 32; ++i) {
    final_batch.emplace_back(static_cast<Vertex>(rng.NextBounded(n)),
                             static_cast<Vertex>(rng.NextBounded(n)));
  }
  QueryEngine::Ticket final_ticket = engine.SubmitBatch(final_batch);
  final_ticket.Wait();
  Dijkstra final_dij(final_ticket.snapshot()->graph);
  for (size_t i = 0; i < final_ticket.size(); ++i) {
    ASSERT_EQ(final_ticket.code(i), StatusCode::kOk) << i;
    ASSERT_EQ(final_ticket.distance(i),
              final_dij.Distance(final_batch[i].first,
                                 final_batch[i].second))
        << i;
  }
  const auto rec_deadline = steady_clock::now() + milliseconds(5000);
  while (engine.Stats().degraded && steady_clock::now() < rec_deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_FALSE(engine.Stats().degraded);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ChaosBackendTest,
    ::testing::Values(BackendKind::kStl, BackendKind::kCh,
                      BackendKind::kH2h, BackendKind::kHc2l));

// The sharded engine inherits the same hardening through ServingCore:
// one combined smoke over admission + deadlines + faults + teardown.
TEST(ShardedRobustnessTest, OverloadMachineryWorksThroughShardedEngine) {
  Graph g = testing_util::SmallRoadNetwork(6, 28);
  Graph ref = g;
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(28);
  faults.SetRate(FaultSite::kCompletionDropCandidate, 1.0);
  ShardedEngineOptions opt;
  opt.target_shards = 2;
  opt.num_query_threads = 2;
  opt.serving.max_queued_queries = 16;
  opt.serving.admission_policy = AdmissionPolicy::kRejectNew;
  opt.serving.writer_stall_ms = 50;
  opt.serving.shutdown_drain_ms = 2000;
  opt.serving.fault_injector = &faults;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);

  // Past deadline expires through the sharded submission path too.
  ShardedQueryResult expired =
      engine.Submit({0, 7}, steady_clock::now() - milliseconds(1)).get();
  EXPECT_EQ(expired.code, StatusCode::kDeadlineExceeded);

  // Tagged traffic with the drop-candidate site armed: exactly once.
  CompletionQueue queue;
  constexpr uint64_t kTags = 100;
  Rng rng(28);
  for (uint64_t tag = 0; tag < kTags; ++tag) {
    engine.SubmitTagged({static_cast<Vertex>(rng.NextBounded(n)),
                         static_cast<Vertex>(rng.NextBounded(n))},
                        tag, &queue);
  }
  std::set<uint64_t> seen;
  Completion out[32];
  while (seen.size() < kTags) {
    const size_t got = queue.WaitPoll(out, 32, milliseconds(5000));
    ASSERT_GT(got, 0u);
    for (size_t i = 0; i < got; ++i) {
      EXPECT_TRUE(seen.insert(out[i].tag).second);
    }
  }
  EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.completions_retried, kTags);
  EXPECT_EQ(stats.queries_deadline_exceeded, 1u);
  // Served answers stayed exact (epoch 0: no updates were enqueued).
  Dijkstra dij(ref);
  ShardedEngine::Ticket t =
      engine.SubmitBatch({{0, n - 1}, {3, 11}, {5, 5}});
  t.Wait();
  EXPECT_EQ(t.distance(0), dij.Distance(0, n - 1));
  EXPECT_EQ(t.distance(1), dij.Distance(3, 11));
  EXPECT_EQ(t.distance(2), 0u);
}

// kOverlayRepair: the sharded writer treats incremental overlay repair
// as infeasible whenever the site fires and takes the from-scratch
// fallback instead. Both paths publish the same exact table, so every
// epoch must stay Dijkstra-exact through a fault schedule that flips
// between them — and once the fault clears, repair resumes (full
// rebuilds stop accumulating under localized updates).
TEST(ShardedRobustnessTest, OverlayRepairFaultFallsBackExactly) {
  Graph g = testing_util::SmallRoadNetwork(7, 29);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  SeededFaultInjector faults(29);
  faults.SetRate(FaultSite::kOverlayRepair, 0.6);
  ShardedEngineOptions opt;
  opt.target_shards = 4;
  opt.num_query_threads = 2;
  opt.max_batch_size = 4;
  opt.serving.fault_injector = &faults;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);
  Rng rng(29);
  auto audit_epoch = [&](const char* phase) {
    auto snap = engine.CurrentSnapshot();
    Dijkstra dij(snap->graph);
    for (int i = 0; i < 30; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), dij.Distance(s, t))
          << phase << " s=" << s << " t=" << t;
    }
  };
  for (int round = 0; round < 10; ++round) {
    std::vector<WeightUpdate> updates;
    for (int i = 0; i < 2; ++i) {
      updates.push_back(
          WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                       1 + static_cast<Weight>(rng.NextBounded(300))});
    }
    engine.EnqueueUpdates(updates);
    engine.Flush();
    audit_epoch("faulted");
  }
  EXPECT_GT(faults.fired(FaultSite::kOverlayRepair), 0u);
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.overlay_full_rebuilds, 0u);
  EXPECT_GT(stats.overlay_rows_total, 0u);

  // Recovery: fault cleared, localized updates repair incrementally
  // again — the full-rebuild counter stays flat.
  faults.Clear();
  const uint64_t rebuilds_at_clear = stats.overlay_full_rebuilds;
  const uint64_t fired_at_clear = faults.fired(FaultSite::kOverlayRepair);
  for (int round = 0; round < 6; ++round) {
    const EdgeId e = static_cast<EdgeId>(rng.NextBounded(m));
    engine.EnqueueUpdates({WeightUpdate{
        e, 0, 1 + static_cast<Weight>(rng.NextBounded(300))}});
    engine.Flush();
    audit_epoch("recovered");
  }
  EXPECT_EQ(faults.fired(FaultSite::kOverlayRepair), fired_at_clear);
  stats = engine.Stats();
  EXPECT_GT(stats.epochs_published, 10u);
  EXPECT_LT(stats.overlay_full_rebuilds - rebuilds_at_clear, 6u)
      << "repair never resumed after the fault cleared";
}

// ------------------------------------------------- transport chaos

// Edges owned by a cell (neither endpoint on the separator): updating
// one forces that shard to republish, so a replica whose install is
// lost falls behind the pinned epoch DETERMINISTICALLY.
std::vector<EdgeId> IntraCellEdges(const RouterSnapshot& snap,
                                   size_t max_edges) {
  std::vector<EdgeId> out;
  const ShardLayout& lay = *snap.layout;
  for (EdgeId e = 0; e < snap.graph.NumEdges() && out.size() < max_edges;
       ++e) {
    const Edge& edge = snap.graph.GetEdge(e);
    if (lay.shard_of_vertex[edge.u] != CellPartition::kBoundaryCell &&
        lay.shard_of_vertex[edge.v] != CellPartition::kBoundaryCell) {
      out.push_back(e);
    }
  }
  return out;
}

// A transport decorator that loses every kInstall frame sent to an armed
// endpoint, answering the sink with a typed kUnavailable as
// LoopbackTransport's drop site does; query kinds pass through. A
// replica whose installs are lost keeps serving the epochs it holds and
// falls behind the writer: the deterministic way to make it stale.
class InstallDroppingTransport final : public Transport {
 public:
  explicit InstallDroppingTransport(Transport* inner) : inner_(inner) {}

  /// Drops installs to `endpoints` from now on; an empty list stops
  /// dropping.
  void Arm(std::vector<uint32_t> endpoints) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = std::move(endpoints);
  }

  uint32_t NumEndpoints() const override { return inner_->NumEndpoints(); }

  void Send(uint32_t endpoint, uint64_t tag,
            std::shared_ptr<const std::vector<uint8_t>> request,
            TransportSink* sink) override {
    WireKind kind = WireKind::kPointQuery;
    if (PeekWireKind(request->data(), request->size(), &kind).ok() &&
        kind == WireKind::kInstall && Armed(endpoint)) {
      sink->OnResponse(tag, Status::Unavailable("test: install dropped"),
                       {});
      return;
    }
    inner_->Send(endpoint, tag, std::move(request), sink);
  }

 private:
  bool Armed(uint32_t endpoint) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::find(armed_.begin(), armed_.end(), endpoint) != armed_.end();
  }

  Transport* const inner_;
  std::mutex mu_;
  std::vector<uint32_t> armed_;  // guarded by mu_
};

// Routed tier under a hostile transport (drops, delays, duplicates all
// armed at once): every submitted tag still completes exactly once,
// every ANSWERED query is exact for its epoch, and failures are the
// typed kUnavailable — never a lost tag, never a doubled one, never a
// wrong distance.
TEST(TransportChaosTest, TagsExactlyOnceUnderDropDelayDuplicate) {
  Graph g = testing_util::SmallRoadNetwork(6, 811);
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(811);
  faults.SetRate(FaultSite::kTransportDrop, 0.25);
  faults.SetRate(FaultSite::kTransportDelay, 0.2);
  faults.SetDelayMicros(FaultSite::kTransportDelay, 200);
  faults.SetRate(FaultSite::kTransportDuplicate, 0.25);
  ShardRouterOptions opt;
  opt.engine.target_shards = 4;
  opt.engine.num_query_threads = 2;
  opt.num_query_threads = 4;
  LoopbackCluster cluster = MakeLoopbackCluster(
      g, HierarchyOptions{}, opt, 2, ReplicaNodeOptions{}, &faults);
  ShardRouter router(std::move(g), HierarchyOptions{}, opt,
                     cluster.transport.get(), {});
  const std::shared_ptr<const RouterSnapshot> snap0 =
      router.CurrentSnapshot();
  Dijkstra audit(snap0->graph);  // no updates: epoch 0 throughout

  CompletionQueue queue;
  Rng rng(812);
  constexpr uint64_t kTags = 512;
  std::map<uint64_t, QueryPair> submitted;
  {
    std::vector<QueryPair> queries;
    std::vector<uint64_t> tags;
    for (uint64_t i = 0; i < kTags; ++i) {
      QueryPair q{static_cast<Vertex>(rng.NextBounded(n)),
                  static_cast<Vertex>(rng.NextBounded(n))};
      queries.push_back(q);
      tags.push_back(i);
      submitted.emplace(i, q);
    }
    // Waves of four: each routed span is one RPC, so one 512-query
    // batch would cross the transport only a handful of times.
    std::vector<ShardRouter::Ticket> tickets;
    for (size_t i = 0; i < queries.size(); i += 4) {
      const std::vector<QueryPair> wave(queries.begin() + i,
                                        queries.begin() + i + 4);
      const std::vector<uint64_t> wave_tags(tags.begin() + i,
                                            tags.begin() + i + 4);
      tickets.push_back(router.SubmitBatchTagged(wave, wave_tags, &queue));
    }
    for (ShardRouter::Ticket& ticket : tickets) ticket.Wait();
  }

  // Invariant 1: every tag exactly once — nothing lost, nothing doubled,
  // transport duplicates notwithstanding.
  std::set<uint64_t> seen;
  uint64_t unavailable = 0;
  Completion out[64];
  while (seen.size() < kTags) {
    const size_t got = queue.WaitPoll(out, 64, milliseconds(5000));
    ASSERT_GT(got, 0u) << "completion queue starved with "
                       << (kTags - seen.size()) << " tags outstanding";
    for (size_t i = 0; i < got; ++i) {
      ASSERT_TRUE(seen.insert(out[i].tag).second)
          << "tag " << out[i].tag << " delivered twice";
      // Invariant 2: answered queries are exact; failed ones carry the
      // typed kUnavailable, nothing else (no overload knobs are armed).
      const QueryPair q = submitted.at(out[i].tag);
      if (out[i].code == StatusCode::kOk) {
        ASSERT_EQ(out[i].distance, audit.Distance(q.first, q.second))
            << "tag " << out[i].tag;
      } else {
        ASSERT_EQ(out[i].code, StatusCode::kUnavailable);
        ++unavailable;
      }
    }
  }
  EXPECT_EQ(queue.size(), 0u);

  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_served + stats.serving.queries_unavailable,
            kTags);
  EXPECT_EQ(stats.serving.queries_unavailable, unavailable);
  // The chaos actually happened and the machinery absorbed it.
  EXPECT_GT(faults.fired(FaultSite::kTransportDrop), 0u);
  EXPECT_GT(faults.fired(FaultSite::kTransportDuplicate), 0u);
  EXPECT_GT(stats.rpc_duplicates_dropped, 0u);
  EXPECT_GT(stats.rpc_failovers, 0u);  // dropped sends recovered on a sibling
  EXPECT_GT(stats.rpc_retries, 0u);
}

// Deterministic failover: one replica that loses an update's install
// falls behind the pinned epoch; every query still answers (the
// sibling serves), and the stale replica's refusals are visible in the
// stats.
TEST(TransportChaosTest, StaleReplicaFailsOverToSibling) {
  Graph g = testing_util::SmallRoadNetwork(6, 823);
  const uint32_t n = g.NumVertices();
  ShardRouterOptions opt;
  opt.engine.target_shards = 4;
  opt.engine.num_query_threads = 2;
  opt.num_query_threads = 2;
  LoopbackCluster cluster = MakeLoopbackCluster(g, HierarchyOptions{}, opt, 2);
  InstallDroppingTransport transport(cluster.transport.get());
  ShardRouter router(std::move(g), HierarchyOptions{}, opt, &transport, {});

  // Lose replica 0's installs, then republish a shard: it now misses the
  // epoch.
  transport.Arm({0});
  Rng rng(823);
  const std::vector<EdgeId> dirty =
      IntraCellEdges(*router.CurrentSnapshot(), 4);
  ASSERT_FALSE(dirty.empty());
  const std::shared_ptr<const RouterSnapshot> before =
      router.CurrentSnapshot();
  std::vector<WeightUpdate> updates;
  for (EdgeId e : dirty) {
    // old + 1: guaranteed effective, so the shard definitely republishes.
    updates.push_back(WeightUpdate{e, 0, before->graph.EdgeWeight(e) + 1});
  }
  router.EnqueueUpdates(updates);
  router.Flush();
  ASSERT_GT(router.CurrentEpoch(), 0u);

  const std::shared_ptr<const RouterSnapshot> snap =
      router.CurrentSnapshot();
  Dijkstra audit(snap->graph);
  for (int i = 0; i < 64; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    ASSERT_EQ(r.code, StatusCode::kOk) << "s=" << s << " t=" << t;
    ASSERT_EQ(r.distance, audit.Distance(s, t)) << "s=" << s << " t=" << t;
  }

  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  // Round-robin landed some fetches on the stale replica first; every
  // one of those refused (kUnavailable at the pinned epoch) and failed
  // over to the live sibling.
  EXPECT_GT(stats.rpc_failovers, 0u);
  EXPECT_GT(stats.rpc_stale_responses, 0u);
  EXPECT_GT(cluster.replicas[0]->requests_rejected(), 0u);
  EXPECT_GT(cluster.replicas[1]->requests_served(), 0u);
}

// A replica whose answer has the wrong shape — one distance short, or
// the wrong epoch echo — is as unusable as a stale one: the reply fails
// the RPC's acceptance test, so the span fails over to the sibling
// instead of failing its queries.
TEST(TransportChaosTest, WrongCountOrEpochEchoFailsOverToSibling) {
  Graph g = testing_util::SmallRoadNetwork(6, 829);
  const uint32_t n = g.NumVertices();
  ShardRouterOptions opt;
  opt.engine.target_shards = 4;
  opt.engine.num_query_threads = 2;
  opt.num_query_threads = 2;
  LoopbackCluster cluster = MakeLoopbackCluster(g, HierarchyOptions{}, opt, 2);
  // Endpoint 0 drops the last distance of one answer and bumps the
  // epoch echo of the next; endpoint 1 is honest.
  LoopbackTransport transport;
  ReplicaNode* mangling = cluster.replicas[0].get();
  ReplicaNode* honest = cluster.replicas[1].get();
  std::atomic<uint64_t> mangled{0};
  transport.AddEndpoint(
      [mangling, &mangled](const uint8_t* data, size_t size) {
        std::vector<uint8_t> bytes = mangling->Handle(data, size);
        WireKind kind = WireKind::kInstall;
        QueryResponse resp;
        if (PeekWireKind(data, size, &kind).ok() &&
            kind == WireKind::kPointQuery &&
            QueryResponse::Decode(bytes.data(), bytes.size(), &resp).ok() &&
            resp.code == StatusCode::kOk) {
          if (mangled.fetch_add(1) % 2 == 0) {
            resp.distances.pop_back();
          } else {
            ++resp.engine_epoch;
          }
          bytes = resp.Encode();
        }
        return bytes;
      });
  transport.AddEndpoint([honest](const uint8_t* data, size_t size) {
    return honest->Handle(data, size);
  });
  ShardRouter router(std::move(g), HierarchyOptions{}, opt, &transport, {});
  const std::shared_ptr<const RouterSnapshot> snap =
      router.CurrentSnapshot();
  Dijkstra audit(snap->graph);
  Rng rng(829);
  std::vector<QueryPair> batch;
  for (int i = 0; i < 64; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    batch.emplace_back(s, t);
    RouterQueryResult r = router.Submit({s, t}).get();
    ASSERT_EQ(r.code, StatusCode::kOk) << "s=" << s << " t=" << t;
    ASSERT_EQ(r.distance, audit.Distance(s, t)) << "s=" << s << " t=" << t;
  }
  ShardRouter::Ticket ticket = router.SubmitBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(ticket.code(i), StatusCode::kOk) << "i=" << i;
    ASSERT_EQ(ticket.distance(i),
              audit.Distance(batch[i].first, batch[i].second))
        << "i=" << i;
  }

  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, 0u);
  EXPECT_GE(mangled.load(), 2u);  // both shapes were sent
  EXPECT_EQ(stats.rpc_stale_responses, mangled.load());
  EXPECT_EQ(stats.rpc_failovers, mangled.load());
}

// kUnavailable is reserved for total replica failure: with EVERY
// replica's install lost, so all lag behind the pinned epoch,
// RPC-dependent queries fail typed (and only those — s == t still
// answers exactly).
TEST(TransportChaosTest, AllReplicasStaleYieldTypedUnavailable) {
  Graph g = testing_util::SmallRoadNetwork(6, 827);
  const uint32_t n = g.NumVertices();
  ShardRouterOptions opt;
  opt.engine.target_shards = 4;
  opt.engine.num_query_threads = 2;
  opt.num_query_threads = 2;
  LoopbackCluster cluster = MakeLoopbackCluster(g, HierarchyOptions{}, opt, 2);
  InstallDroppingTransport transport(cluster.transport.get());
  ShardRouter router(std::move(g), HierarchyOptions{}, opt, &transport, {});

  transport.Arm({0, 1});
  Rng rng(827);
  const std::vector<EdgeId> dirty =
      IntraCellEdges(*router.CurrentSnapshot(), 1);
  ASSERT_FALSE(dirty.empty());
  // old + 1: guaranteed effective, so the shard definitely republishes.
  router.EnqueueUpdate(
      dirty[0], router.CurrentSnapshot()->graph.EdgeWeight(dirty[0]) + 1);
  router.Flush();
  ASSERT_GT(router.CurrentEpoch(), 0u);

  uint64_t unavailable = 0;
  for (int i = 0; i < 48; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    if (r.code == StatusCode::kUnavailable) {
      ++unavailable;
    } else {
      // Only s == t never touches a replica; it still answers exactly.
      ASSERT_EQ(r.code, StatusCode::kOk);
      ASSERT_EQ(r.distance, Dijkstra(r.snapshot->graph).Distance(s, t));
    }
  }
  EXPECT_GT(unavailable, 0u);
  RouterStats stats = router.Stats();
  EXPECT_EQ(stats.serving.queries_unavailable, unavailable);

  // Thaw: replicas resume installing on the next publish and service
  // recovers completely. The next install meets a sequence gap (the
  // lost one), so it goes through the nack and the router's replay.
  transport.Arm({});
  router.EnqueueUpdate(
      dirty[0], router.CurrentSnapshot()->graph.EdgeWeight(dirty[0]) + 1);
  router.Flush();
  const std::shared_ptr<const RouterSnapshot> snap =
      router.CurrentSnapshot();
  Dijkstra audit(snap->graph);
  for (int i = 0; i < 32; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    ASSERT_EQ(r.code, StatusCode::kOk);
    ASSERT_EQ(r.distance, audit.Distance(s, t));
  }
  // Each thawed node nacked the gap and then applied the replayed
  // install and the new one: it holds the router's whole install log.
  const RouterStats thawed = router.Stats();
  for (const auto& node : cluster.replicas) {
    EXPECT_GE(node->install_nacks(), 1u);
    EXPECT_EQ(node->installs_applied(), thawed.wire_installs);
  }
}

// A replica that acks every install ok without ever advancing its
// next_seq would keep the router's writer replaying the same entry
// forever (an honest ReplicaNode always acks ok past the seq it was
// sent). The router must treat it as a failed endpoint: construction —
// which installs epoch 0 — returns, and the failure is counted. A
// watchdog turns a hang into a bounded failure.
TEST(RouterInstallTest, OkAckThatNeverAdvancesFailsTheEndpoint) {
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return finished; })) {
      std::fprintf(stderr,
                   "ShardRouter construction never returned: the install "
                   "loop spins on an ok ack that does not advance\n");
      std::abort();
    }
  });

  LoopbackTransport transport;
  transport.AddEndpoint([](const uint8_t*, size_t) {
    InstallAck ack;
    ack.ok = true;
    ack.next_seq = 0;
    return ack.Encode();
  });
  ShardRouterOptions opt;
  opt.engine.target_shards = 4;
  opt.engine.num_query_threads = 2;
  opt.num_query_threads = 2;
  {
    ShardRouter router(testing_util::SmallRoadNetwork(6, 331),
                       HierarchyOptions{}, opt, &transport, {});
    const RouterStats stats = router.Stats();
    EXPECT_GE(stats.install_failures, 1u);
    EXPECT_EQ(stats.wire_installs, 1u);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();
}

// ------------------------------------------------------ socket chaos

// The routed tier over REAL sockets with kSocketShortIo armed on both
// sides of the wire: every client and server I/O may be clamped to one
// byte, and every eighth firing per connection severs the stream
// mid-frame. The invariants are the same as the loopback chaos matrix:
// every tag completes exactly once, every answered query is exact for
// its epoch, failures are the typed kUnavailable — and once the fault
// clears, service recovers completely over fresh connections.
TEST(SocketChaosTest, TagsExactlyOnceUnderShortIoAndDisconnects) {
  Graph g = testing_util::SmallRoadNetwork(6, 907);
  const uint32_t n = g.NumVertices();
  SeededFaultInjector faults(907);
  faults.SetRate(FaultSite::kSocketShortIo, 0.02);

  // Two ReplicaNodes behind FrameServers whose accepted connections are
  // ALSO fault-armed, so partial I/O and severs hit both directions.
  ShardedEngineOptions engine_opt;
  engine_opt.target_shards = 4;
  engine_opt.num_query_threads = 2;
  engine_opt.max_batch_size = 8;
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  std::vector<std::unique_ptr<FrameServer>> servers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<ReplicaNode>(
        testing_util::SmallRoadNetwork(6, 907), HierarchyOptions{},
        engine_opt));
    ReplicaNode* raw = nodes.back().get();
    FrameServer::Options server_opt;
    server_opt.faults = &faults;
    servers.push_back(std::make_unique<FrameServer>(
        server_opt, [raw](const uint8_t* data, size_t size) {
          return raw->Handle(data, size);
        }));
    ASSERT_TRUE(servers.back()->Start().ok());
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(servers.back()->port()));
  }

  SocketTransportOptions transport_opt;
  transport_opt.faults = &faults;
  transport_opt.backoff_initial = milliseconds(1);
  transport_opt.backoff_max = milliseconds(10);
  SocketTransport transport(endpoints, transport_opt);

  ShardRouterOptions opt;
  opt.engine = engine_opt;
  opt.num_query_threads = 4;
  ShardRouter router(std::move(g), HierarchyOptions{}, opt, &transport, {});
  const std::shared_ptr<const RouterSnapshot> snap0 =
      router.CurrentSnapshot();
  Dijkstra audit(snap0->graph);  // no updates: epoch 0 throughout

  CompletionQueue queue;
  Rng rng(908);
  constexpr uint64_t kTags = 256;
  std::map<uint64_t, QueryPair> submitted;
  {
    std::vector<QueryPair> queries;
    std::vector<uint64_t> tags;
    for (uint64_t i = 0; i < kTags; ++i) {
      QueryPair q{static_cast<Vertex>(rng.NextBounded(n)),
                  static_cast<Vertex>(rng.NextBounded(n))};
      queries.push_back(q);
      tags.push_back(i);
      submitted.emplace(i, q);
    }
    // Waves of four: each routed span is one RPC, so one 512-query
    // batch would cross the transport only a handful of times.
    std::vector<ShardRouter::Ticket> tickets;
    for (size_t i = 0; i < queries.size(); i += 4) {
      const std::vector<QueryPair> wave(queries.begin() + i,
                                        queries.begin() + i + 4);
      const std::vector<uint64_t> wave_tags(tags.begin() + i,
                                            tags.begin() + i + 4);
      tickets.push_back(router.SubmitBatchTagged(wave, wave_tags, &queue));
    }
    for (ShardRouter::Ticket& ticket : tickets) ticket.Wait();
  }

  // Exactly once per tag, exact or typed — zero lost, zero doubled,
  // socket severs notwithstanding.
  std::set<uint64_t> seen;
  uint64_t unavailable = 0;
  Completion out[64];
  while (seen.size() < kTags) {
    const size_t got = queue.WaitPoll(out, 64, milliseconds(10000));
    ASSERT_GT(got, 0u) << "completion queue starved with "
                       << (kTags - seen.size()) << " tags outstanding";
    for (size_t i = 0; i < got; ++i) {
      ASSERT_TRUE(seen.insert(out[i].tag).second)
          << "tag " << out[i].tag << " delivered twice";
      const QueryPair q = submitted.at(out[i].tag);
      if (out[i].code == StatusCode::kOk) {
        ASSERT_EQ(out[i].distance, audit.Distance(q.first, q.second))
            << "tag " << out[i].tag;
      } else {
        ASSERT_EQ(out[i].code, StatusCode::kUnavailable);
        ++unavailable;
      }
    }
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_GT(faults.fired(FaultSite::kSocketShortIo), 0u)
      << "short-I/O schedule never fired; the chaos was vacuous";
  RouterStats mid = router.Stats();
  EXPECT_EQ(mid.serving.queries_served + mid.serving.queries_unavailable,
            kTags);
  EXPECT_EQ(mid.serving.queries_unavailable, unavailable);

  // Fault clears: the transport redials severed channels lazily and
  // every query answers exactly again.
  faults.Clear();
  for (int i = 0; i < 64; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    RouterQueryResult r = router.Submit({s, t}).get();
    ASSERT_EQ(r.code, StatusCode::kOk) << "post-recovery i=" << i;
    ASSERT_EQ(r.distance, audit.Distance(s, t)) << "post-recovery i=" << i;
  }
}

}  // namespace
}  // namespace stl
