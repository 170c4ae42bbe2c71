// The three serving tiers under an open-loop generator: set-up, warm-up,
// a fixed-rate phase with concurrent updates, a closed-loop peak phase,
// then RSS and the Dijkstra audit of a deterministic answer sample.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "dist/replica_node.h"
#include "dist/shard_router.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "host.h"
#include "net/server.h"

namespace perfbench {
namespace {

constexpr int64_t kUs = 1000;
constexpr int64_t kMs = 1000 * kUs;
constexpr int64_t kSpinLeadNs = 250 * kUs;   // sleep until then, then spin
constexpr int64_t kLateNs = 100 * kUs;       // "late" generator sends
constexpr int64_t kPeakWindowNs = 100 * kMs;  // peak_qps sub-window
constexpr int64_t kDrainTimeoutNs = 60'000 * kMs;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kAuditSamples = 128;
// Set-ups per untraced run: one untimed warm-up, then at least 4 timed,
// more while they fit in 5 s.
constexpr size_t kMinSetups = 4;
constexpr size_t kMaxSetups = 9;
constexpr int64_t kSetupBudgetNs = 5000 * kMs;
// tier.query_p50_us / tier.query_p90_us: median over 1 s windows of each
// window's quantile.
constexpr int64_t kLatencyWindowNs = 1000 * kMs;
constexpr size_t kMinWindowSamples = 100;

// Request stream ids (MakeRequest's `phase`). The traced pass replays
// the untraced pass's requests, so their difference is the tracing cost.
constexpr uint64_t kStreamWarmup = 1;
constexpr uint64_t kStreamFixed = 2;
constexpr uint64_t kStreamPeak = 3;

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Open-loop pacing: sleep until shortly before `due`, then spin, since
/// sleep wake-ups alone run tens of microseconds late.
void WaitUntil(int64_t due) {
  if (NowNs() < due - kSpinLeadNs) SleepUntilNs(due - kSpinLeadNs);
  while (NowNs() < due) {
  }
}

// ------------------------------------------------------------ tiers

/// One serving tier as the generator and updater see it.
class Tier {
 public:
  virtual ~Tier() = default;
  virtual void Submit(const std::vector<stl::QueryPair>& pairs,
                      const std::vector<uint64_t>& tags,
                      stl::CompletionSink* sink) = 0;
  /// EnqueueUpdates + Flush: returns once the batch is visible.
  virtual void Update(const stl::UpdateBatch& batch) = 0;
  virtual uint64_t Epoch() const = 0;
  virtual void ResetStats() = 0;
  /// The tier's own counters as per-layer metrics.
  virtual void Harvest(MetricSet* m) const = 0;
  /// Routes the tier's RPC and replica spans to `rec` (null = off).
  virtual void SetRecorder(SpanRecorder*) {}
  virtual uint64_t Reconnects() const { return 0; }
};

void HarvestEngine(const stl::EngineStats& s, MetricSet* m) {
  const double epochs = std::max<double>(1, s.epochs_published);
  const double overlays = std::max<double>(1, s.overlay_republishes);
  m->Set("engine.publish_us_per_epoch", s.publish_total_micros / epochs, "us");
  m->Set("engine.cow_kb_per_epoch", s.cow_bytes_cloned / epochs / 1024.0,
         "KiB");
  m->Set("engine.coalesced_share",
         s.updates_enqueued ? static_cast<double>(s.updates_coalesced) /
                                  s.updates_enqueued
                            : 0,
         "ratio");
  m->Set("engine.boundary_row_cache_hit_rate", s.boundary_row_cache_hit_rate,
         "ratio");
  m->Set("engine.result_cache_hit_rate", s.result_cache_hit_rate, "ratio");
  m->Set("index.overlay_publish_us_per_epoch",
         s.overlay_repair_micros / overlays, "us");
  m->Set("index.overlay_rebuild_us_per_epoch",
         s.overlay_rebuild_micros / overlays, "us");
  m->Set("index.rows_repaired_share",
         s.overlay_rows_total ? static_cast<double>(s.overlay_rows_repaired) /
                                    s.overlay_rows_total
                              : 0,
         "ratio");
  m->Set("index.full_rebuilds", static_cast<double>(s.overlay_full_rebuilds),
         "count");
  m->Set("index.clique_entries_per_epoch",
         s.clique_entries_recomputed / overlays, "count");
}

stl::ShardedEngineOptions ShardOptions(int readers) {
  stl::ShardedEngineOptions opt;
  opt.backend = stl::BackendKind::kStl;
  opt.target_shards = kShards;
  opt.num_query_threads = readers;
  return opt;
}

class FlatTier final : public Tier {
 public:
  explicit FlatTier(stl::Graph g) {
    ScopedThreadName name("flat-engine");
    stl::EngineOptions opt;
    opt.backend = stl::BackendKind::kStl;
    opt.num_query_threads = 2;
    opt.result_cache_entries = 0;
    engine_ = std::make_unique<stl::QueryEngine>(
        std::move(g), stl::HierarchyOptions{}, opt);
  }
  void Submit(const std::vector<stl::QueryPair>& pairs,
              const std::vector<uint64_t>& tags,
              stl::CompletionSink* sink) override {
    engine_->SubmitBatchTagged(pairs, tags, sink);
  }
  void Update(const stl::UpdateBatch& batch) override {
    engine_->EnqueueUpdates(batch);
    engine_->Flush();
  }
  uint64_t Epoch() const override { return engine_->CurrentEpoch(); }
  void ResetStats() override { engine_->ResetStats(); }
  void Harvest(MetricSet* m) const override {
    HarvestEngine(engine_->Stats(), m);
  }

 private:
  std::unique_ptr<stl::QueryEngine> engine_;
};

class ShardedTier final : public Tier {
 public:
  explicit ShardedTier(stl::Graph g) {
    ScopedThreadName name("shard-engine");
    stl::ShardedEngineOptions opt = ShardOptions(2);
    engine_ = std::make_unique<stl::ShardedEngine>(
        std::move(g), stl::HierarchyOptions{}, opt);
  }
  void Submit(const std::vector<stl::QueryPair>& pairs,
              const std::vector<uint64_t>& tags,
              stl::CompletionSink* sink) override {
    engine_->SubmitBatchTagged(pairs, tags, sink);
  }
  void Update(const stl::UpdateBatch& batch) override {
    engine_->EnqueueUpdates(batch);
    engine_->Flush();
  }
  uint64_t Epoch() const override { return engine_->CurrentEpoch(); }
  void ResetStats() override { engine_->ResetStats(); }
  void Harvest(MetricSet* m) const override {
    HarvestEngine(engine_->Stats(), m);
  }

 private:
  std::unique_ptr<stl::ShardedEngine> engine_;
};

uint16_t RpcSpanName(stl::WireKind kind) {
  switch (kind) {
    case stl::WireKind::kBoundaryRow:
      return kSpanRpcBoundaryRow;
    case stl::WireKind::kPointQuery:
      return kSpanRpcPointQuery;
    case stl::WireKind::kInstall:
      return kSpanRpcInstall;
  }
  return kSpanRpcInstall;
}

/// Transport decorator: times each Send -> OnResponse and counts the
/// bytes of query RPCs. With no recorder set it forwards untouched.
class TimedTransport final : public stl::Transport,
                             public stl::TransportSink {
 public:
  explicit TimedTransport(stl::Transport* inner) : inner_(inner) {}

  void set_recorder(SpanRecorder* rec) { rec_.store(rec); }

  uint32_t NumEndpoints() const override { return inner_->NumEndpoints(); }

  void Send(uint32_t endpoint, uint64_t tag,
            std::shared_ptr<const std::vector<uint8_t>> request,
            stl::TransportSink* sink) override {
    SpanRecorder* rec = rec_.load();
    stl::WireKind kind = stl::WireKind::kInstall;
    if (rec == nullptr ||
        !stl::PeekWireKind(request->data(), request->size(), &kind).ok()) {
      inner_->Send(endpoint, tag, std::move(request), sink);
      return;
    }
    const size_t bytes = request->size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!pending_.emplace(tag, Pending{sink, NowNs(), kind, bytes}).second) {
        inner_->Send(endpoint, tag, std::move(request), sink);
        return;
      }
    }
    inner_->Send(endpoint, tag, std::move(request), this);
  }

  void OnResponse(uint64_t tag, stl::Status status,
                  std::vector<uint8_t> payload) override {
    const int64_t end = NowNs();
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = pending_.find(tag);
      if (it == pending_.end()) {
        std::fprintf(stderr, "transport decorator: unknown tag %" PRIu64 "\n",
                     tag);
        std::abort();
      }
      p = it->second;
      pending_.erase(it);
    }
    if (SpanRecorder* rec = rec_.load()) {
      rec->Add(RpcSpanName(p.kind), p.start, end, Span::kNoParent, tag);
    }
    if (p.kind != stl::WireKind::kInstall) {
      query_rpcs_.fetch_add(1, std::memory_order_relaxed);
      request_bytes_.fetch_add(p.bytes, std::memory_order_relaxed);
      response_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
    }
    p.sink->OnResponse(tag, std::move(status), std::move(payload));
  }

  /// Mean bytes per traced query RPC (request, response).
  std::pair<double, double> MeanBytes() const {
    const double n = std::max<double>(1, query_rpcs_.load());
    return {request_bytes_.load() / n, response_bytes_.load() / n};
  }

 private:
  struct Pending {
    stl::TransportSink* sink = nullptr;
    int64_t start = 0;
    stl::WireKind kind = stl::WireKind::kInstall;
    size_t bytes = 0;
  };

  stl::Transport* const inner_;
  std::atomic<SpanRecorder*> rec_{nullptr};
  std::mutex mu_;
  std::unordered_map<uint64_t, Pending> pending_;  // guarded by mu_
  std::atomic<uint64_t> query_rpcs_{0};
  std::atomic<uint64_t> request_bytes_{0};
  std::atomic<uint64_t> response_bytes_{0};
};

uint16_t HandleSpanName(stl::WireKind kind) {
  switch (kind) {
    case stl::WireKind::kBoundaryRow:
      return kSpanHandleBoundaryRow;
    case stl::WireKind::kPointQuery:
      return kSpanHandlePointQuery;
    case stl::WireKind::kInstall:
      return kSpanHandleInstall;
  }
  return kSpanHandleInstall;
}

/// ShardRouter over SocketTransport to two in-process ReplicaNodes,
/// each behind its own FrameServer on 127.0.0.1.
class RouterTier final : public Tier {
 public:
  static constexpr uint32_t kReplicas = 2;
  static constexpr int kServerWorkers = 2;

  explicit RouterTier(stl::Graph g) {
    stl::ShardRouterOptions ropt;
    ropt.engine = ShardOptions(1);
    ropt.num_query_threads = 2;
    ropt.result_cache_entries = 4096;
    std::vector<std::string> endpoints;
    for (uint32_t i = 0; i < kReplicas; ++i) {
      {
        ScopedThreadName name(i == 0 ? "replica-0" : "replica-1");
        nodes_.push_back(std::make_unique<stl::ReplicaNode>(
            g, stl::HierarchyOptions{}, ropt.engine));
      }
      stl::ReplicaNode* node = nodes_.back().get();
      ScopedThreadName name(i == 0 ? "srv-loop-0" : "srv-loop-1");
      // Handlers run on worker threads, so an install (the replica's own
      // EnqueueUpdates + Flush) does not stall the queries behind it on
      // the loop.
      stl::FrameServer::Options sopt;
      sopt.worker_threads = kServerWorkers;
      servers_.push_back(std::make_unique<stl::FrameServer>(
          sopt,
          [this, node](const uint8_t* data, size_t size) {
            SpanRecorder* rec = handle_rec_.load();
            stl::WireKind kind = stl::WireKind::kInstall;
            if (rec == nullptr || !stl::PeekWireKind(data, size, &kind).ok()) {
              return node->Handle(data, size);
            }
            const int64_t start = NowNs();
            std::vector<uint8_t> out = node->Handle(data, size);
            rec->Add(HandleSpanName(kind), start, NowNs(), Span::kNoParent, 0);
            return out;
          }));
      if (!servers_.back()->Start().ok()) {
        std::fprintf(stderr, "router-tcp: FrameServer failed to start\n");
        std::exit(2);
      }
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(servers_.back()->port()));
    }
    {
      ScopedThreadName name("transport");
      socket_ = std::make_unique<stl::SocketTransport>(endpoints);
    }
    timed_ = std::make_unique<TimedTransport>(socket_.get());
    ScopedThreadName name("router");
    router_ = std::make_unique<stl::ShardRouter>(
        std::move(g), stl::HierarchyOptions{}, ropt, timed_.get(),
        std::vector<stl::ShardReplica*>{});
  }

  ~RouterTier() override {
    router_.reset();  // drains every fan-out before the transport dies
    socket_.reset();
    for (auto& s : servers_) s->Stop();
  }

  void Submit(const std::vector<stl::QueryPair>& pairs,
              const std::vector<uint64_t>& tags,
              stl::CompletionSink* sink) override {
    router_->SubmitTagged(pairs[0], tags[0], sink);
  }
  void Update(const stl::UpdateBatch& batch) override {
    router_->EnqueueUpdates(batch);
    router_->Flush();
  }
  uint64_t Epoch() const override { return router_->CurrentEpoch(); }
  void ResetStats() override { router_->ResetStats(); }
  void SetRecorder(SpanRecorder* rec) override {
    timed_->set_recorder(rec);
    handle_rec_.store(rec);
  }
  uint64_t Reconnects() const override { return socket_->reconnects(); }

  void Harvest(MetricSet* m) const override {
    const stl::RouterStats s = router_->Stats();
    HarvestEngine(s.serving, m);
    const double queries = std::max<double>(1, s.serving.queries_served);
    m->Set("dist.rpcs_per_query", s.rpcs_sent / queries, "count");
    m->Set("dist.retry_share",
           s.rpcs_sent ? static_cast<double>(s.rpc_retries) / s.rpcs_sent : 0,
           "ratio");
    m->Set("dist.stale_responses", static_cast<double>(s.rpc_stale_responses),
           "count");
    m->Set("dist.failovers", static_cast<double>(s.rpc_failovers), "count");
    m->Set("dist.wire_installs", static_cast<double>(s.wire_installs),
           "count");
    m->Set("dist.install_failures", static_cast<double>(s.install_failures),
           "count");
    const auto [req_bytes, resp_bytes] = timed_->MeanBytes();
    m->Set("dist.request_bytes", req_bytes, "bytes");
    m->Set("dist.response_bytes", resp_bytes, "bytes");
    m->Set("net.reconnects", static_cast<double>(socket_->reconnects()),
           "count");
    uint64_t accepted = 0;
    for (const auto& srv : servers_) accepted += srv->connections_accepted();
    m->Set("net.connections_accepted", static_cast<double>(accepted), "count");
  }

 private:
  std::atomic<SpanRecorder*> handle_rec_{nullptr};
  std::vector<std::unique_ptr<stl::ReplicaNode>> nodes_;
  std::vector<std::unique_ptr<stl::FrameServer>> servers_;
  std::unique_ptr<stl::SocketTransport> socket_;
  std::unique_ptr<TimedTransport> timed_;
  std::unique_ptr<stl::ShardRouter> router_;
};

/// The timed set-up: generate the network, build the tier, and serve
/// one request end to end.
std::unique_ptr<Tier> SetUp(Workload w) {
  stl::RoadNetworkOptions net;
  net.width = kGridSide;
  net.height = kGridSide;
  stl::Graph g = stl::GenerateRoadNetwork(net);
  std::unique_ptr<Tier> tier;
  switch (w) {
    case Workload::kFlatMatrix:
      tier = std::make_unique<FlatTier>(std::move(g));
      break;
    case Workload::kShardedChurn:
      tier = std::make_unique<ShardedTier>(std::move(g));
      break;
    case Workload::kRouterTcp:
      tier = std::make_unique<RouterTier>(std::move(g));
      break;
  }
  stl::CompletionQueue first;
  tier->Submit({{0, 1}}, {0}, &first);
  stl::Completion done;
  first.WaitPoll(&done, 1);
  return tier;
}

// ------------------------------------------------------- the ledger

/// Completion sink of one phase: per request the due, send and
/// completion times and the pairs still outstanding, plus the answers
/// of a deterministic audit sample (pair (r / stride) % pairs of every
/// stride-th request). Tags are request << 8 | pair.
class RequestLedger final : public stl::CompletionSink {
 public:
  struct Sample {
    stl::Weight distance = 0;
    uint64_t epoch = 0;
    stl::StatusCode code = stl::StatusCode::kOk;
    bool set = false;
  };

  RequestLedger(size_t capacity, uint32_t pairs, size_t stride, bool notify)
      : capacity_(capacity),
        pairs_(pairs),
        stride_(stride),
        notify_(notify),
        due_(new int64_t[capacity]),
        sent_(new int64_t[capacity]),
        submitted_(new int64_t[capacity]),
        done_(new int64_t[capacity]),
        remaining_(new uint32_t[capacity]),
        bad_(new uint32_t[capacity]),
        samples_(capacity / stride + 1) {}

  size_t capacity() const { return capacity_; }
  uint32_t pairs() const { return pairs_; }
  size_t stride() const { return stride_; }

  /// Prepares request r, due at `due`, before it is submitted.
  void Arm(size_t r, int64_t due) {
    due_[r] = due;
    bad_[r] = 0;
    std::atomic_ref<uint32_t>(remaining_[r]).store(pairs_,
                                                   std::memory_order_relaxed);
  }
  void MarkSent(size_t r, int64_t sent, int64_t submitted) {
    sent_[r] = sent;
    submitted_[r] = submitted;
  }

  void Deliver(const stl::Completion& c) override {
    const size_t r = static_cast<size_t>(c.tag >> 8);
    const uint32_t k = static_cast<uint32_t>(c.tag & 0xff);
    if (c.code != stl::StatusCode::kOk) {
      std::atomic_ref<uint32_t>(bad_[r]).store(1, std::memory_order_relaxed);
    }
    if (r % stride_ == 0 && k == (r / stride_) % pairs_) {
      samples_[r / stride_] = Sample{c.distance, c.epoch, c.code, true};
    }
    if (std::atomic_ref<uint32_t>(remaining_[r])
            .fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_[r] = NowNs();
      completed_.fetch_add(1, std::memory_order_release);
      if (notify_) completed_.notify_all();
    }
  }

  uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }

  /// Blocks until `target` requests completed; exits the process if
  /// the tier loses answers (the sink must outlive every delivery).
  void WaitCompleted(uint64_t target) const {
    const int64_t deadline = NowNs() + kDrainTimeoutNs;
    uint64_t seen = completed();
    while (seen < target) {
      if (NowNs() > deadline) {
        std::fprintf(stderr, "drain timed out: %" PRIu64 " of %" PRIu64
                     " requests answered\n", seen, target);
        std::_Exit(3);
      }
      if (notify_) {
        completed_.wait(seen, std::memory_order_acquire);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      seen = completed();
    }
  }

  /// Frees the per-request arrays once a phase's figures are taken, so
  /// they do not count in the process's resident set; the audit sample
  /// stays.
  void ReleaseTimes() {
    due_.reset();
    sent_.reset();
    submitted_.reset();
    done_.reset();
    remaining_.reset();
    bad_.reset();
  }

  int64_t due(size_t r) const { return due_[r]; }
  int64_t sent(size_t r) const { return sent_[r]; }
  int64_t submitted(size_t r) const { return submitted_[r]; }
  int64_t done(size_t r) const { return done_[r]; }
  bool bad(size_t r) const { return bad_[r] != 0; }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  const size_t capacity_;
  const uint32_t pairs_;
  const size_t stride_;
  const bool notify_;
  // Plain arrays, left uninitialised so untouched capacity costs no RSS.
  std::unique_ptr<int64_t[]> due_, sent_, submitted_, done_;
  std::unique_ptr<uint32_t[]> remaining_, bad_;
  std::vector<Sample> samples_;
  mutable std::atomic<uint64_t> completed_{0};
};

/// Applies the update stream at a fixed cadence from its own thread.
/// Batches due inside [start, end) are timed from EnqueueUpdates to the
/// return of Flush; a congest left open at the end is restored
/// (untimed), so every pass ends on the base weights.
class Updater {
 public:
  Updater(Tier* tier, const Inputs& in, const WorkloadSpec& spec,
          int64_t start, int64_t end, EpochWeights* weights,
          SpanRecorder* rec)
      : tier_(tier), in_(in), spec_(spec), start_(start), end_(end),
        weights_(weights), rec_(rec), thread_([this] { Run(); }) {}
  ~Updater() { Join(); }
  Updater(const Updater&) = delete;
  Updater& operator=(const Updater&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& visible_us() const { return visible_us_; }

 private:
  void Run() {
    ScopedThreadName name("pb-updater");
    const auto period = static_cast<int64_t>(spec_.update_period_s * 1e9);
    for (size_t j = 0;; ++j) {
      const int64_t due = start_ + static_cast<int64_t>(j) * period;
      const bool timed = due < end_;
      if (!timed && j % 2 == 0) break;
      stl::UpdateBatch batch = MakeUpdateBatch(in_, spec_.workload, j);
      if (timed) SleepUntilNs(due);
      const int64_t t0 = NowNs();
      tier_->Update(batch);
      const int64_t t1 = NowNs();
      weights_->AddBatch(std::move(batch));
      weights_->MapEpoch(tier_->Epoch(), j + 1);
      if (timed) visible_us_.push_back(static_cast<double>(t1 - t0) / kUs);
      if (rec_ != nullptr) rec_->Add(kSpanUpdate, t0, t1, Span::kNoParent, j);
    }
  }

  Tier* const tier_;
  const Inputs& in_;
  const WorkloadSpec spec_;
  const int64_t start_, end_;
  EpochWeights* const weights_;
  SpanRecorder* const rec_;
  std::vector<double> visible_us_;
  std::thread thread_;  // last: starts after every member it reads
};

// ------------------------------------------------------- the passes

struct Tail {
  Quantile p50, p90, p99, p999;
};

Tail TailOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {NearestRank(v, 0.5), NearestRank(v, 0.9), NearestRank(v, 0.99),
          NearestRank(v, 0.999)};
}

/// One warm-up + fixed-rate + peak measurement on a built tier.
struct Pass {
  std::unique_ptr<RequestLedger> fixed;
  std::unique_ptr<RequestLedger> peak;
  std::unique_ptr<EpochWeights> weights;
  size_t fixed_requests = 0;
  size_t peak_requests = 0;
  size_t failed_requests = 0;
  size_t batches = 0;
  Tail latency;
  size_t host_delayed = 0;  // sends the host, not the tier, made late
  double window_p50 = 0;  // median over 1 s windows of the window's p50
  double window_p90 = 0;
  Tail update;
  Lateness lateness;
  double peak_qps = 0;
  double submit_ns = 0;
  Tail submit_us;
  int64_t fixed_from_ns = 0;  // the fixed-rate phase, updater drained
  int64_t fixed_to_ns = 0;
  ThreadCensus fixed_census;
  ThreadCensus peak_census;
  MetricSet layer;  // the tier's counters over the fixed-rate phase
  std::string pinning;
};

std::unique_ptr<RequestLedger> RunFixedRate(Tier& tier, const Inputs& in,
                                            const WorkloadSpec& spec,
                                            uint64_t stream, int64_t start,
                                            double seconds) {
  const size_t n = static_cast<size_t>(std::llround(spec.rate * seconds));
  auto ledger = std::make_unique<RequestLedger>(
      n, spec.pairs, std::max<size_t>(1, n / kAuditSamples), false);
  const double interval = 1e9 / spec.rate;
  std::vector<stl::QueryPair> pairs;
  std::vector<uint64_t> tags(spec.pairs);
  for (size_t r = 0; r < n; ++r) {
    MakeRequest(in, spec.workload, stream, r, &pairs);
    for (uint32_t k = 0; k < spec.pairs; ++k) tags[k] = (r << 8) | k;
    const int64_t due =
        start + static_cast<int64_t>(std::llround(r * interval));
    ledger->Arm(r, due);
    WaitUntil(due);
    const int64_t sent = NowNs();
    tier.Submit(pairs, tags, ledger.get());
    ledger->MarkSent(r, sent, NowNs());
  }
  ledger->WaitCompleted(n);
  return ledger;
}

/// Closed loop: keeps `peak_window` requests in flight for `seconds`.
/// Returns the ledger; *issued and *end_ns report the requests sent
/// and where the measured interval ended.
std::unique_ptr<RequestLedger> RunClosedLoop(Tier& tier, const Inputs& in,
                                             const WorkloadSpec& spec,
                                             uint64_t stream, double seconds,
                                             size_t* issued, int64_t* start_ns,
                                             int64_t* end_ns) {
  const auto capacity =
      static_cast<size_t>(spec.peak_capacity_rps * seconds * 1.5) + 1024;
  const size_t stride = std::max<size_t>(
      1, static_cast<size_t>(spec.peak_capacity_rps * seconds) /
             (2 * kAuditSamples));
  auto ledger =
      std::make_unique<RequestLedger>(capacity, spec.pairs, stride, true);
  std::vector<stl::QueryPair> pairs;
  std::vector<uint64_t> tags(spec.pairs);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  size_t r = 0;
  int64_t now = start;
  for (; (now = NowNs()) < end && r < capacity;) {
    if (r - ledger->completed() >= spec.peak_window) {
      ledger->WaitCompleted(r - spec.peak_window + 1);
      continue;
    }
    MakeRequest(in, spec.workload, stream, r, &pairs);
    for (uint32_t k = 0; k < spec.pairs; ++k) tags[k] = (r << 8) | k;
    ledger->Arm(r, now);
    const int64_t sent = NowNs();
    tier.Submit(pairs, tags, ledger.get());
    ledger->MarkSent(r, sent, NowNs());
    ++r;
  }
  ledger->WaitCompleted(r);
  *issued = r;
  *start_ns = start;
  *end_ns = std::min(end, now);
  return ledger;
}

void EmitRequestSpans(const RequestLedger& ledger, size_t n,
                      SpanRecorder* rec) {
  for (size_t r = 0; r < n; ++r) {
    const uint32_t id = rec->Add(kSpanRequest, ledger.due(r), ledger.done(r),
                                 Span::kNoParent, r);
    rec->Add(kSpanSubmit, ledger.sent(r), ledger.submitted(r), id, r);
  }
}

Pass RunPass(Tier& tier, const Inputs& in, const WorkloadSpec& spec,
             double fixed_s, double peak_s, SpanRecorder* rec) {
  Pass pass;

  pass.pinning = PinGeneratorCpu();
  // Warm-up: the fixed rate without updates, not recorded.
  RunFixedRate(tier, in, spec, kStreamWarmup, NowNs() + kMs, kWarmupSeconds);
  tier.ResetStats();

  // Fixed-rate phase with the update stream running beside it.
  pass.weights = std::make_unique<EpochWeights>(in.base);
  pass.weights->MapEpoch(tier.Epoch(), 0);
  const int64_t start = NowNs() + 5 * kMs;
  const int64_t end = start + static_cast<int64_t>(fixed_s * 1e9);
  std::vector<ThreadSample> before = SampleThreads();
  Updater updater(&tier, in, spec, start, end, pass.weights.get(), rec);
  PinGeneratorCpu();  // the updater thread joins the serving CPUs
  pass.fixed = RunFixedRate(tier, in, spec, kStreamFixed, start, fixed_s);
  updater.Join();  // after the closing restore
  pass.fixed_from_ns = start;
  pass.fixed_to_ns = NowNs();
  pass.fixed_census = CensusBetween(
      before, SampleThreads(),
      static_cast<double>(pass.fixed_to_ns - start) * 1e-9);
  tier.Harvest(&pass.layer);
  pass.update = TailOf(updater.visible_us());
  pass.batches = updater.visible_us().size();
  pass.fixed_requests = pass.fixed->capacity();

  std::vector<double> latency_us(pass.fixed_requests);
  std::vector<int64_t> due(pass.fixed_requests);
  std::vector<int64_t> sent(pass.fixed_requests);
  std::vector<int64_t> submitted(pass.fixed_requests);
  std::vector<double> submit_ns(pass.fixed_requests);
  for (size_t r = 0; r < pass.fixed_requests; ++r) {
    const bool bad = pass.fixed->bad(r);
    pass.failed_requests += bad;
    latency_us[r] = bad ? INFINITY
                        : static_cast<double>(pass.fixed->done(r) -
                                              pass.fixed->due(r)) / kUs;
    due[r] = pass.fixed->due(r);
    sent[r] = pass.fixed->sent(r);
    submitted[r] = pass.fixed->submitted(r);
    submit_ns[r] = static_cast<double>(submitted[r] - sent[r]);
  }
  // Sends the host made late are left out of the windowed quantiles; a
  // send delayed by a slow Submit stays in (see HostDelayedSends).
  const std::vector<bool> host_delayed =
      HostDelayedSends(due, sent, submitted, kLateNs);
  std::vector<int64_t> kept_due;
  std::vector<double> kept_latency_us;
  for (size_t r = 0; r < pass.fixed_requests; ++r) {
    if (host_delayed[r]) {
      ++pass.host_delayed;
    } else {
      kept_due.push_back(due[r]);
      kept_latency_us.push_back(latency_us[r]);
    }
  }
  pass.window_p50 = WindowedQuantile(kept_due, kept_latency_us, start,
                                     kLatencyWindowNs, 0.5, kMinWindowSamples);
  pass.window_p90 = WindowedQuantile(kept_due, kept_latency_us, start,
                                     kLatencyWindowNs, 0.9, kMinWindowSamples);
  pass.latency = TailOf(std::move(latency_us));
  pass.lateness = SummarizeLateness(due, sent, kLateNs);
  pass.submit_ns = Median(submit_ns);
  for (double& ns : submit_ns) ns /= kUs;
  pass.submit_us = TailOf(std::move(submit_ns));
  if (rec != nullptr) {
    EmitRequestSpans(*pass.fixed, pass.fixed_requests, rec);
  }
  pass.fixed->ReleaseTimes();

  // Closed-loop peak, no updates.
  before = SampleThreads();
  int64_t peak_start = 0;
  int64_t peak_end = 0;
  pass.peak = RunClosedLoop(tier, in, spec, kStreamPeak, peak_s,
                            &pass.peak_requests, &peak_start, &peak_end);
  pass.peak_census = CensusBetween(
      before, SampleThreads(),
      static_cast<double>(peak_end - peak_start) * 1e-9);
  std::vector<int64_t> done(pass.peak_requests);
  for (size_t r = 0; r < pass.peak_requests; ++r) {
    done[r] = pass.peak->done(r);
    pass.failed_requests += pass.peak->bad(r);
  }
  pass.peak_qps = SubWindowMedianRate(
      done, std::vector<uint32_t>(done.size(), spec.pairs), peak_start,
      peak_end, kPeakWindowNs);
  pass.peak->ReleaseTimes();
  return pass;
}

// ------------------------------------------------------- the audit

struct AuditCount {
  uint64_t audited = 0;
  uint64_t mismatches = 0;
};

/// Checks the ledger's sampled answers against Dijkstra on the weights
/// of each answer's epoch. A sampled pair that never got an answer, or
/// came from an epoch the update stream cannot explain, is a mismatch;
/// a non-kOk answer is already a failed request and is not re-counted.
AuditCount Audit(const RequestLedger& ledger, size_t issued,
                 const Inputs& in, Workload w, uint64_t stream,
                 const EpochWeights& weights) {
  struct Check {
    stl::Vertex s, t;
    stl::Weight distance;
  };
  AuditCount count;
  std::map<uint64_t, std::vector<Check>> by_epoch;
  std::vector<stl::QueryPair> pairs;
  const auto& samples = ledger.samples();
  for (size_t slot = 0; slot < samples.size(); ++slot) {
    const size_t r = slot * ledger.stride();
    if (r >= issued) break;
    const RequestLedger::Sample& a = samples[slot];
    if (!a.set) {
      ++count.mismatches;
      continue;
    }
    if (a.code != stl::StatusCode::kOk) continue;
    MakeRequest(in, w, stream, r, &pairs);
    const stl::QueryPair q = pairs[slot % ledger.pairs()];
    by_epoch[a.epoch].push_back({q.first, q.second, a.distance});
  }
  for (const auto& [epoch, checks] : by_epoch) {
    stl::Graph g;
    if (!weights.GraphAt(epoch, &g)) {
      count.mismatches += checks.size();
      continue;
    }
    stl::Dijkstra dijkstra(g);
    for (const Check& c : checks) {
      ++count.audited;
      if (dijkstra.Distance(c.s, c.t) != c.distance) ++count.mismatches;
    }
  }
  return count;
}

void PrintPass(const char* label, const WorkloadSpec& spec, const Pass& p) {
  std::printf(
      "[%s] %s fixed-rate: %zu requests at %.0f/s x %u pairs: median of "
      "1 s windows p50 %.1f us, p90 %.1f us; whole phase p50 %.1f us, p90 "
      "%.1f us (%zu beyond), p99 %.1f us (%zu beyond), p99.9 %.1f us (%zu "
      "beyond)\n",
      spec.name, label, p.fixed_requests, spec.rate, spec.pairs, p.window_p50,
      p.window_p90, p.latency.p50.value, p.latency.p90.value,
      p.latency.p90.beyond, p.latency.p99.value, p.latency.p99.beyond,
      p.latency.p999.value, p.latency.p999.beyond);
  std::printf(
      "[%s] %s generator lateness: mean %.2f us, max %.1f us, %.3f%% (%zu) "
      "sent > 100 us late, %zu of them by the host (left out of the "
      "windowed quantiles); time inside Submit p50 %.1f us, p99 %.1f us\n",
      spec.name, label, p.lateness.mean_us, p.lateness.max_us,
      100 * p.lateness.late_share, p.lateness.late, p.host_delayed,
      p.submit_us.p50.value, p.submit_us.p99.value);
  std::printf(
      "[%s] %s updates: %zu batches every %.0f ms, visible p50 %.0f us, "
      "p90 %.0f us (%zu beyond), p99 %.0f us (%zu beyond)\n",
      spec.name, label, p.batches, spec.update_period_s * 1e3,
      p.update.p50.value, p.update.p90.value, p.update.p90.beyond,
      p.update.p99.value, p.update.p99.beyond);
  std::printf(
      "[%s] %s peak: closed loop, %u in flight, %zu requests, median of "
      "100 ms windows %.0f pairs/s\n",
      spec.name, label, spec.peak_window, p.peak_requests, p.peak_qps);
  std::printf("[%s] %s threads: %s\n", spec.name, label, p.pinning.c_str());
  for (const auto* c : {&p.fixed_census, &p.peak_census}) {
    std::printf(
        "[%s] %s census (%s): %zu threads, %zu busy (>= %.0f%% of a CPU), "
        "%.2f CPUs used; name:threads/busy/cpus %s\n",
        spec.name, label, c == &p.fixed_census ? "fixed-rate" : "peak",
        c->threads, c->busy, 100 * ThreadCensus::kBusyShare, c->cpu_cores,
        c->by_role.c_str());
  }
}

}  // namespace

void RunWorkload(const RunConfig& config, const Inputs& in,
                 SpanRecorder* rec, MetricSet* m, RunTotals* totals) {
  const WorkloadSpec& spec = config.spec;

  // Set-up, repeated; all but the last tier are torn down untimed. The
  // first set-up of an untraced run is a warm-up: it ran 20-60% slower
  // than the rest (first touch of the process's pages, idle vCPUs
  // waking), and left in it moved the median.
  std::vector<double> setups;
  std::unique_ptr<Tier> tier;
  if (!config.trace) tier = SetUp(spec.workload);
  const int64_t setup_start = NowNs();
  while (setups.empty() ||
         (!config.trace &&
          (setups.size() < kMinSetups ||
           (NowNs() - setup_start < kSetupBudgetNs &&
            setups.size() < kMaxSetups)))) {
    tier.reset();
    const int64_t t0 = NowNs();
    tier = SetUp(spec.workload);
    setups.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  malloc_trim(0);  // hand the torn-down tiers' pages back before RSS
  std::printf("[%s] setup_s per set-up:", spec.name);
  for (double s : setups) std::printf(" %.3f", s);
  std::printf(" -> median %.3f s\n", Median(setups));

  const double fixed_s = FixedSeconds(config);
  const double peak_s = config.seconds - fixed_s;
  std::vector<Pass> passes;
  passes.push_back(RunPass(*tier, in, spec, fixed_s, peak_s, nullptr));
  PrintPass("untraced", spec, passes.back());
  if (config.trace) {
    tier->SetRecorder(rec);
    passes.push_back(RunPass(*tier, in, spec, fixed_s, peak_s, rec));
    tier->SetRecorder(nullptr);
    PrintPass("traced", spec, passes.back());
  }
  malloc_trim(0);  // count live pages, not the allocator's free lists
  const double resident_mb = ResidentMb();
  totals->reconnects = tier->Reconnects();

  const unsigned nproc = std::thread::hardware_concurrency();
  for (const Pass& p : passes) {
    const AuditCount fixed = Audit(*p.fixed, p.fixed_requests, in,
                                   spec.workload, kStreamFixed, *p.weights);
    const AuditCount peak = Audit(*p.peak, p.peak_requests, in,
                                  spec.workload, kStreamPeak, *p.weights);
    totals->attempted += p.fixed_requests + p.peak_requests + p.batches;
    totals->audited += fixed.audited + peak.audited;
    totals->mismatches += fixed.mismatches + peak.mismatches;
    totals->failed +=
        p.failed_requests + fixed.mismatches + peak.mismatches;
    // The budget applies at the fixed rate; the closed loop saturates
    // the tier on purpose and its census is printed only.
    totals->census_ok = totals->census_ok && p.fixed_census.busy <= nproc;
  }
  tier.reset();

  const Pass& base = passes.front();
  if (!config.trace) {
    m->Set("setup_s", Median(setups), "s");
    m->Set("resident_mb", resident_mb, "MiB");
    return;
  }
  // The tier's own figures that did not hold steady enough to carry a
  // bound on this host (README.md, Steadiness), from the untraced pass.
  m->Set("tier.query_p50_us", base.window_p50, "us");
  m->Set("tier.query_p90_us", base.window_p90, "us");
  m->Set("tier.peak_qps", base.peak_qps, "1/s");
  m->Set("tier.update_visible_p50_us", base.update.p50.value, "us");
  m->Set("tier.update_visible_p90_us", base.update.p90.value, "us");
  const Pass& traced = passes.back();
  totals->traced_from_ns = traced.fixed_from_ns;
  totals->traced_to_ns = traced.fixed_to_ns;
  for (const auto& [name, value] : traced.layer.items()) {
    m->Set(name, value.first, value.second);
  }
  m->Set("engine.submit_ns", traced.submit_ns, "ns");
  m->Set("trace.overhead.query_p50_us", traced.window_p50 - base.window_p50,
         "us");
  m->Set("trace.overhead.query_p90_us", traced.window_p90 - base.window_p90,
         "us");
  m->Set("trace.overhead.peak_qps", traced.peak_qps - base.peak_qps, "1/s");
  std::printf(
      "[%s] tracing overhead (traced - untraced): query_p50_us %+.1f, "
      "query_p90_us %+.1f, peak_qps %+.0f, update_visible_p50_us %+.0f\n",
      spec.name, traced.window_p50 - base.window_p50,
      traced.window_p90 - base.window_p90,
      traced.peak_qps - base.peak_qps,
      traced.update.p50.value - base.update.p50.value);
}

}  // namespace perfbench
