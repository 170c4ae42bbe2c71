// Direct replay calls of the traced run: each layer's public functions
// timed in isolation on this seed's inputs, on one thread.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <unordered_set>

#include "bench.h"
#include "core/stl_index.h"
#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "engine/sharded_engine.h"
#include "index/overlay.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/simd.h"

namespace perfbench {
namespace {

constexpr size_t kQueryRequests = 2000;   // flat-matrix requests replayed
constexpr size_t kParetoBatches = 100;    // flat-matrix batches replayed
constexpr size_t kLabelBatches = 20;      // sharded-churn batches replayed
constexpr int kPartitionRepeats = 3;
constexpr size_t kMinPlusCalls = 2000;    // per width, per kernel
constexpr size_t kOdRequests = 64;        // sharded-churn requests replayed
constexpr size_t kCodecRounds = 20;
constexpr size_t kEchoRounds = 2000;
constexpr size_t kEchoWarmup = 50;

/// Keeps a computed value observable so the timed loop is not elided.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

/// Times `fn` as one span and returns its duration in ns.
template <typename Fn>
int64_t Timed(SpanRecorder* rec, uint16_t name, uint64_t id, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  rec->Add(name, start, end, Span::kNoParent, id);
  return end - start;
}

/// Fills old weights from the index's graph and drops repeated edges:
/// StlIndex::ApplyBatch takes distinct edges with their current weight.
stl::UpdateBatch Resolve(const stl::StlIndex& index,
                         const stl::UpdateBatch& batch) {
  stl::UpdateBatch out;
  std::unordered_set<stl::EdgeId> seen;
  for (const stl::WeightUpdate& u : batch) {
    const stl::Weight old = index.graph().EdgeWeight(u.edge);
    if (old == u.new_weight || !seen.insert(u.edge).second) continue;
    out.push_back(stl::WeightUpdate{u.edge, old, u.new_weight});
  }
  return out;
}

void ProbeCore(const Inputs& in, SpanRecorder* rec, MetricSet* m) {
  stl::Graph g = in.base;
  stl::StlIndex index = stl::StlIndex::Build(&g, stl::HierarchyOptions{});
  m->Set("core.hierarchy_s", index.build_info().hierarchy_seconds, "s");
  m->Set("core.labelling_s", index.build_info().labelling_seconds, "s");
  m->Set("core.labelling_mb", index.MemoryBytes() / (1024.0 * 1024.0),
         "MiB");

  // Label-merge queries over flat-matrix's pairs, timed per request (a
  // per-call clock read would be a large share of one query).
  std::vector<double> per_query;
  std::vector<stl::QueryPair> pairs;
  stl::Weight sink = 0;
  for (size_t r = 0; r < kQueryRequests; ++r) {
    MakeRequest(in, Workload::kFlatMatrix, 2, r, &pairs);
    const int64_t ns = Timed(rec, kSpanCoreQueryBlock, r, [&] {
      for (const stl::QueryPair& q : pairs) {
        sink ^= index.Query(q.first, q.second);
      }
    });
    per_query.push_back(static_cast<double>(ns) / pairs.size());
  }
  m->Set("core.query_ns", Median(per_query), "ns");

  // STL-P on flat-matrix's batches, STL-L on sharded-churn's; both
  // streams alternate congest and restore, so the replay ends on the
  // base weights.
  struct Replay {
    Workload w;
    size_t batches;
    stl::MaintenanceStrategy strategy;
    uint16_t span;
    const char* metric;
  };
  for (const Replay& replay :
       {Replay{Workload::kFlatMatrix, kParetoBatches,
               stl::MaintenanceStrategy::kParetoSearch, kSpanCorePareto,
               "core.pareto_us_per_update"},
        Replay{Workload::kShardedChurn, kLabelBatches,
               stl::MaintenanceStrategy::kLabelSearch, kSpanCoreLabel,
               "core.label_us_per_update"}}) {
    const stl::MaintenanceStats before = index.MaintenanceStatsTotal();
    int64_t ns = 0;
    size_t updates = 0;
    for (size_t j = 0; j < replay.batches; ++j) {
      const stl::UpdateBatch batch =
          Resolve(index, MakeUpdateBatch(in, replay.w, j));
      updates += batch.size();
      ns += Timed(rec, replay.span, j,
                  [&] { index.ApplyBatch(batch, replay.strategy); });
    }
    const double n = std::max<size_t>(1, updates);
    m->Set(replay.metric, static_cast<double>(ns) / 1e3 / n, "us");
    if (replay.strategy == stl::MaintenanceStrategy::kParetoSearch) {
      const stl::MaintenanceStats after = index.MaintenanceStatsTotal();
      m->Set("core.label_writes_per_update",
             (after.label_writes - before.label_writes) / n, "count");
      m->Set("core.affected_pairs_per_update",
             (after.affected_pairs - before.affected_pairs) / n, "count");
      m->Set("core.queue_pops_per_update",
             (after.queue_pops - before.queue_pops) / n, "count");
    }
  }
  Keep(sink);
}

void ProbePartitionAndKernels(const Inputs& in, SpanRecorder* rec,
                              MetricSet* m) {
  std::vector<double> seconds;
  for (int i = 0; i < kPartitionRepeats; ++i) {
    const int64_t ns = Timed(rec, kSpanPartition, i, [&] {
      const stl::CellPartition cells =
          stl::PartitionCells(in.base, kShards, stl::HierarchyOptions{});
      const stl::ShardPlan plan = stl::BuildShardPlan(in.base, cells);
      Keep(plan.layout.num_shards());
    });
    seconds.push_back(static_cast<double>(ns) * 1e-9);
  }
  m->Set("partition.cells_s", Median(seconds), "s");

  // The overlay and shard views of a built sharded engine, for the
  // min-plus kernels and the wire codec.
  stl::ShardedEngineOptions opt;
  opt.target_shards = kShards;
  opt.num_query_threads = 1;
  stl::ShardedEngine engine(in.base, stl::HierarchyOptions{}, opt);
  const auto snap = engine.CurrentSnapshot();
  const stl::ShardLayout& layout = *snap->layout;

  // util: one min-plus reduction per call at each shard's row width.
  stl::Rng rng(in.seed ^ 0x5eedULL);
  double avx2_sum = 0;
  double scalar_sum = 0;
  for (uint32_t s = 0; s < layout.num_shards(); ++s) {
    const auto width =
        static_cast<uint32_t>(layout.shards[s].boundary_local.size());
    std::vector<stl::Weight> a(width);
    std::vector<stl::Weight> b(width);
    for (uint32_t i = 0; i < width; ++i) {
      a[i] = static_cast<stl::Weight>(rng.NextBounded(1u << 20));
      b[i] = static_cast<stl::Weight>(rng.NextBounded(1u << 20));
    }
    stl::Weight acc = 0;
    const int64_t scalar_ns = Timed(rec, kSpanMinPlusScalar, s, [&] {
      for (size_t c = 0; c < kMinPlusCalls; ++c) {
        b[c % width] ^= 1;
        acc ^= stl::MinPlusReduceScalar(a.data(), b.data(), width);
      }
    });
    scalar_sum += static_cast<double>(scalar_ns) / kMinPlusCalls;
#ifdef STL_HAVE_AVX2_KERNEL
    if (stl::MinPlusReduceUsesAvx2()) {
      const int64_t avx2_ns = Timed(rec, kSpanMinPlusAvx2, s, [&] {
        for (size_t c = 0; c < kMinPlusCalls; ++c) {
          b[c % width] ^= 1;
          acc ^= stl::simd_internal::MinPlusReduceAvx2(a.data(), b.data(),
                                                       width);
        }
      });
      avx2_sum += static_cast<double>(avx2_ns) / kMinPlusCalls;
    }
#endif
    Keep(acc);
  }
  const double shards = std::max<uint32_t>(1, layout.num_shards());
  m->Set("util.minplus_reduce_ns.avx2", avx2_sum / shards, "ns");
  m->Set("util.minplus_reduce_ns.scalar", scalar_sum / shards, "ns");

  // index: MinPlusRowsInto on sharded-churn's cross-cell pairs, and the
  // wire messages a router would exchange for their source rows.
  std::vector<double> rows_ns;
  std::vector<stl::ShardRequest> requests;
  std::vector<stl::ShardResponse> responses;
  std::vector<stl::QueryPair> pairs;
  std::vector<stl::Weight> target_row;
  std::vector<stl::Weight> source_row;
  std::vector<stl::Weight> out;
  for (size_t r = 0; r < kOdRequests; ++r) {
    MakeRequest(in, Workload::kShardedChurn, 2, r, &pairs);
    for (const stl::QueryPair& q : pairs) {
      const uint32_t a = layout.shard_of_vertex[q.first];
      const uint32_t b = layout.shard_of_vertex[q.second];
      if (a == b || a >= layout.num_shards() || b >= layout.num_shards()) {
        continue;
      }
      stl::FillShardBoundaryRow(layout, b, *snap->shards[b]->view, q.second,
                                &target_row);
      const std::vector<uint32_t>& rows = layout.shards[a].boundary_pos;
      out.resize(rows.size());
      const int64_t ns = Timed(rec, kSpanMinPlusRows, r, [&] {
        snap->overlay->MinPlusRowsInto(b, rows.data(),
                                       static_cast<uint32_t>(rows.size()),
                                       target_row.data(), out.data());
      });
      rows_ns.push_back(static_cast<double>(ns));
      stl::FillShardBoundaryRow(layout, a, *snap->shards[a]->view, q.first,
                                &source_row);
      stl::ShardRequest req;
      req.kind = stl::WireKind::kBoundaryRow;
      req.shard = a;
      req.shard_epoch = snap->shards[a]->shard_epoch;
      req.u = q.first;
      requests.push_back(req);
      stl::ShardResponse resp;
      resp.shard = a;
      resp.shard_epoch = req.shard_epoch;
      resp.row = source_row;
      responses.push_back(std::move(resp));
    }
  }
  m->Set("index.minplus_rows_ns", Median(rows_ns), "ns");

  std::vector<std::vector<uint8_t>> encoded;
  for (const stl::ShardResponse& resp : responses) {
    encoded.push_back(resp.Encode());
  }
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  size_t bytes = 0;
  for (size_t round = 0; round < kCodecRounds; ++round) {
    const int64_t enc = Timed(rec, kSpanEncode, round, [&] {
      for (const stl::ShardRequest& req : requests) bytes += req.Encode().size();
    });
    encode_ns.push_back(static_cast<double>(enc) /
                        std::max<size_t>(1, requests.size()));
    stl::ShardResponse decoded;
    const int64_t dec = Timed(rec, kSpanDecode, round, [&] {
      for (const auto& e : encoded) {
        if (!stl::ShardResponse::Decode(e.data(), e.size(), &decoded).ok()) {
          std::printf("decode failed\n");
        }
      }
    });
    decode_ns.push_back(static_cast<double>(dec) /
                        std::max<size_t>(1, encoded.size()));
  }
  m->Set("dist.encode_ns", Median(encode_ns), "ns");
  m->Set("dist.decode_ns", Median(decode_ns), "ns");
  Keep(bytes);
}

/// Collects exactly one response at a time.
class OneShotSink final : public stl::TransportSink {
 public:
  void OnResponse(uint64_t, stl::Status status,
                  std::vector<uint8_t>) override {
    std::lock_guard<std::mutex> lock(mu_);
    ok_ = status.ok();
    done_ = true;
    cv_.notify_one();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
    done_ = false;
    return ok_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  bool ok_ = false;    // guarded by mu_
};

void ProbeEcho(SpanRecorder* rec, MetricSet* m) {
  stl::FrameServer server(stl::FrameServer::Options{},
                          [](const uint8_t* data, size_t size) {
                            return std::vector<uint8_t>(data, data + size);
                          });
  if (!server.Start().ok()) {
    std::printf("echo probe: server failed to start\n");
    return;
  }
  std::vector<double> rtt_us;
  {
    stl::SocketTransport transport(
        {"127.0.0.1:" + std::to_string(server.port())});
    OneShotSink sink;
    const auto payload = std::make_shared<const std::vector<uint8_t>>(32, 7);
    for (size_t i = 0; i < kEchoWarmup + kEchoRounds; ++i) {
      bool ok = false;
      const int64_t ns = Timed(rec, kSpanEcho, i, [&] {
        transport.Send(0, i, payload, &sink);
        ok = sink.Wait();
      });
      if (ok && i >= kEchoWarmup) rtt_us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  server.Stop();
  m->Set("net.echo_rtt_us", Median(rtt_us), "us");
}

}  // namespace

void RunLayerProbes(const Inputs& in, SpanRecorder* rec, MetricSet* m) {
  const int64_t start = NowNs();
  ProbeCore(in, rec, m);
  ProbePartitionAndKernels(in, rec, m);
  ProbeEcho(rec, m);
  std::printf("layer probes: %.1f s\n",
              static_cast<double>(NowNs() - start) * 1e-9);
}

}  // namespace perfbench
