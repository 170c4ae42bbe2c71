// perfbench: one workload of the repository's benchmark per invocation.
//
//   perfbench --workload <flat-matrix|sharded-churn|router-tcp>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--out-dir <dir>]
//
// Prints human-readable lines (host stamp, per-phase tails, lateness,
// thread census, audit) and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer ones, and writes the spans
// to <out-dir>/spans-<workload>.csv. See README.md.
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "host.h"

namespace perfbench {
namespace {

constexpr size_t kSpanCapacity = size_t{1} << 20;

struct NamedUnit {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in print order.
constexpr NamedUnit kEndToEnd[] = {
    {"setup_s", "s"},
    {"resident_mb", "MiB"},
};

/// Every per-layer metric, in print order. A layer the workload bypasses
/// reports 0 for its tier counters (the probes run on every workload).
constexpr NamedUnit kPerLayer[] = {
    {"core.query_ns", "ns"},
    {"core.hierarchy_s", "s"},
    {"core.labelling_s", "s"},
    {"core.pareto_us_per_update", "us"},
    {"core.label_us_per_update", "us"},
    {"core.label_writes_per_update", "count"},
    {"core.affected_pairs_per_update", "count"},
    {"core.queue_pops_per_update", "count"},
    {"core.labelling_mb", "MiB"},
    {"partition.cells_s", "s"},
    {"index.minplus_rows_ns", "ns"},
    {"util.minplus_reduce_ns.avx2", "ns"},
    {"util.minplus_reduce_ns.scalar", "ns"},
    {"index.overlay_publish_us_per_epoch", "us"},
    {"index.overlay_rebuild_us_per_epoch", "us"},
    {"index.rows_repaired_share", "ratio"},
    {"index.full_rebuilds", "count"},
    {"index.clique_entries_per_epoch", "count"},
    {"engine.submit_ns", "ns"},
    {"engine.publish_us_per_epoch", "us"},
    {"engine.cow_kb_per_epoch", "KiB"},
    {"engine.coalesced_share", "ratio"},
    {"engine.boundary_row_cache_hit_rate", "ratio"},
    {"engine.result_cache_hit_rate", "ratio"},
    {"dist.rpcs_per_query", "count"},
    {"dist.retry_share", "ratio"},
    {"dist.stale_responses", "count"},
    {"dist.failovers", "count"},
    {"dist.rpc_rtt_us.p50", "us"},
    {"dist.rpc_rtt_us.p90", "us"},
    {"dist.request_bytes", "bytes"},
    {"dist.response_bytes", "bytes"},
    {"dist.replica_handle_us.boundary_row", "us"},
    {"dist.replica_handle_us.point_query", "us"},
    {"dist.replica_handle_us.install", "us"},
    {"dist.encode_ns", "ns"},
    {"dist.decode_ns", "ns"},
    {"dist.wire_installs", "count"},
    {"dist.install_failures", "count"},
    {"net.hop_us", "us"},
    {"net.echo_rtt_us", "us"},
    {"net.reconnects", "count"},
    {"net.connections_accepted", "count"},
    {"tier.query_p50_us", "us"},
    {"tier.query_p90_us", "us"},
    {"tier.peak_qps", "1/s"},
    {"tier.update_visible_p50_us", "us"},
    {"tier.update_visible_p90_us", "us"},
    {"trace.overhead.query_p50_us", "us"},
    {"trace.overhead.query_p90_us", "us"},
    {"trace.overhead.peak_qps", "1/s"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<flat-matrix|sharded-churn|router-tcp> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--out-dir <dir>]\n",
               why);
  std::exit(2);
}

/// RPC round trips and replica handle times from the spans of the
/// traced fixed-rate phase [from_ns, to_ns); the hop is their difference
/// over query RPCs, i.e. socket plus event loop.
void SpanMetrics(const std::vector<Span>& spans, int64_t from_ns,
                 int64_t to_ns, MetricSet* m) {
  std::vector<double> rtt;
  std::vector<double> handle;
  std::vector<double> by_name[kSpanNameCount];
  for (const Span& s : spans) {
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    by_name[s.name].push_back(us);
    if (s.name == kSpanRpcBoundaryRow || s.name == kSpanRpcPointQuery) {
      rtt.push_back(us);
    }
    if (s.name == kSpanHandleBoundaryRow || s.name == kSpanHandlePointQuery) {
      handle.push_back(us);
    }
  }
  std::sort(rtt.begin(), rtt.end());
  const double rtt_p50 = NearestRank(rtt, 0.5).value;
  m->Set("dist.rpc_rtt_us.p50", rtt_p50, "us");
  m->Set("dist.rpc_rtt_us.p90", NearestRank(rtt, 0.9).value, "us");
  m->Set("dist.replica_handle_us.boundary_row",
         Median(by_name[kSpanHandleBoundaryRow]), "us");
  m->Set("dist.replica_handle_us.point_query",
         Median(by_name[kSpanHandlePointQuery]), "us");
  m->Set("dist.replica_handle_us.install", Median(by_name[kSpanHandleInstall]),
         "us");
  m->Set("net.hop_us", rtt.empty() ? 0 : rtt_p50 - Median(handle), "us");
}

void PrintSelfTimes(const SpanRecorder& rec, const std::vector<Span>& spans) {
  std::printf("span self time (count, p50 us, total s):\n");
  for (const auto& [name, self] : SelfTimesByName(spans)) {
    double total = 0;
    for (double us : self) total += us;
    std::printf("  %-22s %9zu %12.2f %10.4f\n", rec.names()[name].c_str(),
                self.size(), Median(self), total * 1e-6);
  }
  if (rec.dropped() > 0) {
    std::printf("  (%" PRIu64 " spans dropped past capacity)\n",
                rec.dropped());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string workload;
  std::string git_sha;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!FindWorkload(workload, &config.spec)) Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }

  ScopedThreadName main_name("pb-generator");
  const HostStamp stamp = MakeHostStamp(git_sha, config.seed);
  std::printf("host: %s\n", HostStampJson(stamp).c_str());
  const int64_t t0 = NowNs();
  const Inputs in = MakeInputs(
      config.seed, IncidentsPerPhase(config.spec, FixedSeconds(config)));
  std::printf(
      "[%s] inputs: grid %u, %u vertices, %u edges, %u cells; seed %" PRIu64
      "; %zu incidents; generated in %.2f s (untimed)\n",
      config.spec.name, kGridSide, in.base.NumVertices(), in.base.NumEdges(),
      in.cells.num_cells, config.seed, in.incident_order.size(),
      static_cast<double>(NowNs() - t0) * 1e-9);

  MetricSet metrics;
  auto declare = [&metrics](const auto& names) {
    for (const NamedUnit& mu : names) metrics.Set(mu.name, 0, mu.unit);
  };
  if (config.trace) {
    declare(kPerLayer);
  } else {
    declare(kEndToEnd);
  }
  std::unique_ptr<SpanRecorder> recorder;
  if (config.trace) {
    recorder = std::make_unique<SpanRecorder>(SpanNames(), kSpanCapacity);
  }

  RunTotals totals;
  RunWorkload(config, in, recorder.get(), &metrics, &totals);
  if (config.trace) {
    UnpinGenerator();
    RunLayerProbes(in, recorder.get(), &metrics);
    const std::vector<Span> spans = recorder->Snapshot();
    SpanMetrics(spans, totals.traced_from_ns, totals.traced_to_ns, &metrics);
    PrintSelfTimes(*recorder, spans);
    mkdir(config.out_dir.c_str(), 0755);
    const std::string path =
        config.out_dir + "/spans-" + config.spec.name + ".csv";
    std::printf("spans: %zu written to %s%s\n", spans.size(), path.c_str(),
                recorder->WriteCsv(path) ? "" : " (FAILED)");
  }

  const bool correct = totals.mismatches == 0 && totals.failed == 0 &&
                       totals.reconnects == 0 && totals.census_ok;
  std::printf(
      "[%s] operations: %" PRIu64 " attempted, %" PRIu64 " failed, %" PRIu64
      " answers audited against Dijkstra, %" PRIu64
      " mismatches, %" PRIu64 " reconnects, census %s\n",
      config.spec.name, totals.attempted, totals.failed, totals.audited,
      totals.mismatches, totals.reconnects,
      totals.census_ok ? "within nproc" : "OVER nproc");
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", std::max<uint64_t>(1, totals.attempted),
      totals.failed, metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
