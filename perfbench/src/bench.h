// Shared declarations of the benchmark program: the three workloads, the
// seeded inputs they draw from, and the metric set a run prints.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/updates.h"
#include "helpers.h"
#include "partition/cells.h"
#include "workload/query_workload.h"

namespace perfbench {

enum class Workload { kFlatMatrix, kShardedChurn, kRouterTcp };

/// The load shape of one workload (see README.md for why each value).
struct WorkloadSpec {
  Workload workload;
  const char* name;
  double rate;                ///< Fixed-rate phase, requests per second.
  uint32_t pairs;             ///< Pairs per request.
  double update_period_s;     ///< One update batch per period.
  uint32_t peak_window;       ///< Requests in flight in the closed loop.
  double peak_capacity_rps;   ///< Upper estimate, sizes the peak ledger.
};

/// The spec named `name`; false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

/// Network generation: grid 160 of GenerateRoadNetwork's defaults.
inline constexpr uint32_t kGridSide = 160;
/// Cells of the sharded tiers.
inline constexpr uint32_t kShards = 4;

/// Everything a run derives from its seed, generated before any timing.
struct Inputs {
  uint64_t seed = 0;
  stl::Graph base;             ///< The network (fixed; not seed-dependent).
  stl::CellPartition cells;    ///< kShards cells of `base`.
  std::vector<stl::QueryPair> hot;    ///< router-tcp's 256 hot pairs.
  std::vector<stl::Vertex> depots;    ///< sharded-churn's OD endpoints.
  /// The order in which the run visits the fixed incident pool: a
  /// seed-shuffled permutation of [0, pool size).
  std::vector<uint32_t> incident_order;
};

/// Generates the network and the seed's request pools, and shuffles an
/// incident pool of `incidents` entries.
Inputs MakeInputs(uint64_t seed, size_t incidents);

/// Incidents (congest + restore pairs) one fixed-rate phase of
/// `fixed_seconds` applies: the size of the incident pool, so that every
/// run applies every incident of the pool once.
size_t IncidentsPerPhase(const WorkloadSpec& spec, double fixed_seconds);

/// Request `index` of `phase` (a stream id) for workload `w`: a pure
/// function of (seed, w, phase, index), so the audit can regenerate the
/// pairs of any answer it samples.
void MakeRequest(const Inputs& in, Workload w, uint64_t phase,
                 uint64_t index, std::vector<stl::QueryPair>* out);

/// Update batch `j` of workload `w`'s stream: even j congests the edges
/// of incident incident_order[j / 2] (x4 weight), odd j restores them to
/// their base weights. The incidents themselves are the same for every
/// seed, so every run times the same maintenance work and update
/// percentiles compare like with like; the seed sets their order.
/// new_weight holds the target; old_weight is left 0.
stl::UpdateBatch MakeUpdateBatch(const Inputs& in, Workload w, size_t j);

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Named metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  /// {"name": {"value": v, "unit": u}, ...}
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What one invocation reports beside its metrics.
struct RunTotals {
  uint64_t attempted = 0;  ///< Requests issued in measured phases + batches.
  uint64_t failed = 0;     ///< Requests with a non-kOk answer + mismatches.
  uint64_t audited = 0;    ///< Answers checked against Dijkstra.
  uint64_t mismatches = 0;
  uint64_t reconnects = 0;
  bool census_ok = true;   ///< Busy serving-path threads <= nproc.
  /// The traced fixed-rate phase (trace runs only).
  int64_t traced_from_ns = 0;
  int64_t traced_to_ns = 0;
};

struct RunConfig {
  WorkloadSpec spec{};
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// The fixed-rate share of --seconds; the rest is the peak phase.
inline double FixedSeconds(const RunConfig& config) {
  return config.seconds * 0.7;
}

/// Runs one workload end to end. Untraced: three set-ups (median
/// reported), warm-up, fixed-rate phase with updates, closed-loop peak
/// phase, drain, RSS, audit; fills the end-to-end metrics. Traced: the
/// same phases once untraced and once traced, fills the per-layer
/// metrics drawn from the tier and the spans, writes the spans.
void RunWorkload(const RunConfig& config, const Inputs& in,
                 SpanRecorder* recorder, MetricSet* metrics,
                 RunTotals* totals);

/// The direct replay calls of the traced run: core, partition, index /
/// util kernels, wire codec and the bare network hop, each measured on
/// this seed's inputs on one thread. Fills their per-layer metrics.
void RunLayerProbes(const Inputs& in, SpanRecorder* recorder,
                    MetricSet* metrics);

/// Span names (indexes into the recorder's name table).
enum SpanName : uint16_t {
  kSpanRequest,
  kSpanSubmit,
  kSpanUpdate,
  kSpanRpcBoundaryRow,
  kSpanRpcPointQuery,
  kSpanRpcInstall,
  kSpanHandleBoundaryRow,
  kSpanHandlePointQuery,
  kSpanHandleInstall,
  kSpanCoreQueryBlock,
  kSpanCorePareto,
  kSpanCoreLabel,
  kSpanPartition,
  kSpanMinPlusRows,
  kSpanMinPlusAvx2,
  kSpanMinPlusScalar,
  kSpanEncode,
  kSpanDecode,
  kSpanEcho,
  kSpanNameCount
};

std::vector<std::string> SpanNames();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
