// Seeded inputs: the network, the request streams and the update
// streams of the three workloads, plus the metric set and span names.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <sstream>

#include "bench.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr uint32_t kFlatPairs = 64;

constexpr WorkloadSpec kSpecs[] = {
    {Workload::kFlatMatrix, "flat-matrix", 4000, kFlatPairs, 0.2, 4, 80000},
    {Workload::kShardedChurn, "sharded-churn", 300, 64, 0.2, 4, 30000},
    {Workload::kRouterTcp, "router-tcp", 2000, 1, 1.0, 8, 60000},
};

constexpr size_t kHotPairs = 256;
constexpr double kHotShare = 0.25;
constexpr size_t kDepots = 1024;
constexpr uint32_t kOdSide = 8;          // 8 sources x 8 targets
constexpr size_t kRandomBatchEdges = 4;  // flat-matrix, router-tcp
constexpr size_t kClusterEdges = 32;     // sharded-churn
constexpr stl::Weight kCongestFactor = 4;
constexpr uint64_t kIncidentStream = 0x1dc1de47;  // seed-independent

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  stl::Rng rng(a ^ 0x9e3779b97f4a7c15ULL);
  uint64_t h = rng.Next() ^ b;
  h = stl::Rng(h).Next() ^ c;
  h = stl::Rng(h).Next() ^ d;
  return stl::Rng(h).Next();
}

stl::Vertex RandomVertex(stl::Rng* rng, const stl::Graph& g) {
  return static_cast<stl::Vertex>(rng->NextBounded(g.NumVertices()));
}

/// Up to `count` distinct edges inside cell `cell`, grown breadth-first
/// from a seeded vertex of the cell: a localized incident.
std::vector<stl::EdgeId> ClusterInCell(const Inputs& in, uint32_t cell,
                                       stl::Rng* rng, size_t count) {
  const std::vector<stl::Vertex>& members = in.cells.cells[cell];
  std::vector<stl::EdgeId> edges;
  std::vector<uint8_t> seen_edge(in.base.NumEdges(), 0);
  for (int attempt = 0; attempt < 8 && edges.size() < count; ++attempt) {
    const stl::Vertex start = members[rng->NextBounded(members.size())];
    std::deque<stl::Vertex> frontier{start};
    std::vector<uint8_t> seen_vertex(in.base.NumVertices(), 0);
    seen_vertex[start] = 1;
    while (!frontier.empty() && edges.size() < count) {
      const stl::Vertex v = frontier.front();
      frontier.pop_front();
      for (const stl::Arc& a : in.base.ArcsOf(v)) {
        if (in.cells.cell_of[a.head] != cell) continue;
        if (!seen_edge[a.edge] && edges.size() < count) {
          seen_edge[a.edge] = 1;
          edges.push_back(a.edge);
        }
        if (!seen_vertex[a.head]) {
          seen_vertex[a.head] = 1;
          frontier.push_back(a.head);
        }
      }
    }
  }
  return edges;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

size_t IncidentsPerPhase(const WorkloadSpec& spec, double fixed_seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(fixed_seconds / spec.update_period_s / 2));
}

Inputs MakeInputs(uint64_t seed, size_t incidents) {
  Inputs in;
  in.seed = seed;
  stl::RoadNetworkOptions net;
  net.width = kGridSide;
  net.height = kGridSide;
  in.base = stl::GenerateRoadNetwork(net);
  in.cells = stl::PartitionCells(in.base, kShards, stl::HierarchyOptions{});
  in.hot = stl::RandomQueryPairs(in.base, kHotPairs, Mix(seed, 7, 0, 0));
  stl::Rng depot_rng(Mix(seed, 8, 0, 0));
  in.depots.reserve(kDepots);
  for (size_t i = 0; i < kDepots; ++i) {
    in.depots.push_back(RandomVertex(&depot_rng, in.base));
  }
  in.incident_order.resize(incidents);
  for (size_t i = 0; i < incidents; ++i) {
    in.incident_order[i] = static_cast<uint32_t>(i);
  }
  stl::Rng order_rng(Mix(seed, 9, 0, 0));
  for (size_t i = incidents; i > 1; --i) {  // Fisher-Yates
    std::swap(in.incident_order[i - 1],
              in.incident_order[order_rng.NextBounded(i)]);
  }
  return in;
}

void MakeRequest(const Inputs& in, Workload w, uint64_t phase,
                 uint64_t index, std::vector<stl::QueryPair>* out) {
  out->clear();
  stl::Rng rng(Mix(in.seed, static_cast<uint64_t>(w) + 1, phase, index));
  switch (w) {
    case Workload::kFlatMatrix:
      for (uint32_t k = 0; k < kFlatPairs; ++k) {
        const stl::Vertex s = RandomVertex(&rng, in.base);
        out->emplace_back(s, RandomVertex(&rng, in.base));
      }
      return;
    case Workload::kShardedChurn: {
      stl::Vertex src[kOdSide];
      stl::Vertex dst[kOdSide];
      for (uint32_t i = 0; i < kOdSide; ++i) {
        src[i] = in.depots[rng.NextBounded(in.depots.size())];
        dst[i] = in.depots[rng.NextBounded(in.depots.size())];
      }
      for (uint32_t i = 0; i < kOdSide; ++i) {
        for (uint32_t j = 0; j < kOdSide; ++j) out->emplace_back(src[i], dst[j]);
      }
      return;
    }
    case Workload::kRouterTcp:
      if (rng.NextDouble() < kHotShare) {
        out->push_back(in.hot[rng.NextBounded(in.hot.size())]);
      } else {
        const stl::Vertex s = RandomVertex(&rng, in.base);
        out->emplace_back(s, RandomVertex(&rng, in.base));
      }
      return;
  }
}

stl::UpdateBatch MakeUpdateBatch(const Inputs& in, Workload w, size_t j) {
  const uint32_t incident =
      in.incident_order[(j / 2) % in.incident_order.size()];
  stl::Rng rng(Mix(kIncidentStream, static_cast<uint64_t>(w), incident, 0));
  std::vector<stl::EdgeId> edges;
  if (w == Workload::kShardedChurn) {
    // The pool spreads its incidents over every cell in turn.
    const uint32_t cell = incident % in.cells.num_cells;
    edges = ClusterInCell(in, cell, &rng, kClusterEdges);
  } else {
    for (size_t i = 0; i < kRandomBatchEdges; ++i) {
      edges.push_back(
          static_cast<stl::EdgeId>(rng.NextBounded(in.base.NumEdges())));
    }
  }
  stl::UpdateBatch batch;
  batch.reserve(edges.size());
  const bool restore = j % 2 == 1;
  for (stl::EdgeId e : edges) {
    const stl::Weight w0 = in.base.EdgeWeight(e);
    const stl::Weight target =
        restore ? w0 : std::min<stl::Weight>(w0 * kCongestFactor,
                                             stl::kMaxEdgeWeight);
    batch.push_back(stl::WeightUpdate{e, 0, target});
  }
  return batch;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    // JSON has no infinity or NaN; -1 marks a value that could not be
    // measured (every metric here is otherwise non-negative).
    const double v = items_[i].second.first;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : -1.0);
    out << (i ? ", " : "") << "\"" << items_[i].first << "\": {\"value\": "
        << value << ", \"unit\": \"" << items_[i].second.second << "\"}";
  }
  out << "}";
  return out.str();
}

std::vector<std::string> SpanNames() {
  return {"request",          "submit",           "update",
          "rpc.boundary_row", "rpc.point_query",  "rpc.install",
          "handle.boundary_row", "handle.point_query", "handle.install",
          "core.query_block", "core.pareto_batch", "core.label_batch",
          "partition.cells",  "index.minplus_rows", "util.minplus_avx2",
          "util.minplus_scalar", "dist.encode",   "dist.decode",
          "net.echo"};
}

}  // namespace perfbench
