#include "workload/query_workload.h"

#include <algorithm>
#include <cmath>

#include "graph/dijkstra.h"
#include "util/rng.h"

namespace stl {

std::vector<QueryPair> RandomQueryPairs(const Graph& g, size_t count,
                                        uint64_t seed) {
  STL_CHECK_GT(g.NumVertices(), 0u);
  Rng rng(seed);
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(
        static_cast<Vertex>(rng.NextBounded(g.NumVertices())),
        static_cast<Vertex>(rng.NextBounded(g.NumVertices())));
  }
  return pairs;
}

Weight ApproximateDiameter(const Graph& g) {
  if (g.NumVertices() == 0) return 0;
  Dijkstra dij(g);
  auto farthest = [&dij, &g](Vertex s) {
    const auto& dist = dij.AllDistances(s);
    Vertex best = s;
    Weight best_d = 0;
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      if (dist[v] != kInfDistance && dist[v] > best_d) {
        best_d = dist[v];
        best = v;
      }
    }
    return std::make_pair(best, best_d);
  };
  auto [p1, d1] = farthest(0);
  (void)d1;
  auto [p2, d2] = farthest(p1);
  (void)p2;
  return std::max<Weight>(d2, 1);
}

std::vector<std::vector<QueryPair>> StratifiedQuerySets(const Graph& g,
                                                        size_t per_set,
                                                        uint64_t seed) {
  constexpr int kNumSets = 10;
  std::vector<std::vector<QueryPair>> sets(kNumSets);
  const Weight lmax = ApproximateDiameter(g);
  // l_min = l_max / 2^10: buckets double in distance, mirroring the
  // paper's geometric progression.
  const double lmin = std::max(1.0, static_cast<double>(lmax) / 1024.0);
  const double x = std::pow(static_cast<double>(lmax) / lmin, 1.0 / kNumSets);
  auto bucket_of = [&](Weight d) -> int {
    if (d == 0 || d == kInfDistance) return -1;
    if (d <= lmin) return 0;
    int b = static_cast<int>(std::ceil(std::log(d / lmin) / std::log(x))) - 1;
    return std::min(std::max(b, 0), kNumSets - 1);
  };

  Rng rng(seed);
  Dijkstra dij(g);
  std::vector<std::vector<Vertex>> candidates(kNumSets);
  size_t filled = 0;
  size_t sources = 0;
  const size_t max_sources = 40 * kNumSets + per_set;
  // Per source, take a few targets per bucket so sources stay diverse.
  const size_t take_per_bucket = std::max<size_t>(2, per_set / 50);
  while (filled < static_cast<size_t>(kNumSets) && sources < max_sources) {
    ++sources;
    Vertex s = static_cast<Vertex>(rng.NextBounded(g.NumVertices()));
    const auto& dist = dij.AllDistances(s);
    for (auto& c : candidates) c.clear();
    for (Vertex t = 0; t < g.NumVertices(); ++t) {
      int b = bucket_of(dist[t]);
      if (b >= 0) candidates[b].push_back(t);
    }
    filled = 0;
    for (int b = 0; b < kNumSets; ++b) {
      auto& set = sets[b];
      auto& cand = candidates[b];
      size_t take = std::min(take_per_bucket, cand.size());
      for (size_t k = 0; k < take && set.size() < per_set; ++k) {
        Vertex t = cand[rng.NextBounded(cand.size())];
        set.emplace_back(s, t);
      }
      if (set.size() >= per_set) ++filled;
    }
  }
  return sets;
}

}  // namespace stl
