// Query workload generation: uniform random pairs (Table 5) and the
// distance-stratified sets Q1..Q10 of Figure 9.
//
// Stratification follows the paper (Section 7, "test input generation"):
// l_min is a small base distance, l_max the (approximate) network
// diameter, x = (l_max / l_min)^(1/10), and Q_i holds pairs whose
// distance falls in (l_min * x^(i-1), l_min * x^i].
#ifndef STL_WORKLOAD_QUERY_WORKLOAD_H_
#define STL_WORKLOAD_QUERY_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace stl {

using QueryPair = std::pair<Vertex, Vertex>;

/// Uniform random (s, t) pairs.
std::vector<QueryPair> RandomQueryPairs(const Graph& g, size_t count,
                                        uint64_t seed);

/// Approximate network diameter via a double Dijkstra sweep (lower bound,
/// tight enough for bucketing).
Weight ApproximateDiameter(const Graph& g);

/// Query sets Q1..Q10. Each set holds up to `per_set` pairs in its
/// distance bucket (sampling sources and bucketing all reachable targets,
/// so even extreme buckets fill quickly). sets[i] is Q_{i+1}.
std::vector<std::vector<QueryPair>> StratifiedQuerySets(const Graph& g,
                                                        size_t per_set,
                                                        uint64_t seed);

}  // namespace stl

#endif  // STL_WORKLOAD_QUERY_WORKLOAD_H_
