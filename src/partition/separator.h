// Balanced vertex-separator search on induced subgraphs.
//
// The stable tree hierarchy (Definition 4.1) needs, at every level, a small
// set of vertices C whose removal splits the current region into parts of
// at most (1 - beta) of its size. Road networks have ~sqrt(n) balanced
// separators; we find them with the classic engineering recipe:
//   1. order the region by BFS from a peripheral vertex,
//   2. take the first half as side A, the rest as side B,
//   3. cover the A-B cut edges with a greedy minimum vertex cover,
//   4. repeat from several start vertices and keep the smallest cover.
// No shortcut edges are added at any point — that is the property that
// makes the hierarchy "stable" (structurally independent of weights) and
// distinguishes STL from HC2L.
#ifndef STL_PARTITION_SEPARATOR_H_
#define STL_PARTITION_SEPARATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace stl {

/// Output of one separator computation on a region.
struct SeparatorResult {
  std::vector<Vertex> separator;  // the cut C
  std::vector<Vertex> left;       // one side, C removed
  std::vector<Vertex> right;      // other side, C removed
};

/// Greedy vertex cover of a cut's edges: repeatedly takes the endpoint
/// that covers the most still-uncovered edges, the smaller vertex id on
/// a tie. Returns the cover sorted ascending. Cut sets on road-like
/// regions are tiny, so the quadratic loop is cheap. The one cover step
/// of both STL's separator and HC2L's (baselines/hc2l.cc).
std::vector<Vertex> GreedyCutCover(
    const std::vector<std::pair<Vertex, Vertex>>& cut);

/// Reusable separator finder; buffers are sized to the host graph once.
/// Not thread-safe: concurrent searches need one finder each.
class SeparatorFinder {
 public:
  explicit SeparatorFinder(const Graph& g);

  /// Finds a balanced separator of the subgraph induced by `region`,
  /// which must be connected and contain at least 2 vertices. Tries
  /// `num_starts` BFS roots (two peripheral vertices, the rest drawn
  /// from `rng`) and returns the smallest separator found.
  SeparatorResult Find(const std::vector<Vertex>& region, int num_starts,
                       Rng* rng);

  /// Connected components of the subgraph induced by `region`
  /// (each inner vector is one component).
  std::vector<std::vector<Vertex>> RegionComponents(
      const std::vector<Vertex>& region);

 private:
  /// Marks `region` as the active region (stamp-based membership).
  void MarkRegion(const std::vector<Vertex>& region);
  bool InRegion(Vertex v) const { return region_stamp_[v] == epoch_; }

  /// BFS order of the region from `start` (region must be marked).
  void BfsOrder(Vertex start, const std::vector<Vertex>& region,
                std::vector<Vertex>* order);

  /// One bisection attempt from `start`; returns separator size or
  /// UINT32_MAX on failure. Fills out on success.
  uint32_t TrySplit(Vertex start, const std::vector<Vertex>& region,
                    SeparatorResult* out);

  const Graph& g_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> region_stamp_;
  uint32_t side_epoch_ = 0;
  std::vector<uint32_t> side_stamp_;   // stamped when side is assigned
  std::vector<uint8_t> side_;          // 0 = A, 1 = B (valid when stamped)
  std::vector<uint32_t> visit_stamp_;  // BFS visited marks
  uint32_t visit_epoch_ = 0;
  std::vector<Vertex> queue_;
};

}  // namespace stl

#endif  // STL_PARTITION_SEPARATOR_H_
