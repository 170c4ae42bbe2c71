// HC2L baseline [12]: Hierarchical Cut 2-hop Labelling, the static
// state of the art the paper compares against (Section 3.2).
//
// Differences from STL, mirrored here faithfully:
//   * When a cut C splits a region H, each component keeps *distance-
//     preserving shortcuts*: a clique over the component's boundary
//     vertices weighted with d_H, so that distances inside the component
//     equal distances in G. Cuts at deeper levels are computed on the
//     augmented (denser) subgraphs — hence larger cuts and labels.
//   * Labels store distances in the *full graph* (equal to distances in
//     the augmented subgraphs).
//   * A query scans only the hubs of the LCA *node's* cut (Equation 2) —
//     fewer hubs than STL's all-common-ancestors scan, which is why HC2L
//     wins slightly on short/medium queries (Figure 9).
//   * The shortcut weights depend on the edge weights, so the hierarchy is
//     not stable under weight updates: HC2L is a static index (the paper
//     gives no maintenance algorithm for it, and neither do we).
//
// Tail pruning from [12] is omitted ("Paper reproduction notes" in
// docs/ARCHITECTURE.md).
#ifndef STL_BASELINES_HC2L_H_
#define STL_BASELINES_HC2L_H_

#include <cstdint>
#include <vector>

#include "core/labelling.h"
#include "core/tree_hierarchy.h"
#include "graph/graph.h"
#include "partition/bisection.h"

namespace stl {

/// Static HC2L index.
class Hc2lIndex {
 public:
  /// Builds the index (hierarchy over augmented subgraphs + labels).
  static Hc2lIndex Build(const Graph& g, const HierarchyOptions& options);

  /// Distance query over the LCA node's cut (Equation 2).
  Weight Query(Vertex s, Vertex t) const;

  const TreeHierarchy& hierarchy() const { return hierarchy_; }
  uint64_t TotalLabelEntries() const { return labels_.TotalEntries(); }
  uint64_t MemoryBytes() const {
    return labels_.MemoryBytes() + hierarchy_.MemoryBytes();
  }
  uint64_t NumShortcutsAdded() const { return shortcuts_added_; }
  double build_seconds() const { return build_seconds_; }

 private:
  Hc2lIndex() = default;

  TreeHierarchy hierarchy_;
  Labelling labels_;
  uint64_t shortcuts_added_ = 0;
  double build_seconds_ = 0;
};

}  // namespace stl

#endif  // STL_BASELINES_HC2L_H_
