// Recursive balanced bisection: drives SeparatorFinder to produce the raw
// partition tree that core/tree_hierarchy compacts into a stable tree
// hierarchy. Kept separate from core so the partitioning strategy can be
// swapped (e.g. METIS-style multilevel) without touching the labelling.
#ifndef STL_PARTITION_BISECTION_H_
#define STL_PARTITION_BISECTION_H_

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/graph.h"

namespace stl {

/// Construction parameters for the stable tree hierarchy.
struct HierarchyOptions {
  /// Balance threshold beta from Definition 4.1: each child subtree holds
  /// at most (1 - beta) of the parent's vertices. The paper uses 0.2.
  double beta = 0.2;
  /// Regions of at most this many vertices become leaf nodes.
  uint32_t leaf_size = 2;
  /// BFS multi-start attempts per separator.
  int num_starts = 3;
  /// Seed for the randomized start selection.
  uint64_t seed = 7;
  /// Worker threads for STL construction, every core by default: the
  /// bisection recurses on the two halves of a split in parallel
  /// (BuildPartitionTree), and BuildLabelling spreads the label columns.
  /// Neither the hierarchy nor the labels depend on it. The CH, H2H and
  /// HC2L builds, and the cell partition, are sequential.
  int num_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
};

/// Raw bisection tree: every node owns the cut vertices chosen at its
/// level (for leaves: the whole remaining region). kNoChild marks absent
/// children; nodes are in preorder (parent before children).
struct PartitionTree {
  static constexpr uint32_t kNoChild = UINT32_MAX;

  struct Node {
    uint32_t parent = kNoChild;
    uint32_t left = kNoChild;
    uint32_t right = kNoChild;
    std::vector<Vertex> vertices;  // cut vertices, in stable (sorted) order
  };

  std::vector<Node> nodes;
  uint32_t root = 0;
};

/// Builds the bisection tree of `g`. Every vertex of `g` appears in
/// exactly one node (the ell mapping is total and surjective).
///
/// Runs on up to options.num_threads workers (the calling thread is one),
/// each with its own SeparatorFinder: a region large enough to be worth
/// a hand-off goes to a shared queue once its parent is cut. Every region
/// draws its random separator starts from its own stream, forked from
/// options.seed along the region's root path, so the tree is the same for
/// every num_threads. Finished subtrees are spliced back in preorder.
PartitionTree BuildPartitionTree(const Graph& g,
                                 const HierarchyOptions& options);

}  // namespace stl

#endif  // STL_PARTITION_BISECTION_H_
