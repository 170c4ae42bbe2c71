// H2H baseline [21] with dynamic maintenance in the styles of IncH2H [32]
// and DTDHL [30] — the paper's main dynamic competitors.
//
// Index structure (Section 3.1): a tree decomposition is derived from the
// CH-W graph: node X(v) = {v} ∪ N_up(v); the parent of X(v) is X(u) for
// the lowest-ranked u in X(v) \ {v}. Every vertex stores
//   * an ancestor array (the root path),
//   * a distance array d(v, anc_j) of *global* distances to each ancestor,
//   * a position array (depths of X(v) members) used at query time.
// Queries find the LCA of X(s) and X(t) (Euler tour + sparse table) and
// minimize dist_s[i] + dist_t[i] over i in pos(LCA) (Equation 1).
//
// Maintenance is two-phase, as in both competitors:
//   1. shortcut phase — DCH weight propagation (ChIndex::ApplyUpdate),
//   2. label phase    — top-down repair of the decomposition tree from the
//      anchors (low endpoints of changed CH edges):
//      * kIncH2H: column-level dirty tracking — only ancestor columns that
//        actually changed (plus the anchor's own columns) are recomputed,
//        and subtrees are pruned when no dirty column and no anchor
//        remains below;
//      * kDTDHL: vertex-level tracking — every visited vertex recomputes
//        its whole distance array, which is the coarser (and much slower)
//        behaviour the paper measures for DTDHL.
//
// This is a faithful reimplementation of the published designs, not the
// authors' code; see "Paper reproduction notes" in docs/ARCHITECTURE.md
// for the substitution rationale.
#ifndef STL_BASELINES_H2H_H_
#define STL_BASELINES_H2H_H_

#include <cstdint>
#include <vector>

#include "baselines/ch.h"
#include "core/label_search.h"  // MaintenanceStats
#include "graph/graph.h"
#include "graph/updates.h"

namespace stl {

/// H2H index over a dynamic road network.
class H2hIndex {
 public:
  /// Label maintenance granularity (see file comment).
  enum class Maintenance { kIncH2H, kDTDHL };

  /// Builds CH-W, the tree decomposition, and all labels.
  static H2hIndex Build(Graph* g);

  /// Distance query via LCA + position arrays.
  Weight Query(Vertex s, Vertex t) const;

  /// Applies one weight update (shortcut phase + label phase).
  void ApplyUpdate(const WeightUpdate& update, Maintenance mode);

  uint32_t Depth(Vertex v) const { return depth_[v]; }
  uint32_t TreeHeight() const { return tree_height_; }  // max depth + 1
  uint64_t TotalLabelEntries() const { return dist_pool_.size(); }
  double build_seconds() const { return build_seconds_; }
  const MaintenanceStats& stats() const { return stats_; }
  const ChIndex& ch() const { return ch_; }

  /// Memory footprint. IncH2H carries the full auxiliary state (CH support
  /// lists, adjacency maps, LCA tables); DTDHL-style accounting includes
  /// only labels + CH edges + tree, matching its lighter auxiliary data.
  uint64_t MemoryBytes(Maintenance mode) const;

  /// Test hook: recomputes every label column from scratch top-down and
  /// returns true iff nothing changed.
  bool ValidateLabels();

  /// A detached copy for publication as an immutable serving epoch:
  /// keeps exactly the query state (labels, position arrays, Euler-tour
  /// LCA tables) and sheds everything maintenance-only — including the
  /// whole embedded CH index, which Query() never reads. The copy
  /// answers Query() but must never be maintained.
  H2hIndex PublishCopy() const;

 private:
  H2hIndex() = default;

  uint32_t Lca(Vertex s, Vertex t) const;
  /// DP recompute of one label cell (reads only ancestor labels).
  Weight RecomputeCell(Vertex v, uint32_t j) const;
  void LabelPhase(const std::vector<ChIndex::ChangedEdge>& changed_edges,
                  Maintenance mode, bool increase);

  Graph* g_ = nullptr;
  ChIndex ch_;

  // Tree decomposition.
  std::vector<uint32_t> parent_;      // kNoParent for the root
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> child_off_;   // CSR children lists
  std::vector<Vertex> child_pool_;
  uint32_t root_ = 0;
  uint32_t tree_height_ = 0;

  // Labels.
  std::vector<uint64_t> off_;         // off_[v+1]-off_[v] = depth(v)+1
  std::vector<Vertex> anc_pool_;      // ancestor arrays
  std::vector<Weight> dist_pool_;     // distance arrays
  std::vector<uint32_t> pos_off_;     // position arrays (depths of X(v))
  std::vector<uint32_t> pos_pool_;

  // Euler-tour LCA with sparse table over (depth, vertex).
  std::vector<uint32_t> euler_first_;
  std::vector<uint32_t> euler_vertex_;
  std::vector<uint32_t> euler_depth_;
  std::vector<std::vector<uint32_t>> sparse_;  // argmin positions

  // Maintenance scratch.
  std::vector<uint32_t> anchor_stamp_;
  std::vector<uint32_t> below_stamp_;  // subtree-contains-anchor marks
  uint32_t epoch_ = 0;
  std::vector<uint32_t> dirty_count_;  // per column
  std::vector<uint32_t> active_cols_;

  MaintenanceStats stats_;
  double build_seconds_ = 0;

  static constexpr uint32_t kNoParent = UINT32_MAX;
};

}  // namespace stl

#endif  // STL_BASELINES_H2H_H_
