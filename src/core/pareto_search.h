// Pareto Search maintenance (Section 5.2, Algorithms 3-5): the
// update-centric strategy. Instead of one search per affected ancestor,
// each update triggers exactly two searches, one from each endpoint of
// the updated edge, that track Pareto-optimal (distance, ancestor-level)
// pairs over the subgraph inclusion chain S_0 ⊇ S_1 ⊇ ... (Lemma 5.9).
//
// Queue entries carry an *active interval* of ancestor label positions.
// On popping (d, v, [min,max]):
//   max is clamped to tau(v)   — paths through v are only valid in
//                                subgraphs S_i with i <= tau(v),
//   min is raised to level(v)  — positions already processed for v with a
//                                smaller-or-equal distance are dominated
//                                (Pareto pruning, Definition 5.11),
// and level(v) advances past max. Each surviving position i compares the
// candidate d + L_root[i] against L_v[i]; improving (decrease) or equal
// (increase) positions define the interval propagated to neighbours.
//
// Increase handling follows Algorithm 4-5: affected labels are bumped by
// Delta immediately (a tight upper bound when the increase is small — the
// effect Figure 8 measures), affected intervals are recorded per vertex,
// and a single repair pass (Algorithm 5) settles true values.
//
// Deviation from the paper's pseudocode (documented under "Paper
// reproduction notes" in docs/ARCHITECTURE.md): the second search must
// not re-bump labels the first search already bumped when tied shortest
// paths run through both endpoints. We track bumped (vertex, position)
// pairs per update and test equality against the pre-bump value, making
// the sequential searches exact.
#ifndef STL_CORE_PARETO_SEARCH_H_
#define STL_CORE_PARETO_SEARCH_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/label_search.h"
#include "core/labelling.h"
#include "core/tree_hierarchy.h"
#include "graph/updates.h"
#include "util/min_heap.h"

namespace stl {

/// Update-centric maintenance engine (STL-P in the paper's tables).
class ParetoSearch {
 public:
  ParetoSearch(Graph* g, const TreeHierarchy& h, Labelling* labels);

  /// Applies one weight decrease (Algorithm 3). new_weight < current.
  void ApplyDecrease(EdgeId e, Weight new_weight);

  /// Applies one weight increase (Algorithms 4-5). new_weight > current.
  void ApplyIncrease(EdgeId e, Weight new_weight);

  /// Applies a batch update-by-update (Pareto Search is update-centric;
  /// this matches the paper's experimental procedure).
  void ApplyBatch(const UpdateBatch& batch);

  const MaintenanceStats& stats() const { return stats_; }

 private:
  /// One decrease search: candidate paths root -> ... -> v, labels
  /// repaired in place (Algorithm 3 Search-and-Repair).
  void SearchAndRepairDecrease(Vertex root, Vertex start, Weight phi);

  /// One increase detection search with immediate upper-bound bumps
  /// (Algorithm 4 Search); affected intervals accumulate across the two
  /// searches of an update.
  void SearchIncrease(Vertex root, Vertex start, Weight phi, Weight delta);

  /// Settles true values for all affected (vertex, position) pairs
  /// (Algorithm 5 Repair), run once per update after both searches.
  void RepairIncrease();

  void ResetLevels() { ++level_epoch_; }
  uint32_t LevelOf(Vertex v) const {
    return level_stamp_[v] == level_epoch_ ? level_[v] : 0;
  }
  void SetLevel(Vertex v, uint32_t l) {
    level_[v] = l;
    level_stamp_[v] = level_epoch_;
  }

  bool IsBumped(Vertex v, uint32_t i) const {
    return bumped_.count((static_cast<uint64_t>(v) << 32) | i) != 0;
  }
  void MarkBumped(Vertex v, uint32_t i) {
    bumped_.insert((static_cast<uint64_t>(v) << 32) | i);
  }

  void AddAffected(Vertex v, uint32_t i);

  Graph* g_;
  const TreeHierarchy& h_;
  Labelling* labels_;

  ParetoHeap queue_;
  std::vector<uint32_t> level_;        // next unprocessed label position
  std::vector<uint32_t> level_stamp_;
  uint32_t level_epoch_ = 0;

  // Per-update affected bookkeeping (increase only).
  std::unordered_set<uint64_t> bumped_;
  std::vector<uint32_t> aff_min_, aff_max_, aff_stamp_;
  uint32_t aff_epoch_ = 0;
  std::vector<Vertex> aff_list_;
  MinHeap<Weight, uint64_t> repair_heap_;  // payload packs (vertex, pos)

  MaintenanceStats stats_;
};

}  // namespace stl

#endif  // STL_CORE_PARETO_SEARCH_H_
