// StlIndex: the public entry point of the library. Owns the stable tree
// hierarchy, the labels, and the two maintenance engines; answers distance
// queries on a dynamic road network.
//
// Typical use:
//   Graph g = ...;                       // the road network
//   StlIndex index = StlIndex::Build(&g, {});
//   Weight d = index.Query(s, t);
//   index.ApplyUpdate({edge, old_w, new_w});   // Pareto Search by default
//
// The index keeps a non-owning pointer to the graph: updates applied
// through the index mutate the graph's weights and repair the labels in
// one step, so graph and index never diverge.
#ifndef STL_CORE_STL_INDEX_H_
#define STL_CORE_STL_INDEX_H_

#include <memory>
#include <string>

#include "core/label_search.h"
#include "core/labelling.h"
#include "core/pareto_search.h"
#include "core/tree_hierarchy.h"
#include "graph/updates.h"
#include "util/status.h"

namespace stl {

/// Which maintenance algorithm ApplyUpdate/ApplyBatch uses.
enum class MaintenanceStrategy {
  kParetoSearch,  // STL-P: two searches per update (default, fastest)
  kLabelSearch,   // STL-L: one search per affected ancestor
};

/// Construction statistics reported alongside a built index (Table 4).
struct BuildInfo {
  double hierarchy_seconds = 0;
  double labelling_seconds = 0;
  double total_seconds = 0;
};

/// Stable Tree Labelling index over a dynamic road network.
class StlIndex {
 public:
  // Movable, not copyable. Moving rebinds the maintenance engines (they
  // point into the labels member) and carries the cumulative maintenance
  // statistics over: MaintenanceStatsTotal() after a move reports exactly
  // what the source reported before it. Self-move-assignment is a no-op.
  StlIndex(StlIndex&& o) noexcept
      : g_(o.g_),
        hierarchy_(std::move(o.hierarchy_)),
        labels_(std::move(o.labels_)),
        build_info_(o.build_info_),
        carried_stats_(o.MaintenanceStatsTotal()) {
    InitEngines();
  }
  StlIndex& operator=(StlIndex&& o) noexcept {
    if (this == &o) return *this;
    carried_stats_ = o.MaintenanceStatsTotal();
    g_ = o.g_;
    hierarchy_ = std::move(o.hierarchy_);
    labels_ = std::move(o.labels_);
    build_info_ = o.build_info_;
    InitEngines();
    return *this;
  }
  StlIndex(const StlIndex&) = delete;
  StlIndex& operator=(const StlIndex&) = delete;

  /// Builds the index for `*g`. The graph must stay alive and must only
  /// be mutated through the index afterwards.
  static StlIndex Build(Graph* g, const HierarchyOptions& options);

  // Thread-safety: the const query methods below touch no mutable state
  // (no scratch buffers, no caches), so any number of threads may query
  // one index concurrently — provided no thread is applying updates at
  // the same time. For queries concurrent WITH updates, use the epoch
  // snapshots of engine/query_engine.h instead of sharing one index.

  /// Shortest-path distance between s and t; kInfDistance if unreachable.
  Weight Query(Vertex s, Vertex t) const {
    return QueryDistance(*hierarchy_, labels_, s, t);
  }

  /// An actual shortest path s .. t (inclusive); empty if unreachable.
  std::vector<Vertex> QueryShortestPath(Vertex s, Vertex t) const {
    return QueryPath(*g_, *hierarchy_, labels_, s, t);
  }

  /// Applies one weight update and repairs the labels.
  void ApplyUpdate(const WeightUpdate& update,
                   MaintenanceStrategy strategy =
                       MaintenanceStrategy::kParetoSearch);

  /// Applies a batch (updates on distinct edges) and repairs the labels.
  /// With kLabelSearch, decreases are batched per ancestor column and
  /// increases detected together, as in Algorithms 1-2; with
  /// kParetoSearch each update runs its own two searches (Algorithms 3-5).
  void ApplyBatch(const UpdateBatch& batch,
                  MaintenanceStrategy strategy =
                      MaintenanceStrategy::kParetoSearch);

  // Structural changes (paper Section 8): road closures are modelled as
  // weight increases to kMaxEdgeWeight ("effectively infinite" — paths
  // through a closed road lose to any open alternative), so the stable
  // hierarchy never changes. Closing a vertex closes its incident edges.
  // Reopening restores the remembered weights.

  /// Closes a road. No-op if already closed. Returns the batch that
  /// ReopenRoads() takes to undo the closure.
  UpdateBatch CloseRoad(EdgeId e,
                        MaintenanceStrategy strategy =
                            MaintenanceStrategy::kLabelSearch);

  /// Closes an intersection (all incident roads).
  UpdateBatch CloseIntersection(Vertex v,
                                MaintenanceStrategy strategy =
                                    MaintenanceStrategy::kLabelSearch);

  /// Reopens roads closed by CloseRoad / CloseIntersection.
  void ReopenRoads(const UpdateBatch& closure,
                   MaintenanceStrategy strategy =
                       MaintenanceStrategy::kLabelSearch);

  const Graph& graph() const { return *g_; }
  const TreeHierarchy& hierarchy() const { return *hierarchy_; }
  /// The hierarchy as a shared immutable object: published views hold
  /// this pointer instead of a copy (the hierarchy never changes).
  const std::shared_ptr<const TreeHierarchy>& shared_hierarchy() const {
    return hierarchy_;
  }
  const Labelling& labels() const { return labels_; }
  const BuildInfo& build_info() const { return build_info_; }

  /// Maintenance work counters (cumulative across updates).
  MaintenanceStats MaintenanceStatsTotal() const;

  /// Index memory footprint in bytes (labels + hierarchy), the paper's
  /// "Labelling Size" (Table 4). Under paged label storage this counts
  /// each physical page exactly once for this index; for honest totals
  /// across page-sharing epoch snapshots, see the deduplicated
  /// resident_index_bytes in engine/query_engine.h's EngineStats.
  uint64_t MemoryBytes() const {
    return labels_.MemoryBytes() + hierarchy_->MemoryBytes();
  }


  /// Persists the index (hierarchy + labels). The graph is not included;
  /// reattach the same (identically weighted) graph on Load.
  Status Save(const std::string& path) const;

  /// Loads an index previously saved for `*g`. Fails with Corruption /
  /// InvalidArgument if the file does not match the graph.
  static Result<StlIndex> Load(Graph* g, const std::string& path);

 private:
  explicit StlIndex(Graph* g) : g_(g) {}
  void InitEngines();

  Graph* g_ = nullptr;
  std::shared_ptr<const TreeHierarchy> hierarchy_;  // never null once built
  Labelling labels_;
  BuildInfo build_info_;
  // Stats accumulated by engines that no longer exist (each move rebinds
  // fresh engines); MaintenanceStatsTotal() adds the live engines' stats.
  MaintenanceStats carried_stats_;
  // Engines hold scratch buffers; unique_ptr so StlIndex stays movable.
  std::unique_ptr<LabelSearch> label_search_;
  std::unique_ptr<ParetoSearch> pareto_search_;
};

}  // namespace stl

#endif  // STL_CORE_STL_INDEX_H_
