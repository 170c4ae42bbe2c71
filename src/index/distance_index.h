// DistanceIndex: the backend abstraction the serving engine is generic
// over. The paper positions STL against CH, H2H and HC2L; this layer
// puts all four behind one capability surface so QueryEngine can serve
// concurrent traffic from any of them (and one concurrent audit holds
// all four to the same contract — BackendEngineTest in
// tests/engine_test.cc).
//
// Split mirrors the engine's serving/maintenance split:
//
//   DistanceIndex  — the master, owned by the writer thread. Applies
//                    update batches (incrementally, or by full rebuild
//                    for static backends) and publishes IndexViews.
//   IndexView      — one immutable published epoch. Readers answer
//                    queries from it with pure const reads; it must stay
//                    correct and byte-stable while the writer keeps
//                    mutating the master.
//
// Publication cost is backend-shaped: STL shares label pages and the
// stable hierarchy copy-on-write (O(touched pages), the PR 2 fast
// path), CH/H2H deep-copy their weight-carrying state (their structures
// mutate in place), and HC2L republishes an immutable shared_ptr for
// free because every update batch already rebuilt a fresh index.
#ifndef STL_INDEX_DISTANCE_INDEX_H_
#define STL_INDEX_DISTANCE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/labelling.h"
#include "core/stl_index.h"
#include "core/tree_hierarchy.h"
#include "graph/graph.h"
#include "graph/updates.h"

/// Stable Tree Labelling: the dynamic shortest-path index, its
/// baselines, and the concurrent serving engines built on top.
namespace stl {

/// The four serveable index families.
enum class BackendKind {
  kStl,   ///< Stable Tree Labelling (the paper's index; dynamic, CoW).
  kCh,    ///< Contraction Hierarchy (CH-W + DCH maintenance).
  kH2h,   ///< H2H tree-decomposition labels (IncH2H maintenance).
  kHc2l,  ///< Hierarchical Cut 2-hop Labelling (static; rebuilds).
};

/// Short lowercase name, for logs / JSON / CLI flags.
const char* BackendName(BackendKind kind);

/// All four kinds, in presentation order.
inline constexpr BackendKind kAllBackends[] = {
    BackendKind::kStl, BackendKind::kCh, BackendKind::kH2h,
    BackendKind::kHc2l};

/// What a backend can do; the engine adapts (e.g. counts rebuild batches
/// separately, skips path queries) instead of special-casing kinds.
struct BackendCapabilities {
  /// False: every update batch triggers a full index rebuild (published
  /// as a new epoch like any other).
  bool incremental_updates = false;
  /// QueryShortestPath returns actual paths (else always empty).
  bool path_queries = false;
  /// Publishing shares structure with the master copy-on-write instead
  /// of deep-copying (STL's O(touched pages) publish).
  bool cow_snapshots = false;
  /// Point queries are label lookups (a few cache lines per query)
  /// rather than graph searches. The sharded engine's clique recompute
  /// prefers |S_i|^2 / 2 view queries over |S_i| full Dijkstras when
  /// this is set (index/overlay.h RebuildClique overloads).
  bool fast_point_queries = false;
};

/// One immutable published epoch of a backend. Thread-safe for any
/// number of concurrent readers; never mutated after publication.
class IndexView {
 public:
  virtual ~IndexView() = default;  ///< Views are owned via shared_ptr.

  /// Exact distance under this epoch's weights; kInfDistance if
  /// unreachable.
  virtual Weight Query(Vertex s, Vertex t) const = 0;

  /// An actual shortest path s .. t under this epoch's weights (`g` must
  /// be the epoch's graph). Empty when unreachable — or unsupported
  /// (capabilities().path_queries false).
  virtual std::vector<Vertex> QueryShortestPath(const Graph& g, Vertex s,
                                                Vertex t) const {
    (void)g;
    (void)s;
    (void)t;
    return {};
  }

  /// Adds this view's resident bytes to a running total, counting each
  /// physically shared block once across every call made with the same
  /// `seen` set. Returns the bytes newly added.
  virtual uint64_t AddResidentBytes(
      std::unordered_set<const void*>* seen) const = 0;

  /// STL-backend label introspection for tests and benches; null on
  /// every other backend.
  virtual const Labelling* StlLabels() const { return nullptr; }
  /// STL-backend hierarchy introspection; null on other backends.
  virtual const TreeHierarchy* StlHierarchy() const { return nullptr; }
};

/// How a backend executed one update batch (engine batch counters).
enum class BatchExecution {
  kParetoSearch,  ///< STL-P incremental repair.
  kLabelSearch,   ///< STL-L incremental repair.
  kIncremental,   ///< Backend-specific incremental repair (DCH / IncH2H).
  kFullRebuild,   ///< Static backend: index rebuilt from the new weights.
};

/// Physical copy work done to isolate the published epoch (fills the
/// engine's CoW / deep-copy economics counters).
struct PublishInfo {
  /// CoW label pages detached since the last publish.
  uint64_t label_pages_cloned = 0;
  /// Bytes of those detached pages.
  uint64_t label_bytes_cloned = 0;
  /// Bytes deep-copied by this publish.
  uint64_t deep_bytes_copied = 0;
};

/// A master index the engine's writer thread drives. Implementations
/// keep a non-owning Graph* to the engine's master graph: ApplyBatch
/// mutates the graph's weights and repairs (or rebuilds) the index in
/// one step, so graph and index never diverge. Not thread-safe — the
/// single-writer discipline of engine/query_engine.h applies; published
/// IndexViews are what readers touch.
class DistanceIndex {
 public:
  virtual ~DistanceIndex() = default;  ///< Owned by the engine's writer.

  /// Which index family this master is.
  virtual BackendKind kind() const = 0;
  /// What this backend supports (the engine adapts to it).
  virtual BackendCapabilities capabilities() const = 0;

  /// Applies a batch of weight updates on distinct edges. `strategy` is
  /// the engine's per-batch STL maintenance choice; non-STL backends
  /// ignore it. Returns how the batch was executed.
  virtual BatchExecution ApplyBatch(const UpdateBatch& batch,
                                    MaintenanceStrategy strategy) = 0;

  /// Publishes the current state as an immutable view and reports the
  /// copy work done.
  virtual std::shared_ptr<const IndexView> PublishView(
      PublishInfo* info) = 0;

  /// Master index footprint in bytes (labels/edges + hierarchy/tree).
  virtual uint64_t MemoryBytes() const = 0;

  /// Seconds spent building the master index.
  virtual double BuildSeconds() const = 0;

  /// STL-backend hierarchy introspection (the object every published
  /// view shares); null on other backends.
  virtual const TreeHierarchy* StlHierarchy() const { return nullptr; }
};

/// Builds the master index of `kind` over `*g` (which must stay alive
/// and be mutated only through the returned index). `options` shapes the
/// STL / HC2L hierarchies and is also kept for HC2L rebuilds; CH and H2H
/// only read its num_threads-independent defaults.
std::unique_ptr<DistanceIndex> MakeDistanceIndex(
    BackendKind kind, Graph* g, const HierarchyOptions& options);

}  // namespace stl

#endif  // STL_INDEX_DISTANCE_INDEX_H_
