// Sharding layer: how one road network becomes k independently-served
// index shards plus a boundary overlay.
//
// Built on a CellPartition (partition/cells.h) whose separator set S
// isolates the cells from each other:
//
//   shard i     — the subgraph on C_i ∪ S_i (cell vertices plus the
//                 boundary vertices adjacent to the cell), holding every
//                 edge with at least one endpoint in C_i. One
//                 DistanceIndex (any backend) serves it.
//   overlay     — owns the remaining edges (both endpoints in S) and,
//                 per cell, a clique of shard-local boundary-to-boundary
//                 distances. Those arcs make a small, nearly complete
//                 graph, held as one dense |S| x |S| weight matrix; one
//                 array-scan Dijkstra per row over it (DenseSearchRow,
//                 util/simd.h) yields D[b1][b2]: the EXACT full-graph
//                 distance between every pair of boundary vertices.
//
// Why this is exact: S is a vertex separator, so any path decomposes
// into maximal segments whose interiors each lie inside one cell. Each
// segment is either an S–S edge (a direct overlay edge) or a
// through-one-cell walk (bounded below by that shard's clique entry),
// so shortest paths in the overlay graph equal shortest paths in G
// restricted to boundary endpoints. Query routing then sums
// shard-local distances with overlay rows (engine/sharded_engine.h).
//
// Update locality: a weight change inside cell i touches shard i's
// index and the overlay only — every other shard's published epoch
// stays byte-identical and is re-shared by pointer.
//
// Incremental repair (docs/ARCHITECTURE.md "Incremental overlay
// repair"): the overlay master diffs every clique rebuild and direct
// weight write against its previous published table, derives the set
// of boundary ROWS whose distances can have changed, re-runs the row
// search only from those sources, min-plus-patches the rest through the
// recomputed anchor rows, and pointer-shares every untouched row with
// the previous epoch through per-row copy-on-write chunks
// (util/cow_chunks.h). A from-scratch rebuild remains the fallback
// when the dirty set passes the repair threshold (or the caller
// disallows repair, e.g. under fault injection).
#ifndef STL_INDEX_OVERLAY_H_
#define STL_INDEX_OVERLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "partition/cells.h"
#include "util/cow_chunks.h"

namespace stl {

class IndexView;  // index/distance_index.h

/// Immutable mapping between the full graph and its shards: vertex and
/// edge ownership, local renumberings, and the boundary bookkeeping the
/// overlay and the query router share. Built once per engine; every
/// published snapshot holds it by shared_ptr.
struct ShardLayout {
  /// `shard_of_edge` value for edges owned by the overlay (both
  /// endpoints in S).
  static constexpr uint32_t kOverlayShard = UINT32_MAX;

  /// Static (weight-independent) description of one shard.
  struct Shard {
    /// Local vertex id -> global vertex id. Cell vertices come first
    /// (locals [0, num_cell_vertices)), then S_i in ascending global
    /// order.
    std::vector<Vertex> to_global;
    /// Number of cell-owned vertices (locals below this are C_i).
    uint32_t num_cell_vertices = 0;
    /// Local edge id -> global edge id.
    std::vector<EdgeId> edge_to_global;
    /// Local vertex ids of S_i, aligned with
    /// CellPartition::cell_boundary[i].
    std::vector<Vertex> boundary_local;
    /// Positions of S_i in the global boundary order (indexes into
    /// OverlayTable rows), aligned with `boundary_local`.
    std::vector<uint32_t> boundary_pos;
  };

  /// One direct overlay edge: a graph edge with both endpoints in S.
  struct DirectEdge {
    uint32_t a_pos = 0;       ///< Position of one endpoint in `boundary`.
    uint32_t b_pos = 0;       ///< Position of the other endpoint.
    EdgeId global_edge = 0;   ///< The owning graph edge.
  };

  /// The cell partition this layout was derived from.
  CellPartition partition;
  /// Per-shard static description, indexed by cell id.
  std::vector<Shard> shards;
  /// Global vertex -> owning shard (CellPartition::kBoundaryCell for
  /// boundary vertices).
  std::vector<uint32_t> shard_of_vertex;
  /// Global vertex -> local id within its owning shard (meaningless for
  /// boundary vertices).
  std::vector<Vertex> local_of_vertex;
  /// Global edge -> owning shard, or kOverlayShard for S–S edges.
  std::vector<uint32_t> shard_of_edge;
  /// Global edge -> local edge id in its shard, or index into
  /// `direct_edges` when overlay-owned.
  std::vector<uint32_t> local_of_edge;
  /// Global vertex -> position in CellPartition::boundary (UINT32_MAX
  /// for non-boundary vertices).
  std::vector<uint32_t> boundary_pos_of_vertex;
  /// The overlay's own edge set (S–S graph edges).
  std::vector<DirectEdge> direct_edges;
  /// Per boundary position: the shards listing that vertex in S_i, as
  /// (shard, index into that shard's boundary_local/boundary_pos).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> memberships;

  /// Number of shards.
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards.size());
  }
  /// Number of boundary vertices (the overlay's vertex count).
  uint32_t num_boundary() const {
    return static_cast<uint32_t>(partition.boundary.size());
  }
  /// Resident bytes of the layout tables.
  uint64_t MemoryBytes() const;
};

/// A freshly computed layout plus the per-shard subgraphs seeded with
/// the master graph's current weights. The engine takes ownership of
/// the graphs (they become each shard's mutable master) and freezes the
/// layout behind a shared_ptr.
struct ShardPlan {
  /// The immutable mapping tables.
  ShardLayout layout;
  /// Per-shard subgraph, aligned with layout.shards. Local vertex v of
  /// shard i is layout.shards[i].to_global[v].
  std::vector<Graph> shard_graphs;
};

/// Computes the shard layout and subgraphs of `g` under `cells`.
/// Dies if `cells` does not describe `g` (sizes, separator property).
ShardPlan BuildShardPlan(const Graph& g, const CellPartition& cells);

/// The boundary-row computation of the sharded route (RouteLocalSpan,
/// engine/sharded_engine.h, which every replica runs too): fills `out`
/// with the shard-local distances from global vertex `global` (owned by
/// shard `shard`) to that shard's boundary set S_i, computed on `view` —
/// one point query per boundary vertex, in the order of
/// ShardLayout::Shard::boundary_local. Returns the row width |S_i|;
/// kInfDistance where the shard subgraph disconnects them. The row is
/// a pure function of (layout, shard, view, global), so any holder of
/// the same immutable view — local reader or remote replica — produces
/// bit-identical bytes.
uint32_t FillShardBoundaryRow(const ShardLayout& layout, uint32_t shard,
                              const IndexView& view, Vertex global,
                              std::vector<Weight>* out);

/// Minimal fan-out surface for BoundaryOverlay::RebuildClique: Run()
/// must invoke `worker` Width() times — possibly concurrently — and
/// return only after every invocation has completed. Workers pull
/// sources from a shared atomic counter, so running fewer copies (or
/// all of them inline) is always correct, just slower.
class OverlayExecutor {
 public:
  virtual ~OverlayExecutor() = default;  ///< Executors are caller-owned.

  /// Suggested concurrent worker count (e.g. the reader-pool width).
  virtual uint32_t Width() const = 0;

  /// Runs `worker()` Width() times and joins them all before returning.
  virtual void Run(const std::function<void()>& worker) = 0;
};

/// Per-publish statistics of the boundary overlay: how much of the
/// table the incremental repair actually had to recompute, and how much
/// was pointer-shared with the previous epoch.
struct OverlayPublishStats {
  /// Rows of the published table (the boundary vertex count n).
  uint64_t rows_total = 0;
  /// Rows recomputed by a full row search (the dirty-source set R; n
  /// when the publish fell back to the from-scratch rebuild).
  uint64_t rows_repaired = 0;
  /// Non-dirty rows whose values moved under the anchor min-plus patch
  /// (decrease propagation) and were rewritten.
  uint64_t rows_patched = 0;
  /// Rows pointer-shared with the previous published table — every row
  /// not rewritten to new bytes: untouched rows plus dirty rows whose
  /// re-run reproduced the old values exactly (so a row can count in
  /// both rows_repaired and rows_shared).
  uint64_t rows_shared = 0;
  /// Clique entries recomputed by RebuildClique calls since the last
  /// publish (sum of |S_i| * (|S_i| - 1) / 2 over rebuilt shards).
  uint64_t clique_entries_recomputed = 0;
  /// Payload bytes of the shared rows (full-table plus packed copies).
  uint64_t bytes_shared = 0;
  /// True when this publish ran the from-scratch all-pairs rebuild
  /// (first publish, repair disallowed, or dirty set over threshold).
  bool full_rebuild = false;
};

/// One immutable published epoch of the boundary overlay: the exact
/// full-graph distance between every pair of boundary vertices, plus
/// per-shard packed copies of the rows so the route's inner min-plus
/// loop reads contiguous memory (util/simd.h kernels). Rows live in
/// per-row copy-on-write chunks: consecutive epochs pointer-share every
/// row the producing batch left clean.
class OverlayTable {
 public:
  /// An empty table (no boundary vertices; k == 1 layouts).
  OverlayTable() = default;

  /// Number of boundary vertices.
  uint32_t num_boundary() const { return n_; }

  /// Exact distance between boundary positions a and b (kInfDistance
  /// when unreachable).
  Weight At(uint32_t a, uint32_t b) const {
    STL_DCHECK(a < n_ && b < n_);
    return rows_.Data(a)[b];
  }

  /// Row a of the full table (n entries). Row pointers double as
  /// physical identity: equal pointers across epochs mean the row is
  /// CoW-shared, not copied.
  const Weight* Row(uint32_t a) const {
    STL_DCHECK(a < n_);
    return rows_.Data(a);
  }

  /// Row a restricted to shard `s`'s boundary set, packed contiguously
  /// in the order of ShardLayout::Shard::boundary_pos (|S_s| entries).
  const Weight* PackedRow(uint32_t s, uint32_t a) const {
    STL_DCHECK(s < packed_.size());
    STL_DCHECK(a < n_);
    return packed_[s].rows.Data(a);
  }

  /// The packed-row batch entry point for batched routing: for each of
  /// the `nrows` boundary positions in `rows`, writes
  /// `out[i] = min_j PackedRow(s, rows[i])[j] + b[j]` over shard `s`'s
  /// packed width (the SIMD min-plus kernel per row). `b` must hold
  /// that width's entries — a shard-local boundary-distance row. Batched
  /// submission computes one such inner vector per (source-cell,
  /// target-cell, target) group and reuses it across every source in
  /// the group (engine/sharded_engine.h).
  void MinPlusRowsInto(uint32_t s, const uint32_t* rows, uint32_t nrows,
                       const Weight* b, Weight* out) const;

  /// Resident bytes of the table and its packed copies, counting shared
  /// rows as if owned (see AddResidentBytes for deduplication).
  uint64_t MemoryBytes() const;

  /// Adds this table's resident bytes to a running total, counting each
  /// physical row chunk once across every call sharing `seen` — the
  /// honest footprint under cross-epoch row sharing. Returns the bytes
  /// newly added.
  uint64_t AddResidentBytes(std::unordered_set<const void*>* seen) const;

 private:
  friend class BoundaryOverlay;

  /// Per-shard packed column block: n row chunks of |S_i| entries.
  struct PackedBlock {
    uint32_t width = 0;
    CowChunks<Weight> rows;
  };

  uint32_t n_ = 0;
  CowChunks<Weight> rows_;           // n chunks of n entries each
  std::vector<PackedBlock> packed_;  // one block per shard
};

/// The writer-owned overlay master. Holds the mutable inputs — direct
/// S–S edge weights and one distance clique per shard — plus the diff
/// bookkeeping incremental repair needs, and publishes immutable
/// OverlayTables. Not thread-safe; the engine's single-writer
/// discipline applies (RebuildClique may fan work out through an
/// OverlayExecutor, but only one RebuildClique/Publish runs at a time).
class BoundaryOverlay {
 public:
  /// Binds to `layout` (not owned; must outlive the overlay) and seeds
  /// the direct edge weights from `g`'s current weights. Cliques start
  /// empty; call RebuildClique for every shard before the first
  /// Publish.
  BoundaryOverlay(const ShardLayout* layout, const Graph& g);

  /// Updates the weight of direct overlay edge `direct_slot` (an index
  /// into ShardLayout::direct_edges), recording the change for the next
  /// Publish's repair.
  void SetDirectWeight(uint32_t direct_slot, Weight w);

  /// Recomputes shard `s`'s boundary-to-boundary distance clique from
  /// its current subgraph weights: one Dijkstra per boundary source
  /// over `shard_graph`. `executor` fans the per-source searches out
  /// (nullptr runs them inline on the caller). The shard is marked
  /// dirty; the next Publish diffs its clique against the published
  /// state, so repeated rebuilds of one shard coalesce into one
  /// old->new delta per entry. Prefer this form for backends whose
  /// point queries are themselves graph searches (CH): |S_s| Dijkstras
  /// beat |S_s|^2 / 2 bidirectional searches.
  void RebuildClique(uint32_t s, const Graph& shard_graph,
                     OverlayExecutor* executor = nullptr);

  /// Same contract, computed as |S_s|^2 / 2 point queries against the
  /// shard's freshly published epoch `view` instead of raw Dijkstras.
  /// Preferred for label backends (capabilities().fast_point_queries):
  /// a label merge per pair is far cheaper than settling the whole
  /// subgraph per source. Workers claim sources from a shared counter,
  /// so `executor` fan-out is safe for any view (epochs are immutable
  /// and reader-concurrent).
  void RebuildClique(uint32_t s, const IndexView& view,
                     OverlayExecutor* executor = nullptr);

  /// Test / diagnostic hook: overwrites clique entry (i, j) of shard
  /// `s` (symmetrically) and records the change for the next Publish's
  /// repair, as if a clique rebuild had produced it. kInfDistance
  /// models an in-shard disconnect — weight-only update streams cannot
  /// produce infinite-distance transitions, so repair's handling of
  /// them is exercised through this hook (tests/overlay_test.cc).
  void OverrideCliqueEntryForTest(uint32_t s, uint32_t i, uint32_t j,
                                  Weight w);

  /// Publishes the next immutable table. With a previous table on file
  /// and `allow_repair`, runs incremental row repair: rows whose
  /// distances can have changed (endpoints of changed overlay edges,
  /// plus rows whose old shortest paths could have used an increased
  /// edge) are re-run through the row search; the rest are
  /// min-plus-patched through the recomputed anchor rows and
  /// pointer-share their chunks with the previous epoch when unchanged.
  /// Falls back to the from-scratch rebuild when the dirty-row set
  /// exceeds 3/4 of the n rows (or on the first publish /
  /// `allow_repair == false`). Either path yields the exact all-pairs
  /// table — bit-identical, since exact distances are unique.
  std::shared_ptr<const OverlayTable> Publish(
      bool allow_repair = true, OverlayPublishStats* stats = nullptr);

  /// Resident bytes of the mutable overlay state.
  uint64_t MemoryBytes() const;

 private:
  /// One overlay edge whose weight changed since the last publish
  /// (direct S–S edge or per-shard clique entry), with both weights.
  struct ChangedEdge {
    uint32_t a_pos;
    uint32_t b_pos;
    Weight old_w;
    Weight new_w;
  };

  // The from-scratch all-pairs build (also the repair fallback).
  std::shared_ptr<const OverlayTable> FullRebuild(OverlayPublishStats* st);
  // The incremental path; returns nullptr when the dirty-row set is
  // over threshold (caller falls back to FullRebuild).
  std::shared_ptr<const OverlayTable> Repair(
      const std::vector<ChangedEdge>& changes, OverlayPublishStats* st);
  // Rewrites row r (full row + per-shard packed copies) of `table`
  // with `values`, detaching the row chunks from the previous epoch.
  void WriteRow(OverlayTable* table, uint32_t r, const Weight* values);
  // Installs a freshly computed w x w clique for shard s, accumulates
  // the recompute counter and marks the shard dirty for the next
  // Publish's diff (shared tail of both RebuildClique forms).
  void InstallClique(uint32_t s, uint32_t w, std::vector<Weight> fresh);
  // Rebuilds search_matrix_ in place from direct_weight_ and clique_.
  void BuildSearchMatrix();
  // Fills row[0..n) with the exact distances from boundary position
  // `src` over search_matrix_ (kInfDistance where unreachable). The
  // from-scratch rebuild and the row repair both run through this, so
  // the two paths cannot disagree on per-row values.
  void SearchRow(uint32_t src, Weight* row);

  const ShardLayout* layout_;
  std::vector<Weight> direct_weight_;  // aligned with layout->direct_edges
  // Per shard: |S_i| x |S_i| row-major distance clique through that
  // shard only (kInfDistance where disconnected inside the shard).
  std::vector<std::vector<Weight>> clique_;

  // --- repair bookkeeping (reset every Publish) ---
  // Per-shard clique state as of the last publish: the diff base for
  // change detection (clique_ vs clique_published_ at Publish time).
  std::vector<std::vector<Weight>> clique_published_;
  std::vector<uint8_t> clique_dirty_;   // shard rebuilt since publish
  std::vector<uint32_t> dirty_shards_;  // dirty list, publish order
  // (slot, weight before the first change this cycle) per touched
  // direct edge; stamped so repeat writes keep the true old weight.
  std::vector<std::pair<uint32_t, Weight>> pending_direct_;
  std::vector<uint32_t> direct_touch_stamp_;
  uint32_t publish_seq_ = 1;
  uint64_t pending_clique_entries_ = 0;
  std::shared_ptr<const OverlayTable> last_;  // previous published epoch
  // The overlay search graph, writer-only and rebuilt in place by every
  // publish that searches: n x n row-major, cell (a, b) the cheapest
  // arc between boundary positions a and b over the direct S–S edge
  // and every shard's clique entry, kInfDistance where there is none,
  // 0 on the diagonal. The graph is nearly complete (each cell's
  // clique joins its whole boundary set), so a dense matrix and the
  // array-scan search (DenseSearchRow, util/simd.h) beat adjacency
  // lists and a heap. Both vectors keep their capacity across
  // publishes, so steady-state publishes allocate nothing here.
  std::vector<Weight> search_matrix_;
  std::vector<uint32_t> search_done_;  // DenseSearchRow scratch
};

}  // namespace stl

#endif  // STL_INDEX_OVERLAY_H_
