#include "index/overlay.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "graph/dijkstra.h"
#include "index/distance_index.h"
#include "util/logging.h"
#include "util/simd.h"

namespace stl {

uint64_t ShardLayout::MemoryBytes() const {
  uint64_t bytes = shard_of_vertex.capacity() * sizeof(uint32_t) +
                   local_of_vertex.capacity() * sizeof(Vertex) +
                   shard_of_edge.capacity() * sizeof(uint32_t) +
                   local_of_edge.capacity() * sizeof(uint32_t) +
                   boundary_pos_of_vertex.capacity() * sizeof(uint32_t) +
                   direct_edges.capacity() * sizeof(DirectEdge);
  for (const Shard& s : shards) {
    bytes += s.to_global.capacity() * sizeof(Vertex) +
             s.edge_to_global.capacity() * sizeof(EdgeId) +
             s.boundary_local.capacity() * sizeof(Vertex) +
             s.boundary_pos.capacity() * sizeof(uint32_t);
  }
  for (const auto& m : memberships) {
    bytes += m.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
  }
  return bytes;
}

ShardPlan BuildShardPlan(const Graph& g, const CellPartition& cells) {
  STL_CHECK_EQ(cells.cell_of.size(), g.NumVertices());
  ShardPlan plan;
  ShardLayout& layout = plan.layout;
  layout.partition = cells;
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  const uint32_t k = cells.num_cells;

  layout.shard_of_vertex = cells.cell_of;
  layout.local_of_vertex.assign(n, UINT32_MAX);
  layout.boundary_pos_of_vertex.assign(n, UINT32_MAX);
  for (uint32_t p = 0; p < cells.boundary.size(); ++p) {
    layout.boundary_pos_of_vertex[cells.boundary[p]] = p;
  }

  layout.shards.resize(k);
  std::vector<std::vector<Edge>> shard_edges(k);
  for (uint32_t c = 0; c < k; ++c) {
    ShardLayout::Shard& shard = layout.shards[c];
    shard.num_cell_vertices = static_cast<uint32_t>(cells.cells[c].size());
    shard.to_global = cells.cells[c];
    shard.to_global.insert(shard.to_global.end(),
                           cells.cell_boundary[c].begin(),
                           cells.cell_boundary[c].end());
    for (uint32_t local = 0; local < shard.to_global.size(); ++local) {
      const Vertex v = shard.to_global[local];
      if (cells.cell_of[v] != CellPartition::kBoundaryCell) {
        layout.local_of_vertex[v] = local;
      }
    }
    shard.boundary_local.reserve(cells.cell_boundary[c].size());
    shard.boundary_pos.reserve(cells.cell_boundary[c].size());
    for (uint32_t i = 0; i < cells.cell_boundary[c].size(); ++i) {
      shard.boundary_local.push_back(shard.num_cell_vertices + i);
      shard.boundary_pos.push_back(
          layout.boundary_pos_of_vertex[cells.cell_boundary[c][i]]);
    }
  }

  // Boundary vertices appear in several shards; resolve their per-shard
  // local id through a scratch map rebuilt per shard below. (Cell
  // vertices use layout.local_of_vertex directly.)
  std::vector<Vertex> local_in_shard(n, UINT32_MAX);

  layout.shard_of_edge.assign(m, ShardLayout::kOverlayShard);
  layout.local_of_edge.assign(m, UINT32_MAX);
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& edge = g.GetEdge(e);
    const uint32_t cu = cells.cell_of[edge.u];
    const uint32_t cv = cells.cell_of[edge.v];
    if (cu == CellPartition::kBoundaryCell &&
        cv == CellPartition::kBoundaryCell) {
      // Overlay-owned: both endpoints on the boundary.
      layout.local_of_edge[e] =
          static_cast<uint32_t>(layout.direct_edges.size());
      layout.direct_edges.push_back(ShardLayout::DirectEdge{
          layout.boundary_pos_of_vertex[edge.u],
          layout.boundary_pos_of_vertex[edge.v], e});
      continue;
    }
    STL_CHECK(cu == cv || cu == CellPartition::kBoundaryCell ||
              cv == CellPartition::kBoundaryCell)
        << "cell partition is not a separator: edge " << edge.u << "-"
        << edge.v;
    const uint32_t owner = cu != CellPartition::kBoundaryCell ? cu : cv;
    layout.shard_of_edge[e] = owner;
    layout.local_of_edge[e] =
        static_cast<uint32_t>(shard_edges[owner].size());
    shard_edges[owner].push_back(edge);  // endpoints remapped below
    layout.shards[owner].edge_to_global.push_back(e);
  }

  // Build each shard's subgraph with locally renumbered endpoints.
  plan.shard_graphs.reserve(k);
  for (uint32_t c = 0; c < k; ++c) {
    ShardLayout::Shard& shard = layout.shards[c];
    for (uint32_t local = 0; local < shard.to_global.size(); ++local) {
      local_in_shard[shard.to_global[local]] = local;
    }
    std::vector<Edge> local_edges;
    local_edges.reserve(shard_edges[c].size());
    for (const Edge& edge : shard_edges[c]) {
      local_edges.push_back(Edge{local_in_shard[edge.u],
                                 local_in_shard[edge.v], edge.w});
    }
    Result<Graph> sub = Graph::FromEdges(
        static_cast<uint32_t>(shard.to_global.size()),
        std::move(local_edges));
    STL_CHECK(sub.ok()) << "shard " << c
                        << " subgraph: " << sub.status().ToString();
    plan.shard_graphs.push_back(std::move(sub).value());
    for (Vertex v : shard.to_global) local_in_shard[v] = UINT32_MAX;
  }
  // FromEdges keeps the edge order it was given, so local edge ids
  // assigned above line up with edge_to_global.
  for (uint32_t c = 0; c < k; ++c) {
    STL_CHECK_EQ(layout.shards[c].edge_to_global.size(),
                 plan.shard_graphs[c].NumEdges());
  }

  layout.memberships.assign(cells.boundary.size(), {});
  for (uint32_t c = 0; c < k; ++c) {
    const ShardLayout::Shard& shard = layout.shards[c];
    for (uint32_t i = 0; i < shard.boundary_pos.size(); ++i) {
      layout.memberships[shard.boundary_pos[i]].emplace_back(c, i);
    }
  }
  return plan;
}

uint32_t FillShardBoundaryRow(const ShardLayout& layout, uint32_t shard,
                              const IndexView& view, Vertex global,
                              std::vector<Weight>* out) {
  const ShardLayout::Shard& sh = layout.shards[shard];
  const uint32_t width = static_cast<uint32_t>(sh.boundary_local.size());
  out->resize(width);
  const Vertex local = layout.local_of_vertex[global];
  for (uint32_t i = 0; i < width; ++i) {
    (*out)[i] = view.Query(local, sh.boundary_local[i]);
  }
  return width;
}

// -------------------------------------------------------- OverlayTable

uint64_t OverlayTable::MemoryBytes() const {
  uint64_t bytes = rows_.MemoryBytes();
  for (const PackedBlock& blk : packed_) bytes += blk.rows.MemoryBytes();
  bytes += packed_.capacity() * sizeof(PackedBlock);
  return bytes;
}

uint64_t OverlayTable::AddResidentBytes(
    std::unordered_set<const void*>* seen) const {
  uint64_t bytes = rows_.AddResidentBytes(seen);
  for (const PackedBlock& blk : packed_) {
    bytes += blk.rows.AddResidentBytes(seen);
  }
  bytes += packed_.capacity() * sizeof(PackedBlock);
  return bytes;
}

void OverlayTable::MinPlusRowsInto(uint32_t s, const uint32_t* rows,
                                   uint32_t nrows, const Weight* b,
                                   Weight* out) const {
  STL_DCHECK(s < packed_.size());
  const PackedBlock& blk = packed_[s];
  const uint32_t width = blk.width;
  for (uint32_t i = 0; i < nrows; ++i) {
    STL_DCHECK(rows[i] < n_);
    out[i] = MinPlusReduce(blk.rows.Data(rows[i]), b, width);
  }
}

// ----------------------------------------------------- BoundaryOverlay

namespace {

// Repair falls back to the from-scratch rebuild when more than this
// fraction of the n boundary rows need a search re-run. A repaired row
// costs the same dense search as a rebuilt one and the min-plus patch
// over the remaining rows is cheap (O((n - R) * R * n) adds), so repair
// keeps winning until R approaches n.
constexpr double kRepairThreshold = 0.75;

}  // namespace

BoundaryOverlay::BoundaryOverlay(const ShardLayout* layout, const Graph& g)
    : layout_(layout) {
  STL_CHECK(layout != nullptr);
  direct_weight_.reserve(layout->direct_edges.size());
  for (const ShardLayout::DirectEdge& de : layout->direct_edges) {
    direct_weight_.push_back(g.EdgeWeight(de.global_edge));
  }
  direct_touch_stamp_.assign(layout->direct_edges.size(), 0);
  clique_.resize(layout->num_shards());
  clique_published_.resize(layout->num_shards());
  clique_dirty_.assign(layout->num_shards(), 0);
}

void BoundaryOverlay::SetDirectWeight(uint32_t direct_slot, Weight w) {
  STL_CHECK_LT(direct_slot, direct_weight_.size());
  // First touch this publish cycle records the published weight, so a
  // later Publish sees the true old->new delta even across repeated
  // writes (including writes that revert in place and drop out).
  if (direct_touch_stamp_[direct_slot] != publish_seq_) {
    direct_touch_stamp_[direct_slot] = publish_seq_;
    pending_direct_.emplace_back(direct_slot, direct_weight_[direct_slot]);
  }
  direct_weight_[direct_slot] = w;
}

void BoundaryOverlay::RebuildClique(uint32_t s, const Graph& shard_graph,
                                    OverlayExecutor* executor) {
  STL_CHECK_LT(s, clique_.size());
  const ShardLayout::Shard& shard = layout_->shards[s];
  const uint32_t w = static_cast<uint32_t>(shard.boundary_local.size());
  std::vector<Weight> fresh(static_cast<size_t>(w) * w, 0);
  if (w > 0) {
    // One full Dijkstra per boundary source over the shard subgraph.
    // Every backend's ApplyBatch writes new weights into this graph, so
    // the rows equal the shard index's exact point-to-point answers.
    // Workers claim sources from a shared counter and write disjoint
    // rows; the executor joins them before Run returns.
    std::atomic<uint32_t> next{0};
    auto worker = [&]() {
      Dijkstra dij(shard_graph);
      for (;;) {
        const uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= w) break;
        const std::vector<Weight>& dist =
            dij.AllDistances(shard.boundary_local[i]);
        Weight* row = fresh.data() + static_cast<size_t>(i) * w;
        for (uint32_t j = 0; j < w; ++j) {
          row[j] = std::min(dist[shard.boundary_local[j]], kInfDistance);
        }
        row[i] = 0;
      }
    };
    if (executor != nullptr && w > 1 && executor->Width() > 1) {
      executor->Run(worker);
    } else {
      worker();
    }
  }
  InstallClique(s, w, std::move(fresh));
}

void BoundaryOverlay::RebuildClique(uint32_t s, const IndexView& view,
                                    OverlayExecutor* executor) {
  STL_CHECK_LT(s, clique_.size());
  const ShardLayout::Shard& shard = layout_->shards[s];
  const uint32_t w = static_cast<uint32_t>(shard.boundary_local.size());
  std::vector<Weight> fresh(static_cast<size_t>(w) * w, 0);
  if (w > 1) {
    // One point query per unordered pair against the shard's published
    // epoch. Each worker owns every pair of its claimed source i (the
    // i-th row's upper triangle plus the mirrored column entries), so
    // concurrent workers write disjoint matrix cells.
    std::atomic<uint32_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= w) break;
        Weight* row = fresh.data() + static_cast<size_t>(i) * w;
        for (uint32_t j = i + 1; j < w; ++j) {
          const Weight d = std::min(
              view.Query(shard.boundary_local[i], shard.boundary_local[j]),
              kInfDistance);
          row[j] = d;
          fresh[static_cast<size_t>(j) * w + i] = d;
        }
      }
    };
    // Point queries are so cheap that fanning out only pays once the
    // pair count dwarfs the enqueue/join round-trip; below that the
    // writer finishes faster alone.
    constexpr uint32_t kMinSourcesForFanOut = 32;
    if (executor != nullptr && executor->Width() > 1 &&
        w >= kMinSourcesForFanOut) {
      executor->Run(worker);
    } else {
      worker();
    }
  }
  InstallClique(s, w, std::move(fresh));
}

void BoundaryOverlay::BuildSearchMatrix() {
  const uint32_t n = layout_->num_boundary();
  search_matrix_.assign(static_cast<size_t>(n) * n, kInfDistance);
  search_done_.resize(n);
  for (uint32_t a = 0; a < n; ++a) {
    search_matrix_[static_cast<size_t>(a) * n + a] = 0;
  }
  auto add = [&](uint32_t a, uint32_t b, Weight w) {
    Weight& cell = search_matrix_[static_cast<size_t>(a) * n + b];
    cell = std::min(cell, w);  // parallel arcs: keep the cheapest
  };
  for (uint32_t i = 0; i < layout_->direct_edges.size(); ++i) {
    const ShardLayout::DirectEdge& de = layout_->direct_edges[i];
    add(de.a_pos, de.b_pos, direct_weight_[i]);
    add(de.b_pos, de.a_pos, direct_weight_[i]);
  }
  for (uint32_t s = 0; s < layout_->num_shards(); ++s) {
    const std::vector<uint32_t>& pos = layout_->shards[s].boundary_pos;
    const uint32_t width = static_cast<uint32_t>(pos.size());
    STL_DCHECK(clique_[s].size() == static_cast<size_t>(width) * width);
    for (uint32_t i = 0; i < width; ++i) {
      const Weight* crow = clique_[s].data() + static_cast<size_t>(i) * width;
      for (uint32_t j = 0; j < width; ++j) add(pos[i], pos[j], crow[j]);
    }
  }
}

void BoundaryOverlay::SearchRow(uint32_t src, Weight* row) {
  DenseSearchRow(search_matrix_.data(), layout_->num_boundary(), src, row,
                 search_done_.data());
}

void BoundaryOverlay::InstallClique(uint32_t s, uint32_t w,
                                    std::vector<Weight> fresh) {
  STL_CHECK(clique_[s].empty() ||
            clique_[s].size() == static_cast<size_t>(w) * w);
  clique_[s] = std::move(fresh);
  pending_clique_entries_ +=
      static_cast<uint64_t>(w) * (w > 0 ? w - 1 : 0) / 2;
  if (!clique_dirty_[s]) {
    clique_dirty_[s] = 1;
    dirty_shards_.push_back(s);
  }
}

void BoundaryOverlay::OverrideCliqueEntryForTest(uint32_t s, uint32_t i,
                                                uint32_t j, Weight w) {
  STL_CHECK_LT(s, clique_.size());
  const uint32_t width =
      static_cast<uint32_t>(layout_->shards[s].boundary_local.size());
  STL_CHECK(i < width && j < width && i != j);
  STL_CHECK_EQ(clique_[s].size(), static_cast<size_t>(width) * width);
  clique_[s][static_cast<size_t>(i) * width + j] = w;
  clique_[s][static_cast<size_t>(j) * width + i] = w;
  if (!clique_dirty_[s]) {
    clique_dirty_[s] = 1;
    dirty_shards_.push_back(s);
  }
}

std::shared_ptr<const OverlayTable> BoundaryOverlay::Publish(
    bool allow_repair, OverlayPublishStats* stats) {
  OverlayPublishStats st;
  const uint32_t n = layout_->num_boundary();
  st.rows_total = n;
  st.clique_entries_recomputed = pending_clique_entries_;
  pending_clique_entries_ = 0;

  // Materialise the overlay-edge changes accumulated since the last
  // publish. Clique changes diff the current cliques against their
  // published shadow, so repeated rebuilds of one shard coalesce into
  // one old->new record per entry; direct edges use their first-touch
  // records the same way.
  std::vector<ChangedEdge> changes;
  bool diffable = true;
  for (uint32_t s : dirty_shards_) {
    const ShardLayout::Shard& shard = layout_->shards[s];
    const uint32_t width =
        static_cast<uint32_t>(shard.boundary_local.size());
    const std::vector<Weight>& cur = clique_[s];
    std::vector<Weight>& pub = clique_published_[s];
    if (pub.size() != cur.size()) {
      diffable = false;  // first build of this shard: nothing to diff
    } else {
      for (uint32_t i = 0; i < width; ++i) {
        for (uint32_t j = i + 1; j < width; ++j) {
          const Weight ov = pub[static_cast<size_t>(i) * width + j];
          const Weight nv = cur[static_cast<size_t>(i) * width + j];
          if (ov != nv) {
            changes.push_back(ChangedEdge{shard.boundary_pos[i],
                                          shard.boundary_pos[j], ov, nv});
          }
        }
      }
    }
    pub = cur;
    clique_dirty_[s] = 0;
  }
  dirty_shards_.clear();
  for (const auto& [slot, old_w] : pending_direct_) {
    if (direct_weight_[slot] == old_w) continue;  // reverted in place
    const ShardLayout::DirectEdge& de = layout_->direct_edges[slot];
    changes.push_back(
        ChangedEdge{de.a_pos, de.b_pos, old_w, direct_weight_[slot]});
  }
  pending_direct_.clear();
  ++publish_seq_;

  std::shared_ptr<const OverlayTable> table;
  if (allow_repair && diffable && last_ != nullptr && last_->n_ == n) {
    table = Repair(changes, &st);
  }
  if (table == nullptr) table = FullRebuild(&st);
  last_ = table;
  if (stats != nullptr) *stats = st;
  return table;
}

std::shared_ptr<const OverlayTable> BoundaryOverlay::FullRebuild(
    OverlayPublishStats* st) {
  auto table = std::make_shared<OverlayTable>();
  const uint32_t n = layout_->num_boundary();
  const uint32_t k = layout_->num_shards();
  table->n_ = n;
  table->rows_.Reserve(n);
  table->packed_.resize(k);
  for (uint32_t s = 0; s < k; ++s) {
    table->packed_[s].width =
        static_cast<uint32_t>(layout_->shards[s].boundary_pos.size());
    table->packed_[s].rows.Reserve(n);
  }
  if (n > 0) {
    BuildSearchMatrix();
    std::vector<Weight> row(n);
    for (uint32_t src = 0; src < n; ++src) {
      SearchRow(src, row.data());
      table->rows_.Append(row);
      for (uint32_t s = 0; s < k; ++s) {
        const ShardLayout::Shard& shard = layout_->shards[s];
        OverlayTable::PackedBlock& blk = table->packed_[s];
        std::vector<Weight> packed(blk.width);
        for (uint32_t j = 0; j < blk.width; ++j) {
          packed[j] = row[shard.boundary_pos[j]];
        }
        blk.rows.Append(std::move(packed));
      }
    }
  }
  st->full_rebuild = true;
  st->rows_repaired = n;
  st->rows_patched = 0;
  st->rows_shared = 0;
  st->bytes_shared = 0;
  return table;
}

std::shared_ptr<const OverlayTable> BoundaryOverlay::Repair(
    const std::vector<ChangedEdge>& changes, OverlayPublishStats* st) {
  const uint32_t n = layout_->num_boundary();
  uint64_t row_payload = static_cast<uint64_t>(n) * sizeof(Weight);
  for (uint32_t s = 0; s < layout_->num_shards(); ++s) {
    row_payload += layout_->shards[s].boundary_pos.size() * sizeof(Weight);
  }
  if (changes.empty()) {
    // Clean batch (shard-internal updates that left every
    // boundary-to-boundary distance alone): re-share the whole table.
    auto table = std::make_shared<OverlayTable>(*last_);
    st->rows_shared = n;
    st->bytes_shared = static_cast<uint64_t>(n) * row_payload;
    return table;
  }

  // Dirty-source set R, built asymmetrically:
  //
  //   decreases — both endpoints join R as ANCHORS: new shortest paths
  //     can newly route through a cheapened edge, and the patch below
  //     reaches every such path by splitting it at an endpoint. No
  //     per-row test is needed for the rest.
  //   increases — row a joins R iff some old shortest path from a used
  //     an increased edge, detected by old-table tightness:
  //     D_old[a][u] + w_old == D_old[a][v] (either orientation),
  //     because shortest-path prefixes are shortest paths. An increased
  //     edge tight from NO row was on no shortest path, and paths
  //     through it only got worse — it cannot change any distance, so
  //     (unlike decreases) its endpoints need no unconditional re-run.
  //
  // A pure-increase batch therefore has no anchors at all: tagged rows
  // re-run, every other row is provably byte-stable and just shares.
  std::vector<uint8_t> in_r(n, 0);
  std::vector<uint32_t> anchors;
  std::vector<const ChangedEdge*> increases;
  for (const ChangedEdge& ce : changes) {
    if (ce.new_w > ce.old_w) {
      increases.push_back(&ce);
      continue;
    }
    for (const uint32_t p : {ce.a_pos, ce.b_pos}) {
      if (!in_r[p]) {
        in_r[p] = 1;
        anchors.push_back(p);
      }
    }
  }
  std::vector<uint32_t> dirty_rows = anchors;
  if (!increases.empty()) {
    for (uint32_t a = 0; a < n; ++a) {
      if (in_r[a]) continue;
      const Weight* row = last_->rows_.Data(a);
      for (const ChangedEdge* ce : increases) {
        const uint64_t du = row[ce->a_pos];
        const uint64_t dv = row[ce->b_pos];
        const uint64_t w = ce->old_w;
        if (du + w == dv || dv + w == du) {
          in_r[a] = 1;
          dirty_rows.push_back(a);
          break;
        }
      }
    }
  }
  if (static_cast<double>(dirty_rows.size()) >
      kRepairThreshold * static_cast<double>(n)) {
    return nullptr;  // repair would touch too much; rebuild instead
  }

  auto table = std::make_shared<OverlayTable>(*last_);
  BuildSearchMatrix();
  std::vector<Weight> scratch(n);
  uint64_t rows_rewritten = 0;
  for (const uint32_t r : dirty_rows) {
    SearchRow(r, scratch.data());
    if (std::memcmp(scratch.data(), table->rows_.Data(r),
                    static_cast<size_t>(n) * sizeof(Weight)) != 0) {
      WriteRow(table.get(), r, scratch.data());
      ++rows_rewritten;
    }
  }
  st->rows_repaired = dirty_rows.size();

  // Patch every remaining row a exactly:
  //   D_new[a][b] = min(D_old[a][b], min_{u in anchors} D'[u][a] + D'[u][b])
  // Upper bound: a is untagged, so every old shortest path from a
  // avoids every increased edge; such a path only got cheaper under
  // the batch, so D_new <= D_old — and the anchor candidates are real
  // path lengths. Lower bound: a new shortest path either avoids all
  // changed edges (old length, >= D_old[a][b]), or routes through a
  // decreased edge, where splitting at that edge's endpoint u (an
  // anchor) gives D'[u][a] + D'[u][b]; using only increased edges is
  // impossible for an untagged row — the same path was cheaper before
  // the batch, so it would contradict D_old's optimality. Anchor rows
  // were re-run above, so D' is exact new distances.
  if (!anchors.empty()) {
    std::vector<const Weight*> anchor_rows;
    anchor_rows.reserve(anchors.size());
    for (const uint32_t u : anchors) {
      anchor_rows.push_back(table->rows_.Data(u));
    }
    for (uint32_t a = 0; a < n; ++a) {
      if (in_r[a]) continue;
      std::memcpy(scratch.data(), table->rows_.Data(a),
                  static_cast<size_t>(n) * sizeof(Weight));
      bool changed = false;
      for (size_t ui = 0; ui < anchors.size(); ++ui) {
        const Weight cu = anchor_rows[ui][a];
        if (cu >= kInfDistance) continue;
        const Weight* ru = anchor_rows[ui];
        for (uint32_t b = 0; b < n; ++b) {
          // cu + ru[b] <= 2 * kInfDistance: no uint32 wrap, and any
          // candidate involving an unreachable leg stays >= kInfDistance
          // so it never undercuts a real entry.
          const Weight cand = cu + ru[b];
          if (cand < scratch[b]) {
            scratch[b] = cand;
            changed = true;
          }
        }
      }
      if (changed) {
        WriteRow(table.get(), a, scratch.data());
        ++st->rows_patched;
        ++rows_rewritten;
      }
    }
  }
  st->rows_shared = n - rows_rewritten;
  st->bytes_shared = st->rows_shared * row_payload;
  return table;
}

void BoundaryOverlay::WriteRow(OverlayTable* table, uint32_t r,
                               const Weight* values) {
  const uint32_t n = table->n_;
  std::memcpy(table->rows_.Writable(r), values,
              static_cast<size_t>(n) * sizeof(Weight));
  for (uint32_t s = 0; s < table->packed_.size(); ++s) {
    const ShardLayout::Shard& shard = layout_->shards[s];
    OverlayTable::PackedBlock& blk = table->packed_[s];
    Weight* out = blk.rows.Writable(r);
    for (uint32_t j = 0; j < blk.width; ++j) {
      out[j] = values[shard.boundary_pos[j]];
    }
  }
}

uint64_t BoundaryOverlay::MemoryBytes() const {
  uint64_t bytes = direct_weight_.capacity() * sizeof(Weight) +
                   direct_touch_stamp_.capacity() * sizeof(uint32_t) +
                   pending_direct_.capacity() *
                       sizeof(std::pair<uint32_t, Weight>) +
                   clique_dirty_.capacity() +
                   dirty_shards_.capacity() * sizeof(uint32_t);
  for (const auto& c : clique_) bytes += c.capacity() * sizeof(Weight);
  for (const auto& c : clique_published_) {
    bytes += c.capacity() * sizeof(Weight);
  }
  bytes += search_matrix_.capacity() * sizeof(Weight) +
           search_done_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace stl
