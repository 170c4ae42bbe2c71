#include "engine/sharded_engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/thread_pool.h"
#include "partition/cells.h"
#include "util/logging.h"

namespace stl {

namespace {

// Fans BoundaryOverlay::RebuildClique's per-source searches out across
// an owner's reader pool; a null pool lends no helpers (Width() 1, so
// the recompute runs inline). The writer participates as one worker, so
// progress never depends on the pool: rejected enqueues (shutdown) or
// a busy pool just mean fewer helpers. Run returns only after every
// launched helper finished (mutex/cv join — the join also orders the
// helpers' row writes before the writer's reads).
class PoolExecutor final : public OverlayExecutor {
 public:
  explicit PoolExecutor(ThreadPool* pool) : pool_(pool) {}

  uint32_t Width() const override {
    return pool_ == nullptr
               ? 1
               : static_cast<uint32_t>(std::max(1, pool_->num_threads()));
  }

  void Run(const std::function<void()>& worker) override {
    const uint32_t width = Width();
    // Helpers share the reader pool's task queue, so under query load
    // they would sit behind pending query chunks and the writer would
    // block on them for nothing. Fan out only when the pool is idle
    // (the common case for update-dominated phases); otherwise the
    // writer runs the whole recompute inline.
    const uint32_t helpers =
        pool_ != nullptr && pool_->queue_depth() == 0 ? width - 1 : 0;
    // Heap-held latch: a helper's final unlock may race Run's return,
    // so the state must outlive Run (each helper keeps a reference).
    struct Latch {
      std::mutex mu;
      std::condition_variable cv;
      uint32_t remaining = 0;
    };
    auto latch = std::make_shared<Latch>();
    for (uint32_t i = 0; i < helpers; ++i) {
      {
        std::lock_guard<std::mutex> lock(latch->mu);
        ++latch->remaining;
      }
      const bool ok = pool_->Enqueue([&worker, latch] {
        worker();
        std::lock_guard<std::mutex> lock(latch->mu);
        if (--latch->remaining == 0) latch->cv.notify_all();
      });
      if (!ok) {
        std::lock_guard<std::mutex> lock(latch->mu);
        --latch->remaining;  // pool down; the inline worker covers it
      }
    }
    worker();
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait(lock, [&] { return latch->remaining == 0; });
  }

 private:
  ThreadPool* pool_;
};

/// The inner-vector memo of a span routed in BatchSortKey order: the
/// current (source cell cs, target cell ct, target t) group's
/// inner[i] = min_{b2} D[S_cs[i]][b2] + dt[b2], shared by every query of
/// the group. Valid for one snapshot: Reset() before reusing it (and
/// its storage) on the next span.
class InnerVectorMemo {
 public:
  /// Forgets the current group; keeps the storage.
  void Reset() { cs_ = CellPartition::kBoundaryCell; }

  /// The inner vector of group (cs, ct, t) — |S_cs| entries — where
  /// `dt` is t's boundary row on shard ct. Recomputed only when the
  /// group changes.
  const Weight* Get(const ShardedSnapshot& snap, uint32_t cs, uint32_t ct,
                    Vertex t, const Weight* dt) {
    if (cs_ != cs || ct_ != ct || t_ != t) {
      cs_ = cs;
      ct_ = ct;
      t_ = t;
      const ShardLayout::Shard& sshard = snap.layout->shards[cs];
      inner_.resize(sshard.boundary_pos.size());
      // The packed-row batch entry point: one SIMD min-plus per b1 row
      // of shard ct's packed block (index/overlay.h).
      snap.overlay->MinPlusRowsInto(
          ct, sshard.boundary_pos.data(),
          static_cast<uint32_t>(sshard.boundary_pos.size()), dt,
          inner_.data());
    }
    return inner_.data();
  }

 private:
  uint32_t cs_ = CellPartition::kBoundaryCell;
  uint32_t ct_ = CellPartition::kBoundaryCell;
  Vertex t_ = 0;
  std::vector<Weight> inner_;
};

/// The storage of one span's in-process routing: the per-span row
/// memo and the inner-vector memo. A thread keeps one and reuses its
/// row and inner-vector buffers across spans.
struct LocalScratch {
  // (vertex, shard) -> index into rows. Cleared per span.
  std::unordered_map<uint64_t, uint32_t> index;
  // Row buffers; the first `used` belong to the current span. A deque:
  // references stay valid across later growth.
  std::deque<std::vector<Weight>> rows;
  uint32_t used = 0;
  InnerVectorMemo memo;
};

/// The shard-local inputs of the decomposition: boundary rows computed
/// on the snapshot's shard views — memoised per span, behind the row
/// cache when one is armed — and same-cell distances from the shard
/// view. Cached rows are validated by (vertex, shard, shard_epoch), so
/// a hit holds exactly the row FillShardBoundaryRow computes on this
/// snapshot: answers are bit-identical with the cache on or off.
class LocalPieces {
 public:
  /// Starts a span on `scratch`, forgetting its previous rows and
  /// inner-vector group (they belong to another span's snapshot).
  LocalPieces(const ShardedSnapshot& snap, SlotCache* cache,
              LocalScratch* scratch)
      : snap_(snap), cache_(cache), scratch_(scratch) {
    scratch_->index.clear();
    scratch_->used = 0;
    scratch_->memo.Reset();
  }

  /// Gives back what an unusually large span grew: a thread keeps at
  /// most kKeptRows row buffers between spans.
  ~LocalPieces() {
    if (scratch_->rows.size() > kKeptRows) {
      scratch_->rows.resize(kKeptRows);
      scratch_->index = {};
    }
  }

  /// v's |S_shard| distances to the shard's boundary set, in
  /// ShardLayout::Shard::boundary_local order.
  const std::vector<Weight>& Row(uint32_t shard, Vertex v) {
    const uint64_t key = PairKey(v, shard);
    auto [it, fresh] = scratch_->index.try_emplace(key, scratch_->used);
    if (!fresh) return scratch_->rows[it->second];
    if (scratch_->used == scratch_->rows.size()) scratch_->rows.emplace_back();
    std::vector<Weight>& row = scratch_->rows[scratch_->used++];
    const ShardServing& serving = *snap_.shards[shard];
    row.resize(snap_.layout->shards[shard].boundary_local.size());
    const uint32_t width = static_cast<uint32_t>(row.size());
    if (!cache_->Lookup(key, serving.shard_epoch, width, row.data())) {
      FillShardBoundaryRow(*snap_.layout, shard, *serving.view, v, &row);
      cache_->Insert(key, serving.shard_epoch, width, row.data());
    }
    return row;
  }

  /// The shard-local distance of a same-cell pair.
  Weight Point(uint32_t shard, Vertex s, Vertex t) const {
    const ShardLayout& lay = *snap_.layout;
    return snap_.shards[shard]->view->Query(lay.local_of_vertex[s],
                                            lay.local_of_vertex[t]);
  }

  InnerVectorMemo* memo() { return &scratch_->memo; }

 private:
  static constexpr size_t kKeptRows = 128;

  const ShardedSnapshot& snap_;
  SlotCache* cache_;
  LocalScratch* scratch_;
};

/// One pair of RouteLocalSpan's decomposition (see the header). A null
/// `memo` (a lone pair, where no group shares the inner vector) runs
/// the pruned double loop instead, skipping every b1 with ds[b1] >= the
/// best so far; both forms reach the same minimum.
Weight RoutePair(const ShardedSnapshot& snap, Vertex s, Vertex t,
                 LocalPieces* pieces, InnerVectorMemo* memo) {
  const ShardLayout& lay = *snap.layout;
  STL_DCHECK(s < lay.shard_of_vertex.size());
  STL_DCHECK(t < lay.shard_of_vertex.size());
  if (s == t) return 0;
  const uint32_t cs = lay.shard_of_vertex[s];
  const uint32_t ct = lay.shard_of_vertex[t];
  const bool s_boundary = cs == CellPartition::kBoundaryCell;
  const bool t_boundary = ct == CellPartition::kBoundaryCell;
  if (s_boundary && t_boundary) {
    // The overlay table is already the exact full-graph distance.
    return snap.overlay->At(lay.boundary_pos_of_vertex[s],
                            lay.boundary_pos_of_vertex[t]);
  }
  // Same cell: the path may stay inside the shard entirely, or leave
  // through the boundary and come back (the general case below; D[b][b]
  // = 0 makes touch-and-return a special case of it).
  const bool same_cell = !s_boundary && !t_boundary && cs == ct;
  uint64_t best = same_cell ? pieces->Point(cs, s, t) : kInfDistance;
  if (s_boundary) {
    // The first boundary vertex of any path from s is s itself.
    const std::vector<Weight>& dt = pieces->Row(ct, t);
    best = std::min<uint64_t>(
        best, MinPlusReduce(
                  snap.overlay->PackedRow(ct, lay.boundary_pos_of_vertex[s]),
                  dt.data(), static_cast<uint32_t>(dt.size())));
  } else if (t_boundary) {
    // Mirror image (distances are symmetric on an undirected graph).
    const std::vector<Weight>& ds = pieces->Row(cs, s);
    best = std::min<uint64_t>(
        best, MinPlusReduce(
                  snap.overlay->PackedRow(cs, lay.boundary_pos_of_vertex[t]),
                  ds.data(), static_cast<uint32_t>(ds.size())));
  } else {
    const std::vector<Weight>& ds = pieces->Row(cs, s);
    const std::vector<Weight>& dt = pieces->Row(ct, t);
    if (memo == nullptr) {
      // Decompose at the first and last boundary vertices, b1 by b1.
      const std::vector<uint32_t>& pos = lay.shards[cs].boundary_pos;
      for (size_t i = 0; i < ds.size(); ++i) {
        if (ds[i] >= best) continue;  // no path through b1 can win
        best = std::min<uint64_t>(
            best, static_cast<uint64_t>(ds[i]) +
                      MinPlusReduce(snap.overlay->PackedRow(ct, pos[i]),
                                    dt.data(),
                                    static_cast<uint32_t>(dt.size())));
      }
    } else {
      // The same decomposition on the group's shared inner vector:
      // min_i ds[i] + inner[i]. All terms are <= 3 * kInfDistance, so
      // the uint32 min-plus cannot wrap.
      best = std::min<uint64_t>(
          best, MinPlusReduce(ds.data(), memo->Get(snap, cs, ct, t, dt.data()),
                              static_cast<uint32_t>(ds.size())));
    }
  }
  // Saturate the three-term sums back into the Weight range.
  return best >= kInfDistance ? kInfDistance : static_cast<Weight>(best);
}

/// RouteLocalSpan on a caller-held scratch.
void RouteSpanOn(const ShardedSnapshot& snap, const QueryPair* queries,
                 const uint32_t* idx, size_t count, Weight* out,
                 SlotCache* row_cache, LocalScratch* scratch) {
  LocalPieces pieces(snap, row_cache, scratch);
  InnerVectorMemo* memo = count > 1 ? pieces.memo() : nullptr;
  for (size_t j = 0; j < count; ++j) {
    const QueryPair& q = queries[idx[j]];
    out[idx[j]] = RoutePair(snap, q.first, q.second, &pieces, memo);
  }
}

}  // namespace

// ----------------------------------------------------- ShardedSnapshot

Weight ShardedSnapshot::Query(Vertex s, Vertex t) const {
  // Uncached on purpose: this is the reference implementation that
  // tests, audits and external snapshot holders run against.
  SlotCache uncached;  // never armed
  LocalScratch scratch;
  const QueryPair q{s, t};
  const uint32_t idx = 0;
  Weight d = kInfDistance;
  RouteSpanOn(*this, &q, &idx, 1, &d, &uncached, &scratch);
  return d;
}

void RouteLocalSpan(const ShardedSnapshot& snap, const QueryPair* queries,
                    const uint32_t* idx, size_t count, Weight* out,
                    SlotCache* row_cache) {
  // Per thread; the route calls out to nothing, so spans never nest.
  thread_local LocalScratch scratch;
  RouteSpanOn(snap, queries, idx, count, out, row_cache, &scratch);
}

// --------------------------------------------------------- ShardLedger

ShardLedger::ShardLedger(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         uint32_t target_shards,
                         std::vector<Graph>* shard_graphs)
    : graph_(std::move(graph)) {
  STL_CHECK_GE(target_shards, 1u);
  const CellPartition cells =
      PartitionCells(graph_, target_shards, hierarchy_options);
  ShardPlan plan = BuildShardPlan(graph_, cells);
  layout_ = std::make_shared<const ShardLayout>(std::move(plan.layout));
  if (shard_graphs != nullptr) *shard_graphs = std::move(plan.shard_graphs);
  const uint32_t k = layout_->num_shards();
  shard_epochs_.assign(k, 0);
  shard_updates_.reset(new std::atomic<uint64_t>[std::max(k, 1u)]);
  for (uint32_t c = 0; c < k; ++c) shard_updates_[c].store(0);
}

ShardLedger::Split ShardLedger::Apply(const UpdateBatch& batch) {
  const uint32_t k = layout_->num_shards();
  Split split;
  split.per_shard.resize(k);
  for (const WeightUpdate& u : batch) {
    const uint32_t owner = layout_->shard_of_edge[u.edge];
    const uint32_t slot = layout_->local_of_edge[u.edge];
    UpdateBatch& to = owner == ShardLayout::kOverlayShard
                          ? split.overlay
                          : split.per_shard[owner];
    to.push_back(WeightUpdate{slot, graph_.EdgeWeight(u.edge), u.new_weight});
    graph_.SetEdgeWeight(u.edge, u.new_weight);
  }
  for (uint32_t c = 0; c < k; ++c) {
    if (split.per_shard[c].empty()) continue;
    ++shard_epochs_[c];
    shard_updates_[c].fetch_add(split.per_shard[c].size(),
                                std::memory_order_relaxed);
  }
  ++epoch_;
  counters_.updates_applied.fetch_add(batch.size(),
                                      std::memory_order_relaxed);
  counters_.epochs_published.fetch_add(1, std::memory_order_relaxed);
  return split;
}

void ShardLedger::FillStats(const std::vector<uint64_t>& shard_epochs,
                            EngineStats* s) const {
  counters_.FillStats(s);
  s->num_shards = layout_->num_shards();
  s->boundary_vertices = layout_->num_boundary();
  s->shards.reserve(layout_->num_shards());
  for (uint32_t c = 0; c < layout_->num_shards(); ++c) {
    ShardStats row;
    row.shard = c;
    row.cell_vertices = layout_->shards[c].num_cell_vertices;
    row.boundary_vertices =
        static_cast<uint32_t>(layout_->shards[c].boundary_local.size());
    row.subgraph_edges =
        static_cast<uint32_t>(layout_->shards[c].edge_to_global.size());
    row.shard_epoch = shard_epochs[c];
    row.updates_applied = shard_updates_[c].load(std::memory_order_relaxed);
    s->shards.push_back(row);
  }
}

void ShardLedger::ResetStats() {
  counters_.Reset();
  for (uint32_t c = 0; c < layout_->num_shards(); ++c) {
    shard_updates_[c].store(0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------- ShardedWriter

ShardedWriter::ShardedWriter(Graph graph,
                             const HierarchyOptions& hierarchy_options,
                             const ShardedEngineOptions& options)
    : ShardedWriter(std::move(graph), hierarchy_options, options, {}) {}

ShardedWriter::ShardedWriter(Graph graph,
                             const HierarchyOptions& hierarchy_options,
                             const ShardedEngineOptions& options,
                             std::vector<Graph> shard_graphs)
    : backend_(options.backend),
      faults_(options.serving.fault_injector),
      ledger_(std::move(graph), hierarchy_options, options.target_shards,
              &shard_graphs) {
  const uint32_t k = ledger_.layout()->num_shards();
  states_.resize(k);
  for (uint32_t c = 0; c < k; ++c) {
    states_[c].graph = std::make_unique<Graph>(std::move(shard_graphs[c]));
  }
  // The shard builds touch disjoint state. An STL build already spreads
  // its label columns over hierarchy_options.num_threads workers, so STL
  // shards are built one at a time; the single-threaded CH, H2H and HC2L
  // builds are spread over that many shard workers instead. Either way
  // construction never runs more than num_threads build threads at once.
  {
    const uint32_t shard_workers =
        backend_ == BackendKind::kStl
            ? std::min(k, 1u)
            : std::min(k, static_cast<uint32_t>(
                              std::max(1, hierarchy_options.num_threads)));
    std::atomic<uint32_t> cursor{0};
    auto build = [&] {
      for (uint32_t c = cursor.fetch_add(1, std::memory_order_relaxed);
           c < k; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
        states_[c].index = MakeDistanceIndex(
            backend_, states_[c].graph.get(), hierarchy_options);
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(shard_workers);
    for (uint32_t t = 1; t < shard_workers; ++t) threads.emplace_back(build);
    if (shard_workers > 0) build();
    for (auto& t : threads) t.join();
  }
  if (k > 0) capabilities_ = states_[0].index->capabilities();
  overlay_ = std::make_unique<BoundaryOverlay>(ledger_.layout().get(),
                                               ledger_.graph());
  serving_.resize(k);

  // Epoch 0 baseline: clones from construction are not publish cost.
  harvested_graph_chunks_ = ledger_.graph().cow_stats().chunks_cloned;
  harvested_graph_bytes_ = ledger_.graph().cow_stats().bytes_cloned;
}

std::shared_ptr<const ShardedSnapshot> ShardedWriter::PublishInitial(
    ThreadPool* helpers) {
  PoolExecutor executor(helpers);
  for (uint32_t c = 0; c < ledger_.layout()->num_shards(); ++c) {
    // Epoch 0: construction cost, so neither the CoW nor the clique
    // time is counted as publish cost.
    PublishInfo info;
    PublishShard(c, 0, &executor, &info);
  }
  return Snapshot(overlay_->Publish());
}

std::shared_ptr<const ShardedSnapshot> ShardedWriter::Snapshot(
    std::shared_ptr<const OverlayTable> overlay) const {
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->epoch = ledger_.epoch();
  snap->graph = ledger_.graph();  // structural chunk share
  snap->layout = ledger_.layout();
  snap->shards = serving_;
  snap->overlay = std::move(overlay);
  return snap;
}

uint64_t ShardedWriter::PublishShard(uint32_t c, uint64_t shard_epoch,
                                     OverlayExecutor* executor,
                                     PublishInfo* info) {
  auto serving = std::make_shared<ShardServing>();
  serving->shard = c;
  serving->shard_epoch = shard_epoch;
  serving->view = states_[c].index->PublishView(info);
  Timer clique_timer;
  // The clique recompute, fanned across `executor`. Label backends
  // answer the |S_c|^2 / 2 pairs by point queries against the view just
  // published; CH re-derives the clique with |S_c| Dijkstras over the
  // shard's master subgraph (Apply wrote the new weights into it),
  // which beats that many bidirectional searches.
  if (states_[c].index->capabilities().fast_point_queries) {
    overlay_->RebuildClique(c, *serving->view, executor);
  } else {
    overlay_->RebuildClique(c, *states_[c].graph, executor);
  }
  const uint64_t clique_nanos = clique_timer.ElapsedNanos();
  serving_[c] = std::move(serving);
  return clique_nanos;
}

std::shared_ptr<const ShardedSnapshot> ShardedWriter::Apply(
    const UpdateBatch& batch, ThreadPool* helpers) {
  const uint32_t k = ledger_.layout()->num_shards();
  // Partition the batch by owning cell; S–S edges go to the overlay.
  const ShardLedger::Split split = ledger_.Apply(batch);
  for (const WeightUpdate& u : split.overlay) {
    overlay_->SetDirectWeight(u.edge, u.new_weight);
  }
  WriterCounters& counters = ledger_.counters();

  // Maintenance: repair (or rebuild) only the dirtied shards. The
  // STL-P/STL-L choice is made per SHARD batch — each shard amortizes
  // over its own share of the updates.
  for (uint32_t c = 0; c < k; ++c) {
    const UpdateBatch& updates = split.per_shard[c];
    if (updates.empty()) continue;
    counters.batch_counters.Count(states_[c].index->ApplyBatch(
        updates, ChooseStrategy(updates.size())));
  }

  // Publication: new views + cliques for dirty shards only, then one
  // overlay publish (incremental row repair when feasible), then the
  // snapshot. Clean shards' ShardServing pointers carry over unchanged,
  // and clean overlay rows are pointer-shared.
  Timer publish_timer;
  PoolExecutor executor(helpers);
  for (uint32_t c = 0; c < k; ++c) {
    if (split.per_shard[c].empty()) continue;
    PublishInfo info;
    overlay_nanos_.fetch_add(
        PublishShard(c, ledger_.shard_epochs()[c], &executor, &info),
        std::memory_order_relaxed);
    counters.label_pages_cloned.fetch_add(info.label_pages_cloned,
                                          std::memory_order_relaxed);
    counters.cow_bytes_cloned.fetch_add(info.label_bytes_cloned,
                                        std::memory_order_relaxed);
    counters.publish_bytes_deep_copied.fetch_add(info.deep_bytes_copied,
                                                 std::memory_order_relaxed);
  }
  // An injected kOverlayRepair fault makes repair "infeasible": the
  // publish takes the from-scratch rebuild instead.
  const bool allow_repair =
      faults_ == nullptr || !faults_->Fire(FaultSite::kOverlayRepair);
  Timer overlay_timer;
  OverlayPublishStats overlay_stats;
  auto table = overlay_->Publish(allow_repair, &overlay_stats);
  const uint64_t overlay_publish_nanos = overlay_timer.ElapsedNanos();
  overlay_nanos_.fetch_add(overlay_publish_nanos,
                           std::memory_order_relaxed);
  overlay_repair_nanos_.fetch_add(overlay_publish_nanos,
                                  std::memory_order_relaxed);
  overlay_republishes_.fetch_add(1, std::memory_order_relaxed);
  overlay_rows_repaired_.fetch_add(overlay_stats.rows_repaired,
                                   std::memory_order_relaxed);
  overlay_rows_total_.fetch_add(overlay_stats.rows_total,
                                std::memory_order_relaxed);
  overlay_full_rebuilds_.fetch_add(overlay_stats.full_rebuild ? 1 : 0,
                                   std::memory_order_relaxed);
  clique_entries_recomputed_.fetch_add(
      overlay_stats.clique_entries_recomputed, std::memory_order_relaxed);
  overlay_bytes_shared_.fetch_add(overlay_stats.bytes_shared,
                                  std::memory_order_relaxed);

  // Graph-side CoW accounting (chunks detached by this batch's writes).
  const CowChunkStats gc = ledger_.graph().cow_stats();
  counters.graph_chunks_cloned.fetch_add(
      gc.chunks_cloned - harvested_graph_chunks_,
      std::memory_order_relaxed);
  counters.cow_bytes_cloned.fetch_add(
      gc.bytes_cloned - harvested_graph_bytes_, std::memory_order_relaxed);
  harvested_graph_chunks_ = gc.chunks_cloned;
  harvested_graph_bytes_ = gc.bytes_cloned;

  auto snap = Snapshot(std::move(table));
  counters.publish_nanos.fetch_add(publish_timer.ElapsedNanos(),
                                   std::memory_order_relaxed);
  return snap;
}

void ShardedWriter::FillStats(const ShardedSnapshot& current,
                              EngineStats* s) const {
  std::vector<uint64_t> shard_epochs;
  shard_epochs.reserve(current.shards.size());
  for (const auto& serving : current.shards) {
    shard_epochs.push_back(serving->shard_epoch);
  }
  ledger_.FillStats(shard_epochs, s);
  s->backend = backend_;
  s->overlay_republishes =
      overlay_republishes_.load(std::memory_order_relaxed);
  s->overlay_rebuild_micros =
      static_cast<double>(overlay_nanos_.load(std::memory_order_relaxed)) /
      1e3;
  s->overlay_repair_micros =
      static_cast<double>(
          overlay_repair_nanos_.load(std::memory_order_relaxed)) /
      1e3;
  s->overlay_rows_repaired =
      overlay_rows_repaired_.load(std::memory_order_relaxed);
  s->overlay_rows_total = overlay_rows_total_.load(std::memory_order_relaxed);
  s->overlay_full_rebuilds =
      overlay_full_rebuilds_.load(std::memory_order_relaxed);
  s->clique_entries_recomputed =
      clique_entries_recomputed_.load(std::memory_order_relaxed);
  s->overlay_bytes_shared =
      overlay_bytes_shared_.load(std::memory_order_relaxed);
  // Honest resident memory of the serving state, wait-free: walk the
  // (immutable) snapshot, counting each physically shared block once —
  // the per-shard rows report each shard's unique bytes.
  std::unordered_set<const void*> seen;
  uint64_t bytes = 0;
  for (ShardStats& row : s->shards) {
    row.resident_bytes =
        current.shards[row.shard]->view->AddResidentBytes(&seen);
    bytes += row.resident_bytes;
  }
  if (current.overlay != nullptr) {
    // Chunk-level dedup: rows shared with other epochs' tables (or
    // already counted through this walk) are counted once.
    bytes += current.overlay->AddResidentBytes(&seen);
  }
  bytes += current.graph.AddResidentBytes(&seen);
  if (seen.insert(current.layout.get()).second) {
    bytes += current.layout->MemoryBytes();
  }
  s->resident_index_bytes = bytes;
}

void ShardedWriter::ResetStats() {
  ledger_.ResetStats();
  overlay_nanos_.store(0, std::memory_order_relaxed);
  overlay_repair_nanos_.store(0, std::memory_order_relaxed);
  overlay_republishes_.store(0, std::memory_order_relaxed);
  overlay_rows_repaired_.store(0, std::memory_order_relaxed);
  overlay_rows_total_.store(0, std::memory_order_relaxed);
  overlay_full_rebuilds_.store(0, std::memory_order_relaxed);
  clique_entries_recomputed_.store(0, std::memory_order_relaxed);
  overlay_bytes_shared_.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------- ShardedPolicy

ShardedPolicy::ShardedPolicy(Graph graph,
                             const HierarchyOptions& hierarchy_options,
                             const ShardedEngineOptions& options)
    : writer_(std::move(graph), hierarchy_options, options) {
  uint32_t max_width = 0;
  for (const ShardLayout::Shard& shard : writer_.layout().shards) {
    max_width = std::max(max_width,
                         static_cast<uint32_t>(shard.boundary_local.size()));
  }
  row_cache_.Init(options.boundary_row_cache_entries, max_width);
}

std::shared_ptr<const ShardedSnapshot> ShardedPolicy::PublishInitial(
    ThreadPool* helpers) {
  return writer_.PublishInitial(helpers);
}

Weight ShardedPolicy::ResolveOldWeight(EdgeId e) const {
  return writer_.EdgeWeight(e);
}

std::shared_ptr<const ShardedSnapshot> ShardedPolicy::ApplyBatch(
    const UpdateBatch& batch, ThreadPool* helpers) {
  return writer_.Apply(batch, helpers);
}

uint32_t ShardedPolicy::NumEdges() const { return writer_.NumEdges(); }

void ShardedPolicy::RouteSpan(
    const std::shared_ptr<const ShardedSnapshot>& snap,
    const QueryPair* queries, const uint32_t* idx, size_t count,
    Weight* out, StatusCode* codes, std::function<void()> done) {
  (void)codes;  // in-process routing cannot fail
  RouteLocalSpan(*snap, queries, idx, count, out, &row_cache_);
  done();
}

void ShardedPolicy::AugmentStats(const ShardedSnapshot& current,
                                 EngineStats* s) const {
  writer_.FillStats(current, s);
  s->boundary_row_cache_lookups = row_cache_.lookups();
  s->boundary_row_cache_hits = row_cache_.hits();
  s->boundary_row_cache_hit_rate =
      s->boundary_row_cache_lookups > 0
          ? static_cast<double>(s->boundary_row_cache_hits) /
                static_cast<double>(s->boundary_row_cache_lookups)
          : 0.0;
}

void ShardedPolicy::ResetStats() {
  writer_.ResetStats();
  row_cache_.ResetCounters();
}

}  // namespace stl
