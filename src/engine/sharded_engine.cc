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

/// The storage of one span's in-process routing: the per-span row
/// memo and the inner-vector memo. A reader thread keeps one and reuses
/// its row and inner-vector buffers across spans.
struct LocalScratch {
  // (vertex, shard) -> index into rows. Cleared per span.
  std::unordered_map<uint64_t, uint32_t> index;
  // Row buffers; the first `used` belong to the current span. A deque:
  // references stay valid across later growth.
  std::deque<std::vector<Weight>> rows;
  uint32_t used = 0;
  InnerVectorMemo memo;
};

/// The in-process pieces of RouteShardedPair: boundary rows computed
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

  /// Gives back what an unusually large span grew: a reader thread keeps
  /// at most kKeptRows row buffers between spans.
  ~LocalPieces() {
    if (scratch_->rows.size() > kKeptRows) {
      scratch_->rows.resize(kKeptRows);
      scratch_->index = {};
    }
  }

  const std::vector<Weight>* Row(uint32_t shard, Vertex v) {
    const uint64_t key = PairKey(v, shard);
    auto [it, fresh] = scratch_->index.try_emplace(key, scratch_->used);
    if (!fresh) return &scratch_->rows[it->second];
    if (scratch_->used == scratch_->rows.size()) scratch_->rows.emplace_back();
    std::vector<Weight>& row = scratch_->rows[scratch_->used++];
    const ShardServing& serving = *snap_.shards[shard];
    row.resize(snap_.layout->shards[shard].boundary_local.size());
    const uint32_t width = static_cast<uint32_t>(row.size());
    if (!cache_->Lookup(key, serving.shard_epoch, width, row.data())) {
      FillShardBoundaryRow(*snap_.layout, shard, *serving.view, v, &row);
      cache_->Insert(key, serving.shard_epoch, width, row.data());
    }
    return &row;
  }

  bool Point(uint32_t shard, Vertex s, Vertex t, Weight* d) {
    const ShardLayout& lay = *snap_.layout;
    *d = snap_.shards[shard]->view->Query(lay.local_of_vertex[s],
                                          lay.local_of_vertex[t]);
    return true;
  }

 private:
  static constexpr size_t kKeptRows = 128;

  const ShardedSnapshot& snap_;
  SlotCache* cache_;
  LocalScratch* scratch_;
};

}  // namespace

// ----------------------------------------------------- ShardedSnapshot

Weight ShardedSnapshot::Query(Vertex s, Vertex t) const {
  // Uncached on purpose: this is the reference implementation that
  // tests, audits and external snapshot holders run against.
  SlotCache uncached;  // never armed
  LocalScratch scratch;
  LocalPieces pieces(*this, &uncached, &scratch);
  StatusCode code = StatusCode::kOk;  // in-process pieces never fail
  return RouteShardedPair(*this, s, t, &pieces, /*memo=*/nullptr, &code);
}

uint64_t ShardedBatchGrouping::BatchSortKey(const ShardedSnapshot& snap,
                                            const QueryPair& q) {
  const ShardLayout& lay = *snap.layout;
  const uint64_t cs = lay.shard_of_vertex[q.first] & 0xffff;
  const uint64_t ct = lay.shard_of_vertex[q.second] & 0xffff;
  return (cs << 48) | (ct << 32) | q.second;
}

const Weight* InnerVectorMemo::Get(const ShardedSnapshot& snap, uint32_t cs,
                                   uint32_t ct, Vertex t, const Weight* dt) {
  if (cs_ != cs || ct_ != ct || t_ != t) {
    cs_ = cs;
    ct_ = ct;
    t_ = t;
    const ShardLayout::Shard& sshard = snap.layout->shards[cs];
    inner_.resize(sshard.boundary_pos.size());
    // The packed-row batch entry point: one SIMD min-plus per b1 row of
    // shard ct's packed block (index/overlay.h).
    snap.overlay->MinPlusRowsInto(
        ct, sshard.boundary_pos.data(),
        static_cast<uint32_t>(sshard.boundary_pos.size()), dt,
        inner_.data());
  }
  return inner_.data();
}

// ------------------------------------------------------- ShardedWriter

ShardedWriter::ShardedWriter(Graph graph,
                             const HierarchyOptions& hierarchy_options,
                             const ShardedEngineOptions& options)
    : backend_(options.backend),
      faults_(options.serving.fault_injector),
      graph_(std::make_unique<Graph>(std::move(graph))) {
  STL_CHECK_GE(options.target_shards, 1u);

  const CellPartition cells =
      PartitionCells(*graph_, options.target_shards, hierarchy_options);
  ShardPlan plan = BuildShardPlan(*graph_, cells);
  layout_ = std::make_shared<const ShardLayout>(std::move(plan.layout));

  const uint32_t k = layout_->num_shards();
  states_.resize(k);
  for (uint32_t c = 0; c < k; ++c) {
    states_[c].graph =
        std::make_unique<Graph>(std::move(plan.shard_graphs[c]));
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
  overlay_ = std::make_unique<BoundaryOverlay>(layout_.get(), *graph_);
  shard_updates_.reset(new std::atomic<uint64_t>[std::max(k, 1u)]);
  for (uint32_t c = 0; c < k; ++c) shard_updates_[c].store(0);
  serving_.resize(k);

  // Epoch 0 baseline: clones from construction are not publish cost.
  harvested_graph_chunks_ = graph_->cow_stats().chunks_cloned;
  harvested_graph_bytes_ = graph_->cow_stats().bytes_cloned;
}

std::shared_ptr<const ShardedSnapshot> ShardedWriter::PublishInitial(
    ThreadPool* helpers) {
  PoolExecutor executor(helpers);
  for (uint32_t c = 0; c < layout_->num_shards(); ++c) {
    // Epoch 0: construction cost, so neither the CoW nor the clique
    // time is counted as publish cost.
    PublishInfo info;
    PublishShard(c, 0, &executor, &info);
  }
  return Snapshot(0, overlay_->Publish());
}

std::shared_ptr<const ShardedSnapshot> ShardedWriter::Snapshot(
    uint64_t epoch, std::shared_ptr<const OverlayTable> overlay) const {
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->epoch = epoch;
  snap->graph = *graph_;  // structural chunk share
  snap->layout = layout_;
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
  const uint32_t k = layout_->num_shards();
  // Partition the batch by owning cell; S–S edges go to the overlay.
  std::vector<UpdateBatch> per_shard(k);
  for (const WeightUpdate& u : batch) {
    graph_->SetEdgeWeight(u.edge, u.new_weight);
    const uint32_t owner = layout_->shard_of_edge[u.edge];
    const uint32_t slot = layout_->local_of_edge[u.edge];
    if (owner == ShardLayout::kOverlayShard) {
      overlay_->SetDirectWeight(slot, u.new_weight);
    } else {
      per_shard[owner].push_back(
          WeightUpdate{slot, states_[owner].graph->EdgeWeight(slot),
                       u.new_weight});
    }
  }

  // Maintenance: repair (or rebuild) only the dirtied shards. The
  // STL-P/STL-L choice is made per SHARD batch — each shard amortizes
  // over its own share of the updates.
  for (uint32_t c = 0; c < k; ++c) {
    if (per_shard[c].empty()) continue;
    counters_.batch_counters.Count(states_[c].index->ApplyBatch(
        per_shard[c], ChooseStrategy(per_shard[c].size())));
    shard_updates_[c].fetch_add(per_shard[c].size(),
                                std::memory_order_relaxed);
  }
  counters_.updates_applied.fetch_add(batch.size(),
                                      std::memory_order_relaxed);

  // Publication: new views + cliques for dirty shards only, then one
  // overlay publish (incremental row repair when feasible), then the
  // snapshot. Clean shards' ShardServing pointers carry over unchanged,
  // and clean overlay rows are pointer-shared.
  Timer publish_timer;
  PoolExecutor executor(helpers);
  for (uint32_t c = 0; c < k; ++c) {
    if (per_shard[c].empty()) continue;
    PublishInfo info;
    overlay_nanos_.fetch_add(
        PublishShard(c, ++states_[c].shard_epoch, &executor, &info),
        std::memory_order_relaxed);
    counters_.label_pages_cloned.fetch_add(info.label_pages_cloned,
                                           std::memory_order_relaxed);
    counters_.cow_bytes_cloned.fetch_add(info.label_bytes_cloned,
                                         std::memory_order_relaxed);
    counters_.publish_bytes_deep_copied.fetch_add(
        info.deep_bytes_copied, std::memory_order_relaxed);
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
  const CowChunkStats gc = graph_->cow_stats();
  counters_.graph_chunks_cloned.fetch_add(
      gc.chunks_cloned - harvested_graph_chunks_,
      std::memory_order_relaxed);
  counters_.cow_bytes_cloned.fetch_add(
      gc.bytes_cloned - harvested_graph_bytes_, std::memory_order_relaxed);
  harvested_graph_chunks_ = gc.chunks_cloned;
  harvested_graph_bytes_ = gc.bytes_cloned;

  auto snap = Snapshot(
      counters_.epochs_published.fetch_add(1, std::memory_order_relaxed) + 1,
      std::move(table));
  counters_.publish_nanos.fetch_add(publish_timer.ElapsedNanos(),
                                    std::memory_order_relaxed);
  return snap;
}

void ShardedWriter::FillStats(const ShardedSnapshot& current,
                              EngineStats* s) const {
  counters_.FillStats(s);
  s->backend = backend_;
  s->num_shards = layout_->num_shards();
  s->boundary_vertices = layout_->num_boundary();
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
  s->shards.reserve(layout_->num_shards());
  for (uint32_t c = 0; c < layout_->num_shards(); ++c) {
    ShardStats row;
    row.shard = c;
    row.cell_vertices = layout_->shards[c].num_cell_vertices;
    row.boundary_vertices =
        static_cast<uint32_t>(layout_->shards[c].boundary_local.size());
    row.subgraph_edges =
        static_cast<uint32_t>(layout_->shards[c].edge_to_global.size());
    row.shard_epoch = current.shards[c]->shard_epoch;
    row.updates_applied = shard_updates_[c].load(std::memory_order_relaxed);
    row.resident_bytes = current.shards[c]->view->AddResidentBytes(&seen);
    bytes += row.resident_bytes;
    s->shards.push_back(row);
  }
  if (current.overlay != nullptr) {
    // Chunk-level dedup: rows shared with other epochs' tables (or
    // already counted through this walk) are counted once.
    bytes += current.overlay->AddResidentBytes(&seen);
  }
  bytes += current.graph.AddResidentBytes(&seen);
  if (seen.insert(layout_.get()).second) bytes += layout_->MemoryBytes();
  s->resident_index_bytes = bytes;
}

void ShardedWriter::ResetStats() {
  counters_.Reset();
  overlay_nanos_.store(0, std::memory_order_relaxed);
  overlay_repair_nanos_.store(0, std::memory_order_relaxed);
  overlay_republishes_.store(0, std::memory_order_relaxed);
  overlay_rows_repaired_.store(0, std::memory_order_relaxed);
  overlay_rows_total_.store(0, std::memory_order_relaxed);
  overlay_full_rebuilds_.store(0, std::memory_order_relaxed);
  clique_entries_recomputed_.store(0, std::memory_order_relaxed);
  overlay_bytes_shared_.store(0, std::memory_order_relaxed);
  for (uint32_t c = 0; c < layout_->num_shards(); ++c) {
    shard_updates_[c].store(0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------- ShardedEngine

ShardedEngine::ShardedEngine(Graph graph,
                             const HierarchyOptions& hierarchy_options,
                             const ShardedEngineOptions& options)
    : writer_(std::move(graph), hierarchy_options, options),
      core_(&policy_, CoreOptionsOf(options)) {
  uint32_t max_width = 0;
  for (const ShardLayout::Shard& shard : writer_.layout().shards) {
    max_width = std::max(max_width,
                         static_cast<uint32_t>(shard.boundary_local.size()));
  }
  row_cache_.Init(options.boundary_row_cache_entries, max_width);
  core_.Start();  // publishes epoch 0, starts the writer
}

ShardedEngine::~ShardedEngine() = default;  // core_ drains first

// ---------------------------------------------------- the sharded policy

void ShardedEngine::Policy::PublishInitial() {
  engine->core_.Publish(engine->writer_.PublishInitial(engine->core_.pool()));
}

Weight ShardedEngine::Policy::ResolveOldWeight(EdgeId e) const {
  return engine->writer_.EdgeWeight(e);
}

void ShardedEngine::Policy::ApplyBatch(const UpdateBatch& batch) {
  engine->core_.Publish(engine->writer_.Apply(batch, engine->core_.pool()));
}

uint32_t ShardedEngine::Policy::NumEdges() const {
  return engine->writer_.NumEdges();
}

void ShardedEngine::Policy::RouteSpan(
    const std::shared_ptr<const ShardedSnapshot>& snap,
    const QueryPair* queries, const uint32_t* idx, size_t count,
    Weight* out, StatusCode* codes, std::function<void()> done) const {
  // Per reader thread; a span never nests inside another on one thread.
  thread_local LocalScratch scratch;
  LocalPieces pieces(*snap, &engine->row_cache_, &scratch);
  RouteShardedSpan(*snap, queries, idx, count, out, codes, &pieces,
                   &scratch.memo);
  done();
}

void ShardedEngine::Policy::AugmentStats(EngineStats* s) const {
  const ShardedEngine& e = *engine;
  e.writer_.FillStats(*e.CurrentSnapshot(), s);
  s->boundary_row_cache_lookups = e.row_cache_.lookups();
  s->boundary_row_cache_hits = e.row_cache_.hits();
  s->boundary_row_cache_hit_rate =
      s->boundary_row_cache_lookups > 0
          ? static_cast<double>(s->boundary_row_cache_hits) /
                static_cast<double>(s->boundary_row_cache_lookups)
          : 0.0;
}

// ------------------------------------------------- submission forwards

std::future<ShardedQueryResult> ShardedEngine::Submit(QueryPair query,
                                                      Deadline deadline) {
  return core_.Submit(query, deadline);
}

ShardedEngine::Ticket ShardedEngine::SubmitBatch(
    const std::vector<QueryPair>& queries, Deadline deadline) {
  return core_.SubmitBatch(queries, deadline);
}

void ShardedEngine::SubmitTagged(QueryPair query, uint64_t tag,
                                 CompletionSink* sink, Deadline deadline) {
  core_.SubmitTagged(query, tag, sink, deadline);
}

ShardedEngine::Ticket ShardedEngine::SubmitBatchTagged(
    const std::vector<QueryPair>& queries,
    const std::vector<uint64_t>& tags, CompletionSink* sink,
    Deadline deadline) {
  return core_.SubmitBatchTagged(queries, tags, sink, deadline);
}

void ShardedEngine::EnqueueUpdate(const WeightUpdate& update) {
  core_.EnqueueUpdate(update.edge, update.new_weight);
}

void ShardedEngine::EnqueueUpdate(EdgeId edge, Weight new_weight) {
  core_.EnqueueUpdate(edge, new_weight);
}

void ShardedEngine::EnqueueUpdates(const std::vector<WeightUpdate>& updates) {
  core_.EnqueueUpdates(updates);
}

void ShardedEngine::Flush() { core_.Flush(); }

std::shared_ptr<const ShardedSnapshot> ShardedEngine::CurrentSnapshot()
    const {
  return core_.CurrentSnapshot();
}

int ShardedEngine::num_query_threads() const {
  return core_.num_query_threads();
}

EngineStats ShardedEngine::Stats() const { return core_.Stats(); }

void ShardedEngine::ResetStats() {
  core_.ResetStats();
  // The shard epochs keep snapshot lineage; they do not reset
  // (mirroring the global epoch allocator).
  writer_.ResetStats();
  row_cache_.ResetCounters();
}

}  // namespace stl
