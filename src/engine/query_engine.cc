#include "engine/query_engine.h"

#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace stl {

QueryEngine::QueryEngine(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         const EngineOptions& options)
    : options_(options), core_(&policy_, CoreOptionsOf(options)) {
  graph_ = std::make_unique<Graph>(std::move(graph));
  index_ = MakeDistanceIndex(options_.backend, graph_.get(),
                             hierarchy_options);
  capabilities_ = index_->capabilities();
  // Epoch 0's baseline: graph chunk clones before the first publish
  // (e.g. from the build itself) are not publish cost.
  harvested_graph_chunks_ = graph_->cow_stats().chunks_cloned;
  harvested_graph_bytes_ = graph_->cow_stats().bytes_cloned;
  core_.Start();  // publishes epoch 0, starts the writer
}

QueryEngine::~QueryEngine() = default;  // core_ drains first (last member)

// ------------------------------------------------------- the flat policy

void QueryEngine::Policy::PublishInitial() { engine->PublishSnapshot(0); }

Weight QueryEngine::Policy::ResolveOldWeight(EdgeId e) const {
  return engine->graph_->EdgeWeight(e);
}

void QueryEngine::Policy::ApplyBatch(const UpdateBatch& batch) {
  // Pick the per-batch STL-P/STL-L strategy (backends with a single
  // maintenance scheme ignore it), repair the master index, publish one
  // epoch.
  QueryEngine& e = *engine;
  ServingCounters& counters = e.core_.counters();
  counters.batch_counters.Count(
      e.index_->ApplyBatch(batch, ChooseStrategy(batch.size())));
  counters.updates_applied.fetch_add(batch.size(),
                                     std::memory_order_relaxed);
  const uint64_t epoch =
      counters.epochs_published.fetch_add(1, std::memory_order_relaxed) + 1;
  e.PublishSnapshot(epoch);
}

uint32_t QueryEngine::Policy::NumEdges() const {
  return engine->graph_->NumEdges();
}

void QueryEngine::Policy::RouteSpan(
    const std::shared_ptr<const EngineSnapshot>& snap,
    const QueryPair* queries, const uint32_t* idx, size_t count,
    Weight* out, StatusCode* codes, std::function<void()> done) const {
  (void)codes;  // in-process routing cannot fail; codes stay kOk
  for (size_t j = 0; j < count; ++j) {
    const QueryPair& q = queries[idx[j]];
    out[idx[j]] = snap->Query(q.first, q.second);
  }
  done();
}

void QueryEngine::Policy::AugmentStats(EngineStats* s) const {
  s->backend = engine->options_.backend;
  // Honest resident memory of the serving state, wait-free: the
  // current snapshot is immutable (for CoW backends, a structural copy
  // of the master as of its publish — they share every page the batch
  // did not dirty), so walking the snapshot counts each physical
  // page/chunk exactly once without touching — or locking against —
  // the writer. Pages the writer cloned since that publish appear at
  // the next publish.
  std::shared_ptr<const EngineSnapshot> snap = engine->CurrentSnapshot();
  std::unordered_set<const void*> seen;
  uint64_t bytes = snap->view->AddResidentBytes(&seen);
  bytes += snap->graph.AddResidentBytes(&seen);
  s->resident_index_bytes = bytes;
}

// --------------------------------------------------------- publication

void QueryEngine::PublishSnapshot(uint64_t epoch) {
  Timer publish_timer;
  ServingCounters& counters = core_.counters();
  auto snap = std::make_shared<EngineSnapshot>();
  snap->epoch = epoch;
  PublishInfo info;
  snap->view = index_->PublishView(&info);
  // Harvest the graph-side CoW clone counters accumulated since the last
  // publish; together with the backend's label-side report they are the
  // real byte cost of isolating the previous epoch from this one.
  const CowChunkStats gc = graph_->cow_stats();
  snap->label_pages_cloned = info.label_pages_cloned;
  snap->cow_bytes_cloned =
      info.label_bytes_cloned + (gc.bytes_cloned - harvested_graph_bytes_);
  counters.label_pages_cloned.fetch_add(info.label_pages_cloned,
                                        std::memory_order_relaxed);
  counters.graph_chunks_cloned.fetch_add(
      gc.chunks_cloned - harvested_graph_chunks_,
      std::memory_order_relaxed);
  counters.cow_bytes_cloned.fetch_add(snap->cow_bytes_cloned,
                                      std::memory_order_relaxed);
  harvested_graph_chunks_ = gc.chunks_cloned;
  harvested_graph_bytes_ = gc.bytes_cloned;

  // Structural share: O(chunks) pointer copies + refcount bumps, zero
  // entry copies. Untouched chunks stay physically shared with every
  // older epoch still alive.
  snap->graph = *graph_;
  counters.publish_bytes_deep_copied.fetch_add(info.deep_bytes_copied,
                                               std::memory_order_relaxed);
  counters.publish_nanos.fetch_add(publish_timer.ElapsedNanos(),
                                   std::memory_order_relaxed);
  core_.Publish(std::move(snap));
}

}  // namespace stl
