#include "engine/query_engine.h"

#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace stl {

FlatPolicy::FlatPolicy(Graph graph, const HierarchyOptions& hierarchy_options,
                       BackendKind backend)
    : backend_(backend), graph_(std::make_unique<Graph>(std::move(graph))) {
  index_ = MakeDistanceIndex(backend_, graph_.get(), hierarchy_options);
  capabilities_ = index_->capabilities();
  // Epoch 0's baseline: graph chunk clones before the first publish
  // (e.g. from the build itself) are not publish cost.
  harvested_graph_chunks_ = graph_->cow_stats().chunks_cloned;
  harvested_graph_bytes_ = graph_->cow_stats().bytes_cloned;
}

std::shared_ptr<const EngineSnapshot> FlatPolicy::PublishInitial(
    ThreadPool* /*helpers*/) {
  return Publish(0);
}

Weight FlatPolicy::ResolveOldWeight(EdgeId e) const {
  return graph_->EdgeWeight(e);
}

std::shared_ptr<const EngineSnapshot> FlatPolicy::ApplyBatch(
    const UpdateBatch& batch, ThreadPool* /*helpers*/) {
  // Pick the per-batch STL-P/STL-L strategy (backends with a single
  // maintenance scheme ignore it), repair the master index, publish one
  // epoch.
  counters_.batch_counters.Count(
      index_->ApplyBatch(batch, ChooseStrategy(batch.size())));
  counters_.updates_applied.fetch_add(batch.size(),
                                      std::memory_order_relaxed);
  counters_.epochs_published.fetch_add(1, std::memory_order_relaxed);
  return Publish(++epoch_);
}

uint32_t FlatPolicy::NumEdges() const { return graph_->NumEdges(); }

void FlatPolicy::RouteSpan(const std::shared_ptr<const EngineSnapshot>& snap,
                           const QueryPair* queries, const uint32_t* idx,
                           size_t count, Weight* out, StatusCode* codes,
                           std::function<void()> done) const {
  (void)codes;  // in-process routing cannot fail; codes stay kOk
  for (size_t j = 0; j < count; ++j) {
    const QueryPair& q = queries[idx[j]];
    out[idx[j]] = snap->Query(q.first, q.second);
  }
  done();
}

void FlatPolicy::AugmentStats(const EngineSnapshot& current,
                              EngineStats* s) const {
  counters_.FillStats(s);
  s->backend = backend_;
  // Honest resident memory of the serving state, wait-free: the
  // current snapshot is immutable (for CoW backends, a structural copy
  // of the master as of its publish — they share every page the batch
  // did not dirty), so walking the snapshot counts each physical
  // page/chunk exactly once without touching — or locking against —
  // the writer. Pages the writer cloned since that publish appear at
  // the next publish.
  std::unordered_set<const void*> seen;
  uint64_t bytes = current.view->AddResidentBytes(&seen);
  bytes += current.graph.AddResidentBytes(&seen);
  s->resident_index_bytes = bytes;
}

void FlatPolicy::ResetStats() { counters_.Reset(); }

std::shared_ptr<const EngineSnapshot> FlatPolicy::Publish(uint64_t epoch) {
  Timer publish_timer;
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
  counters_.label_pages_cloned.fetch_add(info.label_pages_cloned,
                                         std::memory_order_relaxed);
  counters_.graph_chunks_cloned.fetch_add(
      gc.chunks_cloned - harvested_graph_chunks_,
      std::memory_order_relaxed);
  counters_.cow_bytes_cloned.fetch_add(snap->cow_bytes_cloned,
                                       std::memory_order_relaxed);
  harvested_graph_chunks_ = gc.chunks_cloned;
  harvested_graph_bytes_ = gc.bytes_cloned;

  // Structural share: O(chunks) pointer copies + refcount bumps, zero
  // entry copies. Untouched chunks stay physically shared with every
  // older epoch still alive.
  snap->graph = *graph_;
  counters_.publish_bytes_deep_copied.fetch_add(info.deep_bytes_copied,
                                                std::memory_order_relaxed);
  counters_.publish_nanos.fetch_add(publish_timer.ElapsedNanos(),
                                    std::memory_order_relaxed);
  return snap;
}

}  // namespace stl
