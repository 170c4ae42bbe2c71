// The four DistanceIndex backend adapters. Each wraps one index family
// behind the capability surface of index/distance_index.h:
//
//   StlBackend  — incremental (STL-P / STL-L), CoW snapshots: publishing
//                 shares label pages and the stable hierarchy with the
//                 master, so PublishView is O(touched pages).
//   ChBackend   — incremental (DCH weight propagation). The CH structure
//                 mutates in place, so every publish deep-copies it.
//   H2hBackend  — incremental (IncH2H label repair on top of DCH); deep
//                 copy per publish, like CH.
//   Hc2lBackend — static: ApplyBatch writes the new weights into the
//                 graph and rebuilds the whole index into a fresh
//                 immutable object, so PublishView just shares a
//                 pointer (old epochs keep theirs).
#include "index/distance_index.h"

#include <utility>

#include "baselines/ch.h"
#include "baselines/h2h.h"
#include "baselines/hc2l.h"
#include "util/logging.h"

namespace stl {

const char* BackendName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kStl:
      return "stl";
    case BackendKind::kCh:
      return "ch";
    case BackendKind::kH2h:
      return "h2h";
    case BackendKind::kHc2l:
      return "hc2l";
  }
  return "unknown";
}

namespace {

// ------------------------------------------------------------------ STL

class StlView : public IndexView {
 public:
  StlView(std::shared_ptr<const TreeHierarchy> hierarchy, Labelling labels)
      : hierarchy_(std::move(hierarchy)), labels_(std::move(labels)) {}

  Weight Query(Vertex s, Vertex t) const override {
    return QueryDistance(*hierarchy_, labels_, s, t);
  }

  std::vector<Vertex> QueryShortestPath(const Graph& g, Vertex s,
                                        Vertex t) const override {
    return QueryPath(g, *hierarchy_, labels_, s, t);
  }

  uint64_t AddResidentBytes(
      std::unordered_set<const void*>* seen) const override {
    uint64_t bytes = labels_.AddResidentBytes(seen);
    if (seen->insert(hierarchy_.get()).second) {
      bytes += hierarchy_->MemoryBytes();
    }
    return bytes;
  }

  const Labelling* StlLabels() const override { return &labels_; }
  const TreeHierarchy* StlHierarchy() const override {
    return hierarchy_.get();
  }

 private:
  std::shared_ptr<const TreeHierarchy> hierarchy_;
  Labelling labels_;  // page-shared with the master unless flat-published
};

class StlBackend : public DistanceIndex {
 public:
  StlBackend(Graph* g, const HierarchyOptions& options)
      : index_(StlIndex::Build(g, options)) {
    // Publish baseline: page clones from the build itself (freshly
    // allocated, unshared pages) are not publish cost.
    const CowChunkStats lc = index_.labels().cow_stats();
    harvested_pages_ = lc.chunks_cloned;
    harvested_bytes_ = lc.bytes_cloned;
  }

  BackendKind kind() const override { return BackendKind::kStl; }

  BackendCapabilities capabilities() const override {
    return {.incremental_updates = true,
            .path_queries = true,
            .cow_snapshots = true,
            .fast_point_queries = true};
  }

  BatchExecution ApplyBatch(const UpdateBatch& batch,
                            MaintenanceStrategy strategy) override {
    index_.ApplyBatch(batch, strategy);
    return strategy == MaintenanceStrategy::kParetoSearch
               ? BatchExecution::kParetoSearch
               : BatchExecution::kLabelSearch;
  }

  std::shared_ptr<const IndexView> PublishView(PublishInfo* info) override {
    // Harvest the CoW clone counters accumulated since the last publish:
    // pages detached by this batch's maintenance are the real byte cost
    // of isolating the previous epoch from this one.
    const CowChunkStats lc = index_.labels().cow_stats();
    info->label_pages_cloned = lc.chunks_cloned - harvested_pages_;
    info->label_bytes_cloned = lc.bytes_cloned - harvested_bytes_;
    harvested_pages_ = lc.chunks_cloned;
    harvested_bytes_ = lc.bytes_cloned;
    // Structural share: O(pages) pointer copies + refcount bumps, zero
    // entry copies.
    return std::make_shared<StlView>(index_.shared_hierarchy(),
                                     index_.labels());
  }

  uint64_t MemoryBytes() const override { return index_.MemoryBytes(); }
  double BuildSeconds() const override {
    return index_.build_info().total_seconds;
  }
  const TreeHierarchy* StlHierarchy() const override {
    return &index_.hierarchy();
  }

 private:
  StlIndex index_;  // its hierarchy object is shared by every epoch
  uint64_t harvested_pages_ = 0;
  uint64_t harvested_bytes_ = 0;
};

// ------------------------------------------------------------------- CH

class ChView : public IndexView {
 public:
  explicit ChView(std::shared_ptr<const ChIndex> ch) : ch_(std::move(ch)) {}

  Weight Query(Vertex s, Vertex t) const override {
    // Per-reader-thread scratch (the contract of ChIndex::Query): the
    // stamp discipline makes a context safe to reuse across views and
    // epochs of the same vertex count.
    static thread_local ChQueryContext ctx;
    return ch_->Query(s, t, &ctx);
  }

  uint64_t AddResidentBytes(
      std::unordered_set<const void*>* seen) const override {
    return seen->insert(ch_.get()).second ? ch_->MemoryBytes() : 0;
  }

 private:
  std::shared_ptr<const ChIndex> ch_;
};

class ChBackend : public DistanceIndex {
 public:
  explicit ChBackend(Graph* g) : ch_(ChIndex::Build(g)) {}

  BackendKind kind() const override { return BackendKind::kCh; }

  BackendCapabilities capabilities() const override {
    return {.incremental_updates = true,
            .path_queries = false,
            .cow_snapshots = false};
  }

  BatchExecution ApplyBatch(const UpdateBatch& batch,
                            MaintenanceStrategy /*strategy*/) override {
    for (const WeightUpdate& u : batch) ch_.ApplyUpdate(u);
    return BatchExecution::kIncremental;
  }

  std::shared_ptr<const IndexView> PublishView(PublishInfo* info) override {
    // The CH edge weights mutate in place during maintenance, so every
    // epoch needs its own detached copy — of the query state only
    // (PublishCopy sheds support lists and scratch).
    auto copy = std::make_shared<const ChIndex>(ch_.PublishCopy());
    info->deep_bytes_copied = copy->MemoryBytes();
    return std::make_shared<ChView>(std::move(copy));
  }

  uint64_t MemoryBytes() const override { return ch_.MemoryBytes(); }
  double BuildSeconds() const override { return ch_.build_seconds(); }

 private:
  ChIndex ch_;
};

// ------------------------------------------------------------------ H2H

class H2hView : public IndexView {
 public:
  explicit H2hView(std::shared_ptr<const H2hIndex> h2h)
      : h2h_(std::move(h2h)) {}

  Weight Query(Vertex s, Vertex t) const override {
    return h2h_->Query(s, t);
  }

  uint64_t AddResidentBytes(
      std::unordered_set<const void*>* seen) const override {
    return seen->insert(h2h_.get()).second
               ? h2h_->MemoryBytes(H2hIndex::Maintenance::kIncH2H)
               : 0;
  }

 private:
  std::shared_ptr<const H2hIndex> h2h_;
};

class H2hBackend : public DistanceIndex {
 public:
  explicit H2hBackend(Graph* g) : h2h_(H2hIndex::Build(g)) {}

  BackendKind kind() const override { return BackendKind::kH2h; }

  BackendCapabilities capabilities() const override {
    return {.incremental_updates = true,
            .path_queries = false,
            .cow_snapshots = false,
            .fast_point_queries = true};
  }

  BatchExecution ApplyBatch(const UpdateBatch& batch,
                            MaintenanceStrategy /*strategy*/) override {
    for (const WeightUpdate& u : batch) {
      h2h_.ApplyUpdate(u, H2hIndex::Maintenance::kIncH2H);
    }
    return BatchExecution::kIncremental;
  }

  std::shared_ptr<const IndexView> PublishView(PublishInfo* info) override {
    // Query state only (labels + LCA tables); the embedded CH index and
    // the maintenance scratch stay with the master.
    auto copy = std::make_shared<const H2hIndex>(h2h_.PublishCopy());
    info->deep_bytes_copied =
        copy->MemoryBytes(H2hIndex::Maintenance::kIncH2H);
    return std::make_shared<H2hView>(std::move(copy));
  }

  uint64_t MemoryBytes() const override {
    return h2h_.MemoryBytes(H2hIndex::Maintenance::kIncH2H);
  }
  double BuildSeconds() const override { return h2h_.build_seconds(); }

 private:
  H2hIndex h2h_;
};

// ----------------------------------------------------------------- HC2L

class Hc2lView : public IndexView {
 public:
  explicit Hc2lView(std::shared_ptr<const Hc2lIndex> index)
      : index_(std::move(index)) {}

  Weight Query(Vertex s, Vertex t) const override {
    return index_->Query(s, t);
  }

  uint64_t AddResidentBytes(
      std::unordered_set<const void*>* seen) const override {
    return seen->insert(index_.get()).second ? index_->MemoryBytes() : 0;
  }

 private:
  std::shared_ptr<const Hc2lIndex> index_;
};

class Hc2lBackend : public DistanceIndex {
 public:
  Hc2lBackend(Graph* g, const HierarchyOptions& options)
      : g_(g),
        options_(options),
        index_(std::make_shared<const Hc2lIndex>(
            Hc2lIndex::Build(*g, options))),
        build_seconds_(index_->build_seconds()) {}

  BackendKind kind() const override { return BackendKind::kHc2l; }

  BackendCapabilities capabilities() const override {
    return {.incremental_updates = false,
            .path_queries = false,
            .cow_snapshots = false,
            .fast_point_queries = true};
  }

  BatchExecution ApplyBatch(const UpdateBatch& batch,
                            MaintenanceStrategy /*strategy*/) override {
    // Static index: write the new weights into the master graph, then
    // rebuild into a fresh immutable object. Epochs already published
    // keep their shared_ptr to the old index untouched.
    for (const WeightUpdate& u : batch) {
      g_->SetEdgeWeight(u.edge, u.new_weight);
    }
    index_ = std::make_shared<const Hc2lIndex>(
        Hc2lIndex::Build(*g_, options_));
    return BatchExecution::kFullRebuild;
  }

  std::shared_ptr<const IndexView> PublishView(
      PublishInfo* /*info*/) override {
    // The rebuild already paid the copy cost; publication is a pointer
    // share.
    return std::make_shared<Hc2lView>(index_);
  }

  uint64_t MemoryBytes() const override { return index_->MemoryBytes(); }
  double BuildSeconds() const override { return build_seconds_; }

 private:
  Graph* g_;
  const HierarchyOptions options_;
  std::shared_ptr<const Hc2lIndex> index_;
  double build_seconds_ = 0;
};

}  // namespace

std::unique_ptr<DistanceIndex> MakeDistanceIndex(
    BackendKind kind, Graph* g, const HierarchyOptions& options) {
  STL_CHECK(g != nullptr);
  switch (kind) {
    case BackendKind::kStl:
      return std::make_unique<StlBackend>(g, options);
    case BackendKind::kCh:
      return std::make_unique<ChBackend>(g);
    case BackendKind::kH2h:
      return std::make_unique<H2hBackend>(g);
    case BackendKind::kHc2l:
      return std::make_unique<Hc2lBackend>(g, options);
  }
  STL_CHECK(false) << "unknown backend kind";
  return nullptr;
}

}  // namespace stl
