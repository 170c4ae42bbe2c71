#include "core/stl_index.h"

#include <utility>

#include "util/timer.h"

namespace stl {

namespace {
constexpr uint32_t kIndexMagic = 0x53544c31;  // "STL1"
constexpr uint32_t kIndexVersion = 1;
}  // namespace

StlIndex StlIndex::Build(Graph* g, const HierarchyOptions& options) {
  STL_CHECK(g != nullptr);
  StlIndex index(g);
  Timer total;
  Timer phase;
  index.hierarchy_ =
      std::make_shared<const TreeHierarchy>(TreeHierarchy::Build(*g, options));
  index.build_info_.hierarchy_seconds = phase.ElapsedSeconds();
  phase.Restart();
  index.labels_ =
      BuildLabelling(*g, *index.hierarchy_, options.num_threads);
  index.build_info_.labelling_seconds = phase.ElapsedSeconds();
  index.build_info_.total_seconds = total.ElapsedSeconds();
  index.InitEngines();
  return index;
}

void StlIndex::InitEngines() {
  label_search_ = std::make_unique<LabelSearch>(g_, *hierarchy_, &labels_);
  pareto_search_ = std::make_unique<ParetoSearch>(g_, *hierarchy_, &labels_);
}

void StlIndex::ApplyUpdate(const WeightUpdate& update,
                           MaintenanceStrategy strategy) {
  ApplyBatch(UpdateBatch{update}, strategy);
}

void StlIndex::ApplyBatch(const UpdateBatch& batch,
                          MaintenanceStrategy strategy) {
  switch (strategy) {
    case MaintenanceStrategy::kLabelSearch:
      label_search_->ApplyBatch(batch);
      return;
    case MaintenanceStrategy::kParetoSearch:
      pareto_search_->ApplyBatch(batch);
      return;
  }
  STL_CHECK(false) << "unknown maintenance strategy";
}

UpdateBatch StlIndex::CloseRoad(EdgeId e, MaintenanceStrategy strategy) {
  UpdateBatch closure;
  const Weight w = g_->EdgeWeight(e);
  if (w < kMaxEdgeWeight) {
    closure.push_back(WeightUpdate{e, w, kMaxEdgeWeight});
    ApplyBatch(closure, strategy);
  }
  return closure;
}

UpdateBatch StlIndex::CloseIntersection(Vertex v,
                                        MaintenanceStrategy strategy) {
  UpdateBatch closure;
  for (const Arc& a : g_->ArcsOf(v)) {
    if (a.weight < kMaxEdgeWeight) {
      closure.push_back(WeightUpdate{a.edge, a.weight, kMaxEdgeWeight});
    }
  }
  ApplyBatch(closure, strategy);
  return closure;
}

void StlIndex::ReopenRoads(const UpdateBatch& closure,
                           MaintenanceStrategy strategy) {
  ApplyBatch(InverseBatch(closure), strategy);
}

MaintenanceStats StlIndex::MaintenanceStatsTotal() const {
  MaintenanceStats total = carried_stats_;
  total.Add(label_search_->stats());
  total.Add(pareto_search_->stats());
  return total;
}

Status StlIndex::Save(const std::string& path) const {
  BinaryWriter w;
  Status s = w.Open(path, kIndexMagic, kIndexVersion);
  if (s.ok()) s = w.WritePod(g_->NumVertices());
  if (s.ok()) s = w.WritePod(g_->NumEdges());
  if (s.ok()) s = hierarchy_->Serialize(&w);
  if (s.ok()) s = labels_.Serialize(&w);
  if (s.ok()) s = w.Close();
  return s;
}

Result<StlIndex> StlIndex::Load(Graph* g, const std::string& path) {
  STL_CHECK(g != nullptr);
  BinaryReader r;
  Status s = r.Open(path, kIndexMagic, kIndexVersion);
  if (!s.ok()) return s;
  uint32_t n = 0, m = 0;
  s = r.ReadPod(&n);
  if (s.ok()) s = r.ReadPod(&m);
  if (!s.ok()) return s;
  if (n != g->NumVertices() || m != g->NumEdges()) {
    return Status::InvalidArgument(
        "index file was built for a different graph");
  }
  StlIndex index(g);
  TreeHierarchy hierarchy;
  s = hierarchy.Deserialize(&r);
  if (s.ok()) s = index.labels_.Deserialize(&r);
  if (!s.ok()) return s;
  index.hierarchy_ =
      std::make_shared<const TreeHierarchy>(std::move(hierarchy));
  if (index.hierarchy_->NumVertices() != n ||
      index.labels_.NumVertices() != n) {
    return Status::Corruption("index vertex count mismatch");
  }
  index.InitEngines();
  return index;
}

}  // namespace stl
