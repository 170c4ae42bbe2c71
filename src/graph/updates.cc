#include "graph/updates.h"

#include <algorithm>

namespace stl {

void ApplyBatch(Graph* g, const UpdateBatch& batch) {
  for (const WeightUpdate& u : batch) {
    g->SetEdgeWeight(u.edge, u.new_weight);
  }
}

UpdateBatch InverseBatch(const UpdateBatch& batch) {
  UpdateBatch inv;
  inv.reserve(batch.size());
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    inv.push_back(WeightUpdate{it->edge, it->new_weight, it->old_weight});
  }
  return inv;
}

std::pair<UpdateBatch, UpdateBatch> SplitByDirection(
    const UpdateBatch& batch) {
  UpdateBatch dec, inc;
  for (const WeightUpdate& u : batch) {
    if (u.IsDecrease()) {
      dec.push_back(u);
    } else if (u.IsIncrease()) {
      inc.push_back(u);
    }
  }
  return {std::move(dec), std::move(inc)};
}

}  // namespace stl
