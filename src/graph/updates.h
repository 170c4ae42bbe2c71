// Edge-weight update primitives shared by all dynamic indexes.
//
// The paper considers two update kinds (Section 3): weight increases and
// weight decreases. Structural changes (edge/vertex insert/delete) are
// reduced to weight updates per Section 8: deletion = increase to
// "effectively infinite", insertion requires hierarchy repair and is out
// of scope for the maintenance algorithms benchmarked here.
#ifndef STL_GRAPH_UPDATES_H_
#define STL_GRAPH_UPDATES_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace stl {

/// One edge weight change. `old_weight` is the weight before the change;
/// callers fill it so batches can be reverted exactly.
struct WeightUpdate {
  EdgeId edge;
  Weight old_weight;
  Weight new_weight;

  bool IsIncrease() const { return new_weight > old_weight; }
  bool IsDecrease() const { return new_weight < old_weight; }
};

using UpdateBatch = std::vector<WeightUpdate>;

/// Applies all updates to the graph (sets new weights).
void ApplyBatch(Graph* g, const UpdateBatch& batch);

/// Returns the batch that undoes `batch` (old and new weights swapped,
/// order reversed so overlapping edges unwind correctly).
UpdateBatch InverseBatch(const UpdateBatch& batch);

/// Splits a batch into its decrease and increase parts (no-ops dropped).
std::pair<UpdateBatch, UpdateBatch> SplitByDirection(
    const UpdateBatch& batch);

}  // namespace stl

#endif  // STL_GRAPH_UPDATES_H_
