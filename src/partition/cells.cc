#include "partition/cells.h"

#include <algorithm>

#include "partition/separator.h"
#include "util/logging.h"

namespace stl {

namespace {

/// Index of the region to cut next: the largest splittable one, ties
/// broken by smallest leading vertex so the result is deterministic.
/// Returns SIZE_MAX when no region can be cut further.
size_t PickRegion(const std::vector<std::vector<Vertex>>& regions,
                  const std::vector<bool>& uncuttable) {
  size_t best = SIZE_MAX;
  for (size_t i = 0; i < regions.size(); ++i) {
    if (uncuttable[i] || regions[i].size() < 2) continue;
    if (best == SIZE_MAX || regions[i].size() > regions[best].size() ||
        (regions[i].size() == regions[best].size() &&
         regions[i].front() < regions[best].front())) {
      best = i;
    }
  }
  return best;
}

}  // namespace

CellPartition PartitionCells(const Graph& g, uint32_t target_cells,
                             const HierarchyOptions& options) {
  STL_CHECK_GE(target_cells, 1u);
  CellPartition part;
  const uint32_t n = g.NumVertices();
  part.cell_of.assign(n, CellPartition::kBoundaryCell);
  if (n == 0) return part;

  // One random stream for the whole cut sequence.
  SeparatorFinder finder(g);
  Rng rng(options.seed);

  // Regions start as the connected components and stay connected: after
  // each cut, the sides are re-split into components before they become
  // regions again (removing a separator may shatter a side).
  auto [comp_of, num_comps] = ConnectedComponents(g);
  std::vector<std::vector<Vertex>> regions(num_comps);
  for (Vertex v = 0; v < n; ++v) regions[comp_of[v]].push_back(v);
  std::sort(regions.begin(), regions.end());
  std::vector<bool> uncuttable(regions.size(), false);

  while (regions.size() < target_cells) {
    const size_t pick = PickRegion(regions, uncuttable);
    if (pick == SIZE_MAX) break;  // nothing left to cut
    std::vector<Vertex> region = std::move(regions[pick]);
    regions.erase(regions.begin() + static_cast<ptrdiff_t>(pick));
    uncuttable.erase(uncuttable.begin() + static_cast<ptrdiff_t>(pick));

    SeparatorResult res = finder.Find(region, options.num_starts, &rng);
    if (res.separator.empty() || (res.left.empty() && res.right.empty())) {
      // Degenerate cut (e.g. a clique-ish region); keep as one cell.
      regions.push_back(std::move(region));
      uncuttable.push_back(true);
      continue;
    }
    part.boundary.insert(part.boundary.end(), res.separator.begin(),
                         res.separator.end());
    for (std::vector<Vertex>* side : {&res.left, &res.right}) {
      if (side->empty()) continue;
      for (auto& comp : finder.RegionComponents(*side)) {
        std::sort(comp.begin(), comp.end());
        regions.push_back(std::move(comp));
        uncuttable.push_back(false);
      }
    }
  }

  std::sort(regions.begin(), regions.end());
  part.num_cells = static_cast<uint32_t>(regions.size());
  part.cells = std::move(regions);
  std::sort(part.boundary.begin(), part.boundary.end());

  for (uint32_t c = 0; c < part.num_cells; ++c) {
    for (Vertex v : part.cells[c]) {
      STL_DCHECK(part.cell_of[v] == CellPartition::kBoundaryCell);
      part.cell_of[v] = c;
    }
  }
  // Totality: every vertex not in a cell must be a separator vertex.
  size_t assigned = 0;
  for (const auto& cell : part.cells) assigned += cell.size();
  STL_CHECK_EQ(assigned + part.boundary.size(), n);
  for (Vertex b : part.boundary) {
    STL_CHECK_EQ(part.cell_of[b], CellPartition::kBoundaryCell);
  }

  // S_i: boundary vertices with at least one edge into cell i.
  part.cell_boundary.assign(part.num_cells, {});
  for (Vertex b : part.boundary) {
    uint32_t last = CellPartition::kBoundaryCell;
    for (const Arc& a : g.ArcsOf(b)) {
      const uint32_t c = part.cell_of[a.head];
      if (c == CellPartition::kBoundaryCell || c == last) continue;
      // ArcsOf is sorted by head, not by cell, so dedupe exactly.
      if (std::find(part.cell_boundary[c].begin(),
                    part.cell_boundary[c].end(),
                    b) == part.cell_boundary[c].end()) {
        part.cell_boundary[c].push_back(b);
      }
      last = c;
    }
  }
  // Separator property: no edge may connect two different cells.
  for (const auto& edge : g.edges()) {
    const uint32_t cu = part.cell_of[edge.u];
    const uint32_t cv = part.cell_of[edge.v];
    STL_CHECK(cu == cv || cu == CellPartition::kBoundaryCell ||
              cv == CellPartition::kBoundaryCell)
        << "edge " << edge.u << "-" << edge.v << " crosses cells";
  }
  for (auto& sb : part.cell_boundary) std::sort(sb.begin(), sb.end());
  return part;
}

}  // namespace stl
