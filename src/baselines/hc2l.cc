#include "baselines/hc2l.h"

#include <algorithm>

#include "partition/separator.h"
#include "util/min_heap.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/timer.h"

namespace stl {

namespace {

/// Weighted arc in the dynamic (shortcut-growing) adjacency.
struct WArc {
  Vertex head;
  Weight weight;
};

/// Builder state shared by the recursive bisection over the augmented
/// graph. Works on a mutable adjacency that grows boundary-clique
/// shortcuts as regions are cut.
class Hc2lBuilder {
 public:
  Hc2lBuilder(const Graph& g, const HierarchyOptions& options)
      : g_(g),
        options_(options),
        adj_(g.NumVertices()),
        region_stamp_(g.NumVertices(), 0),
        visit_stamp_(g.NumVertices(), 0),
        side_(g.NumVertices(), 0),
        dist_(g.NumVertices(), kInfDistance),
        dist_stamp_(g.NumVertices(), 0) {
    for (const Edge& e : g.edges()) {
      adj_[e.u].push_back(WArc{e.v, e.w});
      adj_[e.v].push_back(WArc{e.u, e.w});
    }
  }

  PartitionTree BuildTree() {
    std::vector<Vertex> all(g_.NumVertices());
    for (Vertex v = 0; v < g_.NumVertices(); ++v) all[v] = v;
    if (!all.empty()) tree_.root = Recurse(std::move(all), UINT32_MAX);
    return std::move(tree_);
  }

  /// Labels over the final augmented adjacency: per node, distances from
  /// each cut vertex over the node's (subtree) region. Shortcuts carry
  /// exact distances, so every label entry equals the global distance.
  Labelling BuildLabels(const TreeHierarchy& h) {
    Labelling labels = Labelling::AllocateFor(h);
    // Subtree regions via a postorder accumulation would need O(n log n)
    // memory; instead collect each node's region by walking its subtree.
    std::vector<uint32_t> sub_stack;
    std::vector<Vertex> region;
    for (uint32_t nid = 0; nid < h.NumNodes(); ++nid) {
      region.clear();
      sub_stack.push_back(nid);
      while (!sub_stack.empty()) {
        uint32_t id = sub_stack.back();
        sub_stack.pop_back();
        const auto& node = h.GetNode(id);
        for (Vertex v : h.VerticesOf(id)) region.push_back(v);
        if (node.left != TreeHierarchy::kNoNode) {
          sub_stack.push_back(node.left);
        }
        if (node.right != TreeHierarchy::kNoNode) {
          sub_stack.push_back(node.right);
        }
      }
      ++region_epoch_;
      for (Vertex v : region) region_stamp_[v] = region_epoch_;
      for (Vertex r : h.VerticesOf(nid)) {
        FillColumn(h, r, &labels);
      }
    }
    return labels;
  }

  uint64_t shortcuts_added() const { return shortcuts_added_; }

 private:
  bool InRegion(Vertex v) const { return region_stamp_[v] == region_epoch_; }

  void MarkRegion(const std::vector<Vertex>& region) {
    ++region_epoch_;
    for (Vertex v : region) region_stamp_[v] = region_epoch_;
  }

  /// BFS order of the (marked) region from start.
  void BfsOrder(Vertex start, std::vector<Vertex>* order) {
    ++visit_epoch_;
    order->clear();
    order->push_back(start);
    visit_stamp_[start] = visit_epoch_;
    for (size_t head = 0; head < order->size(); ++head) {
      Vertex v = (*order)[head];
      for (const WArc& a : adj_[v]) {
        if (InRegion(a.head) && visit_stamp_[a.head] != visit_epoch_) {
          visit_stamp_[a.head] = visit_epoch_;
          order->push_back(a.head);
        }
      }
    }
  }

  std::vector<std::vector<Vertex>> Components(
      const std::vector<Vertex>& region) {
    MarkRegion(region);
    std::vector<std::vector<Vertex>> comps;
    ++visit_epoch_;
    for (Vertex s : region) {
      if (visit_stamp_[s] == visit_epoch_) continue;
      comps.emplace_back();
      auto& comp = comps.back();
      comp.push_back(s);
      visit_stamp_[s] = visit_epoch_;
      for (size_t head = 0; head < comp.size(); ++head) {
        for (const WArc& a : adj_[comp[head]]) {
          if (InRegion(a.head) && visit_stamp_[a.head] != visit_epoch_) {
            visit_stamp_[a.head] = visit_epoch_;
            comp.push_back(a.head);
          }
        }
      }
    }
    return comps;
  }

  /// BFS-half split + greedy cover, like partition/separator.cc but over
  /// the augmented adjacency. Region must be marked and connected.
  bool TrySplit(Vertex start, size_t region_size,
                std::vector<Vertex>* separator, std::vector<Vertex>* left,
                std::vector<Vertex>* right) {
    std::vector<Vertex> order;
    BfsOrder(start, &order);
    if (order.size() != region_size) return false;
    const size_t half = (order.size() + 1) / 2;
    ++side_epoch_;
    for (size_t i = 0; i < order.size(); ++i) {
      side_[order[i]] = side_epoch_ * 2 + (i < half ? 0 : 1);
    }
    std::vector<std::pair<Vertex, Vertex>> cut;
    for (size_t i = 0; i < half; ++i) {
      Vertex v = order[i];
      for (const WArc& a : adj_[v]) {
        if (InRegion(a.head) && side_[a.head] == side_epoch_ * 2 + 1) {
          cut.emplace_back(v, a.head);
        }
      }
    }
    if (cut.empty()) return false;
    *separator = GreedyCutCover(cut);
    auto in_sep = [separator](Vertex v) {
      return std::binary_search(separator->begin(), separator->end(), v);
    };
    left->clear();
    right->clear();
    for (size_t i = 0; i < order.size(); ++i) {
      if (in_sep(order[i])) continue;
      (i < half ? left : right)->push_back(order[i]);
    }
    return true;
  }

  /// Restricted Dijkstra over the marked region; `settled_` collects the
  /// reached vertices so callers never scan the whole vertex set.
  void RegionDijkstra(Vertex s) {
    ++dist_epoch_;
    heap_.clear();
    settled_.clear();
    dist_[s] = 0;
    dist_stamp_[s] = dist_epoch_;
    heap_.Push(0, s);
    while (!heap_.empty()) {
      auto [d, v] = heap_.Pop();
      if (dist_stamp_[v] != dist_epoch_ || d != dist_[v]) continue;
      settled_.push_back(v);
      for (const WArc& a : adj_[v]) {
        if (!InRegion(a.head)) continue;
        Weight nd = SaturatingAdd(d, a.weight);
        if (dist_stamp_[a.head] != dist_epoch_ || nd < dist_[a.head]) {
          dist_[a.head] = nd;
          dist_stamp_[a.head] = dist_epoch_;
          heap_.Push(nd, a.head);
        }
      }
    }
  }

  Weight DistOf(Vertex v) const {
    return dist_stamp_[v] == dist_epoch_ ? dist_[v] : kInfDistance;
  }

  /// Adds / tightens an undirected shortcut (a, b, w).
  void AddShortcut(Vertex a, Vertex b, Weight w) {
    for (WArc& arc : adj_[a]) {
      if (arc.head == b) {
        if (w < arc.weight) {
          arc.weight = w;
          for (WArc& rev : adj_[b]) {
            if (rev.head == a) rev.weight = std::min(rev.weight, w);
          }
        }
        return;
      }
    }
    adj_[a].push_back(WArc{b, w});
    adj_[b].push_back(WArc{a, w});
    ++shortcuts_added_;
  }

  /// Distance-preserving augmentation: one boundary clique per *side*.
  /// `region` is the parent region H (marked), `separator` its cut.
  ///
  /// For x, y on the same side, any H-shortest path that leaves the side
  /// exits and re-enters through side vertices adjacent to the cut (the
  /// boundary), so a clique over the side's boundary weighted with d_H
  /// preserves all side-internal distances — including pairs in different
  /// components of the side, which reconnect through the clique. This is
  /// what keeps every region metrically equal to G and makes the
  /// LCA-node-only query (Equation 2) exact.
  void AugmentSides(const std::vector<Vertex>& separator,
                    const std::vector<Vertex>& left,
                    const std::vector<Vertex>& right) {
    auto in_sep = [&separator](Vertex v) {
      return std::binary_search(separator.begin(), separator.end(), v);
    };
    // side_[v] parity marks which side v is on (valid for this epoch).
    ++side_epoch_;
    for (Vertex v : left) side_[v] = side_epoch_ * 2;
    for (Vertex v : right) side_[v] = side_epoch_ * 2 + 1;
    std::vector<Vertex> boundary;
    {
      ++visit_epoch_;
      for (Vertex c : separator) {
        for (const WArc& a : adj_[c]) {
          if (InRegion(a.head) && !in_sep(a.head) &&
              visit_stamp_[a.head] != visit_epoch_) {
            visit_stamp_[a.head] = visit_epoch_;
            boundary.push_back(a.head);
          }
        }
      }
    }
    if (boundary.size() < 2) return;
    for (size_t i = 0; i < boundary.size(); ++i) {
      Vertex b = boundary[i];
      RegionDijkstra(b);  // over the whole region H, through-cut paths too
      for (size_t j = i + 1; j < boundary.size(); ++j) {
        Vertex b2 = boundary[j];
        if (side_[b2] != side_[b]) continue;  // cliques stay side-internal
        Weight d = DistOf(b2);
        if (d < kInfDistance) AddShortcut(b, b2, d);
      }
    }
  }

  uint32_t NewNode(uint32_t parent, std::vector<Vertex> vertices) {
    std::sort(vertices.begin(), vertices.end());
    uint32_t id = static_cast<uint32_t>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    tree_.nodes.back().parent = parent;
    tree_.nodes.back().vertices = std::move(vertices);
    return id;
  }

  uint32_t Recurse(std::vector<Vertex> region, uint32_t parent) {
    if (region.size() <= options_.leaf_size) {
      return NewNode(parent, std::move(region));
    }
    std::vector<Vertex> separator, left, right;
    auto comps = Components(region);
    if (comps.size() == 1) {
      // Multi-start split on the marked region.
      MarkRegion(region);
      std::vector<Vertex> bs, bl, br;
      size_t best = SIZE_MAX;
      Rng rng(options_.seed ^ (region.size() * 0x9e3779b9u));
      for (int attempt = 0; attempt < options_.num_starts; ++attempt) {
        Vertex start = region[rng.NextBounded(region.size())];
        if (attempt == 0) {
          // Peripheral start via double BFS.
          std::vector<Vertex> order;
          BfsOrder(region[0], &order);
          start = order.back();
        }
        if (TrySplit(start, region.size(), &bs, &bl, &br) &&
            bs.size() < best) {
          best = bs.size();
          separator = bs;
          left = bl;
          right = br;
        }
      }
      STL_CHECK(best != SIZE_MAX) << "no balanced cut found";
      AugmentSides(separator, left, right);
    } else {
      std::sort(comps.begin(), comps.end(),
                [](const auto& a, const auto& b) {
                  if (a.size() != b.size()) return a.size() > b.size();
                  return a.front() < b.front();
                });
      for (auto& comp : comps) {
        auto& side = left.size() <= right.size() ? left : right;
        side.insert(side.end(), comp.begin(), comp.end());
      }
      auto& bigger = left.size() >= right.size() ? left : right;
      separator.push_back(bigger.back());
      bigger.pop_back();
      std::sort(separator.begin(), separator.end());
    }
    if (separator.empty() || (left.empty() && right.empty())) {
      return NewNode(parent, std::move(region));
    }
    region.clear();
    region.shrink_to_fit();
    uint32_t id = NewNode(parent, std::move(separator));
    if (!left.empty()) {
      uint32_t child = Recurse(std::move(left), id);
      tree_.nodes[id].left = child;
    }
    if (!right.empty()) {
      uint32_t child = Recurse(std::move(right), id);
      tree_.nodes[id].right = child;
    }
    return id;
  }

  /// Fills label column tau(r) with region distances (= global distances
  /// thanks to the augmentation) for descendants of r.
  void FillColumn(const TreeHierarchy& h, Vertex r, Labelling* labels) {
    RegionDijkstra(r);
    const uint32_t col = h.Tau(r);
    for (Vertex v : settled_) {
      if (h.Tau(v) < col) continue;  // earlier cut members of this node
      labels->Set(v, col, dist_[v]);
    }
  }

  const Graph& g_;
  const HierarchyOptions& options_;
  std::vector<std::vector<WArc>> adj_;
  PartitionTree tree_;
  std::vector<uint32_t> region_stamp_;
  uint32_t region_epoch_ = 0;
  std::vector<uint32_t> visit_stamp_;
  uint32_t visit_epoch_ = 0;
  std::vector<uint64_t> side_;
  uint64_t side_epoch_ = 0;
  std::vector<Weight> dist_;
  std::vector<uint32_t> dist_stamp_;
  uint32_t dist_epoch_ = 0;
  std::vector<Vertex> settled_;
  MinHeap<Weight, Vertex> heap_;
  uint64_t shortcuts_added_ = 0;
};

}  // namespace

Hc2lIndex Hc2lIndex::Build(const Graph& g, const HierarchyOptions& options) {
  Timer timer;
  Hc2lIndex index;
  Hc2lBuilder builder(g, options);
  PartitionTree tree = builder.BuildTree();
  index.hierarchy_ = TreeHierarchy::FromPartitionTree(g, tree);
  index.labels_ = builder.BuildLabels(index.hierarchy_);
  index.shortcuts_added_ = builder.shortcuts_added();
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

Weight Hc2lIndex::Query(Vertex s, Vertex t) const {
  if (s == t) return 0;
  const auto& node = hierarchy_.GetNode(hierarchy_.LcaNode(s, t));
  const uint32_t lo = node.cum_vertices - node.num_vertices;
  const uint32_t hi =
      std::min(node.cum_vertices,
               std::min(hierarchy_.Tau(s), hierarchy_.Tau(t)) + 1);
  if (hi <= lo) return kInfDistance;
  const Weight* ls = labels_.Data(s);
  const Weight* lt = labels_.Data(t);
  const Weight best = MinPlusReduce(ls + lo, lt + lo, hi - lo);
  return best >= kInfDistance ? kInfDistance : best;
}

}  // namespace stl
