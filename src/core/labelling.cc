#include "core/labelling.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "util/min_heap.h"

namespace stl {

std::shared_ptr<const Labelling::Layout> Labelling::BuildLayout(
    std::vector<uint64_t> offset) {
  auto layout = std::make_shared<Layout>();
  const size_t n = offset.size() - 1;
  layout->page_of.resize(n);
  layout->slot_of.resize(n);
  uint32_t used = 0;  // entries assigned to the open page
  for (Vertex v = 0; v < n; ++v) {
    const uint64_t ls = offset[v + 1] - offset[v];
    // Close the open page if the label would straddle its boundary.
    if (used > 0 && used + ls > kPageEntries) {
      layout->page_size.push_back(used);
      used = 0;
    }
    layout->page_of[v] = static_cast<uint32_t>(layout->page_size.size());
    layout->slot_of[v] = used;
    used += static_cast<uint32_t>(ls);
    // An oversized label became a dedicated page; close it immediately.
    if (used >= kPageEntries) {
      layout->page_size.push_back(used);
      used = 0;
    }
  }
  if (used > 0) layout->page_size.push_back(used);
  layout->offset = std::move(offset);
  return layout;
}

void Labelling::AllocatePages(std::shared_ptr<const Layout> layout,
                              Weight fill) {
  layout_ = std::move(layout);
  pages_.Clear();
  pages_.Reserve(layout_->page_size.size());
  for (uint32_t sz : layout_->page_size) {
    pages_.Append(std::vector<Weight>(sz, fill));
  }
}

Labelling Labelling::AllocateFor(const TreeHierarchy& h) {
  const uint32_t n = h.NumVertices();
  std::vector<uint64_t> offset(n + 1);
  offset[0] = 0;
  for (Vertex v = 0; v < n; ++v) {
    offset[v + 1] = offset[v] + h.LabelSize(v);
  }
  Labelling l;
  l.AllocatePages(BuildLayout(std::move(offset)), kInfDistance);
  for (Vertex v = 0; v < n; ++v) {
    l.MutableData(v)[h.Tau(v)] = 0;  // self distance
  }
  return l;
}

uint64_t Labelling::MemoryBytes() const {
  if (!layout_) return 0;
  return layout_->MemoryBytes() + pages_.MemoryBytes();
}

uint64_t Labelling::AddResidentBytes(
    std::unordered_set<const void*>* seen) const {
  if (!layout_) return 0;
  uint64_t bytes = pages_.AddResidentBytes(seen);
  if (seen->insert(layout_.get()).second) bytes += layout_->MemoryBytes();
  return bytes;
}

Labelling Labelling::DeepCopy() const {
  Labelling copy;
  copy.layout_ = layout_;
  copy.pages_ = pages_.DeepCopy();
  return copy;
}

Status Labelling::Serialize(BinaryWriter* w) const {
  // Flat format for compatibility with pre-paging index files: the
  // logical offset vector followed by every entry in vertex order.
  static const std::vector<uint64_t> kEmptyOffset;
  const std::vector<uint64_t>& offset =
      layout_ ? layout_->offset : kEmptyOffset;
  Status s = w->WriteVector(offset);
  if (!s.ok()) return s;
  std::vector<Weight> entries(TotalEntries());
  for (Vertex v = 0; v < NumVertices(); ++v) {
    std::memcpy(entries.data() + layout_->offset[v], Data(v),
                LabelSize(v) * sizeof(Weight));
  }
  return w->WriteVector(entries);
}

Status Labelling::Deserialize(BinaryReader* r) {
  std::vector<uint64_t> offset;
  std::vector<Weight> entries;
  Status s = r->ReadVector(&offset);
  if (s.ok()) s = r->ReadVector(&entries);
  if (!s.ok()) return s;
  if (offset.empty() || offset.back() != entries.size()) {
    return Status::Corruption("labelling: offset/entry mismatch");
  }
  for (size_t v = 0; v + 1 < offset.size(); ++v) {
    // Strictly increasing: every real label has at least its self entry,
    // and zero-length labels would create vertices pointing past the
    // page table (the layout packer never emits a page for them).
    if (offset[v] >= offset[v + 1]) {
      return Status::Corruption("labelling: offsets not strictly increasing");
    }
  }
  AllocatePages(BuildLayout(std::move(offset)), kInfDistance);
  for (Vertex v = 0; v < NumVertices(); ++v) {
    std::memcpy(MutableData(v), entries.data() + layout_->offset[v],
                LabelSize(v) * sizeof(Weight));
  }
  return Status::OK();
}

bool Labelling::operator==(const Labelling& o) const {
  if (NumVertices() != o.NumVertices()) return false;
  // Either side may be empty: default-constructed (null layout) or an
  // allocated 0-vertex labelling; both hold zero entries.
  if (!layout_ || !o.layout_) return true;
  if (layout_->offset != o.layout_->offset) return false;
  for (Vertex v = 0; v < NumVertices(); ++v) {
    if (std::memcmp(Data(v), o.Data(v), LabelSize(v) * sizeof(Weight)) !=
        0) {
      return false;
    }
  }
  return true;
}

namespace {

/// An arc of the preorder graph: head position and weight.
struct PreorderArc {
  uint32_t head;
  Weight weight;
};

/// The graph renumbered to hierarchy preorder: the vertex-pool order of
/// TreeHierarchy, a node's own vertices (in tau order) before its
/// subtrees'. Desc(x) of a cut vertex x is then one range of positions,
/// from x's position to the end of its node's subtree, and the arcs sit
/// in one flat array instead of Graph's CoW chunks.
struct PreorderGraph {
  std::vector<Vertex> vertex;         // position -> vertex
  std::vector<uint32_t> arc_begin;    // position -> first arc; size n + 1
  std::vector<PreorderArc> arcs;
  std::vector<uint32_t> subtree_end;  // node -> one past its last position

  PreorderGraph(const Graph& g, const TreeHierarchy& h) {
    const uint32_t n = g.NumVertices();
    vertex.resize(n);
    std::vector<uint32_t> pos_of(n);
    std::vector<uint32_t> node_at(n, TreeHierarchy::kNoNode);
    for (uint32_t nid = 0; nid < h.NumNodes(); ++nid) {
      uint32_t p = h.GetNode(nid).first_vertex;
      node_at[p] = nid;
      for (Vertex v : h.VerticesOf(nid)) {
        vertex[p] = v;
        pos_of[v] = p++;
      }
    }
    // A child's positions follow its parent's, so a descending sweep
    // closes every child's subtree before its parent's.
    subtree_end.resize(h.NumNodes());
    for (uint32_t p = n; p-- > 0;) {
      const uint32_t nid = node_at[p];
      if (nid == TreeHierarchy::kNoNode) continue;
      const TreeHierarchy::Node& node = h.GetNode(nid);
      uint32_t end = node.first_vertex + node.num_vertices;
      for (uint32_t child : {node.left, node.right}) {
        if (child != TreeHierarchy::kNoNode) {
          end = std::max(end, subtree_end[child]);
        }
      }
      subtree_end[nid] = end;
    }
    arc_begin.resize(n + 1);
    arcs.reserve(2 * static_cast<size_t>(g.NumEdges()));
    for (uint32_t p = 0; p < n; ++p) {
      for (const Arc& a : g.ArcsOf(vertex[p])) {
        arcs.push_back(PreorderArc{pos_of[a.head], a.weight});
      }
      arc_begin[p + 1] = static_cast<uint32_t>(arcs.size());
    }
  }
};

/// One work item: `lanes` (at most kSearchLanes) tau-consecutive cut
/// vertices x_0 .. x_{lanes-1} of one node, at positions first ..
/// first + lanes - 1, with tau(x_0) = tau0. Positions [first, end) are
/// Desc(x_0), which holds every Desc(x_l).
struct Group {
  uint32_t first;
  uint32_t end;
  uint32_t lanes;
  uint32_t tau0;
};

/// One label-correcting search per group: lane l of a position holds its
/// distance from x_l inside G[Desc(x_l)], so a group fills columns
/// tau0 .. tau0 + lanes - 1, and each vertex's share of them is
/// written once, contiguously, when the search ends. The sources of a
/// group sit a few hops apart on one separator, so their shortest-path
/// trees nearly coincide and one scan of a vertex serves all lanes
/// (the multi-tree idea of PHAST, Delling et al., IPDPS 2011).
///
/// A vertex is pushed whenever some lane of it improves, keyed by the
/// least improved lane, and is scanned when popped if any lane improved
/// since its last scan; a scan relaxes all lanes. The pushed key is never
/// below the popped one, so the monotone radix heap stays valid, and when
/// the heap drains every lane is exact: the labels are the same bytes as
/// one Dijkstra per column, in any order of equal keys.
///
/// Cache-line aligned: the workers' searches sit side by side in one
/// vector, and each push and pop writes the heap's size.
class alignas(64) GroupSearch {
 public:
  /// Entries reserved per radix-heap bucket. A bucket holds part of one
  /// search's frontier; 2048 entries (16 KiB a bucket, pages touched only
  /// as used) covers the fullest bucket of a 160x160 grid's searches, so
  /// such builds do not grow a bucket on a worker. A wider frontier grows
  /// its bucket once per search object.
  static constexpr size_t kBucketReserve = 2048;

  explicit GroupSearch(uint32_t n)
      : lanes_(n), improved_(n, 0), heap_(kBucketReserve) {}

  /// Searches `group` and writes its columns into rows (indexed by
  /// position). Relax is RelaxLanesScalar or its AVX2 twin; the caller
  /// instantiates this in a function compiled for the matching target.
  template <uint32_t (*Relax)(const Weight*, Weight, uint32_t, Weight*,
                              Weight*)>
  [[gnu::always_inline]] inline void Run(const PreorderGraph& pg,
                                         const Group& group,
                                         Weight* const* rows) {
    const uint32_t lo = group.first;
    const uint32_t span = group.end - lo;
    std::fill(lanes_.begin() + lo, lanes_.begin() + group.end, kUnreached);
    heap_.clear();
    for (uint32_t l = 0; l < group.lanes; ++l) {
      lanes_[lo + l].d[l] = 0;
      improved_[lo + l] = static_cast<uint8_t>(1u << l);
      heap_.Push(0, lo + l);
    }
    while (!heap_.empty()) {
      const uint32_t v = heap_.Pop().payload;
      if (improved_[v] == 0) continue;  // scanned since this push
      improved_[v] = 0;
      const Weight* from = lanes_[v].d;
      for (uint32_t i = pg.arc_begin[v]; i < pg.arc_begin[v + 1]; ++i) {
        const PreorderArc a = pg.arcs[i];
        // Every edge joins ⪯-comparable vertices (Lemma 5.3), so a head
        // outside [lo, end) is an ancestor of x_0: outside every lane's
        // subgraph.
        const uint32_t off = a.head - lo;
        if (off >= span) continue;
        // Lane l may enter iff tau(head) >= tau(x_l) = tau0 + l. A head
        // in x_0's node has tau tau0 + off; one in a child subtree has a
        // tau past every vertex of the node, so every lane may enter.
        const uint32_t open = std::min(off + 1, kSearchLanes);
        Weight key = 0;
        const uint32_t bits = Relax(from, a.weight, open, lanes_[a.head].d,
                                    &key);
        if (bits != 0) {
          improved_[a.head] |= static_cast<uint8_t>(bits);
          heap_.Push(key, a.head);
        }
      }
    }
    // The vertex at offset off < lanes is x_off, whose row ends at
    // column tau0 + off: lanes past off were never opened to it. Lanes
    // still at kInfDistance rewrite the value the row was allocated with.
    for (uint32_t off = 0; off < span; ++off) {
      std::memcpy(rows[lo + off] + group.tau0, lanes_[lo + off].d,
                  std::min(off + 1, group.lanes) * sizeof(Weight));
    }
  }

 private:
  struct alignas(32) LaneRow {
    Weight d[kSearchLanes];
  };
  static constexpr LaneRow kUnreached = {
      {kInfDistance, kInfDistance, kInfDistance, kInfDistance, kInfDistance,
       kInfDistance, kInfDistance, kInfDistance}};

  std::vector<LaneRow> lanes_;     // by position
  std::vector<uint8_t> improved_;  // lanes improved since the last scan
  RadixHeap<uint32_t> heap_;       // positions
};

void RunScalar(GroupSearch* search, const PreorderGraph& pg,
               const Group& group, Weight* const* rows) {
  search->Run<RelaxLanesScalar>(pg, group, rows);
}

#ifdef STL_HAVE_AVX2_KERNEL
__attribute__((target("avx2"))) void RunAvx2(GroupSearch* search,
                                             const PreorderGraph& pg,
                                             const Group& group,
                                             Weight* const* rows) {
  search->Run<simd_internal::RelaxLanesAvx2>(pg, group, rows);
}
#endif

}  // namespace

namespace labelling_internal {

Labelling BuildLabelling(const Graph& g, const TreeHierarchy& h,
                         int num_threads, bool use_avx2) {
  STL_CHECK_EQ(g.NumVertices(), h.NumVertices());
  STL_CHECK_GE(num_threads, 1);
  STL_CHECK(!use_avx2 || CpuHasAvx2());
  auto run = RunScalar;
#ifdef STL_HAVE_AVX2_KERNEL
  if (use_avx2) run = RunAvx2;
#endif
  Labelling labels = Labelling::AllocateFor(h);
  const PreorderGraph pg(g, h);
  // The labelling is local and not yet copied, so it is sole-owned:
  // writes through pointers taken once per vertex skip the per-write
  // CoW check of Set.
  std::vector<Weight*> rows(labels.NumVertices());
  for (uint32_t p = 0; p < rows.size(); ++p) {
    rows[p] = labels.MutableData(pg.vertex[p]);
  }
  // Groups write disjoint label cells (distinct columns, or equal
  // columns of disjoint Desc sets). Work-steal via one atomic cursor
  // over the node order, top-first.
  std::vector<Group> groups;
  for (uint32_t nid = 0; nid < h.NumNodes(); ++nid) {
    const TreeHierarchy::Node& node = h.GetNode(nid);
    const uint32_t node_tau = node.cum_vertices - node.num_vertices;
    for (uint32_t i = 0; i < node.num_vertices; i += kSearchLanes) {
      groups.push_back(Group{node.first_vertex + i, pg.subtree_end[nid],
                             std::min(node.num_vertices - i, kSearchLanes),
                             node_tau + i});
    }
  }
  // All scratch is allocated here, so the workers allocate nothing.
  const size_t workers =
      std::min(static_cast<size_t>(num_threads), groups.size());
  std::vector<GroupSearch> searches;
  searches.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    searches.emplace_back(g.NumVertices());
  }
  std::atomic<size_t> cursor{0};
  auto work = [&](GroupSearch* search) {
    for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < groups.size();
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      run(search, pg, groups[i], rows.data());
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t t = 1; t < workers; ++t) {
    threads.emplace_back(work, &searches[t]);
  }
  if (workers > 0) work(&searches[0]);
  for (auto& t : threads) t.join();
  return labels;
}

}  // namespace labelling_internal

Labelling BuildLabelling(const Graph& g, const TreeHierarchy& h,
                         int num_threads) {
  return labelling_internal::BuildLabelling(g, h, num_threads, CpuHasAvx2());
}

namespace {

/// Appends the vertices strictly between `v` and the ancestor at label
/// position `col` (exclusive of both) walking v -> ancestor by greedy
/// descent: each step takes an arc (v, n) with
///   L_v[col] == w(v, n) + d_col(n),
/// where d_col(n) is 0 at the ancestor itself and L_n[col] inside the
/// subgraph. Exactness of the labels guarantees progress.
void UnpackTowardsAncestor(const Graph& g, const TreeHierarchy& h,
                           const Labelling& labels, Vertex v, uint32_t col,
                           std::vector<Vertex>* out) {
  const uint32_t n_limit = g.NumVertices();
  uint32_t steps = 0;
  while (labels.At(v, col) != 0) {
    STL_CHECK(++steps <= n_limit) << "path unpacking did not converge";
    const Weight dv = labels.At(v, col);
    Vertex next = UINT32_MAX;
    for (const Arc& a : g.ArcsOf(v)) {
      const uint32_t tn = h.Tau(a.head);
      if (tn < col) continue;  // outside Desc(ancestor)
      const Weight dn = (tn == col) ? 0 : labels.At(a.head, col);
      if (dn != kInfDistance && SaturatingAdd(dn, a.weight) == dv) {
        next = a.head;
        break;
      }
    }
    STL_CHECK(next != UINT32_MAX) << "no label-consistent arc";
    v = next;
    if (labels.At(v, col) != 0) out->push_back(v);
  }
}

}  // namespace

std::vector<Vertex> QueryPath(const Graph& g, const TreeHierarchy& h,
                              const Labelling& labels, Vertex s, Vertex t) {
  if (s == t) return {s};
  // Locate the tight hub of Equation 3.
  const uint32_t k = h.CommonAncestorCount(s, t);
  const Weight* ls = labels.Data(s);
  const Weight* lt = labels.Data(t);
  uint32_t best = kInfDistance + kInfDistance;
  uint32_t best_i = 0;
  for (uint32_t i = 0; i < k; ++i) {
    uint32_t cand = ls[i] + lt[i];
    if (cand < best) {
      best = cand;
      best_i = i;
    }
  }
  if (best >= kInfDistance) return {};
  const Vertex r = h.AncestorAt(s, best_i);
  // s .. r (forward), then r .. t (built backward, reversed in place).
  std::vector<Vertex> path;
  path.push_back(s);
  if (r != s) {
    UnpackTowardsAncestor(g, h, labels, s, best_i, &path);
    path.push_back(r);
  }
  if (r != t) {
    std::vector<Vertex> back;
    UnpackTowardsAncestor(g, h, labels, t, best_i, &back);
    path.insert(path.end(), back.rbegin(), back.rend());
    path.push_back(t);
  }
  return path;
}

Weight QueryDistance(const TreeHierarchy& h, const Labelling& labels,
                     Vertex s, Vertex t) {
  if (s == t) return 0;
  const uint32_t k = h.CommonAncestorCount(s, t);
  const Weight best = MinPlusReduce(labels.Data(s), labels.Data(t), k);
  return best >= kInfDistance ? kInfDistance : best;
}

}  // namespace stl
