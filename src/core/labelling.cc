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

/// Dijkstra from cut vertex r restricted to Desc(r), writing column
/// tau(r) of every settled vertex's label. Reusable buffers live in the
/// caller (ColumnBuilder) so the per-column cost is output-sensitive.
/// Cache-line aligned: the workers' builders sit side by side in one
/// vector, and each push and pop writes the heap's size.
///
/// The queue is a monotone radix heap: a pushed key d + w is never below
/// the popped d. It pops equal keys in another order than a binary heap
/// would, but only settled distances are written, and those do not depend
/// on that order, so the labels are the same bytes.
class alignas(64) ColumnBuilder {
 public:
  /// Entries reserved per radix-heap bucket. A bucket holds part of one
  /// search's frontier; on the 160x160 perfbench grid (25.6k vertices)
  /// the fullest bucket holds 1025-2048 entries, so this much (16 KiB a
  /// bucket, pages touched only as used) keeps such builds from growing a
  /// bucket on a worker. A wider frontier grows its bucket once per
  /// builder.
  static constexpr size_t kBucketReserve = 2048;

  ColumnBuilder(const Graph& g, const TreeHierarchy& h)
      : g_(g), h_(h), dist_(g.NumVertices(), kInfDistance),
        stamp_(g.NumVertices(), 0), heap_(kBucketReserve) {}

  /// Calls write(v, col, d) for every vertex v settled at distance d.
  template <typename Write>
  void FillColumn(Vertex r, Write write) {
    const uint32_t col = h_.Tau(r);
    ++epoch_;
    heap_.clear();
    dist_[r] = 0;
    stamp_[r] = epoch_;
    heap_.Push(0, r);
    while (!heap_.empty()) {
      auto [d, v] = heap_.Pop();
      if (stamp_[v] != epoch_ || d != dist_[v]) continue;
      write(v, col, d);
      for (const Arc& a : g_.ArcsOf(v)) {
        // Desc(r) membership: every edge joins ⪯-comparable vertices
        // (Lemma 5.3), so staying at tau > tau(r) keeps the search inside
        // the subgraph G[Desc(r)].
        if (h_.Tau(a.head) <= col) continue;
        Weight nd = SaturatingAdd(d, a.weight);
        if (stamp_[a.head] != epoch_ || nd < dist_[a.head]) {
          dist_[a.head] = nd;
          stamp_[a.head] = epoch_;
          heap_.Push(nd, a.head);
        }
      }
    }
  }

 private:
  const Graph& g_;
  const TreeHierarchy& h_;
  std::vector<Weight> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  RadixHeap<Vertex> heap_;
};

}  // namespace

Labelling BuildLabelling(const Graph& g, const TreeHierarchy& h,
                         int num_threads) {
  STL_CHECK_EQ(g.NumVertices(), h.NumVertices());
  STL_CHECK_GE(num_threads, 1);
  Labelling labels = Labelling::AllocateFor(h);
  // The labelling is local and not yet copied, so it is sole-owned:
  // writes through pointers taken once per vertex skip the per-write
  // CoW check of Set.
  std::vector<Weight*> rows(labels.NumVertices());
  for (Vertex v = 0; v < rows.size(); ++v) rows[v] = labels.MutableData(v);
  // Cut vertices are independent work items writing disjoint label
  // cells. Work-steal via one atomic cursor over the node order.
  std::vector<Vertex> cuts;
  cuts.reserve(g.NumVertices());
  for (uint32_t nid = 0; nid < h.NumNodes(); ++nid) {
    for (Vertex r : h.VerticesOf(nid)) cuts.push_back(r);
  }
  // All scratch is allocated here, so the workers allocate nothing.
  const size_t workers =
      std::min(static_cast<size_t>(num_threads), cuts.size());
  std::vector<ColumnBuilder> builders;
  builders.reserve(workers);
  for (size_t t = 0; t < workers; ++t) {
    builders.emplace_back(g, h);
  }
  std::atomic<size_t> cursor{0};
  auto work = [&](ColumnBuilder* builder) {
    auto write = [&rows](Vertex v, uint32_t col, Weight d) {
      rows[v][col] = d;
    };
    for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < cuts.size();
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      builder->FillColumn(cuts[i], write);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t t = 1; t < workers; ++t) {
    threads.emplace_back(work, &builders[t]);
  }
  if (workers > 0) work(&builders[0]);
  for (auto& t : threads) t.join();
  return labels;
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
