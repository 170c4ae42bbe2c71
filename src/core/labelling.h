// Stable Tree Labelling storage, construction and querying
// (Definitions 4.4–4.6, Lemma 4.7, Equation 3).
//
// The label of v is the flat array L(v) = [d_{w1}(v,w1), ..., d_{wk}(v,wk)]
// over v's ancestors w1 ⪯ ... ⪯ wk (wk = v itself, entry 0). The crucial
// design of the paper: entry i stores the distance *within the subgraph*
// G[Desc(w_i)], not the distance in G. Lemma 4.7 shows this still covers
// every shortest path, and it is what restricts the blast radius of a
// weight update to the subgraphs containing the updated edge.
//
// Storage is paged with copy-on-write: label entries live in fixed-size
// pages (kPageEntries entries each) held by shared_ptr. Copying a
// Labelling shares every page by refcount bump (O(pages) pointer copies,
// zero entry copies); the first write to a page whose refcount is > 1
// clones just that page. This is what makes epoch publication in
// engine/query_engine.h O(touched pages) instead of O(index size): the
// blast-radius property above means a small update batch dirties few
// pages, and every untouched page is shared structurally across epochs.
// Packing never lets one vertex's label straddle a page boundary (a page
// is closed early, or an oversized label gets a dedicated page), so
// Data(v) stays a contiguous pointer — the query hot path is unchanged.
//
// Thread-safety of the CoW discipline: one writer mutates a Labelling at
// a time; any number of other Labellings sharing its pages may be read
// (or destroyed) concurrently. The writer clones a page unless it is the
// sole owner, so readers never observe a write to a page they can reach.
#ifndef STL_CORE_LABELLING_H_
#define STL_CORE_LABELLING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/tree_hierarchy.h"
#include "graph/graph.h"
#include "util/cow_chunks.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace stl {

/// Adds two distances, saturating at kInfDistance (so "unreachable"
/// propagates instead of wrapping).
inline Weight SaturatingAdd(Weight a, Weight b) {
  Weight s = a + b;  // both <= kInfDistance, no uint32 overflow
  return s >= kInfDistance ? kInfDistance : s;
}

/// Paged distance labels: one contiguous uint32 block per vertex,
/// |L(v)| = tau(v) + 1, hub entries of any query contiguous in memory.
/// Pages are shared copy-on-write across copies (see file comment).
class Labelling {
 public:
  /// Entries per page: 1024 * sizeof(Weight) = 4 KiB, the classic page
  /// size. Larger pages amortize refcount overhead but coarsen the CoW
  /// granularity (more bytes cloned per dirtied cell); smaller pages do
  /// the reverse. Labels longer than this get a dedicated page.
  static constexpr uint32_t kPageEntries = 1024;

  Labelling() = default;

  // Copying shares every page (refcount bump); the layout is immutable
  // and always shared. Writes to either copy detach pages on demand.
  Labelling(const Labelling&) = default;
  Labelling& operator=(const Labelling&) = default;
  Labelling(Labelling&&) noexcept = default;
  Labelling& operator=(Labelling&&) noexcept = default;

  /// Allocates labels shaped by the hierarchy, all entries kInfDistance
  /// except each vertex's self entry (0).
  static Labelling AllocateFor(const TreeHierarchy& h);

  uint32_t NumVertices() const {
    return layout_ ? static_cast<uint32_t>(layout_->offset.size() - 1) : 0;
  }

  uint32_t LabelSize(Vertex v) const {
    return static_cast<uint32_t>(layout_->offset[v + 1] -
                                 layout_->offset[v]);
  }

  Weight At(Vertex v, uint32_t i) const {
    STL_DCHECK(i < LabelSize(v));
    return Data(v)[i];
  }
  void Set(Vertex v, uint32_t i, Weight d) {
    STL_DCHECK(i < LabelSize(v));
    MutableData(v)[i] = d;
  }

  /// Raw pointer to L(v) — the query hot path. Stable until a write
  /// detaches v's page (never happens on a shared snapshot copy).
  const Weight* Data(Vertex v) const {
    return pages_.Data(layout_->page_of[v]) + layout_->slot_of[v];
  }

  /// Writable pointer to L(v). Detaches (clones) v's page if any other
  /// Labelling shares it; the returned pointer stays valid and private
  /// until this Labelling is next copied. Single-writer only.
  Weight* MutableData(Vertex v) {
    return pages_.Writable(layout_->page_of[v]) + layout_->slot_of[v];
  }

  uint64_t TotalEntries() const {
    return layout_ ? layout_->offset.back() : 0;
  }

  /// Resident bytes of this Labelling alone: every physical page counted
  /// once (pages are never duplicated within one Labelling) plus the
  /// shared layout and the page-pointer tables. For bytes across several
  /// page-sharing Labellings, use AddResidentBytes with one shared set.
  uint64_t MemoryBytes() const;

  /// Adds this Labelling's resident bytes to a running total, counting
  /// each physical page and each shared layout once across every call
  /// made with the same `seen` set. Returns the bytes newly added.
  uint64_t AddResidentBytes(std::unordered_set<const void*>* seen) const;

  /// Physical pages currently backing the labels.
  uint32_t PageCount() const { return pages_.NumChunks(); }

  /// Bytes of the largest physical page: kPageEntries * sizeof(Weight)
  /// unless some label is longer than a page and owns a dedicated one.
  /// The worst-case clone cost of a single write.
  uint64_t MaxPageBytes() const { return pages_.MaxChunkBytes(); }

  /// Entry bytes only — exactly what DeepCopy physically copies.
  uint64_t PayloadBytes() const { return pages_.PayloadBytes(); }

  /// Cumulative CoW page-clone counters (monotone over this Labelling's
  /// lifetime; copies inherit and then diverge). chunks_cloned counts
  /// pages here.
  const CowChunkStats& cow_stats() const { return pages_.stats(); }

  /// A fully detached copy: every page cloned, nothing shared, CoW
  /// counters reset. Tests freeze snapshots with it.
  Labelling DeepCopy() const;

  // On-disk format is the flat layout (offset vector + entry vector),
  // unchanged from the pre-paging index files.
  Status Serialize(BinaryWriter* w) const;
  Status Deserialize(BinaryReader* r);

  bool operator==(const Labelling& o) const;

 private:
  /// Immutable page layout, shared by every copy of a Labelling (and
  /// across all engine epochs). offset is the logical flat layout the
  /// serialization format and TotalEntries speak; page_of/slot_of map a
  /// vertex to its physical page and position.
  struct Layout {
    std::vector<uint64_t> offset;     // size n+1, logical flat offsets
    std::vector<uint32_t> page_of;    // size n
    std::vector<uint32_t> slot_of;    // size n
    std::vector<uint32_t> page_size;  // entries per physical page

    uint64_t MemoryBytes() const {
      return offset.capacity() * sizeof(uint64_t) +
             page_of.capacity() * sizeof(uint32_t) +
             slot_of.capacity() * sizeof(uint32_t) +
             page_size.capacity() * sizeof(uint32_t);
    }
  };

  /// Packs labels (sizes given by consecutive offset differences) into
  /// pages such that no label straddles a page: a page is closed early
  /// when the next label does not fit, and a label longer than
  /// kPageEntries gets a dedicated page of exactly its size.
  static std::shared_ptr<const Layout> BuildLayout(
      std::vector<uint64_t> offset);

  /// Allocates physical pages for `layout` filled with `fill`.
  void AllocatePages(std::shared_ptr<const Layout> layout, Weight fill);

  std::shared_ptr<const Layout> layout_;
  // The CoW detach protocol (sole-owner check + acquire fence, clone
  // counters, raw data mirror) lives in CowChunks.
  CowChunks<Weight> pages_;
};

/// Builds the STL labels of `g` over hierarchy `h`: column tau(r) of
/// every descendant's label holds its distance from the cut vertex r
/// inside G[Desc(r)] (Remark 1). By Lemma 5.3 the restriction is the
/// test tau(neighbour) >= tau(r).
///
/// The cut vertices of each node are taken in groups of up to
/// kSearchLanes (util/simd.h) tau-consecutive ones, and one
/// label-correcting search per group fills all of the group's columns:
/// every vertex keeps one distance lane per cut vertex of the group, and
/// an arc is relaxed in all lanes at once, by an AVX2 step when the CPU
/// has AVX2 and by its scalar twin otherwise. The search runs over the
/// graph renumbered to hierarchy preorder, where each Desc(r) is one
/// range of positions.
///
/// Groups are embarrassingly parallel: distinct groups write disjoint
/// (vertex, column) cells (equal tau implies disjoint Desc sets), so
/// min(num_threads, #groups) workers take the groups off one shared
/// cursor, top of the hierarchy first; the calling thread is one of
/// them. The labels do not depend on the worker count or the relax step.
/// The labelling is freshly allocated and sole-owned, so workers write
/// through a row-pointer table taken once per vertex, without CoW checks,
/// and every worker's scratch is allocated on the calling thread before
/// any worker starts.
Labelling BuildLabelling(const Graph& g, const TreeHierarchy& h,
                         int num_threads = 1);

namespace labelling_internal {

/// BuildLabelling with the relax step chosen by the caller: the AVX2 one
/// iff use_avx2 (which requires CpuHasAvx2()), else the scalar one.
/// BuildLabelling passes CpuHasAvx2(); the tests build through both.
Labelling BuildLabelling(const Graph& g, const TreeHierarchy& h,
                         int num_threads, bool use_avx2);

}  // namespace labelling_internal

// The min-plus reduction kernels (MinPlusReduce and friends) live in
// util/simd.h, shared with the H2H and HC2L baseline query paths.

/// Answers a distance query from the labels (Equation 3): scans the first
/// CommonAncestorCount(s, t) entries of both labels. Returns kInfDistance
/// if unreachable. Pure function of (h, labels): stateless and safe to
/// call from concurrent readers on an immutable snapshot.
Weight QueryDistance(const TreeHierarchy& h, const Labelling& labels,
                     Vertex s, Vertex t);

/// Reconstructs an actual shortest path s .. t (inclusive endpoints):
/// picks the tight hub r of Equation 3 and unpacks both sides by greedy
/// descent along label-consistent arcs inside G[Desc(r)]. Returns an
/// empty vector iff t is unreachable from s. O(|path| * max degree).
std::vector<Vertex> QueryPath(const Graph& g, const TreeHierarchy& h,
                              const Labelling& labels, Vertex s, Vertex t);

}  // namespace stl

#endif  // STL_CORE_LABELLING_H_
