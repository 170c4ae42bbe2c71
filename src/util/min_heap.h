// Lazy-deletion min-heaps used by all Dijkstra-style searches.
//
// Three flavours:
//  * MinHeap<Payload>          — orders (key, payload) by key asc, then
//                                payload asc (deterministic tie-break).
//  * ParetoHeap                — orders (key, level, vertex) by key asc,
//                                then level DESC: the Pareto Search
//                                algorithms must process tuples with the
//                                larger ancestor level first among equal
//                                distances (Section 5.2).
//  * RadixHeap<Payload>        — monotone radix heap over uint32 keys:
//                                every pushed key must be >= the last key
//                                popped, which holds for a Dijkstra with
//                                non-negative weights. Pops in key order;
//                                ties pop in no particular order.
//
// All are "lazy": stale entries are filtered by the caller via its own
// distance / level arrays, which is the standard idiom for label-correcting
// searches on road networks and avoids decrease-key bookkeeping.
#ifndef STL_UTIL_MIN_HEAP_H_
#define STL_UTIL_MIN_HEAP_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace stl {

/// Binary min-heap over (key, payload) pairs.
template <typename Key, typename Payload>
class MinHeap {
 public:
  struct Entry {
    Key key;
    Payload payload;
    bool operator<(const Entry& o) const {
      if (key != o.key) return key < o.key;
      return payload < o.payload;
    }
    bool operator>(const Entry& o) const { return o < *this; }
  };

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }

  void Push(Key key, Payload payload) {
    heap_.push_back(Entry{key, payload});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
  }

  const Entry& Top() const {
    STL_DCHECK(!heap_.empty());
    return heap_.front();
  }

  Entry Pop() {
    STL_DCHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    Entry e = heap_.back();
    heap_.pop_back();
    return e;
  }

 private:
  std::vector<Entry> heap_;
};

/// Heap entry for Pareto searches: (distance, active interval, vertex).
/// Ordered by distance ascending; ties broken by larger interval max first
/// so Pareto-optimal tuples are met before dominated ones (Section 5.2).
struct ParetoEntry {
  uint32_t dist;
  uint32_t min_level;
  uint32_t max_level;
  uint32_t vertex;

  // "Greater" comparator semantics for a min-heap: a is popped before b
  // iff a.dist < b.dist, or equal dist and a.max_level > b.max_level.
  bool PoppedBefore(const ParetoEntry& o) const {
    if (dist != o.dist) return dist < o.dist;
    if (max_level != o.max_level) return max_level > o.max_level;
    if (vertex != o.vertex) return vertex < o.vertex;
    return min_level < o.min_level;
  }
};

/// Binary min-heap with the ParetoEntry ordering.
class ParetoHeap {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }

  void Push(const ParetoEntry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  ParetoEntry Pop() {
    STL_DCHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    ParetoEntry e = heap_.back();
    heap_.pop_back();
    return e;
  }

 private:
  // std::push_heap builds a max-heap w.r.t. the comparator, so "Later"
  // (i.e. popped-after) ordering yields a min-heap in PoppedBefore order.
  static bool Later(const ParetoEntry& a, const ParetoEntry& b) {
    return b.PoppedBefore(a);
  }

  std::vector<ParetoEntry> heap_;
};

/// Monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan) over uint32
/// keys. Bucket 0 holds keys equal to the last popped key `last`; bucket
/// b >= 1 holds keys whose highest bit differing from `last` is b - 1.
/// A pop from an empty bucket 0 finds the lowest non-empty bucket, makes
/// its minimum the new `last` and redistributes it into lower buckets, so
/// each entry moves at most 32 times however many entries the heap holds.
///
/// Each bucket is a vector. `bucket_reserve` entries per bucket are
/// reserved at construction; a bucket that outgrows them grows like any
/// vector and keeps its capacity across clear(), so a reused heap stops
/// allocating once it has held its widest search.
template <typename Payload>
class RadixHeap {
 public:
  struct Entry {
    uint32_t key;
    Payload payload;
  };

  explicit RadixHeap(size_t bucket_reserve = 0) {
    for (auto& bucket : buckets_) bucket.reserve(bucket_reserve);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Drops every entry and resets the monotone bound to 0.
  void clear() {
    for (auto& bucket : buckets_) bucket.clear();
    size_ = 0;
    last_ = 0;
  }

  /// Pushes (key, payload). Requires key >= the last popped key.
  void Push(uint32_t key, Payload payload) {
    STL_DCHECK(key >= last_);
    buckets_[BucketOf(key)].push_back(Entry{key, payload});
    ++size_;
  }

  /// Pops an entry of minimum key.
  Entry Pop() {
    STL_DCHECK(size_ > 0);
    if (buckets_[0].empty()) Refill();
    --size_;
    Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    return e;
  }

 private:
  static constexpr int kBuckets = 33;

  int BucketOf(uint32_t key) const {
    return key == last_ ? 0 : 32 - std::countl_zero(key ^ last_);
  }

  /// Bucket 0 is empty: moves the lowest non-empty bucket down.
  void Refill() {
    int i = 1;
    while (buckets_[i].empty()) ++i;
    std::vector<Entry>& from = buckets_[i];
    uint32_t min_key = UINT32_MAX;
    for (const Entry& e : from) min_key = std::min(min_key, e.key);
    last_ = min_key;
    // Every key of bucket i now maps to a bucket below i.
    for (const Entry& e : from) buckets_[BucketOf(e.key)].push_back(e);
    from.clear();
  }

  std::vector<Entry> buckets_[kBuckets];
  size_t size_ = 0;
  uint32_t last_ = 0;
};

}  // namespace stl

#endif  // STL_UTIL_MIN_HEAP_H_
