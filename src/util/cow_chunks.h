// Copy-on-write chunk vector: the shared storage protocol behind the
// paged Labelling and the chunked Graph weight tables.
//
// A CowChunks holds fixed conceptual chunks of T, each in a shared_ptr.
// Copying a CowChunks copies chunk pointers (refcount bumps, zero
// element copies); Writable(c) detaches (clones) chunk c only if some
// other copy still shares it. Single-writer discipline: one copy is
// mutated at a time, while any number of other copies sharing its
// chunks may be read — or destroyed, from any thread. The sole-owner
// check pairs a use_count() load with an acquire fence so a reader
// thread's final release of a chunk happens-before the writer's
// in-place stores.
//
// A raw data-pointer mirror keeps reads at two dependent loads (no
// shared_ptr control-block chasing on hot paths).
#ifndef STL_UTIL_COW_CHUNKS_H_
#define STL_UTIL_COW_CHUNKS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

namespace stl {

/// Cumulative copy-on-write counters (monotone; copies inherit and then
/// diverge).
struct CowChunkStats {
  uint64_t chunks_cloned = 0;
  uint64_t bytes_cloned = 0;

  CowChunkStats& operator+=(const CowChunkStats& o) {
    chunks_cloned += o.chunks_cloned;
    bytes_cloned += o.bytes_cloned;
    return *this;
  }
};

template <typename T>
class CowChunks {
 public:
  CowChunks() = default;

  // Copies share every chunk; writes to either side detach on demand.
  CowChunks(const CowChunks&) = default;
  CowChunks& operator=(const CowChunks&) = default;
  CowChunks(CowChunks&&) noexcept = default;
  CowChunks& operator=(CowChunks&&) noexcept = default;

  void Clear() {
    chunks_.clear();
    data_.clear();
    stats_ = CowChunkStats();
  }

  void Reserve(size_t n) {
    chunks_.reserve(n);
    data_.reserve(n);
  }

  /// Appends one chunk (build time; the new chunk is sole-owned).
  void Append(std::vector<T> chunk) {
    chunks_.push_back(std::make_shared<std::vector<T>>(std::move(chunk)));
    data_.push_back(chunks_.back()->data());
  }

  uint32_t NumChunks() const {
    return static_cast<uint32_t>(chunks_.size());
  }

  /// Read pointer to chunk c's elements. Stable until a write detaches
  /// the chunk (never happens through a sharing copy).
  const T* Data(uint32_t c) const { return data_[c]; }

  /// Writable pointer to chunk c: detaches (clones) it first unless
  /// this CowChunks is the sole owner. Single-writer only.
  T* Writable(uint32_t c) {
    auto& chunk = chunks_[c];
    if (chunk.use_count() > 1) {
      chunk = std::make_shared<std::vector<T>>(*chunk);
      data_[c] = chunk->data();
      ++stats_.chunks_cloned;
      stats_.bytes_cloned += chunk->size() * sizeof(T);
    } else {
      // Pair with the release decrement of a reader thread dropping the
      // last shared reference to this chunk: its reads must complete
      // before our in-place writes. No-op fence on x86. Unlike the
      // SlotCache seqlock, this cannot become an acquire load: the
      // count comes from use_count(), which is a relaxed load, so the
      // fence stays (and TSan, which models no fence, cannot check it).
      std::atomic_thread_fence(std::memory_order_acquire);
    }
    return data_[c];
  }

  const CowChunkStats& stats() const { return stats_; }

  /// A fully detached copy: every chunk cloned, counters reset.
  CowChunks DeepCopy() const {
    CowChunks copy;
    copy.Reserve(chunks_.size());
    for (const auto& chunk : chunks_) copy.Append(*chunk);
    return copy;
  }

  /// Element bytes only (what DeepCopy physically copies).
  uint64_t PayloadBytes() const {
    uint64_t bytes = 0;
    for (const auto& chunk : chunks_) bytes += chunk->size() * sizeof(T);
    return bytes;
  }

  /// Element bytes of the largest chunk (0 if empty) — the worst-case
  /// clone cost of one write.
  uint64_t MaxChunkBytes() const {
    uint64_t bytes = 0;
    for (const auto& chunk : chunks_) {
      bytes = std::max<uint64_t>(bytes, chunk->size() * sizeof(T));
    }
    return bytes;
  }

  /// Resident bytes of this copy alone: chunk capacities plus the
  /// per-copy pointer tables.
  uint64_t MemoryBytes() const {
    uint64_t bytes = PointerTableBytes();
    for (const auto& chunk : chunks_) {
      bytes += chunk->capacity() * sizeof(T);
    }
    return bytes;
  }

  /// Adds this copy's resident bytes to a running total, counting each
  /// physical chunk once across every call sharing the same `seen` set.
  /// Returns the bytes newly added.
  uint64_t AddResidentBytes(std::unordered_set<const void*>* seen) const {
    uint64_t bytes = PointerTableBytes();  // per-copy, never shared
    for (uint32_t c = 0; c < chunks_.size(); ++c) {
      if (seen->insert(data_[c]).second) {
        bytes += chunks_[c]->capacity() * sizeof(T);
      }
    }
    return bytes;
  }

 private:
  uint64_t PointerTableBytes() const {
    return chunks_.capacity() * sizeof(std::shared_ptr<std::vector<T>>) +
           data_.capacity() * sizeof(T*);
  }

  std::vector<std::shared_ptr<std::vector<T>>> chunks_;
  std::vector<T*> data_;  // raw mirror of chunks_[c]->data()
  CowChunkStats stats_;
};

}  // namespace stl

#endif  // STL_UTIL_COW_CHUNKS_H_
