// The one seqlock cache of the serving tier. ServingCore's epoch-keyed
// (s, t) result memo (payload width 1) and the sharded engine's
// shard-epoch-keyed boundary-row cache (payload width max |S_i|) are
// both a SlotCache: a key, an epoch tag and up to `width` weights per
// slot.
#ifndef STL_ENGINE_SLOT_CACHE_H_
#define STL_ENGINE_SLOT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "graph/graph.h"

namespace stl {

/// The cache key of an ordered 32-bit pair: (s, t) for results,
/// (vertex, shard) for boundary rows.
inline uint64_t PairKey(uint32_t hi, uint32_t lo) {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

/// Direct-mapped, fixed-size cache of (key, epoch) -> up to `width`
/// weights. Invalidation is free: the epoch tag is part of the match,
/// so entries of a republished epoch simply stop matching. Wait-free on
/// both paths: every slot is a version-validated record of atomics
/// (even version = stable, odd = an insert in flight), so a
/// torn read fails validation and reads as a miss — never a wrong hit —
/// and an insert that finds its slot busy is dropped. All fields are
/// atomics, so the protocol is data-race-free (TSan-clean).
class SlotCache {
 public:
  /// A disabled cache; Init() arms it.
  SlotCache() = default;

  /// Sizes the cache: `entries` slots (rounded up to a power of two),
  /// each holding up to `width` weights. entries == 0 or width == 0
  /// leaves it disabled: Lookup always misses and counts nothing,
  /// Insert is a no-op and no memory is allocated. Call before any
  /// concurrent use.
  void Init(size_t entries, uint32_t width);

  /// True iff the slot of `key` holds an entry inserted under exactly
  /// (key, epoch); copies its first `count` (<= width) weights to
  /// `out`. Counts one lookup, and one hit on success.
  bool Lookup(uint64_t key, uint64_t epoch, uint32_t count,
              Weight* out) const;

  /// Records `count` (<= width) weights for (key, epoch), overwriting
  /// whatever occupied the slot. Dropped silently when another thread
  /// is mid-insert on the same slot.
  void Insert(uint64_t key, uint64_t epoch, uint32_t count,
              const Weight* payload);

  /// Probes so far (relaxed; monitoring only).
  uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Probes answered from the cache so far.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Zeroes the probe counters. The entries stay valid: they are
  /// epoch-tagged, so a stale one can never serve a wrong answer.
  void ResetCounters() {
    lookups_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
  }

 private:
  /// One version-validated record; its payload lives in payload_ at
  /// this slot's offset.
  struct Slot {
    std::atomic<uint64_t> version{0};
    std::atomic<uint64_t> key{~uint64_t{0}};
    std::atomic<uint64_t> epoch{0};
  };

  size_t mask_ = 0;
  uint32_t width_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::atomic<Weight>[]> payload_;
  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> hits_{0};
};

}  // namespace stl

#endif  // STL_ENGINE_SLOT_CACHE_H_
