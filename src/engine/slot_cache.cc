#include "engine/slot_cache.h"

#include "util/logging.h"

namespace stl {

namespace {

/// splitmix64 finalizer: scatters keys across the slot array.
inline uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void SlotCache::Init(size_t entries, uint32_t width) {
  if (entries == 0 || width == 0) return;
  size_t cap = 1;
  while (cap < entries) cap <<= 1;
  mask_ = cap - 1;
  width_ = width;
  slots_ = std::make_unique<Slot[]>(cap);
  payload_ = std::make_unique<std::atomic<Weight>[]>(cap * width);
}

bool SlotCache::Lookup(uint64_t key, uint64_t epoch, uint32_t count,
                       Weight* out) const {
  if (slots_ == nullptr) return false;
  STL_DCHECK(count <= width_);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const size_t idx = MixKey(key) & mask_;
  const Slot& slot = slots_[idx];
  // Version-validated read. Key, epoch and payload are acquire loads of
  // Insert's release stores: a load that sees any of an insert's values
  // synchronizes with it, so that insert's odd version is visible to
  // the re-check below, which rejects the slot. Acquire loads also keep
  // the re-check from moving above them, so it needs no fence (and
  // TSan, which models no fence, sees the whole ordering).
  const uint64_t v1 = slot.version.load(std::memory_order_acquire);
  if (v1 & 1) return false;
  const uint64_t k = slot.key.load(std::memory_order_acquire);
  const uint64_t e = slot.epoch.load(std::memory_order_acquire);
  const std::atomic<Weight>* payload = payload_.get() + idx * width_;
  for (uint32_t i = 0; i < count; ++i) {
    out[i] = payload[i].load(std::memory_order_acquire);
  }
  if (slot.version.load(std::memory_order_relaxed) != v1) return false;
  if (k != key || e != epoch) return false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SlotCache::Insert(uint64_t key, uint64_t epoch, uint32_t count,
                       const Weight* values) {
  if (slots_ == nullptr) return;
  STL_DCHECK(count <= width_);
  const size_t idx = MixKey(key) & mask_;
  Slot& slot = slots_[idx];
  uint64_t v = slot.version.load(std::memory_order_relaxed);
  if (v & 1) return;  // another insert in flight; drop ours
  if (!slot.version.compare_exchange_strong(v, v + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
    return;  // lost the race; drop
  }
  // Release stores, after the odd version: see Lookup.
  slot.key.store(key, std::memory_order_release);
  slot.epoch.store(epoch, std::memory_order_release);
  std::atomic<Weight>* payload = payload_.get() + idx * width_;
  for (uint32_t i = 0; i < count; ++i) {
    payload[i].store(values[i], std::memory_order_release);
  }
  slot.version.store(v + 2, std::memory_order_release);
}

}  // namespace stl
