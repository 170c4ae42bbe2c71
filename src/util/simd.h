// SIMD kernels with scalar twins.
//
// Min-plus reductions, shared by every label-scanning query path:
// STL's common-ancestor scan (core/labelling.h), HC2L's LCA-cut scan
// (baselines/hc2l.cc) and H2H's position-array scan (baselines/h2h.cc).
// Two shapes:
//   * contiguous:  min over i < k of a[i] + b[i]
//   * gathered:    min over p < k of a[idx[p]] + b[idx[p]]
// Both dispatch at runtime to an AVX2 kernel when the CPU supports it,
// with uint32 wrap-around semantics identical to the scalar loops, so
// the vector and scalar paths are bit-for-bit interchangeable on every
// input (equivalence-tested on adversarial labels in
// tests/labelling_test.cc). Real label entries are <= kInfDistance, so
// genuine queries never wrap.
//
// The lane relaxation of the label construction (BuildLabelling): one
// arc relaxed in all kSearchLanes distance lanes of a grouped search at
// once. Its caller picks the AVX2 or the scalar step once per build;
// both give the same lanes, bits and key on every input in their domain.
//
// The dense row search of the boundary overlay (index/overlay.h): one
// single-source shortest-path search over an n x n weight matrix, the
// array-scan form of Dijkstra's algorithm (no heap). AVX2 and scalar
// twins give the same row on every input in their domain.
#ifndef STL_UTIL_SIMD_H_
#define STL_UTIL_SIMD_H_

#include <algorithm>
#include <cstdint>

#include "graph/graph.h"  // Weight, kInfDistance

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define STL_HAVE_AVX2_KERNEL 1
#include <immintrin.h>
#endif

namespace stl {

/// min over i < k of a[i] + b[i] — the portable reference reduction
/// (also the non-x86 fallback). Returns 2 * kInfDistance for k == 0.
inline Weight MinPlusReduceScalar(const Weight* a, const Weight* b,
                                  uint32_t k) {
  Weight best = kInfDistance + kInfDistance;  // fits in uint32
  for (uint32_t i = 0; i < k; ++i) {
    best = std::min(best, a[i] + b[i]);
  }
  return best;
}

/// min over p < k of a[idx[p]] + b[idx[p]] — the portable reference for
/// the gathered shape. Returns 2 * kInfDistance for k == 0.
inline Weight MinPlusGatherReduceScalar(const Weight* a, const Weight* b,
                                        const uint32_t* idx, uint32_t k) {
  Weight best = kInfDistance + kInfDistance;
  for (uint32_t p = 0; p < k; ++p) {
    const uint32_t i = idx[p];
    best = std::min(best, a[i] + b[i]);
  }
  return best;
}

/// Distance lanes of one grouped label search: one lane per source.
inline constexpr uint32_t kSearchLanes = 8;

/// Relaxes one arc of weight w in every search lane, the portable
/// reference: for each lane l < open,
///   to[l] = min(to[l], min(from[l] + w, kInfDistance)).
/// Lanes l >= open are left alone. Returns the bit set of the lanes
/// that improved, and stores the least improved value in *key (left
/// untouched when none did). Every from[l], to[l] and w must be
/// <= kInfDistance, so no sum wraps.
inline uint32_t RelaxLanesScalar(const Weight* from, Weight w, uint32_t open,
                                 Weight* to, Weight* key) {
  uint32_t improved = 0;
  Weight least = kInfDistance;
  for (uint32_t l = 0; l < kSearchLanes; ++l) {
    const Weight nd = std::min<Weight>(from[l] + w, kInfDistance);
    if (l < open && nd < to[l]) {
      to[l] = nd;
      improved |= 1u << l;
      least = std::min(least, nd);
    }
  }
  if (improved != 0) *key = least;
  return improved;
}

/// Dense single-source search, the portable reference. `w` is an n x n
/// row-major matrix: w[u * n + v] is the weight of arc u -> v, with
/// kInfDistance for no arc and 0 on the diagonal; every cell must be
/// <= kInfDistance. Fills dist[0..n) with the distances from `src`
/// (< n), kInfDistance where unreachable. `done` is n words of scratch.
///
/// Each step settles the unsettled vertex of least key (the lowest
/// index among ties) and relaxes its matrix row into `dist`, fused with
/// the scan for the next least key: a settled vertex reads as
/// UINT32_MAX through its `done` word. A least key of kInfDistance or
/// more ends the search, so no distance exceeds kInfDistance: a
/// relaxed sum is below 2 * kInfDistance, never wraps, and one at or
/// above kInfDistance loses to the kInfDistance it is compared with.
inline void DenseSearchRowScalar(const Weight* w, uint32_t n, uint32_t src,
                                 Weight* dist, uint32_t* done) {
  std::fill(dist, dist + n, kInfDistance);
  std::fill(done, done + n, 0u);
  dist[src] = 0;
  uint32_t u = src;
  for (uint32_t settled = 1;; ++settled) {
    done[u] = UINT32_MAX;
    if (settled == n) return;
    const Weight d = dist[u];
    const Weight* row = w + static_cast<size_t>(u) * n;
    Weight least = UINT32_MAX;
    for (uint32_t v = 0; v < n; ++v) {
      dist[v] = std::min(dist[v], d + row[v]);
      least = std::min(least, dist[v] | done[v]);
    }
    if (least >= kInfDistance) return;
    u = 0;
    while ((dist[u] | done[u]) != least) ++u;
  }
}

#ifdef STL_HAVE_AVX2_KERNEL

namespace simd_internal {

/// Horizontal unsigned min of eight uint32 lanes.
__attribute__((target("avx2"))) inline Weight HorizontalMinU32(
    __m256i best8) {
  __m128i best4 = _mm_min_epu32(_mm256_castsi256_si128(best8),
                                _mm256_extracti128_si256(best8, 1));
  best4 = _mm_min_epu32(best4,
                        _mm_shuffle_epi32(best4, _MM_SHUFFLE(1, 0, 3, 2)));
  best4 = _mm_min_epu32(best4,
                        _mm_shuffle_epi32(best4, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<Weight>(_mm_cvtsi128_si32(best4));
}

/// Eight lanes of min(a[i] + b[i]) per iteration. Addition wraps mod
/// 2^32 exactly like the scalar loop, and _mm256_min_epu32 is the
/// unsigned min, so the result is bit-identical to MinPlusReduceScalar
/// for arbitrary inputs.
__attribute__((target("avx2"))) inline Weight MinPlusReduceAvx2(
    const Weight* a, const Weight* b, uint32_t k) {
  __m256i best8 =
      _mm256_set1_epi32(static_cast<int>(kInfDistance + kInfDistance));
  uint32_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    best8 = _mm256_min_epu32(best8, _mm256_add_epi32(va, vb));
  }
  Weight best = HorizontalMinU32(best8);
  for (; i < k; ++i) {
    best = std::min(best, a[i] + b[i]);
  }
  return best;
}

/// Gathered variant: eight lanes of min(a[idx[p]] + b[idx[p]]).
__attribute__((target("avx2"))) inline Weight MinPlusGatherReduceAvx2(
    const Weight* a, const Weight* b, const uint32_t* idx, uint32_t k) {
  __m256i best8 =
      _mm256_set1_epi32(static_cast<int>(kInfDistance + kInfDistance));
  uint32_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256i vidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + p));
    const __m256i va = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(a), vidx, sizeof(Weight));
    const __m256i vb = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(b), vidx, sizeof(Weight));
    best8 = _mm256_min_epu32(best8, _mm256_add_epi32(va, vb));
  }
  Weight best = HorizontalMinU32(best8);
  for (; p < k; ++p) {
    const uint32_t i = idx[p];
    best = std::min(best, a[i] + b[i]);
  }
  return best;
}

/// RelaxLanesScalar in one 8-wide add, min and compare. Every value is
/// <= kInfDistance < 2^30, so a sum stays below 2^31 and the signed
/// compare orders the lanes as the scalar unsigned one does.
__attribute__((target("avx2"))) inline uint32_t RelaxLanesAvx2(
    const Weight* from, Weight w, uint32_t open, Weight* to, Weight* key) {
  static_assert(kSearchLanes == 8, "one __m256i of uint32 lanes");
  const __m256i inf = _mm256_set1_epi32(static_cast<int>(kInfDistance));
  const __m256i nd = _mm256_min_epu32(
      _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(from)),
          _mm256_set1_epi32(static_cast<int>(w))),
      inf);
  const __m256i old = _mm256_loadu_si256(reinterpret_cast<__m256i*>(to));
  const __m256i is_open =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(open)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i better =
      _mm256_and_si256(_mm256_cmpgt_epi32(old, nd), is_open);
  const uint32_t improved = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(better)));
  if (improved == 0) return 0;
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(to),
                      _mm256_blendv_epi8(old, nd, better));
  *key = HorizontalMinU32(_mm256_blendv_epi8(inf, nd, better));
  return improved;
}

/// DenseSearchRowScalar, eight lanes per add, min and key min; the
/// index of the least key is found by cmpeq/movemask. Every compare is
/// unsigned or an equality, so it matches the scalar twin bit for bit.
__attribute__((target("avx2"))) inline void DenseSearchRowAvx2(
    const Weight* w, uint32_t n, uint32_t src, Weight* dist,
    uint32_t* done) {
  std::fill(dist, dist + n, kInfDistance);
  std::fill(done, done + n, 0u);
  dist[src] = 0;
  uint32_t u = src;
  for (uint32_t settled = 1;; ++settled) {
    done[u] = UINT32_MAX;
    if (settled == n) return;
    const Weight d = dist[u];
    const Weight* row = w + static_cast<size_t>(u) * n;
    const __m256i vd = _mm256_set1_epi32(static_cast<int>(d));
    __m256i least8 = _mm256_set1_epi32(-1);
    uint32_t v = 0;
    for (; v + 8 <= n; v += 8) {
      __m256i* dv = reinterpret_cast<__m256i*>(dist + v);
      const __m256i nd = _mm256_min_epu32(
          _mm256_loadu_si256(dv),
          _mm256_add_epi32(
              vd, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(row + v))));
      _mm256_storeu_si256(dv, nd);
      const __m256i dn =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(done + v));
      least8 = _mm256_min_epu32(least8, _mm256_or_si256(nd, dn));
    }
    Weight least = HorizontalMinU32(least8);
    for (; v < n; ++v) {
      dist[v] = std::min(dist[v], d + row[v]);
      least = std::min(least, dist[v] | done[v]);
    }
    if (least >= kInfDistance) return;
    const __m256i key = _mm256_set1_epi32(static_cast<int>(least));
    uint32_t hit = 0;
    for (u = 0; u + 8 <= n; u += 8) {
      const __m256i k8 = _mm256_or_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dist + u)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(done + u)));
      hit = static_cast<uint32_t>(_mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(key, k8))));
      if (hit != 0) break;
    }
    if (hit != 0) {
      u += static_cast<uint32_t>(__builtin_ctz(hit));
    } else {
      while ((dist[u] | done[u]) != least) ++u;
    }
  }
}

}  // namespace simd_internal

/// True iff this machine runs AVX2, so the kernels above may be called.
inline bool CpuHasAvx2() {
  static const bool has_avx2 = __builtin_cpu_supports("avx2");
  return has_avx2;
}

/// True iff the reductions dispatch to the AVX2 kernels on this machine.
inline bool MinPlusReduceUsesAvx2() { return CpuHasAvx2(); }

inline Weight MinPlusReduce(const Weight* a, const Weight* b, uint32_t k) {
  if (k >= 8 && MinPlusReduceUsesAvx2()) {
    return simd_internal::MinPlusReduceAvx2(a, b, k);
  }
  return MinPlusReduceScalar(a, b, k);
}

inline Weight MinPlusGatherReduce(const Weight* a, const Weight* b,
                                  const uint32_t* idx, uint32_t k) {
  if (k >= 8 && MinPlusReduceUsesAvx2()) {
    return simd_internal::MinPlusGatherReduceAvx2(a, b, idx, k);
  }
  return MinPlusGatherReduceScalar(a, b, idx, k);
}

/// The dense row search, on the AVX2 twin where the CPU has it.
inline void DenseSearchRow(const Weight* w, uint32_t n, uint32_t src,
                           Weight* dist, uint32_t* done) {
  if (n >= 8 && CpuHasAvx2()) {
    simd_internal::DenseSearchRowAvx2(w, n, src, dist, done);
  } else {
    DenseSearchRowScalar(w, n, src, dist, done);
  }
}

#else  // !STL_HAVE_AVX2_KERNEL

inline bool CpuHasAvx2() { return false; }
inline bool MinPlusReduceUsesAvx2() { return false; }

inline Weight MinPlusReduce(const Weight* a, const Weight* b, uint32_t k) {
  return MinPlusReduceScalar(a, b, k);
}

inline Weight MinPlusGatherReduce(const Weight* a, const Weight* b,
                                  const uint32_t* idx, uint32_t k) {
  return MinPlusGatherReduceScalar(a, b, idx, k);
}

inline void DenseSearchRow(const Weight* w, uint32_t n, uint32_t src,
                           Weight* dist, uint32_t* done) {
  DenseSearchRowScalar(w, n, src, dist, done);
}

#endif  // STL_HAVE_AVX2_KERNEL

}  // namespace stl

#endif  // STL_UTIL_SIMD_H_
