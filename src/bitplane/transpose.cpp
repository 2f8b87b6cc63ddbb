#include "bitplane/transpose.hpp"

#include <algorithm>
#include <bit>

#include "bitplane/negabinary.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define IPCOMP_X86_KERNELS 1
#include <immintrin.h>
#else
#define IPCOMP_X86_KERNELS 0
#endif

namespace ipcomp {

namespace {

// ---- scalar tier ---------------------------------------------------------
//
// Sparse-friendly: each value contributes popcount(v) word updates, so tiles
// of near-zero codes (the common case after good prediction) cost almost
// nothing.  Also the fallback every SIMD tier takes for partial tiles.

std::uint32_t tile_fwd_scalar(const std::uint32_t* v, std::size_t n,
                              std::uint64_t* words) {
  std::uint32_t orall = 0;
  for (std::size_t j = 0; j < n; ++j) orall |= v[j];
  std::uint32_t bits = orall;
  while (bits) {
    words[std::countr_zero(bits)] = 0;
    bits &= bits - 1;
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::uint32_t x = v[j];
    while (x) {
      words[std::countr_zero(x)] |= std::uint64_t{1} << j;
      x &= x - 1;
    }
  }
  return orall;
}

std::uint64_t tile_fwd_one_scalar(const std::uint32_t* v, std::size_t n,
                                  unsigned k) {
  std::uint64_t w = 0;
  for (std::size_t j = 0; j < n; ++j) {
    w |= static_cast<std::uint64_t>((v[j] >> k) & 1u) << j;
  }
  return w;
}

void tile_deposit_scalar(std::uint32_t* v, std::size_t n,
                         const std::uint64_t* words, const unsigned* ks,
                         std::size_t nk) {
  for (std::size_t t = 0; t < nk; ++t) {
    const std::uint32_t bit = std::uint32_t{1} << ks[t];
    std::uint64_t w = words[t];
    if (n < kTileValues) w &= (n == 0) ? 0 : (~std::uint64_t{0} >> (64 - n));
    while (w) {
      v[std::countr_zero(w)] |= bit;
      w &= w - 1;
    }
  }
}

// Truncation-loss kernel shared pieces: the depth's mask and negabinary
// offset, the scalar min/max walk (every tier's tail), and the merge of one
// depth's w-range into the table.

inline std::uint32_t depth_mask(unsigned d) {
  return d >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << d) - 1u;
}

void minmax_w_scalar(const std::uint32_t* v, std::size_t n, std::uint32_t m,
                     std::uint32_t a, std::uint32_t& lo, std::uint32_t& hi) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t w = (v[j] & m) ^ a;
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
}

void merge_depth(std::int64_t* loss, unsigned d, unsigned top,
                 std::uint32_t lo, std::uint32_t hi) {
  const std::int64_t a = kNegabinaryMask & depth_mask(d);
  const std::int64_t r = std::max(std::int64_t{hi} - a, a - std::int64_t{lo});
  // Values are below 2^top: every depth from top on drops all their bits.
  const unsigned last = d == top ? 32u : d;
  for (unsigned e = d; e <= last; ++e) loss[e] = std::max(loss[e], r);
}

void loss_update_scalar(const std::uint32_t* v, std::size_t n, unsigned top,
                        std::int64_t* loss) {
  if (n == 0) return;
  for (unsigned d = 1; d <= top; ++d) {
    const std::uint32_t m = depth_mask(d);
    std::uint32_t lo = ~std::uint32_t{0};
    std::uint32_t hi = 0;
    minmax_w_scalar(v, n, m, kNegabinaryMask & m, lo, hi);
    merge_depth(loss, d, top, lo, hi);
  }
}

constexpr TransposeOps kScalarOps{tile_fwd_scalar, tile_fwd_one_scalar,
                                  tile_deposit_scalar, loss_update_scalar};

#if IPCOMP_X86_KERNELS

// ---- SSE2 tier -----------------------------------------------------------
//
// 4 values per vector; _mm_movemask_ps reads the 4 sign bits, so shifting
// plane k up to the sign position turns one plane of 4 values into 4 bits.
// Full tiles only; partial tiles fall through to scalar.

__attribute__((target("sse2"))) std::uint32_t tile_fwd_sse2(
    const std::uint32_t* v, std::size_t n, std::uint64_t* words) {
  if (n < kTileValues) return tile_fwd_scalar(v, n, words);
  const auto* p = reinterpret_cast<const __m128i*>(v);
  __m128i acc = _mm_loadu_si128(p);
  for (int g = 1; g < 16; ++g) acc = _mm_or_si128(acc, _mm_loadu_si128(p + g));
  acc = _mm_or_si128(acc, _mm_shuffle_epi32(acc, 0x4E));
  acc = _mm_or_si128(acc, _mm_shuffle_epi32(acc, 0xB1));
  const auto orall = static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc));
  if (orall == 0) return 0;
  const unsigned top = 32u - static_cast<unsigned>(std::countl_zero(orall));
  for (unsigned k = 0; k < top; ++k) words[k] = 0;
  const __m128i lift = _mm_cvtsi32_si128(static_cast<int>(32 - top));
  for (int g = 0; g < 16; ++g) {
    __m128i x = _mm_sll_epi32(_mm_loadu_si128(p + g), lift);
    for (unsigned k = top; k-- > 0;) {
      const auto m = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(x)));
      words[k] |= static_cast<std::uint64_t>(m) << (4 * g);
      x = _mm_slli_epi32(x, 1);
    }
  }
  return orall;
}

__attribute__((target("sse2"))) std::uint64_t tile_fwd_one_sse2(
    const std::uint32_t* v, std::size_t n, unsigned k) {
  if (n < kTileValues) return tile_fwd_one_scalar(v, n, k);
  const auto* p = reinterpret_cast<const __m128i*>(v);
  const __m128i lift = _mm_cvtsi32_si128(static_cast<int>(31 - k));
  std::uint64_t w = 0;
  for (int g = 0; g < 16; ++g) {
    const __m128i x = _mm_sll_epi32(_mm_loadu_si128(p + g), lift);
    const auto m = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(x)));
    w |= static_cast<std::uint64_t>(m) << (4 * g);
  }
  return w;
}

__attribute__((target("sse2"))) void tile_deposit_sse2(
    std::uint32_t* v, std::size_t n, const std::uint64_t* words,
    const unsigned* ks, std::size_t nk) {
  if (n < kTileValues) {
    tile_deposit_scalar(v, n, words, ks, nk);
    return;
  }
  // Hybrid: sparse words cost ~popcount scalar OR-ins, the vector expand a
  // fixed ~6 ops per 4-value group — route each word to whichever is cheaper
  // (cutoffs measured with bench_bitplane on the interp-residual profile).
  std::uint64_t dense_w[32];
  unsigned dense_k[32];
  std::size_t nd = 0;
  for (std::size_t t = 0; t < nk; ++t) {
    if (std::popcount(words[t]) < 24) {
      tile_deposit_scalar(v, n, &words[t], &ks[t], 1);
    } else {
      dense_w[nd] = words[t];
      dense_k[nd] = ks[t];
      ++nd;
    }
  }
  if (nd == 0) return;
  const __m128i lane = _mm_setr_epi32(1, 2, 4, 8);
  auto* p = reinterpret_cast<__m128i*>(v);
  __m128i xs[16];
  for (int g = 0; g < 16; ++g) xs[g] = _mm_loadu_si128(p + g);
  for (std::size_t t = 0; t < nd; ++t) {
    const __m128i bit = _mm_set1_epi32(static_cast<int>(1u << dense_k[t]));
    for (int g = 0; g < 16; ++g) {
      const auto nib = static_cast<int>((dense_w[t] >> (4 * g)) & 0xF);
      if (nib == 0) continue;
      const __m128i hit =
          _mm_cmpeq_epi32(_mm_and_si128(_mm_set1_epi32(nib), lane), lane);
      xs[g] = _mm_or_si128(xs[g], _mm_and_si128(hit, bit));
    }
  }
  for (int g = 0; g < 16; ++g) _mm_storeu_si128(p + g, xs[g]);
}

// SSE2 has no unsigned 32-bit min/max: flipping the sign bit (folded into
// the XOR constant) makes signed order equal unsigned order, and the signed
// min/max are a compare plus blend.
__attribute__((target("sse2"))) void loss_update_sse2(
    const std::uint32_t* v, std::size_t n, unsigned top, std::int64_t* loss) {
  if (n == 0) return;
  constexpr std::uint32_t kSign = 0x80000000u;
  const std::size_t nv = n & ~std::size_t{3};
  const auto* p = reinterpret_cast<const __m128i*>(v);
  for (unsigned d = 1; d <= top; ++d) {
    const std::uint32_t m = depth_mask(d);
    const std::uint32_t a = kNegabinaryMask & m;
    std::uint32_t lo = ~std::uint32_t{0};
    std::uint32_t hi = 0;
    if (nv != 0) {
      const __m128i mv = _mm_set1_epi32(static_cast<int>(m));
      const __m128i av = _mm_set1_epi32(static_cast<int>(a ^ kSign));
      __m128i vlo = _mm_set1_epi32(0x7FFFFFFF);
      __m128i vhi = _mm_set1_epi32(static_cast<int>(kSign));
      for (std::size_t g = 0; g < nv / 4; ++g) {
        const __m128i w =
            _mm_xor_si128(_mm_and_si128(_mm_loadu_si128(p + g), mv), av);
        const __m128i lt = _mm_cmplt_epi32(w, vlo);
        vlo = _mm_or_si128(_mm_and_si128(lt, w), _mm_andnot_si128(lt, vlo));
        const __m128i gt = _mm_cmpgt_epi32(w, vhi);
        vhi = _mm_or_si128(_mm_and_si128(gt, w), _mm_andnot_si128(gt, vhi));
      }
      alignas(16) std::uint32_t los[4];
      alignas(16) std::uint32_t his[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(los), vlo);
      _mm_store_si128(reinterpret_cast<__m128i*>(his), vhi);
      for (int i = 0; i < 4; ++i) {
        lo = std::min(lo, los[i] ^ kSign);
        hi = std::max(hi, his[i] ^ kSign);
      }
    }
    minmax_w_scalar(v + nv, n - nv, m, a, lo, hi);
    merge_depth(loss, d, top, lo, hi);
  }
}

constexpr TransposeOps kSse2Ops{tile_fwd_sse2, tile_fwd_one_sse2,
                                tile_deposit_sse2, loss_update_sse2};

// ---- AVX2 tier -----------------------------------------------------------
//
// Same movemask walk at 8 values per vector: 8 groups x top planes per tile.

__attribute__((target("avx2"))) std::uint32_t tile_fwd_avx2(
    const std::uint32_t* v, std::size_t n, std::uint64_t* words) {
  if (n < kTileValues) return tile_fwd_scalar(v, n, words);
  const auto* p = reinterpret_cast<const __m256i*>(v);
  __m256i acc = _mm256_loadu_si256(p);
  for (int g = 1; g < 8; ++g) {
    acc = _mm256_or_si256(acc, _mm256_loadu_si256(p + g));
  }
  const __m128i half = _mm_or_si128(_mm256_castsi256_si128(acc),
                                    _mm256_extracti128_si256(acc, 1));
  __m128i fold = _mm_or_si128(half, _mm_shuffle_epi32(half, 0x4E));
  fold = _mm_or_si128(fold, _mm_shuffle_epi32(fold, 0xB1));
  const auto orall = static_cast<std::uint32_t>(_mm_cvtsi128_si32(fold));
  if (orall == 0) return 0;
  const unsigned top = 32u - static_cast<unsigned>(std::countl_zero(orall));
  for (unsigned k = 0; k < top; ++k) words[k] = 0;
  const __m128i lift = _mm_cvtsi32_si128(static_cast<int>(32 - top));
  for (int g = 0; g < 8; ++g) {
    __m256i x = _mm256_sll_epi32(_mm256_loadu_si256(p + g), lift);
    for (unsigned k = top; k-- > 0;) {
      const auto m =
          static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(x)));
      words[k] |= static_cast<std::uint64_t>(m) << (8 * g);
      x = _mm256_slli_epi32(x, 1);
    }
  }
  return orall;
}

__attribute__((target("avx2"))) std::uint64_t tile_fwd_one_avx2(
    const std::uint32_t* v, std::size_t n, unsigned k) {
  if (n < kTileValues) return tile_fwd_one_scalar(v, n, k);
  const auto* p = reinterpret_cast<const __m256i*>(v);
  const __m128i lift = _mm_cvtsi32_si128(static_cast<int>(31 - k));
  std::uint64_t w = 0;
  for (int g = 0; g < 8; ++g) {
    const __m256i x = _mm256_sll_epi32(_mm256_loadu_si256(p + g), lift);
    const auto m =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(x)));
    w |= static_cast<std::uint64_t>(m) << (8 * g);
  }
  return w;
}

__attribute__((target("avx2"))) void tile_deposit_avx2(
    std::uint32_t* v, std::size_t n, const std::uint64_t* words,
    const unsigned* ks, std::size_t nk) {
  if (n < kTileValues) {
    tile_deposit_scalar(v, n, words, ks, nk);
    return;
  }
  // Same hybrid as the SSE2 tier, at 8 values per expand.  The dense path is
  // branchless: the whole plane word is splatted once, then vpshufb selects
  // byte g into every lane of group g (~5 ops per group).
  std::uint64_t dense_w[32];
  unsigned dense_k[32];
  std::size_t nd = 0;
  for (std::size_t t = 0; t < nk; ++t) {
    if (std::popcount(words[t]) < 10) {
      tile_deposit_scalar(v, n, &words[t], &ks[t], 1);
    } else {
      dense_w[nd] = words[t];
      dense_k[nd] = ks[t];
      ++nd;
    }
  }
  if (nd == 0) return;
  const __m256i lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  auto* p = reinterpret_cast<__m256i*>(v);
  __m256i xs[8];
  for (int g = 0; g < 8; ++g) xs[g] = _mm256_loadu_si256(p + g);
  for (std::size_t t = 0; t < nd; ++t) {
    const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(dense_w[t]));
    const __m256i bit = _mm256_set1_epi32(static_cast<int>(1u << dense_k[t]));
    for (int g = 0; g < 8; ++g) {
      const __m256i splat = _mm256_shuffle_epi8(wv, _mm256_set1_epi8(
          static_cast<char>(g)));
      const __m256i hit =
          _mm256_cmpeq_epi32(_mm256_and_si256(splat, lane), lane);
      xs[g] = _mm256_or_si256(xs[g], _mm256_and_si256(hit, bit));
    }
  }
  for (int g = 0; g < 8; ++g) _mm256_storeu_si256(p + g, xs[g]);
}

__attribute__((target("avx2"))) void loss_update_avx2(
    const std::uint32_t* v, std::size_t n, unsigned top, std::int64_t* loss) {
  if (n == 0) return;
  const std::size_t nv = n & ~std::size_t{7};
  const auto* p = reinterpret_cast<const __m256i*>(v);
  for (unsigned d = 1; d <= top; ++d) {
    const std::uint32_t m = depth_mask(d);
    const std::uint32_t a = kNegabinaryMask & m;
    std::uint32_t lo = ~std::uint32_t{0};
    std::uint32_t hi = 0;
    if (nv != 0) {
      const __m256i mv = _mm256_set1_epi32(static_cast<int>(m));
      const __m256i av = _mm256_set1_epi32(static_cast<int>(a));
      __m256i vlo = _mm256_set1_epi32(-1);
      __m256i vhi = _mm256_setzero_si256();
      for (std::size_t g = 0; g < nv / 8; ++g) {
        const __m256i w = _mm256_xor_si256(
            _mm256_and_si256(_mm256_loadu_si256(p + g), mv), av);
        vlo = _mm256_min_epu32(vlo, w);
        vhi = _mm256_max_epu32(vhi, w);
      }
      alignas(32) std::uint32_t los[8];
      alignas(32) std::uint32_t his[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(los), vlo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(his), vhi);
      for (int i = 0; i < 8; ++i) {
        lo = std::min(lo, los[i]);
        hi = std::max(hi, his[i]);
      }
    }
    minmax_w_scalar(v + nv, n - nv, m, a, lo, hi);
    merge_depth(loss, d, top, lo, hi);
  }
}

constexpr TransposeOps kAvx2Ops{tile_fwd_avx2, tile_fwd_one_avx2,
                                tile_deposit_avx2, loss_update_avx2};

#endif  // IPCOMP_X86_KERNELS

}  // namespace

const TransposeOps& transpose_ops(SimdLevel level) {
#if IPCOMP_X86_KERNELS
  // Clamp to the hardware: handing out an AVX2 table on a non-AVX2 machine
  // would fault at the first call.
  const SimdLevel hw = detected_simd_level();
  if (level > hw) level = hw;
  switch (level) {
    case SimdLevel::kAvx2: return kAvx2Ops;
    case SimdLevel::kSse2: return kSse2Ops;
    case SimdLevel::kScalar: break;
  }
#else
  (void)level;
#endif
  return kScalarOps;
}

const TransposeOps& transpose_ops() { return transpose_ops(simd_level()); }

}  // namespace ipcomp
