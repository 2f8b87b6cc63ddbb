// Word-parallel 32x64 bit-matrix transpose kernels.
//
// The bitplane stages view a run of 64 quantized (negabinary) uint32 codes as
// a 64x32 bit matrix; transposing it yields one uint64 *plane word* per bit
// position k whose bit j is bit k of code j.  Because packed plane buffers
// store bit j of value j at byte j/8, bit j%8, a plane word is exactly the
// little-endian 8-byte run of that plane's buffer — extraction writes whole
// words and deposit reads whole words, 64 values at a time, instead of
// shifting one bit per value.
//
// Three kernel tiers share this contract (scalar / SSE2 / AVX2); the ambient
// set is picked once per process by simd_level() (util/cpu.hpp, overridable
// via IPCOMP_SIMD).  Tests and benchmarks grab a specific tier through
// transpose_ops(level) to prove the tiers bit-identical.
//
// The same tiers carry the truncation-loss kernel of the fused level
// encoder (bitplane.hpp, LevelEncoding::loss): it runs over the codes a
// transpose pass has just left in cache, so it is dispatched alongside.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu.hpp"

namespace ipcomp {

/// Values per transpose tile: one plane word's worth.
inline constexpr std::size_t kTileValues = 64;

struct TransposeOps {
  /// Transpose up to kTileValues values into per-plane words and return the
  /// OR of the values.  After the call, words[k] is valid for every k set in
  /// the returned mask; words for clear bits are NOT written (those planes
  /// are all-zero in this tile).  n <= kTileValues; partial tiles (n <
  /// kTileValues) take the scalar path inside every tier.
  std::uint32_t (*tile_fwd)(const std::uint32_t* v, std::size_t n,
                            std::uint64_t* words);
  /// One plane's word: bit j = bit k of v[j].
  std::uint64_t (*tile_fwd_one)(const std::uint32_t* v, std::size_t n,
                                unsigned k);
  /// OR nk plane words into values: bit j of words[t] sets bit ks[t] of v[j].
  void (*tile_deposit)(std::uint32_t* v, std::size_t n,
                       const std::uint64_t* words, const unsigned* ks,
                       std::size_t nk);
  /// Max-merge the truncation losses of v[0..n) into loss[0..32]: entry d
  /// becomes max(loss[d], max_j |Σ_{i<d} b_i(v[j]) (-2)^i|).  Every v[j]
  /// must be below 2^top (top <= 32), so only depths 1..top take a pass and
  /// deeper entries merge depth top's value.  Per depth d, with m = 2^d - 1
  /// and A = 0xAAAAAAAA & m, the dropped value is w - A for w = (v & m) ^ A,
  /// monotone in w, so the loss is max(max w - A, A - min w): an unsigned
  /// 32-bit min/max per lane.
  void (*loss_update)(const std::uint32_t* v, std::size_t n, unsigned top,
                      std::int64_t* loss);
};

/// Kernel set for an explicit tier, clamped to what this build supports
/// (non-x86 builds only ship scalar).
const TransposeOps& transpose_ops(SimdLevel level);

/// Ambient dispatched kernel set (simd_level()).
const TransposeOps& transpose_ops();

}  // namespace ipcomp
