#include "bitplane/bitplane.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "util/parallel.hpp"

namespace ipcomp {

namespace {

// Plane buffers pack bit j of value j at byte j/8, bit j%8 — i.e. a tile's 8
// bytes are its plane word in little-endian order.  These helpers move
// (possibly partial, for tail tiles) words between buffers and registers.

std::uint64_t load_word(const std::uint8_t* p, std::size_t nbytes) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, nbytes);
    return w;
  } else {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < nbytes; ++i) {
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return w;
  }
}

void store_word(std::uint8_t* p, std::size_t nbytes, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &w, nbytes);
  } else {
    for (std::size_t i = 0; i < nbytes; ++i) {
      p[i] = static_cast<std::uint8_t>(w >> (8 * i));
    }
  }
}

inline std::size_t tile_count(std::size_t n) {
  return (n + kTileValues - 1) / kTileValues;
}

/// Per-tile grain for the plane loops: one tile is 64 values of word-level
/// work, so ~512 tiles (32 Ki values) is where forking a team starts paying.
constexpr std::size_t kTileGrain = 512;

/// Values per chunk of the fused encode pass: each chunk keeps its own OR
/// mask and loss table, merged by OR/max afterwards, so the result does not
/// depend on the thread count.
constexpr std::size_t kLossChunk = 1 << 16;

/// Tiles per loss-kernel call: 1 Ki values (4 KiB of codes) stay L1-resident
/// across the kernel's per-depth passes.
constexpr std::size_t kLossGroupTiles = 16;

}  // namespace

PlaneBits extract_plane(const TransposeOps& ops,
                        std::span<const std::uint32_t> values, unsigned k) {
  const std::size_t n = values.size();
  PlaneBits out(plane_bytes(n), 0);
  parallel_for(0, tile_count(n), [&](std::size_t t) {
    const std::size_t lo = t * kTileValues;
    const std::size_t cnt = std::min(kTileValues, n - lo);
    const std::uint64_t w = ops.tile_fwd_one(values.data() + lo, cnt, k);
    store_word(out.data() + 8 * t, plane_bytes(cnt), w);
  }, kTileGrain);
  return out;
}

PlaneBits extract_plane(std::span<const std::uint32_t> values, unsigned k) {
  return extract_plane(transpose_ops(), values, k);
}

void deposit_planes(const TransposeOps& ops, std::span<std::uint32_t> values,
                    std::span<const PlaneSpan> planes) {
  if (planes.size() > kPlaneCount) {
    throw std::invalid_argument("deposit_planes: more planes than bits");
  }
  for (const PlaneSpan& p : planes) {
    if (p.k >= kPlaneCount) {
      throw std::invalid_argument("deposit_planes: plane index out of range");
    }
  }
  const std::size_t n = values.size();
  parallel_for(0, tile_count(n), [&](std::size_t t) {
    const std::size_t lo = t * kTileValues;
    const std::size_t cnt = std::min(kTileValues, n - lo);
    std::uint64_t words[kPlaneCount];
    unsigned ks[kPlaneCount];
    std::size_t nk = 0;
    for (const PlaneSpan& p : planes) {
      // A plane may legally cover fewer values (trailing bytes absent =
      // zero); clamp the word load to what it stores.
      if (8 * t >= p.bits.size()) continue;
      const std::size_t avail = std::min<std::size_t>(
          plane_bytes(cnt), p.bits.size() - 8 * t);
      const std::uint64_t w = load_word(p.bits.data() + 8 * t, avail);
      if (w == 0) continue;  // zero-word skip: nothing to OR in this tile
      words[nk] = w;
      ks[nk] = p.k;
      ++nk;
    }
    if (nk) ops.tile_deposit(values.data() + lo, cnt, words, ks, nk);
  }, kTileGrain);
}

void deposit_planes(std::span<std::uint32_t> values,
                    std::span<const PlaneSpan> planes) {
  deposit_planes(transpose_ops(), values, planes);
}

LevelEncoding encode_level(const TransposeOps& ops,
                           std::span<const std::uint32_t> codes,
                           bool with_loss) {
  LevelEncoding enc;
  const std::size_t n = codes.size();
  const std::size_t nbytes = plane_bytes(n);
  std::vector<PlaneBits> planes(kPlaneCount);
  for (auto& p : planes) p.assign(nbytes, 0);

  // One chunked pass: each chunk transposes its tiles into the plane buffers
  // (disjoint byte ranges) and, group by group while the codes are still
  // cache-hot, feeds the same values to the loss kernel, which only walks the
  // depths up to the group's top plane.  Chunk-local OR masks and loss tables
  // merge by OR/max (the per-depth maximum commutes with partitioning the
  // value set), so the result is thread-count independent.
  constexpr std::size_t kChunkTiles = kLossChunk / kTileValues;
  const std::size_t tiles = tile_count(n);
  const std::size_t n_chunks = (tiles + kChunkTiles - 1) / kChunkTiles;
  std::vector<std::uint32_t> chunk_or(n_chunks, 0);
  std::vector<std::array<std::int64_t, kPlaneCount + 1>> chunk_loss(
      with_loss ? n_chunks : 0);
  parallel_chunks(0, tiles, kChunkTiles, [&](std::size_t t_lo,
                                             std::size_t t_hi) {
    const std::size_t c = t_lo / kChunkTiles;
    if (with_loss) chunk_loss[c] = {};
    std::uint32_t orall = 0;
    for (std::size_t g_lo = t_lo; g_lo < t_hi; g_lo += kLossGroupTiles) {
      const std::size_t g_hi = std::min(t_hi, g_lo + kLossGroupTiles);
      std::uint32_t group_or = 0;
      for (std::size_t t = g_lo; t < g_hi; ++t) {
        const std::size_t lo = t * kTileValues;
        const std::size_t cnt = std::min(kTileValues, n - lo);
        std::uint64_t words[kPlaneCount];
        std::uint32_t mask = ops.tile_fwd(codes.data() + lo, cnt, words);
        group_or |= mask;
        while (mask) {
          const unsigned k = static_cast<unsigned>(std::countr_zero(mask));
          mask &= mask - 1;
          store_word(planes[k].data() + 8 * t, plane_bytes(cnt), words[k]);
        }
      }
      orall |= group_or;
      if (with_loss && group_or != 0) {
        const std::size_t v_lo = g_lo * kTileValues;
        const std::size_t v_hi = std::min(n, g_hi * kTileValues);
        ops.loss_update(codes.data() + v_lo, v_hi - v_lo,
                        32u - static_cast<unsigned>(std::countl_zero(group_or)),
                        chunk_loss[c].data());
      }
    }
    chunk_or[c] = orall;
  });

  std::uint32_t orall = 0;
  for (std::uint32_t m : chunk_or) orall |= m;
  enc.n_planes = orall == 0 ? 0 : 32 - static_cast<unsigned>(std::countl_zero(orall));
  if (with_loss) {
    for (const auto& t : chunk_loss) {
      for (unsigned d = 0; d <= kPlaneCount; ++d) {
        enc.loss[d] = std::max(enc.loss[d], t[d]);
      }
    }
  }
  planes.resize(enc.n_planes);
  enc.planes = std::move(planes);
  return enc;
}

LevelEncoding encode_level(std::span<const std::uint32_t> codes,
                           bool with_loss) {
  return encode_level(transpose_ops(), codes, with_loss);
}

}  // namespace ipcomp
