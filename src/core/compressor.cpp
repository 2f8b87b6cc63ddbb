#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bitplane/bitplane.hpp"
#include "coding/codec.hpp"
#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/header.hpp"
#include "io/archive.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

/// Values per chunk of the range scan.  Chunk boundaries are fixed, and
/// min/max is exact, so the range does not depend on the thread count.
constexpr std::size_t kRangeChunk = 1 << 16;

/// Finite min/max of the field (0/0 when no value is finite).
template <typename T>
std::pair<double, double> min_max(NdConstView<T> v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const T* data = v.data();
  const std::size_t n = v.count();
  const std::size_t n_chunks = (n + kRangeChunk - 1) / kRangeChunk;
  std::vector<std::pair<double, double>> part(n_chunks, {kInf, -kInf});
  parallel_chunks(0, n, kRangeChunk, [&](std::size_t lo, std::size_t hi) {
    double mn = kInf;
    double mx = -kInf;
    for (std::size_t i = lo; i < hi; ++i) {
      const double x = static_cast<double>(data[i]);
      if (std::isfinite(x)) {
        mn = std::min(mn, x);
        mx = std::max(mx, x);
      }
    }
    part[lo / kRangeChunk] = {mn, mx};
  });
  double lo = kInf;
  double hi = -kInf;
  for (const auto& [mn, mx] : part) {
    lo = std::min(lo, mn);
    hi = std::max(hi, mx);
  }
  if (!std::isfinite(lo)) {
    lo = 0.0;
    hi = 0.0;
  }
  return {lo, hi};
}

/// Gather the block of extents `bd` at field offset `org` into the dense
/// tile `dst` (row-major over `bd`), one contiguous line at a time.
template <typename T>
void gather_block(const T* src, T* dst, const Dims& bd, std::size_t org,
                  const std::array<std::size_t, kMaxRank>& estrides) {
  const std::size_t row = bd[bd.rank() - 1];
  if (row == 0) return;
  parallel_for(0, bd.count() / row, [&](std::size_t line) {
    std::copy_n(src + org + block_line_offset(bd, estrides, line), row,
                dst + line * row);
  }, /*grain=*/64);
}

}  // namespace

double resolve_error_bound(const Options& opt, double data_min, double data_max) {
  // Negated comparison so NaN bounds are rejected too, not quantized with.
  if (!(opt.error_bound > 0.0) || !std::isfinite(opt.error_bound)) {
    throw std::invalid_argument("ipcomp: error bound must be positive");
  }
  double eb = opt.error_bound;
  if (opt.relative) {
    double range = data_max - data_min;
    if (range <= 0.0) range = 1.0;  // constant field: any positive bound works
    eb *= range;
  }
  // The quantizer's bin width is 2*eb: a bound whose double overflows (or a
  // relative bound over a range that does) would decode to inf/NaN, and one
  // that underflows to zero cannot quantize at all.
  if (!(eb > 0.0) || !std::isfinite(2.0 * eb)) {
    throw std::invalid_argument(
        "ipcomp: error bound must resolve to a positive value whose double is "
        "finite");
  }
  return eb;
}

template <typename T>
double resolve_error_bound(NdConstView<T> input, const Options& opt) {
  auto [lo, hi] = min_max(input);
  return resolve_error_bound(opt, lo, hi);
}

template <typename T>
Bytes compress(NdConstView<T> input, const Options& opt) {
  // Reject bad options before any work.  The header stores the prefix width
  // as a u8, so 256 would read back as 0 (no predictive decode) and silently
  // corrupt every plane; widths past the plane count XOR nothing more.
  if (opt.prefix_bits > kPlaneCount) {
    throw std::invalid_argument("ipcomp: prefix_bits must be <= 32");
  }
  if (!codec_policy_known(static_cast<std::uint8_t>(opt.codec))) {
    throw std::invalid_argument("ipcomp: unknown codec policy");
  }
  const ProgressiveBackend& backend = backend_for(opt.backend);
  const Dims dims = input.dims();
  // One write path: side 0 (the default) asks for the whole field, which
  // like any side >= the largest extent is one block per dimension, so both
  // clamp there.  The header stores the side as u32, and grid and header must
  // derive from the same value or the archive becomes unreadable.
  const std::size_t max_side = std::max<std::size_t>(2, dims.max_extent());
  const std::size_t block_side =
      opt.block_side != 0 ? std::min(opt.block_side, max_side) : max_side;
  if (block_side > 0xFFFFFFFFu) {
    throw std::invalid_argument("ipcomp: block side too large");
  }
  const BlockGrid grid = BlockGrid::analyze(dims, block_side);

  auto [lo, hi] = min_max(input);
  const double eb = resolve_error_bound(opt, lo, hi);

  const T* original = input.data();
  const auto estrides = dims.strides();

  Header header;
  header.dtype = data_type_of<T>();
  header.dims = dims;
  header.eb = eb;
  header.interp = opt.interp;
  header.prefix_bits = opt.prefix_bits;
  header.data_min = lo;
  header.data_max = hi;
  header.block_side = static_cast<std::uint32_t>(block_side);
  header.backend = opt.backend;
  header.backend_meta = backend.metadata(header);

  // The interpolation backend writes the v2 container; any other backend
  // needs the v3 header (backend id + metadata) and therefore v3.
  ArchiveBuilder builder;
  builder.set_version(opt.backend == BackendId::kInterp ? kArchiveV2
                                                        : kArchiveV3);
  builder.set_integrity(opt.integrity);

  // The whole pipeline runs per block, concurrently, blocks handed out as
  // workers free up.  Each worker gathers its block into a dense tile sized
  // to one block (block 0 is never clipped, so it is the largest) and
  // compresses it in place: original and work are the same tile (see
  // ProgressiveBackend::compress_block).  A lone block (the whole-field
  // default) runs outside a parallel region on one field-sized tile, so its
  // gather and inner loops use the pool.
  const std::size_t tile_count = grid.block_dims(0).count();
  std::vector<BlockCompressResult> results(grid.n_blocks);
  parallel_for_dynamic_ex(
      0, grid.n_blocks,
      [&] { return std::make_unique_for_overwrite<T[]>(tile_count); },
      [&](std::unique_ptr<T[]>& tile, std::size_t b) {
        const Dims bd = grid.block_dims(b);
        gather_block(original, tile.get(), bd, grid.origin_linear(b), estrides);
        results[b] = backend.compress_block(tile.get(), tile.get(), bd,
                                            bd.strides(), eb, opt,
                                            static_cast<std::uint32_t>(b));
      });
  header.block_levels.resize(grid.n_blocks);
  for (std::size_t b = 0; b < grid.n_blocks; ++b) {
    header.block_levels[b] = std::move(results[b].levels);
    for (auto& [id, payload] : results[b].segments) {
      builder.add_segment(id, std::move(payload));
    }
  }

  builder.set_header(header.serialize());
  return builder.finish();
}

template Bytes compress<float>(NdConstView<float>, const Options&);
template Bytes compress<double>(NdConstView<double>, const Options&);
template double resolve_error_bound<float>(NdConstView<float>, const Options&);
template double resolve_error_bound<double>(NdConstView<double>, const Options&);

}  // namespace ipcomp
