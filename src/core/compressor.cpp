#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

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

/// Copy block `b`'s region of the field into the work buffer, line by line
/// (lines run along the contiguous last dimension).
template <typename T>
void copy_block(const T* src, T* dst, const BlockGrid& grid, std::size_t b,
                const std::array<std::size_t, kMaxRank>& estrides) {
  const Dims bd = grid.block_dims(b);
  const std::size_t org = grid.origin_linear(b);
  const std::size_t row = bd[bd.rank() - 1];
  if (row == 0) return;
  parallel_for(0, bd.count() / row, [&](std::size_t line) {
    const std::size_t off = org + block_line_offset(bd, estrides, line);
    std::copy_n(src + off, row, dst + off);
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

  // The work buffer is a mutable copy of the field (interp keeps its in-loop
  // reconstruction there); transform backends never touch it, so skip the
  // field-sized allocation for them.  It is allocated uninitialized and each
  // block copies its own region inside the parallel block loop, which
  // spreads the copy and its first-touch page faults over the threads.
  std::unique_ptr<T[]> xhat;
  if (backend.needs_work_buffer()) {
    xhat = std::make_unique_for_overwrite<T[]>(dims.count());
  }
  T* const work = xhat.get();
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

  // The whole pipeline runs per block, concurrently.  grain=2 keeps a lone
  // block (the whole-field default) out of a parallel region so its inner
  // loops can still use the pool.
  std::vector<BlockCompressResult> results(grid.n_blocks);
  // The block copy is nested (serial) inside the loop, and runs in parallel
  // for a lone block.
  parallel_for(0, grid.n_blocks, [&](std::size_t b) {
    const std::size_t org = grid.origin_linear(b);
    if (work) copy_block(original, work, grid, b, estrides);
    results[b] = backend.compress_block(original + org,
                                        work ? work + org : nullptr,
                                        grid.block_dims(b), estrides, eb, opt,
                                        static_cast<std::uint32_t>(b));
  }, /*grain=*/2);
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
