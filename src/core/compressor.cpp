#include "core/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/header.hpp"
#include "io/archive.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

namespace {

template <typename T>
std::pair<double, double> min_max(NdConstView<T> v) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < v.count(); ++i) {
    double x = static_cast<double>(v[i]);
    if (std::isfinite(x)) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (!std::isfinite(lo)) {
    lo = 0.0;
    hi = 0.0;
  }
  return {lo, hi};
}

}  // namespace

double resolve_error_bound(const Options& opt, double data_min, double data_max) {
  // Negated comparison so NaN bounds are rejected too, not quantized with.
  if (!(opt.error_bound > 0.0) || !std::isfinite(opt.error_bound)) {
    throw std::invalid_argument("ipcomp: error bound must be positive");
  }
  if (!opt.relative) return opt.error_bound;
  double range = data_max - data_min;
  if (range <= 0.0) range = 1.0;  // constant field: any positive bound works
  return opt.error_bound * range;
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
  // field-sized allocation for them.
  std::vector<T> xhat;
  if (backend.needs_work_buffer()) {
    xhat.assign(input.span().begin(), input.span().end());
  }
  T* const work = xhat.empty() ? nullptr : xhat.data();
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
  parallel_for(0, grid.n_blocks, [&](std::size_t b) {
    const std::size_t org = grid.origin_linear(b);
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
