// Differential test of compress()'s block driver.  compress() gathers each
// block into a dense per-worker tile, reuses that tile across blocks of
// different (edge-clipped) shapes, and hands blocks out dynamically.  The
// oracle below assembles the archive the plain way instead: every block
// compressed through ProgressiveBackend::compress_block on the strided
// field view, in block order, on the calling thread.  The two archives must
// be byte-equal for both backends, both value types, shapes the block side
// does not divide, and 1 vs N threads.  A stale value left in a reused tile
// or a block result stored under the wrong ordinal shows up as a diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/compressor.hpp"
#include "core/header.hpp"
#include "io/archive.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::smooth_field;

/// The archive compress() must write, built block by block from the
/// strided field view with the field's strides and a separate work copy.
template <typename T>
Bytes strided_oracle(const NdArray<T>& field, const Options& opt) {
  const ProgressiveBackend& backend = backend_for(opt.backend);
  const Dims dims = field.dims();
  const std::size_t max_side = std::max<std::size_t>(2, dims.max_extent());
  const std::size_t side =
      opt.block_side != 0 ? std::min(opt.block_side, max_side) : max_side;
  const BlockGrid grid = BlockGrid::analyze(dims, side);

  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (T v : field.vector()) {
    lo = std::min(lo, static_cast<double>(v));
    hi = std::max(hi, static_cast<double>(v));
  }
  const double eb = resolve_error_bound(opt, lo, hi);

  Header header;
  header.dtype = data_type_of<T>();
  header.dims = dims;
  header.eb = eb;
  header.interp = opt.interp;
  header.prefix_bits = opt.prefix_bits;
  header.data_min = lo;
  header.data_max = hi;
  header.block_side = static_cast<std::uint32_t>(side);
  header.backend = opt.backend;
  header.backend_meta = backend.metadata(header);

  ArchiveBuilder builder;
  builder.set_version(opt.backend == BackendId::kInterp ? kArchiveV2
                                                        : kArchiveV3);
  builder.set_integrity(opt.integrity);
  std::vector<T> work(field.vector());
  const auto estrides = dims.strides();
  for (std::size_t b = 0; b < grid.n_blocks; ++b) {
    const std::size_t org = grid.origin_linear(b);
    BlockCompressResult r = backend.compress_block(
        field.data() + org, work.data() + org, grid.block_dims(b), estrides,
        eb, opt, static_cast<std::uint32_t>(b));
    header.block_levels.push_back(std::move(r.levels));
    for (auto& [id, payload] : r.segments) {
      builder.add_segment(id, std::move(payload));
    }
  }
  builder.set_header(header.serialize());
  return builder.finish();
}

/// compress() at 1 thread and at 4 threads must both equal the oracle.
template <typename T>
void expect_matches_oracle(const NdArray<T>& field, const Options& opt,
                           const std::string& what) {
  const Bytes want = strided_oracle(field, opt);
#if defined(_OPENMP)
  const int saved = omp_get_max_threads();
#endif
  for (int threads : {1, 4}) {
#if defined(_OPENMP)
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    const Bytes got = compress(field.const_view(), opt);
    EXPECT_EQ(got, want) << what << " block_side " << opt.block_side
                         << " threads " << threads;
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved);
#endif
}

struct Shape {
  Dims dims;
  std::size_t side;
};

class CompressOracle : public ::testing::TestWithParam<BackendId> {};

TEST_P(CompressOracle, TiledDriverMatchesStridedBlocks) {
  Options opt;
  opt.backend = GetParam();
  opt.error_bound = 1e-5;
  // Small enough that the larger levels of these small blocks are bitplaned.
  opt.progressive_threshold = 64;
  const Shape shapes[] = {
      {Dims{70, 45}, 16},          // 2-D, clipped in both dimensions
      {Dims{1001}, 16},            // 1-D, one short tail block
      {Dims{33, 17, 9}, 8},        // 3-D, every dimension clipped
      {Dims{10, 9, 7, 6}, 4},      // 4-D
      {Dims{40, 24, 20}, 0},       // lone block: the whole field
  };
  std::uint64_t seed = 60;
  for (const Shape& s : shapes) {
    opt.block_side = s.side;
    const std::string what = std::string(to_string(opt.backend)) + " " +
                             std::to_string(s.dims.rank()) + "-D";
    expect_matches_oracle(smooth_field(s.dims, seed, 0.03), opt, what + " f64");
    expect_matches_oracle(smooth_field<float>(s.dims, seed + 1, 0.03), opt,
                          what + " f32");
    seed += 2;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CompressOracle,
                         ::testing::Values(BackendId::kInterp,
                                           BackendId::kWavelet),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace ipcomp
