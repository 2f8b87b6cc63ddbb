// Deeper invariants of progressive retrieval, parameterized across request
// sequences: plan monotonicity, byte accounting, guarantee consistency, and
// equivalence between request orderings.
#include <gtest/gtest.h>

#include <tuple>

#include "ipcomp.hpp"
#include "mgard/mgard.hpp"
#include "test_util.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

struct Fixture {
  NdArray<double> field;
  Bytes archive;
  double eb;

  explicit Fixture(std::uint64_t seed) : field(smooth_field(Dims{36, 24, 24}, seed, 0.08)) {
    Options opt;
    opt.error_bound = 1e-8;
    opt.relative = false;
    opt.progressive_threshold = 256;
    eb = 1e-8;
    archive = compress(field.const_view(), opt);
  }
};

TEST(ProgressiveProperties, ByteAccountingAddsUpAcrossManyRequests) {
  Fixture fx(51);
  MemorySource src{Bytes(fx.archive)};
  ProgressiveReader<double> reader(src);
  std::size_t sum = 0;
  for (double t : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7}) {
    auto st = reader.retrieve(Request::error_bound(t));
    sum += st.bytes_new;
    EXPECT_EQ(st.bytes_total, sum);
    EXPECT_EQ(reader.bytes_loaded(), sum);
  }
  auto full = reader.retrieve(Request::full());
  sum += full.bytes_new;
  EXPECT_EQ(full.bytes_total, sum);
  EXPECT_LE(full.bytes_total, fx.archive.size());
}

// ---- stepwise == one-shot ---------------------------------------------------
// Every execute() rebuilds the touched blocks from their resident codes, so
// the output is a function of the plane set alone: any request sequence that
// ends on Request::full() must end bitwise equal to a one-shot full decode,
// for every backend, block layout and value type.  Every step along the way
// must also hold its own guarantee (region-scoped steps inside their box).

enum class Sequence { kLadder, kRegionThenFull, kBytesThenFull };

using StepwiseCase = std::tuple<BackendId, std::size_t, bool, Sequence>;

class StepwiseEqualsOneShot : public ::testing::TestWithParam<StepwiseCase> {};

/// Max |a - b| over the half-open box of `req` (the whole field without one).
template <typename T>
double linf_in_scope(NdConstView<T> a, const std::vector<T>& b,
                     const Request& req) {
  if (!req.region) return linf(a, b);
  const Dims& dims = a.dims();
  const auto strides = dims.strides();
  double m = 0;
  for (std::size_t i = 0; i < dims.count(); ++i) {
    bool inside = true;
    std::size_t rem = i;
    for (std::size_t d = 0; d < dims.rank(); ++d) {
      const std::size_t c = rem / strides[d];
      rem %= strides[d];
      inside = inside && c >= req.region->lo[d] && c < req.region->hi[d];
    }
    if (inside) {
      m = std::max(m, std::abs(static_cast<double>(a[i]) -
                               static_cast<double>(b[i])));
    }
  }
  return m;
}

template <typename T>
void check_stepwise_equals_oneshot(const StepwiseCase& c) {
  const auto [backend, block_side, f32, seq] = c;
  // Whole-field on a 3-d box; blocks of 16 on a shape no axis of which
  // divides by 16, so edge blocks are ragged.
  const Dims dims = block_side == 0 ? Dims{36, 24, 24} : Dims{40, 35, 21};
  auto field = smooth_field<T>(dims, 52, 0.08);
  Options opt;
  opt.backend = backend;
  opt.block_side = block_side;
  opt.error_bound = f32 ? 1e-5 : 1e-8;
  opt.relative = false;
  opt.progressive_threshold = 128;
  const Bytes archive = compress(field.const_view(), opt);
  const double eb = opt.error_bound;

  std::vector<Request> steps;
  switch (seq) {
    case Sequence::kLadder:
      for (double f : {1e6, 3e5, 1e5, 1e4, 1e3, 1e1}) {
        steps.push_back(Request::error_bound(f * eb));
      }
      break;
    case Sequence::kRegionThenFull:
      steps.push_back(
          Request::error_bound(100 * eb).within({3, 5, 2}, {20, 17, 13}));
      break;
    case Sequence::kBytesThenFull:
      steps.push_back(Request::bytes(archive.size() / 4));
      break;
  }
  steps.push_back(Request::full());

  MemorySource a_src{Bytes(archive)}, b_src{Bytes(archive)};
  ProgressiveReader<T> stepwise(a_src), oneshot(b_src);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const RetrievalStats st = stepwise.retrieve(steps[i]);
    EXPECT_LE(linf_in_scope(field.const_view(), stepwise.data(), steps[i]),
              st.guaranteed_error)
        << "step " << i << ": " << to_string(steps[i], dims.rank());
  }
  oneshot.retrieve(Request::full());
  EXPECT_EQ(stepwise.data(), oneshot.data());
  EXPECT_LE(linf(field.const_view(), oneshot.data()), eb);
}

TEST_P(StepwiseEqualsOneShot, BitwiseAtFullAndWithinGuaranteeEveryStep) {
  if (std::get<2>(GetParam())) {
    check_stepwise_equals_oneshot<float>(GetParam());
  } else {
    check_stepwise_equals_oneshot<double>(GetParam());
  }
}

std::string stepwise_case_name(
    const ::testing::TestParamInfo<StepwiseCase>& info) {
  const auto [backend, block_side, f32, seq] = info.param;
  const char* seq_name = seq == Sequence::kLadder           ? "ladder"
                         : seq == Sequence::kRegionThenFull ? "region"
                                                            : "bytes";
  return std::string(to_string(backend)) +
         (block_side == 0 ? "_whole" : "_b" + std::to_string(block_side)) +
         (f32 ? "_f32_" : "_f64_") + seq_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StepwiseEqualsOneShot,
    ::testing::Combine(::testing::Values(BackendId::kInterp,
                                         BackendId::kWavelet),
                       ::testing::Values(std::size_t{0}, std::size_t{16}),
                       ::testing::Bool(),
                       ::testing::Values(Sequence::kLadder,
                                         Sequence::kRegionThenFull,
                                         Sequence::kBytesThenFull)),
    stepwise_case_name);

TEST(ProgressiveProperties, InterleavedModeRequestsStayConsistent) {
  Fixture fx(53);
  MemorySource src{Bytes(fx.archive)};
  ProgressiveReader<double> reader(src);
  // Alternate EB-mode and bitrate-mode requests; invariants must hold at
  // every step.
  const std::size_t n = fx.field.count();
  double prev_guarantee = std::numeric_limits<double>::infinity();
  std::size_t prev_total = 0;
  int step = 0;
  for (auto [mode, value] : std::vector<std::pair<int, double>>{
           {0, 1e-2}, {1, 6.0}, {0, 1e-4}, {1, 14.0}, {0, 1e-6}}) {
    RetrievalStats st = mode == 0 ? reader.retrieve(Request::error_bound(value))
                                  : reader.retrieve(Request::bitrate(value));
    EXPECT_LE(st.guaranteed_error, prev_guarantee * (1 + 1e-12)) << "step " << step;
    EXPECT_LE(linf(fx.field.const_view(), reader.data()),
              st.guaranteed_error * (1 + 1e-9))
        << "step " << step;
    if (mode == 1) {
      // Already-resident data cannot be unloaded: the budget constrains the
      // cumulative total only when it exceeds what previous requests loaded.
      const auto budget = static_cast<std::size_t>(value * n / 8) + 1;
      EXPECT_LE(st.bytes_total, std::max(budget, prev_total)) << "step " << step;
    }
    prev_guarantee = st.guaranteed_error;
    prev_total = st.bytes_total;
    ++step;
  }
}

TEST(ProgressiveProperties, GuaranteeMatchesRecomputedValue) {
  Fixture fx(54);
  MemorySource src{Bytes(fx.archive)};
  ProgressiveReader<double> reader(src);
  auto st = reader.retrieve(Request::error_bound(1e-4));
  EXPECT_DOUBLE_EQ(st.guaranteed_error, reader.current_guaranteed_error());
}

TEST(ProgressiveProperties, TighterThresholdStillWithinBounds) {
  // progressive_threshold changes which levels are bitplaned; the guarantees
  // must be invariant to it.
  auto field = smooth_field(Dims{30, 30, 15}, 55, 0.05);
  for (std::size_t threshold : {std::size_t{1}, std::size_t{512}, std::size_t{1u << 20}}) {
    Options opt;
    opt.error_bound = 1e-7;
    opt.relative = false;
    opt.progressive_threshold = threshold;
    Bytes archive = compress(field.const_view(), opt);
    MemorySource src(std::move(archive));
    ProgressiveReader<double> reader(src);
    auto st = reader.retrieve(Request::error_bound(1e-3));
    EXPECT_LE(st.guaranteed_error, 1e-3 * (1 + 1e-9)) << "threshold " << threshold;
    EXPECT_LE(linf(field.const_view(), reader.data()), 1e-3 * (1 + 1e-9))
        << "threshold " << threshold;
    reader.retrieve(Request::full());
    EXPECT_LE(linf(field.const_view(), reader.data()), 1e-7 * (1 + 1e-9))
        << "threshold " << threshold;
  }
}

TEST(ProgressiveProperties, AllSolidArchiveRetrievesExactlyOnce) {
  // With an enormous threshold nothing is bitplaned: the archive behaves like
  // a classic single-fidelity compressor but through the same API.
  auto field = smooth_field(Dims{20, 20}, 56);
  Options opt;
  opt.error_bound = 1e-6;
  opt.relative = false;
  opt.progressive_threshold = 1u << 30;
  Bytes archive = compress(field.const_view(), opt);
  MemorySource src(std::move(archive));
  ProgressiveReader<double> reader(src);
  auto coarse = reader.retrieve(Request::error_bound(1e-1));
  // Everything is mandatory: the coarse request already yields full quality.
  EXPECT_LE(linf(field.const_view(), reader.data()), 1e-6 * (1 + 1e-9));
  auto full = reader.retrieve(Request::full());
  EXPECT_EQ(full.bytes_new, 0u);
  EXPECT_EQ(coarse.bytes_total, full.bytes_total);
}

TEST(ProgressiveProperties, MgardPartialLevelsConverge) {
  // Recomposing with coefficients of progressively more levels converges to
  // the original.  L∞ error is NOT monotone at the coarse end (hierarchical
  // interpolants can overshoot), so monotonicity is only asserted over the
  // fine-level tail where coefficients decay on smooth data.
  auto field = smooth_field(Dims{33, 31, 14}, 57, 0.02);
  auto coeffs = mgard_decompose(field.const_view());
  std::vector<double> errs;
  for (std::size_t keep = 0; keep <= coeffs.size(); ++keep) {
    // Zero out the finest `coeffs.size() - keep` levels (indices 0..).
    auto partial = coeffs;
    for (std::size_t li = 0; li + keep < coeffs.size(); ++li) {
      std::fill(partial[li].begin(), partial[li].end(), 0.0);
    }
    auto recon = mgard_recompose(field.dims(), partial);
    errs.push_back(linf(field.const_view(), recon));
  }
  EXPECT_LE(errs.back(), 1e-12);            // all levels -> exact
  EXPECT_LT(errs.back(), errs.front());     // and far better than nothing
  for (std::size_t keep = coeffs.size() / 2; keep < coeffs.size(); ++keep) {
    EXPECT_LE(errs[keep + 1], errs[keep] * (1 + 1e-12)) << "keep " << keep;
  }
}

}  // namespace
}  // namespace ipcomp
