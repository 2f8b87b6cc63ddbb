#include <gtest/gtest.h>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "coding/entropy.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

using testutil::all_planes;

std::vector<std::uint32_t> quantization_like_values(std::size_t n, std::uint64_t seed) {
  // Codes that look like interpolation residuals: small, zero-centered.
  Rng rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) {
    std::int64_t q = static_cast<std::int64_t>(std::llround(rng.normal() * 30.0));
    x = negabinary_encode(q);
  }
  return v;
}

TEST(Predictive, TransformIsInvolution) {
  auto values = quantization_like_values(5000, 1);
  auto planes = all_planes(values);
  for (unsigned k = 0; k < 12; ++k) {
    for (unsigned prefix : {1u, 2u, 3u}) {
      Bytes enc = predictive_encode_plane(values, planes[k], k, prefix);
      // Applying the transform again (with the same higher planes) restores.
      Bytes dec = predictive_encode_plane(values, enc, k, prefix);
      EXPECT_EQ(dec, planes[k]) << "k=" << k << " prefix=" << prefix;
    }
  }
}

TEST(Predictive, TopPlaneUnchangedByPrediction) {
  // Plane 31 has no prefix planes: prediction is zero.
  auto values = quantization_like_values(1000, 2);
  auto planes = all_planes(values);
  Bytes enc = predictive_encode_plane(values, planes[31], 31, 2);
  EXPECT_EQ(enc, planes[31]);
}

TEST(Predictive, DecodingWithPartialCodesMatches) {
  // During retrieval the decoder applies the transform against codes that
  // hold only planes above k — exactly the bits prediction uses.
  auto values = quantization_like_values(3000, 3);
  auto planes = all_planes(values);
  const unsigned prefix = 2;
  std::vector<std::uint32_t> partial(values.size(), 0);
  for (unsigned k = kPlaneCount; k-- > 0;) {
    Bytes enc = predictive_encode_plane(values, planes[k], k, prefix);
    Bytes dec = predictive_encode_plane(partial, enc, k, prefix);
    EXPECT_EQ(dec, planes[k]) << "k=" << k;
    const PlaneSpan one{k, dec};
    deposit_planes(partial, {&one, 1});
  }
  EXPECT_EQ(partial, values);
}

/// Random codes whose highest populated plane is exactly n_planes - 1.
std::vector<std::uint32_t> codes_with_planes(std::size_t n, unsigned n_planes,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t mask =
      n_planes >= 32 ? ~0u : (std::uint32_t{1} << n_planes) - 1u;
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_u64()) & mask;
  v[n / 2] |= std::uint32_t{1} << (n_planes - 1);
  return v;
}

/// In-place encode of a level's planes == plane-by-plane
/// predictive_encode_plane, and the batch decode + one multi-plane deposit
/// restores the codes.
void check_in_place_round_trip(const std::vector<std::uint32_t>& values,
                               unsigned n_planes, unsigned prefix) {
  const LevelEncoding enc = encode_level(values, /*with_loss=*/false);
  ASSERT_EQ(enc.n_planes, n_planes);
  std::vector<PlaneBits> planes = enc.planes;
  predictive_encode_planes(planes, prefix);
  for (unsigned k = 0; k < n_planes; ++k) {
    EXPECT_EQ(planes[k],
              predictive_encode_plane(values, enc.planes[k], k, prefix))
        << "n=" << values.size() << " n_planes=" << n_planes
        << " prefix=" << prefix << " k=" << k;
  }
  std::vector<MutablePlane> mut;
  std::vector<PlaneSpan> spans;
  mut.reserve(n_planes);
  spans.reserve(n_planes);
  for (unsigned k = n_planes; k-- > 0;) {
    mut.push_back({k, planes[k]});
    spans.push_back({k, planes[k]});
  }
  std::vector<std::uint32_t> codes(values.size(), 0);
  predictive_decode_planes(codes, mut, prefix);
  deposit_planes(codes, spans);
  EXPECT_EQ(codes, values) << "n=" << values.size()
                           << " n_planes=" << n_planes << " prefix=" << prefix;
}

TEST(Predictive, InPlaceEncodeMatchesPerPlane) {
  // Every prefix up to 4 against every plane count, prefix >= n_planes
  // included, on tail-heavy sizes.
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{777}}) {
    for (unsigned n_planes = 1; n_planes <= kPlaneCount; ++n_planes) {
      const auto values = codes_with_planes(n, n_planes, 100 + n_planes);
      for (unsigned prefix = 0; prefix <= 4; ++prefix) {
        check_in_place_round_trip(values, n_planes, prefix);
      }
    }
  }
}

TEST(Predictive, InPlaceEncodeSpansByteChunks) {
  // Planes longer than one chunk of the parallel in-place pass.
  const std::size_t n = 140001;
  for (unsigned n_planes : {3u, 32u}) {
    const auto values = codes_with_planes(n, n_planes, 7);
    for (unsigned prefix : {1u, 2u, 4u}) {
      check_in_place_round_trip(values, n_planes, prefix);
    }
  }
}

TEST(Predictive, ReducesEntropyOnCorrelatedPlanes) {
  // Table 2 of the paper: predictive coding lowers bit entropy of the plane
  // stream on quantization-code-like data.
  auto values = quantization_like_values(100000, 4);
  auto planes = all_planes(values);
  double h_orig = 0.0, h_pred = 0.0;
  std::size_t counted = 0;
  for (unsigned k = 0; k < 16; ++k) {
    Bytes enc = predictive_encode_plane(values, planes[k], k, 2);
    h_orig += bit_entropy(planes[k], values.size());
    h_pred += bit_entropy(enc, values.size());
    ++counted;
  }
  EXPECT_LT(h_pred, h_orig);
}

}  // namespace
}  // namespace ipcomp
