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
    deposit_plane(partial, dec, k);
  }
  EXPECT_EQ(partial, values);
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
