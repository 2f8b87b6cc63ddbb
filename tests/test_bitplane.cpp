#include <gtest/gtest.h>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

using testutil::all_planes;

std::vector<std::uint32_t> random_values(std::size_t n, std::uint64_t seed,
                                         unsigned max_bits = 32) {
  Rng rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::uint32_t>(rng.next_u64());
    if (max_bits < 32) x &= (std::uint32_t{1} << max_bits) - 1;
  }
  return v;
}

TEST(Bitplane, ExtractDepositSinglePlane) {
  auto values = random_values(1000, 1);
  for (unsigned k : {0u, 7u, 15u, 31u}) {
    auto plane = extract_plane(values, k);
    std::vector<std::uint32_t> rebuilt(values.size(), 0);
    const PlaneSpan one{k, plane};
    deposit_planes(rebuilt, {&one, 1});
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(rebuilt[i], values[i] & (std::uint32_t{1} << k));
    }
  }
}

TEST(Bitplane, ExtractAllMatchesSingle) {
  auto values = random_values(777, 2);  // odd size exercises the tail byte
  auto all = all_planes(values);
  for (unsigned k = 0; k < kPlaneCount; ++k) {
    EXPECT_EQ(all[k], extract_plane(values, k)) << "plane " << k;
  }
}

TEST(Bitplane, FullSplitJoinRoundTrip) {
  auto values = random_values(4096, 3);
  auto all = all_planes(values);
  // Plane by plane, then all 32 in one multi-plane pass.
  std::vector<std::uint32_t> rebuilt(values.size(), 0);
  std::vector<PlaneSpan> spans;
  spans.reserve(kPlaneCount);
  for (unsigned k = 0; k < kPlaneCount; ++k) {
    const PlaneSpan one{k, all[k]};
    deposit_planes(rebuilt, {&one, 1});
    spans.push_back(one);
  }
  EXPECT_EQ(rebuilt, values);
  std::vector<std::uint32_t> batch(values.size(), 0);
  deposit_planes(batch, spans);
  EXPECT_EQ(batch, values);
}

TEST(Bitplane, EmptyInput) {
  std::vector<std::uint32_t> empty;
  auto enc = encode_level(empty, /*with_loss=*/true);
  EXPECT_EQ(enc.n_planes, 0u);
  EXPECT_TRUE(enc.planes.empty());
  for (auto v : enc.loss) EXPECT_EQ(v, 0);
}

TEST(Bitplane, PlaneBytesRounding) {
  EXPECT_EQ(plane_bytes(0), 0u);
  EXPECT_EQ(plane_bytes(1), 1u);
  EXPECT_EQ(plane_bytes(8), 1u);
  EXPECT_EQ(plane_bytes(9), 2u);
}

TEST(Bitplane, TruncationTableMatchesBruteForce) {
  auto values = random_values(2000, 4, 20);
  auto table = encode_level(values, /*with_loss=*/true).loss;
  for (unsigned d = 0; d <= kPlaneCount; ++d) {
    std::int64_t expected = 0;
    for (auto v : values) {
      expected = std::max(expected, std::abs(negabinary_low_bits_value(v, d)));
    }
    EXPECT_EQ(table[d], expected) << "d=" << d;
  }
}

TEST(Bitplane, TruncationTableSmallMagnitudes) {
  // Values representing small quantization codes: only low planes populated.
  std::vector<std::uint32_t> values;
  for (std::int64_t q = -50; q <= 50; ++q) values.push_back(negabinary_encode(q));
  auto table = encode_level(values, /*with_loss=*/true).loss;
  EXPECT_EQ(table[0], 0);
  // Dropping everything loses at most the max magnitude.
  EXPECT_EQ(table[kPlaneCount], 50);
  // Bounded by the closed-form uncertainty at every depth.
  for (unsigned d = 0; d <= kPlaneCount; ++d) {
    EXPECT_LE(table[d], negabinary_uncertainty(d));
  }
}

TEST(Bitplane, TruncationTableZeroValues) {
  std::vector<std::uint32_t> values(100, 0);
  auto table = encode_level(values, /*with_loss=*/true).loss;
  for (auto v : table) EXPECT_EQ(v, 0);
}

TEST(Bitplane, DepositIntoPartiallyFilled) {
  std::vector<std::uint32_t> values = {0b1000, 0b0000, 0b1000};
  Bytes plane0 = extract_plane(std::vector<std::uint32_t>{1, 0, 1}, 0);
  const PlaneSpan one{0, plane0};
  deposit_planes(values, {&one, 1});
  EXPECT_EQ(values[0], 0b1001u);
  EXPECT_EQ(values[1], 0b0000u);
  EXPECT_EQ(values[2], 0b1001u);
}

}  // namespace
}  // namespace ipcomp
