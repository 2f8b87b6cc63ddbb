// Property tests for the word-parallel bitplane transpose engine: every
// kernel tier (scalar / SSE2 / AVX2, as far as the host CPU supports) must be
// bit-identical to the pre-refactor reference loops on adversarial inputs —
// non-multiple-of-64 tails, all-zero and all-ones planes, single-value
// fields, sparse and dense randomness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "bitplane/predictive.hpp"
#include "bitplane/transpose.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

// ---- pre-refactor reference implementations (PR 4 scalar loops) ----------

PlaneBits extract_plane_ref(std::span<const std::uint32_t> values, unsigned k) {
  PlaneBits out(plane_bytes(values.size()), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i >> 3] |= static_cast<std::uint8_t>(((values[i] >> k) & 1u) << (i & 7));
  }
  return out;
}

void deposit_plane_ref(std::span<std::uint32_t> values,
                       std::span<const std::uint8_t> plane, unsigned k) {
  for (std::size_t byte = 0; byte < plane.size(); ++byte) {
    std::uint8_t bits = plane[byte];
    const std::size_t base = byte * 8;
    for (unsigned j = 0; j < 8 && base + j < values.size(); ++j) {
      if ((bits >> j) & 1u) values[base + j] |= (std::uint32_t{1} << k);
    }
  }
}

unsigned plane_count_ref(std::span<const std::uint32_t> values) {
  std::uint32_t all = 0;
  for (std::uint32_t v : values) all |= v;
  unsigned n = 0;
  while (all) {
    ++n;
    all >>= 1;
  }
  return n;
}

// ---- input generators ----------------------------------------------------

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

/// The interesting sizes: empty, sub-tile, exact tiles, ragged tails.
const std::size_t kSizes[] = {0, 1, 7, 63, 64, 65, 100, 777, 4096, 4113};

std::vector<std::vector<std::uint32_t>> corpus(std::size_t n,
                                               std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> inputs;
  inputs.push_back(random_values(n, seed));                 // dense random
  inputs.push_back(random_values(n, seed + 1, 5));          // sparse low bits
  inputs.push_back(std::vector<std::uint32_t>(n, 0));       // all-zero planes
  inputs.push_back(std::vector<std::uint32_t>(n, ~0u));     // all-ones planes
  inputs.push_back(std::vector<std::uint32_t>(n, 0xB4D1u)); // single value
  std::vector<std::uint32_t> nb(n);                         // small negabinary
  Rng rng(seed + 2);
  for (auto& x : nb) {
    x = negabinary_encode(static_cast<std::int64_t>(rng.uniform_u64(201)) - 100);
  }
  inputs.push_back(std::move(nb));
  return inputs;
}

const SimdLevel kTiers[] = {SimdLevel::kScalar, SimdLevel::kSse2,
                            SimdLevel::kAvx2};

class TransposeTiers : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    if (GetParam() > detected_simd_level()) {
      GTEST_SKIP() << "CPU does not support " << to_string(GetParam());
    }
  }
  const TransposeOps& ops() const { return transpose_ops(GetParam()); }
};

TEST_P(TransposeTiers, ExtractPlaneMatchesReference) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 11)) {
      for (unsigned k : {0u, 1u, 7u, 15u, 16u, 30u, 31u}) {
        EXPECT_EQ(extract_plane(ops(), values, k), extract_plane_ref(values, k))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, ExtractAllPlanesMatchesReference) {
  // The plane split without the loss table (the wavelet backend's use):
  // every plane below n_planes matches, every plane above is empty.
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 22)) {
      const auto all = encode_level(ops(), values, /*with_loss=*/false).planes;
      const PlaneBits zero(plane_bytes(n), 0);
      for (unsigned k = 0; k < kPlaneCount; ++k) {
        EXPECT_EQ(k < all.size() ? all[k] : zero, extract_plane_ref(values, k))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, DepositPlaneMatchesReference) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 33)) {
      for (unsigned k : {0u, 5u, 16u, 31u}) {
        const auto plane = extract_plane_ref(values, k);
        // Start from a partially filled array (other planes already set).
        std::vector<std::uint32_t> base(n);
        for (std::size_t i = 0; i < n; ++i) {
          base[i] = values[i] & ~(std::uint32_t{1} << k);
        }
        std::vector<std::uint32_t> got = base, want = base;
        const PlaneSpan one{k, plane};
        deposit_planes(ops(), got, {&one, 1});
        deposit_plane_ref(want, plane, k);
        EXPECT_EQ(got, want) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, DepositPlanesMatchesSequentialReference) {
  Rng rng(44);
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 55)) {
      // A random descending subset of planes, deposited in one batch.
      std::vector<unsigned> ks;
      for (unsigned k = kPlaneCount; k-- > 0;) {
        if (rng.uniform() < 0.4) ks.push_back(k);
      }
      if (ks.empty()) ks.push_back(3);
      std::vector<PlaneBits> bits;
      std::vector<PlaneSpan> spans;
      bits.reserve(ks.size());
      for (unsigned k : ks) bits.push_back(extract_plane_ref(values, k));
      for (std::size_t i = 0; i < ks.size(); ++i) {
        spans.push_back({ks[i], {bits[i].data(), bits[i].size()}});
      }
      std::vector<std::uint32_t> got(n, 0), want(n, 0);
      deposit_planes(ops(), got, spans);
      for (std::size_t i = 0; i < ks.size(); ++i) {
        deposit_plane_ref(want, bits[i], ks[i]);
      }
      EXPECT_EQ(got, want) << "n=" << n;
    }
  }
}

TEST_P(TransposeTiers, EncodeLevelMatchesSeparateSweeps) {
  for (std::size_t n : kSizes) {
    for (const auto& values : corpus(n, 66)) {
      const LevelEncoding enc = encode_level(ops(), values, /*with_loss=*/true);
      EXPECT_EQ(enc.n_planes, plane_count_ref(values)) << "n=" << n;
      for (unsigned d = 0; d <= kPlaneCount; ++d) {
        std::int64_t want_loss = 0;
        for (auto v : values) {
          want_loss =
              std::max(want_loss, std::abs(negabinary_low_bits_value(v, d)));
        }
        EXPECT_EQ(enc.loss[d], want_loss) << "n=" << n << " d=" << d;
      }
      ASSERT_EQ(enc.planes.size(), enc.n_planes);
      for (unsigned k = 0; k < enc.n_planes; ++k) {
        EXPECT_EQ(enc.planes[k], extract_plane_ref(values, k))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(TransposeTiers, LossTableMatchesBruteForce) {
  const auto values = random_values(3000, 77, 20);
  const LevelEncoding enc = encode_level(ops(), values, /*with_loss=*/true);
  for (unsigned d = 0; d <= kPlaneCount; ++d) {
    std::int64_t expected = 0;
    for (auto v : values) {
      expected = std::max(expected, std::abs(negabinary_low_bits_value(v, d)));
    }
    EXPECT_EQ(enc.loss[d], expected) << "d=" << d;
  }
}

std::array<std::int64_t, kPlaneCount + 1> loss_ref(
    std::span<const std::uint32_t> values) {
  std::array<std::int64_t, kPlaneCount + 1> table{};
  for (unsigned d = 0; d <= kPlaneCount; ++d) {
    for (auto v : values) {
      table[d] = std::max(table[d], std::abs(negabinary_low_bits_value(v, d)));
    }
  }
  return table;
}

TEST_P(TransposeTiers, LossKernelMatchesBruteForce) {
  std::vector<std::vector<std::uint32_t>> inputs;
  // Extreme patterns: zero, the negabinary extremes, all ones — uniform and
  // mixed with each other.
  const std::uint32_t kExtremes[] = {0u, 0xAAAAAAAAu, 0x55555555u, 0xFFFFFFFFu};
  for (std::uint32_t c : kExtremes) {
    inputs.emplace_back(100, c);
  }
  {
    Rng rng(90);
    std::vector<std::uint32_t> mix(200);
    for (auto& x : mix) x = kExtremes[rng.uniform_u64(4)];
    inputs.push_back(std::move(mix));
  }
  // Single-bit values: alone among zeros, and one of each bit together.
  std::vector<std::uint32_t> every_bit;
  every_bit.reserve(kPlaneCount);
  for (unsigned b = 0; b < kPlaneCount; ++b) {
    std::vector<std::uint32_t> v(77, 0);
    v[b % 77] = std::uint32_t{1} << b;
    inputs.push_back(std::move(v));
    every_bit.push_back(std::uint32_t{1} << b);
  }
  inputs.push_back(std::move(every_bit));
  // Every length up to 130: non-multiple-of-8 tails and partial tiles.
  for (std::size_t n = 1; n <= 130; ++n) {
    inputs.push_back(random_values(n, 1000 + n, 1 + static_cast<unsigned>(n % 32)));
  }
  // Around the encoder's 64 Ki-value chunk boundary, with the extremes on
  // either side of it.
  for (std::size_t n : {65535u, 65536u, 65537u}) {
    Rng rng(n);
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) {
      x = negabinary_encode(static_cast<std::int64_t>(rng.uniform_u64(41)) - 20);
    }
    v[n - 1] = 0x55555555u;
    v[65534] = 0xAAAAAAAAu;
    inputs.push_back(std::move(v));
  }
  // Dense random codes.
  inputs.push_back(random_values(5000, 91));
  inputs.push_back(random_values(4113, 92, 17));

  for (const auto& values : inputs) {
    EXPECT_EQ(encode_level(ops(), values, /*with_loss=*/true).loss,
              loss_ref(values))
        << "n=" << values.size() << " v[0]=" << (values.empty() ? 0 : values[0]);
  }
}

/// Batch predictive decode == the pre-refactor per-plane flow (decode one
/// plane against the codes, deposit, decode the next).
TEST_P(TransposeTiers, PredictiveBatchDecodeMatchesPerPlaneFlow) {
  for (std::size_t n : {63u, 64u, 777u, 4113u}) {
    const auto values = random_values(n, 88, 22);
    const unsigned n_planes = plane_count_ref(values);
    if (n_planes < 4) continue;
    for (unsigned prefix : {1u, 2u, 3u}) {
      // Encode side: residual planes exactly as append_plane_segments makes.
      std::vector<Bytes> encoded(n_planes);
      for (unsigned k = 0; k < n_planes; ++k) {
        encoded[k] = predictive_encode_plane(values, extract_plane_ref(values, k),
                                             k, prefix);
      }
      // Resident prefix: the top plane is already deposited; the next three
      // arrive as one MSB-first batch.
      const unsigned top = n_planes - 1;
      std::vector<std::uint32_t> codes_old(n, 0), codes_new(n, 0);
      {
        Bytes p = predictive_encode_plane(codes_old, encoded[top], top, prefix);
        deposit_plane_ref(codes_old, p, top);
        deposit_plane_ref(codes_new, p, top);
      }
      std::vector<unsigned> batch = {top - 1, top - 2, top - 3};
      // Old flow: decode against codes, deposit, repeat.
      for (unsigned k : batch) {
        Bytes p = predictive_encode_plane(codes_old, encoded[k], k, prefix);
        deposit_plane_ref(codes_old, p, k);
      }
      // New flow: batch decode on packed buffers, one multi-plane deposit.
      std::vector<Bytes> work;
      for (unsigned k : batch) work.push_back(encoded[k]);
      std::vector<MutablePlane> mut;
      std::vector<PlaneSpan> spans;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        mut.push_back({batch[i], {work[i].data(), work[i].size()}});
      }
      predictive_decode_planes(codes_new, mut, prefix);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        spans.push_back({batch[i], {work[i].data(), work[i].size()}});
      }
      deposit_planes(ops(), codes_new, spans);
      EXPECT_EQ(codes_new, codes_old) << "n=" << n << " prefix=" << prefix;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, TransposeTiers, ::testing::ValuesIn(kTiers),
                         [](const auto& info) { return to_string(info.param); });

TEST(Transpose, OutOfRangePlaneRejected) {
  std::vector<std::uint32_t> values(10, 0);
  PlaneBits bits(plane_bytes(values.size()), 0xFF);
  const PlaneSpan bad{32, {bits.data(), bits.size()}};
  EXPECT_THROW(deposit_planes(values, {&bad, 1}), std::invalid_argument);
}

TEST(Transpose, PredictiveBatchRequiresMsbFirst) {
  std::vector<std::uint32_t> values(64, 0);
  Bytes a(8, 0), b(8, 0);
  std::vector<MutablePlane> wrong = {{3, {a.data(), a.size()}},
                                     {5, {b.data(), b.size()}}};
  EXPECT_THROW(predictive_decode_planes(values, wrong, 2), std::invalid_argument);
}

TEST(Transpose, SimdLevelParsing) {
  SimdLevel l{};
  EXPECT_TRUE(parse_simd_level("scalar", l));
  EXPECT_EQ(l, SimdLevel::kScalar);
  EXPECT_TRUE(parse_simd_level("sse2", l));
  EXPECT_EQ(l, SimdLevel::kSse2);
  EXPECT_TRUE(parse_simd_level("avx2", l));
  EXPECT_EQ(l, SimdLevel::kAvx2);
  EXPECT_FALSE(parse_simd_level("avx512", l));
  EXPECT_FALSE(parse_simd_level("", l));
  EXPECT_FALSE(parse_simd_level(nullptr, l));
  // The dispatched level never exceeds the hardware, whatever IPCOMP_SIMD says.
  EXPECT_LE(simd_level(), detected_simd_level());
}

}  // namespace
}  // namespace ipcomp
