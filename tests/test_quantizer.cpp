#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

TEST(Quantizer, ErrorWithinBound) {
  Rng rng(1);
  const double eb = 1e-3;
  LinearQuantizer q(eb);
  for (int i = 0; i < 100000; ++i) {
    double orig = rng.uniform(-100, 100);
    double pred = orig + rng.uniform(-1, 1);
    std::int64_t code;
    double recon;
    ASSERT_TRUE(q.quantize(orig, pred, code, recon));
    EXPECT_LE(std::abs(recon - orig), eb * (1 + 1e-12));
    EXPECT_DOUBLE_EQ(recon, q.dequantize(pred, code));
  }
}

TEST(Quantizer, ZeroDiffGivesZeroCode) {
  LinearQuantizer q(1e-6);
  std::int64_t code;
  double recon;
  ASSERT_TRUE(q.quantize(5.0, 5.0, code, recon));
  EXPECT_EQ(code, 0);
  EXPECT_EQ(recon, 5.0);
}

TEST(Quantizer, LargeDiffIsOutlier) {
  LinearQuantizer q(1e-12);
  std::int64_t code;
  double recon;
  EXPECT_FALSE(q.quantize(1.0, 0.0, code, recon));  // 1/2e-12 >> 2^30
}

TEST(Quantizer, NonFiniteIsOutlier) {
  LinearQuantizer q(1e-3);
  std::int64_t code;
  double recon;
  EXPECT_FALSE(q.quantize(std::numeric_limits<double>::quiet_NaN(), 0.0, code, recon));
  EXPECT_FALSE(q.quantize(std::numeric_limits<double>::infinity(), 0.0, code, recon));
}

TEST(Quantizer, CodesStayWithinCap) {
  Rng rng(2);
  const double eb = 1e-6;
  LinearQuantizer q(eb);
  for (int i = 0; i < 10000; ++i) {
    double diff = rng.uniform(-1000, 1000);
    std::int64_t code;
    double recon;
    if (q.quantize(diff, 0.0, code, recon)) {
      EXPECT_LT(std::abs(code), LinearQuantizer::kCodeCap);
    }
  }
}

TEST(Quantizer, FloatReconstructionRespectsBound) {
  Rng rng(3);
  const double eb = 1e-4;
  LinearQuantizer q(eb);
  for (int i = 0; i < 50000; ++i) {
    float orig = static_cast<float>(rng.uniform(-10, 10));
    float pred = orig + static_cast<float>(rng.uniform(-0.1, 0.1));
    std::int64_t code;
    float recon;
    if (q.quantize(orig, pred, code, recon)) {
      EXPECT_LE(std::abs(static_cast<double>(recon) - static_cast<double>(orig)),
                eb * (1 + 1e-7));
    }
  }
}

TEST(Quantizer, StepIsTwiceEb) {
  LinearQuantizer q(0.25);
  EXPECT_EQ(q.step(), 0.5);
  EXPECT_EQ(q.error_bound(), 0.25);
}

TEST(Quantizer, RoundsToNearestBin) {
  LinearQuantizer q(1.0);  // bins of width 2 centered on even integers
  std::int64_t code;
  double recon;
  ASSERT_TRUE(q.quantize(2.9, 0.0, code, recon));
  EXPECT_EQ(code, 1);  // 2.9/2 = 1.45 -> 1
  ASSERT_TRUE(q.quantize(3.1, 0.0, code, recon));
  EXPECT_EQ(code, 2);  // 3.1/2 = 1.55 -> 2
  ASSERT_TRUE(q.quantize(-2.9, 0.0, code, recon));
  EXPECT_EQ(code, -1);
}

// round_half_away is the inline stand-in for std::llround inside quantize();
// archive bytes depend on it agreeing everywhere below kCodeCap.  Each probe
// counts mismatches and reports the first, so a failure stays readable.
struct RoundingProbe {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  double first = 0.0;
  void check(double x) {
    ++checked;
    if (LinearQuantizer::round_half_away(x) != std::llround(x) &&
        mismatches++ == 0) {
      first = x;
    }
  }
};

TEST(Quantizer, InlineRoundingMatchesLlroundAtTies) {
  RoundingProbe p;
  constexpr std::int64_t kSpan = std::int64_t{1} << 20;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::int64_t k = -kSpan; k <= kSpan; ++k) {
    const double tie = static_cast<double>(k) + 0.5;
    p.check(tie);
    p.check(std::nextafter(tie, -kInf));
    p.check(std::nextafter(tie, kInf));
  }
  EXPECT_EQ(p.mismatches, 0u) << "first at " << p.first;
  EXPECT_EQ(p.checked, 3u * (2u * kSpan + 1u));
}

TEST(Quantizer, InlineRoundingMatchesLlroundAtEdges) {
  RoundingProbe p;
  const double cap = static_cast<double>(LinearQuantizer::kCodeCap);
  for (double sign : {1.0, -1.0}) {
    for (double x : {0.0, 0.49999999999999994, 0.5, 1.0, 1.5, 2.5}) {
      p.check(sign * x);
    }
    // Every tie and whole number within two of the cap, with neighbours.
    for (double x = cap - 2.0; x < cap; x += 0.5) {
      double lo = x, hi = x;
      for (int step = 0; step < 64; ++step) {
        lo = std::nextafter(lo, 0.0);
        hi = std::nextafter(hi, cap);
        p.check(sign * lo);
        if (hi < cap) p.check(sign * hi);
      }
      p.check(sign * x);
    }
    p.check(sign * std::nextafter(cap, 0.0));
  }
  EXPECT_EQ(p.mismatches, 0u) << "first at " << p.first;
}

TEST(Quantizer, InlineRoundingMatchesLlroundOnRandomMagnitudes) {
  // 20 M values with magnitudes log-uniform over [2^-30, 2^30].
  Rng rng(41);
  RoundingProbe p;
  for (int i = 0; i < 20'000'000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    const int exponent = static_cast<int>(bits % 60) - 30;
    const double mantissa = 1.0 + static_cast<double>(bits >> 12) * 0x1.0p-52;
    const double x = std::ldexp(mantissa, exponent);
    p.check((bits >> 6) & 1 ? -x : x);
  }
  EXPECT_EQ(p.mismatches, 0u) << "first at " << p.first;
}

TEST(Quantizer, CodeMatchesLlroundOfScaledDifference) {
  // Through quantize() itself, as the compiler sees it there: the rounding
  // must see the product diff * (1 / 2eb) rounded on its own (no FMA).
  Rng rng(42);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double eb = std::ldexp(1.0 + rng.uniform(), -static_cast<int>(i % 40));
    const LinearQuantizer q(eb);
    const double pred = rng.uniform(-1.0, 1.0);
    const double orig = pred + rng.uniform(-1.0, 1.0) * eb * 4096.0;
    std::int64_t code;
    double recon;
    if (!q.quantize(orig, pred, code, recon)) continue;
    const double scaled = (orig - pred) * (1.0 / (2.0 * eb));
    if (code != std::llround(scaled)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace ipcomp
