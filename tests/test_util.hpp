// Shared helpers for tests: small synthetic fields with tunable smoothness.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "bitplane/bitplane.hpp"
#include "util/dims.hpp"
#include "util/ndarray.hpp"
#include "util/rng.hpp"

namespace ipcomp::testutil {

/// Smooth multi-frequency field (compresses well, like real scientific data).
template <typename T = double>
NdArray<T> smooth_field(const Dims& dims, std::uint64_t seed = 1,
                        double noise = 0.0) {
  NdArray<T> out(dims);
  Rng rng(seed);
  const double f1 = rng.uniform(1.0, 3.0);
  const double f2 = rng.uniform(3.0, 7.0);
  const double phase = rng.uniform(0, 6.28);
  const auto strides = dims.strides();
  for (std::size_t i = 0; i < dims.count(); ++i) {
    double v = 0;
    std::size_t rem = i;
    for (std::size_t d = 0; d < dims.rank(); ++d) {
      double c = static_cast<double>(rem / strides[d]) /
                 static_cast<double>(dims[d]);
      rem %= strides[d];
      v += std::sin(f1 * 6.28318 * c + phase) + 0.4 * std::cos(f2 * 6.28318 * c);
    }
    if (noise > 0) v += noise * rng.normal();
    out[i] = static_cast<T>(v);
  }
  return out;
}

/// Max pointwise |a - b|.
template <typename T>
double linf(const std::vector<T>& a, const std::vector<T>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

template <typename T>
double linf(NdConstView<T> a, const std::vector<T>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.count(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return m;
}

/// All 32 planes of `values` through the shared level encoder: planes at or
/// above encode_level's n_planes are all-zero buffers.
inline std::vector<PlaneBits> all_planes(std::span<const std::uint32_t> values) {
  std::vector<PlaneBits> planes = encode_level(values, /*with_loss=*/false).planes;
  planes.resize(kPlaneCount, PlaneBits(plane_bytes(values.size()), 0));
  return planes;
}

template <typename T>
double value_range(NdConstView<T> a) {
  double lo = a[0], hi = a[0];
  for (std::size_t i = 0; i < a.count(); ++i) {
    lo = std::min(lo, static_cast<double>(a[i]));
    hi = std::max(hi, static_cast<double>(a[i]));
  }
  return hi - lo;
}

}  // namespace ipcomp::testutil
