// Error-bounded linear-scale quantization (paper §4.2.2).
//
// Quantizes prediction differences to integers with bin width 2·eb, so the
// reconstruction pred + q·2eb differs from the original by at most eb.
// Values whose code would overflow the 32-bit negabinary range (or that are
// non-finite) become *outliers*: their raw value is stored exactly in the
// level's base segment and the code is 0, keeping bitplanes compressible.
#pragma once

#include <cmath>
#include <cstdint>

#include "bitplane/negabinary.hpp"

namespace ipcomp {

class LinearQuantizer {
 public:
  /// Codes are capped well inside the negabinary range; anything larger is an
  /// outlier (also leaves headroom so δy sums cannot overflow int64).
  static constexpr std::int64_t kCodeCap = std::int64_t{1} << 30;

  explicit LinearQuantizer(double eb)
      : eb_(eb), two_eb_(2.0 * eb), inv_two_eb_(1.0 / (2.0 * eb)) {}

  double error_bound() const { return eb_; }
  double step() const { return two_eb_; }

  /// Quantize `orig - pred`.  On success stores the signed code and the
  /// reconstruction (pred + code·2eb) and returns true; returns false for
  /// outliers (caller stores `orig` exactly).
  template <typename T>
  bool quantize(T orig, T pred, std::int64_t& code, T& recon) const {
    const double diff = static_cast<double>(orig) - static_cast<double>(pred);
    if (!std::isfinite(diff)) return false;
    const double scaled = diff * inv_two_eb_;
    if (scaled >= static_cast<double>(kCodeCap) ||
        scaled <= -static_cast<double>(kCodeCap)) {
      return false;
    }
    code = round_half_away(scaled);
    const double r = static_cast<double>(pred) + static_cast<double>(code) * two_eb_;
    recon = static_cast<T>(r);
    // Float32 rounding of the reconstruction can push the error past eb;
    // fall back to outlier storage in that rare case.
    if (std::abs(static_cast<double>(recon) - static_cast<double>(orig)) > eb_) {
      return false;
    }
    return true;
  }

  /// std::llround(x) for |x| < kCodeCap, inline instead of a libm call: add
  /// the largest double below 0.5 with x's sign, then truncate (the integer
  /// conversion rounds toward zero).  Exact: a tie k + 0.5 sums to a value
  /// that rounds up to k + 1, and the largest double below a tie stays
  /// below k + 1.  The sum must be rounded on its own, never fused with the
  /// scaling multiply into an FMA: the build compiles ISO C++ (-std=c++20,
  /// CMAKE_CXX_EXTENSIONS OFF), where GCC contracts no FP expressions.
  static std::int64_t round_half_away(double x) {
    return static_cast<std::int64_t>(x + std::copysign(0.49999999999999994, x));
  }

  /// Reconstruction from a signed code.
  template <typename T>
  T dequantize(T pred, std::int64_t code) const {
    return static_cast<T>(static_cast<double>(pred) +
                          static_cast<double>(code) * two_eb_);
  }

 private:
  double eb_;
  double two_eb_;
  double inv_two_eb_;
};

}  // namespace ipcomp
