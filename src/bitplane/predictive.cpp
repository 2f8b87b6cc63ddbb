#include "bitplane/predictive.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "util/parallel.hpp"

namespace ipcomp {

namespace {

/// The one predictive kernel: dst ^= every source, a 64-bit word at a time.
/// Each source covers min(dst.size(), src.size()) bytes — a shorter plane's
/// absent tail is zero.  Sources are read before dst is written per word, so
/// callers order their passes (encode LSB-first, decode MSB-first) such that
/// every source still holds the bits the prediction needs.
void xor_planes(std::span<std::uint8_t> dst,
                std::span<const std::span<const std::uint8_t>> srcs) {
  for (std::span<const std::uint8_t> src : srcs) {
    const std::size_t m = std::min(dst.size(), src.size());
    std::size_t b = 0;
    for (; b + 8 <= m; b += 8) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, dst.data() + b, 8);
      std::memcpy(&y, src.data() + b, 8);
      x ^= y;
      std::memcpy(dst.data() + b, &x, 8);
    }
    for (; b < m; ++b) dst[b] ^= src[b];
  }
}

/// Bytes per chunk of the in-place encode: each chunk runs all planes
/// LSB-first over its own byte range, so chunks are independent.
constexpr std::size_t kXorChunkBytes = 1 << 14;

}  // namespace

void predictive_encode_planes(std::span<PlaneBits> planes,
                              unsigned prefix_bits) {
  const std::size_t n_planes = planes.size();
  if (prefix_bits == 0 || n_planes < 2) return;
  std::size_t nbytes = 0;
  for (const PlaneBits& p : planes) nbytes = std::max(nbytes, p.size());
  parallel_chunks(0, nbytes, kXorChunkBytes, [&](std::size_t lo,
                                                 std::size_t hi) {
    // Clamp a plane to [lo, hi); empty when it ends before the chunk.
    auto slice = [&](PlaneBits& p) {
      const std::size_t end = std::min(hi, p.size());
      return std::span<std::uint8_t>(p).subspan(
          std::min(lo, end), end > lo ? end - lo : 0);
    };
    // LSB-first: while plane k is rewritten, planes above it are originals.
    std::array<std::span<const std::uint8_t>, kPlaneCount> srcs;
    for (std::size_t k = 0; k + 1 < n_planes; ++k) {
      std::size_t ns = 0;
      for (std::size_t p = k + 1; p <= k + prefix_bits && p < n_planes; ++p) {
        srcs[ns++] = slice(planes[p]);
      }
      xor_planes(slice(planes[k]), {srcs.data(), ns});
    }
  });
}

void predictive_decode_planes(std::span<const std::uint32_t> values,
                              std::span<const MutablePlane> planes,
                              unsigned prefix_bits) {
  for (std::size_t i = 1; i < planes.size(); ++i) {
    if (planes[i].k >= planes[i - 1].k) {
      throw std::invalid_argument(
          "predictive_decode_planes: planes must be MSB-first");
    }
  }
  // Resident prefix planes (bits already in `values`) are only needed for
  // the first prefix_bits new planes; extract each at most once.
  std::array<PlaneBits, kPlaneCount> resident;
  std::array<std::span<const std::uint8_t>, kPlaneCount> srcs;
  for (std::size_t i = 0; i < planes.size(); ++i) {
    const unsigned k = planes[i].k;
    std::size_t ns = 0;
    for (unsigned p = k + 1; p <= k + prefix_bits && p < kPlaneCount; ++p) {
      // A higher plane is either part of this batch (decoded on an earlier
      // iteration, by the MSB-first ordering) or resident in `values`.
      const auto in_batch = std::find_if(
          planes.begin(), planes.begin() + static_cast<std::ptrdiff_t>(i),
          [p](const MutablePlane& m) { return m.k == p; });
      if (in_batch != planes.begin() + static_cast<std::ptrdiff_t>(i)) {
        srcs[ns++] = in_batch->bits;
      } else {
        if (resident[p].empty()) resident[p] = extract_plane(values, p);
        srcs[ns++] = resident[p];
      }
    }
    xor_planes(planes[i].bits, {srcs.data(), ns});
  }
}

Bytes predictive_encode_plane(std::span<const std::uint32_t> values,
                              std::span<const std::uint8_t> plane_k,
                              unsigned k, unsigned prefix_bits) {
  Bytes out(plane_k.begin(), plane_k.end());
  std::array<PlaneBits, kPlaneCount> prefix;
  std::array<std::span<const std::uint8_t>, kPlaneCount> srcs;
  std::size_t ns = 0;
  for (unsigned p = k + 1; p <= k + prefix_bits && p < kPlaneCount; ++p) {
    prefix[ns] = extract_plane(values, p);
    srcs[ns] = prefix[ns];
    ++ns;
  }
  xor_planes(out, {srcs.data(), ns});
  return out;
}

}  // namespace ipcomp
