#include "bitplane/predictive.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "bitplane/bitplane.hpp"
#include "util/parallel.hpp"

namespace ipcomp {

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
  for (std::size_t i = 0; i < planes.size(); ++i) {
    const unsigned k = planes[i].k;
    std::span<std::uint8_t> bits = planes[i].bits;
    for (unsigned p = k + 1; p <= k + prefix_bits && p < kPlaneCount; ++p) {
      // A higher plane is either part of this batch (decoded on an earlier
      // iteration, by the MSB-first ordering) or resident in `values`.
      std::span<const std::uint8_t> src;
      bool in_batch = false;
      for (std::size_t j = 0; j < i; ++j) {
        if (planes[j].k == p) {
          src = planes[j].bits;
          in_batch = true;
          break;
        }
      }
      if (!in_batch) {
        if (resident[p].empty()) resident[p] = extract_plane(values, p);
        src = resident[p];
      }
      const std::size_t m = std::min(bits.size(), src.size());
      for (std::size_t b = 0; b < m; ++b) bits[b] ^= src[b];
    }
  }
}

Bytes predictive_encode_plane(std::span<const std::uint32_t> values,
                              std::span<const std::uint8_t> plane_k,
                              unsigned k, unsigned prefix_bits) {
  Bytes out(plane_k.size(), 0);
  // Prediction = XOR of bits k+1 .. k+prefix of each value (planes above the
  // MSB are zero).  Work directly on the integers to avoid materializing the
  // prefix planes.
  parallel_for(0, plane_k.size(), [&](std::size_t byte) {
    const std::size_t base = byte * 8;
    const std::size_t lim = std::min<std::size_t>(8, values.size() - base);
    std::uint8_t pred = 0;
    for (std::size_t j = 0; j < lim; ++j) {
      std::uint32_t v = values[base + j];
      std::uint32_t x = 0;
      for (unsigned p = 1; p <= prefix_bits; ++p) {
        unsigned bit = k + p;
        if (bit < 32) x ^= (v >> bit) & 1u;
      }
      pred |= static_cast<std::uint8_t>(x << j);
    }
    out[byte] = plane_k[byte] ^ pred;
  }, /*grain=*/1 << 14);
  return out;
}

}  // namespace ipcomp
