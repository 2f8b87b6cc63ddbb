// Predictive bitplane coding (paper §4.4.1).
//
// Bitplanes of the same integer are correlated; because retrieval always
// loads planes MSB-first, the bits of higher planes are known when a plane is
// decoded.  Each bit is therefore predicted as the XOR of its `prefix_bits`
// preceding (higher-order) bits and the *prediction residual* is stored:
//   encoded_bit = (b_{k+1} ^ ... ^ b_{k+prefix}) ^ b_k
// The transform is an involution given the prefix planes, so decoding applies
// the same XOR.  The paper measures 2 prefix bits as the sweet spot
// (Table 2); that is the default everywhere.
//
// On packed planes the residual of plane k is p_k ^ p_{k+1} ^ ... ^
// p_{k+prefix} (planes at or above the top are zero).  Every entry point
// below runs that as one word-wide XOR of packed buffers: the encoder in
// place over the planes encode_level produced (LSB-first, so the prefix
// planes are still the originals), the decoder MSB-first over freshly
// fetched planes.
#pragma once

#include <cstdint>
#include <span>

#include "bitplane/bitplane.hpp"
#include "io/bytes.hpp"

namespace ipcomp {

inline constexpr unsigned kDefaultPrefixBits = 2;

/// Encode a level's planes in place: `planes` holds planes 0 .. n-1 as
/// split by encode_level (index = plane), and each becomes its prediction
/// residual over `prefix_bits` higher planes (0: unchanged).  One pass over
/// the packed buffers, parallel over byte ranges; the bytes do not depend on
/// the thread count.
void predictive_encode_planes(std::span<PlaneBits> planes, unsigned prefix_bits);

/// Encode plane `k` (packed bits `plane_k`) on its own: XOR it with the
/// prediction built from the higher planes of `values` (planes above 31 are
/// zero), extracted through the same kernel.  Applied to a residual against
/// values that hold only the planes above k, it decodes instead.
Bytes predictive_encode_plane(std::span<const std::uint32_t> values,
                              std::span<const std::uint8_t> plane_k,
                              unsigned k, unsigned prefix_bits);

/// One freshly fetched plane during batch decode: index and packed residual
/// bits, decoded to true plane bits in place.
struct MutablePlane {
  unsigned k = 0;
  std::span<std::uint8_t> bits;
};

/// Decode a batch of newly fetched planes of one level BEFORE any of them is
/// deposited into `values`.  `planes` must be in fetch order — strictly
/// descending k (MSB first) — because plane k's prediction reads the final
/// bits of planes (k, k+prefix_bits].  Each prefix plane is taken from the
/// batch when it is one of the new planes (already decoded, by the ordering)
/// and extracted from `values` otherwise (resident planes; planes above the
/// top are zero there).  Bit-identical to depositing each plane into
/// `values` and predicting the next from the updated integers, but the XOR
/// runs on packed buffers and the values are only touched by the single
/// multi-plane deposit afterwards.
void predictive_decode_planes(std::span<const std::uint32_t> values,
                              std::span<const MutablePlane> planes,
                              unsigned prefix_bits);

}  // namespace ipcomp
