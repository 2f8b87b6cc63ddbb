// Canonical, length-limited Huffman coding over integer alphabets.
//
// Used directly by the SZ3 baseline (quantization codes) and as the entropy
// stage of the LZ77 back-end.  Codes are canonical so only the code lengths
// are serialized; decoding uses a prefix table of up to 12 bits with a
// bit-by-bit fallback for longer codes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "io/bitstream.hpp"
#include "io/bytes.hpp"

namespace ipcomp {

/// Maximum code length produced by build_code_lengths.
inline constexpr unsigned kHuffmanMaxLen = 24;

/// Compute length-limited Huffman code lengths from symbol frequencies.
/// Symbols with zero frequency receive length 0 (no code).  The alphabet must
/// satisfy alphabet_size <= 2^kHuffmanMaxLen.
std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                             unsigned limit = kHuffmanMaxLen);

/// Serialize code lengths compactly (sparse symbol/length pairs).
void serialize_code_lengths(ByteWriter& w, std::span<const std::uint8_t> lengths);
/// Inverse of serialize_code_lengths.  Throws std::runtime_error when the
/// declared alphabet exceeds `max_alphabet` (checked before allocating) or
/// a symbol falls outside it.
std::vector<std::uint8_t> deserialize_code_lengths(
    ByteReader& r, std::size_t max_alphabet = std::size_t{1} << kHuffmanMaxLen);

class HuffmanEncoder {
 public:
  /// Builds canonical codes from code lengths.
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  void encode(BitWriter& bw, std::uint32_t symbol) const {
    bw.put_bits(reversed_code_[symbol], length_[symbol]);
  }

  /// Fused emission of a code and its raw extra bits as one put_bits call:
  /// code (<= kHuffmanMaxLen bits) in the low bits, extras above it.  The
  /// stream is LSB-first, so this is bit-identical to encode() followed by
  /// put_bits(extra, extra_bits) — one accumulator round-trip instead of two.
  /// Requires length(symbol) + extra_bits <= 64.
  void encode_with_extra(BitWriter& bw, std::uint32_t symbol,
                         std::uint64_t extra, unsigned extra_bits) const {
    const unsigned len = length_[symbol];
    bw.put_bits(reversed_code_[symbol] | (extra << len), len + extra_bits);
  }

  unsigned length(std::uint32_t symbol) const { return length_[symbol]; }

  /// Total encoded bit count for a histogram (for cost estimation).
  std::uint64_t cost_bits(std::span<const std::uint64_t> freqs) const;

 private:
  std::vector<std::uint32_t> reversed_code_;
  std::vector<std::uint8_t> length_;
};

/// Table-driven canonical decoder.  The fast table is indexed by the next
/// min(longest code, kMaxTableBits) stream bits, so a short code (a small
/// LZH segment's distance alphabet, say) builds a table of a few dozen
/// entries instead of 4096; longer codes escape to a canonical bit-by-bit
/// walk.  Construction touches no heap unless some code is longer than the
/// table.  Malformed lengths (longer than kHuffmanMaxLen, or an
/// oversubscribed set) throw std::runtime_error, as does decoding a bit
/// pattern that no symbol owns.
class HuffmanDecoder {
 public:
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  std::uint32_t decode(BitReader& br) const {
    const std::uint32_t entry =
        table_[static_cast<std::size_t>(br.peek_bits(table_bits_))];
    if (entry != 0) {
      br.skip_bits(entry & 31u);
      return entry >> 5;
    }
    return decode_slow(br);
  }

 private:
  static constexpr unsigned kMaxTableBits = 12;

  std::uint32_t decode_slow(BitReader& br) const;

  // Fast path: entry = (symbol << 5) | code_length, 0 = escape.  Only the
  // first 1 << table_bits_ entries are built.
  unsigned table_bits_ = 0;
  std::array<std::uint32_t, std::size_t{1} << kMaxTableBits> table_;
  // Slow path (codes longer than the table): canonical first-code ranges per
  // length over the symbols sorted by (length, symbol).
  std::uint32_t first_code_[kHuffmanMaxLen + 1] = {};
  std::uint32_t first_index_[kHuffmanMaxLen + 1] = {};
  std::uint32_t count_[kHuffmanMaxLen + 1] = {};
  std::vector<std::uint32_t> sorted_symbols_;  // empty unless max_len_ > table
  unsigned max_len_ = 0;
};

}  // namespace ipcomp
