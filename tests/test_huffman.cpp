#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "coding/huffman.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

// Kraft inequality must hold for any generated code.
void expect_kraft_valid(const std::vector<std::uint8_t>& lengths) {
  double k = 0.0;
  for (auto l : lengths) {
    if (l) k += std::pow(2.0, -static_cast<double>(l));
  }
  EXPECT_LE(k, 1.0 + 1e-12);
}

void round_trip(const std::vector<std::uint32_t>& symbols, std::size_t alphabet) {
  std::vector<std::uint64_t> freq(alphabet, 0);
  for (auto s : symbols) ++freq[s];
  auto lengths = build_code_lengths(freq);
  expect_kraft_valid(lengths);

  HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (auto s : symbols) enc.encode(bw, s);
  Bytes bits = bw.finish();

  HuffmanDecoder dec(lengths);
  BitReader br({bits.data(), bits.size()});
  for (auto s : symbols) {
    ASSERT_EQ(dec.decode(br), s);
  }
}

TEST(Huffman, TwoSymbols) { round_trip({0, 1, 0, 0, 1, 0}, 2); }

TEST(Huffman, SingleSymbolAlphabet) {
  round_trip(std::vector<std::uint32_t>(100, 5), 16);
}

TEST(Huffman, UniformAlphabet) {
  std::vector<std::uint32_t> syms;
  for (std::uint32_t i = 0; i < 256; ++i) syms.push_back(i);
  round_trip(syms, 256);
}

TEST(Huffman, SkewedDistribution) {
  Rng rng(1);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 20000; ++i) {
    // Geometric-ish: mostly symbol 0.
    std::uint32_t s = 0;
    while (rng.uniform() < 0.5 && s < 40) ++s;
    syms.push_back(s);
  }
  round_trip(syms, 64);
}

TEST(Huffman, LargeAlphabet) {
  Rng rng(2);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 50000; ++i) {
    syms.push_back(static_cast<std::uint32_t>(rng.uniform_u64(60000)));
  }
  round_trip(syms, 65536);
}

TEST(Huffman, LengthLimitHolds) {
  // Fibonacci-like frequencies force deep trees in unlimited Huffman.
  std::vector<std::uint64_t> freq;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 50; ++i) {
    freq.push_back(a);
    std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  auto lengths = build_code_lengths(freq, 16);
  for (auto l : lengths) EXPECT_LE(l, 16);
  expect_kraft_valid(lengths);
  // Must still decode correctly.
  HuffmanEncoder enc(lengths);
  HuffmanDecoder dec(lengths);
  BitWriter bw;
  for (std::uint32_t s = 0; s < freq.size(); ++s) enc.encode(bw, s);
  Bytes bits = bw.finish();
  BitReader br({bits.data(), bits.size()});
  for (std::uint32_t s = 0; s < freq.size(); ++s) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, OptimalForPowersOfTwo) {
  // Frequencies 8,4,2,1,1 have exact optimal lengths 1,2,3,4,4.
  std::vector<std::uint64_t> freq = {8, 4, 2, 1, 1};
  auto lengths = build_code_lengths(freq);
  EXPECT_EQ(lengths[0], 1);
  EXPECT_EQ(lengths[1], 2);
  EXPECT_EQ(lengths[2], 3);
  EXPECT_EQ(lengths[3], 4);
  EXPECT_EQ(lengths[4], 4);
}

TEST(Huffman, CodeLengthSerialization) {
  std::vector<std::uint64_t> freq(1000, 0);
  freq[3] = 10;
  freq[500] = 5;
  freq[999] = 1;
  auto lengths = build_code_lengths(freq);
  ByteWriter w;
  serialize_code_lengths(w, lengths);
  Bytes b = w.take();
  ByteReader r({b.data(), b.size()});
  auto back = deserialize_code_lengths(r);
  EXPECT_EQ(back, lengths);
}

TEST(Huffman, CostBitsMatchesEncodedSize) {
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  std::vector<std::uint64_t> freq(32, 0);
  for (int i = 0; i < 4000; ++i) {
    auto s = static_cast<std::uint32_t>(rng.uniform_u64(32));
    syms.push_back(s);
    ++freq[s];
  }
  auto lengths = build_code_lengths(freq);
  HuffmanEncoder enc(lengths);
  BitWriter bw;
  for (auto s : syms) enc.encode(bw, s);
  EXPECT_EQ(bw.bit_count(), enc.cost_bits(freq));
}

TEST(Huffman, NearEntropyOnSkewedData) {
  // Huffman is within 1 bit/symbol of entropy.
  std::vector<std::uint64_t> freq = {900, 50, 25, 15, 10};
  double total = 1000;
  double entropy = 0;
  for (auto f : freq) {
    double p = f / total;
    entropy -= p * std::log2(p);
  }
  auto lengths = build_code_lengths(freq);
  HuffmanEncoder enc(lengths);
  double avg = static_cast<double>(enc.cost_bits(freq)) / total;
  EXPECT_LT(avg, entropy + 1.0);
}

TEST(Huffman, EmptyAlphabet) {
  std::vector<std::uint64_t> freq(10, 0);
  auto lengths = build_code_lengths(freq);
  for (auto l : lengths) EXPECT_EQ(l, 0);
}

/// A complete code (Kraft sum exactly 1) whose longest code has `max_len`
/// bits: 2^flat - 1 codes of `flat` bits, the last slot split as a staircase
/// (flat+1, flat+2, ..., max_len, max_len).  flat == max_len gives 2^flat
/// equal codes; flat == 0 the pure staircase.
std::vector<std::uint8_t> code_profile(unsigned max_len, unsigned flat) {
  std::vector<std::uint8_t> lengths;
  if (flat == max_len) {
    lengths.assign(std::size_t{1} << flat, static_cast<std::uint8_t>(flat));
    return lengths;
  }
  lengths.assign((std::size_t{1} << flat) - 1, static_cast<std::uint8_t>(flat));
  for (unsigned l = flat + 1; l < max_len; ++l) {
    lengths.push_back(static_cast<std::uint8_t>(l));
  }
  lengths.push_back(static_cast<std::uint8_t>(max_len));
  lengths.push_back(static_cast<std::uint8_t>(max_len));
  return lengths;
}

TEST(Huffman, RoundTripsAtEveryMaxLength) {
  // Longest code 1..24 bits: up to 12 every code sits in the fast table;
  // past 12 the long codes take the escape path.  Symbols are scattered
  // over a sparse alphabet so canonical order differs from symbol order.
  Rng rng(77);
  for (unsigned max_len = 1; max_len <= kHuffmanMaxLen; ++max_len) {
    for (unsigned flat : {0u, 4u, 8u, 12u}) {
      flat = std::min(flat, max_len);
      std::vector<std::uint8_t> profile = code_profile(max_len, flat);
      std::vector<std::uint8_t> lengths(3 * profile.size() + 5, 0);
      std::vector<std::uint32_t> used;
      for (std::uint8_t l : profile) {
        std::uint32_t s;
        do {
          s = static_cast<std::uint32_t>(rng.uniform_u64(lengths.size()));
        } while (lengths[s] != 0);
        lengths[s] = l;
        used.push_back(s);
      }
      // Every symbol once (the longest codes included), then random ones.
      std::vector<std::uint32_t> symbols = used;
      for (int i = 0; i < 2000; ++i) {
        symbols.push_back(used[rng.uniform_u64(used.size())]);
      }
      HuffmanEncoder enc(lengths);
      BitWriter bw;
      for (auto s : symbols) enc.encode(bw, s);
      const std::size_t n_bits = bw.bit_count();
      Bytes bits = bw.finish();
      HuffmanDecoder dec(lengths);
      BitReader br({bits.data(), bits.size()});
      for (auto s : symbols) {
        ASSERT_EQ(dec.decode(br), s) << "max_len " << max_len << " flat " << flat;
      }
      EXPECT_EQ(br.bits_consumed(), n_bits);
    }
  }
}

TEST(Huffman, SingleSymbolCodeDecodesAndRejectsItsGap) {
  // One symbol gets the 1-bit code 0; the pattern 1 belongs to no symbol.
  std::vector<std::uint8_t> lengths(16, 0);
  lengths[5] = 1;
  HuffmanDecoder dec(lengths);
  Bytes zeros = {0x00};
  BitReader ok({zeros.data(), zeros.size()});
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dec.decode(ok), 5u);
  Bytes ones = {0xFF};
  BitReader bad({ones.data(), ones.size()});
  EXPECT_THROW(dec.decode(bad), std::runtime_error);
}

TEST(Huffman, EmptyAlphabetDecodeThrows) {
  Bytes bits = {0x00, 0xFF};
  for (const std::vector<std::uint8_t>& lengths :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>(10, 0)}) {
    HuffmanDecoder dec(lengths);
    BitReader br({bits.data(), bits.size()});
    EXPECT_THROW(dec.decode(br), std::runtime_error);
  }
}

TEST(Huffman, InvalidCodesThrow) {
  // Oversubscribed: three 1-bit codes, or a complete code plus one more.
  EXPECT_THROW(HuffmanDecoder(std::vector<std::uint8_t>{1, 1, 1}), std::runtime_error);
  std::vector<std::uint8_t> over = code_profile(16, 8);
  over.push_back(16);
  EXPECT_THROW(HuffmanDecoder{over}, std::runtime_error);
  // Longer than the format allows.
  EXPECT_THROW(HuffmanDecoder(std::vector<std::uint8_t>{1, kHuffmanMaxLen + 1}),
               std::runtime_error);

  // Incomplete long code: symbol 0 owns "0", symbol 1 one 20-bit code
  // starting with "1"; every other 1-prefixed pattern is unowned and must
  // be rejected from the escape path.
  std::vector<std::uint8_t> sparse = {1, 20};
  HuffmanEncoder enc(sparse);
  HuffmanDecoder dec(sparse);
  BitWriter bw;
  enc.encode(bw, 1);
  enc.encode(bw, 0);
  Bytes good = bw.finish();
  BitReader gr({good.data(), good.size()});
  EXPECT_EQ(dec.decode(gr), 1u);
  EXPECT_EQ(dec.decode(gr), 0u);
  Bytes unowned = {0xFF, 0xFF, 0xFF, 0xFF};
  BitReader ur({unowned.data(), unowned.size()});
  EXPECT_THROW(dec.decode(ur), std::runtime_error);
}

TEST(Huffman, ForgedCodeLengthHeadersThrow) {
  auto parse = [](const Bytes& b, std::size_t max_alphabet) {
    ByteReader r({b.data(), b.size()});
    return deserialize_code_lengths(r, max_alphabet);
  };
  ByteWriter huge;  // alphabet 2^40: rejected before allocation
  huge.varint(std::uint64_t{1} << 40);
  huge.varint(1);
  EXPECT_THROW(parse(huge.take(), std::size_t{1} << kHuffmanMaxLen), std::runtime_error);
  ByteWriter capped;  // within the format, past the caller's alphabet
  capped.varint(300);
  capped.varint(0);
  EXPECT_THROW(parse(capped.take(), 290), std::runtime_error);
  ByteWriter crowded;  // more used symbols than the alphabet holds
  crowded.varint(4);
  crowded.varint(5);
  EXPECT_THROW(parse(crowded.take(), 16), std::runtime_error);
  ByteWriter past;  // a gap that lands past the alphabet
  past.varint(4);
  past.varint(1);
  past.varint(4);
  past.u8(1);
  EXPECT_THROW(parse(past.take(), 16), std::runtime_error);
  ByteWriter wrap;  // a gap that would wrap the symbol index
  wrap.varint(4);
  wrap.varint(2);
  wrap.varint(1);
  wrap.u8(1);
  wrap.varint(~std::uint64_t{0});
  wrap.u8(1);
  EXPECT_THROW(parse(wrap.take(), 16), std::runtime_error);
}

}  // namespace
}  // namespace ipcomp
