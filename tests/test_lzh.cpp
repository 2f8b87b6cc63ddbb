#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coding/huffman.hpp"
#include "coding/lzh.hpp"
#include "io/bitstream.hpp"
#include "io/bytes.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

void round_trip(const Bytes& input) {
  Bytes enc = lzh_compress({input.data(), input.size()});
  Bytes dec = lzh_decompress({enc.data(), enc.size()});
  ASSERT_EQ(dec.size(), input.size());
  EXPECT_EQ(dec, input);
  EXPECT_EQ(lzh_decompress({enc.data(), enc.size()}, input.size()), input);
}

TEST(Lzh, Empty) { round_trip({}); }

TEST(Lzh, Tiny) { round_trip({1, 2, 3}); }

TEST(Lzh, SingleByte) { round_trip({42}); }

TEST(Lzh, RepeatedByteCompresses) {
  Bytes in(100000, 7);
  Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), in.size() / 100);
  round_trip(in);
}

TEST(Lzh, PeriodicPattern) {
  Bytes in;
  for (int i = 0; i < 50000; ++i) in.push_back(static_cast<std::uint8_t>(i % 17));
  Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), in.size() / 10);
  round_trip(in);
}

TEST(Lzh, OverlappingMatch) {
  // "abcabcabc..." forces overlapping copies (dist < len).
  Bytes in;
  const char* pat = "abc";
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<std::uint8_t>(pat[i % 3]));
  round_trip(in);
}

TEST(Lzh, IncompressibleRandomStoredRaw) {
  Rng rng(9);
  Bytes in(20000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
  Bytes enc = lzh_compress({in.data(), in.size()});
  // Raw fallback bounds expansion to block framing overhead.
  EXPECT_LT(enc.size(), in.size() + 64);
  round_trip(in);
}

TEST(Lzh, MultiBlockInput) {
  // > 256 KiB to exercise the block splitter.
  Rng rng(10);
  Bytes in(600000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>((i / 100) % 251);
  }
  round_trip(in);
}

TEST(Lzh, TextLikeData) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  Bytes in(text.begin(), text.end());
  Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_LT(enc.size(), in.size() / 20);
  round_trip(in);
}

TEST(Lzh, RandomStructuredFuzz) {
  Rng rng(12);
  for (int trial = 0; trial < 15; ++trial) {
    Bytes in(1 + rng.uniform_u64(30000));
    std::uint8_t v = 0;
    for (auto& b : in) {
      if (rng.uniform() < 0.05) v = static_cast<std::uint8_t>(rng.next_u64());
      b = v;
    }
    round_trip(in);
  }
}

TEST(Lzh, MatchAtBufferEnd) {
  Bytes in;
  for (int i = 0; i < 100; ++i) in.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0; i < 100; ++i) in.push_back(static_cast<std::uint8_t>(i));
  round_trip(in);  // match runs exactly to the end
}

// ---- forged-input corpus --------------------------------------------------
//
// Malformed streams must end in std::runtime_error — never another exception
// type, a crash, or an out-of-bounds access (the asan preset runs this file).

/// A compressible plane-like segment (a few KiB of structured residue: runs,
/// repeats and noise) whose encoding holds literals and matches.
Bytes structured_segment(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Bytes in(n);
  std::uint8_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < 0.15) v = static_cast<std::uint8_t>(rng.next_u64());
    if (u > 0.9 && i >= 64) v = in[i - 1 - rng.uniform_u64(64)];
    in[i] = v;
  }
  return in;
}

/// Decode `forged` expecting `size` bytes; returns true when it was
/// rejected.  Any rejection other than std::runtime_error fails the test,
/// as does an accepted stream of the wrong size.
bool rejected(const Bytes& forged, std::size_t size) {
  try {
    Bytes out = lzh_decompress({forged.data(), forged.size()}, size);
    EXPECT_EQ(out.size(), size);
    return false;
  } catch (const std::runtime_error&) {
    return true;
  } catch (...) {
    ADD_FAILURE() << "non-runtime_error exception";
    return true;
  }
}

/// Offset and length of the single compressed block's payload (after the
/// total varint, the raw flag and the payload-length varint).
std::pair<std::size_t, std::size_t> block_payload(const Bytes& enc) {
  ByteReader r({enc.data(), enc.size()});
  r.varint();
  EXPECT_EQ(r.u8(), 0) << "expected a compressed (not raw) block";
  const std::size_t len = r.varint();
  return {r.position(), len};
}

/// Hand-assembled single-block stream.  A token {v, 0} with v < 256 is a
/// literal; {256 + lv, dv} (lv, dv < 8: no extra bits) is a match of length
/// lv + 4 at distance dv + 1.  Every used symbol gets a 3-bit code.
Bytes forge_lzh(std::size_t total,
                const std::vector<std::pair<std::uint32_t, std::uint32_t>>& tokens) {
  std::vector<std::uint8_t> lit(264, 0), dist(8, 0);
  for (auto [sym, d] : tokens) {
    lit[sym] = 3;
    if (sym >= 256) dist[d] = 3;
  }
  HuffmanEncoder lit_enc(lit), dist_enc(dist);
  BitWriter bw;
  for (auto [sym, d] : tokens) {
    lit_enc.encode(bw, sym);
    if (sym >= 256) dist_enc.encode(bw, d);
  }
  Bytes bits = bw.finish();
  ByteWriter payload;
  serialize_code_lengths(payload, lit);
  serialize_code_lengths(payload, dist);
  payload.varint(bits.size());
  payload.bytes(bits);
  ByteWriter w;
  w.varint(total);
  w.u8(0);
  w.varint(payload.size());
  w.bytes(payload.buffer());
  return w.take();
}

TEST(LzhForged, HandAssembledStreamsDecode) {
  // Controls for the forging helper, and both copy paths: a distance at
  // least the length (one memcpy) and an overlapping run (byte loop).
  Bytes run = forge_lzh(5, {{'a', 0}, {256, 0}});
  EXPECT_EQ(lzh_decompress({run.data(), run.size()}, 5), Bytes(5, 'a'));
  Bytes far = forge_lzh(8, {{'a', 0}, {'b', 0}, {'c', 0}, {'d', 0}, {256, 3}});
  EXPECT_EQ(lzh_decompress({far.data(), far.size()}, 8),
            (Bytes{'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'}));
  Bytes lap = forge_lzh(7, {{'a', 0}, {'b', 0}, {'c', 0}, {256, 1}});
  EXPECT_EQ(lzh_decompress({lap.data(), lap.size()}, 7),
            (Bytes{'a', 'b', 'c', 'b', 'c', 'b', 'c'}));
}

TEST(LzhForged, DistancePastProducedBytesThrows) {
  // One byte produced, then a match reaching two bytes back.
  Bytes f = forge_lzh(5, {{'a', 0}, {256, 1}});
  EXPECT_THROW(lzh_decompress({f.data(), f.size()}, 5), std::runtime_error);
  EXPECT_THROW(lzh_decompress({f.data(), f.size()}), std::runtime_error);
  // A match before any byte exists.
  Bytes g = forge_lzh(4, {{256, 0}});
  EXPECT_THROW(lzh_decompress({g.data(), g.size()}, 4), std::runtime_error);
}

TEST(LzhForged, MatchPastBlockEndThrows) {
  // Block of 4 bytes: 1 literal + a 4-byte match would write 5.
  Bytes f = forge_lzh(4, {{'a', 0}, {256, 0}});
  EXPECT_THROW(lzh_decompress({f.data(), f.size()}, 4), std::runtime_error);
  EXPECT_THROW(lzh_decompress({f.data(), f.size()}), std::runtime_error);
}

TEST(LzhForged, TrailingOrMissingBitsThrow) {
  // Tokens that end before the stream does (an unread byte follows), and a
  // declared size the tokens overrun into the reader's zero padding.
  Bytes extra = forge_lzh(5, {{'a', 0}, {256, 0}, {'a', 0}, {'a', 0},
                              {'a', 0}, {'a', 0}});
  EXPECT_THROW(lzh_decompress({extra.data(), extra.size()}, 5), std::runtime_error);
  Bytes padded = forge_lzh(20, {{'a', 0}});
  EXPECT_THROW(lzh_decompress({padded.data(), padded.size()}, 20),
               std::runtime_error);
}

TEST(LzhForged, WrongDeclaredSizeThrows) {
  const Bytes in = structured_segment(31, 3000);
  const Bytes enc = lzh_compress({in.data(), in.size()});
  EXPECT_THROW(lzh_decompress({enc.data(), enc.size()}, in.size() - 1),
               std::runtime_error);
  EXPECT_THROW(lzh_decompress({enc.data(), enc.size()}, in.size() + 1),
               std::runtime_error);
  EXPECT_THROW(lzh_decompress({enc.data(), enc.size()}, 0), std::runtime_error);

  // A forged huge total: rejected before it sizes anything when the caller
  // knows the size, and bounded to one block's growth when it does not.
  ByteReader r({enc.data(), enc.size()});
  r.varint();
  ByteWriter w;
  w.varint(std::uint64_t{1} << 62);
  w.bytes(r.bytes(r.remaining()));
  const Bytes huge = w.take();
  EXPECT_THROW(lzh_decompress({huge.data(), huge.size()}, in.size()),
               std::runtime_error);
  EXPECT_THROW(lzh_decompress({huge.data(), huge.size()}), std::runtime_error);
}

TEST(LzhForged, TruncationAtEveryByteThrows) {
  for (const Bytes& in : {structured_segment(32, 2500), Bytes(1000, 9),
                          structured_segment(33, 40)}) {
    const Bytes enc = lzh_compress({in.data(), in.size()});
    for (std::size_t cut = 0; cut < enc.size(); ++cut) {
      EXPECT_THROW(lzh_decompress({enc.data(), cut}, in.size()), std::runtime_error)
          << "cut at " << cut << " of " << enc.size();
      EXPECT_THROW(lzh_decompress({enc.data(), cut}), std::runtime_error)
          << "cut at " << cut << " of " << enc.size();
    }
  }
}

TEST(LzhForged, OversizedAlphabetThrowsBeforeAllocating) {
  const Bytes in = structured_segment(34, 2000);
  const Bytes enc = lzh_compress({in.data(), in.size()});
  const auto [off, len] = block_payload(enc);
  // Replace the literal table's alphabet varint with 2^40.
  ByteReader r({enc.data() + off, len});
  r.varint();
  ByteWriter payload;
  payload.varint(std::uint64_t{1} << 40);
  payload.bytes(r.bytes(r.remaining()));
  ByteWriter w;
  w.varint(in.size());
  w.u8(0);
  w.varint(payload.size());
  w.bytes(payload.buffer());
  const Bytes forged = w.take();
  EXPECT_THROW(lzh_decompress({forged.data(), forged.size()}, in.size()),
               std::runtime_error);
}

TEST(LzhForged, BitFlipsInHeaderAndBitstream) {
  // Flips cannot always be detected: Huffman codes resynchronize, so a
  // flipped stream often decodes to different bytes of the right size (the
  // archive's per-segment checksums catch those).  Each flipped stream must
  // either throw std::runtime_error or decode to the declared size; most
  // header flips, and a good share of stream flips, must throw.
  const Bytes in = structured_segment(35, 3500);
  const Bytes enc = lzh_compress({in.data(), in.size()});
  const auto [off, len] = block_payload(enc);
  ByteReader r({enc.data() + off, len});
  deserialize_code_lengths(r);
  deserialize_code_lengths(r);
  const std::size_t header_end = off + r.position();
  std::size_t header_flips = 0, header_rejects = 0;
  std::size_t stream_flips = 0, stream_rejects = 0;
  for (std::size_t byte = off; byte < enc.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      Bytes forged = enc;
      forged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const bool threw = rejected(forged, in.size());
      if (byte < header_end) {
        ++header_flips;
        header_rejects += threw;
      } else {
        ++stream_flips;
        stream_rejects += threw;
      }
    }
  }
  ASSERT_GT(header_flips, 0u);
  ASSERT_GT(stream_flips, 0u);
  EXPECT_GT(2 * header_rejects, header_flips);
  EXPECT_GT(4 * stream_rejects, stream_flips);
}

}  // namespace
}  // namespace ipcomp
