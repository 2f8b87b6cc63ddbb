#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "io/bitstream.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

TEST(BitStream, SingleBitsLsbFirst) {
  BitWriter w;
  // first bit written -> bit 0 of byte 0
  w.put_bit(1);
  w.put_bit(0);
  w.put_bit(1);
  Bytes b = w.finish();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 0b101);
}

TEST(BitStream, MultiBitFields) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0x3F, 6);
  w.put_bits(0x12345, 20);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.get_bits(6), 0x3Fu);
  EXPECT_EQ(r.get_bits(20), 0x12345u);
}

TEST(BitStream, SixtyFourBitFields) {
  BitWriter w;
  w.put_bits(0xDEADBEEFCAFEBABEull, 64);
  w.put_bits(1, 1);
  w.put_bits(0xFFFFFFFFFFFFFFFFull, 64);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  EXPECT_EQ(r.get_bits(64), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(r.get_bits(1), 1u);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFull);
}

TEST(BitStream, RandomRoundTrip) {
  Rng rng(42);
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    unsigned n = 1 + static_cast<unsigned>(rng.uniform_u64(64));
    std::uint64_t v = rng.next_u64();
    if (n < 64) v &= (std::uint64_t{1} << n) - 1;
    fields.emplace_back(v, n);
    w.put_bits(v, n);
  }
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  for (auto [v, n] : fields) {
    EXPECT_EQ(r.get_bits(n), v);
  }
}

TEST(BitStream, UnaryRoundTrip) {
  BitWriter w;
  std::uint64_t vals[] = {0, 1, 2, 7, 31, 32, 33, 100};
  for (auto v : vals) w.put_unary(v);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  for (auto v : vals) EXPECT_EQ(r.get_unary(), v);
}

TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.put_bits(0b1101'0110'1010, 12);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  EXPECT_EQ(r.peek_bits(4), 0b1010u);
  EXPECT_EQ(r.peek_bits(4), 0b1010u);
  r.skip_bits(4);
  EXPECT_EQ(r.peek_bits(8), 0b1101'0110u);
  EXPECT_EQ(r.get_bits(8), 0b1101'0110u);
}

TEST(BitStream, PeekPastEndReadsZero) {
  BitWriter w;
  w.put_bits(0b1, 1);
  Bytes b = w.finish();
  BitReader r({b.data(), b.size()});
  // One byte exists; peeking further than the stream pads with zeros.
  EXPECT_EQ(r.peek_bits(12), 0b1u);
}

TEST(BitStream, RunawayReadThrows) {
  Bytes b = {0xFF};
  BitReader r({b.data(), b.size()});
  r.get_bits(8);
  // A little zero padding is allowed, then it must throw.
  EXPECT_THROW(
      {
        for (int i = 0; i < 1000; ++i) r.get_bits(8);
      },
      std::runtime_error);
}

TEST(BitStream, BitCountTracksProgress) {
  BitWriter w;
  w.put_bits(0, 13);
  EXPECT_EQ(w.bit_count(), 13u);
  w.put_bits(0, 64);
  EXPECT_EQ(w.bit_count(), 77u);
}

/// Bit `i` of an LSB-first stream (zero past the end).
std::uint64_t stream_bit(const Bytes& b, std::size_t i) {
  return i < b.size() * 8 ? (b[i / 8] >> (i % 8)) & 1u : 0u;
}

TEST(BitStream, ReadsEndingAtEachOfTheLastSixteenBytes) {
  // The reader refills a whole word while 8 or more bytes remain and byte by
  // byte after that; reads ending anywhere in the last 16 bytes cross that
  // switch at every offset.
  Rng rng(17);
  Bytes b(40);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t last = b.size() - 16; last < b.size(); ++last) {
    const std::size_t stop = (last + 1) * 8;
    for (unsigned chunk : {1u, 3u, 7u, 13u, 32u, 56u, 64u}) {
      BitReader r({b.data(), b.size()});
      for (std::size_t pos = 0; pos < stop;) {
        const unsigned n = static_cast<unsigned>(std::min<std::size_t>(chunk, stop - pos));
        std::uint64_t want = 0;
        for (unsigned i = 0; i < n; ++i) want |= stream_bit(b, pos + i) << i;
        ASSERT_EQ(r.get_bits(n), want) << "last " << last << " chunk " << chunk;
        pos += n;
      }
      EXPECT_EQ(r.bits_consumed(), stop);
      std::uint64_t next = 0;
      for (unsigned i = 0; i < 12; ++i) next |= stream_bit(b, stop + i) << i;
      EXPECT_EQ(r.peek_bits(12), next);
    }
  }
}

TEST(BitStream, SixtyFourPaddingBitsThenThrow) {
  // Past the data, exactly 64 zero bits may be read (whatever the stream
  // length and read alignment); the next read throws.
  Rng rng(18);
  for (std::size_t size = 0; size <= 20; ++size) {
    Bytes b(size);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    for (unsigned chunk : {1u, 5u, 8u, 32u}) {
      BitReader r({b.data(), b.size()});
      std::size_t pos = 0;
      const std::size_t limit = size * 8 + 64;
      while (pos < limit) {
        const unsigned n = static_cast<unsigned>(std::min<std::size_t>(chunk, limit - pos));
        std::uint64_t want = 0;
        for (unsigned i = 0; i < n; ++i) want |= stream_bit(b, pos + i) << i;
        ASSERT_EQ(r.get_bits(n), want) << "size " << size << " chunk " << chunk;
        pos += n;
      }
      EXPECT_EQ(r.bits_consumed(), limit);
      EXPECT_THROW(r.get_bit(), std::runtime_error) << "size " << size;
    }
  }
}

}  // namespace
}  // namespace ipcomp
