#include "coding/huffman.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace ipcomp {

namespace {

std::uint32_t bit_reverse(std::uint32_t code, unsigned len) {
  std::uint32_t rev = 0;
  for (unsigned i = 0; i < len; ++i) {
    rev |= ((code >> i) & 1u) << (len - 1 - i);
  }
  return rev;
}

/// Byte bit-reversal table for the decoder's table build: a table-sized
/// code reverses with two lookups instead of a loop over its bits.
constexpr std::array<std::uint8_t, 256> kReverse8 = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned r = 0;
    for (unsigned i = 0; i < 8; ++i) r |= ((b >> i) & 1u) << (7 - i);
    t[b] = static_cast<std::uint8_t>(r);
  }
  return t;
}();

/// bit_reverse for len in [1, 16].
std::uint32_t bit_reverse_short(std::uint32_t code, unsigned len) {
  return ((std::uint32_t{kReverse8[code & 0xFFu]} << 8) | kReverse8[(code >> 8) & 0xFFu]) >>
         (16 - len);
}

/// First index at or after `s` with a nonzero length (lengths.size() if
/// none).  Zero runs are skipped a word at a time: a small segment's
/// literal alphabet is mostly unused symbols.
std::size_t next_used(std::span<const std::uint8_t> lengths, std::size_t s) {
  const std::size_t n = lengths.size();
  for (std::uint64_t w = 0; s + 8 <= n; s += 8) {
    std::memcpy(&w, lengths.data() + s, 8);
    if (w != 0) break;
  }
  while (s < n && lengths[s] == 0) ++s;
  return s;
}

/// Canonical code assignment from lengths: returns codes (MSB-first values).
std::vector<std::uint32_t> assign_canonical(std::span<const std::uint8_t> lengths,
                                            unsigned max_len) {
  std::vector<std::uint32_t> bl_count(max_len + 2, 0);
  for (auto l : lengths) {
    if (l) ++bl_count[l];
  }
  std::vector<std::uint32_t> next_code(max_len + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    next_code[len] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) codes[s] = next_code[lengths[s]]++;
  }
  return codes;
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs,
                                             unsigned limit) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);
  std::vector<std::size_t> used;
  for (std::size_t i = 0; i < n; ++i) {
    if (freqs[i] > 0) used.push_back(i);
  }
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }

  // Standard heap-based Huffman over the used symbols.
  const std::size_t m = used.size();
  std::vector<std::uint64_t> weight(2 * m, 0);
  std::vector<std::int32_t> parent(2 * m, -1);
  for (std::size_t i = 0; i < m; ++i) weight[i] = freqs[used[i]];

  using Node = std::pair<std::uint64_t, std::size_t>;  // (weight, index)
  std::priority_queue<Node, std::vector<Node>, std::greater<>> heap;
  for (std::size_t i = 0; i < m; ++i) heap.push({weight[i], i});
  std::size_t next = m;
  while (heap.size() > 1) {
    auto [wa, a] = heap.top();
    heap.pop();
    auto [wb, b] = heap.top();
    heap.pop();
    weight[next] = wa + wb;
    parent[a] = static_cast<std::int32_t>(next);
    parent[b] = static_cast<std::int32_t>(next);
    heap.push({weight[next], next});
    ++next;
  }

  unsigned max_depth = 0;
  for (std::size_t i = 0; i < m; ++i) {
    unsigned d = 0;
    for (std::int32_t p = parent[i]; p >= 0; p = parent[p]) ++d;
    lengths[used[i]] = static_cast<std::uint8_t>(std::min<unsigned>(d, 255));
    max_depth = std::max(max_depth, d);
  }

  if (max_depth > limit) {
    // Clamp overlong codes and repair the Kraft sum by lengthening the
    // cheapest (least frequent) short codes until the code is feasible.
    for (std::size_t i : used) {
      if (lengths[i] > limit) lengths[i] = static_cast<std::uint8_t>(limit);
    }
    auto kraft = [&]() {
      std::uint64_t k = 0;
      for (std::size_t i : used) k += std::uint64_t{1} << (limit - lengths[i]);
      return k;
    };
    const std::uint64_t target = std::uint64_t{1} << limit;
    std::uint64_t k = kraft();
    std::vector<std::size_t> by_freq(used);
    std::sort(by_freq.begin(), by_freq.end(),
              [&](std::size_t a, std::size_t b) { return freqs[a] < freqs[b]; });
    for (std::size_t i : by_freq) {
      while (k > target && lengths[i] < limit) {
        k -= std::uint64_t{1} << (limit - lengths[i] - 1);
        ++lengths[i];
      }
      if (k <= target) break;
    }
    if (k > target) throw std::logic_error("huffman: Kraft repair failed");
  }
  return lengths;
}

void serialize_code_lengths(ByteWriter& w, std::span<const std::uint8_t> lengths) {
  w.varint(lengths.size());
  std::size_t n_used = 0;
  for (auto l : lengths) {
    if (l) ++n_used;
  }
  w.varint(n_used);
  std::size_t prev = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) {
      w.varint(s - prev);
      w.u8(lengths[s]);
      prev = s;
    }
  }
}

std::vector<std::uint8_t> deserialize_code_lengths(ByteReader& r,
                                                   std::size_t max_alphabet) {
  const std::uint64_t alphabet = r.varint();
  const std::uint64_t n_used = r.varint();
  // Both counts are checked before they size anything: a forged varint must
  // not drive an allocation.
  if (alphabet > max_alphabet) throw std::runtime_error("huffman: alphabet too large");
  if (n_used > alphabet) throw std::runtime_error("huffman: too many used symbols");
  std::vector<std::uint8_t> lengths(alphabet, 0);
  std::uint64_t sym = 0;
  for (std::uint64_t i = 0; i < n_used; ++i) {
    const std::uint64_t gap = r.varint();
    if (gap >= alphabet - sym) throw std::runtime_error("huffman: symbol out of range");
    sym += gap;
    lengths[sym] = r.u8();
  }
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : length_(lengths.begin(), lengths.end()) {
  unsigned max_len = 0;
  for (auto l : lengths) max_len = std::max<unsigned>(max_len, l);
  if (max_len > kHuffmanMaxLen) throw std::invalid_argument("huffman: length too long");
  auto codes = assign_canonical(lengths, std::max(1u, max_len));
  reversed_code_.resize(lengths.size());
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    reversed_code_[s] = bit_reverse(codes[s], lengths[s]);
  }
}

std::uint64_t HuffmanEncoder::cost_bits(std::span<const std::uint64_t> freqs) const {
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freqs.size() && s < length_.size(); ++s) {
    bits += freqs[s] * length_[s];
  }
  return bits;
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  // Every check here guards decode-side input (code lengths come from the
  // archive), so failures are runtime errors, not caller bugs.
  if (lengths.size() > (std::size_t{1} << kHuffmanMaxLen)) {
    throw std::runtime_error("huffman: alphabet too large");
  }
  for (std::size_t s = next_used(lengths, 0); s < lengths.size();
       s = next_used(lengths, s + 1)) {
    const unsigned l = lengths[s];
    if (l > kHuffmanMaxLen) throw std::runtime_error("huffman: length too long");
    ++count_[l];
    max_len_ = std::max<unsigned>(max_len_, l);
  }

  // Canonical first codes per length.  A length whose codes overflow its
  // bit width means the lengths violate Kraft's inequality.
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += count_[len];
    if (std::uint64_t{code} + count_[len] > (std::uint64_t{1} << len)) {
      throw std::runtime_error("huffman: oversubscribed code lengths");
    }
  }

  // One pass in symbol order hands out the canonical codes: short codes
  // fill their table entries, long ones land in the slow path's ranges.
  table_bits_ = std::min(max_len_, kMaxTableBits);
  const std::size_t table_size = std::size_t{1} << table_bits_;
  std::fill_n(table_.begin(), table_size, 0u);
  if (max_len_ > table_bits_) sorted_symbols_.resize(index);
  std::uint32_t next_code[kHuffmanMaxLen + 1];
  std::copy(std::begin(first_code_), std::end(first_code_), next_code);
  for (std::size_t s = next_used(lengths, 0); s < lengths.size();
       s = next_used(lengths, s + 1)) {
    const unsigned len = lengths[s];
    const std::uint32_t c = next_code[len]++;
    if (len > table_bits_) {
      sorted_symbols_[first_index_[len] + (c - first_code_[len])] =
          static_cast<std::uint32_t>(s);
      continue;
    }
    const std::uint32_t entry = (static_cast<std::uint32_t>(s) << 5) | len;
    for (std::size_t j = bit_reverse_short(c, len); j < table_size; j += std::size_t{1} << len) {
      table_[j] = entry;
    }
  }
}

std::uint32_t HuffmanDecoder::decode_slow(BitReader& br) const {
  // Escapes only come from codes longer than the table (or from bit
  // patterns no symbol owns).  Accumulate the code MSB-first (bits arrive
  // MSB-first because the encoder writes them reversed).
  if (max_len_ > table_bits_) {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
      code = (code << 1) | br.get_bit();
      if (len > table_bits_ && code - first_code_[len] < count_[len]) {
        return sorted_symbols_[first_index_[len] + (code - first_code_[len])];
      }
    }
  }
  throw std::runtime_error("huffman: invalid code");
}

}  // namespace ipcomp
