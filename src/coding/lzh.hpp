// LZ77 + canonical Huffman general-purpose byte compressor ("lzh").
//
// This is the repository's stand-in for zstd: a deflate-style design built
// from scratch.  Input is cut into independent 256 KiB blocks (compressed in
// parallel under OpenMP); each block is greedy hash-chain LZ77 tokenized and
// entropy coded with two Huffman tables (literal/length and distance).
// Blocks that do not shrink are stored raw.
#pragma once

#include <cstddef>
#include <span>

#include "io/bytes.hpp"

namespace ipcomp {

/// Compress arbitrary bytes.  Output embeds everything needed to decode.
Bytes lzh_compress(std::span<const std::uint8_t> input);

/// Decompress a buffer produced by lzh_compress.  Malformed input throws
/// std::runtime_error.
Bytes lzh_decompress(std::span<const std::uint8_t> input);

/// As above for a caller that knows the decoded size: a declared total other
/// than `expected_size` is rejected before anything is allocated, and the
/// output is allocated once.
Bytes lzh_decompress(std::span<const std::uint8_t> input, std::size_t expected_size);

}  // namespace ipcomp
