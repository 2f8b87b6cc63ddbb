// Stage replays: the per-layer split of work that runs inside the library.
//
// compress() and ProgressiveReader::execute() expose no internal spans, so
// the traced runs re-run the library's public stage kernels on the
// workload's *real* intermediate data and time each call:
//   * decode side — codec_decompress, predictive_decode_planes and
//     deposit_planes over exactly the segment batches a reader fetched,
//     grouped per (block, level) as the reader groups them, each stage as
//     its own parallel pass so its wall time is comparable to execute();
//   * encode side — encode_level, predictive_encode_plane and
//     codec_compress over the level codes the decode side recovered (the
//     archive's own quantized codes), checked byte-for-byte against the
//     archive's plane segments;
//   * checksum64 over every segment payload.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/header.hpp"
#include "io/archive.hpp"

namespace perfbench {

struct DecodeTimes {
  double codec_s = 0.0;       // codec_decompress (planes + solid base codes)
  double predictive_s = 0.0;  // predictive_decode_planes
  double deposit_s = 0.0;     // deposit_planes
};

struct EncodeTimes {
  double encode_level_s = 0.0;  // plane split + truncation-loss table
  double predictive_s = 0.0;    // predictive_encode_plane
  double codec_s = 0.0;         // codec_compress (kProbe, the default)
  std::uint64_t planes = 0;
  std::uint64_t in_bytes = 0;   // predictive residual bytes into the codec
  std::uint64_t out_bytes = 0;  // codec output bytes
  /// Segments per CodecMethod tag (empty, raw, rle, lzh, bitpack).
  std::array<std::uint64_t, 5> methods{};
  /// Every re-encoded plane equals the archive's segment byte for byte.
  bool matches_archive = true;
};

/// Append the coding-layer metrics of an encode replay (coding.encode_s,
/// coding.in_bytes, coding.out_bytes, coding.method.*) to `out`.
void add_coding_layers(const EncodeTimes& enc, std::size_t samples,
                       std::vector<Metric>& out);

class ArchiveReplay {
 public:
  explicit ArchiveReplay(const ipcomp::Bytes& archive);

  /// Decode one fetch batch (the segments of one plan, in plan order) into
  /// the replay's code arrays, timing each stage.  Throws on malformed
  /// segments, like the reader would.
  void decode(const std::vector<ipcomp::SegmentId>& ids);
  const DecodeTimes& decode_times() const { return decode_; }

  /// Re-encode every progressive level from the decoded codes.  Requires a
  /// prior decode of every segment.  Runs on the calling thread count.
  EncodeTimes encode();

  /// Seconds for checksum64 over every segment payload, single pass on the
  /// calling thread; throws if a sum differs from the archive's record.
  double checksum_seconds();

  std::vector<ipcomp::SegmentId> all_segments() const {
    return src_.segment_ids();
  }

 private:
  const std::vector<ipcomp::LevelHeader>& levels_of(std::size_t b) const {
    return header_.block_side == 0 ? header_.levels : header_.block_levels[b];
  }

  ipcomp::MemorySource src_;
  ipcomp::Header header_;
  /// [block][level][slot]: the codes recovered so far.
  std::vector<std::vector<std::vector<std::uint32_t>>> codes_;
  DecodeTimes decode_;
};

}  // namespace perfbench
