#include "replay.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "bitplane/bitplane.hpp"
#include "bitplane/predictive.hpp"
#include "coding/codec.hpp"
#include "io/bytes.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace ipcomp;

void add_coding_layers(const EncodeTimes& enc, std::size_t samples,
                       std::vector<Metric>& out) {
  out.push_back({"coding.encode_s", enc.codec_s, "s", samples});
  out.push_back({"coding.in_bytes", static_cast<double>(enc.in_bytes), "bytes", samples});
  out.push_back({"coding.out_bytes", static_cast<double>(enc.out_bytes), "bytes", samples});
  const char* methods[] = {"empty", "raw", "rle", "lzh", "bitpack"};
  for (std::size_t m = 0; m < enc.methods.size(); ++m) {
    out.push_back({std::string("coding.method.") + methods[m],
                   static_cast<double>(enc.methods[m]), "count", samples});
  }
}

ArchiveReplay::ArchiveReplay(const Bytes& archive)
    : src_(Bytes(archive)), header_(Header::parse(src_.header())) {
  const std::size_t n_blocks =
      header_.block_side == 0 ? 1 : header_.block_levels.size();
  codes_.resize(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const auto& levels = levels_of(b);
    codes_[b].resize(levels.size());
    for (std::size_t li = 0; li < levels.size(); ++li) {
      codes_[b][li].assign(levels[li].count, 0);
    }
  }
}

void ArchiveReplay::decode(const std::vector<SegmentId>& ids) {
  std::vector<Bytes> payloads = src_.read_many(ids);

  // One group per (block, level), as the reader batches a level's planes.
  struct Group {
    std::uint32_t block = 0;
    unsigned level = 0;
    Bytes base;  // empty unless this batch carries the level's base
    bool has_base = false;
    std::vector<std::pair<unsigned, Bytes>> planes;  // (k, payload)
  };
  std::map<std::pair<std::uint32_t, unsigned>, Group> by_key;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const SegmentId& id = ids[i];
    if (id.kind != kSegBase && id.kind != kSegPlane) continue;
    Group& g = by_key[{id.block, id.level - 1u}];
    g.block = id.block;
    g.level = id.level - 1u;
    if (id.kind == kSegBase) {
      g.base = std::move(payloads[i]);
      g.has_base = true;
    } else {
      g.planes.emplace_back(id.plane, std::move(payloads[i]));
    }
  }
  std::vector<Group> groups;
  groups.reserve(by_key.size());
  for (auto& [key, g] : by_key) {
    std::sort(g.planes.begin(), g.planes.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    groups.push_back(std::move(g));
  }

  // Stage 1: codec decode of every plane, plus the whole-stored codes of
  // solid levels (the only codec work inside a base segment).
  decode_.codec_s += timed([&] {
    parallel_for_ex(0, groups.size(), [&](std::size_t gi) {
      Group& g = groups[gi];
      const LevelHeader& lh = levels_of(g.block)[g.level];
      for (auto& [k, seg] : g.planes) {
        seg = codec_decompress({seg.data(), seg.size()}, plane_bytes(lh.count));
      }
      if (!g.has_base) return;
      ByteReader r({g.base.data(), g.base.size()});
      const std::uint64_t n_out = r.varint();
      for (std::uint64_t i = 0; i < n_out; ++i) {
        r.varint();
        r.f64();
      }
      if (lh.progressive) return;
      const std::size_t packed_size = r.varint();
      const Bytes raw = codec_decompress(r.bytes(packed_size), lh.count * 4);
      auto& codes = codes_[g.block][g.level];
      for (std::size_t i = 0; i < lh.count; ++i) {
        codes[i] = static_cast<std::uint32_t>(raw[4 * i]) |
                   static_cast<std::uint32_t>(raw[4 * i + 1]) << 8 |
                   static_cast<std::uint32_t>(raw[4 * i + 2]) << 16 |
                   static_cast<std::uint32_t>(raw[4 * i + 3]) << 24;
      }
    }, /*grain=*/2);
  });

  // Stage 2: predictive decode, MSB-first on the packed buffers.
  if (header_.prefix_bits != 0) {
    decode_.predictive_s += timed([&] {
      parallel_for(0, groups.size(), [&](std::size_t gi) {
        Group& g = groups[gi];
        if (g.planes.empty()) return;
        std::vector<MutablePlane> mut;
        mut.reserve(g.planes.size());
        for (auto& [k, bits] : g.planes) mut.push_back({k, {bits.data(), bits.size()}});
        predictive_decode_planes(codes_[g.block][g.level], mut,
                                 header_.prefix_bits);
      }, /*grain=*/2);
    });
  }

  // Stage 3: one multi-plane deposit per (block, level).
  decode_.deposit_s += timed([&] {
    parallel_for(0, groups.size(), [&](std::size_t gi) {
      Group& g = groups[gi];
      if (g.planes.empty()) return;
      std::vector<PlaneSpan> spans;
      spans.reserve(g.planes.size());
      for (auto& [k, bits] : g.planes) spans.push_back({k, {bits.data(), bits.size()}});
      deposit_planes(codes_[g.block][g.level], spans);
    }, /*grain=*/2);
  });
}

EncodeTimes ArchiveReplay::encode() {
  EncodeTimes t;
  for (std::size_t b = 0; b < codes_.size(); ++b) {
    const auto& levels = levels_of(b);
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const LevelHeader& lh = levels[li];
      if (!lh.progressive) continue;
      const std::vector<std::uint32_t>& codes = codes_[b][li];
      LevelEncoding enc;
      t.encode_level_s += timed([&] { enc = encode_level(codes, /*with_loss=*/true); });
      if (enc.n_planes != lh.n_planes) t.matches_archive = false;
      t.planes += enc.n_planes;
      for (unsigned k = 0; k < enc.n_planes; ++k) {
        Bytes encoded;
        t.predictive_s += timed([&] {
          encoded = header_.prefix_bits == 0
                        ? enc.planes[k]
                        : predictive_encode_plane(codes, enc.planes[k], k,
                                                  header_.prefix_bits);
        });
        Bytes packed;
        t.codec_s += timed([&] {
          packed = codec_compress({encoded.data(), encoded.size()});
        });
        t.in_bytes += encoded.size();
        t.out_bytes += packed.size();
        if (!packed.empty() && packed[0] < t.methods.size()) ++t.methods[packed[0]];
        const SegmentId id{kSegPlane, static_cast<std::uint16_t>(li + 1), k,
                           static_cast<std::uint32_t>(b)};
        if (packed != src_.read_segment(id)) t.matches_archive = false;
      }
    }
  }
  return t;
}

double ArchiveReplay::checksum_seconds() {
  const std::vector<SegmentId> ids = src_.segment_ids();
  const std::vector<Bytes> payloads = src_.read_many(ids);
  std::vector<std::uint64_t> sums(payloads.size());
  const double s = timed([&] {
    for (std::size_t i = 0; i < payloads.size(); ++i) sums[i] = checksum64(payloads[i]);
  });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto recorded = src_.segment_checksum(ids[i]);
    if (recorded && *recorded != sums[i]) {
      throw std::runtime_error("replay: checksum differs from the archive's");
    }
  }
  return s;
}

}  // namespace perfbench
