// Workload `compress`: the paper's write path.  One operation is compress()
// of a 256^3 f64 field with block side 64, the interpolation backend and
// default options, on every core.  Retrieval and serving stay idle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

/// Compress back to back for `seconds`; every archive must equal `ref`.
std::vector<double> compress_loop(const NdArray<double>& field,
                                  const Options& opt, std::uint64_t ref,
                                  double seconds, Result& r) {
  std::vector<double> op_s;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    ++r.attempted;
    try {
      Bytes archive;
      op_s.push_back(timed([&] { archive = compress(field.const_view(), opt); }));
      if (hash_bytes(archive) != ref) ++r.failed;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "compress: %s\n", e.what());
      ++r.failed;
    }
  }
  return op_s;
}

/// The per-layer split of one compress() call (see replay.hpp).
void trace_layers(const NdArray<double>& field, const Options& opt,
                  const Bytes& archive, double nproc_op_s, Result& r) {
  auto layer = [&](const char* name, double v, const char* unit) {
    r.per_layer.push_back({name, v, unit, 1});
  };
  // Best of two for both: their difference (compress()'s own driver work)
  // is small.
  double compress_1t = HUGE_VAL, block_sum = HUGE_VAL;
  {
    ThreadScope one(1);
    const Dims dims = field.dims();
    const BlockGrid grid = BlockGrid::analyze(dims, opt.block_side);
    const double eb = resolve_error_bound(field.const_view(), opt);
    const ProgressiveBackend& backend = backend_for(opt.backend);
    const auto estrides = dims.strides();
    for (int rep = 0; rep < 2; ++rep) {
      compress_1t = std::min(
          compress_1t, timed([&] { (void)compress(field.const_view(), opt); }));
      // The backend's per-block pipeline alone, block by block, on a fresh
      // work copy: what compress() runs inside its parallel block loop.
      std::vector<double> work(field.vector());
      double sum = 0.0;
      for (std::size_t b = 0; b < grid.n_blocks; ++b) {
        const std::size_t org = grid.origin_linear(b);
        sum += timed([&] {
          (void)backend.compress_block(field.data() + org, work.data() + org,
                                       grid.block_dims(b), estrides, eb, opt,
                                       static_cast<std::uint32_t>(b));
        });
      }
      block_sum = std::min(block_sum, sum);
    }
  }

  ArchiveReplay replay(archive);
  replay.decode(replay.all_segments());
  EncodeTimes enc;
  double checksum_s = 0.0;
  {
    ThreadScope one(1);
    enc = replay.encode();
    checksum_s = replay.checksum_seconds();
  }
  if (!enc.matches_archive) {
    throw std::runtime_error("compress: re-encoded planes differ from the archive");
  }
  const DecodeTimes& dec = replay.decode_times();

  layer("core.compress_1t_s", compress_1t, "s");
  layer("core.compress_scaling", compress_1t / nproc_op_s, "ratio");
  layer("core.compress_block_s", block_sum, "s");
  layer("core.driver_s", compress_1t - block_sum, "s");
  layer("bitplane.encode_level_s", enc.encode_level_s, "s");
  layer("bitplane.predictive_encode_s", enc.predictive_s, "s");
  layer("bitplane.planes", static_cast<double>(enc.planes), "count");
  add_coding_layers(enc, 1, r.per_layer);
  layer("util.checksum_s", checksum_s, "s");
  layer("interp.sweep_quant_s",
        block_sum - enc.encode_level_s - enc.predictive_s - enc.codec_s, "s");
  layer("coding.decode_s", dec.codec_s, "s");
  layer("bitplane.predictive_decode_s", dec.predictive_s, "s");
  layer("bitplane.deposit_s", dec.deposit_s, "s");
}

}  // namespace

Result run_compress(const Config& cfg) {
  const Dims dims{kFieldSide, kFieldSide, kFieldSide};
  const Options opt = field_options();
  const std::string path = cfg.workdir + "/compress.ipc";

  // Set-up, three times: field generation + archive build + file write.
  std::vector<double> setup_s;
  NdArray<double> field;
  Bytes archive;
  for (int i = 0; i < 3; ++i) {
    setup_s.push_back(timed([&] {
      field = make_field(dims, cfg.seed);
      archive = compress(field.const_view(), opt);
      write_file(path, archive);
    }));
  }
  std::remove(path.c_str());
  const std::uint64_t ref = hash_bytes(archive);

  Result r;
  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::vector<double> op_s = compress_loop(field, opt, ref, window, r);

  // Oracle: the (byte-identical) archive decodes to within its bound.
  {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    const RetrievalStats st = reader.retrieve(Request::full());
    const double err = max_abs_error(field.vector(), reader.data().data(), dims,
                                     {0, 0, 0, 0}, {kFieldSide, kFieldSide, kFieldSide, 0});
    if (!(err <= st.guaranteed_error * kRoundingSlack) ||
        !(st.guaranteed_error <= reader.compression_eb() * kRoundingSlack)) {
      std::fprintf(stderr, "compress: full decode error %g exceeds bound %g\n",
                   err, st.guaranteed_error);
      r.failed = r.attempted;
    }
  }

  const double raw_bytes = static_cast<double>(field.count() * sizeof(double));
  const double p50_ms = median(op_s) * 1e3;
  const std::size_t n = op_s.size();
  r.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"op_ms_p50", p50_ms, "ms", n},
      {"first_ms_p50", p50_ms, "ms", n},
      {"ops_per_s", 1e3 / p50_ms, "1/s", n},
      {"size_ratio", raw_bytes / static_cast<double>(archive.size()), "ratio", 1},
  };
  r.report = {
      {"compress_mbps", raw_bytes / 1e6 / median(op_s), "MB/s", n},
      {"compress_ratio", raw_bytes / static_cast<double>(archive.size()), "ratio", 1},
      {"archive_bytes", static_cast<double>(archive.size()), "bytes", 1},
  };

  if (cfg.trace) {
    Result traced;
    const std::vector<double> traced_s = compress_loop(field, opt, ref, window, traced);
    r.attempted += traced.attempted;
    r.failed += traced.failed;
    trace_layers(field, opt, archive, median(traced_s), r);
    const double overhead = (median(traced_s) - median(op_s)) * 1e3;
    r.per_layer.push_back({"trace.overhead_op_ms", overhead, "ms", traced_s.size()});
    r.per_layer.push_back({"trace.overhead_first_ms", overhead, "ms", traced_s.size()});
  }
  return r;
}

}  // namespace perfbench
