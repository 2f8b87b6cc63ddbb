// Workload `retrieve`: the paper's progressive read (Algorithms 1 & 2).  One
// operation is a fresh FileSource + ProgressiveReader over the 256^3 field's
// archive running a four-step ladder: a uniform coarse view, a corner-octant
// drill-down, a uniform refinement and full fidelity, on every core.
// Compression is idle and no protocol is involved.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

constexpr std::size_t kSide = kFieldSide;
constexpr std::size_t kHalf = kSide / 2;

struct Step {
  Request request;
  std::array<std::size_t, kMaxRank> lo{0, 0, 0, 0};
  std::array<std::size_t, kMaxRank> hi{kSide, kSide, kSide, 0};
};

/// The ladder, with relative error bounds resolved against the data range.
std::vector<Step> make_ladder(double range) {
  std::vector<Step> steps(4);
  steps[0].request = Request::error_bound(1e-2 * range);
  steps[1].hi = {kHalf, kHalf, kHalf, 0};
  steps[1].request =
      Request::error_bound(1e-5 * range).within(steps[1].lo, steps[1].hi);
  steps[2].request = Request::error_bound(1e-4 * range);
  steps[3].request = Request::full();
  return steps;
}

struct Ladder {
  bool ok = true;
  double open_s = 0.0, plan_s = 0.0, execute_s = 0.0, read_s = 0.0;
  double first_s = 0.0;  // open + plan + execute of the first step
  std::uint64_t final_hash = 0;
  SourceStats io;
  std::size_t segments = 0;
  std::vector<std::vector<SegmentId>> step_segments;
  double total_s() const { return open_s + plan_s + execute_s; }
};

/// One ladder.  Only the library calls are timed; the oracle checks between
/// steps are not.  `traced` routes reads through a TimingSource.
Ladder run_ladder(const std::string& path, const std::vector<Step>& steps,
                  const NdArray<double>& field, bool traced) {
  Ladder l;
  std::optional<FileSource> file;
  std::optional<TimingSource> timing;
  std::optional<ProgressiveReader<double>> reader;
  l.open_s = timed([&] {
    file.emplace(path);
    SegmentSource& src = traced ? timing.emplace(*file) : static_cast<SegmentSource&>(*file);
    reader.emplace(src);
  });
  for (std::size_t i = 0; i < steps.size(); ++i) {
    RetrievalPlan plan;
    l.plan_s += timed([&] { plan = reader->plan(steps[i].request); });
    RetrievalStats st;
    l.execute_s += timed([&] { st = reader->execute(plan); });
    if (i == 0) l.first_s = l.total_s();
    l.segments += plan.segments.size();
    if (traced) l.step_segments.push_back(plan.segments);
    if (st.bytes_new != plan.bytes_new) {
      std::fprintf(stderr, "retrieve: step %zu fetched %zu bytes, plan said %zu\n",
                   i, st.bytes_new, static_cast<std::size_t>(plan.bytes_new));
      l.ok = false;
    }
    const double err = max_abs_error(field.vector(), reader->data().data(),
                                     field.dims(), steps[i].lo, steps[i].hi);
    if (!(err <= st.guaranteed_error * kRoundingSlack)) {
      std::fprintf(stderr, "retrieve: step %zu error %g exceeds guarantee %g\n",
                   i, err, st.guaranteed_error);
      l.ok = false;
    }
  }
  l.final_hash = hash_values(reader->data());
  l.io = file->stats();
  if (timing) l.read_s = timing->read_seconds();
  return l;
}

/// Ladders back to back for `seconds`; each must end on `ref_hash`.
std::vector<Ladder> ladder_loop(const std::string& path,
                                const std::vector<Step>& steps,
                                const NdArray<double>& field,
                                std::uint64_t ref_hash, bool traced,
                                double seconds, Result& r) {
  std::vector<Ladder> out;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    ++r.attempted;
    try {
      Ladder l = run_ladder(path, steps, field, traced);
      if (!l.ok || l.final_hash != ref_hash) ++r.failed;
      out.push_back(std::move(l));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "retrieve: %s\n", e.what());
      ++r.failed;
    }
  }
  return out;
}

template <typename Fn>
std::vector<double> collect(const std::vector<Ladder>& ls, Fn&& fn) {
  std::vector<double> v;
  v.reserve(ls.size());
  for (const Ladder& l : ls) v.push_back(fn(l));
  return v;
}

void trace_layers(const std::vector<Ladder>& traced, const Bytes& archive,
                  Result& r) {
  auto layer = [&](const char* name, double v, const char* unit) {
    r.per_layer.push_back({name, v, unit, traced.size()});
  };
  const double open_ms = median(collect(traced, [](const Ladder& l) { return l.open_s; })) * 1e3;
  const double plan_ms = median(collect(traced, [](const Ladder& l) { return l.plan_s; })) * 1e3;
  const double read_ms = median(collect(traced, [](const Ladder& l) { return l.read_s; })) * 1e3;
  const double self_ms = median(collect(traced, [](const Ladder& l) {
                           return l.execute_s - l.read_s;
                         })) * 1e3;

  // Decode replays of one ladder's fetch batches, three times; medians.
  const Ladder& one = traced.front();
  std::vector<double> codec, pred, deposit;
  EncodeTimes enc;
  double checksum_s = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    ArchiveReplay replay(archive);
    for (const auto& batch : one.step_segments) replay.decode(batch);
    codec.push_back(replay.decode_times().codec_s);
    pred.push_back(replay.decode_times().predictive_s);
    deposit.push_back(replay.decode_times().deposit_s);
    if (rep == 0) {
      ThreadScope single(1);
      enc = replay.encode();
      checksum_s = replay.checksum_seconds();
    }
  }
  if (!enc.matches_archive) {
    throw std::runtime_error("retrieve: re-encoded planes differ from the archive");
  }
  const double decode_s = median(codec), pred_s = median(pred),
               deposit_s = median(deposit);

  layer("core.open_ms", open_ms, "ms");
  layer("loader.plan_ms", plan_ms, "ms");
  layer("io.read_ms", read_ms, "ms");
  layer("core.execute_self_ms", self_ms, "ms");
  layer("io.read_calls", static_cast<double>(one.io.read_calls), "count");
  layer("io.coalesced_ranges", static_cast<double>(one.io.coalesced_ranges), "count");
  layer("io.bytes_read", static_cast<double>(one.io.bytes_read), "bytes");
  layer("io.segments", static_cast<double>(one.segments), "count");
  layer("coding.decode_s", decode_s, "s");
  layer("bitplane.predictive_decode_s", pred_s, "s");
  layer("bitplane.deposit_s", deposit_s, "s");
  layer("interp.reconstruct_s", self_ms / 1e3 - decode_s - pred_s - deposit_s, "s");
  add_coding_layers(enc, traced.size(), r.per_layer);
  layer("util.checksum_s", checksum_s, "s");
}

}  // namespace

Result run_retrieve(const Config& cfg) {
  const Dims dims{kSide, kSide, kSide};
  const Options opt = field_options();
  const std::string path = cfg.workdir + "/retrieve.ipc";

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

  Result r;
  std::vector<Step> steps;
  std::uint64_t bytes_1e4 = 0;
  std::uint64_t ref_hash = 0;
  {
    FileSource src(path);
    ProgressiveReader<double> reader(src);
    const Header& h = reader.header();
    steps = make_ladder(h.data_max - h.data_min);
    bytes_1e4 = reader.plan(steps[2].request).bytes_new;
  }
  // The reference ladder (also the warm-up): every timed ladder must end on
  // its bytes, and it must itself pass the per-step checks.
  {
    const Ladder ref = run_ladder(path, steps, field, false);
    if (!ref.ok) throw std::runtime_error("retrieve: reference ladder failed its checks");
    ref_hash = ref.final_hash;
  }

  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::vector<Ladder> plain =
      ladder_loop(path, steps, field, ref_hash, false, window, r);
  if (plain.empty()) throw std::runtime_error("retrieve: no ladder completed");

  const double raw_bytes = static_cast<double>(field.count() * sizeof(double));
  const std::vector<double> total = collect(plain, [](const Ladder& l) { return l.total_s(); });
  const std::vector<double> first = collect(plain, [](const Ladder& l) { return l.first_s; });
  const std::size_t n = plain.size();
  r.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"op_ms_p50", median(total) * 1e3, "ms", n},
      {"first_ms_p50", median(first) * 1e3, "ms", n},
      {"ops_per_s", 1.0 / median(total), "1/s", n},
      {"size_ratio", raw_bytes / static_cast<double>(bytes_1e4), "ratio", 1},
  };
  r.report = {
      {"first_view_ms_p50", median(first) * 1e3, "ms", n},
      {"ladder_ms_p50", median(total) * 1e3, "ms", n},
      {"bytes_at_1e-4", static_cast<double>(bytes_1e4), "bytes", 1},
  };

  if (cfg.trace) {
    Result tr;
    const std::vector<Ladder> traced =
        ladder_loop(path, steps, field, ref_hash, true, window, tr);
    r.attempted += tr.attempted;
    r.failed += tr.failed;
    if (traced.empty()) throw std::runtime_error("retrieve: no traced ladder completed");
    trace_layers(traced, archive, r);
    const double t_total = median(collect(traced, [](const Ladder& l) { return l.total_s(); }));
    const double t_first = median(collect(traced, [](const Ladder& l) { return l.first_s; }));
    r.per_layer.push_back({"trace.overhead_op_ms", (t_total - median(total)) * 1e3, "ms", traced.size()});
    r.per_layer.push_back({"trace.overhead_first_ms", (t_first - median(first)) * 1e3, "ms", traced.size()});
  }
  std::remove(path.c_str());
  return r;
}

}  // namespace perfbench
