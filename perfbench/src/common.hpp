// Shared pieces of the perfbench workloads: run configuration, the result
// record every workload fills, sample statistics, the seeded field
// generator, content hashing, and the timing SegmentSource decorator.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "io/archive.hpp"
#include "util/dims.hpp"
#include "util/ndarray.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for archive files (inside the checkout's build tree).
  std::string workdir = ".";
  /// Worker threads for compress/decode (the machine's core count).
  int threads = 1;
};

/// One named value with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What a workload run produces.  `end_to_end` and `per_layer` carry the
/// BENCHMARK.json names; `report` carries the paper-level names (e.g.
/// `compress_mbps`, `serve_latency_ms_p95`) that apply to this workload, so
/// one run prints every figure a reader looks for under its own name.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> report;
};

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 for no samples.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Side of the compress and retrieve workloads' cubic field.
inline constexpr std::size_t kFieldSide = 256;

/// Options of the 256^3 archive (compress and retrieve): block side 64, so
/// 64 blocks keep every core busy; everything else is the library default.
ipcomp::Options field_options();

/// Options of the serve workload's small archive: block side 16, and a
/// progressive threshold of 256 so the archive is genuinely progressive
/// (with the default every level of a 16^3 block is stored whole and
/// partial requests price as full).
ipcomp::Options serve_options();

/// The benchmark field: seeded smooth structure (a few random plane waves
/// and a Gaussian bump) plus fBm noise from data/noise.hpp.  The same seed
/// and dims always give the same values.
ipcomp::NdArray<double> make_field(const ipcomp::Dims& dims, std::uint64_t seed);

/// XXH64 of a byte buffer / of a value array's bytes.
std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes);
std::uint64_t hash_values(const std::vector<double>& values);

/// Largest |a[i] - b[i]| over the box [lo, hi) of a row-major 3-D field.
double max_abs_error(const std::vector<double>& a, const double* b,
                     const ipcomp::Dims& dims,
                     const std::array<std::size_t, ipcomp::kMaxRank>& lo,
                     const std::array<std::size_t, ipcomp::kMaxRank>& hi);

/// Time `fn` once, in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Multiplier on an error bound when comparing a reconstruction against it:
/// floating-point rounding of the reconstruction sweep, the same slack the
/// library's own tests allow.
inline constexpr double kRoundingSlack = 1.0 + 1e-9;

/// Sets the calling thread's OpenMP team size for its lifetime, then
/// restores the previous value (no-op without OpenMP).
class ThreadScope {
 public:
  explicit ThreadScope(int threads);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_ = 1;
};

/// SegmentSource decorator that forwards every call to `inner` and times the
/// payload fetches (read_segment / read_many).  SegmentSource::stats() is not
/// virtual, so after every forwarded call the decorator charges its own
/// ledger with exactly what the inner source charged — the reader above sees
/// the same bytes_read, and plans stay exact.
class TimingSource final : public ipcomp::SegmentSource {
 public:
  explicit TimingSource(ipcomp::SegmentSource& inner) : inner_(inner) {}

  const ipcomp::Bytes& header() override;
  ipcomp::Bytes read_segment(ipcomp::SegmentId id) override;
  std::vector<ipcomp::Bytes> read_many(
      std::span<const ipcomp::SegmentId> ids) override;
  bool has_segment(ipcomp::SegmentId id) const override {
    return inner_.has_segment(id);
  }
  std::size_t segment_size(ipcomp::SegmentId id) const override {
    return inner_.segment_size(id);
  }
  std::vector<ipcomp::SegmentId> segment_ids() const override {
    return inner_.segment_ids();
  }
  std::uint32_t version() const override { return inner_.version(); }
  std::optional<std::uint64_t> segment_checksum(
      ipcomp::SegmentId id) const override {
    return inner_.segment_checksum(id);
  }
  std::size_t total_size() const override { return inner_.total_size(); }

  /// Seconds spent inside payload fetches so far.
  double read_seconds() const { return read_seconds_; }

 private:
  /// Charge this source with what the inner source charged since `before`.
  void mirror(const ipcomp::SourceStats& before);

  ipcomp::SegmentSource& inner_;
  double read_seconds_ = 0.0;
};

// The three workloads (wl_*.cpp).  Each sets itself up (set-up time is
// measured), measures for cfg.seconds, checks every output, and with
// cfg.trace also produces the per-layer split.
Result run_compress(const Config& cfg);
Result run_retrieve(const Config& cfg);
Result run_serve(const Config& cfg);

}  // namespace perfbench
