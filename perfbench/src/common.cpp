#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "data/noise.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ipcomp;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Options field_options() {
  Options opt;
  opt.block_side = 64;
  return opt;
}

Options serve_options() {
  Options opt;
  opt.block_side = 16;
  opt.progressive_threshold = 256;
  return opt;
}

NdArray<double> make_field(const Dims& dims, std::uint64_t seed) {
  // Amplitudes, wave numbers and the bump width are fixed, so every seed
  // gives a field of the same smoothness, range and noise level (and so the
  // same compression cost); the seed moves phases, wave directions, the bump
  // centre and the noise lattice.
  Rng rng(seed);
  struct Wave {
    double amp, kx, ky, kz, phase;
  };
  constexpr double kAmp[3] = {1.0, 0.7, 0.5};
  constexpr double kCycles[3][3] = {{2, 3, 1}, {1, 2, 4}, {3, 1, 2}};
  Wave waves[3];
  for (int i = 0; i < 3; ++i) {
    auto k = [&](double cycles) {
      return (rng.uniform() < 0.5 ? -2.0 : 2.0) * std::numbers::pi * cycles;
    };
    waves[i] = {kAmp[i], k(kCycles[i][0]), k(kCycles[i][1]), k(kCycles[i][2]),
                rng.uniform(0.0, 2.0 * std::numbers::pi)};
  }
  const double cx = rng.uniform(0.3, 0.7), cy = rng.uniform(0.3, 0.7),
               cz = rng.uniform(0.3, 0.7);
  const double inv_w2 = 1.0 / (0.2 * 0.2);
  const std::uint64_t noise_seed = rng.next_u64();

  NdArray<double> field(dims);
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  parallel_for(0, nz, [&](std::size_t k) {
    const double z = static_cast<double>(k) / static_cast<double>(nz);
    double* plane = field.data() + k * ny * nx;
    for (std::size_t j = 0; j < ny; ++j) {
      const double y = static_cast<double>(j) / static_cast<double>(ny);
      for (std::size_t i = 0; i < nx; ++i) {
        const double x = static_cast<double>(i) / static_cast<double>(nx);
        double v = 0.0;
        for (const Wave& w : waves) {
          v += w.amp * std::sin(w.kx * x + w.ky * y + w.kz * z + w.phase);
        }
        const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy) +
                          (z - cz) * (z - cz);
        v += 1.5 * std::exp(-r2 * inv_w2);
        v += 0.1 * fbm3(4.0 * x, 4.0 * y, 4.0 * z, noise_seed, 3, 0.5);
        plane[j * nx + i] = v;
      }
    }
  }, /*grain=*/1);
  return field;
}

std::uint64_t hash_bytes(std::span<const std::uint8_t> bytes) {
  return checksum64(bytes);
}

std::uint64_t hash_values(const std::vector<double>& values) {
  return checksum64(reinterpret_cast<const std::uint8_t*>(values.data()),
                    values.size() * sizeof(double));
}

double max_abs_error(const std::vector<double>& a, const double* b,
                     const Dims& dims,
                     const std::array<std::size_t, kMaxRank>& lo,
                     const std::array<std::size_t, kMaxRank>& hi) {
  const std::size_t ny = dims[1], nx = dims[2];
  const std::size_t lines_y = hi[1] - lo[1];
  const std::size_t n_lines = (hi[0] - lo[0]) * lines_y;
  std::vector<double> line_max(n_lines, 0.0);
  parallel_for(0, n_lines, [&](std::size_t l) {
    const std::size_t k = lo[0] + l / lines_y, j = lo[1] + l % lines_y;
    const std::size_t base = (k * ny + j) * nx;
    double m = 0.0;
    for (std::size_t i = lo[2]; i < hi[2]; ++i) {
      const double d = std::abs(a[base + i] - b[base + i]);
      // A NaN difference must fail the check, never pass it.
      if (!(d <= m)) m = std::isnan(d) ? HUGE_VAL : d;
    }
    line_max[l] = m;
  }, /*grain=*/64);
  return line_max.empty() ? 0.0
                          : *std::max_element(line_max.begin(), line_max.end());
}

ThreadScope::ThreadScope(int threads) : saved_(thread_count()) {
#if defined(_OPENMP)
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

ThreadScope::~ThreadScope() {
#if defined(_OPENMP)
  omp_set_num_threads(saved_);
#endif
}

const Bytes& TimingSource::header() {
  const SourceStats before = inner_.stats();
  const Bytes& h = inner_.header();
  mirror(before);
  return h;
}

Bytes TimingSource::read_segment(SegmentId id) {
  const SourceStats before = inner_.stats();
  const auto t0 = Clock::now();
  Bytes payload = inner_.read_segment(id);
  read_seconds_ += seconds_since(t0);
  mirror(before);
  return payload;
}

std::vector<Bytes> TimingSource::read_many(std::span<const SegmentId> ids) {
  const SourceStats before = inner_.stats();
  const auto t0 = Clock::now();
  std::vector<Bytes> payloads = inner_.read_many(ids);
  read_seconds_ += seconds_since(t0);
  mirror(before);
  return payloads;
}

void TimingSource::mirror(const SourceStats& before) {
  const SourceStats after = inner_.stats();
  charge_bytes(after.bytes_read - before.bytes_read);
  for (std::size_t i = before.read_calls; i < after.read_calls; ++i) {
    count_read_call();
  }
  for (std::size_t i = before.coalesced_ranges; i < after.coalesced_ranges; ++i) {
    count_coalesced_range();
  }
}

}  // namespace perfbench
