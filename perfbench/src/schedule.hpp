// The serve workload's seeded session schedule.  Each client draws an
// endless sequence of sessions from its own Rng stream (seed, client id);
// a session is four requests: a coarse uniform view, a region drill-down,
// a byte-budget top-up and a finer uniform view.  Error bounds are drawn
// relative to the data range, so the same seed yields the same schedule on
// any field.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/request.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Field extents the schedule's region boxes are drawn in.
inline constexpr std::size_t kServeDims[3] = {96, 96, 64};

struct SessionSpec {
  double coarse_rel = 0.0;
  ipcomp::RegionBox region;
  double region_rel = 0.0;
  std::uint64_t budget = 0;
  double finer_rel = 0.0;

  std::vector<ipcomp::Request> requests(double range) const {
    using ipcomp::Request;
    return {Request::error_bound(coarse_rel * range),
            Request::error_bound(region_rel * range).within(region.lo, region.hi),
            Request::bytes(budget),
            Request::error_bound(finer_rel * range)};
  }
};

class ScheduleGen {
 public:
  ScheduleGen(std::uint64_t seed, int client)
      : rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(client) + 1) {}

  SessionSpec next() {
    SessionSpec s;
    s.coarse_rel = std::pow(10.0, rng_.uniform(-3.0, -2.0));
    for (std::size_t d = 0; d < 3; ++d) {
      const std::size_t n = kServeDims[d];
      const std::size_t extent = n / 4 + rng_.uniform_u64(n / 4 + 1);
      const std::size_t origin = rng_.uniform_u64(n - extent + 1);
      s.region.lo[d] = origin;
      s.region.hi[d] = origin + extent;
    }
    s.region_rel = std::pow(10.0, rng_.uniform(-5.5, -4.5));
    s.budget = 20000 + rng_.uniform_u64(40001);
    s.finer_rel = std::pow(10.0, rng_.uniform(-4.5, -3.5));
    return s;
  }

 private:
  ipcomp::Rng rng_;
};

}  // namespace perfbench
