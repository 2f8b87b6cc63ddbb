// perfbench: the repository benchmark.
//
//   perfbench --workload compress|retrieve|serve --seed N --seconds S
//             --trace 0|1 [--workdir DIR] [--commit ID]
//   perfbench --list-metrics          every metric name and unit, as JSON
//   perfbench --hashes --seed N       field / archive / schedule hashes
//
// A run prints a `report` line (run metadata, sample counts, failed_frac and
// the workload's figures under their paper-level names), then, as its last
// line, the result object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, where a layer the workload never enters reads 0.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/compressor.hpp"
#include "schedule.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"

namespace {

using namespace perfbench;

struct Name {
  const char* name;
  const char* unit;
};

constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},       {"op_ms_p50", "ms"},     {"first_ms_p50", "ms"},
    {"ops_per_s", "1/s"},   {"size_ratio", "ratio"},
};

constexpr Name kPerLayer[] = {
    // compress
    {"core.compress_1t_s", "s"},
    {"core.compress_scaling", "ratio"},
    {"core.compress_block_s", "s"},
    {"core.driver_s", "s"},
    {"interp.sweep_quant_s", "s"},
    {"bitplane.encode_level_s", "s"},
    {"bitplane.predictive_encode_s", "s"},
    {"bitplane.planes", "count"},
    {"coding.encode_s", "s"},
    {"coding.in_bytes", "bytes"},
    {"coding.out_bytes", "bytes"},
    {"coding.method.empty", "count"},
    {"coding.method.raw", "count"},
    {"coding.method.rle", "count"},
    {"coding.method.lzh", "count"},
    {"coding.method.bitpack", "count"},
    {"util.checksum_s", "s"},
    // retrieve
    {"core.open_ms", "ms"},
    {"loader.plan_ms", "ms"},
    {"io.read_ms", "ms"},
    {"io.read_calls", "count"},
    {"io.coalesced_ranges", "count"},
    {"io.bytes_read", "bytes"},
    {"io.segments", "count"},
    {"core.execute_self_ms", "ms"},
    {"coding.decode_s", "s"},
    {"bitplane.predictive_decode_s", "s"},
    {"bitplane.deposit_s", "s"},
    {"interp.reconstruct_s", "s"},
    // serve
    {"net.client_plan_ms", "ms"},
    {"net.client_execute_ms", "ms"},
    {"core.local_decode_ms", "ms"},
    {"net.wait_ms", "ms"},
    {"net.frames_in", "count"},
    {"net.frames_out", "count"},
    {"net.wire_bytes_out", "bytes"},
    {"net.payload_bytes_sent", "bytes"},
    {"net.errors_sent", "count"},
    {"net.slow_client_evictions", "count"},
    {"net.retries", "count"},
    {"net.recoveries", "count"},
    {"net.wire_over_logical", "ratio"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.physical_read_calls", "count"},
    {"serve.physical_bytes_read", "bytes"},
    {"serve.physical_over_logical", "ratio"},
    // traced minus untraced, same run
    {"trace.overhead_op_ms", "ms"},
    {"trace.overhead_first_ms", "ms"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `metrics` restricted to (and ordered by) `names`; names the workload did
/// not measure read 0 with no samples.  A measured name outside `names` is a
/// bug in the benchmark.
std::vector<Metric> select(const std::vector<Metric>& metrics,
                           std::span<const Name> names) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : metrics) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const Name& n : names) {
    auto it = by_name.find(n.name);
    if (it == by_name.end()) {
      out.push_back({n.name, 0.0, n.unit, 0});
      continue;
    }
    if (it->second.unit != n.unit) {
      throw std::logic_error("metric " + it->second.name + " has unit " + it->second.unit);
    }
    out.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) throw std::logic_error("unlisted metric " + by_name.begin()->first);
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(ms[i].samples);
    out += "}";
  }
  return out + "}";
}

std::string names_json(std::span<const Name> names) {
  std::string out = "[";
  for (const Name& n : names) {
    if (out.size() > 1) out += ", ";
    out.append("[").append(json_string(n.name)).append(", ");
    out.append(json_string(n.unit)).append("]");
  }
  return out + "]";
}

int list_metrics() {
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              names_json(kEndToEnd).c_str(), names_json(kPerLayer).c_str());
  return 0;
}

/// Hashes of everything the seed determines: the 256^3 field and its
/// archive, the serve field and its archive, and the first sessions of every
/// serve client's schedule.
int print_hashes(std::uint64_t seed) {
  using namespace ipcomp;
  auto field_and_archive = [&](const Dims& dims, const Options& opt) {
    const NdArray<double> f = make_field(dims, seed);
    const Bytes a = compress(f.const_view(), opt);
    return std::make_pair(hash_values(f.vector()), hash_bytes(a));
  };
  const auto [f256, a256] =
      field_and_archive(Dims{kFieldSide, kFieldSide, kFieldSide}, field_options());
  const auto [fs, as] = field_and_archive(
      Dims{kServeDims[0], kServeDims[1], kServeDims[2]}, serve_options());
  std::vector<double> sched;
  for (int c = 0; c < 4; ++c) {
    ScheduleGen gen(seed, c);
    for (int i = 0; i < 8; ++i) {
      const SessionSpec s = gen.next();
      sched.insert(sched.end(), {s.coarse_rel, s.region_rel, s.finer_rel,
                                 static_cast<double>(s.budget)});
      for (std::size_t d = 0; d < 3; ++d) {
        sched.push_back(static_cast<double>(s.region.lo[d]));
        sched.push_back(static_cast<double>(s.region.hi[d]));
      }
    }
  }
  std::printf("{\"field_256\": \"%016llx\", \"archive_256\": \"%016llx\", "
              "\"field_serve\": \"%016llx\", \"archive_serve\": \"%016llx\", "
              "\"schedule\": \"%016llx\"}\n",
              static_cast<unsigned long long>(f256), static_cast<unsigned long long>(a256),
              static_cast<unsigned long long>(fs), static_cast<unsigned long long>(as),
              static_cast<unsigned long long>(hash_values(sched)));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compress|retrieve|serve --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--commit ID]\n"
               "       perfbench --list-metrics | --hashes --seed N\n");
  return 2;
}

int core_count() {
#if defined(_OPENMP)
  return omp_get_num_procs();
#else
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string commit = "unknown";
  bool hashes = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list-metrics") return list_metrics();
    if (a == "--hashes") {
      hashes = true;
    } else if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--workdir" && has_value) {
      cfg.workdir = argv[++i];
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  cfg.threads = core_count();
#if defined(_OPENMP)
  omp_set_num_threads(cfg.threads);
#endif

  try {
    if (hashes) return print_hashes(cfg.seed);
    if (!(cfg.seconds > 0.0)) return usage();
    Result r;
    if (cfg.workload == "compress") {
      r = run_compress(cfg);
    } else if (cfg.workload == "retrieve") {
      r = run_retrieve(cfg);
    } else if (cfg.workload == "serve") {
      r = run_serve(cfg);
    } else {
      return usage();
    }
    if (r.attempted == 0) throw std::runtime_error("no operation attempted");

    const std::vector<Metric> e2e = select(r.end_to_end, kEndToEnd);
    const std::vector<Metric> layers = select(r.per_layer, kPerLayer);
    std::vector<Metric> named = r.report;
    named.push_back({"failed_frac",
                     static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                     "ratio", static_cast<std::size_t>(r.attempted)});
    std::printf(
        "{\"report\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"nproc\": %d, \"threads\": %d, \"simd\": %s, "
        "\"build_type\": %s, \"commit\": %s, \"named\": %s, \"end_to_end\": %s%s%s}}\n",
        json_string(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
        json_number(cfg.seconds).c_str(), cfg.trace ? 1 : 0, core_count(), cfg.threads,
        json_string(ipcomp::to_string(ipcomp::simd_level())).c_str(),
        json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(commit).c_str(),
        metrics_json(named, true).c_str(), metrics_json(e2e, true).c_str(),
        cfg.trace ? ", \"per_layer\": " : "",
        cfg.trace ? metrics_json(layers, true).c_str() : "");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                r.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics_json(cfg.trace ? layers : e2e, false).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
