// Workload `serve`: the read path as a daemon serves it.  An in-process
// loopback net::Server (mmap storage, one handler per client) serves a small
// 96x96x64 archive (block 16, progressive_threshold 256); closed-loop
// RemoteReader clients, one decode thread each, run seeded sessions — open,
// coarse view, region drill-down, byte budget, finer view — back to back.
// Requests are many and small, so per-request protocol, session and cache
// costs dominate decode.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "schedule.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

constexpr int kMaxClients = 4;

/// One session as a client ran it.
struct SessionRecord {
  SessionSpec spec;
  bool complete = false;
  std::uint64_t output_hash = 0;
  double open_s = 0.0;
  std::vector<double> plan_s, execute_s;
  std::vector<Clock::time_point> done;
  std::uint64_t logical_bytes = 0;
  /// Filled by the local replay.
  std::vector<double> local_s;
};

struct ClientTally {
  std::uint64_t attempted = 0, failed = 0, retries = 0, recoveries = 0;
  std::vector<SessionRecord> sessions;
};

ClientTally run_client(const std::string& addr, std::uint64_t seed, int client,
                       double range, Clock::time_point start, double seconds) {
  ThreadScope one(1);
  ClientTally t;
  ScheduleGen gen(seed, client);
  while (seconds_since(start) < seconds) {
    SessionRecord rec;
    rec.spec = gen.next();
    const std::vector<Request> reqs = rec.spec.requests(range);
    std::size_t started = 0, done = 0;
    try {
      const auto t_open = Clock::now();
      net::RemoteReader<double> remote(addr, "bench");
      rec.open_s = seconds_since(t_open);
      for (const Request& req : reqs) {
        ++t.attempted;
        ++started;
        RetrievalPlan plan;
        RetrievalStats st;
        rec.plan_s.push_back(timed([&] { plan = remote.plan(req); }));
        rec.execute_s.push_back(timed([&] { st = remote.execute(plan); }));
        rec.done.push_back(Clock::now());
        ++done;
        rec.logical_bytes += st.bytes_new;
        if (st.bytes_new != plan.bytes_new) {
          std::fprintf(stderr, "serve: request fetched %zu bytes, plan said %zu\n",
                       st.bytes_new, static_cast<std::size_t>(plan.bytes_new));
          ++t.failed;
        }
      }
      rec.output_hash = hash_values(remote.data());
      rec.complete = true;
      t.retries += remote.retries();
      t.recoveries += remote.recoveries();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: client %d: %s\n", client, e.what());
      // The request in flight fails; a failure between requests (open,
      // output hashing) is charged as one more failed request.
      if (started == done) ++t.attempted;
      ++t.failed;
    }
    t.sessions.push_back(std::move(rec));
  }
  return t;
}

struct Window {
  std::vector<SessionRecord> sessions;
  std::uint64_t attempted = 0, failed = 0, retries = 0, recoveries = 0;
  std::size_t completed_in_window = 0;
  double seconds = 0.0;
};

Window run_window(const std::string& addr, std::uint64_t seed, int clients,
                  double range, double seconds) {
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        tallies[static_cast<std::size_t>(c)] =
            run_client(addr, seed, c, range, start, seconds);
      });
    }
  }
  Window w;
  w.seconds = seconds;
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (ClientTally& t : tallies) {
    w.attempted += t.attempted;
    w.failed += t.failed;
    w.retries += t.retries;
    w.recoveries += t.recoveries;
    for (SessionRecord& s : t.sessions) {
      for (const auto& d : s.done) w.completed_in_window += d <= deadline;
      w.sessions.push_back(std::move(s));
    }
  }
  return w;
}

/// Oracle: replay each complete session on a local reader over the same
/// archive; its output must be byte-identical to what the client decoded.
/// Returns the number of requests in sessions that did not match.
std::uint64_t replay_sessions(const Bytes& archive, double range, Window& w) {
  std::vector<std::uint64_t> bad(w.sessions.size(), 0);
  parallel_for_ex(0, w.sessions.size(), [&](std::size_t i) {
    SessionRecord& s = w.sessions[i];
    if (!s.complete) return;
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    for (const Request& req : s.spec.requests(range)) {
      s.local_s.push_back(timed([&] { reader.execute(reader.plan(req)); }));
    }
    if (hash_values(reader.data()) != s.output_hash) bad[i] = s.plan_s.size();
  }, /*grain=*/1);
  std::uint64_t total = 0;
  for (std::uint64_t b : bad) total += b;
  return total;
}

void latencies(const Window& w, std::vector<double>& req_s,
               std::vector<double>& first_s) {
  for (const SessionRecord& s : w.sessions) {
    for (std::size_t i = 0; i < s.execute_s.size(); ++i) {
      req_s.push_back(s.plan_s[i] + s.execute_s[i]);
    }
    if (!s.execute_s.empty()) first_s.push_back(s.open_s + s.plan_s[0] + s.execute_s[0]);
  }
}

void trace_layers(const Window& w, const net::ServeStats& stat,
                  std::uint64_t logical_bytes, Result& r) {
  std::vector<double> plan_s, exec_s, local_s, wait_s;
  for (const SessionRecord& s : w.sessions) {
    for (std::size_t i = 0; i < s.execute_s.size(); ++i) {
      plan_s.push_back(s.plan_s[i]);
      exec_s.push_back(s.execute_s[i]);
      if (i < s.local_s.size()) {
        local_s.push_back(s.local_s[i]);
        wait_s.push_back(s.plan_s[i] + s.execute_s[i] - s.local_s[i]);
      }
    }
  }
  const std::size_t n = plan_s.size();
  auto layer = [&](const char* name, double v, const char* unit) {
    r.per_layer.push_back({name, v, unit, n});
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  layer("net.client_plan_ms", median(plan_s) * 1e3, "ms");
  layer("net.client_execute_ms", median(exec_s) * 1e3, "ms");
  layer("core.local_decode_ms", median(local_s) * 1e3, "ms");
  layer("net.wait_ms", median(wait_s) * 1e3, "ms");
  layer("net.frames_in", static_cast<double>(stat.frames_in), "count");
  layer("net.frames_out", static_cast<double>(stat.frames_out), "count");
  layer("net.wire_bytes_out", static_cast<double>(stat.wire_bytes_out), "bytes");
  layer("net.payload_bytes_sent", static_cast<double>(stat.payload_bytes_sent), "bytes");
  layer("net.errors_sent", static_cast<double>(stat.errors_sent), "count");
  layer("net.slow_client_evictions", static_cast<double>(stat.slow_client_evictions), "count");
  layer("net.retries", static_cast<double>(w.retries), "count");
  layer("net.recoveries", static_cast<double>(w.recoveries), "count");
  layer("net.wire_over_logical",
        ratio(static_cast<double>(stat.wire_bytes_out), static_cast<double>(logical_bytes)),
        "ratio");
  layer("serve.cache_hit_rate", stat.cache.hit_rate(), "ratio");
  layer("serve.cache_evictions", static_cast<double>(stat.cache.evictions), "count");
  layer("serve.physical_read_calls", static_cast<double>(stat.physical_read_calls), "count");
  layer("serve.physical_bytes_read", static_cast<double>(stat.physical_bytes_read), "bytes");
  layer("serve.physical_over_logical",
        ratio(static_cast<double>(stat.physical_bytes_read), static_cast<double>(logical_bytes)),
        "ratio");
}

}  // namespace

Result run_serve(const Config& cfg) {
  const Dims dims{kServeDims[0], kServeDims[1], kServeDims[2]};
  const Options opt = serve_options();
  const std::string path = cfg.workdir + "/serve.ipc";
  const int clients = std::min(kMaxClients, cfg.threads);

  // Set-up, nine times (each is short, so its median needs more samples):
  // field generation + archive build + file write + daemon start.
  std::vector<double> setup_s;
  NdArray<double> field;
  Bytes archive;
  std::unique_ptr<net::Server> server;
  for (int i = 0; i < 9; ++i) {
    if (server) server->stop();
    server.reset();
    setup_s.push_back(timed([&] {
      field = make_field(dims, cfg.seed);
      archive = compress(field.const_view(), opt);
      write_file(path, archive);
      net::ServerConfig sc;
      sc.listen = "127.0.0.1:0";
      sc.workers = static_cast<unsigned>(clients);
      server = std::make_unique<net::Server>(sc);
      server->export_file("bench", path);
      server->start();
    }));
  }
  const std::string addr = server->address();
  double range = 0.0;
  {
    MemorySource src{Bytes(archive)};
    ProgressiveReader<double> reader(src);
    range = reader.header().data_max - reader.header().data_min;
  }

  Result r;
  const double window_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Window plain = run_window(addr, cfg.seed, clients, range, window_s);
  std::optional<Window> traced;
  if (cfg.trace) traced = run_window(addr, cfg.seed, clients, range, window_s);
  const net::ServeStats stat = net::RemoteArchive(addr, "bench").stat();
  server->stop();
  server.reset();
  std::remove(path.c_str());

  std::uint64_t logical = 0;
  for (Window* w : {&plain, traced ? &*traced : nullptr}) {
    if (!w) continue;
    r.attempted += w->attempted;
    r.failed += w->failed + replay_sessions(archive, range, *w);
    for (const SessionRecord& s : w->sessions) logical += s.logical_bytes;
  }

  std::vector<double> req_s, first_s;
  latencies(plain, req_s, first_s);
  if (req_s.empty()) throw std::runtime_error("serve: no request completed");
  const double raw_bytes = static_cast<double>(field.count() * sizeof(double));
  const double req_per_s = static_cast<double>(plain.completed_in_window) / plain.seconds;
  r.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"op_ms_p50", median(req_s) * 1e3, "ms", req_s.size()},
      {"first_ms_p50", median(first_s) * 1e3, "ms", first_s.size()},
      {"ops_per_s", req_per_s, "1/s", plain.completed_in_window},
      {"size_ratio", raw_bytes / static_cast<double>(archive.size()), "ratio", 1},
  };
  r.report = {
      {"serve_req_s", req_per_s, "1/s", plain.completed_in_window},
      {"serve_latency_ms_p50", median(req_s) * 1e3, "ms", req_s.size()},
      {"serve_latency_ms_p95", percentile(req_s, 0.95) * 1e3, "ms", req_s.size()},
      {"clients", static_cast<double>(clients), "count", 1},
  };

  if (traced) {
    trace_layers(*traced, stat, logical, r);
    std::vector<double> t_req, t_first;
    latencies(*traced, t_req, t_first);
    r.per_layer.push_back({"trace.overhead_op_ms", (median(t_req) - median(req_s)) * 1e3, "ms", t_req.size()});
    r.per_layer.push_back({"trace.overhead_first_ms", (median(t_first) - median(first_s)) * 1e3, "ms", t_first.size()});
  }
  return r;
}

}  // namespace perfbench
