// Network serving tier: MmapSource/FileSource parity, loopback client/server
// integration — remote reconstruction byte-identical to a local reader over
// the same request sequence on both storage backends, refinement wire bytes
// equal to the plan's predicted bytes_new, mixed region/eb/bytes traffic,
// quota rejection over the wire, typed error mapping,
// wire-level I/O (TCP_NODELAY on TCP only, batched frames round-tripping,
// an EXECUTE reply's raw bytes equal to its frames encoded one by one, with
// the server's frame and byte counters matching), the deterministic
// fault-injection suite (torn I/O, EINTR storms, bit-flipped frames,
// connection resets — and the self-healing reconnect+RESUME path they
// exercise) — and the multi-client stress the tsan preset runs against one
// live daemon.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/mmap_source.hpp"
#include "ipcomp.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "test_util.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace ipcomp {
namespace {

using testutil::smooth_field;

Bytes make_archive(const NdArray<double>& field, double eb,
                   unsigned block_side) {
  Options opt;
  opt.error_bound = eb;
  opt.relative = false;
  opt.block_side = block_side;
  // Real bitplane segments even at this block size (test_serve.cpp idiom).
  opt.progressive_threshold = 256;
  return compress(field.const_view(), opt);
}

std::string write_temp_archive(const Bytes& archive, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  write_file(path, archive);
  return path;
}

/// A one-shot Request::full() decode through a private local reader: what
/// any request sequence ending on Request::full() must reproduce bitwise
/// (the output depends only on the planes each block holds).
std::vector<double> oneshot_full(const Bytes& archive) {
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> reader(src);
  reader.retrieve(Request::full());
  return reader.data();
}

// ---- MmapSource -----------------------------------------------------------

TEST(MmapSource, PayloadsAndStatsMatchFileSource) {
  auto field = smooth_field(Dims{24, 20, 16}, 71, 0.05);
  const std::string path =
      write_temp_archive(make_archive(field, 1e-6, 8), "ipc_mmap_parity.ipc");

  FileSource fs(path);
  MmapSource ms(path);
  ASSERT_TRUE(ms.mapped());

  EXPECT_EQ(ms.header(), fs.header());
  EXPECT_EQ(ms.version(), fs.version());
  EXPECT_EQ(ms.total_size(), fs.total_size());
  EXPECT_EQ(ms.segment_ids(), fs.segment_ids());
  // Open cost parity: header + table charged identically.
  EXPECT_EQ(ms.stats().bytes_read, fs.stats().bytes_read);
  EXPECT_EQ(ms.stats().read_calls, fs.stats().read_calls);

  const std::vector<SegmentId> ids = fs.segment_ids();
  ASSERT_FALSE(ids.empty());
  for (const SegmentId& id : ids) {
    EXPECT_EQ(ms.segment_size(id), fs.segment_size(id));
  }
  EXPECT_EQ(ms.read_many(ids), fs.read_many(ids));
  // Full accounting parity: payload bytes, dispatches, coalesced ranges.
  EXPECT_EQ(ms.stats().bytes_read, fs.stats().bytes_read);
  EXPECT_EQ(ms.stats().read_calls, fs.stats().read_calls);
  EXPECT_EQ(ms.stats().coalesced_ranges, fs.stats().coalesced_ranges);

  // Missing segments are rejected all-or-nothing without charging.
  SegmentId bogus;
  bogus.kind = 0xAB;
  const std::size_t before = ms.stats().bytes_read;
  EXPECT_THROW(ms.read_segment(bogus), std::runtime_error);
  EXPECT_EQ(ms.stats().bytes_read, before);
}

TEST(MmapSource, RandomSubsetPropertyAgainstFileSource) {
  auto field = smooth_field(Dims{20, 18, 14}, 72, 0.07);
  const std::string path =
      write_temp_archive(make_archive(field, 1e-6, 8), "ipc_mmap_prop.ipc");

  FileSource fs(path);
  MmapSource ms(path);
  ASSERT_TRUE(ms.mapped());
  const std::vector<SegmentId> ids = fs.segment_ids();
  ASSERT_GT(ids.size(), 4u);

  Rng rng(72);
  for (int trial = 0; trial < 24; ++trial) {
    // Random subset in random order (read_many must preserve request order).
    std::vector<SegmentId> subset;
    for (const SegmentId& id : ids) {
      if (rng.uniform() < 0.4) subset.push_back(id);
    }
    for (std::size_t i = subset.size(); i > 1; --i) {
      std::swap(subset[i - 1], subset[rng.uniform_u64(i)]);
    }
    if (subset.empty()) continue;
    EXPECT_EQ(ms.read_many(subset), fs.read_many(subset)) << "trial " << trial;
    EXPECT_EQ(ms.stats().bytes_read, fs.stats().bytes_read);
  }
}

TEST(MmapSource, OverCapFileFallsBackToFileSource) {
  auto field = smooth_field(Dims{16, 12, 8}, 73, 0.05);
  const std::string path =
      write_temp_archive(make_archive(field, 1e-6, 8), "ipc_mmap_cap.ipc");

  FileSource fs(path);
  MmapSource ms(path, /*map_cap_bytes=*/16);  // archive is far larger
  EXPECT_FALSE(ms.mapped());
  EXPECT_EQ(ms.header(), fs.header());
  const std::vector<SegmentId> ids = fs.segment_ids();
  EXPECT_EQ(ms.read_many(ids), fs.read_many(ids));
  EXPECT_EQ(ms.stats().bytes_read, fs.stats().bytes_read);
}

TEST(MmapSource, EmptyAndTruncatedFilesRejectLikeFileSource) {
  const std::string empty = ::testing::TempDir() + "/ipc_mmap_empty.ipc";
  write_file(empty, Bytes{});
  EXPECT_THROW(FileSource{empty}, std::exception);
  EXPECT_THROW(MmapSource{empty}, std::exception);  // empty -> fallback path

  auto field = smooth_field(Dims{12, 10, 8}, 74, 0.05);
  Bytes archive = make_archive(field, 1e-5, 4);
  Bytes truncated(archive.begin(),
                  archive.begin() + static_cast<std::ptrdiff_t>(archive.size() / 3));
  const std::string path = write_temp_archive(truncated, "ipc_mmap_trunc.ipc");
  EXPECT_THROW(FileSource{path}, std::exception);
  EXPECT_THROW(MmapSource{path}, std::exception);
}

TEST(MmapSource, ReaderOverMmapMatchesFileReader) {
  auto field = smooth_field(Dims{24, 20, 16}, 75, 0.05);
  const Bytes archive = make_archive(field, 1e-6, 8);
  const std::string path = write_temp_archive(archive, "ipc_mmap_reader.ipc");

  FileSource fs(path);
  MmapSource ms(path);
  ProgressiveReader<double> a(fs), b(ms);
  for (const Request& req :
       {Request::error_bound(1e-2), Request::bytes(3000), Request::full()}) {
    RetrievalPlan pa = a.plan(req), pb = b.plan(req);
    EXPECT_EQ(pa.segments, pb.segments);
    EXPECT_EQ(pa.bytes_new, pb.bytes_new);
    RetrievalStats sa = a.execute(pa), sb = b.execute(pb);
    EXPECT_EQ(sa.bytes_total, sb.bytes_total);
    EXPECT_EQ(a.data(), b.data());
  }
  EXPECT_EQ(a.data(), oneshot_full(archive));
}

// ---- loopback client/server -----------------------------------------------

/// The mixed request sequence every identity test replays on both sides;
/// it ends on Request::full(), so it also ends on oneshot_full().
std::vector<Request> mixed_traffic() {
  return {
      Request::error_bound(1e-2),
      Request::error_bound(1e-4).within({0, 0, 0}, {12, 12, 12}),
      Request::bytes(3000),
      Request::full(),
  };
}

/// Replays mixed_traffic() on a remote reader and an isolated local reader
/// of `archive`, asserting plan equality, stats equality, reconstruction
/// equality, and that every refinement's wire payload equals the plan's
/// predicted bytes_new (the first request additionally carries the open cost
/// in its price but not on the wire — the OPEN reply already delivered it).
/// The final reconstruction must equal a one-shot full decode.
void assert_remote_matches_local(net::RemoteReader<double>& remote,
                                 ProgressiveReader<double>& local,
                                 const Bytes& archive) {
  bool first = true;
  for (const Request& req : mixed_traffic()) {
    RetrievalPlan lp = local.plan(req);
    RetrievalPlan rp = remote.plan(req);
    ASSERT_EQ(lp.segments, rp.segments);
    ASSERT_EQ(lp.bytes_new, rp.bytes_new);
    ASSERT_EQ(lp.guaranteed_error, rp.guaranteed_error);

    RetrievalStats ls = local.execute(lp);
    RetrievalStats rs = remote.execute(rp);
    EXPECT_EQ(ls.bytes_new, rs.bytes_new);
    EXPECT_EQ(ls.bytes_total, rs.bytes_total);
    EXPECT_EQ(ls.guaranteed_error, rs.guaranteed_error);
    EXPECT_EQ(ls.bitrate, rs.bitrate);
    ASSERT_EQ(local.data(), remote.data());

    const std::uint64_t wire = remote.archive().last_payload_bytes();
    const std::size_t open_cost = remote.archive().source().open_cost();
    EXPECT_EQ(wire, first ? rs.bytes_new - open_cost : rs.bytes_new);
    first = false;
  }
  EXPECT_EQ(remote.data(), oneshot_full(archive));
}

TEST(Net, RemoteMatchesLocalReaderMemoryBacked) {
  auto field = smooth_field(Dims{24, 20, 16}, 81, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  net::Server server;
  server.export_memory("density", Bytes(archive));
  server.start();

  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  net::RemoteReader<double> remote(server.address(), "density");
  assert_remote_matches_local(remote, local, archive);

  // The remote client priced exactly what a local reader would have.
  EXPECT_EQ(remote.archive().source().stats().bytes_read,
            src.stats().bytes_read);
  server.stop();
}

TEST(Net, RemoteMatchesLocalReaderFileMmapBacked) {
  auto field = smooth_field(Dims{24, 20, 16}, 82, 0.06);
  Bytes archive = make_archive(field, 1e-6, 8);
  const std::string path = write_temp_archive(archive, "ipc_net_mmap.ipc");

  net::ServerConfig cfg;
  cfg.serve.use_mmap = true;
  net::Server server(cfg);
  server.export_file("density", path);
  server.start();

  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  net::RemoteReader<double> remote(server.address(), "density");
  assert_remote_matches_local(remote, local, archive);

  const net::ServeStats st = server.stats();
  EXPECT_GT(st.payload_bytes_sent, 0u);
  EXPECT_GT(st.physical_bytes_read, 0u);
  EXPECT_GT(st.frames_in, 0u);
  server.stop();
}

TEST(Net, RemoteMatchesLocalReaderFileFreadBacked) {
  auto field = smooth_field(Dims{20, 16, 12}, 83, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);
  const std::string path = write_temp_archive(archive, "ipc_net_fread.ipc");

  net::ServerConfig cfg;
  cfg.serve.use_mmap = false;
  net::Server server(cfg);
  server.export_file("density", path);
  server.start();

  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  net::RemoteReader<double> remote(server.address(), "density");
  assert_remote_matches_local(remote, local, archive);
  server.stop();
}

TEST(Net, UnixDomainSocketLoopback) {
  auto field = smooth_field(Dims{16, 12, 8}, 84, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  net::ServerConfig cfg;
  cfg.listen = "unix:" + ::testing::TempDir() + "/ipc_net_test.sock";
  net::Server server(cfg);
  server.export_memory("a", Bytes(archive));
  server.start();
  EXPECT_EQ(server.address(), cfg.listen);

  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  net::RemoteReader<double> remote(cfg.listen, "a");
  local.retrieve(Request::full());
  remote.retrieve(Request::full());
  EXPECT_EQ(local.data(), remote.data());
  server.stop();
}

TEST(Net, QuotaRejectedOverTheWire) {
  auto field = smooth_field(Dims{24, 20, 16}, 85, 0.05);
  Bytes archive = make_archive(field, 1e-6, 8);

  // Price full fidelity with a local probe to pick a quota just below it.
  ArchiveSet probe_set;
  Session<double> probe(probe_set.open_memory("p", Bytes(archive)));
  const std::uint64_t full_cost = probe.plan(Request::full()).bytes_new;
  const std::uint64_t coarse_cost =
      probe.plan(Request::error_bound(1e-2)).bytes_new;
  ASSERT_LT(coarse_cost, full_cost - 1);

  net::ServerConfig cfg;
  cfg.session_quota = full_cost - 1;
  net::Server server(cfg);
  server.export_memory("a", Bytes(archive));
  server.start();

  net::RemoteReader<double> remote(server.address(), "a");
  // Admission happens server-side at EXECUTE; the rejection surfaces as the
  // same typed exception the local Session throws, with the exact shortfall.
  try {
    remote.retrieve(Request::full());
    FAIL() << "expected QuotaExceeded";
  } catch (const QuotaExceeded& e) {
    EXPECT_EQ(e.needed(), full_cost);
    EXPECT_EQ(e.remaining(), full_cost - 1);
  }
  // The session is untouched: a cheaper request is admitted afterwards.
  RetrievalStats st = remote.retrieve(Request::error_bound(1e-2));
  EXPECT_EQ(st.bytes_new, coarse_cost);

  const net::ServeStats ss = remote.archive().stat();
  EXPECT_EQ(ss.quota_rejections, 1u);
  EXPECT_GE(ss.errors_sent, 1u);
  server.stop();
}

TEST(Net, TypedErrorsForUnknownArchiveStalePlanUnknownToken) {
  auto field = smooth_field(Dims{12, 10, 8}, 86, 0.05);
  net::Server server;
  server.export_memory("a", make_archive(field, 1e-5, 4));
  server.start();

  // OPEN of a name the server does not export.
  try {
    net::RemoteArchive bad(server.address(), "nope");
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kUnknownArchive);
  }

  net::RemoteArchive ra(server.address(), "a");
  // PLAN against an epoch the session never had.
  EXPECT_THROW(ra.plan_remote(/*epoch=*/999, Request::full()),
               std::logic_error);
  // EXECUTE of a token the server never issued.
  EXPECT_THROW(ra.execute_remote(/*token=*/12345), std::logic_error);
  // The connection survives typed rejections: a real lifecycle still works.
  const net::PlanReply rep = ra.plan_remote(0, Request::full());
  EXPECT_GT(rep.bytes_new, 0u);
  server.stop();
}

TEST(Net, StalePlanTokensDieWithTheEpoch) {
  auto field = smooth_field(Dims{16, 12, 8}, 87, 0.05);
  net::Server server;
  server.export_memory("a", make_archive(field, 1e-6, 8));
  server.start();

  net::RemoteReader<double> remote(server.address(), "a");
  RetrievalPlan p1 = remote.plan(Request::error_bound(1e-2));
  remote.retrieve(Request::bytes(2000));  // advances the epoch
  EXPECT_THROW(remote.execute(p1), std::logic_error);
  server.stop();
}

// Every connection arrival wakes all acceptor threads polling the one
// listener fd, and only one accept(2) succeeds.  The losers must return to
// their poll loop (the listener is non-blocking) rather than park inside
// accept(2) — a parked acceptor never rechecks the stop flag and stop()
// would hang forever joining it.  Racing stops must also both return, with
// exactly one performing the drain/join.
TEST(Net, StopReturnsPromptlyAfterAcceptWakeStorms) {
  auto field = smooth_field(Dims{16, 12, 8}, 89, 0.05);
  net::ServerConfig cfg;
  cfg.workers = 4;
  net::Server server(cfg);
  server.export_memory("a", make_archive(field, 1e-6, 8));
  server.start();

  // Sequential short-lived connections: each arrival is a fresh wake storm
  // across the idle acceptors.
  for (int i = 0; i < 6; ++i) {
    net::RemoteReader<double> remote(server.address(), "a");
    remote.retrieve(Request::error_bound(1e-2));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::thread racer([&] { server.stop(); });
  server.stop();
  racer.join();
  EXPECT_FALSE(server.running());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

// ---- wire-level I/O ---------------------------------------------------------

int tcp_nodelay(const net::Socket& s) {
  int value = -1;
  socklen_t len = sizeof value;
  EXPECT_EQ(::getsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

// Nagle is off on both ends of a TCP connection; Unix-domain sockets (where
// IPPROTO_TCP options do not apply) still dial, accept and carry frames.
TEST(Net, TcpSocketsDisableNagleUnixSocketsUnaffected) {
  net::Listener tcp("127.0.0.1:0");
  net::Socket dialed = net::dial(tcp.address());
  std::optional<net::Socket> accepted = tcp.accept(2000);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(tcp_nodelay(dialed), 1);
  EXPECT_EQ(tcp_nodelay(*accepted), 1);

  const std::string path = "unix:" + ::testing::TempDir() + "/ipc_nodelay.sock";
  net::Listener local(path);
  net::Socket unix_dialed;
  ASSERT_NO_THROW(unix_dialed = net::dial(path));
  std::optional<net::Socket> unix_accepted;
  ASSERT_NO_THROW(unix_accepted = local.accept(2000));
  ASSERT_TRUE(unix_accepted.has_value());
  net::FrameChannel a(std::move(unix_dialed), net::kMaxFrameBytes);
  net::FrameChannel b(std::move(*unix_accepted), net::kMaxFrameBytes);
  a.send(net::Op::kStat, ByteWriter{});
  std::optional<net::Frame> f = b.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is(net::Op::kStat));
  EXPECT_TRUE(f->body.empty());
}

/// Reference encoding of one frame: u32 length | u8 opcode | body.
void append_frame(Bytes& out, net::Op op, const ByteWriter& body) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.buffer().size() + 1));
  w.u8(static_cast<std::uint8_t>(op));
  w.bytes({body.buffer().data(), body.buffer().size()});
  out.insert(out.end(), w.buffer().begin(), w.buffer().end());
}

// Batching never changes the bytes: a mixed run of frames sent with one
// send_frames call — enough small frames to hit the iovec and byte limits
// of a gathered write, a body far larger than the receive buffer, an empty
// body — arrives as the frames sent one by one would, and both ends count
// exactly those bytes.
TEST(Net, FrameChannelBatchedFramesRoundTrip) {
  net::Listener listener("127.0.0.1:0");
  net::Socket peer = net::dial(listener.address());
  std::optional<net::Socket> accepted = listener.accept(2000);
  ASSERT_TRUE(accepted.has_value());
  net::FrameChannel tx(std::move(peer), net::kMaxFrameBytes);
  net::FrameChannel rx(std::move(*accepted), net::kMaxFrameBytes);

  Rng rng(77);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 1500; ++i) {
    Bytes p(i == 700 ? 3 * net::kRecvBufferBytes : rng.next_u64() % 300);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
    payloads.push_back(std::move(p));
  }
  ByteWriter keys;
  for (std::size_t i = 0; i < payloads.size(); ++i) keys.u64(i * 7919);
  std::vector<net::OutFrame> frames;
  Bytes expected;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::span<const std::uint8_t> key{keys.buffer().data() + 8 * i, 8};
    frames.push_back({net::Op::kSegment, key,
                      {payloads[i].data(), payloads[i].size()}});
    ByteWriter body;
    body.bytes(key);
    body.bytes({payloads[i].data(), payloads[i].size()});
    append_frame(expected, net::Op::kSegment, body);
  }
  frames.push_back({net::Op::kCloseOk, {}, {}});
  append_frame(expected, net::Op::kCloseOk, ByteWriter{});

  // The receiver drains concurrently: the batch exceeds the socket buffers.
  std::thread sender([&] { tx.send_frames(frames); });
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::optional<net::Frame> f = rx.recv();
    ASSERT_TRUE(f.has_value());
    ASSERT_TRUE(f->is(net::Op::kSegment));
    ByteReader r({f->body.data(), f->body.size()});
    ASSERT_EQ(r.u64(), i * 7919);
    auto payload = r.bytes(r.remaining());
    ASSERT_EQ(Bytes(payload.begin(), payload.end()), payloads[i]) << i;
  }
  std::optional<net::Frame> last = rx.recv();
  sender.join();
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->is(net::Op::kCloseOk));
  EXPECT_TRUE(last->body.empty());
  EXPECT_EQ(tx.bytes_out(), expected.size());
  EXPECT_EQ(rx.bytes_in(), expected.size());
}

// The raw server->client bytes of one multi-segment EXECUTE equal the
// reply's frames encoded one at a time — SEGMENT(key, payload) per planned
// segment, then EXECUTE_OK — so batching the reply changed no byte.  The
// server's counters (what STAT reports) match what the client received,
// counted per frame.
TEST(Net, ExecuteReplyBytesEqualItsFramesEncodedOneByOne) {
  auto field = smooth_field(Dims{48, 40, 32}, 95, 0.05);
  const Bytes archive = make_archive(field, 1e-6, 8);
  net::Server server;
  server.export_memory("a", Bytes(archive));
  server.start();

  // The reference reply, from a local session — what the server runs per
  // connection — executing the same request.
  MemorySource src{Bytes(archive)};
  ArchiveSet set;
  Session<double> local(set.open_memory("a", Bytes(archive)));
  const RetrievalPlan lp = local.plan(Request::full());
  Bytes expected;
  std::uint64_t payload_bytes = 0;
  for (const SegmentId& id : lp.segments) {
    const Bytes payload = src.read_segment(id);
    ByteWriter body;
    body.u64(id.key(src.version()));
    body.bytes({payload.data(), payload.size()});
    append_frame(expected, net::Op::kSegment, body);
    payload_bytes += payload.size();
  }
  const RetrievalStats ls = local.execute(lp);
  ByteWriter ok;
  ok.varint(ls.bytes_new);
  ok.varint(ls.bytes_total);
  ok.f64(ls.guaranteed_error);
  ok.f64(ls.bitrate);
  append_frame(expected, net::Op::kExecuteOk, ok);
  // Big enough that the reply needs several gathered writes on both limits.
  ASSERT_GT(lp.segments.size(), 1024u);
  ASSERT_GT(expected.size(), 2 * net::kSendBatchBytes);

  std::uint64_t received = 0;
  Bytes got(expected.size());
  {
    net::Socket sock = net::dial(server.address());
    sock.set_timeouts(10000, 10000);
    net::FrameChannel ch(std::move(sock), net::kMaxFrameBytes);
    auto call = [&](net::Op op, const ByteWriter& w, net::Op reply) {
      ch.send(op, w);
      std::optional<net::Frame> f = ch.recv();
      if (!f.has_value() || !f->is(reply)) {
        throw std::runtime_error("unexpected reply");
      }
      return std::move(f->body);
    };
    ByteWriter hello;
    hello.u32(net::kWireVersion);
    call(net::Op::kHello, hello, net::Op::kHelloOk);
    ByteWriter open;
    open.string("a");
    const Bytes opened = call(net::Op::kOpen, open, net::Op::kOpenOk);
    const std::uint32_t open_id = ByteReader({opened.data(), 4}).u32();
    ByteWriter plan;
    plan.u32(open_id);
    plan.u64(lp.epoch);
    net::write_request(plan, Request::full());
    const Bytes planned = call(net::Op::kPlan, plan, net::Op::kPlanOk);
    ByteReader pr({planned.data(), planned.size()});
    const std::uint64_t token = pr.varint();

    ByteWriter exec;
    exec.u32(open_id);
    exec.varint(token);
    ch.send(net::Op::kExecute, exec);
    // Read the reply off the raw socket, bypassing the frame parser.
    std::size_t n = 0;
    while (n < got.size()) {
      const ssize_t r =
          ::recv(ch.socket().fd(), got.data() + n, got.size() - n, 0);
      ASSERT_GT(r, 0) << "reply ended after " << n << " bytes";
      n += static_cast<std::size_t>(r);
    }
    received = ch.bytes_in() + got.size();
  }
  const auto diff = std::mismatch(got.begin(), got.end(), expected.begin());
  ASSERT_TRUE(diff.first == got.end())
      << "first differing byte at offset " << (diff.first - got.begin())
      << " of " << got.size();

  // Count the frames the client received: three handshake replies plus the
  // frames found by walking the raw reply's length prefixes.
  std::uint64_t frames = 3;
  for (std::size_t at = 0; at < got.size(); ++frames) {
    at += 4 + ByteReader({got.data() + at, 4}).u32();
  }
  EXPECT_EQ(frames, 3 + lp.segments.size() + 1);

  // Wire byte counters are folded in when the connection ends.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().connections_active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const net::ServeStats st = server.stats();
  EXPECT_EQ(st.connections_active, 0u);
  EXPECT_EQ(st.frames_out, frames);
  EXPECT_EQ(st.payload_bytes_sent, payload_bytes);
  EXPECT_EQ(st.wire_bytes_out, received);
  server.stop();
}

// ---- deterministic fault injection & self-healing -------------------------

// Coverage for the send() resume loop: torn (1-byte) writes and EINTR storms
// on the sender must never desynchronize the framing.  send() is one
// gathered write per frame (head iovec + body iovec) and every clamped
// attempt retries as the next raw-I/O ordinal, so the schedule is laid out
// from the frame's write ordinal.
TEST(Fault, FrameChannelFramingSurvivesShortWritesAndEintrStorms) {
  net::Listener listener("127.0.0.1:0");
  net::Socket peer = net::dial(listener.address());
  std::optional<net::Socket> accepted = listener.accept(2000);
  ASSERT_TRUE(accepted.has_value());
  net::FrameChannel tx(std::move(peer), net::kMaxFrameBytes);
  net::FrameChannel rx(std::move(*accepted), net::kMaxFrameBytes);

  auto plan = std::make_shared<FaultPlan>(0);
  // Two torn attempts move one head byte each; an EINTR storm interrupts
  // the next three; a third torn attempt moves one more head byte; the next
  // attempt resumes mid-head and carries across the iovec boundary into the
  // body.
  const std::uint64_t write = 0;  // the frame's (only) write
  const std::uint64_t storm = write + 2;
  const std::uint64_t after_storm = storm + 3;
  plan->torn_at(write).torn_at(write + 1).eintr_at(storm, 3);
  plan->torn_at(after_storm).delay_at(after_storm + 1, 1);
  tx.set_fault_injector(plan);

  Rng rng(4242);
  Bytes big(32000);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_u64());
  tx.send(net::Op::kSegment, {big.data(), big.size()});
  EXPECT_EQ(tx.bytes_out(), net::kFrameHeadBytes + big.size());
  // One write for the frame plus one retry per clamped attempt.
  EXPECT_EQ(plan->io_ops(), after_storm + 2);

  std::optional<net::Frame> f = rx.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is(net::Op::kSegment));
  EXPECT_EQ(f->body, big);
  EXPECT_EQ(plan->torn(), 3u);
  EXPECT_EQ(plan->eintrs(), 3u);

  // Framing stays aligned: the next (fault-free) frame parses cleanly.
  const Bytes small{1, 2, 3};
  tx.send(net::Op::kStat, {small.data(), small.size()});
  f = rx.recv();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is(net::Op::kStat));
  EXPECT_EQ(f->body, small);
}

/// Where an EXECUTE reply sits in a client channel's raw-I/O ordinals and
/// byte stream.  The EXECUTE request leaves as one gathered write at ordinal
/// `execute_op` (the plan's io_ops() just before execute()).  The reply is
/// read through the channel's receive buffer from the next ordinal on, and
/// FaultPlan::flip_at addresses the bytes of that stream however the kernel
/// chunks the reads.  The stream opens with the first SEGMENT frame: its
/// head, its u64 segment key, then its payload.
struct ExecuteReplyLayout {
  std::uint64_t first_read;   // ordinal of the reply's first raw read
  std::size_t first_payload;  // stream offset of the first payload byte
};

ExecuteReplyLayout execute_reply_layout(std::uint64_t execute_op) {
  return {execute_op + 1, net::kFrameHeadBytes + sizeof(std::uint64_t)};
}

// A bit-flipped SEGMENT frame must surface as IntegrityError{kWire} naming
// the segment — never as wrong reconstruction — and with retries disabled
// it must fail fast.
TEST(Fault, WireBitFlipFastFailsTypedWhenRetriesDisabled) {
  auto field = smooth_field(Dims{20, 16, 12}, 90, 0.05);
  net::Server server;
  server.export_memory("a", make_archive(field, 1e-6, 8));
  server.start();

  net::RetryPolicy policy;
  policy.max_attempts = 1;  // fast-fail: surface the first failure
  net::RemoteReader<double> remote(server.address(), "a", 30000, policy);
  auto plan = std::make_shared<FaultPlan>(0);
  remote.archive().set_fault_injector(plan);

  RetrievalPlan p = remote.plan(Request::full());
  // Flip a payload bit of the first SEGMENT frame.
  const ExecuteReplyLayout reply = execute_reply_layout(plan->io_ops());
  plan->flip_at(reply.first_read, reply.first_payload, /*bit=*/3);
  try {
    remote.execute(p);
    FAIL() << "expected IntegrityError at the wire boundary";
  } catch (const IntegrityError& err) {
    EXPECT_EQ(err.layer(), IntegrityError::Layer::kWire);
    EXPECT_NE(err.expected(), err.actual());
  }
  EXPECT_EQ(plan->flips(), 1u);
  EXPECT_EQ(remote.recoveries(), 0u);
  server.stop();
}

// The acceptance schedule: two torn reads/writes and an EINTR storm ride
// through transparently; a bit-flipped frame and then a connection reset
// mid-EXECUTE each trigger one recovery cycle (reconnect, RESUME replay of
// the acknowledged history, re-plan, re-execute); the mixed retrieval
// completes byte-identical to a local reader replaying the same requests.
TEST(Fault, SeededScheduleRecoversAndStaysByteIdentical) {
  auto field = smooth_field(Dims{24, 20, 16}, 91, 0.05);
  const Bytes archive = make_archive(field, 1e-6, 8);

  net::Server server;
  server.export_memory("a", Bytes(archive));
  server.start();

  net::RetryPolicy policy;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 4;
  net::RemoteReader<double> remote(server.address(), "a", 30000, policy);
  auto plan = std::make_shared<FaultPlan>(0);
  remote.archive().set_fault_injector(plan);

  // Phase 1: benign faults — the EXECUTE frame's gathered write torn twice
  // (the retry of a torn write is itself torn), then an EINTR storm on the
  // retries of the rest.  No recovery needed.
  RetrievalPlan p1 = remote.plan(Request::error_bound(1e-2));
  const std::uint64_t write = plan->io_ops();
  plan->torn_at(write).torn_at(write + 1).eintr_at(write + 2, 3);
  remote.execute(p1);
  EXPECT_EQ(plan->torn(), 2u);
  EXPECT_EQ(plan->eintrs(), 3u);
  EXPECT_EQ(remote.recoveries(), 0u);

  // Phase 2: one flipped payload bit in the first SEGMENT frame of the next
  // refinement → IntegrityError{kWire} → one recovery cycle.
  RetrievalPlan p2 = remote.plan(Request::bytes(3000));
  const ExecuteReplyLayout flipped = execute_reply_layout(plan->io_ops());
  plan->flip_at(flipped.first_read, flipped.first_payload, /*bit=*/5);
  remote.execute(p2);
  EXPECT_EQ(plan->flips(), 1u);
  EXPECT_EQ(remote.recoveries(), 1u);
  EXPECT_EQ(remote.retries(), 1u);

  // Phase 3: connection reset mid-EXECUTE — the request reaches the server,
  // which commits the full retrieval, and the client's first read of the
  // reply resets (the whole reply can arrive in that one read, so it is the
  // only read the layout guarantees) → second recovery cycle, RESUME now
  // replays two requests.
  RetrievalPlan p3 = remote.plan(Request::full());
  plan->reset_at(execute_reply_layout(plan->io_ops()).first_read);
  remote.execute(p3);
  EXPECT_EQ(plan->resets(), 1u);
  EXPECT_EQ(remote.recoveries(), 2u);
  EXPECT_EQ(remote.retries(), 2u);
  EXPECT_EQ(plan->injected(), 7u);  // 2 torn + 3 eintr + 1 flip + 1 reset

  // Byte-identical to a local reader replaying the same request sequence.
  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  local.retrieve(Request::error_bound(1e-2));
  local.retrieve(Request::bytes(3000));
  local.retrieve(Request::full());
  EXPECT_EQ(local.data(), remote.data());
  EXPECT_EQ(remote.data(), oneshot_full(archive));
  server.stop();
}

// When every raw I/O resets the connection, recovery cannot make progress:
// the reader must give up after max_attempts with the typed wire error, not
// hang or loop.
TEST(Fault, ExhaustedRetriesFailFastWithTypedWireError) {
  auto field = smooth_field(Dims{12, 10, 8}, 92, 0.05);
  net::Server server;
  server.export_memory("a", make_archive(field, 1e-5, 4));
  server.start();

  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 2;
  net::RemoteReader<double> remote(server.address(), "a", 30000, policy);

  FaultPlan::Profile grim;
  grim.reset_p = 1.0;
  grim.torn_p = grim.eintr_p = grim.delay_p = 0.0;
  auto plan = FaultPlan::random(7, grim);
  remote.archive().set_fault_injector(plan);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(remote.retrieve(Request::full()), net::WireError);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  EXPECT_GE(plan->resets(), 2u);
  EXPECT_EQ(remote.recoveries(), 0u);  // reconnects themselves were reset
  server.stop();
}

// Soak mode: the server's own --fault-seed profile (send-side resets, torn
// writes, EINTR, delay spikes) against a self-healing client.  CI re-runs
// this with a pinned IPCOMP_FAULT_SEED; the retrieval must stay
// byte-identical to a local reader regardless of the schedule.
TEST(Fault, ServerFaultSeedSoakStaysByteIdentical) {
  std::uint64_t seed = 0x51D3;
  if (const char* env = std::getenv("IPCOMP_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }

  auto field = smooth_field(Dims{24, 20, 16}, 93, 0.05);
  const Bytes archive = make_archive(field, 1e-6, 8);

  net::ServerConfig cfg;
  cfg.fault_seed = seed;
  cfg.write_deadline_ms = 5000;
  net::Server server(cfg);
  server.export_memory("a", Bytes(archive));
  server.start();

  net::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 8;
  policy.recovery_budget = 64;
  // The constructor's handshake has no retry loop of its own; an adversarial
  // seed may reset it, so redial (each connection draws a fresh schedule
  // from seed ^ connection id).
  std::optional<net::RemoteReader<double>> remote;
  for (int tries = 0; !remote.has_value(); ++tries) {
    try {
      remote.emplace(server.address(), "a", 30000, policy);
    } catch (const net::WireError&) {
      if (tries >= 8) throw;
    }
  }

  MemorySource src{Bytes(archive)};
  ProgressiveReader<double> local(src);
  for (const Request& req : mixed_traffic()) {
    local.retrieve(req);
    remote->retrieve(req);
    ASSERT_EQ(local.data(), remote->data());
  }
  EXPECT_EQ(remote->data(), oneshot_full(archive));
  EXPECT_GE(server.stats().connections_accepted, 1u);
  server.stop();
}

// ---- the tsan-preset stress test ------------------------------------------

// N client threads, each its own connection, mixed traffic shapes against
// one live daemon; every final reconstruction byte-identical to a serial
// reader replaying the same shape.
TEST(Net, MultiClientStress) {
  constexpr int kClients = 8;
  constexpr int kRounds = 2;

  auto field = smooth_field(Dims{24, 20, 16}, 88, 0.05);
  const Bytes archive = make_archive(field, 1e-6, 8);

  auto run_shape = [](auto& r, int shape) {
    if (shape == 0) r.retrieve(Request::error_bound(1e-2));
    if (shape == 1) {
      r.execute(
          r.plan(Request::error_bound(1e-4).within({0, 0, 0}, {12, 12, 12})));
    }
    if (shape == 2) r.retrieve(Request::bytes(2000));
    if (shape == 3) r.retrieve(Request::error_bound(1e-3));
    r.retrieve(Request::full());
  };
  const std::vector<double> oneshot = oneshot_full(archive);
  std::vector<std::vector<double>> want(4);
  for (int shape = 0; shape < 4; ++shape) {
    MemorySource ref_src{Bytes(archive)};
    ProgressiveReader<double> ref(ref_src);
    run_shape(ref, shape);
    want[static_cast<std::size_t>(shape)] = ref.data();
    ASSERT_EQ(ref.data(), oneshot) << "shape " << shape;
  }

  net::ServerConfig cfg;
  cfg.workers = kClients;
  net::Server server(cfg);
  server.export_memory("stress", Bytes(archive));
  server.start();
  const std::string addr = server.address();

  std::vector<std::vector<double>> result(kClients * kRounds);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        net::RemoteReader<double> reader(addr, "stress");
        run_shape(reader, (c + r) % 4);
        result[static_cast<std::size_t>(c) * kRounds +
               static_cast<std::size_t>(r)] = reader.data();
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRounds; ++r) {
      const std::size_t i = static_cast<std::size_t>(c) * kRounds +
                            static_cast<std::size_t>(r);
      ASSERT_EQ(result[i], want[static_cast<std::size_t>((c + r) % 4)])
          << "client " << c << " round " << r;
    }
  }

  const net::ServeStats st = server.stats();
  EXPECT_EQ(st.connections_accepted,
            static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_GT(st.cache.hits, 0u);  // shared tier served repeat traffic
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace ipcomp
