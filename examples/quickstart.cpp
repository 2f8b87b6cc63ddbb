// Quickstart: compress a scientific field once, then retrieve it at three
// fidelity levels — each refinement loads only the additional bitplanes.
//
//   ./quickstart [tiny|small|full]
#include <cstdint>
#include <cstring>
#include <iostream>
#include <utility>

#include "data/datasets.hpp"
#include "ipcomp.hpp"
#include "metrics/metrics.hpp"
#include "metrics/report.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

int main(int argc, char** argv) {
  using namespace ipcomp;

  DataScale scale = DataScale::kTiny;
  if (argc > 1 && std::strcmp(argv[1], "small") == 0) scale = DataScale::kSmall;
  if (argc > 1 && std::strcmp(argv[1], "full") == 0) scale = DataScale::kPaper;

  // 1. A scientific dataset: turbulence density (synthetic Miranda stand-in).
  auto spec = dataset_spec(Field::kDensity, scale);
  const NdArray<double>& field = cached_field(Field::kDensity, scale);
  std::cout << "dataset   : " << spec.name << " (" << spec.domain << "), "
            << spec.dims.to_string() << " float64, "
            << field.count() * sizeof(double) / 1024 << " KiB raw\n";

  // 2. Compress once with a tight bound (1e-9 relative, like the paper).
  Options opt;
  opt.error_bound = 1e-9;
  opt.relative = true;
  Bytes archive = compress(field.const_view(), opt);
  std::cout << "compressed: " << archive.size() / 1024 << " KiB  (ratio "
            << TableReporter::num(compression_ratio(field.count() * 8, archive.size()))
            << ", eb = 1e-9 x range)\n\n";

  // 3. Progressive retrieval: coarse -> medium -> full, one reader.
  // (The blob is copied in: step 4 serves the same archive over loopback.)
  MemorySource src(archive);
  ProgressiveReader<double> reader(src);

  auto report = [&](const char* label, const RetrievalStats& st) {
    auto err = compute_error_stats<double>(field.const_view().span(),
                                           {reader.data().data(), reader.data().size()});
    std::cout << label << ": loaded " << st.bytes_total / 1024 << " KiB total ("
              << TableReporter::num(st.bitrate, 3) << " bits/value), "
              << "L-inf error " << TableReporter::sci(err.max_abs)
              << " (guaranteed <= " << TableReporter::sci(st.guaranteed_error)
              << "), PSNR " << TableReporter::num(err.psnr, 4) << " dB\n";
  };

  // The plan/execute split: inspect what the request *would* fetch before a
  // payload byte moves (retrieve(Request) is a one-call wrapper around
  // exactly this).
  const double coarse_target =
      1e-3 * (reader.header().data_max - reader.header().data_min);
  RetrievalPlan plan = reader.plan(Request::error_bound(coarse_target));
  std::cout << "plan for " << to_string(plan.request) << ": "
            << plan.segments.size() << " segments, " << plan.bytes_new
            << " bytes, guaranteed L-inf "
            << TableReporter::sci(plan.guaranteed_error) << " -> executing\n";
  report("coarse (eb 1e-3) ", reader.execute(plan));
  report("medium (12 bits) ", reader.retrieve(Request::bitrate(12.0)));
  report("full             ", reader.retrieve(Request::full()));

  std::cout << "\nEvery refinement reused the planes already in memory and\n"
               "rebuilt the field from the resident codes (paper Algorithm 1).\n";

  // 4. The same lifecycle over the network: a loopback daemon serving the
  // archive, a RemoteReader running plan/execute against it.  Refinements
  // move only bytes_new across the wire — the planes already staged on the
  // client are never re-sent.
  net::ServerConfig scfg;
  scfg.listen = "127.0.0.1:0";  // ephemeral port
  net::Server server(scfg);
  server.export_memory("density", std::move(archive));
  server.start();

  // The output depends only on the planes each block holds, so the remote
  // reader ends on exactly the local reader's full reconstruction.
  net::RemoteReader<double> remote(server.address(), "density");
  RetrievalStats st = remote.retrieve(Request::error_bound(coarse_target));
  const std::uint64_t first_wire = remote.archive().last_payload_bytes();
  remote.retrieve(Request::bitrate(12.0));
  st = remote.retrieve(Request::full());
  std::cout << "\nremote    : refined to full over " << server.address()
            << " — " << first_wire / 1024 << " KiB then "
            << remote.archive().last_payload_bytes() / 1024
            << " KiB on the wire (" << st.bytes_total / 1024
            << " KiB total priced), reconstruction identical to local: "
            << (remote.data() == reader.data() ? "yes" : "NO") << "\n";
  server.stop();
  return 0;
}
