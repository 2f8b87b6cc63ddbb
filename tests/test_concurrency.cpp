// Race-stress suite for the concurrency contracts documented across the
// tree (see the thread-contract taxonomy in src/util/sync.hpp).  These tests
// are written with std::thread, not parallel_for, so they exercise real
// cross-thread interleavings under every preset — and give ThreadSanitizer
// (the `tsan` preset, which builds with OpenMP off because libgomp is not
// TSan-instrumented) actual work: shared-registry first touch, SIMD dispatch
// first touch, N compressions through the shared backend singletons, N
// readers over one shared archive, and the parallel_for nested-guard
// machinery driven from concurrent outer threads.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ipcomp.hpp"
#include "test_util.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"
#include "util/sync.hpp"

namespace ipcomp {
namespace {

using testutil::linf;
using testutil::smooth_field;

constexpr int kThreads = 8;

/// Run `fn(tid)` on kThreads threads, all released through one barrier so
/// the interesting first statement really races.
template <typename Fn>
void race(Fn&& fn) {
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      fn(t);
    });
  }
  for (auto& th : threads) th.join();
}

// The backend registry is internally-synchronized: concurrent first touch
// through every lookup path must observe the same singletons.
TEST(Concurrency, RegistryConcurrentFirstTouch) {
  const ProgressiveBackend* interp_seen[kThreads] = {};
  const ProgressiveBackend* wavelet_seen[kThreads] = {};
  race([&](int t) {
    for (int i = 0; i < 100; ++i) {
      interp_seen[t] = &backend_for(BackendId::kInterp);
      wavelet_seen[t] = &backend_for(BackendId::kWavelet);
      ASSERT_EQ(backend_by_name("interp"), interp_seen[t]);
      ASSERT_EQ(backend_by_name("wavelet"), wavelet_seen[t]);
      ASSERT_EQ(backend_by_name("no-such-backend"), nullptr);
    }
  });
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(interp_seen[t], interp_seen[0]);
    EXPECT_EQ(wavelet_seen[t], wavelet_seen[0]);
  }
}

// The SIMD dispatch singleton resolves once; racing threads all observe the
// same level, and it never exceeds the hardware's.
TEST(Concurrency, SimdDispatchConcurrentFirstTouch) {
  SimdLevel seen[kThreads] = {};
  race([&](int t) { seen[t] = simd_level(); });
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_LE(static_cast<int>(seen[0]),
            static_cast<int>(detected_simd_level()));
}

// N threads compressing independent fields through the shared registry:
// backends are stateless, so concurrent compressions must be independent and
// each archive byte-identical to a serial run of the same options.
TEST(Concurrency, ConcurrentCompressIndependentFields) {
  struct Job {
    Dims dims;
    Options opt;
    NdArray<double> field;
    Bytes serial;
  };
  std::vector<Job> jobs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Job& j = jobs[t];
    j.dims = (t % 2) ? Dims{18, 14, 10} : Dims{31, 27};
    j.opt.error_bound = (t % 3) ? 1e-4 : 1e-6;
    j.opt.backend = (t % 2) ? BackendId::kWavelet : BackendId::kInterp;
    j.opt.block_side = (t % 4 < 2) ? 0 : 8;
    j.field = smooth_field(j.dims, 7000 + t, 0.02);
    j.serial = compress(j.field.const_view(), j.opt);
  }
  std::vector<Bytes> raced(kThreads);
  race([&](int t) {
    raced[t] = compress(jobs[t].field.const_view(), jobs[t].opt);
  });
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(raced[t], jobs[t].serial) << "thread " << t;
    MemorySource src{Bytes(raced[t])};
    ProgressiveReader<double> reader(src);
    reader.retrieve(Request::full());
    EXPECT_LE(linf(jobs[t].field.const_view(), reader.data()),
              reader.header().eb * (1 + 1e-9));
  }
}

/// One shared archive, per-thread sources: the sharing model the reader's
/// thread contract prescribes.  Every thread runs a different mixed
/// plan/execute + region sequence and must land on the same full-fidelity
/// reconstruction.
void shared_archive_mixed_traffic(bool through_file) {
  Options opt;
  opt.error_bound = 1e-6;
  opt.block_side = 8;
  auto field = smooth_field(Dims{24, 20, 16}, 42, 0.05);
  const Bytes archive = compress(field.const_view(), opt);

  std::string path;
  if (through_file) {
    path = ::testing::TempDir() + "/ipcomp_concurrency_shared.ipc";
    write_file(path, archive);
  }

  double archive_eb = 0.0;
  {
    MemorySource probe{Bytes(archive)};
    ProgressiveReader<double> r(probe);
    archive_eb = r.compression_eb();
  }

  std::vector<std::vector<double>> result(kThreads);
  race([&](int t) {
    // Per-thread source over the shared bytes / shared file.
    std::unique_ptr<SegmentSource> src;
    if (through_file) {
      src = std::make_unique<FileSource>(path);
    } else {
      src = std::make_unique<MemorySource>(Bytes(archive));
    }
    ProgressiveReader<double> reader(*src);
    // Mixed traffic, shape varying by thread id.
    if (t % 2 == 0) {
      auto st = reader.retrieve(Request::error_bound(1e-2));
      ASSERT_LE(linf(field.const_view(), reader.data()),
                st.guaranteed_error * (1 + 1e-9));
    }
    if (t % 3 == 0) {
      reader.execute(reader.plan(
          Request::error_bound(1e-4).within({0, 0, 0}, {12, 12, 12})));
    }
    if (t % 3 == 1) reader.retrieve(Request::bytes(2000));
    reader.retrieve(Request::full());
    result[t] = reader.data();
  });
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(result[t].size(), field.count());
    EXPECT_LE(linf(field.const_view(), result[t]), archive_eb * (1 + 1e-9))
        << "thread " << t;
  }
}

TEST(Concurrency, SharedArchiveMemorySourcesMixedTraffic) {
  shared_archive_mixed_traffic(/*through_file=*/false);
}

TEST(Concurrency, SharedArchiveFileSourcesMixedTraffic) {
  shared_archive_mixed_traffic(/*through_file=*/true);
}

// Regression pin for the reader's const-purity contract: concurrent plan()
// calls on ONE shared reader are pure reads — they return plans identical to
// serial planning, and leave the reader's data, accounting and epoch
// untouched.  (Under TSan this also proves plan() writes no hidden state.)
TEST(Concurrency, ConcurrentPlanCallsOnOneReaderStayPure) {
  Options opt;
  opt.error_bound = 1e-6;
  opt.block_side = 8;
  auto field = smooth_field(Dims{24, 20, 16}, 43, 0.05);
  MemorySource src{compress(field.const_view(), opt)};
  ProgressiveReader<double> reader(src);
  // Advance to a mid-fidelity resident set first, so plans are non-trivial.
  reader.retrieve(Request::error_bound(1e-2));

  const std::vector<double> data_before = reader.data();
  const std::size_t bytes_before = src.stats().bytes_read;

  const Request requests[] = {
      Request::error_bound(1e-3),
      Request::error_bound(1e-5),
      Request::bytes(1500),
      Request::full(),
      Request::error_bound(1e-4).within({0, 0, 0}, {10, 20, 16}),
  };
  // Serial reference plans for every request.
  std::vector<RetrievalPlan> reference;
  for (const Request& r : requests) reference.push_back(reader.plan(r));

  race([&](int t) {
    for (int i = 0; i < 50; ++i) {
      const std::size_t which = static_cast<std::size_t>(t + i) %
                                std::size(requests);
      RetrievalPlan p = reader.plan(requests[which]);
      const RetrievalPlan& ref = reference[which];
      ASSERT_EQ(p.segments, ref.segments);
      ASSERT_EQ(p.bytes_new, ref.bytes_new);
      ASSERT_EQ(p.guaranteed_error, ref.guaranteed_error);
      ASSERT_EQ(p.plane_targets, ref.plane_targets);
      ASSERT_EQ(p.blocks, ref.blocks);
      ASSERT_EQ(p.epoch, ref.epoch);
    }
  });

  EXPECT_EQ(reader.data(), data_before);
  EXPECT_EQ(src.stats().bytes_read, bytes_before);
  // The reader did not advance: the reference plans are still executable.
  RetrievalStats st = reader.execute(reference[0]);
  EXPECT_EQ(st.bytes_new, reference[0].bytes_new);
}

// parallel_for / parallel_chunks driven from concurrent outer threads: the
// nested-parallelism guard and grain logic must neither lose indices nor
// double-visit them, whatever the interleaving.
TEST(Concurrency, ParallelForNestedGuardStress) {
  constexpr std::size_t kN = 20000;
  std::vector<std::atomic<int>> visits(kN);
  race([&](int) {
    parallel_for(0, kN, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      // Nested call: the guard must serialize it (or it is serial anyway
      // below the grain), never deadlock or oversubscribe.
      if (i % 4096 == 0) {
        parallel_for(0, 64, [&](std::size_t j) {
          visits[j].fetch_add(0, std::memory_order_relaxed);
        }, /*grain=*/1);
      }
    }, /*grain=*/256);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(std::memory_order_relaxed), kThreads) << i;
  }
}

// parallel_chunks: chunk boundaries are thread-count independent, so
// chunk-local tallies must merge to the same totals from every thread.
TEST(Concurrency, ParallelChunksConcurrentTallies) {
  constexpr std::size_t kN = 10000;
  constexpr std::size_t kChunk = 64;
  std::vector<std::uint64_t> totals(kThreads, 0);
  race([&](int t) {
    std::atomic<std::uint64_t> total{0};
    parallel_chunks(0, kN, kChunk, [&](std::size_t lo, std::size_t hi) {
      std::uint64_t local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += i;
      total.fetch_add(local, std::memory_order_relaxed);
    });
    totals[static_cast<std::size_t>(t)] = total.load();
  });
  const std::uint64_t want = kN * (kN - 1) / 2;
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(totals[t], want);
}

// parallel_for_ex from concurrent threads: each thread's first exception is
// captured under the sync.hpp Mutex and rethrown on that thread only.
TEST(Concurrency, ParallelForExConcurrentThrow) {
  std::atomic<int> caught{0};
  race([&](int t) {
    try {
      parallel_for_ex(0, 5000, [&](std::size_t i) {
        if (i == static_cast<std::size_t>(500 + t)) {
          throw std::runtime_error("boom " + std::to_string(t));
        }
      }, /*grain=*/64);
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(t));
      caught.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(caught.load(), kThreads);
}

// parallel_for_dynamic_ex from concurrent threads: every index runs once,
// no more states are built than workers, each state is only ever used by
// one worker at a time, and the first exception reaches the caller.
TEST(Concurrency, ParallelForDynamicExStatesAndThrow) {
  constexpr std::size_t kN = 257;
  std::atomic<int> caught{0};
  race([&](int t) {
    std::vector<std::atomic<int>> visits(kN);
    std::atomic<int> states{0};
    parallel_for_dynamic_ex(
        0, kN,
        [&] {
          states.fetch_add(1, std::memory_order_relaxed);
          return std::make_unique<std::atomic<int>>(0);
        },
        [&](std::unique_ptr<std::atomic<int>>& busy, std::size_t i) {
          EXPECT_EQ(busy->fetch_add(1), 0);
          visits[i].fetch_add(1, std::memory_order_relaxed);
          busy->fetch_sub(1);
        });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
    EXPECT_GE(states.load(), 1);
    EXPECT_LE(states.load(), thread_count());
    try {
      parallel_for_dynamic_ex(
          0, kN, [] { return 0; },
          [&](int&, std::size_t i) {
            if (i == static_cast<std::size_t>(100 + t)) {
              throw std::runtime_error("boom " + std::to_string(t));
            }
          });
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(t));
      caught.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(caught.load(), kThreads);
}

// The sync.hpp primitives themselves: Mutex mutual exclusion and CondVar
// wakeup, raced directly.
TEST(Concurrency, MutexAndCondVarWrappers) {
  Mutex mu;
  int counter = 0;  // guarded by mu (local, so documented not annotated)
  bool go = false;
  CondVar cv;
  std::atomic<int> woke{0};
  race([&](int t) {
    if (t == 0) {
      {
        LockGuard lock(mu);
        go = true;
      }
      cv.notify_all();
    } else {
      {
        LockGuard lock(mu);
        cv.wait(mu, [&] { return go; });
      }
      woke.fetch_add(1, std::memory_order_relaxed);
    }
    for (int i = 0; i < 1000; ++i) {
      LockGuard lock(mu);
      ++counter;
    }
  });
  EXPECT_EQ(woke.load(), kThreads - 1);
  LockGuard lock(mu);
  EXPECT_EQ(counter, kThreads * 1000);
}

}  // namespace
}  // namespace ipcomp
