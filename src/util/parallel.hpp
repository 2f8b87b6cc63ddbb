// Thin OpenMP helpers.
//
// All parallel loops in this repository go through parallel_for so that the
// code builds (serially) without OpenMP and so that grain-size policy lives in
// one place.  Loop bodies must be independent per index.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>

#include "util/sync.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace ipcomp {

/// Number of worker threads the runtime will use.
inline int thread_count() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// True when called from inside an active parallel region.  Used as a
/// nested-parallelism guard: parallel_for runs serially in that case, so an
/// outer loop (e.g. across compression blocks) keeps exclusive use of the
/// thread pool instead of oversubscribing it with nested teams.
inline bool in_parallel() {
#if defined(_OPENMP)
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// Parallel loop over [begin, end); falls back to serial when the trip count
/// is below `grain` (parallelizing tiny loops costs more than it saves) or
/// when already inside a parallel region (see in_parallel()).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t grain = 1024) {
#if defined(_OPENMP)
  if (end - begin >= grain && omp_get_max_threads() > 1 && !in_parallel()) {
    const std::ptrdiff_t b = static_cast<std::ptrdiff_t>(begin);
    const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(end);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = b; i < e; ++i) {
      fn(static_cast<std::size_t>(i));
    }
    return;
  }
#else
  (void)grain;
#endif
  for (std::size_t i = begin; i < end; ++i) fn(i);
}

/// Chunked parallel loop: fn(lo, hi) over the fixed ranges
/// [begin + c*chunk, begin + (c+1)*chunk) ∩ [begin, end).  Chunk boundaries
/// never depend on the thread count, so chunk-local reductions (OR masks,
/// per-depth maxima) merge into thread-count-independent results.  The
/// word-parallel bitplane engine runs its tile passes through this: one
/// chunk is enough work to amortize a fork, so two chunks already run in
/// parallel (a lone chunk runs inline).
template <typename Fn>
void parallel_chunks(std::size_t begin, std::size_t end, std::size_t chunk,
                     Fn&& fn) {
  if (end <= begin) return;
  const std::size_t n_chunks = (end - begin + chunk - 1) / chunk;
  parallel_for(0, n_chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    fn(lo, lo + chunk < end ? lo + chunk : end);
  }, /*grain=*/2);
}

/// parallel_for for bodies that may throw (e.g. decoding untrusted input):
/// exceptions must not escape an OpenMP region, so the first one thrown is
/// captured and rethrown on the calling thread after the loop completes.
template <typename Fn>
void parallel_for_ex(std::size_t begin, std::size_t end, Fn&& fn,
                     std::size_t grain = 1024) {
  std::exception_ptr eptr = nullptr;
  Mutex mutex;  // guards eptr across the loop's worker threads
  parallel_for(begin, end, [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      LockGuard lock(mutex);
      if (!eptr) eptr = std::current_exception();
    }
  }, grain);
  if (eptr) std::rethrow_exception(eptr);
}

/// Loop over few, coarse and uneven items (e.g. compression blocks), with
/// per-worker scratch: indices are handed out one at a time as workers free
/// up (dynamic schedule), and each worker builds one `make_state()` on its
/// first index and passes it to fn(state, i) for every index it takes.  The
/// state dies with the loop.  Bodies may throw: as in parallel_for_ex, the
/// first exception is rethrown on the calling thread after the loop.  A
/// lone item, one thread or a call from inside a parallel region runs
/// serially, so the body's own parallel loops still get the pool.  Which
/// worker runs an index varies from run to run: store results by index.
template <typename MakeState, typename Fn>
void parallel_for_dynamic_ex(std::size_t begin, std::size_t end,
                             MakeState&& make_state, Fn&& fn) {
  if (end <= begin) return;
#if defined(_OPENMP)
  if (end - begin >= 2 && omp_get_max_threads() > 1 && !in_parallel()) {
    using State = decltype(make_state());
    std::exception_ptr eptr = nullptr;
    Mutex mutex;  // guards eptr across the team
    const std::ptrdiff_t b = static_cast<std::ptrdiff_t>(begin);
    const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(end);
#pragma omp parallel
    {
      // Built inside the loop body, not before the worksharing loop: a
      // throwing make_state() must not make its thread skip the loop.
      std::optional<State> state;
#pragma omp for schedule(dynamic, 1)
      for (std::ptrdiff_t i = b; i < e; ++i) {
        try {
          if (!state) state.emplace(make_state());
          fn(*state, static_cast<std::size_t>(i));
        } catch (...) {
          LockGuard lock(mutex);
          if (!eptr) eptr = std::current_exception();
        }
      }
    }
    if (eptr) std::rethrow_exception(eptr);
    return;
  }
#endif
  auto state = make_state();
  for (std::size_t i = begin; i < end; ++i) fn(state, i);
}

}  // namespace ipcomp
