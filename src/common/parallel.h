// Fork-join helpers for the software substrate (trainer tensor loops,
// dataset-level batch simulation).
//
// parallel_for splits [begin, end) into contiguous chunks executed on the
// persistent ThreadPool (plus the calling thread). The body is a template
// parameter, so the inner loop calls it directly — no std::function, no
// per-call thread spawn, no allocation on the task path. Chunking is a pure
// function of the range and the worker count, so results are independent of
// scheduling as long as the body only writes to its own indices.
#pragma once

#include <cstddef>
#include <utility>

#include "common/thread_pool.h"

namespace sne {

/// Invokes body(i) for every i in [begin, end), splitting the range into
/// contiguous chunks over the thread pool. Falls back to serial execution
/// for small ranges where scheduling cost dominates.
template <typename Body>
inline void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  const std::size_t n = end > begin ? end - begin : 0;
  if (n == 0) return;
  ThreadPool& pool = ThreadPool::global();
  const unsigned lanes = pool.size() + 1;
  if (n < 64 || lanes == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  struct Ctx {
    Body* body;
    std::size_t begin;
    std::size_t end;
    std::size_t chunk;
  };
  const std::size_t chunk = (n + lanes - 1) / lanes;
  Ctx ctx{&body, begin, end, chunk};
  const std::size_t tasks = (n + chunk - 1) / chunk;
  pool.run(
      [](void* p, std::size_t k) {
        Ctx& c = *static_cast<Ctx*>(p);
        const std::size_t lo = c.begin + k * c.chunk;
        const std::size_t hi = lo + c.chunk < c.end ? lo + c.chunk : c.end;
        for (std::size_t i = lo; i < hi; ++i) (*c.body)(i);
      },
      &ctx, tasks);
}

}  // namespace sne
