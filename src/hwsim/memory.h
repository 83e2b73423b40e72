// External memory model.
//
// SNE's streamers read/write events linearly from main memory (paper
// section III-D.2); the DMA's 16-word FIFO exists "to absorb memory latency
// cycles (e.g., due to access contention)". This model provides exactly the
// behaviour those words imply: a fixed first-word access latency, streaming
// throughput of one word per cycle once a burst is running, and optional
// randomized contention stalls for robustness tests. It models timing only:
// the words themselves live in the streamers (core/streamer.h), which are
// the memory's only readers and writers.
#pragma once

#include <cstdint>

#include "common/contracts.h"
#include "common/rng.h"

namespace sne::hwsim {

struct MemoryTiming {
  std::uint32_t latency_cycles = 4;   ///< first-word access latency
  double stall_probability = 0.0;     ///< per-word chance of a contention stall
  std::uint32_t stall_cycles = 8;     ///< extra cycles when a stall hits
};

/// Timing of a single streaming memory port.
class MemoryModel {
 public:
  explicit MemoryModel(MemoryTiming timing = {}, std::uint64_t seed = 1)
      : timing_(timing), seed_(seed), rng_(seed) {
    SNE_EXPECTS(timing.latency_cycles >= 1);
  }

  /// Rewinds the contention RNG to the stream named by `key` (derived from
  /// the root seed with Rng::fork's mixing constant; the Rng constructor
  /// splitmixes the result, so nearby keys yield independent sequences). The
  /// engine calls this at every stalled run() start with a content key of
  /// the program, so stall patterns are a pure function of (seed, program),
  /// never of what the engine ran before: identical per-layer programs stall
  /// identically on any engine, pipeline stage or batch worker, a reset
  /// engine replays a fresh one, and warm runs that skip a WLOAD program skip
  /// exactly that program's private stream.
  void begin_stream(std::uint64_t key) {
    rng_ = Rng(seed_ ^ (key * 0xD1B54A32D192ED03ull));
  }

  /// Cycles until the *next* sequential word of a running burst is available.
  /// Returns `latency` for the first word of a burst, 1 afterwards, plus a
  /// randomized contention stall when configured.
  std::uint32_t next_word_delay(bool first_of_burst) {
    std::uint32_t d = first_of_burst ? timing_.latency_cycles : 1;
    if (timing_.stall_probability > 0.0 && rng_.bernoulli(timing_.stall_probability))
      d += timing_.stall_cycles;
    return d;
  }

  const MemoryTiming& timing() const { return timing_; }

 private:
  MemoryTiming timing_;
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace sne::hwsim
