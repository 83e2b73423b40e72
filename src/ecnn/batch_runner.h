// BatchRunner: dataset-level parallel simulation.
//
// The cycle-accurate engine is single-threaded by design; dataset benches
// (Table-1 accuracy, energy proportionality) run hundreds of independent
// samples, which is embarrassingly parallel at the sample level. BatchRunner
// simulates one QuantizedNetwork over N input streams across the persistent
// thread pool, each in-flight sample on its own pooled engine.
//
// Engine reuse: run() leases engines from an ecnn::EnginePool (one engine
// per in-flight slot, grown on demand and kept across run() calls) instead
// of constructing one per sample — construction is dominated by the
// memory model's multi-MB zero-fill, which used to be paid per sample.
// run_one() keeps the fresh-engine path as the reference semantics.
//
// Determinism: a released engine is machine-reset to the freshly-constructed
// state and contention stalls are keyed by program content, so pooled
// results are bitwise identical to fresh-engine results and independent of
// the worker count and of how samples are scheduled onto threads — the
// regression suite asserts this.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/config.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "event/event_stream.h"
#include "hwsim/memory.h"
#include "ecnn/engine_pool.h"

namespace sne::ecnn {

struct BatchOptions {
  /// Extra dedicated workers for this runner; 0 = share the global pool
  /// (pool workers + the calling thread).
  unsigned workers = 0;
  bool use_wload_stream = false;           ///< see NetworkRunner
  std::size_t memory_words = (1u << 22);   ///< per-engine external memory
  hwsim::MemoryTiming mem_timing{};        ///< per-engine memory timing
};

class BatchRunner {
 public:
  BatchRunner(core::SneConfig hw, QuantizedNetwork net, BatchOptions opts = {});

  /// Simulates every input independently on pooled (reused) engines;
  /// results[i] corresponds to inputs[i]. Bitwise deterministic regardless
  /// of worker count, and bitwise equal to run_one() per sample.
  std::vector<NetworkRunStats> run(
      const std::vector<event::EventStream>& inputs);

  /// Simulates one input on a fresh engine: the serial reference semantics
  /// the pooled path must reproduce bit for bit (test_serve pins it).
  NetworkRunStats run_one(const event::EventStream& input) const;

  /// Integer golden-model execution of the network over every input, one
  /// sample per task (the accuracy/energy protocol loops are sample-wise
  /// independent). results[i] holds the per-layer traces of inputs[i];
  /// bitwise identical to a serial GoldenExecutor loop for any worker
  /// count.
  std::vector<std::vector<GoldenExecutor::LayerTrace>> run_golden(
      const std::vector<event::EventStream>& inputs,
      event::FirePolicy policy = event::FirePolicy::kActiveStepsOnly);

  const core::SneConfig& hw() const { return hw_; }
  const QuantizedNetwork& network() const { return net_; }

 private:
  core::SneConfig hw_;
  QuantizedNetwork net_;
  BatchOptions opts_;
  /// Dedicated pool when opts_.workers > 0 (spawned once, reused across
  /// run() calls); otherwise run() uses ThreadPool::global().
  std::unique_ptr<ThreadPool> pool_;
  /// Resident engines for run(): grows to the number of in-flight slots and
  /// is kept across run() calls (engines reset between samples).
  std::unique_ptr<EnginePool> engines_;
};

}  // namespace sne::ecnn
