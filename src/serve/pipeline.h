// PipelineDeployment: layer-sharded serving over multiple pooled engines.
//
// The paper's time-multiplexed mode (III-D.5) serializes a network layer by
// layer on one engine; under serving load that leaves every other engine
// idle while one request monopolizes the machine. This deployment productizes
// the same tiling hook for throughput: consecutive layers are assigned to
// *different* pooled engines (stage 0 owns layers [0,a), stage 1 owns [a,b),
// ...) connected by bounded spike-stream queues, in the spirit of
// distributed-llama's layer-sliced workers. Each stage still executes its
// layers with the exact per-layer TM protocol of ecnn::NetworkRunner, so
// while request i streams through stage 2, request i+1 occupies stage 1 and
// request i+2 stage 0 — whole-network rounds overlap across requests instead
// of serializing.
//
// Determinism: every stage resets its engine per request and every
// SneEngine::run rewinds its arbitration state, so the per-layer runs are
// bitwise identical to the ones the serial NetworkRunner would have done on
// one engine — stage boundaries cannot be observed in the results. The
// assembled NetworkRunStats (per-layer stats, counters, cycles, outputs) is
// pinned sample-for-sample against the serial reference by test_serve.
// Randomized memory-contention stalls keep that guarantee: each run draws
// from a stream keyed by its program's contents, so a layer stalls the same
// on whichever stage engine hosts it.
//
// Weight residency (PipelineOptions::weight_resident, default on): a stage
// owns its layer range for the deployment's whole lifetime, so reprogramming
// it per request is pure overhead — stages machine-reset their engine
// between jobs (keeping slice programming) and skip passes whose residency
// tags match, serving steady-state requests with no WLOAD phase at all.
// Results then follow the relaxed equality tier: outputs, spikes and
// post-programming counters stay bitwise identical to the serial cold
// reference, and the counter delta is exactly the skipped programming
// (test_serve pins the arithmetic identity).
//
// Graceful degradation: a stage whose engine throws mid-job fails *that*
// job with a diagnosable StageError (stage index, layer range, cause),
// poisons its lease (the pool quarantines the engine) and respawns on a
// fresh engine — subsequent jobs succeed. With
// PipelineOptions::stage_timeout_ms set, a stage watchdog fails jobs whose
// stream-queue wait exceeded the budget (a stuck or slow upstream stage)
// instead of letting them clog the pipe. tests/test_faults.cpp drives both
// under the sne::faults injector.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.h"
#include "ecnn/engine_pool.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "event/event_stream.h"
#include "hwsim/memory.h"
#include "serve/bounded_queue.h"
#include "serve/ticket.h"

namespace sne::serve {

struct PipelineOptions {
  /// Stage count; clamped to the layer count. 0 = one stage per layer.
  unsigned stages = 0;
  std::size_t queue_capacity = 4;  ///< per-stage bounded stream queue
  bool use_wload_stream = false;
  std::size_t memory_words = (1u << 22);
  hwsim::MemoryTiming mem_timing{};
  event::FirePolicy policy = event::FirePolicy::kActiveStepsOnly;
  /// Weight-resident stages (program-once / serve-many): each stage keeps
  /// its layer range's programming across requests (machine-reset instead of
  /// full reset between jobs) and skips reprogramming resident passes, so
  /// steady-state requests stream through without any WLOAD phase. Results
  /// follow the relaxed equality tier (see ecnn::NetworkRunner::run); false
  /// restores PR-4's reprogram-every-request strict tier.
  bool weight_resident = true;
  /// With weight_resident: nonzero = program every stage's layer range at
  /// deploy time for inputs of this timestep count, so even the first
  /// request is served warm (deployment pays the programming, no request
  /// does). 0 = lazy: the first request on each stage programs it.
  std::uint16_t warmup_timesteps = 0;
  /// Stage watchdog budget: a job that waited longer than this in a stage's
  /// stream queue is failed with a diagnosable StageError instead of being
  /// run — a stuck or slow stage sheds its backlog rather than clogging the
  /// pipe. 0 (default) disables the watchdog.
  double stage_timeout_ms = 0.0;
};

/// A pipeline stage failure, wrapped with the stage index and layer range so
/// a client (or an operator reading logs) can tell *where* the pipeline
/// degraded without cross-referencing deployment internals. The cause's
/// what() is embedded.
class StageError : public std::runtime_error {
 public:
  explicit StageError(const std::string& what) : std::runtime_error(what) {}
};

class PipelineDeployment {
 public:
  PipelineDeployment(core::SneConfig hw, ecnn::QuantizedNetwork net,
                     PipelineOptions opts = {});
  ~PipelineDeployment();

  PipelineDeployment(const PipelineDeployment&) = delete;
  PipelineDeployment& operator=(const PipelineDeployment&) = delete;

  /// Admits one sample into stage 0 (blocking on stage backpressure).
  Ticket submit(event::EventStream input);

  /// Streams every input through the pipeline and returns results[i] for
  /// inputs[i]. Results are bitwise identical to a serial NetworkRunner
  /// loop — and to this deployment at any other stage count.
  std::vector<ecnn::NetworkRunStats> run(
      const std::vector<event::EventStream>& inputs);

  unsigned stages() const { return static_cast<unsigned>(ranges_.size()); }
  /// Half-open layer range [first, last) owned by each stage.
  const std::vector<std::pair<std::size_t, std::size_t>>& stage_ranges()
      const {
    return ranges_;
  }

  /// Degradation ledger: how the deployment has been failing and healing.
  /// jobs_completed + jobs_failed reaches the submit count once tickets
  /// settle; stage_respawns counts engines replaced after a stage fault
  /// (the quarantine-and-respawn path, distinct from deploy-time spawns);
  /// watchdog_failures counts jobs shed for overstaying a stream queue.
  struct Stats {
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;
    std::uint64_t stage_respawns = 0;
    std::uint64_t watchdog_failures = 0;
  };
  Stats stats() const;

 private:
  struct Job {
    event::EventStream input;  ///< original sample (stage 0's input)
    ecnn::NetworkRunStats acc;  ///< grows by one layer entry per layer
    std::shared_ptr<detail::TicketState> ticket;
    std::chrono::steady_clock::time_point submitted_at;
    /// Stamp of the last stream-queue push (admission or inter-stage); the
    /// stage watchdog judges queue wait against it.
    std::chrono::steady_clock::time_point stage_enqueued_at;
    bool failed = false;
  };
  using JobPtr = std::unique_ptr<Job>;

  void stage_loop(std::size_t s);

  core::SneConfig hw_;
  ecnn::QuantizedNetwork net_;
  PipelineOptions opts_;
  std::uint64_t model_fp_ = 0;  ///< residency key (0 when not weight-resident)
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
  ecnn::EnginePool pool_;
  std::vector<std::unique_ptr<BoundedQueue<JobPtr>>> queues_;
  std::vector<std::thread> stage_threads_;
  std::uint64_t next_id_ = 1;
  std::mutex submit_m_;

  mutable std::mutex stats_m_;
  Stats stats_;
};

}  // namespace sne::serve
