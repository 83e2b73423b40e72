// StreamingSession: crash-tolerant incremental inference over a long-lived
// event stream (the DVS-gesture-style workload the SNE paper targets).
//
// A session maps the whole model onto one pooled engine in *pipeline
// operating mode* (ecnn::build_pipeline, paper III-D.5: one slice per layer,
// chained C-XBAR routes) and keeps the engine leased for the session's
// lifetime. The client feeds event-stream chunks in chunk-local time; the
// session rebases them onto the running session clock, runs them to
// quiescence, and fulfills one ticket per chunk with that chunk's output
// events and activity counters. Neuron state (membranes + TLU timestamps)
// is deliberately *not* reset between chunks — only the first chunk carries
// the RST — so membrane integration carries across chunk boundaries exactly
// as if the concatenated stream had been run in one shot.
//
// Determinism contract (tests/test_tenants.cpp):
//   - Chunked replay tier (strict): a session's per-chunk results are
//     bitwise identical — outputs, counters, cycles — to the same chunk
//     sequence fed through any other session of the same design point,
//     regardless of pool state, tenant load, or intervening crashes.
//   - Continuity tier (functional): the union of the chunk output events
//     equals the one-shot pipeline run of the concatenated input, event for
//     event (set equality under the deterministic total order; cycle *counts*
//     may differ because each chunk boundary rewinds collector arbitration
//     and drains to quiescence).
//
// Crash tolerance: after every successful chunk the session snapshots the
// engine's neuron state (SneEngine::save_neuron_state). A chunk that throws
// — injected fault at `serve.session.chunk`, engine contract violation,
// pool failure — poisons the lease (the pool quarantines the engine, the
// PR-6 respawn discipline) and fails *only that chunk's* ticket with a
// diagnosable ChunkError naming the timestep range and cause. The next
// chunk respawns onto a fresh engine: reprogram the pipeline, restore the
// snapshot, and the session continues bitwise as if the failed chunk had
// simply never been fed.
//
// Lifecycle: open (engine leased, pipeline programmed) -> feed*/heartbeat*
// -> close (graceful: queued chunks drain, lease released) — or expiry: a
// session idle past `heartbeat_timeout_ms` closes itself and fails
// still-queued chunks. Tenant eviction closes every session of the tenant
// the same way. feed() after close/expiry throws SessionClosed.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/engine.h"
#include "ecnn/engine_pool.h"
#include "event/event_stream.h"
#include "serve/bounded_queue.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/ticket.h"

namespace sne::serve {

/// Longest session clock: one step per value of the 8-bit event timestamp.
inline constexpr std::uint16_t kMaxHorizonTimesteps = event::kMaxTime + 1;

struct SessionOptions {
  /// Tenant the session's chunks are accounted to (server-opened sessions).
  std::string tenant = kDefaultTenant;
  /// Session clock capacity: the sum of chunk timesteps may not exceed this.
  /// At most kMaxHorizonTimesteps (event timestamps are 8-bit). Also the
  /// horizon the pipeline plan is built for.
  std::uint16_t horizon_timesteps = kMaxHorizonTimesteps;
  /// Idle budget: a session with no feed()/heartbeat() for this long closes
  /// itself and fails queued chunks (0 = never).
  double heartbeat_timeout_ms = 0.0;
  event::FirePolicy policy = event::FirePolicy::kActiveStepsOnly;
};

/// feed() on a session that was closed, expired, or evicted.
class SessionClosed : public std::runtime_error {
 public:
  explicit SessionClosed(const std::string& what) : std::runtime_error(what) {}
};

/// A chunk that failed mid-session: names the session timestep range of the
/// failed chunk and embeds the cause. The session itself survives — state
/// rolled back to the last successful chunk boundary.
class ChunkError : public std::runtime_error {
 public:
  explicit ChunkError(const std::string& what) : std::runtime_error(what) {}
};

struct SessionStats {
  std::uint64_t chunks_submitted = 0;
  std::uint64_t chunks_completed = 0;
  /// Chunks whose ticket failed after admission (dispatch errors, queue
  /// expiries, close-time drains). chunks_completed + chunks_failed reaches
  /// chunks_submitted once the session drains.
  std::uint64_t chunks_failed = 0;
  /// Engine replacements after a chunk failure (the respawn path ran).
  std::uint64_t respawns = 0;
  std::uint16_t timesteps_consumed = 0;  ///< session clock position
  bool closed = false;
  bool expired = false;  ///< closed by the heartbeat watchdog
};

class StreamingSession {
 public:
  /// Server integration points; both optional (standalone sessions are the
  /// serial reference in tests). on_chunk fires per finished chunk (off the
  /// session lock); on_close fires exactly once when the session closes.
  struct Hooks {
    std::function<void(bool success, std::uint64_t cycles)> on_chunk;
    std::function<void()> on_close;
  };

  /// Leases an engine from `pool`, programs the model as a pipeline and
  /// starts the chunk worker. Throws ConfigError when the model cannot run
  /// in pipeline mode (multi-pass layers) or the horizon does not fit the
  /// 8-bit event clock.
  StreamingSession(ecnn::EnginePool& pool, ModelRegistry::ModelPtr model,
                   SessionOptions opts, Hooks hooks = {});
  ~StreamingSession();

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Feeds one chunk (events in chunk-local time [0, chunk timesteps)).
  /// Returns a ticket fulfilled with the chunk's NetworkRunStats (cycles,
  /// counters, output events in *session* time). Blocks on chunk-queue
  /// backpressure — never past the request's own deadline
  /// (BoundedQueue::push_for): a timed-out feed sheds with
  /// DeadlineExceeded instead of sleeping. Throws SessionClosed after
  /// close/expiry.
  Ticket feed(event::EventStream chunk,
              std::optional<std::chrono::steady_clock::time_point> deadline =
                  std::nullopt);

  /// Liveness signal: resets the idle clock without feeding.
  void heartbeat();

  /// Graceful close: admission stops immediately, queued chunks drain, the
  /// engine lease releases. Idempotent; safe to call concurrently with
  /// feed().
  void close();

  bool closed() const;
  SessionStats stats() const;
  const std::string& tenant() const { return opts_.tenant; }
  /// Output geometry of the pipeline's last stage (session-time stamped).
  const event::StreamGeometry& output_geometry() const { return out_geom_; }

 private:
  struct ChunkJob {
    event::EventStream input;
    std::shared_ptr<detail::TicketState> ticket;
    std::chrono::steady_clock::time_point submitted_at;
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  void worker_loop();
  /// (Re)acquires + programs an engine if none is held; restores the last
  /// snapshot. Counts a respawn when replacing a poisoned engine.
  void ensure_engine();
  void run_chunk(ChunkJob& job);
  /// Close-time path shared by graceful close and heartbeat expiry: fail
  /// whatever is still queued, release the lease, fire on_close once.
  void finish(bool expired_by_heartbeat);

  ecnn::EnginePool& pool_;
  ModelRegistry::ModelPtr model_;
  SessionOptions opts_;
  Hooks hooks_;
  event::StreamGeometry out_geom_;

  // Worker-owned state (touched only by the worker thread and the ctor,
  // which runs before the worker starts).
  std::optional<ecnn::EnginePool::Lease> lease_;
  core::SneEngine::NeuronState snapshot_;
  bool have_snapshot_ = false;
  bool spawned_once_ = false;
  std::uint16_t t_base_ = 0;  ///< session clock (worker mirror of stats)

  BoundedQueue<ChunkJob> queue_;
  std::thread worker_;
  std::mutex close_m_;  ///< serializes close() callers around the join

  mutable std::mutex m_;
  std::uint64_t chunks_submitted_ = 0;
  std::uint64_t chunks_completed_ = 0;
  std::uint64_t chunks_failed_ = 0;
  std::uint64_t respawns_ = 0;
  std::uint16_t timesteps_consumed_ = 0;
  bool close_requested_ = false;
  bool closed_ = false;
  bool expired_ = false;
  std::uint64_t next_chunk_id_ = 1;
  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace sne::serve
