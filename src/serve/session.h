// StreamingSession: crash-tolerant incremental inference over a long-lived
// event stream (the DVS-gesture-style workload the SNE paper targets).
//
// A session maps the whole model in *pipeline operating mode*
// (ecnn::plan_pipeline, paper III-D.5: one slice per layer, chained C-XBAR
// routes) and holds no engine between chunks: between chunks it is data —
// the plan, a neuron-state snapshot and a chunk FIFO. Each chunk leases an
// ordinary pooled engine, scrubs its programming, programs the pipeline,
// restores the snapshot, runs, snapshots again and releases the lease, so
// open sessions are bounded by the tenant's session quota, not by the
// engine count.
//
// The client feeds event-stream chunks in chunk-local time; the session
// rebases them onto the running session clock, runs them to quiescence, and
// fulfills one ticket per chunk with that chunk's output events and
// activity counters. Neuron state (membranes + TLU timestamps) is
// deliberately *not* reset between chunks — only the first chunk carries
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
// Crash tolerance: a chunk that throws — injected fault at
// `serve.session.chunk`, engine contract violation, pool failure — poisons
// its lease (the pool quarantines the engine, as for a one-shot request)
// and fails *only that chunk's* ticket with a diagnosable ChunkError naming
// the timestep range and cause. The snapshot still holds the last good
// chunk boundary, so the next chunk restores it like any other and the
// session continues bitwise as if the failed chunk had never been fed.
//
// Threading: a session owns no thread and feed() never blocks. Chunks wait
// in a session FIFO (at most 8); a server-opened session keeps one of them
// at a time in its tenant's lane of the InferenceServer's scheduler, and
// the dispatch worker that runs it pushes the next. Chunks stay serial per
// session while DRR interleaves them with one-shot requests. A standalone
// session (no server: the serial reference in tests) runs each chunk
// inline in feed(), through the same run_chunk.
//
// Lifecycle: open (pipeline planned, no engine touched) -> feed*/heartbeat*
// -> close. close() never joins: an idle session finishes at once, a busy
// one when its last admitted chunk settles. Heartbeat expiry is lazy (feed,
// heartbeat, closed and stats check the idle clock; server workers sweep
// every 100 ms) and only takes a session with nothing queued or running.
// Tenant eviction closes the tenant's sessions and drops their queued
// chunks. feed() after close/expiry throws SessionClosed.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/engine.h"
#include "ecnn/engine_pool.h"
#include "ecnn/runner.h"
#include "event/event_stream.h"
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
  /// Idle budget: a session with nothing queued or running and no
  /// feed()/heartbeat() for this long (counted from its last chunk's end)
  /// closes itself (0 = never).
  double heartbeat_timeout_ms = 0.0;
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
  /// Chunks whose ticket failed after feed() accepted them (chunk errors,
  /// queue expiries, a lane that refused the push, eviction).
  /// chunks_completed + chunks_failed reaches chunks_submitted once the
  /// session drains.
  std::uint64_t chunks_failed = 0;
  std::uint16_t timesteps_consumed = 0;  ///< session clock position
  bool closed = false;
  bool expired = false;  ///< closed by the heartbeat watchdog
};

class InferenceServer;

class StreamingSession
    : public std::enable_shared_from_this<StreamingSession> {
 public:
  /// Plans the model as a pipeline; each chunk leases an engine of `pool`.
  /// `server` (open_session passes itself; the session must then be owned
  /// by a shared_ptr) runs the chunks on its dispatch workers; null =
  /// standalone. Throws ConfigError when the model cannot run in pipeline
  /// mode or the horizon does not fit the 8-bit event clock.
  StreamingSession(ecnn::EnginePool& pool, ModelRegistry::ModelPtr model,
                   SessionOptions opts, InferenceServer* server = nullptr);
  ~StreamingSession();

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Feeds one chunk (events in chunk-local time [0, chunk timesteps)).
  /// Returns a ticket fulfilled with the chunk's NetworkRunStats (cycles,
  /// counters, output events in *session* time). Never waits for another
  /// chunk: one whose deadline already passed fails with DeadlineExceeded,
  /// one that finds the FIFO full with DispatchRefused. Throws
  /// SessionClosed after close/expiry.
  Ticket feed(event::EventStream chunk,
              std::optional<std::chrono::steady_clock::time_point> deadline =
                  std::nullopt);

  /// Liveness signal: resets the idle clock without feeding.
  void heartbeat();

  /// Graceful close: admission stops immediately, admitted chunks still
  /// run, and the session finishes once none is left. Never blocks;
  /// idempotent; safe to call concurrently with feed().
  void close();

  /// Both check the heartbeat budget first (an idle session past it
  /// expires here).
  bool closed();
  SessionStats stats();
  const std::string& tenant() const { return opts_.tenant; }

 private:
  friend class InferenceServer;

  struct Chunk {
    event::EventStream input;
    std::shared_ptr<detail::TicketState> ticket;
    std::chrono::steady_clock::time_point submitted_at;
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  /// Runs one chunk on a freshly leased engine (caller holds busy_). Null
  /// on success, else the chunk's error.
  std::exception_ptr run_chunk(const event::EventStream& input,
                               ecnn::NetworkRunStats& result);
  /// With busy_ set: runs waiting chunks inline or hands the next one to
  /// the server; once the FIFO is empty clears busy_ (finishing a closing
  /// session).
  void pump();
  /// A server-run chunk is done (or dropped): book it and pump(), so the
  /// session is idle or has its next chunk queued before the ticket settles.
  void chunk_done(bool success);
  void count_chunk(bool success);
  void poll_expiry();  ///< heartbeat watchdog
  /// Lock held: close requested, nothing queued or running, and this
  /// caller is the one to run finish().
  bool claim_finish_locked();
  void finish();  ///< marks the session closed and reports the close

  ecnn::EnginePool& pool_;
  SessionOptions opts_;
  InferenceServer* server_;
  ecnn::PipelinePlan plan_;

  // Runner state: touched only by the thread holding busy_.
  core::SneEngine::NeuronState snapshot_;
  bool have_snapshot_ = false;
  std::uint16_t t_base_ = 0;  ///< session clock (runner mirror of stats)

  mutable std::mutex m_;
  std::deque<Chunk> fifo_;  ///< fed, not yet handed to the server
  bool busy_ = false;       ///< a chunk is queued in the lane or running
  std::uint64_t chunks_submitted_ = 0;
  std::uint64_t chunks_completed_ = 0;
  std::uint64_t chunks_failed_ = 0;
  std::uint16_t timesteps_consumed_ = 0;
  bool close_requested_ = false;
  bool finish_claimed_ = false;
  bool closed_ = false;
  bool expired_ = false;
  std::uint64_t next_chunk_id_ = 1;
  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace sne::serve
