#include "serve/session.h"

#include <exception>
#include <sstream>
#include <utility>

#include "common/fault_injection.h"
#include "ecnn/runner.h"
#include "obs/trace.h"

namespace sne::serve {

using detail::ms_since;

namespace {
/// Bounded chunk queue depth (feed blocks on backpressure).
constexpr std::size_t kChunkQueue = 8;
}  // namespace

StreamingSession::StreamingSession(ecnn::EnginePool& pool,
                                   ModelRegistry::ModelPtr model,
                                   SessionOptions opts, Hooks hooks)
    : pool_(pool),
      model_(std::move(model)),
      opts_(std::move(opts)),
      hooks_(std::move(hooks)),
      queue_(kChunkQueue),
      last_activity_(std::chrono::steady_clock::now()) {
  SNE_EXPECTS(model_ != nullptr);
  // Chunks are rebased onto the session clock, so the last step's events
  // carry timestamp horizon - 1, which must fit the 8-bit event field.
  if (opts_.horizon_timesteps == 0 ||
      opts_.horizon_timesteps > kMaxHorizonTimesteps)
    throw ConfigError("session horizon_timesteps must be in [1, " +
                      std::to_string(kMaxHorizonTimesteps) +
                      "] (8-bit event timestamps)");
  // First spawn happens on the caller: pipeline-mode config errors (multi-
  // pass layers, too many layers for the slice count) surface at open, not
  // on the first chunk.
  ensure_engine();
  worker_ = std::thread([this] { worker_loop(); });
}

StreamingSession::~StreamingSession() { close(); }

Ticket StreamingSession::feed(
    event::EventStream chunk,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  ChunkJob job;
  job.input = std::move(chunk);
  job.ticket = std::make_shared<detail::TicketState>();
  job.submitted_at = std::chrono::steady_clock::now();
  job.deadline = deadline;
  const Ticket ticket{job.ticket};
  {
    std::lock_guard<std::mutex> lk(m_);
    if (close_requested_ || closed_)
      throw SessionClosed(expired_
                              ? "feed on an expired session (heartbeat timeout)"
                              : "feed on a closed session");
    job.ticket->id = next_chunk_id_++;
    last_activity_ = job.submitted_at;
  }
  // Dead-on-arrival deadline: answered without ever entering the session
  // (mirrors the server's admission shed).
  if (job.deadline && job.submitted_at >= *job.deadline) {
    job.ticket->fail(
        std::make_exception_ptr(DeadlineExceeded(
            "chunk shed at feed: deadline already passed")),
        ms_since(job.submitted_at));
    return ticket;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    ++chunks_submitted_;
  }
  const auto rollback = [this] {
    std::lock_guard<std::mutex> lk(m_);
    --chunks_submitted_;
  };
  if (job.deadline) {
    // Backpressure bounded by the chunk's own budget: never sleep past it.
    const auto remaining = *job.deadline - std::chrono::steady_clock::now();
    const auto pushed = queue_.push_for(
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining), job);
    if (pushed == BoundedQueue<ChunkJob>::PushResult::kFull) {
      rollback();
      job.ticket->fail(std::make_exception_ptr(DeadlineExceeded(
                           "chunk shed: session queue full past deadline")),
                       ms_since(job.submitted_at));
      return ticket;
    }
    if (pushed == BoundedQueue<ChunkJob>::PushResult::kClosed) {
      rollback();
      throw SessionClosed("feed raced session close");
    }
  } else if (!queue_.push(std::move(job))) {
    rollback();
    throw SessionClosed("feed raced session close");
  }
  return ticket;
}

void StreamingSession::heartbeat() {
  std::lock_guard<std::mutex> lk(m_);
  if (close_requested_ || closed_)
    throw SessionClosed("heartbeat on a closed session");
  last_activity_ = std::chrono::steady_clock::now();
}

void StreamingSession::close() {
  std::lock_guard<std::mutex> close_lk(close_m_);
  {
    std::lock_guard<std::mutex> lk(m_);
    close_requested_ = true;
  }
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

bool StreamingSession::closed() const {
  std::lock_guard<std::mutex> lk(m_);
  return closed_;
}

SessionStats StreamingSession::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  SessionStats s;
  s.chunks_submitted = chunks_submitted_;
  s.chunks_completed = chunks_completed_;
  s.chunks_failed = chunks_failed_;
  s.respawns = respawns_;
  s.timesteps_consumed = timesteps_consumed_;
  s.closed = closed_;
  s.expired = expired_;
  return s;
}

void StreamingSession::worker_loop() {
  constexpr auto kTick = std::chrono::milliseconds(50);
  for (;;) {
    ChunkJob job;
    switch (queue_.pop_for(kTick, job)) {
      case BoundedQueue<ChunkJob>::PopStatus::kTimeout: {
        if (opts_.heartbeat_timeout_ms > 0.0) {
          bool expire = false;
          {
            std::lock_guard<std::mutex> lk(m_);
            expire = !close_requested_ &&
                     ms_since(last_activity_) > opts_.heartbeat_timeout_ms;
          }
          if (expire) {
            finish(/*expired_by_heartbeat=*/true);
            return;
          }
        }
        continue;
      }
      case BoundedQueue<ChunkJob>::PopStatus::kClosed:
        // Graceful close: everything admitted was drained through
        // run_chunk before the queue reported closed.
        finish(/*expired_by_heartbeat=*/false);
        return;
      case BoundedQueue<ChunkJob>::PopStatus::kItem:
        run_chunk(job);
        break;
    }
  }
}

void StreamingSession::ensure_engine() {
  if (lease_) return;
  lease_.emplace(pool_.acquire());
  try {
    // Full reset first: on a weight-resident pool the lease may carry slice
    // programming from earlier time-multiplexed traffic, and the strict
    // replay tier needs a machine indistinguishable from new under it.
    lease_->engine().reset();
    const event::StreamGeometry geom = ecnn::build_pipeline(
        lease_->engine(), *model_, opts_.horizon_timesteps);
    // out_geom_ is published once, before the worker exists; respawns
    // reprogram the identical plan so rewriting it would only race readers.
    if (!spawned_once_) out_geom_ = geom;
    if (have_snapshot_) lease_->engine().restore_neuron_state(snapshot_);
  } catch (...) {
    lease_->poison();
    lease_.reset();
    throw;
  }
  if (spawned_once_) {
    std::lock_guard<std::mutex> lk(m_);
    ++respawns_;
  }
  spawned_once_ = true;
}

void StreamingSession::run_chunk(ChunkJob& job) {
  // Chunk span correlated by the chunk's ticket id; the queue wait since
  // feed() and the engine run nest under the session's worker thread.
  obs::ScopedCorr obs_corr(job.ticket->id);
  obs::trace_span_since("serve.chunk.queue", job.submitted_at, t_base_);
  obs::ScopedSpan chunk_span("serve.chunk", t_base_);
  const std::uint16_t chunk_t = job.input.geometry().timesteps;
  const std::uint16_t t0 = t_base_;
  const auto fail_chunk = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lk(m_);
      ++chunks_failed_;
    }
    job.ticket->fail(e, ms_since(job.submitted_at));
    if (hooks_.on_chunk) hooks_.on_chunk(/*success=*/false, 0);
  };
  // A chunk whose deadline burned in the session queue fails fast with no
  // engine time and no session-state change.
  if (job.deadline && std::chrono::steady_clock::now() >= *job.deadline) {
    fail_chunk(std::make_exception_ptr(DeadlineExceeded(
        "chunk expired in session queue: deadline passed before dispatch")));
    return;
  }
  if (static_cast<std::uint32_t>(t0) + chunk_t > opts_.horizon_timesteps) {
    std::ostringstream os;
    os << "session horizon exhausted: chunk spans session timesteps [" << t0
       << ", " << t0 + chunk_t << ") but horizon_timesteps = "
       << opts_.horizon_timesteps << "; open a new session to continue";
    fail_chunk(std::make_exception_ptr(ChunkError(os.str())));
    return;
  }
  ecnn::NetworkRunStats result;
  try {
    ensure_engine();
    faults::check("serve.session.chunk");
    // Rebase the chunk onto the session clock. Only the session's first
    // chunk resets neuron state; continuation chunks integrate on top of
    // the membranes the previous chunk left behind.
    const event::EventStream ctl =
        job.input.with_control_events(opts_.policy, /*initial_reset=*/t0 == 0);
    event::StreamGeometry abs_geom = job.input.geometry();
    abs_geom.timesteps = static_cast<std::uint16_t>(t0 + chunk_t);
    event::EventStream abs(abs_geom);
    abs.reserve(ctl.size());
    for (event::Event e : ctl.events()) {
      e.t = static_cast<std::uint16_t>(e.t + t0);
      abs.push(e);
    }
    core::RunOptions ro;
    ro.out_geometry = out_geom_;
    ro.out_geometry.timesteps = abs_geom.timesteps;
    obs::ScopedSpan sim_span("ecnn.simulate", t0);
    core::RunResult r = lease_->engine().run(abs.to_beats(), ro);
    result.cycles = r.cycles;
    result.total = r.counters;
    result.final_output = std::move(r.output);
  } catch (const std::exception& e) {
    // Quarantine the engine (nothing certifies its state mid-chunk) and
    // fail only this chunk, diagnosably. The snapshot still holds the last
    // good chunk boundary; the next chunk respawns and restores it.
    if (lease_) {
      lease_->poison();
      lease_.reset();
    }
    std::ostringstream os;
    os << "session chunk over session timesteps [" << t0 << ", "
       << t0 + chunk_t << ") failed: " << e.what()
       << "; session state rolled back to timestep " << t0;
    fail_chunk(std::make_exception_ptr(ChunkError(os.str())));
    return;
  }
  // Success: advance the session clock and snapshot the carried neuron
  // state as the new recovery point.
  t_base_ = static_cast<std::uint16_t>(t0 + chunk_t);
  lease_->engine().save_neuron_state(snapshot_);
  have_snapshot_ = true;
  const double lat_ms = ms_since(job.submitted_at);
  const std::uint64_t cycles = result.cycles;
  {
    std::lock_guard<std::mutex> lk(m_);
    ++chunks_completed_;
    timesteps_consumed_ = t_base_;
  }
  job.ticket->fulfill(std::move(result), lat_ms);
  if (hooks_.on_chunk) hooks_.on_chunk(/*success=*/true, cycles);
}

void StreamingSession::finish(bool expired_by_heartbeat) {
  if (expired_by_heartbeat) {
    {
      std::lock_guard<std::mutex> lk(m_);
      close_requested_ = true;
      expired_ = true;
    }
    queue_.close();
  }
  // Fail whatever is still queued (only the expiry path can find anything:
  // a graceful close drains chunks through run_chunk first).
  ChunkJob job;
  while (queue_.pop_for(std::chrono::nanoseconds(0), job) ==
         BoundedQueue<ChunkJob>::PopStatus::kItem) {
    {
      std::lock_guard<std::mutex> lk(m_);
      ++chunks_failed_;
    }
    job.ticket->fail(
        std::make_exception_ptr(SessionClosed(
            expired_by_heartbeat
                ? "session expired (heartbeat timeout) with chunk queued"
                : "session closed with chunk queued")),
        ms_since(job.submitted_at));
    if (hooks_.on_chunk) hooks_.on_chunk(/*success=*/false, 0);
  }
  lease_.reset();  // release (and machine-reset) the engine
  {
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
  }
  if (hooks_.on_close) hooks_.on_close();
}

}  // namespace sne::serve
