#include "serve/session.h"

#include <exception>
#include <sstream>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace sne::serve {

using detail::ms_since;

namespace {
/// Chunks a session holds waiting behind the one queued or running.
constexpr std::size_t kChunkQueue = 8;
}  // namespace

StreamingSession::StreamingSession(ecnn::EnginePool& pool,
                                   ModelRegistry::ModelPtr model,
                                   SessionOptions opts,
                                   InferenceServer* server)
    : pool_(pool),
      opts_(std::move(opts)),
      server_(server),
      last_activity_(std::chrono::steady_clock::now()) {
  SNE_EXPECTS(model != nullptr);
  // Chunks are rebased onto the session clock, so the last step's events
  // carry timestamp horizon - 1, which must fit the 8-bit event field.
  if (opts_.horizon_timesteps == 0 ||
      opts_.horizon_timesteps > kMaxHorizonTimesteps)
    throw ConfigError("session horizon_timesteps must be in [1, " +
                      std::to_string(kMaxHorizonTimesteps) +
                      "] (8-bit event timestamps)");
  // The plan step runs here so pipeline-mode config errors (multi-pass
  // layers, too many layers for the slice count) surface at open; every
  // chunk programs the engine it leases.
  plan_ = ecnn::plan_pipeline(pool_.hw(), *model, opts_.horizon_timesteps);
}

StreamingSession::~StreamingSession() { close(); }

Ticket StreamingSession::feed(
    event::EventStream chunk,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  poll_expiry();
  Chunk c;
  c.input = std::move(chunk);
  c.ticket = std::make_shared<detail::TicketState>();
  c.submitted_at = std::chrono::steady_clock::now();
  c.deadline = deadline;
  const Ticket ticket{c.ticket};
  const auto submitted_at = c.submitted_at;
  std::exception_ptr refused;
  bool start = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (close_requested_)
      throw SessionClosed(expired_
                              ? "feed on an expired session (heartbeat timeout)"
                              : "feed on a closed session");
    c.ticket->id = next_chunk_id_++;
    last_activity_ = c.submitted_at;
    // Refusals are answered without entering the session (mirrors the
    // server's admission shed): not counted in chunks_submitted.
    if (c.deadline && c.submitted_at >= *c.deadline) {
      refused = std::make_exception_ptr(
          DeadlineExceeded("chunk shed at feed: deadline already passed"));
    } else if (fifo_.size() >= kChunkQueue) {
      refused = std::make_exception_ptr(DispatchRefused(
          "session chunk queue full (" + std::to_string(kChunkQueue) +
          " chunks waiting)"));
    } else {
      ++chunks_submitted_;
      fifo_.push_back(std::move(c));
      start = !busy_;
      busy_ = true;
    }
  }
  if (refused) ticket.state_->fail(refused, ms_since(submitted_at));
  if (start) pump();
  return ticket;
}

void StreamingSession::heartbeat() {
  poll_expiry();
  std::lock_guard<std::mutex> lk(m_);
  if (close_requested_) throw SessionClosed("heartbeat on a closed session");
  last_activity_ = std::chrono::steady_clock::now();
}

void StreamingSession::close() {
  bool fin = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    close_requested_ = true;
    fin = claim_finish_locked();
  }
  if (fin) finish();
}

bool StreamingSession::closed() {
  poll_expiry();
  std::lock_guard<std::mutex> lk(m_);
  return closed_;
}

SessionStats StreamingSession::stats() {
  poll_expiry();
  std::lock_guard<std::mutex> lk(m_);
  SessionStats s;
  s.chunks_submitted = chunks_submitted_;
  s.chunks_completed = chunks_completed_;
  s.chunks_failed = chunks_failed_;
  s.timesteps_consumed = timesteps_consumed_;
  s.closed = closed_;
  s.expired = expired_;
  return s;
}

void StreamingSession::poll_expiry() {
  if (opts_.heartbeat_timeout_ms <= 0.0) return;
  bool fin = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (close_requested_ || busy_ ||
        ms_since(last_activity_) <= opts_.heartbeat_timeout_ms)
      return;
    close_requested_ = true;
    expired_ = true;
    fin = claim_finish_locked();
  }
  if (fin) finish();
}

bool StreamingSession::claim_finish_locked() {
  if (!close_requested_ || busy_ || finish_claimed_) return false;
  finish_claimed_ = true;
  return true;
}

void StreamingSession::finish() {
  {
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
  }
  if (server_ != nullptr) server_->sched_.note_session_closed(opts_.tenant);
}

void StreamingSession::pump() {
  for (;;) {
    Chunk c;
    bool fin = false;
    {
      std::lock_guard<std::mutex> lk(m_);
      if (fifo_.empty()) {
        busy_ = false;
        // The idle clock starts when the last chunk is done, so a slow
        // chunk never counts against the heartbeat budget.
        last_activity_ = std::chrono::steady_clock::now();
        fin = claim_finish_locked();
      } else {
        c = std::move(fifo_.front());
        fifo_.pop_front();
      }
    }
    if (c.ticket == nullptr) {
      if (fin) finish();
      return;
    }
    if (server_ != nullptr) {
      // Admitted: the worker that runs it calls chunk_done(), which pumps
      // on. Refused: the server already answered the ticket.
      if (server_->dispatch_chunk(*this, c)) return;
      count_chunk(/*success=*/false);
      continue;
    }
    // Standalone: the serial reference runs the chunk right here.
    obs::ScopedCorr corr(c.ticket->id);
    ecnn::NetworkRunStats result;
    const std::exception_ptr error = run_chunk(c.input, result);
    count_chunk(error == nullptr);
    if (error)
      c.ticket->fail(error, ms_since(c.submitted_at));
    else
      c.ticket->fulfill(std::move(result), ms_since(c.submitted_at));
  }
}

void StreamingSession::chunk_done(bool success) {
  count_chunk(success);
  pump();
}

void StreamingSession::count_chunk(bool success) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (success) {
      ++chunks_completed_;
      timesteps_consumed_ = t_base_;
    } else {
      ++chunks_failed_;
    }
  }
  if (server_ != nullptr) server_->sched_.note_chunk(opts_.tenant, success);
}

std::exception_ptr StreamingSession::run_chunk(
    const event::EventStream& input, ecnn::NetworkRunStats& result) {
  obs::ScopedSpan chunk_span("serve.chunk", t_base_);
  const std::uint16_t chunk_t = input.geometry().timesteps;
  const std::uint16_t t0 = t_base_;
  if (static_cast<std::uint32_t>(t0) + chunk_t > opts_.horizon_timesteps) {
    std::ostringstream os;
    os << "session horizon exhausted: chunk spans session timesteps [" << t0
       << ", " << t0 + chunk_t << ") but horizon_timesteps = "
       << opts_.horizon_timesteps << "; open a new session to continue";
    return std::make_exception_ptr(ChunkError(os.str()));
  }
  try {
    // Rebase the chunk onto the session clock. Only the session's first
    // chunk resets neuron state; continuation chunks integrate on top of
    // the membranes the previous chunk left behind.
    const event::EventStream ctl = input.with_control_events(
        event::FirePolicy::kActiveStepsOnly, /*initial_reset=*/t0 == 0);
    event::StreamGeometry abs_geom = input.geometry();
    abs_geom.timesteps = static_cast<std::uint16_t>(t0 + chunk_t);
    event::EventStream abs(abs_geom);
    abs.reserve(ctl.size());
    for (event::Event e : ctl.events()) {
      e.t = static_cast<std::uint16_t>(e.t + t0);
      abs.push(e);
    }
    const std::vector<event::Beat> beats = abs.to_beats();
    core::RunOptions ro;
    ro.out_geometry = plan_.out_geometry;
    ro.out_geometry.timesteps = abs_geom.timesteps;
    // Each chunk leases an ordinary engine; its machine state was reset
    // when the previous lease released it. Scrubbing the programming
    // earlier traffic left makes it indistinguishable from new under the
    // pipeline (the strict replay tier needs that), then the last good
    // chunk boundary is restored onto the programmed slices.
    ecnn::EnginePool::Lease lease = pool_.acquire();
    try {
      core::SneEngine& engine = lease.engine();
      engine.scrub_programming();
      ecnn::program_pipeline(engine, plan_);
      if (have_snapshot_) engine.restore_neuron_state(snapshot_);
      faults::check("serve.session.chunk");
      obs::ScopedSpan sim_span("ecnn.simulate", t0);
      core::RunResult r = engine.run(beats, ro);
      result.cycles = r.cycles;
      result.total = r.counters;
      result.final_output = std::move(r.output);
      // The carried neuron state is the new recovery point.
      engine.save_neuron_state(snapshot_);
    } catch (...) {
      // Quarantine the engine: nothing certifies its state mid-chunk.
      lease.poison();
      throw;
    }
  } catch (const std::exception& e) {
    // Fail only this chunk, diagnosably. The snapshot still holds the last
    // good chunk boundary; the next chunk restores it.
    std::ostringstream os;
    os << "session chunk over session timesteps [" << t0 << ", "
       << t0 + chunk_t << ") failed: " << e.what()
       << "; session state rolled back to timestep " << t0;
    return std::make_exception_ptr(ChunkError(os.str()));
  }
  t_base_ = static_cast<std::uint16_t>(t0 + chunk_t);
  have_snapshot_ = true;
  return nullptr;
}

}  // namespace sne::serve
