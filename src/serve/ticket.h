// Ticket: the future half of an async inference submission.
//
// submit() returns immediately with a Ticket; a dispatch worker fulfills
// it when the sample finishes. wait() blocks and either returns the
// NetworkRunStats or rethrows the failure that the request hit on its
// worker — exceptions cross the thread boundary instead of killing the
// server. on_settled() is the non-blocking alternative: a callback the
// settling thread runs once the ticket is done, so a front end (the HTTP
// gateway's IO thread) never parks a thread on wait().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>

#include "common/contracts.h"
#include "ecnn/runner.h"

namespace sne::serve {

/// The fate of a request whose deadline passed before it could run: shed at
/// admission or expired in the queue, failed fast without simulating
/// anything. Distinct from ConfigError (caller mistakes) and FaultError
/// (injected chaos) so clients can branch on "retry with a longer budget".
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

class Ticket;

namespace detail {

/// Wall time since `t0` in milliseconds (request-latency stamps).
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct TicketState : std::enable_shared_from_this<TicketState> {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  ecnn::NetworkRunStats result;
  std::exception_ptr error;
  std::uint64_t id = 0;
  double latency_ms = 0.0;  ///< submit -> completion wall time
  /// Ticket::on_settled callback, fired once by the settling thread.
  std::function<void(const Ticket&)> on_settled;

  void fulfill(ecnn::NetworkRunStats r, double lat_ms) {
    std::unique_lock<std::mutex> lk(m);
    result = std::move(r);
    settle(lk, lat_ms);
  }
  void fail(std::exception_ptr e, double lat_ms) {
    std::unique_lock<std::mutex> lk(m);
    error = std::move(e);
    settle(lk, lat_ms);
  }

 private:
  /// Marks the ticket done (lock held on entry, released here), wakes
  /// waiters, then runs the callback off the lock.
  void settle(std::unique_lock<std::mutex>& lk, double lat_ms);
};

}  // namespace detail

class Ticket {
 public:
  /// A default-constructed ticket is empty (valid() == false) until assigned
  /// from a submit(); accessors on an empty ticket fail the contract check
  /// loudly instead of dereferencing null.
  Ticket() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the request completes; rethrows its failure if it had one.
  const ecnn::NetworkRunStats& wait() const {
    SNE_EXPECTS(state_ != nullptr);
    detail::TicketState& s = *state_;
    std::unique_lock<std::mutex> lk(s.m);
    s.cv.wait(lk, [&s] { return s.done; });
    if (s.error) std::rethrow_exception(s.error);
    return s.result;
  }

  enum class WaitStatus { kReady, kTimeout };

  /// Timed wait: kReady once the request completed (wait() will not block
  /// and returns/rethrows immediately), kTimeout if it is still in flight
  /// when `timeout` elapses. The building block for client-side deadlines —
  /// unlike wait(), this never blocks forever behind an overloaded queue.
  WaitStatus wait_for(std::chrono::nanoseconds timeout) const {
    SNE_EXPECTS(state_ != nullptr);
    detail::TicketState& s = *state_;
    std::unique_lock<std::mutex> lk(s.m);
    return s.cv.wait_for(lk, timeout, [&s] { return s.done; })
               ? WaitStatus::kReady
               : WaitStatus::kTimeout;
  }

  bool done() const {
    SNE_EXPECTS(state_ != nullptr);
    std::lock_guard<std::mutex> lk(state_->m);
    return state_->done;
  }

  std::uint64_t id() const {
    SNE_EXPECTS(state_ != nullptr);
    return state_->id;
  }

  /// Submit -> completion wall time; valid once done.
  double latency_ms() const {
    SNE_EXPECTS(state_ != nullptr);
    std::lock_guard<std::mutex> lk(state_->m);
    return state_->latency_ms;
  }

  /// Completion callback: runs exactly once with this (done) ticket, on the
  /// thread that settles it — after the server's ledgers are settled — or
  /// immediately on the calling thread when the ticket is already done. It
  /// runs on a dispatch worker, so it must not block; wait() inside it
  /// returns (or rethrows) at once. At most one callback per ticket.
  void on_settled(std::function<void(const Ticket&)> cb) const {
    SNE_EXPECTS(state_ != nullptr && cb != nullptr);
    {
      std::lock_guard<std::mutex> lk(state_->m);
      SNE_EXPECTS(state_->on_settled == nullptr);
      if (!state_->done) {
        state_->on_settled = std::move(cb);
        return;
      }
    }
    cb(*this);
  }

 private:
  friend struct detail::TicketState;
  friend class InferenceServer;
  friend class StreamingSession;
  explicit Ticket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::TicketState> state_;
};

namespace detail {

inline void TicketState::settle(std::unique_lock<std::mutex>& lk,
                                double lat_ms) {
  latency_ms = lat_ms;
  done = true;
  std::function<void(const Ticket&)> cb = std::move(on_settled);
  on_settled = nullptr;
  lk.unlock();
  cv.notify_all();
  if (cb) cb(Ticket(shared_from_this()));
}

}  // namespace detail
}  // namespace sne::serve
