// Bounded blocking queue: the inter-stage channel of PipelineDeployment.
//
// Semantics chosen for serving: push() blocks while full (backpressure
// propagates to the submitter / upstream pipeline stage), close() wakes
// everything — subsequent pushes fail, pops keep draining what was accepted
// so no admitted request is dropped on shutdown.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "common/contracts.h"

namespace sne::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : cap_(capacity) {
    SNE_EXPECTS(capacity > 0);
  }

  /// Blocks while full. Returns false (item not enqueued) once closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lk(m_);
    not_full_.wait(lk, [this] { return closed_ || q_.size() < cap_; });
    if (closed_) return false;
    q_.push_back(std::move(item));
    if (q_.size() > peak_) peak_ = q_.size();
    lk.unlock();
    not_empty_.notify_one();
    return true;
  }

  enum class PopStatus { kItem, kTimeout, kClosed };

  /// Timed pop: the dispatch-loop heartbeat. kItem moves the head into
  /// `out`; kTimeout means nothing arrived within `timeout` (the caller
  /// gets control back for deadline housekeeping / watchdog checks instead
  /// of parking on the condition variable forever); kClosed means closed
  /// *and* drained.
  PopStatus pop_for(std::chrono::nanoseconds timeout, T& out) {
    std::unique_lock<std::mutex> lk(m_);
    if (!not_empty_.wait_for(lk, timeout,
                             [this] { return closed_ || !q_.empty(); }))
      return PopStatus::kTimeout;
    if (q_.empty()) return PopStatus::kClosed;
    out = std::move(q_.front());
    q_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return PopStatus::kItem;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(m_);
    return q_.size();
  }
  /// High-water occupancy over the queue lifetime.
  std::size_t peak() const {
    std::lock_guard<std::mutex> lk(m_);
    return peak_;
  }
  std::size_t capacity() const { return cap_; }

 private:
  mutable std::mutex m_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> q_;
  std::size_t cap_;
  std::size_t peak_ = 0;
  bool closed_ = false;
};

}  // namespace sne::serve
