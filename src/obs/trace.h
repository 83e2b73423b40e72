// Span tracer: per-request causality for the serving stack.
//
// Sites mark the request lifecycle (submit -> queue wait -> DRR dispatch ->
// engine-lease acquire -> program/warm-skip -> simulate -> settle) and
// streaming-session chunks. Spans land in bounded per-thread ring buffers
// (oldest overwritten, drops counted) and export as Chrome trace-event
// JSON — load the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Contract (same as fault_injection.h): default-off, and a disarmed site
// costs exactly one relaxed-ordering atomic load — no clock read, no
// thread-local touch, no allocation. Arming never changes simulation
// results: the tracer only ever *observes* (names are static strings,
// timestamps come from a monotonic clock, correlation keys are values the
// caller already computed), so every equivalence tier holds bit for bit
// with tracing on.
//
// Span identity: id = FNV-1a(name, corr, arg) — a pure function of the
// span's semantic coordinates, never of thread ids, wall clock, or
// interleaving. Running the same workload under 1 or N workers yields the
// same span-id set (tests/test_obs.cpp pins it); ids deduplicate repeats of
// the same semantic event rather than numbering them.
//
// Correlation: serving code brackets a request's dispatch in a ScopedCorr
// carrying the ticket id; spans recorded underneath (engine-pool lease,
// layer program/simulate) inherit it, which is what lets the export nest
// engine spans under their request without threading ids through every
// signature.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fnv.h"

namespace sne::obs {

/// Deterministic span id: FNV-1a over the site name, then corr and arg.
inline std::uint64_t span_id(const char* name, std::uint64_t corr,
                             std::uint64_t arg) {
  std::uint64_t h = kFnv64Basis;
  for (const char* p = name; *p != '\0'; ++p)
    h = fnv64_step(h, static_cast<unsigned char>(*p));
  h = fnv64_step(h, corr);
  h = fnv64_step(h, arg);
  return h;
}

/// FNV-1a key for string-valued span args (tenant names, model names).
inline std::uint64_t trace_key(const std::string& s) {
  std::uint64_t h = kFnv64Basis;
  for (const char c : s) h = fnv64_step(h, static_cast<unsigned char>(c));
  return h;
}

/// Ambient per-thread correlation id (the active request/chunk ticket).
inline std::uint64_t& trace_corr_slot() {
  thread_local std::uint64_t corr = 0;
  return corr;
}

class Tracer {
 public:
  static Tracer& instance();

  struct Config {
    /// Spans retained per thread; older spans are overwritten (dropped()
    /// reports how many). Bounded by construction: arming the tracer can
    /// never grow memory past threads x capacity.
    std::size_t ring_capacity = 1 << 14;
  };

  /// Starts recording: clears every ring, restarts the time base. Spans
  /// recorded under a previous arm are gone.
  void arm(Config cfg);
  void arm() { arm(Config{}); }
  /// Stops recording; collected spans survive until the next arm().
  void disarm();

  /// The per-site fast-path gate — one atomic load, nothing else.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Nanoseconds since the arm() time base (saturates at 0 before it).
  std::uint64_t now_ns() const {
    return to_ns(std::chrono::steady_clock::now());
  }
  std::uint64_t to_ns(std::chrono::steady_clock::time_point t) const {
    const auto d = t - epoch_;
    return d.count() < 0
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                         .count());
  }

  /// Records one complete span ('X') or instant event ('i') into the
  /// calling thread's ring. No-op when disarmed.
  void record(const char* name, std::uint64_t corr, std::uint64_t arg,
              std::uint64_t t0_ns, std::uint64_t t1_ns, char phase = 'X');

  struct CollectedSpan {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t corr = 0;
    std::uint64_t arg = 0;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    std::uint32_t tid = 0;  ///< small per-thread display index
    char phase = 'X';
  };

  /// Snapshot of every ring, sorted by (tid, start time). Safe while other
  /// threads keep recording (each ring is locked briefly).
  std::vector<CollectedSpan> collect() const;

  /// Spans overwritten since arm() across all rings.
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}); ts/dur in microseconds
  /// as the format requires.
  std::string chrome_trace_json() const;

 private:
  struct ThreadRing {
    explicit ThreadRing(std::size_t cap, std::uint32_t tid_)
        : spans(cap), tid(tid_) {}
    struct Rec {
      const char* name = nullptr;
      std::uint64_t corr = 0, arg = 0, t0 = 0, t1 = 0;
      char phase = 'X';
    };
    mutable std::mutex m;
    std::vector<Rec> spans;
    std::uint64_t count = 0;  ///< total recorded; > capacity means wrapped
    std::uint32_t tid = 0;
  };

  ThreadRing& local_ring();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> arm_epoch_{0};
  mutable std::mutex m_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  Config cfg_;
  std::uint32_t next_tid_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
};

/// RAII complete-span site. Disarmed cost: one atomic load in the
/// constructor, one dead-flag branch in the destructor.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t arg = 0) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    live_ = true;
    name_ = name;
    arg_ = arg;
    corr_ = trace_corr_slot();
    t0_ = t.now_ns();
  }
  ~ScopedSpan() {
    if (!live_) return;
    Tracer& t = Tracer::instance();
    t.record(name_, corr_, arg_, t0_, t.now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool live_ = false;
  const char* name_ = nullptr;
  std::uint64_t arg_ = 0, corr_ = 0, t0_ = 0;
};

/// RAII ambient correlation id (see header comment). Cheap enough to set
/// unconditionally: one thread-local store each way, no tracer state.
class ScopedCorr {
 public:
  explicit ScopedCorr(std::uint64_t corr) : prev_(trace_corr_slot()) {
    trace_corr_slot() = corr;
  }
  ~ScopedCorr() { trace_corr_slot() = prev_; }
  ScopedCorr(const ScopedCorr&) = delete;
  ScopedCorr& operator=(const ScopedCorr&) = delete;

 private:
  std::uint64_t prev_;
};

/// Instant-event site (zero-duration marks: warm skips, DRR grants).
inline void trace_instant(const char* name, std::uint64_t arg = 0) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  const std::uint64_t now = t.now_ns();
  t.record(name, trace_corr_slot(), arg, now, now, 'i');
}

/// Explicit-interval site for waits that started before the recording
/// thread touched them (queue spans: begin at submit, end at pop).
inline void trace_span_since(const char* name,
                             std::chrono::steady_clock::time_point t0,
                             std::uint64_t arg = 0) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  t.record(name, trace_corr_slot(), arg, t.to_ns(t0), t.now_ns());
}

}  // namespace sne::obs
