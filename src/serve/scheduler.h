// FairScheduler: the multi-tenant admission front door of the serving
// runtime (the InferenceServer's only request queue).
//
// Each tenant registers a TenantConfig and gets its own bounded queue;
// dispatch picks across non-empty tenant queues by deficit-round-robin
// (unit-cost requests, so `weight` is simply the number of consecutive pops
// a backlogged tenant receives per round). A single-tenant scheduler
// degenerates to exactly the old FIFO: the default tenant preserves today's
// admission semantics and bits.
//
// Overload control is *per tenant* and never crosses tenant boundaries:
//
//   - Quota shedding: a push into a full tenant queue first tries to
//     displace the oldest of that tenant's own queued entries already past
//     its deadline. Displaced entries are handed back to the caller (who
//     fails their tickets); another tenant's traffic is never touched.
//     With nothing expired to displace, the push reports the queue full.
//
//   - SLO stats: per-tenant Ledger (submitted/completed/failed/shed/expired
//     counts and a fixed-bucket latency histogram), queue depth and
//     head-of-line age — the inputs an operator needs to set quotas. The
//     tenant ledgers are the server's only ledger: ServerStats sums them.
//
// The scheduler reorders and sheds, but never touches payloads: what runs
// is bitwise independent of scheduling policy, so every completed result
// stays pinned to the serial reference (the server's contract).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace sne::serve {

/// Default tenant name: requests that don't name a tenant land here.
inline constexpr const char* kDefaultTenant = "";

/// Per-tenant admission policy.
struct TenantConfig {
  /// Deficit-round-robin share: consecutive pops a backlogged tenant
  /// receives per round. Relative weights are the throughput ratio under
  /// saturation (weight 4 drains 4x as fast as weight 1).
  unsigned weight = 1;
  /// Bounded queue quota; a push beyond it sheds within the tenant (see
  /// header comment) or reports overload.
  std::size_t max_queue = 64;
  /// Cap on concurrently open streaming sessions. Sessions hold no engine
  /// between chunks, so this quota is what bounds them.
  unsigned max_sessions = 64;

  void validate() const;
};

/// Three-way tenant lookup answer: the gateway needs to distinguish a name
/// that was never registered (its 401/ConfigError path) from one that was
/// registered and evicted (403 — the credential was valid once and the
/// ledger survives, but admission is permanently refused).
enum class TenantPresence : std::uint8_t { kUnknown, kActive, kEvicted };

/// Answer given to traffic the overload-control policy refuses to run:
/// quota displacement, tenant eviction, or a session quota. Distinct from
/// DeadlineExceeded (the *request's* budget ran out) and ConfigError
/// (caller mistakes) so clients can branch on "back off".
class TenantOverload : public std::runtime_error {
 public:
  explicit TenantOverload(const std::string& what)
      : std::runtime_error(what) {}
};

/// The overload answer for work the server had no room to dispatch: a
/// session chunk its tenant's full queue refused, or a full session chunk
/// FIFO. The gateway counts these 503s as GatewayStats::dispatch_rejected.
class DispatchRefused : public TenantOverload {
 public:
  using TenantOverload::TenantOverload;
};

/// Submit-to-answer wall time of the requests a ledger settled, in fixed
/// millisecond buckets (obs::bucket_index's `le` rule). Bucket counts add
/// across tenants, servers and processes, which sampled percentiles never
/// do; the adapters export it as a Prometheus histogram.
struct LatencyHistogram {
  /// Inclusive upper bucket edges; a +Inf bucket follows the last.
  static constexpr std::array<double, 16> kBoundsMs = {
      0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
      5000, 10000};
  std::array<std::uint64_t, kBoundsMs.size() + 1> counts{};  ///< per bucket
  double sum_ms = 0.0;

  void observe(double ms);
  std::uint64_t count() const;
  LatencyHistogram& operator+=(const LatencyHistogram& o);
};

/// The serving ledger. Each tenant keeps one (TenantStats); the server's
/// headline (ServerStats) is their sum, taken under one lock.
/// completed + failed always reaches submitted once drained.
struct Ledger {
  std::uint64_t submitted = 0;  ///< accepted into a tenant queue
  std::uint64_t completed = 0;
  /// Tickets answered with an exception after admission: dispatch failures
  /// that exhausted the retry budget, queue expiries (`expired`) and queued
  /// requests displaced by overload shedding or tenant eviction
  /// (`evicted`).
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;  ///< try_submit refusals (tenant queue full)
  /// Failed fast at admission, never admitted (not in submitted/failed):
  /// the deadline had already passed, or a blocking submit timed out on a
  /// full queue.
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;  ///< admitted, deadline burned in queue
  /// Dispatch retry attempts after an exception (bounded per request by
  /// ServeOptions::retry_budget); the throwing engines are quarantined.
  std::uint64_t retried = 0;
  std::uint64_t evicted = 0;  ///< queued entries displaced (in failed)
  std::uint64_t total_sim_cycles = 0;  ///< simulated cycles over completions
  /// Weight residency over completions: slice passes that skipped
  /// reprogramming vs all passes executed.
  std::uint64_t passes_warm = 0;
  std::uint64_t passes_total = 0;
  /// Every request a dispatch worker settled (completed, failed, expired);
  /// displaced entries are not observed, so count() == completed + failed
  /// - evicted.
  LatencyHistogram latency_ms;

  Ledger& operator+=(const Ledger& o);
};

/// Per-tenant SLO snapshot (ServerStats::tenants).
struct TenantStats : Ledger {
  std::string name;
  unsigned weight = 1;
  std::size_t queue_depth = 0;
  std::size_t peak_queue_depth = 0;
  unsigned inflight = 0;
  /// Queue age of the head-of-line entry at snapshot time (0 when empty) —
  /// the leading indicator of an SLO violation.
  double oldest_queued_ms = 0.0;
  /// Streaming sessions.
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t chunks_completed = 0;
  std::uint64_t chunks_failed = 0;
};

/// Completion record for a popped item (FairScheduler::on_done).
struct DoneRecord {
  bool ok = true;
  bool expired = false;  ///< failed on a burned deadline, never dispatched
  std::uint64_t cycles = 0;
  std::uint64_t passes_warm = 0;
  std::uint64_t passes_total = 0;
  double latency_ms = 0.0;
};

namespace detail {

/// Non-template half of a tenant: the SLO ledger.
/// All methods run under the owning scheduler's lock.
class TenantCore {
 public:
  explicit TenantCore(TenantConfig cfg) : cfg_(cfg) {}

  const TenantConfig& cfg() const { return cfg_; }

  // Ledger (queue-side counts are maintained by the scheduler).
  void note_submitted() { ++ledger_.submitted; }
  void note_rejected() { ++ledger_.rejected; }
  void note_shed() { ++ledger_.shed; }
  void note_retried() { ++ledger_.retried; }
  /// A queued entry displaced (quota shed / eviction): failed + evicted.
  void note_evicted() {
    ++ledger_.failed;
    ++ledger_.evicted;
  }
  /// A popped entry settled: completed or failed, and its latency observed.
  void note_done(const DoneRecord& r);
  void note_session_opened() {
    ++sessions_opened_;
    ++sessions_open_;
  }
  void note_session_closed() {
    ++sessions_closed_;
    if (sessions_open_ > 0) --sessions_open_;
  }
  /// Session-chunk sub-count (cycles and latency land through note_done
  /// like any request's).
  void note_chunk(bool success) {
    ++(success ? chunks_completed_ : chunks_failed_);
  }
  std::uint64_t sessions_open() const { return sessions_open_; }

  /// Per-tenant drain invariant: everything admitted has been answered.
  bool drained() const {
    return ledger_.completed + ledger_.failed == ledger_.submitted;
  }

  /// Counter part of the stats snapshot (queue fields are the scheduler's).
  void snapshot(TenantStats& out) const;

 private:
  TenantConfig cfg_;
  Ledger ledger_;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t sessions_closed_ = 0;
  std::uint64_t sessions_open_ = 0;
  std::uint64_t chunks_completed_ = 0;
  std::uint64_t chunks_failed_ = 0;
};

}  // namespace detail

/// Weighted-fair multi-tenant queue over opaque payloads `T`.
/// Thread-safe; after close() pushes fail and pops drain what was accepted,
/// so no admitted request is dropped on shutdown.
template <typename T>
class FairScheduler {
 public:
  /// Constructs with the default tenant registered under `default_cfg`
  /// (name kDefaultTenant).
  explicit FairScheduler(TenantConfig default_cfg) {
    default_cfg.validate();
    add_tenant_locked(kDefaultTenant, default_cfg);
  }

  /// Registers a tenant; throws ConfigError on invalid config or duplicate
  /// name (including a previously evicted tenant — names are not recycled,
  /// their ledger survives for stats).
  void register_tenant(const std::string& name, TenantConfig cfg) {
    cfg.validate();
    std::lock_guard<std::mutex> lk(m_);
    if (tenants_.count(name) != 0)
      throw ConfigError("tenant '" + name + "' already registered");
    add_tenant_locked(name, cfg);
  }

  /// Registered and not evicted.
  bool has_tenant(const std::string& name) const {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = tenants_.find(name);
    return it != tenants_.end() && !it->second->gone;
  }

  /// Never-registered vs active vs evicted (see TenantPresence).
  TenantPresence presence(const std::string& name) const {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = tenants_.find(name);
    if (it == tenants_.end()) return TenantPresence::kUnknown;
    return it->second->gone ? TenantPresence::kEvicted
                            : TenantPresence::kActive;
  }

  enum class PushStatus {
    kAccepted,
    kFull,           ///< quota exhausted with nothing sheddable (or timeout)
    kClosed,         ///< scheduler shut down
    kUnknownTenant,  ///< unregistered or evicted tenant
  };
  struct PushOutcome {
    PushStatus status = PushStatus::kClosed;
    std::vector<T> displaced; ///< same-tenant entries shed to make room
  };

  /// Admission. `block = true` waits while the tenant's quota is exhausted
  /// and nothing can be displaced — but never past `deadline` (the
  /// request's own budget; nullopt = wait forever), so a blocking submit
  /// cannot sleep longer than the request could still be useful.
  PushOutcome push(const std::string& tenant, T item,
                   std::optional<std::chrono::steady_clock::time_point>
                       deadline,
                   bool block) {
    std::unique_lock<std::mutex> lk(m_);
    PushOutcome out;
    if (closed_) {
      out.status = PushStatus::kClosed;
      return out;
    }
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end() || it->second->gone) {
      out.status = PushStatus::kUnknownTenant;
      return out;
    }
    TenantState& t = *it->second;  // map entries are never erased: stable
    for (;;) {
      if (closed_) {
        out.status = PushStatus::kClosed;
        return out;
      }
      if (t.gone) {
        out.status = PushStatus::kUnknownTenant;
        return out;
      }
      if (t.q.size() >= t.core.cfg().max_queue &&
          !displace_one_locked(t, out.displaced)) {
        if (!block) {
          t.core.note_rejected();
          out.status = PushStatus::kFull;
          return out;
        }
        // Wait for space — bounded by the request's own deadline.
        const auto has_space = [this, &t] {
          return closed_ || t.gone ||
                 t.q.size() < t.core.cfg().max_queue;
        };
        if (deadline) {
          if (!space_cv_.wait_until(lk, *deadline, has_space)) {
            out.status = PushStatus::kFull;
            return out;
          }
        } else {
          space_cv_.wait(lk, has_space);
        }
        continue;  // re-evaluate everything under the fresh state
      }
      Entry e;
      e.item = std::move(item);
      e.deadline = deadline;
      e.enqueued_at = std::chrono::steady_clock::now();
      t.q.push_back(std::move(e));
      t.core.note_submitted();
      if (t.q.size() > t.peak) t.peak = t.q.size();
      ++depth_;
      if (depth_ > peak_depth_) peak_depth_ = depth_;
      if (!t.in_ring) {
        ring_.push_back(&t);
        t.in_ring = true;
      }
      out.status = PushStatus::kAccepted;
      lk.unlock();
      item_cv_.notify_one();
      if (!out.displaced.empty()) drained_cv_.notify_all();
      return out;
    }
  }

  enum class PopStatus { kItem, kTimeout, kClosed };
  struct Popped {
    T item{};
    std::string tenant;
  };

  /// Deficit-round-robin dispatch across tenants with queued work. kTimeout
  /// returns control for housekeeping; kClosed = closed and fully drained.
  /// A popped item counts in the tenant's inflight until on_done().
  PopStatus pop_for(std::chrono::nanoseconds timeout, Popped& out) {
    std::unique_lock<std::mutex> lk(m_);
    if (!item_cv_.wait_for(lk, timeout, [this] {
          return closed_ || depth_ != 0;
        }))
      return PopStatus::kTimeout;
    TenantState* t = serve_next_locked();
    if (t == nullptr)  // woken by close() with nothing left to drain
      return closed_ ? PopStatus::kClosed : PopStatus::kTimeout;
    Entry e = std::move(t->q.front());
    t->q.pop_front();
    --depth_;
    ++t->inflight;
    if (t->q.empty()) remove_from_ring_locked(*t);
    out.item = std::move(e.item);
    out.tenant = t->name;
    lk.unlock();
    space_cv_.notify_all();
    return PopStatus::kItem;
  }

  /// Settles a popped item on its tenant's ledger (releasing its inflight
  /// count) and wakes wait_drained().
  void on_done(const std::string& tenant, const DoneRecord& r) {
    {
      std::lock_guard<std::mutex> lk(m_);
      TenantState* t = find_locked(tenant);
      if (t == nullptr) return;
      if (t->inflight > 0) --t->inflight;
      t->core.note_done(r);
    }
    drained_cv_.notify_all();
  }

  // Ledger passthroughs (events the scheduler doesn't see itself).
  void note_shed(const std::string& tenant) {
    std::lock_guard<std::mutex> lk(m_);
    if (TenantState* t = find_locked(tenant)) t->core.note_shed();
  }
  void note_retried(const std::string& tenant) {
    std::lock_guard<std::mutex> lk(m_);
    if (TenantState* t = find_locked(tenant)) t->core.note_retried();
  }
  /// Atomically checks the tenant's session quota and, if there is room,
  /// notes the session open. False when the quota is exhausted or the
  /// tenant is unknown/evicted (the caller distinguishes via has_tenant).
  bool try_open_session(const std::string& tenant) {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end() || it->second->gone) return false;
    detail::TenantCore& core = it->second->core;
    if (core.sessions_open() >= core.cfg().max_sessions) return false;
    core.note_session_opened();
    return true;
  }
  void note_session_closed(const std::string& tenant) {
    std::lock_guard<std::mutex> lk(m_);
    if (TenantState* t = find_locked(tenant)) t->core.note_session_closed();
  }
  void note_chunk(const std::string& tenant, bool success) {
    std::lock_guard<std::mutex> lk(m_);
    if (TenantState* t = find_locked(tenant)) t->core.note_chunk(success);
  }
  /// Open-session count (session-quota checks) — 0 for unknown tenants.
  std::uint64_t sessions_open(const std::string& tenant) const {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second->core.sessions_open();
  }

  /// Evicts a tenant: purges and returns its queued entries (the caller
  /// fails their tickets; each is counted failed+evicted here), and marks
  /// the name gone — subsequent pushes see kUnknownTenant. The ledger
  /// survives for stats().
  std::vector<T> evict(const std::string& tenant) {
    std::vector<T> purged;
    std::unique_lock<std::mutex> lk(m_);
    TenantState* t = find_locked(tenant);
    if (t == nullptr) return purged;
    for (Entry& e : t->q) {
      purged.push_back(std::move(e.item));
      t->core.note_evicted();
      --depth_;
    }
    t->q.clear();
    remove_from_ring_locked(*t);
    t->gone = true;
    lk.unlock();
    space_cv_.notify_all();
    drained_cv_.notify_all();
    return purged;
  }

  /// Stops admission: later pushes fail, pops keep draining what was
  /// accepted and report kClosed once it is empty.
  void close() {
    {
      std::lock_guard<std::mutex> lk(m_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  std::size_t peak_depth() const {
    std::lock_guard<std::mutex> lk(m_);
    return peak_depth_;
  }

  /// Every tenant's drain invariant holds (nothing admitted is unanswered).
  bool drained() const {
    std::lock_guard<std::mutex> lk(m_);
    return drained_locked();
  }

  /// Blocks until drained() holds. Woken wherever completed/failed move:
  /// on_done, eviction and displacement.
  void wait_drained() {
    std::unique_lock<std::mutex> lk(m_);
    drained_cv_.wait(lk, [this] { return drained_locked(); });
  }

  /// Snapshot of every tenant's ledger (evicted tenants included), ordered
  /// by name.
  std::vector<TenantStats> stats() const {
    std::vector<TenantStats> out;
    std::lock_guard<std::mutex> lk(m_);
    out.reserve(tenants_.size());
    for (const auto& [name, t] : tenants_) {
      TenantStats s;
      s.name = name;
      s.weight = t->core.cfg().weight;
      t->core.snapshot(s);
      s.queue_depth = t->q.size();
      s.peak_queue_depth = t->peak;
      s.inflight = t->inflight;
      if (!t->q.empty())
        s.oldest_queued_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t->q.front().enqueued_at)
                .count();
      out.push_back(std::move(s));
    }
    return out;
  }

 private:
  struct Entry {
    T item{};
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  struct TenantState {
    TenantState(std::string n, TenantConfig cfg)
        : name(std::move(n)), core(cfg) {}
    std::string name;
    detail::TenantCore core;
    std::deque<Entry> q;
    std::size_t peak = 0;
    unsigned inflight = 0;
    unsigned deficit = 0;  ///< pops left in the current DRR quantum
    bool in_ring = false;
    bool gone = false;  ///< evicted; ledger kept, admission refused
  };

  void add_tenant_locked(const std::string& name, const TenantConfig& cfg) {
    tenants_.emplace(name, std::make_unique<TenantState>(name, cfg));
  }

  bool drained_locked() const {
    for (const auto& [name, t] : tenants_)
      if (!t->core.drained()) return false;
    return true;
  }

  TenantState* find_locked(const std::string& name) {
    const auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : it->second.get();
  }

  /// DRR: serve the front tenant until its quantum (weight) is spent, then
  /// rotate. Empty tenants leave the ring (deficit dropped — re-activation
  /// starts a fresh round at the back).
  TenantState* serve_next_locked() {
    while (!ring_.empty()) {
      TenantState* t = ring_.front();
      if (t->q.empty()) {
        remove_from_ring_locked(*t);
        continue;
      }
      if (t->deficit == 0) t->deficit = t->core.cfg().weight;
      --t->deficit;
      if (t->deficit == 0) {
        ring_.pop_front();
        ring_.push_back(t);
      }
      return t;
    }
    return nullptr;
  }

  void remove_from_ring_locked(TenantState& t) {
    if (!t.in_ring) return;
    for (auto it = ring_.begin(); it != ring_.end(); ++it)
      if (*it == &t) {
        ring_.erase(it);
        break;
      }
    t.in_ring = false;
    t.deficit = 0;
  }

  /// Quota shedding: displace the oldest of `t`'s own queued entries past
  /// its deadline to admit an incoming push. Returns whether a slot was
  /// freed.
  bool displace_one_locked(TenantState& t, std::vector<T>& displaced) {
    const auto now = std::chrono::steady_clock::now();
    // Deque order is age order: the first expired entry is the oldest.
    const auto victim =
        std::find_if(t.q.begin(), t.q.end(), [now](const Entry& e) {
          return e.deadline && now >= *e.deadline;
        });
    if (victim == t.q.end()) return false;
    displaced.push_back(std::move(victim->item));
    t.q.erase(victim);
    t.core.note_evicted();
    --depth_;
    return true;
  }

  mutable std::mutex m_;
  std::condition_variable item_cv_;
  std::condition_variable space_cv_;
  std::condition_variable drained_cv_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::deque<TenantState*> ring_;  ///< DRR rotation over active tenants
  std::size_t depth_ = 0;          ///< queued entries across all tenants
  std::size_t peak_depth_ = 0;
  bool closed_ = false;
};

}  // namespace sne::serve
