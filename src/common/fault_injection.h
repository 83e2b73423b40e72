// Deterministic, seed-driven fault injection for the serving stack.
//
// Production hardening needs failures on demand: the chaos suite
// (tests/test_faults.cpp) arms the process-wide injector with a seed plus a
// set of per-site rules, drives the serve stack, and every "what if this
// throws" path executes for real. Sites are string-named registration
// points compiled into the code under test:
//
//   serve.checkpoint.read    load_model entry (torn/unreadable checkpoint)
//   serve.checkpoint.write   save_model, between temp write and rename
//   ecnn.pool.acquire        EnginePool::acquire (lease construction fails)
//   ecnn.pool.release        EnginePool lease release (reset fails; the pool
//                            quarantines the engine instead of throwing)
//   ecnn.runner.program      NetworkRunner weight programming (mid-request)
//   serve.server.admit       InferenceServer submit/try_submit, after the
//                            request is built but before any counting or
//                            queuing (a crash in the front door itself)
//   serve.server.dispatch    InferenceServer worker, before the engine run
//   serve.session.chunk      StreamingSession chunk dispatch, before the
//                            engine run (fails the in-flight chunk; the
//                            next chunk restores the snapshot and the
//                            session continues)
//   net.accept               GatewayServer accept, after the kernel accept
//                            (the new connection is torn down immediately)
//   net.conn.read            gateway connection read (a torn read fails
//                            exactly that connection)
//   net.conn.write           gateway connection write (a torn response; the
//                            server-side request still completes and counts)
//
// A disarmed injector costs one relaxed atomic load per site hit — the
// serving fast path never takes a lock or hashes anything unless a chaos
// test armed it (BM_ServeThroughput's warm-pooled mode budgets the
// compiled-in-but-disabled overhead at <= 2%).
//
// Determinism: each site keeps a hit counter, and rule decisions depend
// only on (seed, site, hit index) — either an explicit list of 1-based hit
// indices, or an FNV-1a hash of (seed, site, index) mapped to [0,1) and
// compared against the rule's probability. Which *request* observes the
// k-th hit of a site can vary with thread interleaving, but the set of
// fired hits cannot — and the serve stack's retry/quarantine contract makes
// the injected failure invisible to results either way, so the chaos suite
// is reproducible from the seed alone.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.h"

namespace sne::faults {

/// Thrown by an armed registration point. Distinct from ConfigError /
/// ContractViolation so chaos tests can tell an injected failure from a
/// genuine bug surfacing under fault load.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

struct FaultRule {
  std::string site;                 ///< exact site name (see header comment)
  std::vector<std::uint64_t> hits;  ///< 1-based hit indices that fire
  double probability = 0.0;  ///< seeded per-hit coin (0 = explicit hits only)
  /// 0 = the fired hit throws FaultError; > 0 = it stalls this many
  /// milliseconds instead (a slow component, not a dead one: requests
  /// queued behind it can outlive their deadlines).
  double stall_ms = 0.0;
};

struct FaultConfig {
  std::uint64_t seed = 1;
  std::vector<FaultRule> rules;
};

class FaultInjector {
 public:
  static FaultInjector& instance() {
    static FaultInjector fi;
    return fi;
  }

  /// Arms the injector (resetting every site counter); sites start firing
  /// per `cfg` immediately, on every thread.
  void arm(FaultConfig cfg) {
    std::lock_guard<std::mutex> lk(m_);
    cfg_ = std::move(cfg);
    sites_.clear();
    armed_.store(true, std::memory_order_release);
  }

  /// Stops all firing. Site hit/fired statistics survive until the next
  /// arm() so tests can assert on them after the run.
  void disarm() {
    std::lock_guard<std::mutex> lk(m_);
    armed_.store(false, std::memory_order_release);
    cfg_ = {};
  }

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  enum class Action { kNone, kThrow, kStall };
  struct Decision {
    Action action = Action::kNone;
    double stall_ms = 0.0;
    std::uint64_t hit = 0;  ///< this hit's 1-based index at the site
  };

  /// Counts one hit of `site` and decides whether a rule fires for it.
  Decision hit(const char* site) {
    std::lock_guard<std::mutex> lk(m_);
    // Re-check under the lock: a disarm may have raced the caller's fast
    // path, and firing from a half-cleared config would be nondeterministic.
    if (!armed_.load(std::memory_order_relaxed)) return {};
    SiteState& st = sites_[site];
    const std::uint64_t n = ++st.hits;
    for (const FaultRule& r : cfg_.rules) {
      if (r.site != site) continue;
      bool fire =
          std::find(r.hits.begin(), r.hits.end(), n) != r.hits.end();
      if (!fire && r.probability > 0.0)
        fire = coin(cfg_.seed, site, n) < r.probability;
      if (!fire) continue;
      ++st.fired;
      return Decision{r.stall_ms > 0.0 ? Action::kStall : Action::kThrow,
                      r.stall_ms, n};
    }
    return Decision{Action::kNone, 0.0, n};
  }

  /// Hits observed / rules fired at `site` since the last arm().
  std::uint64_t hits_seen(const std::string& site) const {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.hits;
  }
  std::uint64_t fired(const std::string& site) const {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.fired;
  }

  /// Snapshot of every site touched since the last arm(), in name order —
  /// the metrics adapter (obs/adapters.h) publishes these as per-site
  /// counter series.
  struct SiteStats {
    std::string site;
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };
  std::vector<SiteStats> site_stats() const {
    std::lock_guard<std::mutex> lk(m_);
    std::vector<SiteStats> out;
    out.reserve(sites_.size());
    for (const auto& [site, st] : sites_)
      out.push_back(SiteStats{site, st.hits, st.fired});
    return out;
  }

  /// The seeded per-hit coin in [0, 1): pure function of its arguments, so
  /// a fired hit set reproduces from the seed alone.
  static double coin(std::uint64_t seed, const char* site, std::uint64_t n) {
    std::uint64_t h = fnv64_step(kFnv64Basis, seed);
    for (const char* p = site; *p != '\0'; ++p)
      h = fnv64_step(h, static_cast<unsigned char>(*p));
    h = fnv64_step(h, n);
    // FNV alone barely moves the top bits when only `n`'s low bits change
    // (one 41-bit-prime multiply doesn't carry that far), and the coin is
    // exactly those top 53 bits — finish with a murmur3-style avalanche so
    // consecutive hit indices draw independent-looking values.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

 private:
  struct SiteState {
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex m_;
  FaultConfig cfg_;
  std::map<std::string, SiteState> sites_;
};

/// Non-throwing registration point for noexcept paths (lease release):
/// returns whether a throw-rule fired; stall rules stall here too.
inline bool fires(const char* site) {
  FaultInjector& fi = FaultInjector::instance();
  if (!fi.armed()) return false;
  const FaultInjector::Decision d = fi.hit(site);
  if (d.action == FaultInjector::Action::kStall) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        d.stall_ms));
    return false;
  }
  return d.action == FaultInjector::Action::kThrow;
}

/// Registration point: throws FaultError (or stalls) when an armed rule
/// fires for this hit of `site`. Disarmed cost: one atomic load.
inline void check(const char* site) {
  if (fires(site))
    throw FaultError(std::string("injected fault at ") + site);
}

/// RAII arm/disarm for tests and benches — the injector is process-global,
/// so scoping keeps chaos confined to the suite that asked for it.
class ScopedFaults {
 public:
  explicit ScopedFaults(FaultConfig cfg) {
    FaultInjector::instance().arm(std::move(cfg));
  }
  ~ScopedFaults() { FaultInjector::instance().disarm(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace sne::faults
