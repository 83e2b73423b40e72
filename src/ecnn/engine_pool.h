// EnginePool: resident, reusable cycle-accurate engines for serving and
// batched simulation.
//
// The pool keeps engines (plus their NetworkRunner front-ends) alive across
// requests and hands them out as RAII leases, so a same-model lease finds
// the model's weights still resident (below). On release the engine is
// machine-reset — restoring the freshly-constructed machine state — so a
// leased engine produces bitwise-identical results to a brand-new one for
// cold runs (test_serve pins this for any lease interleaving).
//
// Weight residency: by default the release path keeps each engine's slice
// programming (configuration + weight stores + residency tags) resident,
// and acquire() takes an optional model tag so same-model leases land on an
// engine that already holds the model's weights — the warm run then skips
// the whole WLOAD phase (ecnn::NetworkRunner's warm mode; the per-slice
// residency tags guarantee correctness even when the affinity guess is
// wrong). Cold runs reprogram every pass and cannot observe the difference.
//
// The pool grows on demand up to `max_engines` (0 = unbounded); building an
// engine takes tens of microseconds, so it happens under the pool lock.
// Pools hold one engine per dispatch worker or lane, so acquire() picks a
// free engine by one scan over them. There is one lease kind: a
// streaming session leases an engine per chunk like any one-shot request
// and restores its neuron-state snapshot onto it (serve/session.h).
//
// Quarantine: a lease that observed an exception mid-request calls
// poison() — the release path then *discards* the engine (destroying it and
// freeing its capacity slot) instead of resetting it back into the free
// list, so an engine whose machine state an exception left in doubt can
// never serve a later request. The next acquire constructs a replacement;
// since fresh engines are bitwise indistinguishable from reset ones, the
// swap is invisible to results. Release-time faults (faults::fires on
// "ecnn.pool.release") quarantine the same way rather than throwing out of
// the lease destructor.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "ecnn/runner.h"
#include "hwsim/memory.h"
#include "obs/trace.h"

namespace sne::ecnn {

struct EnginePoolOptions {
  /// Per-engine memory capacity (see core::SneEngine).
  std::size_t memory_words = core::SneEngine::kDefaultMemoryWords;
  hwsim::MemoryTiming mem_timing{};       ///< per-engine memory timing
  bool use_wload_stream = false;          ///< see ecnn::NetworkRunner
  /// Cap on leases out at once (acquire() blocks when that many are out and
  /// no engine is free). 0 = no cap.
  unsigned max_engines = 0;
  /// Release leases with reset_machine_state() (keep slice programming
  /// resident) instead of a full reset(). Cold runs are bitwise unaffected
  /// either way; warm runs need this on to ever hit residency.
  bool weight_resident = true;
};

class EnginePool {
  struct Entry {
    std::unique_ptr<core::SneEngine> engine;
    std::unique_ptr<ecnn::NetworkRunner> runner;
    /// Model tag of the last tagged lease served on this engine (0 = none):
    /// the acquire-time affinity hint. Correctness never depends on it —
    /// the engine's per-slice residency tags are the ground truth.
    std::uint64_t model_tag = 0;
    /// Guarded by the pool mutex: whether the entry is free, and the epoch
    /// of its latest release (a higher epoch is a newer release).
    bool is_free = false;
    std::uint64_t free_seq = 0;
  };

 public:
  /// `warm_engines` are constructed eagerly (a server fronting traffic pays
  /// construction at startup, not on the first requests).
  EnginePool(core::SneConfig hw, unsigned warm_engines,
             EnginePoolOptions opts = {});

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// Exclusive hold of one pooled engine; releases (and machine-resets) on
  /// destruction.
  class Lease {
   public:
    Lease(Lease&& o) noexcept
        : pool_(o.pool_),
          entry_(o.entry_),
          model_tag_(o.model_tag_),
          poisoned_(o.poisoned_) {
      o.pool_ = nullptr;
      o.entry_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_) pool_->release_entry(entry_, model_tag_, poisoned_);
    }

    core::SneEngine& engine() { return *entry_->engine; }
    ecnn::NetworkRunner& runner() { return *entry_->runner; }

    /// Marks the engine unfit for further leases: an exception interrupted
    /// its request and nothing certifies its state. On release the pool
    /// discards and replaces it instead of resetting it (see the quarantine
    /// note above).
    void poison() { poisoned_ = true; }

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, Entry* entry, std::uint64_t model_tag)
        : pool_(pool), entry_(entry), model_tag_(model_tag) {}
    EnginePool* pool_;
    Entry* entry_;
    std::uint64_t model_tag_;
    bool poisoned_ = false;
  };

  /// Blocks until an engine is free (or can be built under the cap).
  /// `model_tag` (e.g. ecnn::model_fingerprint of the model about to run;
  /// 0 = no affinity) steers the lease onto a free engine that last served
  /// the same model, preferring in order: same tag, never-tagged, any —
  /// so one hot model does not evict another's resident weights when a
  /// blank engine is available. Within each level the most recently
  /// released engine wins; an untagged acquire takes the most recently
  /// released free engine.
  Lease acquire(std::uint64_t model_tag = 0) {
    obs::ScopedSpan span("ecnn.pool.lease", model_tag);
    return Lease(this, acquire_entry(model_tag), model_tag);
  }

  struct Stats {
    std::uint64_t constructed = 0;  ///< engines built over the pool lifetime
    std::uint64_t leases = 0;       ///< acquire() calls served
    std::uint64_t warm_leases = 0;  ///< leases landing on a same-tag engine
    std::uint64_t quarantined = 0;  ///< leases released poisoned
    std::uint64_t discarded = 0;    ///< engines destroyed instead of reused
  };
  Stats stats() const;

  const core::SneConfig& hw() const { return hw_; }

 private:
  Entry* acquire_entry(std::uint64_t model_tag);
  void release_entry(Entry* entry, std::uint64_t model_tag, bool poisoned);
  void discard_entry(Entry* entry);
  std::unique_ptr<Entry> build_entry() const;
  /// Marks `e` free as the newest release (pool mutex held by the caller).
  void mark_free(Entry& e);

  core::SneConfig hw_;
  EnginePoolOptions opts_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< stable addresses
  std::uint64_t free_epoch_ = 0;  ///< release epochs handed out so far
  std::uint64_t leases_ = 0;
  std::uint64_t warm_leases_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t discarded_ = 0;
};

}  // namespace sne::ecnn
