#include "ecnn/engine_pool.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/fault_injection.h"

namespace sne::ecnn {

EnginePool::EnginePool(core::SneConfig hw, unsigned warm_engines,
                       EnginePoolOptions opts)
    : hw_(hw), opts_(opts) {
  hw_.validate();
  if (opts_.max_engines > 0 && warm_engines > opts_.max_engines)
    throw ConfigError("warm_engines exceeds the engine-pool cap");
  for (unsigned i = 0; i < warm_engines; ++i) {
    entries_.push_back(build_entry());
    mark_free(*entries_.back());
  }
}

void EnginePool::mark_free(Entry& e) {
  e.is_free = true;
  e.free_seq = ++free_epoch_;
}

std::unique_ptr<EnginePool::Entry> EnginePool::build_entry() const {
  auto entry = std::make_unique<Entry>();
  entry->engine = std::make_unique<core::SneEngine>(hw_, opts_.memory_words,
                                                    opts_.mem_timing);
  entry->runner = std::make_unique<ecnn::NetworkRunner>(
      *entry->engine, opts_.use_wload_stream);
  return entry;
}

EnginePool::Entry* EnginePool::acquire_entry(std::uint64_t model_tag) {
  faults::check("ecnn.pool.acquire");
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    // Affinity pick in one scan, newest release first (recently released
    // engines are the likeliest to still hold hot weights): same model tag
    // beats a never-tagged engine beats evicting another model's residency.
    // An untagged acquire takes the newest free engine. Pools hold one
    // engine per worker or lane, so the scan is short.
    Entry* same = nullptr;
    Entry* blank = nullptr;
    Entry* any = nullptr;
    const auto newer = [](Entry* best, Entry* e) {
      return best == nullptr || e->free_seq > best->free_seq;
    };
    for (const auto& up : entries_) {
      Entry* e = up.get();
      if (!e->is_free) continue;
      if (newer(any, e)) any = e;
      if (model_tag == 0) continue;
      if (e->model_tag == model_tag && newer(same, e)) same = e;
      if (e->model_tag == 0 && newer(blank, e)) blank = e;
    }
    Entry* e = same ? same : blank ? blank : any;
    if (e) {
      if (e == same) ++warm_leases_;
      e->is_free = false;
      ++leases_;
      return e;
    }
    if (opts_.max_engines == 0 || entries_.size() < opts_.max_engines) {
      // Building an engine is cheap next to a request, so it happens under
      // the lock: a throwing build leaves the pool as it was.
      entries_.push_back(build_entry());
      ++leases_;
      return entries_.back().get();
    }
    cv_.wait(lk);
  }
}

void EnginePool::release_entry(Entry* entry, std::uint64_t model_tag,
                               bool poisoned) {
  // A release-time fault means the reset itself cannot be trusted; the
  // destructor path must not throw, so the engine is quarantined exactly
  // like a poisoned lease instead.
  if (faults::fires("ecnn.pool.release")) poisoned = true;
  if (poisoned) {
    discard_entry(entry);
    return;
  }
  // Reset on release (not on acquire): the lease boundary is where the
  // request's state stops being interesting, and the next acquire starts on
  // an engine already indistinguishable from new. The weight-resident mode
  // keeps the slice programming (and its residency tags) across the reset;
  // the full reset is the A/B baseline that scrubs it.
  if (opts_.weight_resident)
    entry->engine->reset_machine_state();
  else
    entry->engine->reset();
  {
    std::lock_guard<std::mutex> lk(m_);
    entry->model_tag = opts_.weight_resident ? model_tag : 0;
    mark_free(*entry);
  }
  cv_.notify_one();
}

void EnginePool::discard_entry(Entry* entry) {
  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [entry](const std::unique_ptr<Entry>& e) { return e.get() == entry; });
    SNE_ASSERT(it != entries_.end());
    entries_.erase(it);  // destroys the engine and frees its capacity slot
    ++quarantined_;
    ++discarded_;
  }
  cv_.notify_one();
}

EnginePool::Stats EnginePool::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return Stats{entries_.size() + discarded_, leases_, warm_leases_,
               quarantined_, discarded_};
}

}  // namespace sne::ecnn
