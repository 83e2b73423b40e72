#include "ecnn/engine_pool.h"

#include <algorithm>
#include <iterator>

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
    push_free(entries_.back().get());
  }
}

void EnginePool::push_free(Entry* e) {
  e->is_free = true;
  e->free_seq = ++free_epoch_;
  const FreeRef ref{e, e->free_seq};
  free_by_tag_[e->model_tag].push_back(ref);
  free_any_.push_back(ref);
  ++free_count_;
}

EnginePool::Entry* EnginePool::pop_valid(std::vector<FreeRef>& stack) {
  while (!stack.empty()) {
    const FreeRef r = stack.back();
    stack.pop_back();
    if (r.e->is_free && r.e->free_seq == r.seq) {
      r.e->is_free = false;  // claims the entry; sibling records go stale
      return r.e;
    }
  }
  return nullptr;
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
    if (free_count_ > 0) {
      // Affinity pick (newest first: recently released engines are the
      // likeliest to still hold hot weights): same model tag beats a
      // never-tagged engine beats evicting another model's residency.
      // Each preference level is a direct bucket pop instead of the old
      // whole-free-list scan.
      Entry* e = nullptr;
      if (model_tag != 0) {
        if (const auto it = free_by_tag_.find(model_tag);
            it != free_by_tag_.end()) {
          e = pop_valid(it->second);
          if (it->second.empty()) free_by_tag_.erase(it);
          if (e) ++warm_leases_;
        }
        if (!e) {
          if (const auto it = free_by_tag_.find(0); it != free_by_tag_.end()) {
            e = pop_valid(it->second);
            if (it->second.empty()) free_by_tag_.erase(it);
          }
        }
      }
      if (!e) e = pop_valid(free_any_);
      SNE_ASSERT(e != nullptr);  // free_count_ > 0 guarantees a valid record
      --free_count_;
      ++leases_;
      return e;
    }
    if (opts_.max_engines == 0 ||
        entries_.size() + building_ < opts_.max_engines) {
      // Construct outside the lock: the multi-MB memory-model clear must not
      // serialize concurrent first-touch acquires.
      ++building_;
      lk.unlock();
      std::unique_ptr<Entry> entry;
      try {
        entry = build_entry();
      } catch (...) {
        // Give the capacity slot back, or a capped pool would deadlock every
        // later acquire on a construction that will never finish.
        lk.lock();
        --building_;
        cv_.notify_one();
        throw;
      }
      lk.lock();
      --building_;
      entries_.push_back(std::move(entry));
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
    push_free(entry);
  }
  cv_.notify_one();
}

void EnginePool::discard_entry(Entry* entry) {
  // Destroy outside the lock (a multi-MB memory model dies with the engine)
  // but unlink and free the capacity slot under it, so a blocked acquire can
  // start constructing the replacement immediately.
  std::unique_ptr<Entry> doomed;
  {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [entry](const std::unique_ptr<Entry>& e) { return e.get() == entry; });
    SNE_ASSERT(it != entries_.end());
    // Purge every index record naming the doomed entry: a discarded entry is
    // always leased (never free), but *stale* records from its earlier free
    // periods may still sit in the stacks, and lazy validation dereferences
    // the entry pointer — which must not dangle.
    const auto drop_refs = [entry](std::vector<FreeRef>& v) {
      v.erase(std::remove_if(v.begin(), v.end(),
                             [entry](const FreeRef& r) { return r.e == entry; }),
              v.end());
    };
    drop_refs(free_any_);
    for (auto bt = free_by_tag_.begin(); bt != free_by_tag_.end();) {
      drop_refs(bt->second);
      bt = bt->second.empty() ? free_by_tag_.erase(bt) : std::next(bt);
    }
    doomed = std::move(*it);
    entries_.erase(it);
    ++quarantined_;
    ++discarded_;
  }
  cv_.notify_one();
}

EnginePool::Stats EnginePool::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  return Stats{entries_.size() + building_ + discarded_, leases_, warm_leases_,
               quarantined_, discarded_};
}

}  // namespace sne::ecnn
