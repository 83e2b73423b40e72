#include "serve/scheduler.h"

#include "obs/metrics.h"

namespace sne::serve {

void TenantConfig::validate() const {
  if (weight == 0)
    throw ConfigError("tenant weight must be >= 1 (a zero-weight tenant "
                      "would never be served)");
  if (max_queue == 0)
    throw ConfigError("tenant max_queue must be >= 1");
  if (max_sessions == 0)
    throw ConfigError("tenant max_sessions must be >= 1");
}

void LatencyHistogram::observe(double ms) {
  ++counts[obs::bucket_index(kBoundsMs, ms)];
  sum_ms += ms;
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

LatencyHistogram& LatencyHistogram::operator+=(const LatencyHistogram& o) {
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
  sum_ms += o.sum_ms;
  return *this;
}

Ledger& Ledger::operator+=(const Ledger& o) {
  submitted += o.submitted;
  completed += o.completed;
  failed += o.failed;
  rejected += o.rejected;
  shed += o.shed;
  expired += o.expired;
  retried += o.retried;
  evicted += o.evicted;
  total_sim_cycles += o.total_sim_cycles;
  passes_warm += o.passes_warm;
  passes_total += o.passes_total;
  latency_ms += o.latency_ms;
  return *this;
}

namespace detail {

void TenantCore::note_done(const DoneRecord& r) {
  if (r.ok) {
    ++ledger_.completed;
    ledger_.total_sim_cycles += r.cycles;
    ledger_.passes_warm += r.passes_warm;
    ledger_.passes_total += r.passes_total;
  } else {
    ++ledger_.failed;
    if (r.expired) ++ledger_.expired;
  }
  ledger_.latency_ms.observe(r.latency_ms);
}

void TenantCore::snapshot(TenantStats& out) const {
  static_cast<Ledger&>(out) = ledger_;
  out.sessions_opened = sessions_opened_;
  out.sessions_closed = sessions_closed_;
  out.chunks_completed = chunks_completed_;
  out.chunks_failed = chunks_failed_;
}

}  // namespace detail

}  // namespace sne::serve
