#include "serve/scheduler.h"

#include <algorithm>

#include "common/fnv.h"

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

namespace detail {

namespace {

/// splitmix64 step: the reservoir's index draw (one step per completion;
/// deterministic per tenant, independent of thread interleaving given the
/// same completion count).
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Nearest-rank percentile of an ascending-sorted sample (the server's
/// convention).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

}  // namespace

TenantCore::TenantCore(std::string name, TenantConfig cfg)
    : name_(std::move(name)), cfg_(cfg) {
  // Seed the reservoir stream from the tenant name so sampling is a pure
  // function of (tenant, completion index).
  std::uint64_t h = kFnv64Basis;
  for (const char c : name_) h = fnv64_step(h, static_cast<unsigned char>(c));
  latency_rng_ = h;
}

void TenantCore::note_completed(std::uint64_t cycles, double latency_ms) {
  ++completed_;
  total_sim_cycles_ += cycles;
  ++latency_seen_;
  if (latencies_ms_.size() < kReservoir) {
    latencies_ms_.push_back(latency_ms);
  } else {
    const std::uint64_t j = splitmix64(latency_rng_) % latency_seen_;
    if (j < kReservoir) latencies_ms_[j] = latency_ms;
  }
}

void TenantCore::note_failed(bool expired, double latency_ms) {
  ++failed_;
  if (expired) ++expired_;
  ++latency_seen_;
  if (latencies_ms_.size() < kReservoir) {
    latencies_ms_.push_back(latency_ms);
  } else {
    const std::uint64_t j = splitmix64(latency_rng_) % latency_seen_;
    if (j < kReservoir) latencies_ms_[j] = latency_ms;
  }
}

void TenantCore::snapshot(TenantStats& out) const {
  out.submitted = submitted_;
  out.completed = completed_;
  out.failed = failed_;
  out.rejected = rejected_;
  out.shed = shed_;
  out.expired = expired_;
  out.retried = retried_;
  out.evicted = evicted_;
  out.total_sim_cycles = total_sim_cycles_;
  out.sessions_opened = sessions_opened_;
  out.sessions_closed = sessions_closed_;
  out.chunks_completed = chunks_completed_;
  out.chunks_failed = chunks_failed_;
  if (!latencies_ms_.empty()) {
    std::vector<double> lat = latencies_ms_;
    std::sort(lat.begin(), lat.end());
    double sum = 0.0;
    for (const double v : lat) sum += v;
    out.latency_ms_mean = sum / static_cast<double>(lat.size());
    out.latency_ms_p50 = percentile(lat, 0.50);
    out.latency_ms_p90 = percentile(lat, 0.90);
    out.latency_ms_p99 = percentile(lat, 0.99);
  }
}

}  // namespace detail

}  // namespace sne::serve
