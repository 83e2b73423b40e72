// The serving ledger's one invariant, shared by the serving suites: the
// ServerStats headline is the sum of the tenant ledgers in every snapshot,
// mid-flight included, and every tenant's latency histogram counts exactly
// the requests a dispatch worker settled.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "serve/server.h"

namespace sne::testutil {

/// Checks every headline field and every latency bucket of `st` against a
/// field-by-field sum over `st.tenants` (evicted tenants included), written
/// out here rather than through Ledger::operator+= so a field the operator
/// forgets shows.
inline void expect_headline_is_tenant_sum(const serve::ServerStats& st) {
  using serve::TenantStats;
  const auto sum = [&st](auto field) {
    std::uint64_t n = 0;
    for (const TenantStats& t : st.tenants) n += t.*field;
    return n;
  };
  EXPECT_EQ(st.submitted, sum(&TenantStats::submitted));
  EXPECT_EQ(st.completed, sum(&TenantStats::completed));
  EXPECT_EQ(st.failed, sum(&TenantStats::failed));
  EXPECT_EQ(st.rejected, sum(&TenantStats::rejected));
  EXPECT_EQ(st.shed, sum(&TenantStats::shed));
  EXPECT_EQ(st.expired, sum(&TenantStats::expired));
  EXPECT_EQ(st.retried, sum(&TenantStats::retried));
  EXPECT_EQ(st.evicted, sum(&TenantStats::evicted));
  EXPECT_EQ(st.total_sim_cycles, sum(&TenantStats::total_sim_cycles));
  EXPECT_EQ(st.passes_warm, sum(&TenantStats::passes_warm));
  EXPECT_EQ(st.passes_total, sum(&TenantStats::passes_total));
  EXPECT_EQ(st.queue_depth, sum(&TenantStats::queue_depth));
  EXPECT_GE(st.peak_queue_depth, st.queue_depth);

  const auto& bounds = serve::LatencyHistogram::kBoundsMs;
  for (std::size_t b = 0; b <= bounds.size(); ++b) {
    std::uint64_t n = 0;
    for (const TenantStats& t : st.tenants) n += t.latency_ms.counts[b];
    EXPECT_EQ(st.latency_ms.counts[b], n) << "bucket " << b;
  }
  double sum_ms = 0.0;
  for (const TenantStats& t : st.tenants) {
    sum_ms += t.latency_ms.sum_ms;
    // Displaced entries are answered without a worker, so never observed.
    EXPECT_EQ(t.latency_ms.count() + t.evicted, t.completed + t.failed)
        << t.name;
  }
  EXPECT_DOUBLE_EQ(st.latency_ms.sum_ms, sum_ms);
}

}  // namespace sne::testutil
