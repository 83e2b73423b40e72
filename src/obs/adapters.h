// Metrics adapters: publish the stack's existing stats structs into a
// MetricsRegistry as Prometheus-convention families.
//
// The registry deliberately has no sites inside the simulator or the
// serving hot paths — these adapters mirror the ad-hoc snapshot structs
// (ServerStats + its per-tenant breakdown, EnginePool::Stats, FaultInjector
// site stats, ActivityCounters, RunProfile) into registry series at scrape
// time, so exporting costs nothing until someone actually scrapes. Each
// publisher is idempotent: counters and histograms are republished absolute
// (Counter::set, Histogram::set: the sources are already cumulative
// snapshots), gauges overwritten, so calling again with a fresher snapshot
// just updates the same series.
//
// Family naming: sne_server_* / sne_tenant_*{tenant=...} / sne_pool_* /
// sne_fault_site_*{site=...} / sne_activity_* / sne_profile_*. Pass `base`
// labels to distinguish several servers or runs in one registry.
#pragma once

#include "common/fault_injection.h"
#include "ecnn/engine_pool.h"
#include "hwsim/counters.h"
#include "net/gateway.h"
#include "obs/metrics.h"
#include "obs/run_profile.h"
#include "serve/server.h"

namespace sne::obs {

/// ServerStats (headline + engine-pool roll-up) as sne_server_*, plus one
/// sne_tenant_* series set per tenant (the default tenant's empty name
/// exports as tenant="default"). Latency is the Prometheus histogram
/// sne_{server,tenant}_latency_ms (_bucket{le=...}, _sum, _count; the mean
/// is _sum/_count), and the server's series are the tenants' sums.
void publish_server_stats(MetricsRegistry& reg, const serve::ServerStats& s,
                          const Labels& base = {});

/// EnginePool::Stats as sne_pool_*.
void publish_pool_stats(MetricsRegistry& reg, const ecnn::EnginePool::Stats& s,
                        const Labels& base = {});

/// FaultInjector per-site hit/fired counters as
/// sne_fault_site_{hits,fired}_total{site=...}. Reads the process-global
/// injector; sites survive disarm, so post-chaos scrapes still see them.
void publish_fault_stats(MetricsRegistry& reg, const Labels& base = {});

/// ActivityCounters roll-up as sne_activity_*_total (the energy signal).
void publish_activity_counters(MetricsRegistry& reg,
                               const hwsim::ActivityCounters& c,
                               const Labels& base = {});

/// GatewayStats as sne_gateway_*: connection lifecycle (accepted / open /
/// peak / cap rejections), HTTP responses by status class
/// (sne_gateway_responses_total{class="2xx"...}), bytes in/out, torn
/// reads/writes and timeout reaps, and session lifecycle counters. The
/// gateway's /metrics handler publishes this at scrape time.
void publish_gateway_stats(MetricsRegistry& reg, const net::GatewayStats& s,
                           const Labels& base = {});

/// RunProfile as sne_profile_*: per-mode cycle counters
/// (sne_profile_mode_cycles_total{mode=...}), the drain span-length log2
/// histogram (bucket=k covers spans in [2^k, 2^(k+1))), warm/total passes
/// and per-slice busy occupancy. No-op for an empty profile.
void publish_run_profile(MetricsRegistry& reg, const RunProfile& p,
                         const Labels& base = {});

}  // namespace sne::obs
