#include "obs/adapters.h"

#include <string>

namespace sne::obs {

namespace {

Labels with(const Labels& base, const char* key, std::string value) {
  Labels l = base;
  l.emplace_back(key, std::move(value));
  return l;
}

void set_counter(MetricsRegistry& reg, const char* name, const Labels& labels,
                 const char* help, std::uint64_t v) {
  reg.counter(name, labels, help).set(v);
}

void set_gauge(MetricsRegistry& reg, const char* name, const Labels& labels,
               const char* help, double v) {
  reg.gauge(name, labels, help).set(v);
}

void set_latency(MetricsRegistry& reg, const char* name, const Labels& labels,
                 const serve::LatencyHistogram& h) {
  const auto& b = serve::LatencyHistogram::kBoundsMs;
  reg.histogram(name, {b.begin(), b.end()}, labels,
                "request latency (submit to answer), milliseconds")
      .set(h.counts, h.sum_ms);
}

}  // namespace

void publish_server_stats(MetricsRegistry& reg, const serve::ServerStats& s,
                          const Labels& base) {
  set_counter(reg, "sne_server_submitted_total", base,
              "requests admitted into a tenant queue", s.submitted);
  set_counter(reg, "sne_server_completed_total", base,
              "requests fulfilled", s.completed);
  set_counter(reg, "sne_server_failed_total", base,
              "requests answered with an exception after admission", s.failed);
  set_counter(reg, "sne_server_rejected_total", base,
              "try_submit refusals (tenant queue full)", s.rejected);
  set_counter(reg, "sne_server_shed_total", base,
              "requests shed at admission (deadline already burned)", s.shed);
  set_counter(reg, "sne_server_expired_total", base,
              "requests whose deadline burned in queue", s.expired);
  set_counter(reg, "sne_server_retried_total", base,
              "dispatch retry attempts", s.retried);
  set_counter(reg, "sne_server_evicted_total", base,
              "queued requests displaced by shedding or eviction", s.evicted);
  set_counter(reg, "sne_server_sim_cycles_total", base,
              "simulated engine cycles over completed requests",
              s.total_sim_cycles);
  set_gauge(reg, "sne_server_queue_depth", base,
            "queued requests across all tenants",
            static_cast<double>(s.queue_depth));
  set_gauge(reg, "sne_server_peak_queue_depth", base,
            "high-water queue depth", static_cast<double>(s.peak_queue_depth));
  set_gauge(reg, "sne_server_uptime_seconds", base,
            "seconds since server construction", s.elapsed_s);
  set_gauge(reg, "sne_server_throughput_rps", base,
            "completed requests per second of uptime", s.throughput_rps);
  set_latency(reg, "sne_server_latency_ms", base, s.latency_ms);
  set_counter(reg, "sne_server_engines_constructed_total", base,
              "engines built by the pool", s.engines_constructed);
  set_counter(reg, "sne_server_engine_leases_total", base,
              "engine leases served", s.engine_leases);
  set_counter(reg, "sne_server_engine_warm_leases_total", base,
              "leases landing on an engine holding the model's weights",
              s.engine_warm_leases);
  set_counter(reg, "sne_server_passes_total", base,
              "slice passes executed over completed requests", s.passes_total);
  set_counter(reg, "sne_server_passes_warm_total", base,
              "slice passes that skipped reprogramming via weight residency",
              s.passes_warm);
  set_counter(reg, "sne_server_engines_quarantined_total", base,
              "leases released poisoned", s.engines_quarantined);
  set_counter(reg, "sne_server_engines_discarded_total", base,
              "engines destroyed instead of reused", s.engines_discarded);

  for (const serve::TenantStats& t : s.tenants) {
    const Labels tl =
        with(base, "tenant", t.name.empty() ? "default" : t.name);
    set_gauge(reg, "sne_tenant_weight", tl, "DRR weight", t.weight);
    set_counter(reg, "sne_tenant_submitted_total", tl,
                "requests admitted for this tenant", t.submitted);
    set_counter(reg, "sne_tenant_completed_total", tl,
                "requests fulfilled for this tenant", t.completed);
    set_counter(reg, "sne_tenant_failed_total", tl,
                "requests failed after admission", t.failed);
    set_counter(reg, "sne_tenant_rejected_total", tl,
                "try_submit refusals", t.rejected);
    set_counter(reg, "sne_tenant_shed_total", tl,
                "requests shed at admission", t.shed);
    set_counter(reg, "sne_tenant_expired_total", tl,
                "deadlines burned in queue", t.expired);
    set_counter(reg, "sne_tenant_retried_total", tl,
                "dispatch retries", t.retried);
    set_counter(reg, "sne_tenant_evicted_total", tl,
                "queued requests displaced", t.evicted);
    set_gauge(reg, "sne_tenant_queue_depth", tl, "queued requests",
              static_cast<double>(t.queue_depth));
    set_gauge(reg, "sne_tenant_peak_queue_depth", tl, "high-water queue depth",
              static_cast<double>(t.peak_queue_depth));
    set_gauge(reg, "sne_tenant_inflight", tl, "requests being dispatched",
              t.inflight);
    set_gauge(reg, "sne_tenant_oldest_queued_ms", tl,
              "queue age of the head-of-line request", t.oldest_queued_ms);
    set_latency(reg, "sne_tenant_latency_ms", tl, t.latency_ms);
    set_counter(reg, "sne_tenant_sim_cycles_total", tl,
                "simulated cycles over this tenant's completions",
                t.total_sim_cycles);
    set_counter(reg, "sne_tenant_sessions_opened_total", tl,
                "streaming sessions opened", t.sessions_opened);
    set_counter(reg, "sne_tenant_sessions_closed_total", tl,
                "streaming sessions closed", t.sessions_closed);
    set_counter(reg, "sne_tenant_chunks_completed_total", tl,
                "session chunks fulfilled", t.chunks_completed);
    set_counter(reg, "sne_tenant_chunks_failed_total", tl,
                "session chunks failed", t.chunks_failed);
  }
}

void publish_pool_stats(MetricsRegistry& reg, const ecnn::EnginePool::Stats& s,
                        const Labels& base) {
  set_counter(reg, "sne_pool_engines_constructed_total", base,
              "engines built over the pool lifetime", s.constructed);
  set_counter(reg, "sne_pool_leases_total", base, "acquire() calls served",
              s.leases);
  set_counter(reg, "sne_pool_warm_leases_total", base,
              "leases landing on a same-tag engine", s.warm_leases);
  set_counter(reg, "sne_pool_quarantined_total", base,
              "leases released poisoned", s.quarantined);
  set_counter(reg, "sne_pool_discarded_total", base,
              "engines destroyed instead of reused", s.discarded);
}

void publish_fault_stats(MetricsRegistry& reg, const Labels& base) {
  for (const auto& st : faults::FaultInjector::instance().site_stats()) {
    const Labels sl = with(base, "site", st.site);
    set_counter(reg, "sne_fault_site_hits_total", sl,
                "registration-point hits since the injector was armed",
                st.hits);
    set_counter(reg, "sne_fault_site_fired_total", sl,
                "hits on which a fault rule fired", st.fired);
  }
}

void publish_activity_counters(MetricsRegistry& reg,
                               const hwsim::ActivityCounters& c,
                               const Labels& base) {
  const struct {
    const char* name;
    const char* help;
    std::uint64_t v;
  } rows[] = {
      {"sne_activity_cycles_total", "engine cycles elapsed", c.cycles},
      {"sne_activity_idle_cycles_total", "cycles with every slice idle",
       c.idle_cycles},
      {"sne_activity_slice_busy_cycles_total",
       "sum over slices of busy cycles", c.slice_busy_cycles},
      {"sne_activity_neuron_updates_total", "membrane integrations (SOPs)",
       c.neuron_updates},
      {"sne_activity_leak_applications_total", "one-shot TLU leak catch-ups",
       c.leak_applications},
      {"sne_activity_fire_checks_total", "threshold comparisons in FIRE scans",
       c.fire_checks},
      {"sne_activity_fire_scans_total", "FIRE_OP scans executed",
       c.fire_scans},
      {"sne_activity_neuron_resets_total", "state words cleared by RST_OP",
       c.neuron_resets},
      {"sne_activity_gated_cluster_cycles_total",
       "cluster-cycles saved by clock gating", c.gated_cluster_cycles},
      {"sne_activity_active_cluster_cycles_total",
       "cluster-cycles with the datapath toggling", c.active_cluster_cycles},
      {"sne_activity_state_reads_total", "state-memory reads", c.state_reads},
      {"sne_activity_state_writes_total", "state-memory writes",
       c.state_writes},
      {"sne_activity_timesteps_skipped_total",
       "silent timesteps elided via TLU", c.timesteps_skipped},
      {"sne_activity_events_consumed_total", "input UPDATE events processed",
       c.events_consumed},
      {"sne_activity_output_events_total", "spikes emitted by FIRE scans",
       c.output_events},
      {"sne_activity_fifo_pushes_total", "modeled FIFO pushes", c.fifo_pushes},
      {"sne_activity_fifo_pops_total", "modeled FIFO pops", c.fifo_pops},
      {"sne_activity_fifo_stall_cycles_total",
       "cycles a FIRE scan stalled on a full FIFO", c.fifo_stall_cycles},
      {"sne_activity_xbar_beats_total", "beats through the C-XBAR",
       c.xbar_beats},
      {"sne_activity_xbar_broadcast_beats_total", "broadcast C-XBAR beats",
       c.xbar_broadcast_beats},
      {"sne_activity_dma_read_beats_total", "words streamed in from memory",
       c.dma_read_beats},
      {"sne_activity_dma_write_beats_total", "words streamed out to memory",
       c.dma_write_beats},
      {"sne_activity_weight_load_beats_total",
       "weight payload words programmed", c.weight_load_beats},
  };
  for (const auto& r : rows) set_counter(reg, r.name, base, r.help, r.v);
}

void publish_gateway_stats(MetricsRegistry& reg, const net::GatewayStats& s,
                           const Labels& base) {
  set_counter(reg, "sne_gateway_connections_accepted_total", base,
              "TCP connections accepted", s.connections_accepted);
  set_gauge(reg, "sne_gateway_connections_open", base,
            "currently open gateway connections",
            static_cast<double>(s.connections_open));
  set_gauge(reg, "sne_gateway_peak_connections", base,
            "high-water open connections",
            static_cast<double>(s.peak_connections));
  set_counter(reg, "sne_gateway_accept_rejected_total", base,
              "accepts answered 503 at the connection cap", s.accept_rejected);
  set_counter(reg, "sne_gateway_accept_faults_total", base,
              "accepts torn by a net.accept fault or syscall failure",
              s.accept_faults);
  set_counter(reg, "sne_gateway_dispatch_rejected_total", base,
              "requests answered 503 because the worker queue was full",
              s.dispatch_rejected);
  set_counter(reg, "sne_gateway_requests_total", base,
              "complete HTTP requests parsed", s.requests);
  const char* class_help = "HTTP responses by status class";
  const struct {
    const char* cls;
    std::uint64_t v;
  } classes[] = {{"2xx", s.responses_2xx},
                 {"3xx", s.responses_3xx},
                 {"4xx", s.responses_4xx},
                 {"5xx", s.responses_5xx}};
  for (const auto& c : classes)
    set_counter(reg, "sne_gateway_responses_total", with(base, "class", c.cls),
                class_help, c.v);
  set_counter(reg, "sne_gateway_bytes_in_total", base,
              "request bytes read off sockets", s.bytes_in);
  set_counter(reg, "sne_gateway_bytes_out_total", base,
              "response bytes written to sockets", s.bytes_out);
  set_counter(reg, "sne_gateway_conn_read_failures_total", base,
              "connections torn by a failed read (net.conn.read included)",
              s.conn_read_failures);
  set_counter(reg, "sne_gateway_conn_write_failures_total", base,
              "connections torn by a failed write (net.conn.write included)",
              s.conn_write_failures);
  set_counter(reg, "sne_gateway_read_timeouts_total", base,
              "stalled mid-request reads answered 408", s.read_timeouts);
  set_counter(reg, "sne_gateway_write_timeouts_total", base,
              "clients dropped for not draining their response",
              s.write_timeouts);
  set_counter(reg, "sne_gateway_idle_reaped_total", base,
              "idle keep-alive connections reaped", s.idle_reaped);
  set_counter(reg, "sne_gateway_parse_errors_total", base,
              "malformed or oversized requests answered 4xx", s.parse_errors);
  set_counter(reg, "sne_gateway_sessions_opened_total", base,
              "streaming sessions opened over HTTP", s.sessions_opened);
  set_counter(reg, "sne_gateway_sessions_closed_total", base,
              "sessions closed by client request", s.sessions_closed);
  set_counter(reg, "sne_gateway_sessions_torn_down_total", base,
              "sessions closed on connection teardown (half-close path)",
              s.sessions_torn_down);
  set_gauge(reg, "sne_gateway_sessions_open", base,
            "currently open gateway sessions",
            static_cast<double>(s.sessions_open_now));
}

void publish_run_profile(MetricsRegistry& reg, const RunProfile& p,
                         const Labels& base) {
  if (p.empty()) return;
  const char* mode_help =
      "cycles retired per engine replay mode (modes sum to total cycles)";
  const struct {
    const char* mode;
    std::uint64_t v;
  } modes[] = {
      {"dead_jump", p.dead_jump_cycles},   {"sweep_jump", p.sweep_jump_cycles},
      {"percycle", p.percycle_cycles},     {"burst", p.burst_cycles},
      {"bulk_replay", p.bulk_replay_cycles}, {"steady", p.steady_cycles},
  };
  for (const auto& m : modes)
    set_counter(reg, "sne_profile_mode_cycles_total",
                with(base, "mode", m.mode), mode_help, m.v);
  set_counter(reg, "sne_profile_runs_total", base,
              "engine run() calls folded into this profile", p.runs);
  set_counter(reg, "sne_profile_drain_spans_total", base,
              "bulk drain spans committed", p.drain_spans);
  for (std::size_t b = 0; b < RunProfile::kSpanBuckets; ++b)
    set_counter(reg, "sne_profile_drain_span_log2", /* bucket k: [2^k, 2^(k+1)) */
                with(base, "bucket", std::to_string(b)),
                "drain span lengths, log2 buckets", p.span_hist[b]);
  set_counter(reg, "sne_profile_passes_total", base,
              "slice passes (runner level)", p.passes_total);
  set_counter(reg, "sne_profile_passes_warm_total", base,
              "slice passes that warm-skipped reprogramming", p.passes_warm);
  for (std::size_t i = 0; i < p.slice_busy.size(); ++i)
    set_counter(reg, "sne_profile_slice_busy_cycles_total",
                with(base, "slice", std::to_string(i)),
                "per-slice busy-cycle occupancy", p.slice_busy[i]);
}

}  // namespace sne::obs
