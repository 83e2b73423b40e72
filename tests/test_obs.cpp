// Telemetry-layer regression suite (sne::obs).
//
// Three contracts under test:
//   1. Registry correctness — exposition golden (byte-stable Prometheus
//      text), le boundary semantics, label canonicalization/escaping, and
//      type-conflict rejection.
//   2. Tracer determinism — span ids are pure functions of semantic
//      coordinates, so the id set of a served workload is identical under
//      1 or N dispatch workers; request spans contain their lease/simulate
//      children; rings stay bounded; the disabled path records nothing.
//   3. Observation-only invariant — arming the profiler and tracer changes
//      no simulated bit: engine runs and served requests compare bitwise
//      equal with telemetry on and off, and the profiler's per-mode cycle
//      attribution sums exactly to the run's total cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/engine_pool.h"
#include "ecnn/runner.h"
#include "obs/adapters.h"
#include "obs/metrics.h"
#include "obs/run_profile.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"

namespace sne {
namespace {

using core::SneConfig;
using core::SneEngine;
using ecnn::NetworkRunner;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("sne_test_total");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.set(17);
  EXPECT_EQ(c.value(), 17u);
  // Same (name, labels) resolves to the same series.
  EXPECT_EQ(&reg.counter("sne_test_total"), &c);

  auto& g = reg.gauge("sne_test_depth");
  g.set(2.0);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(reg.family_count(), 2u);
}

TEST(MetricsRegistry, HistogramBoundarySemantics) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("sne_test_hist", {1.0, 2.0, 5.0});
  h.observe(-3.0);  // below the first bound -> first bucket
  h.observe(1.0);   // exactly on a bound -> that bucket (le semantics)
  h.observe(1.5);
  h.observe(5.0);   // exactly on the last finite bound
  h.observe(5.1);   // past every bound -> +Inf bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), -3.0 + 1.0 + 1.5 + 5.0 + 5.1);
}

TEST(MetricsRegistry, HistogramSetRepublishesAbsolute) {
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("sne_test_hist", {1.0, 2.0, 5.0});
  h.observe(1.5);
  const std::vector<std::uint64_t> first = {1, 2, 0, 4};
  h.set(first, 9.5);  // overwrites what observe() put there
  EXPECT_EQ(h.bucket_counts(), first);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 9.5);
  // A fresher snapshot replaces the series, like Counter::set: never adds.
  const std::vector<std::uint64_t> second = {2, 2, 1, 4};
  h.set(second, 12.0);
  EXPECT_EQ(h.bucket_counts(), second);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("sne_test_hist_bucket{le=\"2\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("sne_test_hist_bucket{le=\"+Inf\"} 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("sne_test_hist_sum 12\n"), std::string::npos);
  EXPECT_THROW(h.set(std::vector<std::uint64_t>{1, 2, 3}, 0.0), ConfigError);
}

TEST(MetricsRegistry, LatencyHistogramSharesTheLeRule) {
  // serve's ledger histogram and a registry histogram over the same bounds
  // bucket every sample alike, edges included.
  const auto& b = serve::LatencyHistogram::kBoundsMs;
  obs::Histogram reg_h({b.begin(), b.end()});
  serve::LatencyHistogram ledger_h;
  for (const double v : {0.0, 0.1, 0.1001, 0.7, 1.0, 42.0, 10000.0, 10000.5}) {
    reg_h.observe(v);
    ledger_h.observe(v);
  }
  const std::vector<std::uint64_t> ledger_counts(ledger_h.counts.begin(),
                                                 ledger_h.counts.end());
  EXPECT_EQ(reg_h.bucket_counts(), ledger_counts);
  EXPECT_EQ(ledger_h.counts[0], 2u);           // 0 and the 0.1 edge
  EXPECT_EQ(ledger_h.counts[b.size()], 1u);    // past 10 s: +Inf
  EXPECT_EQ(ledger_h.count(), 8u);
  EXPECT_DOUBLE_EQ(ledger_h.sum_ms, reg_h.sum());
}

TEST(MetricsRegistry, PrometheusExpositionGolden) {
  obs::MetricsRegistry reg;
  reg.counter("sne_test_requests_total", {{"tenant", "a\"b\\c\nd"}},
              "requests admitted")
      .inc(3);
  reg.gauge("sne_test_depth", {}, "queue depth").set(2.5);
  auto& h = reg.histogram("sne_test_latency_ms", {1.0, 2.5, 10.0},
                          {{"path", "p"}}, "request latency");
  h.observe(0.5);
  h.observe(1.0);
  h.observe(2.0);
  h.observe(10.5);
  // Families in name order, series in canonical label order, cumulative le
  // buckets, exact integers without a fraction — byte for byte.
  const std::string expected =
      "# HELP sne_test_depth queue depth\n"
      "# TYPE sne_test_depth gauge\n"
      "sne_test_depth 2.5\n"
      "# HELP sne_test_latency_ms request latency\n"
      "# TYPE sne_test_latency_ms histogram\n"
      "sne_test_latency_ms_bucket{le=\"1\",path=\"p\"} 2\n"
      "sne_test_latency_ms_bucket{le=\"2.5\",path=\"p\"} 3\n"
      "sne_test_latency_ms_bucket{le=\"10\",path=\"p\"} 3\n"
      "sne_test_latency_ms_bucket{le=\"+Inf\",path=\"p\"} 4\n"
      "sne_test_latency_ms_sum{path=\"p\"} 14\n"
      "sne_test_latency_ms_count{path=\"p\"} 4\n"
      "# HELP sne_test_requests_total requests admitted\n"
      "# TYPE sne_test_requests_total counter\n"
      "sne_test_requests_total{tenant=\"a\\\"b\\\\c\\nd\"} 3\n";
  EXPECT_EQ(reg.prometheus_text(), expected);
}

TEST(MetricsRegistry, JsonSnapshotShape) {
  obs::MetricsRegistry reg;
  reg.counter("sne_test_total", {{"k", "v"}}).inc(7);
  reg.histogram("sne_test_hist", {1.0}).observe(0.5);
  const std::string json = reg.json_snapshot();
  EXPECT_NE(json.find("{\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sne_test_total\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"k\":\"v\"},\"value\":7"),
            std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\",\"count\":1"), std::string::npos);
}

TEST(MetricsRegistry, RejectsConflictsAndBadNames) {
  obs::MetricsRegistry reg;
  reg.counter("sne_test_total");
  EXPECT_THROW(reg.gauge("sne_test_total"), ConfigError);
  reg.histogram("sne_test_hist", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("sne_test_hist", {1.0, 3.0}), ConfigError);
  EXPECT_THROW(reg.histogram("sne_test_bad", {2.0, 1.0}), ConfigError);
  EXPECT_THROW(reg.counter("1bad"), ConfigError);
  EXPECT_THROW(reg.counter("ok", {{"dup", "a"}, {"dup", "b"}}), ConfigError);
  EXPECT_THROW(reg.counter("ok", {{"bad-label", "a"}}), ConfigError);
}

// ---------------------------------------------------------------------------
// Shared workload helpers (mirrors test_serve.cpp's three-layer chain)
// ---------------------------------------------------------------------------

QuantizedLayerSpec conv_layer(std::uint16_t in_ch, std::uint16_t size,
                              std::uint16_t out_ch, std::int32_t v_th,
                              std::uint64_t seed, std::int32_t w_lo = -4,
                              std::int32_t w_hi = 7) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "conv";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = out_ch;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  Rng rng(seed);
  for (auto& w : l.weights)
    w = static_cast<std::int8_t>(rng.uniform_int(w_lo, w_hi));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

QuantizedNetwork small_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 8, 4, 11));
  return net;
}

/// Spike-dense single conv (zero threshold, positive weights): the drain
/// chain dominates, so the bulk-span and burst machines all execute.
QuantizedNetwork dense_net(std::uint32_t slices) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, static_cast<std::uint16_t>(4 * slices),
                                  0, 5, 1, 7));
  return net;
}

void expect_stats_equal(const NetworkRunStats& ref,
                        const NetworkRunStats& got) {
  EXPECT_EQ(ref.cycles, got.cycles);
  EXPECT_TRUE(ref.total == got.total);
  ASSERT_EQ(ref.layers.size(), got.layers.size());
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].cycles, got.layers[i].cycles) << "layer " << i;
    EXPECT_TRUE(ref.layers[i].counters == got.layers[i].counters)
        << "layer " << i;
    EXPECT_TRUE(ref.layers[i].output == got.layers[i].output) << "layer " << i;
  }
  EXPECT_TRUE(ref.final_output == got.final_output);
}

// ---------------------------------------------------------------------------
// Replay profiler
// ---------------------------------------------------------------------------

TEST(RunProfile, DisabledRunsProduceEmptyProfiles) {
  ASSERT_FALSE(obs::profiling_enabled());
  SneEngine engine(SneConfig::paper_design_point(2));
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.05, 42);
  const auto stats = runner.run(small_net(), in);
  EXPECT_TRUE(stats.profile.empty());
  EXPECT_EQ(stats.profile.mode_cycles_total(), 0u);
}

TEST(RunProfile, ModeCyclesSumToTotalAndResultsAreBitwiseIdentical) {
  SneConfig hw = SneConfig::paper_design_point(4);
  hw.fast_forward = true;
  hw.drain_batching = true;
  const auto net = dense_net(4);
  const auto in = data::random_stream({1, 16, 16, 20}, 0.1, 177);

  SneEngine ref_engine(hw);
  NetworkRunner ref_runner(ref_engine, false);
  const auto ref = ref_runner.run(net, in);
  EXPECT_TRUE(ref.profile.empty());

  SneEngine prof_engine(hw);
  NetworkRunner prof_runner(prof_engine, false);
  NetworkRunStats got;
  {
    obs::ScopedProfiling profiling;
    got = prof_runner.run(net, in);
  }
  // The profiler only observes: simulation output is bit for bit the
  // reference, and every retired cycle is attributed to exactly one mode.
  expect_stats_equal(ref, got);
  ASSERT_FALSE(got.profile.empty());
  EXPECT_EQ(got.profile.mode_cycles_total(), got.cycles);
  EXPECT_GT(got.profile.drain_spans, 0u);
  EXPECT_GT(got.profile.steady_cycles + got.profile.bulk_replay_cycles, 0u);
  std::uint64_t hist_total = 0;
  for (const auto b : got.profile.span_hist) hist_total += b;
  EXPECT_EQ(hist_total, got.profile.drain_spans);
  ASSERT_EQ(got.profile.slice_busy.size(), 4u);
  for (const auto busy : got.profile.slice_busy) EXPECT_LE(busy, got.cycles);
  EXPECT_EQ(got.profile.passes_total, got.passes_total);
}

TEST(RunProfile, PerCycleAndBatchedProfilesAgreeOnTotals) {
  // The per-cycle reference engine and the batched drain engine attribute
  // cycles to different modes, but both must cover the same (bit-identical)
  // total.
  const auto net = dense_net(2);
  const auto in = data::random_stream({1, 16, 16, 12}, 0.1, 99);
  NetworkRunStats slow, fast;
  {
    obs::ScopedProfiling profiling;
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = false;
    hw.drain_batching = false;
    SneEngine e1(hw);
    NetworkRunner r1(e1, false);
    slow = r1.run(net, in);
    hw.fast_forward = true;
    hw.drain_batching = true;
    SneEngine e2(hw);
    NetworkRunner r2(e2, false);
    fast = r2.run(net, in);
  }
  EXPECT_EQ(slow.cycles, fast.cycles);
  EXPECT_EQ(slow.profile.mode_cycles_total(), slow.cycles);
  EXPECT_EQ(fast.profile.mode_cycles_total(), fast.cycles);
  // The reference engine never runs the specialized machines...
  EXPECT_EQ(slow.profile.burst_cycles, 0u);
  EXPECT_EQ(slow.profile.steady_cycles, 0u);
  EXPECT_EQ(slow.profile.bulk_replay_cycles, 0u);
  // ...while the batched engine moves most drain work into them.
  EXPECT_GT(fast.profile.steady_cycles + fast.profile.burst_cycles +
                fast.profile.bulk_replay_cycles,
            0u);
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledPathRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.arm();
  tracer.disarm();
  {
    obs::ScopedSpan span("test.span", 1);
    obs::trace_instant("test.instant", 2);
  }
  EXPECT_TRUE(tracer.collect().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingStaysBoundedAndCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::Tracer::Config cfg;
  cfg.ring_capacity = 4;
  tracer.arm(cfg);
  for (std::uint64_t i = 0; i < 20; ++i) obs::trace_instant("test.tick", i);
  tracer.disarm();
  const auto spans = tracer.collect();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 16u);
  // The ring keeps the newest spans.
  for (const auto& s : spans) EXPECT_GE(s.arg, 16u);
  tracer.arm();  // restore the default capacity for later tests
  tracer.disarm();
}

TEST(Tracer, ChromeTraceJsonShape) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.arm();
  {
    obs::ScopedCorr corr(7);
    obs::ScopedSpan outer("test.outer", 1);
    obs::trace_instant("test.mark", 2);
  }
  tracer.disarm();
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

std::vector<event::EventStream> serve_inputs() {
  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 6; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 8}, 0.08, 500 + s));
  return inputs;
}

std::vector<NetworkRunStats> serve_batch(unsigned workers) {
  serve::ModelRegistry models;
  models.put("m", small_net());
  serve::ServeOptions so;
  so.engines = workers;
  // Strict tier: every request reprograms, so the span vocabulary (and the
  // results) cannot depend on which pooled engine a request happens to land
  // on — warm-skip spans are scheduling-dependent by design.
  so.warm_weights = false;
  serve::InferenceServer server(models, SneConfig::paper_design_point(2), so);
  std::vector<serve::Ticket> tickets;
  for (const auto& in : serve_inputs()) tickets.push_back(server.submit("m", in));
  std::vector<NetworkRunStats> out;
  for (const auto& t : tickets) out.push_back(t.wait());
  return out;
}

/// Runs the pooled serve workload under `workers` dispatch threads with the
/// tracer armed and returns the collected spans (server destroyed first, so
/// every worker has flushed its spans).
std::vector<obs::Tracer::CollectedSpan> traced_serve(unsigned workers) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.arm();
  serve_batch(workers);
  auto spans = obs::Tracer::instance().collect();
  tracer.disarm();
  return spans;
}

TEST(Tracer, SpanIdSetIsWorkerCountInvariant) {
  const auto one = traced_serve(1);
  const auto four = traced_serve(4);
  ASSERT_FALSE(one.empty());
  // Span ids are FNV over (name, corr, arg) — semantic coordinates only —
  // so scheduling across 1 vs 4 workers cannot change the id set.
  std::set<std::uint64_t> ids1, ids4;
  for (const auto& s : one) ids1.insert(s.id);
  for (const auto& s : four) ids4.insert(s.id);
  EXPECT_EQ(ids1, ids4);
  for (const auto& s : one)
    if (!ids4.count(s.id))
      ADD_FAILURE() << "only in 1-worker run: " << s.name << " corr=" << s.corr
                    << " arg=" << s.arg;
  for (const auto& s : four)
    if (!ids1.count(s.id))
      ADD_FAILURE() << "only in 4-worker run: " << s.name << " corr=" << s.corr
                    << " arg=" << s.arg;
  // The request lifecycle vocabulary is all present.
  std::set<std::string> names;
  for (const auto& s : one) names.insert(s.name);
  for (const char* expect :
       {"serve.submit", "serve.queue", "serve.dispatch", "serve.request",
        "ecnn.pool.lease", "ecnn.layer", "ecnn.program", "ecnn.simulate",
        "serve.settle"})
    EXPECT_TRUE(names.count(expect)) << "missing span name " << expect;
}

TEST(Tracer, RequestSpansContainTheirLeaseAndSimulateSpans) {
  const auto spans = traced_serve(2);
  std::vector<const obs::Tracer::CollectedSpan*> requests;
  for (const auto& s : spans)
    if (s.name == "serve.request") requests.push_back(&s);
  ASSERT_EQ(requests.size(), 6u);
  std::size_t children = 0;
  for (const auto& s : spans) {
    if (s.name != "ecnn.pool.lease" && s.name != "ecnn.simulate") continue;
    ++children;
    bool contained = false;
    for (const auto* r : requests)
      if (r->corr == s.corr && s.t0_ns >= r->t0_ns && s.t1_ns <= r->t1_ns)
        contained = true;
    EXPECT_TRUE(contained) << s.name << " span outside its request span";
  }
  EXPECT_GE(children, 12u);  // one lease + at least one simulate per request
}

TEST(Tracer, ServedResultsAreBitwiseIdenticalWithTelemetryOn) {
  const auto ref = serve_batch(2);
  std::vector<NetworkRunStats> got;
  {
    obs::Tracer::instance().arm();
    obs::ScopedProfiling profiling;
    got = serve_batch(2);
    obs::Tracer::instance().disarm();
  }
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_stats_equal(ref[i], got[i]);
  // With profiling armed, served stats carry the cycle attribution too.
  for (const auto& s : got) {
    ASSERT_FALSE(s.profile.empty());
    EXPECT_EQ(s.profile.mode_cycles_total(), s.cycles);
  }
}

/// conv -> conv chain that fits pipeline operating mode on the 2-slice design
/// point (single round / single pass per layer) — mirrors test_tenants.cpp.
QuantizedNetwork two_stage_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 4, 31));
  auto l2 = conv_layer(2, 16, 2, 5, 32);
  l2.name = "conv2";
  net.layers.push_back(l2);
  return net;
}

/// Splits a raw stream into chunk-local pieces of `chunk_t` timesteps.
std::vector<event::EventStream> split_chunks(const event::EventStream& full,
                                             std::uint16_t chunk_t) {
  std::vector<event::EventStream> chunks;
  const std::uint16_t total = full.geometry().timesteps;
  for (std::uint16_t t0 = 0; t0 < total; t0 += chunk_t) {
    event::StreamGeometry g = full.geometry();
    g.timesteps = std::min<std::uint16_t>(chunk_t, total - t0);
    event::EventStream c(g);
    for (event::Event e : full.events())
      if (e.t >= t0 && e.t < t0 + g.timesteps) {
        e.t = static_cast<std::uint16_t>(e.t - t0);
        c.push(e);
      }
    chunks.push_back(std::move(c));
  }
  return chunks;
}

TEST(Tracer, WarmServeIsBitwiseIdenticalWithTelemetryOn) {
  // Warm lease order is scheduling-dependent across workers, so the warm
  // spot check pins one engine / one worker: requests lease it FIFO, the
  // first run programs, the rest warm-skip — deterministically.
  const auto serve_warm = [] {
    serve::ModelRegistry models;
    models.put("m", small_net());
    serve::ServeOptions so;
    so.engines = 1;
    so.warm_weights = true;
    serve::InferenceServer server(models, SneConfig::paper_design_point(2),
                                  so);
    std::vector<serve::Ticket> tickets;
    for (const auto& in : serve_inputs())
      tickets.push_back(server.submit("m", in));
    std::vector<NetworkRunStats> out;
    for (const auto& t : tickets) out.push_back(t.wait());
    return out;
  };
  const auto ref = serve_warm();
  std::vector<NetworkRunStats> got;
  {
    obs::Tracer::instance().arm();
    obs::ScopedProfiling profiling;
    got = serve_warm();
    obs::Tracer::instance().disarm();
  }
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_stats_equal(ref[i], got[i]);
  // The traced warm run recorded warm-skip spans for the reused leases.
  std::set<std::string> names;
  for (const auto& s : obs::Tracer::instance().collect()) names.insert(s.name);
  EXPECT_TRUE(names.count("ecnn.warm_skip"));
}

TEST(Tracer, SessionChunksAreBitwiseIdenticalWithTelemetryOn) {
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto net = two_stage_net();
  const auto model = std::make_shared<const QuantizedNetwork>(net);
  const auto full = data::random_stream({1, 16, 16, 12}, 0.08, 321);
  const auto run_session = [&] {
    ecnn::EnginePool pool(hw, 0);
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 12;
    serve::StreamingSession session(pool, model, sopts);
    std::vector<NetworkRunStats> out;
    for (auto& chunk : split_chunks(full, 4))
      out.push_back(session.feed(std::move(chunk)).wait());
    session.close();
    return out;
  };
  const auto ref = run_session();
  std::vector<NetworkRunStats> got;
  {
    obs::Tracer::instance().arm();
    obs::ScopedProfiling profiling;
    got = run_session();
    obs::Tracer::instance().disarm();
  }
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    expect_stats_equal(ref[i], got[i]);
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

TEST(Adapters, ServerStatsPublishHeadlineAndTenantSeries) {
  serve::ModelRegistry models;
  models.put("m", small_net());
  serve::ServeOptions so;
  so.engines = 2;
  serve::InferenceServer server(models, SneConfig::paper_design_point(2), so);
  std::vector<serve::Ticket> tickets;
  for (const auto& in : serve_inputs()) tickets.push_back(server.submit("m", in));
  for (const auto& t : tickets) t.wait();

  obs::MetricsRegistry reg;
  obs::publish_server_stats(reg, server.stats());
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("sne_server_submitted_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("sne_server_completed_total 6\n"), std::string::npos);
  // The default tenant's empty name exports as tenant="default".
  EXPECT_NE(text.find("sne_tenant_submitted_total{tenant=\"default\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("sne_server_engine_leases_total 6\n"),
            std::string::npos);
  // Latency is one histogram family per level; the server's is the sum of
  // the tenants'.
  EXPECT_NE(text.find("# TYPE sne_server_latency_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("sne_tenant_latency_ms_bucket{le=\"+Inf\","
                      "tenant=\"default\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("sne_server_latency_ms_count 6\n"), std::string::npos);
  // Edges print in shortest round-trip form, so series aggregate by `le`.
  EXPECT_NE(text.find("sne_server_latency_ms_bucket{le=\"0.1\"} "),
            std::string::npos);
  // Republishing a fresher snapshot updates series in place, never
  // duplicates them (gauges like uptime move, so compare structure).
  const std::size_t families = reg.family_count();
  obs::publish_server_stats(reg, server.stats());
  EXPECT_EQ(reg.family_count(), families);
  const std::string again = reg.prometheus_text();
  const auto lines = [&again](const std::string& prefix) {
    std::size_t hits = 0;
    for (std::size_t pos = again.find("\n" + prefix); pos != std::string::npos;
         pos = again.find("\n" + prefix, pos + 1))
      ++hits;
    return hits;
  };
  EXPECT_EQ(lines("sne_server_submitted_total "), 1u);
  // One series per bucket (finite edges + Inf), republished absolute.
  const std::size_t buckets = serve::LatencyHistogram::kBoundsMs.size() + 1;
  EXPECT_EQ(lines("sne_server_latency_ms_bucket{"), buckets);
  EXPECT_EQ(lines("sne_tenant_latency_ms_bucket{"), buckets);
  EXPECT_EQ(lines("sne_server_latency_ms_count "), 1u);
  EXPECT_NE(again.find("sne_server_latency_ms_count 6\n"), std::string::npos);
}

TEST(Adapters, FaultSiteStatsPublishPerSiteSeries) {
  faults::FaultConfig cfg;
  cfg.seed = 7;
  cfg.rules.push_back(faults::FaultRule{"serve.server.dispatch", {2}, 0.0, 0.0});
  faults::ScopedFaults chaos(std::move(cfg));
  EXPECT_NO_THROW(faults::check("serve.server.dispatch"));
  EXPECT_THROW(faults::check("serve.server.dispatch"), faults::FaultError);
  EXPECT_NO_THROW(faults::check("serve.server.dispatch"));

  obs::MetricsRegistry reg;
  obs::publish_fault_stats(reg);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(
      text.find(
          "sne_fault_site_hits_total{site=\"serve.server.dispatch\"} 3\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "sne_fault_site_fired_total{site=\"serve.server.dispatch\"} 1\n"),
      std::string::npos);
}

TEST(Adapters, RunProfilePublishesModeSplitAndSkipsEmptyProfiles) {
  obs::MetricsRegistry reg;
  obs::publish_run_profile(reg, obs::RunProfile{});
  EXPECT_EQ(reg.family_count(), 0u);  // empty profile is a no-op

  SneConfig hw = SneConfig::paper_design_point(2);
  hw.fast_forward = true;
  hw.drain_batching = true;
  SneEngine engine(hw);
  NetworkRunner runner(engine, false);
  NetworkRunStats stats;
  {
    obs::ScopedProfiling profiling;
    stats = runner.run(dense_net(2), data::random_stream({1, 16, 16, 8}, 0.1, 3));
  }
  obs::publish_run_profile(reg, stats.profile, {{"run", "t"}});
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("sne_profile_mode_cycles_total{mode=\"steady\",run=\"t\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sne_profile_slice_busy_cycles_total{run=\"t\",slice=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sne_profile_drain_spans_total{run=\"t\"}"),
            std::string::npos);
}

TEST(Adapters, ActivityCountersPublishEnergySignal) {
  SneEngine engine(SneConfig::paper_design_point(2));
  NetworkRunner runner(engine, false);
  const auto stats = runner.run(small_net(),
                                data::random_stream({1, 16, 16, 8}, 0.08, 4));
  obs::MetricsRegistry reg;
  obs::publish_activity_counters(reg, stats.total);
  EXPECT_GT(reg.family_count(), 10u);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("sne_activity_"), std::string::npos);
}

}  // namespace
}  // namespace sne
