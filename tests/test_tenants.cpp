// Multi-tenant front-door suite: weighted-fair admission (FairScheduler),
// per-tenant overload control (quota shedding of expired entries, eviction),
// and crash-tolerant streaming sessions (StreamingSession).
//
// The two contracts under test:
//   - Fairness is policy, results are physics: deficit-round-robin may
//     reorder and shed, but every completed result stays bitwise identical
//     to the serial reference, and `completed + failed == submitted` holds
//     per tenant as well as globally.
//   - Sessions carry neuron state across chunks through a snapshot that
//     every chunk restores onto the engine it leases: a mid-session crash
//     loses only the in-flight chunk, and the chunks around it are bitwise
//     identical to an undisturbed session.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/engine_pool.h"
#include "ecnn/runner.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/session.h"
#include "test_util.h"

namespace sne {
namespace {

using core::SneConfig;
using core::SneEngine;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;
using serve::FairScheduler;
using serve::TenantConfig;
using serve::TenantStats;

QuantizedLayerSpec conv_layer(std::uint16_t in_ch, std::uint16_t size,
                              std::uint16_t out_ch, std::int32_t v_th,
                              std::uint64_t seed) {
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
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

QuantizedLayerSpec pool_layer(std::uint16_t ch, std::uint16_t size) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kPool;
  l.name = "pool";
  l.in_ch = ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = ch;
  l.kernel = 2;
  l.stride = 2;
  l.pad = 0;
  l.lif.v_th = 0;
  l.lif.leak = 0;
  return l;
}

QuantizedLayerSpec fc_layer(std::uint16_t in_ch, std::uint16_t size,
                            std::uint16_t outputs, std::uint64_t seed) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kFc;
  l.name = "fc";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = outputs;
  l.weights.resize(static_cast<std::size_t>(outputs) * l.in_flat());
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-7, 7));
  l.lif.v_th = 6;
  l.lif.leak = 1;
  return l;
}

QuantizedNetwork three_layer_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 8, 4, 11));
  net.layers.push_back(pool_layer(8, 16));
  net.layers.push_back(fc_layer(8, 8, 10, 13));
  return net;
}

/// Small fast model for load tests (single conv, 8x8, 4 timesteps inputs).
QuantizedNetwork tiny_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 8, 2, 4, 21));
  return net;
}

/// conv -> conv chain that fits pipeline operating mode on the 2-slice
/// design point (single round / single pass per layer).
QuantizedNetwork pipeline_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 4, 31));
  auto l2 = conv_layer(2, 16, 2, 5, 32);
  l2.name = "conv2";
  net.layers.push_back(l2);
  return net;
}

void expect_equivalent(const NetworkRunStats& ref, const NetworkRunStats& got) {
  EXPECT_EQ(ref.cycles, got.cycles);
  EXPECT_TRUE(ref.total == got.total)
      << "counters diverge:\nref: " << ref.total << "\ngot: " << got.total;
  ASSERT_EQ(ref.layers.size(), got.layers.size());
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].cycles, got.layers[i].cycles) << "layer " << i;
    EXPECT_TRUE(ref.layers[i].counters == got.layers[i].counters)
        << "layer " << i;
    EXPECT_TRUE(ref.layers[i].output == got.layers[i].output) << "layer " << i;
  }
  EXPECT_TRUE(ref.final_output == got.final_output);
}

const TenantStats& tenant_stats(const serve::ServerStats& st,
                                const std::string& name) {
  for (const TenantStats& t : st.tenants)
    if (t.name == name) return t;
  ADD_FAILURE() << "no tenant '" << name << "' in stats";
  static const TenantStats kEmpty{};
  return kEmpty;
}

/// Sorted (t, ch, x, y) spike tuples — the order-independent functional view
/// of an output stream.
std::vector<std::tuple<int, int, int, int>> spike_set(
    const event::EventStream& s) {
  std::vector<std::tuple<int, int, int, int>> out;
  for (const event::Event& e : s.events())
    if (e.op == event::Op::kUpdate) out.emplace_back(e.t, e.ch, e.x, e.y);
  std::sort(out.begin(), out.end());
  return out;
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

// --- FairScheduler (policy level, no engines) --------------------------------

TEST(FairSchedulerTest, DrrSharesAreExactUnderSaturation) {
  TenantConfig base;
  base.max_queue = 128;
  FairScheduler<std::pair<char, int>> sched(base);
  for (const auto& [name, w] : {std::pair<const char*, unsigned>{"a", 1},
                                {"b", 2},
                                {"c", 4}}) {
    TenantConfig cfg;
    cfg.weight = w;
    cfg.max_queue = 128;
    sched.register_tenant(name, cfg);
  }
  using Sched = FairScheduler<std::pair<char, int>>;
  for (int i = 0; i < 70; ++i)
    for (const char t : {'a', 'b', 'c'}) {
      const auto out = sched.push(std::string(1, t), {t, i}, std::nullopt,
                                  /*block=*/false);
      ASSERT_EQ(out.status, Sched::PushStatus::kAccepted);
    }

  // 10 full DRR rounds drain exactly weight-proportional counts, and each
  // tenant's own queue drains in FIFO order.
  std::map<char, int> served;
  std::map<char, int> next_idx;
  for (int i = 0; i < 70; ++i) {
    Sched::Popped p;
    ASSERT_EQ(sched.pop_for(std::chrono::milliseconds(100), p),
              Sched::PopStatus::kItem);
    ++served[p.item.first];
    EXPECT_EQ(p.item.second, next_idx[p.item.first]++)
        << "tenant " << p.item.first << " served out of FIFO order";
    sched.on_done(p.tenant, {});
  }
  EXPECT_EQ(served['a'], 10);
  EXPECT_EQ(served['b'], 20);
  EXPECT_EQ(served['c'], 40);
}

TEST(FairSchedulerTest, SingleTenantDegeneratesToFifo) {
  TenantConfig base;
  base.max_queue = 64;
  FairScheduler<int> sched(base);
  for (int i = 0; i < 20; ++i) {
    const auto out = sched.push(serve::kDefaultTenant, i, std::nullopt, false);
    ASSERT_EQ(out.status, FairScheduler<int>::PushStatus::kAccepted);
  }
  // Closing refuses new pushes but still drains everything accepted, in
  // order, before pops report kClosed: shutdown drops no admitted request.
  sched.close();
  EXPECT_EQ(
      sched.push(serve::kDefaultTenant, 99, std::nullopt, false).status,
      FairScheduler<int>::PushStatus::kClosed);
  FairScheduler<int>::Popped p;
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(sched.pop_for(std::chrono::milliseconds(100), p),
              FairScheduler<int>::PopStatus::kItem);
    EXPECT_EQ(p.item, i);
    sched.on_done(p.tenant, {});
  }
  EXPECT_TRUE(sched.drained());
  EXPECT_EQ(sched.pop_for(std::chrono::milliseconds(5), p),
            FairScheduler<int>::PopStatus::kClosed);
}

TEST(FairSchedulerTest, DisplacementNeverCrossesTenants) {
  TenantConfig base;
  FairScheduler<int> sched(base);
  TenantConfig small;
  small.max_queue = 3;
  sched.register_tenant("t", small);
  TenantConfig pair;
  pair.max_queue = 2;
  sched.register_tenant("u", pair);
  using S = FairScheduler<int>;
  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(5);
  const auto ledger = [&sched](const std::string& name) {
    for (const TenantStats& ts : sched.stats())
      if (ts.name == name) return ts;
    ADD_FAILURE() << "no tenant " << name;
    return TenantStats{};
  };

  // u holds a live entry and, behind it, an expired one; t is full of live
  // entries.
  ASSERT_EQ(sched.push("u", 98, std::nullopt, false).status,
            S::PushStatus::kAccepted);
  ASSERT_EQ(sched.push("u", 99, past, false).status, S::PushStatus::kAccepted);
  for (const int v : {1, 2, 3})
    ASSERT_EQ(sched.push("t", v, std::nullopt, false).status,
              S::PushStatus::kAccepted);

  // t has nothing of its own to shed, and u's expired entry is never a
  // displacement candidate for t's push.
  auto out = sched.push("t", 4, std::nullopt, false);
  EXPECT_EQ(out.status, S::PushStatus::kFull);
  EXPECT_TRUE(out.displaced.empty());
  EXPECT_EQ(ledger("t").rejected, 1u);
  EXPECT_EQ(ledger("t").evicted, 0u);
  EXPECT_EQ(ledger("u").evicted, 0u);
  EXPECT_EQ(ledger("u").queue_depth, 2u);

  // Within u, the expired entry is displaced first — ahead of the older
  // live entry.
  out = sched.push("u", 100, std::nullopt, false);
  EXPECT_EQ(out.status, S::PushStatus::kAccepted);
  ASSERT_EQ(out.displaced.size(), 1u);
  EXPECT_EQ(out.displaced[0], 99);
  EXPECT_EQ(ledger("u").evicted, 1u);
  EXPECT_EQ(ledger("t").queue_depth, 3u);

  // Ring order is first-activation order: u pushed first, and its live
  // entry kept its place at the head.
  S::Popped p;
  ASSERT_EQ(sched.pop_for(std::chrono::milliseconds(100), p),
            S::PopStatus::kItem);
  EXPECT_EQ(p.tenant, "u");
  EXPECT_EQ(p.item, 98);
  sched.on_done("u", {});
}

TEST(FairSchedulerTest, EvictPurgesRefusesAndKeepsLedger) {
  TenantConfig base;
  FairScheduler<int> sched(base);
  TenantConfig cfg;
  cfg.max_queue = 8;
  sched.register_tenant("e", cfg);
  using S = FairScheduler<int>;
  for (const int v : {1, 2, 3})
    ASSERT_EQ(sched.push("e", v, std::nullopt, false).status,
              S::PushStatus::kAccepted);

  const std::vector<int> purged = sched.evict("e");
  EXPECT_EQ(purged, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(sched.has_tenant("e"));
  EXPECT_EQ(sched.push("e", 4, std::nullopt, false).status,
            S::PushStatus::kUnknownTenant);
  // Names are not recycled: the ledger must survive unambiguously.
  EXPECT_THROW(sched.register_tenant("e", cfg), ConfigError);

  for (const TenantStats& t : sched.stats())
    if (t.name == "e") {
      EXPECT_EQ(t.submitted, 3u);
      EXPECT_EQ(t.failed, 3u);
      EXPECT_EQ(t.evicted, 3u);
      EXPECT_EQ(t.queue_depth, 0u);
    }
  EXPECT_TRUE(sched.drained());  // eviction answered everything admitted
}

TEST(FairSchedulerTest, ConfigValidation) {
  TenantConfig base;
  FairScheduler<int> sched(base);
  TenantConfig bad;
  bad.weight = 0;
  EXPECT_THROW(sched.register_tenant("w", bad), ConfigError);
  bad = TenantConfig{};
  bad.max_queue = 0;
  EXPECT_THROW(sched.register_tenant("q", bad), ConfigError);
  bad = TenantConfig{};
  bad.max_sessions = 0;  // sessions must stay bounded
  EXPECT_THROW(sched.register_tenant("s", bad), ConfigError);
  sched.register_tenant("ok", TenantConfig{});
  EXPECT_THROW(sched.register_tenant("ok", TenantConfig{}), ConfigError);
}

// --- server: fairness, isolation, accounting ---------------------------------

TEST(TenantServerTest, SaturatedSharesTrackWeights) {
  serve::ModelRegistry registry;
  registry.put("m", tiny_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ServeOptions so;
  so.engines = 1;  // one dispatcher: shares come purely from the scheduler
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);
  for (const auto& [name, w] : {std::pair<const char*, unsigned>{"a", 1},
                                {"b", 2},
                                {"c", 4}}) {
    TenantConfig cfg;
    cfg.weight = w;
    cfg.max_queue = 64;
    server.register_tenant(name, cfg);
  }

  // Pace every dispatch with a deterministic 4 ms stall so the queues stay
  // saturated long enough to observe mid-drain shares.
  faults::FaultConfig fc;
  fc.seed = 7;
  fc.rules.push_back({"serve.server.dispatch", {}, 1.0, /*stall_ms=*/4.0});
  faults::ScopedFaults chaos(fc);

  // Sized so that at the snapshot point (105 completions) every tenant is
  // still backlogged: the weight-4 tenant drains its last request only at
  // completion 7/4 * kPerTenant ≈ 157 — past-drain tails would otherwise
  // hand the fast tenant's share to the slow ones.
  constexpr int kPerTenant = 90;
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < kPerTenant; ++i)
    for (const char* t : {"a", "b", "c"}) {
      serve::RequestOptions ro;
      ro.tenant = t;
      tickets.push_back(server.submit(
          "m", data::random_stream({1, 8, 8, 4}, 0.1, 100 + i), ro));
    }

  // Poll for a mid-drain snapshot with >= 15 full DRR rounds completed (the
  // per-round skew bound is then 7/105 < 0.1).
  std::uint64_t ca = 0, cb = 0, cc = 0, total = 0;
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  do {
    const serve::ServerStats st = server.stats();
    ca = tenant_stats(st, "a").completed;
    cb = tenant_stats(st, "b").completed;
    cc = tenant_stats(st, "c").completed;
    total = ca + cb + cc;
    if (total >= 105) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < poll_deadline);
  ASSERT_GE(total, 105u) << "server never reached the snapshot point";
  if (total > 3 * kPerTenant - 6) {
    // The run drained before a mid-flight snapshot could be taken (extreme
    // scheduling starvation of the polling thread); shares at full drain
    // are trivially 1/3 each and say nothing about fairness.
    GTEST_SKIP() << "machine too slow to observe a saturated snapshot";
  }
  const double share_a = static_cast<double>(ca) / static_cast<double>(total);
  const double share_b = static_cast<double>(cb) / static_cast<double>(total);
  const double share_c = static_cast<double>(cc) / static_cast<double>(total);
  EXPECT_NEAR(share_a, 1.0 / 7.0, 0.1);
  EXPECT_NEAR(share_b, 2.0 / 7.0, 0.1);
  EXPECT_NEAR(share_c, 4.0 / 7.0, 0.1);

  for (auto& t : tickets) (void)t.wait();
  server.drain();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(3 * kPerTenant));
  for (const char* t : {"a", "b", "c"}) {
    const TenantStats& ts = tenant_stats(st, t);
    EXPECT_EQ(ts.completed, static_cast<std::uint64_t>(kPerTenant));
    EXPECT_EQ(ts.completed + ts.failed, ts.submitted) << t;
  }
}

TEST(TenantServerTest, MisbehavingTenantCannotStarveOthers) {
  serve::ModelRegistry registry;
  registry.put("m", tiny_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);
  TenantConfig greedy_cfg;
  greedy_cfg.weight = 1;
  greedy_cfg.max_queue = 4;  // quota: the blast radius of the flood
  server.register_tenant("greedy", greedy_cfg);
  TenantConfig polite_cfg;
  polite_cfg.weight = 1;
  polite_cfg.max_queue = 16;
  server.register_tenant("polite", polite_cfg);

  faults::FaultConfig fc;
  fc.seed = 7;
  fc.rules.push_back({"serve.server.dispatch", {}, 1.0, /*stall_ms=*/3.0});
  faults::ScopedFaults chaos(fc);

  // The misbehaving tenant: a tight submit loop mixing hopeless deadlines
  // with a queue flood. try_submit never blocks, so the loop only ever
  // burns its own quota.
  std::vector<serve::Ticket> greedy_tickets;
  std::uint64_t greedy_rejections = 0;
  const auto in = data::random_stream({1, 8, 8, 4}, 0.1, 900);
  for (int i = 0; i < 200; ++i) {
    serve::RequestOptions ro;
    ro.tenant = "greedy";
    if (i % 2 == 0)
      ro.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);  // dead on arrival
    if (auto t = server.try_submit("m", in, ro))
      greedy_tickets.push_back(std::move(*t));
    else
      ++greedy_rejections;
  }
  // The polite tenant's traffic rides through unharmed.
  std::vector<serve::Ticket> polite_tickets;
  for (int i = 0; i < 6; ++i) {
    serve::RequestOptions ro;
    ro.tenant = "polite";
    polite_tickets.push_back(server.submit(
        "m", data::random_stream({1, 8, 8, 4}, 0.1, 950 + i), ro));
  }
  for (auto& t : polite_tickets) EXPECT_GT(t.wait().cycles, 0u);
  server.drain();

  const serve::ServerStats st = server.stats();
  const TenantStats& polite = tenant_stats(st, "polite");
  EXPECT_EQ(polite.completed, 6u);
  EXPECT_EQ(polite.failed, 0u);
  const TenantStats& greedy = tenant_stats(st, "greedy");
  EXPECT_GT(greedy_rejections, 0u);
  EXPECT_EQ(greedy.rejected, greedy_rejections);
  EXPECT_GT(greedy.shed, 0u);  // the dead-on-arrival half
  // Per-tenant drain invariant: everything admitted was answered.
  EXPECT_EQ(greedy.completed + greedy.failed, greedy.submitted);
  EXPECT_EQ(st.completed + st.failed, st.submitted);
}

TEST(TenantServerTest, SchedulingNeverChangesResults) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  const SneConfig hw = SneConfig::paper_design_point(2);

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 6; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 500 + s));
  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch(hw, *registry.get("m"), bo);
  std::vector<NetworkRunStats> ref;
  for (const auto& in : inputs) ref.push_back(batch.run_one(in));

  serve::ServeOptions so;
  so.engines = 2;
  so.memory_words = 1u << 20;
  so.warm_weights = false;  // strict tier: bitwise against the cold reference
  serve::InferenceServer server(registry, hw, so);
  TenantConfig heavy;
  heavy.weight = 4;
  server.register_tenant("heavy", heavy);
  TenantConfig light;
  light.weight = 1;
  server.register_tenant("light", light);

  // Interleave tenants; whatever the scheduler decides, input i's result
  // must equal the serial reference bitwise.
  std::vector<serve::Ticket> tickets(inputs.size());
  for (std::size_t i = inputs.size(); i-- > 0;) {
    serve::RequestOptions ro;
    ro.tenant = (i % 3 == 0) ? serve::kDefaultTenant
                             : (i % 3 == 1 ? "heavy" : "light");
    tickets[i] = server.submit("m", inputs[i], ro);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i)
    expect_equivalent(ref[i], tickets[i].wait());
  server.drain();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, inputs.size());
  for (const TenantStats& t : st.tenants)
    EXPECT_EQ(t.completed + t.failed, t.submitted) << t.name;
}

TEST(TenantServerTest, UnknownTenantIsAConfigError) {
  serve::ModelRegistry registry;
  registry.put("m", tiny_net());
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2),
                                so);
  serve::RequestOptions ro;
  ro.tenant = "ghost";
  EXPECT_THROW(
      server.submit("m", data::random_stream({1, 8, 8, 4}, 0.1, 1), ro),
      ConfigError);
}

// --- streaming sessions ------------------------------------------------------

ecnn::EnginePoolOptions session_pool_opts() {
  ecnn::EnginePoolOptions po;
  po.memory_words = 1u << 20;
  return po;
}

TEST(SessionTest, ChunkedRunMatchesOneShotFunctionally) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto full = data::random_stream({1, 16, 16, 12}, 0.08, 123);

  // One-shot pipeline reference over the concatenated stream.
  SneEngine engine(hw, 1u << 20);
  const auto geom = ecnn::build_pipeline(engine, net, 12);
  core::RunOptions ropts;
  ropts.out_geometry = geom;
  ropts.out_geometry.timesteps = 12;
  const core::RunResult ref = engine.run(
      full.with_control_events(event::FirePolicy::kActiveStepsOnly).to_beats(),
      ropts);

  // The same stream fed as three 4-timestep chunks through a session.
  ecnn::EnginePool pool(hw, 0, session_pool_opts());
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 12;
  serve::StreamingSession session(
      pool, std::make_shared<const QuantizedNetwork>(net), sopts);
  std::vector<std::tuple<int, int, int, int>> chunked;
  for (auto& chunk : split_chunks(full, 4)) {
    const NetworkRunStats r = session.feed(std::move(chunk)).wait();
    const auto spikes = spike_set(r.final_output);
    chunked.insert(chunked.end(), spikes.begin(), spikes.end());
  }
  std::sort(chunked.begin(), chunked.end());
  // Membrane integration carries across chunk boundaries: the union of the
  // chunk outputs is the one-shot spike set, event for event.
  EXPECT_EQ(chunked, spike_set(ref.output));
  session.close();
  const serve::SessionStats st = session.stats();
  EXPECT_EQ(st.chunks_completed, 3u);
  EXPECT_EQ(st.timesteps_consumed, 12u);
  EXPECT_TRUE(st.closed);
}

TEST(SessionTest, ChunkedReplayIsBitwiseAcrossSessions) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto full = data::random_stream({1, 16, 16, 12}, 0.1, 321);
  const auto model = std::make_shared<const QuantizedNetwork>(net);

  // Session A on a fresh pool.
  std::vector<NetworkRunStats> a;
  {
    ecnn::EnginePool pool(hw, 0, session_pool_opts());
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 16;
    serve::StreamingSession s(pool, model, sopts);
    for (auto& chunk : split_chunks(full, 4))
      a.push_back(s.feed(std::move(chunk)).wait());
  }
  // Session B on a pool whose engine served unrelated traffic first.
  std::vector<NetworkRunStats> b;
  {
    ecnn::EnginePool pool(hw, 0, session_pool_opts());
    {
      auto lease = pool.acquire();
      (void)lease.runner().run(three_layer_net(),
                               data::random_stream({1, 16, 16, 6}, 0.1, 5));
    }
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 16;
    serve::StreamingSession s(pool, model, sopts);
    for (auto& chunk : split_chunks(full, 4))
      b.push_back(s.feed(std::move(chunk)).wait());
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_equivalent(a[i], b[i]);
}

TEST(SessionTest, CrashLosesOnlyTheInflightChunk) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto full = data::random_stream({1, 16, 16, 12}, 0.1, 456);
  const auto model = std::make_shared<const QuantizedNetwork>(net);
  auto chunks = split_chunks(full, 4);
  ASSERT_EQ(chunks.size(), 3u);

  // Reference session: fed chunks 0 and 2 only (chunk 1 never happened).
  std::vector<NetworkRunStats> ref;
  {
    ecnn::EnginePool pool(hw, 0, session_pool_opts());
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 12;
    serve::StreamingSession s(pool, model, sopts);
    ref.push_back(s.feed(chunks[0]).wait());
    ref.push_back(s.feed(chunks[2]).wait());
  }

  // Victim session: chunk 1's dispatch is killed by an injected fault. The
  // session quarantines that chunk's engine, the next chunk restores the
  // snapshot — and chunks 0/2 come out bitwise identical to the undisturbed
  // reference.
  ecnn::EnginePool pool(hw, 0, session_pool_opts());
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 12;
  serve::StreamingSession s(pool, model, sopts);

  const NetworkRunStats r0 = s.feed(chunks[0]).wait();
  {
    faults::FaultConfig fc;
    fc.seed = 9;
    fc.rules.push_back({"serve.session.chunk", {1}, 0.0, 0.0});
    faults::ScopedFaults chaos(fc);
    try {
      (void)s.feed(chunks[1]).wait();
      FAIL() << "chunk 1 should have failed";
    } catch (const serve::ChunkError& e) {
      // Diagnosable: names the failed timestep range and the rollback point.
      EXPECT_NE(std::string(e.what()).find("[4, 8)"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("rolled back to timestep 4"),
                std::string::npos)
          << e.what();
    }
  }
  const NetworkRunStats r2 = s.feed(chunks[2]).wait();
  expect_equivalent(ref[0], r0);
  expect_equivalent(ref[1], r2);

  s.close();
  const serve::SessionStats st = s.stats();
  EXPECT_EQ(st.chunks_completed, 2u);
  EXPECT_EQ(st.chunks_failed, 1u);
  EXPECT_EQ(st.timesteps_consumed, 8u);
  const ecnn::EnginePool::Stats ps = pool.stats();
  EXPECT_EQ(ps.quarantined, 1u);  // the poisoned engine was discarded
}

/// A chunk's beats as a session runs it: control events compiled in (the
/// RST only on the first chunk) and rebased onto session time `t0`.
std::vector<event::Beat> session_beats(const event::EventStream& chunk,
                                       std::uint16_t t0) {
  const event::EventStream ctl = chunk.with_control_events(
      event::FirePolicy::kActiveStepsOnly, /*initial_reset=*/t0 == 0);
  event::StreamGeometry g = chunk.geometry();
  g.timesteps = static_cast<std::uint16_t>(t0 + g.timesteps);
  event::EventStream abs(g);
  for (event::Event e : ctl.events()) {
    e.t = static_cast<std::uint16_t>(e.t + t0);
    abs.push(e);
  }
  return abs.to_beats();
}

TEST(SessionTest, RestoredEngineContinuesTheRunBitwise) {
  // The engine that ran chunk i-1 and a second engine, reset, programmed
  // with the same pipeline and restored from the snapshot after chunk i-1,
  // must run chunk i identically. Each slice's collector arbitration rewinds at the
  // start pulse, so no grant order carries across runs (a dense stream
  // makes same-timestep collector contention certain).
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  constexpr std::uint16_t kChunk = 4;
  const auto full = data::random_stream({1, 16, 16, 8 * kChunk}, 0.2, 808);
  const auto chunks = split_chunks(full, kChunk);
  const ecnn::PipelinePlan plan = ecnn::plan_pipeline(hw, net, 8 * kChunk);

  SneEngine uninterrupted(hw, 1u << 20);
  ecnn::program_pipeline(uninterrupted, plan);
  SneEngine restored(hw, 1u << 20);
  SneEngine::NeuronState snapshot;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto t0 = static_cast<std::uint16_t>(i * kChunk);
    const auto beats = session_beats(chunks[i], t0);
    core::RunOptions ro;
    ro.out_geometry = plan.out_geometry;
    ro.out_geometry.timesteps = static_cast<std::uint16_t>(t0 + kChunk);
    const core::RunResult ref = uninterrupted.run(beats, ro);
    if (i > 0) {
      restored.reset();
      ecnn::program_pipeline(restored, plan);
      restored.restore_neuron_state(snapshot);
      const core::RunResult got = restored.run(beats, ro);
      EXPECT_EQ(ref.cycles, got.cycles) << "chunk " << i;
      EXPECT_TRUE(ref.counters == got.counters) << "chunk " << i;
      EXPECT_TRUE(ref.output == got.output) << "chunk " << i;
    }
    uninterrupted.save_neuron_state(snapshot);
  }
}

TEST(SessionTest, DenseStreamSurvivesAnEarlyCrashBitwise) {
  // At ~20 % activity, chunk 1 crashes; every later chunk must be bitwise
  // what an undisturbed session fed the same surviving chunks answers.
  const auto model = std::make_shared<const QuantizedNetwork>(pipeline_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto chunks =
      split_chunks(data::random_stream({1, 16, 16, 40}, 0.2, 909), 4);
  ASSERT_EQ(chunks.size(), 10u);
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 40;

  ecnn::EnginePool pool(hw, 0, session_pool_opts());
  std::vector<NetworkRunStats> ref;
  {
    serve::StreamingSession s(pool, model, sopts);
    for (std::size_t i = 0; i < chunks.size(); ++i)
      if (i != 1) ref.push_back(s.feed(chunks[i]).wait());
  }
  std::vector<NetworkRunStats> got;
  {
    serve::StreamingSession s(pool, model, sopts);
    faults::FaultConfig fc;
    fc.rules.push_back({"serve.session.chunk", {2}, 0.0, 0.0});
    faults::ScopedFaults chaos(fc);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      serve::Ticket t = s.feed(chunks[i]);
      if (i == 1) {
        EXPECT_THROW(t.wait(), serve::ChunkError);
        continue;
      }
      got.push_back(t.wait());
    }
  }
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    SCOPED_TRACE("surviving chunk " + std::to_string(k));
    expect_equivalent(ref[k], got[k]);
  }
  EXPECT_EQ(pool.stats().quarantined, 1u);
}

TEST(SessionTest, HeartbeatTimeoutExpiresIdleSessions) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(hw, 0, session_pool_opts());
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 12;
  sopts.heartbeat_timeout_ms = 80.0;
  serve::StreamingSession s(
      pool, std::make_shared<const QuantizedNetwork>(net), sopts);

  const auto full = data::random_stream({1, 16, 16, 4}, 0.1, 99);
  EXPECT_GT(s.feed(full).wait().cycles, 0u);
  // Heartbeats keep it alive past several timeout windows...
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    s.heartbeat();
  }
  EXPECT_FALSE(s.closed());
  // ...then silence expires it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!s.closed() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(s.closed());
  EXPECT_TRUE(s.stats().expired);
  EXPECT_THROW(s.feed(data::random_stream({1, 16, 16, 4}, 0.1, 100)),
               serve::SessionClosed);
  EXPECT_THROW(s.heartbeat(), serve::SessionClosed);
}

TEST(SessionTest, HorizonExhaustionIsDiagnosable) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(hw, 0, session_pool_opts());
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 8;
  serve::StreamingSession s(
      pool, std::make_shared<const QuantizedNetwork>(net), sopts);
  const auto chunk = data::random_stream({1, 16, 16, 4}, 0.1, 11);
  EXPECT_GT(s.feed(chunk).wait().cycles, 0u);
  EXPECT_GT(s.feed(chunk).wait().cycles, 0u);
  // The session clock is spent; the chunk fails, the session survives.
  EXPECT_THROW(s.feed(chunk).wait(), serve::ChunkError);
  EXPECT_FALSE(s.closed());
  EXPECT_EQ(s.stats().timesteps_consumed, 8u);
}

TEST(SessionTest, HorizonIsBoundedByTheEventClock) {
  // Chunks are rebased onto the session clock and event timestamps are
  // 8-bit, so the clock holds exactly kMaxTime + 1 = 256 steps.
  const auto model = std::make_shared<const QuantizedNetwork>(pipeline_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(hw, 0, session_pool_opts());
  serve::SessionOptions sopts;
  EXPECT_EQ(sopts.horizon_timesteps, event::kMaxTime + 1);
  serve::SessionOptions too_long;
  too_long.horizon_timesteps = event::kMaxTime + 2;
  EXPECT_THROW(serve::StreamingSession(pool, model, too_long), ConfigError);

  serve::StreamingSession s(pool, model, sopts);
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_GT(s.feed(data::random_stream({1, 16, 16, 16}, 0.05, 300 + i))
                  .wait()
                  .cycles,
              0u)
        << "chunk " << i;
  EXPECT_EQ(s.stats().timesteps_consumed, 256u);
  EXPECT_EQ(s.stats().chunks_failed, 0u);
}

// --- server-managed sessions -------------------------------------------------

TEST(TenantServerTest, SessionQuotaAndEviction) {
  serve::ModelRegistry registry;
  registry.put("p", pipeline_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ServeOptions so;
  so.engines = 2;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);
  TenantConfig cfg;
  cfg.max_sessions = 1;
  server.register_tenant("streamer", cfg);

  serve::SessionOptions sopts;
  sopts.tenant = "streamer";
  sopts.horizon_timesteps = 12;
  auto session = server.open_session("p", sopts);
  EXPECT_THROW(server.open_session("p", sopts), serve::TenantOverload);
  EXPECT_THROW(
      server.open_session("nope", serve::SessionOptions{}), ConfigError);
  {
    serve::SessionOptions ghost;
    ghost.tenant = "ghost";
    EXPECT_THROW(server.open_session("p", ghost), ConfigError);
  }

  const auto chunk = data::random_stream({1, 16, 16, 4}, 0.1, 66);
  EXPECT_GT(session->feed(chunk).wait().cycles, 0u);

  // Eviction closes the tenant's sessions and refuses its future traffic.
  server.evict_tenant("streamer");
  EXPECT_TRUE(session->closed());
  EXPECT_THROW(session->feed(chunk), serve::SessionClosed);
  serve::RequestOptions ro;
  ro.tenant = "streamer";
  EXPECT_THROW(server.submit("p", chunk, ro), ConfigError);
  EXPECT_THROW(server.evict_tenant("streamer"), ConfigError);  // gone
  EXPECT_THROW(server.evict_tenant(serve::kDefaultTenant), ConfigError);

  const serve::ServerStats st = server.stats();
  const TenantStats& ts = tenant_stats(st, "streamer");
  EXPECT_EQ(ts.sessions_opened, 1u);
  EXPECT_EQ(ts.sessions_closed, 1u);
  EXPECT_EQ(ts.chunks_completed, 1u);
  // The freed quota slot is not reusable — the tenant itself is gone.
  serve::SessionOptions again;
  again.tenant = "streamer";
  EXPECT_THROW(server.open_session("p", again), ConfigError);
}

TEST(TenantServerTest, ServerSessionMatchesStandaloneAndNeverBlocksFeed) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  std::vector<event::EventStream> chunks;
  for (std::uint64_t i = 0; i < 10; ++i)
    chunks.push_back(data::random_stream({1, 16, 16, 4}, 0.1, 500 + i));
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 40;

  // Serial reference: a standalone session runs chunks inline.
  std::vector<NetworkRunStats> ref;
  {
    ecnn::EnginePool pool(hw, 0, session_pool_opts());
    serve::StreamingSession s(
        pool, std::make_shared<const QuantizedNetwork>(net), sopts);
    for (std::size_t i = 0; i < 9; ++i) ref.push_back(s.feed(chunks[i]).wait());
  }

  serve::ModelRegistry registry;
  registry.put("p", net);
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);
  auto session = server.open_session("p", sopts);
  // The first chunk stalls on its worker: it runs while the next 8 fill
  // the session FIFO, and the 10th finds the FIFO full.
  faults::FaultConfig fc;
  fc.rules.push_back({"serve.session.chunk", {1}, 0.0, /*stall_ms=*/300.0});
  faults::ScopedFaults chaos(fc);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::Ticket> tickets;
  for (const auto& c : chunks) tickets.push_back(session->feed(c));
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(250))
      << "feed() blocked";
  ASSERT_TRUE(tickets[9].done());
  EXPECT_THROW(tickets[9].wait(), serve::DispatchRefused);
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_EQ(tickets[i].wait_for(std::chrono::seconds(30)),
              serve::Ticket::WaitStatus::kReady);
    expect_equivalent(ref[i], tickets[i].wait());
  }
  server.close_session(session);
  EXPECT_TRUE(session->closed());
  const serve::SessionStats st = session->stats();
  EXPECT_EQ(st.chunks_submitted, 9u);
  EXPECT_EQ(st.chunks_completed, 9u);
}

TEST(TenantServerTest, DefaultTenantSessionQuotaIs64) {
  serve::ModelRegistry registry;
  registry.put("p", pipeline_net());
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 16;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2),
                                so);
  // Opening plans only, so 64 sessions on one engine cost no simulation.
  std::vector<std::shared_ptr<serve::StreamingSession>> sessions;
  for (int i = 0; i < 64; ++i)
    sessions.push_back(server.open_session("p", serve::SessionOptions{}));
  EXPECT_THROW(server.open_session("p", serve::SessionOptions{}),
               serve::TenantOverload);
  server.close_session(sessions.back());
  sessions.pop_back();
  sessions.push_back(server.open_session("p", serve::SessionOptions{}));
  for (const auto& s : sessions) server.close_session(s);
}

/// The process's thread count (Threads: in /proc/self/status).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(TenantServerTest, SessionsRunOnDispatchWorkersWithoutThreads) {
  serve::ModelRegistry registry;
  registry.put("p", pipeline_net());
  serve::ServeOptions so;
  so.engines = 16;
  so.memory_words = 1u << 16;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2),
                                so);
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 12;
  std::vector<std::shared_ptr<serve::StreamingSession>> sessions;
  sessions.push_back(server.open_session("p", sopts));
  const int with_one = process_threads();
  ASSERT_GT(with_one, 0);
  for (int i = 1; i < 16; ++i) sessions.push_back(server.open_session("p", sopts));
  // Chunks of every session run on the server's dispatch workers.
  const auto chunk = data::random_stream({1, 16, 16, 4}, 0.1, 77);
  std::vector<serve::Ticket> tickets;
  for (const auto& s : sessions) tickets.push_back(s->feed(chunk));
  for (const serve::Ticket& t : tickets) {
    ASSERT_EQ(t.wait_for(std::chrono::seconds(30)),
              serve::Ticket::WaitStatus::kReady);
    EXPECT_GT(t.wait().cycles, 0u);
  }
  // A thread an earlier test joined can linger in the count for a moment,
  // so the count may fall here, but it must not grow with the sessions.
  EXPECT_LE(process_threads(), with_one);
  for (const auto& s : sessions) server.close_session(s);
  // Chunks count in the request ledger like one-shot requests.
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 16u);
  EXPECT_EQ(st.completed, 16u);
}

TEST(TenantServerTest, ThousandSessionsShareTwoEngines) {
  // Sessions hold no engine between chunks: 1000 of them open at once on a
  // two-engine server, every chunk bitwise equal to the standalone serial
  // reference, with no thread per session and the ledger closed.
  const QuantizedNetwork net = pipeline_net();
  const auto model = std::make_shared<const QuantizedNetwork>(net);
  const SneConfig hw = SneConfig::paper_design_point(2);
  constexpr std::size_t kSessions = 1000;
  constexpr std::size_t kStreams = 16;  // session i feeds stream i % kStreams
  constexpr std::size_t kChunks = 3;
  serve::SessionOptions sopts;
  sopts.tenant = "crowd";
  sopts.horizon_timesteps = 4 * kChunks;

  std::vector<std::vector<event::EventStream>> streams;
  std::vector<std::vector<NetworkRunStats>> ref;
  for (std::size_t k = 0; k < kStreams; ++k) {
    streams.push_back(split_chunks(
        data::random_stream({1, 16, 16, 4 * kChunks}, 0.05, 1000 + k), 4));
    ecnn::EnginePool pool(hw, 0, session_pool_opts());
    serve::StreamingSession s(pool, model, sopts);
    ref.emplace_back();
    for (const auto& c : streams[k]) ref[k].push_back(s.feed(c).wait());
  }

  serve::ModelRegistry registry;
  registry.put("p", net);
  serve::ServeOptions so;
  so.engines = 2;
  so.memory_words = 1u << 16;
  serve::InferenceServer server(registry, hw, so);
  TenantConfig cfg;
  cfg.max_sessions = kSessions;
  cfg.max_queue = kSessions;  // one chunk per session waits in the lane
  server.register_tenant("crowd", cfg);

  const int threads_before = process_threads();
  ASSERT_GT(threads_before, 0);
  std::vector<std::shared_ptr<serve::StreamingSession>> sessions;
  for (std::size_t i = 0; i < kSessions; ++i)
    sessions.push_back(server.open_session("p", sopts));
  // Interleaved: chunk c of every session is fed before chunk c + 1 of any.
  std::vector<std::vector<serve::Ticket>> tickets(kSessions);
  for (std::size_t c = 0; c < kChunks; ++c)
    for (std::size_t i = 0; i < kSessions; ++i)
      tickets[i].push_back(sessions[i]->feed(streams[i % kStreams][c]));
  for (std::size_t i = 0; i < kSessions; ++i)
    for (std::size_t c = 0; c < kChunks; ++c) {
      ASSERT_EQ(tickets[i][c].wait_for(std::chrono::seconds(120)),
                serve::Ticket::WaitStatus::kReady);
      const NetworkRunStats& got = tickets[i][c].wait();
      const NetworkRunStats& want = ref[i % kStreams][c];
      ASSERT_EQ(want.cycles, got.cycles) << "session " << i << " chunk " << c;
      ASSERT_TRUE(want.total == got.total) << "session " << i << " chunk " << c;
      ASSERT_TRUE(want.final_output == got.final_output)
          << "session " << i << " chunk " << c;
    }
  // A thread an earlier test joined can linger in the count for a moment,
  // so the count may fall here, but it must not grow with the sessions.
  EXPECT_LE(process_threads(), threads_before);
  for (const auto& s : sessions) server.close_session(s);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, kSessions * kChunks);
  EXPECT_EQ(st.completed, kSessions * kChunks);
  EXPECT_EQ(st.completed + st.failed, st.submitted);
  EXPECT_EQ(st.engines_constructed, 2u);
  const TenantStats& crowd = tenant_stats(st, "crowd");
  EXPECT_EQ(crowd.completed + crowd.failed, crowd.submitted);
}

}  // namespace
}  // namespace sne
