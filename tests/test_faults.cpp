// Chaos suite: the serve stack under deterministic fault injection
// (sne::faults).
//
// Every hardening claim of the fault-tolerance layer is pinned here, with
// the same bitwise rigor as test_serve:
//
//  - a retried request's result is *bitwise identical* to the fault-free
//    run (strict tier): cycles, every ActivityCounters field, exact event
//    sequences — retries are invisible to the equivalence contract;
//  - a poisoned engine is never re-leased: the pool discards it and
//    constructs a replacement, without deadlocking even at max_engines=1;
//  - deadline-expired requests are shed (admission) or expired (queue)
//    without simulating anything, and the accounting stays consistent;
//  - an interrupted save_model leaves the previous checkpoint intact
//    (temp-then-rename), and a failed registry load keeps the last-good
//    snapshot serving.
//
// Determinism: the injector's fired-hit set is a pure function of
// (seed, site, hit index); tests that depend on *which request* observes a
// hit serialize dispatch (engines=1 / sequential submits) so the hit order
// is the submission order.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/engine_pool.h"
#include "ecnn/runner.h"
#include "serve/checkpoint.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/session.h"

namespace sne {
namespace {

using core::SneConfig;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;
using faults::FaultConfig;
using faults::FaultError;
using faults::FaultInjector;
using faults::FaultRule;
using faults::ScopedFaults;

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

/// conv -> conv chain that fits pipeline operating mode on the 2-slice
/// design point (what streaming sessions program).
QuantizedNetwork pipeline_net() {
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// One rule on one site, explicit 1-based hit indices.
FaultConfig hits_on(const char* site, std::vector<std::uint64_t> hits) {
  FaultConfig cfg;
  cfg.rules.push_back(FaultRule{site, std::move(hits), 0.0, 0.0});
  return cfg;
}

// --- the injector itself -----------------------------------------------------

TEST(FaultInjectorTest, ExplicitHitIndicesFireExactlyOnce) {
  ScopedFaults chaos(hits_on("test.site", {2, 4}));
  std::vector<int> threw;
  for (int i = 1; i <= 5; ++i) {
    try {
      faults::check("test.site");
    } catch (const FaultError& e) {
      threw.push_back(i);
      EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
    }
  }
  EXPECT_EQ(threw, (std::vector<int>{2, 4}));
  EXPECT_EQ(FaultInjector::instance().hits_seen("test.site"), 5u);
  EXPECT_EQ(FaultInjector::instance().fired("test.site"), 2u);
  // Unrelated sites never fire.
  EXPECT_NO_THROW(faults::check("test.other"));
}

TEST(FaultInjectorTest, SeededCoinIsReproducible) {
  // The probability decision is a pure function of (seed, site, hit index):
  // two runs with the same seed fire the same hit set; a different seed
  // fires a different one (with overwhelming probability at 100 draws).
  const auto fired_pattern = [](std::uint64_t seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.rules.push_back(FaultRule{"coin.site", {}, 0.3, 0.0});
    ScopedFaults chaos(cfg);
    std::vector<bool> pattern;
    for (int i = 0; i < 100; ++i) {
      try {
        faults::check("coin.site");
        pattern.push_back(false);
      } catch (const FaultError&) {
        pattern.push_back(true);
      }
    }
    return pattern;
  };
  const auto a = fired_pattern(7);
  EXPECT_EQ(a, fired_pattern(7));
  EXPECT_NE(a, fired_pattern(8));
  // ~30 of 100 should fire; a huge miss means the coin is broken.
  const auto fired = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fired, 10);
  EXPECT_LT(fired, 60);
}

TEST(FaultInjectorTest, DisarmedSitesAreFreeAndStatsSurvive) {
  {
    ScopedFaults chaos(hits_on("scoped.site", {1}));
    EXPECT_THROW(faults::check("scoped.site"), FaultError);
  }
  // ScopedFaults disarmed on destruction: nothing fires, hits stop counting,
  // but the last armed run's stats stay readable for assertions.
  EXPECT_FALSE(FaultInjector::instance().armed());
  EXPECT_NO_THROW(faults::check("scoped.site"));
  EXPECT_EQ(FaultInjector::instance().hits_seen("scoped.site"), 1u);
  EXPECT_EQ(FaultInjector::instance().fired("scoped.site"), 1u);
}

// --- tickets -----------------------------------------------------------------

TEST(TicketTest, WaitForReportsInFlightVersusReady) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  so.warm_weights = false;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2), so);
  // Stall the dispatch 80 ms: the ticket is observably in flight long
  // enough for the short wait_for below to time out deterministically.
  FaultConfig cfg;
  cfg.rules.push_back(FaultRule{"serve.server.dispatch", {1}, 0.0, 80.0});
  ScopedFaults chaos(cfg);
  serve::Ticket t =
      server.submit("m", data::random_stream({1, 16, 16, 10}, 0.08, 5));
  EXPECT_EQ(t.wait_for(std::chrono::milliseconds(1)),
            serve::Ticket::WaitStatus::kTimeout);
  EXPECT_EQ(t.wait_for(std::chrono::seconds(60)),
            serve::Ticket::WaitStatus::kReady);
  EXPECT_GT(t.wait().cycles, 0u);  // the stall delayed, never failed
}

// --- engine quarantine -------------------------------------------------------

TEST(QuarantineTest, PoisonedEngineIsDiscardedAndReplacedWithoutDeadlock) {
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(
      hw, 1, ecnn::EnginePoolOptions{1u << 20, {}, false, /*max_engines=*/1});
  {
    ecnn::EnginePool::Lease lease = pool.acquire();
    lease.poison();
  }
  ecnn::EnginePool::Stats ps = pool.stats();
  EXPECT_EQ(ps.quarantined, 1u);
  EXPECT_EQ(ps.discarded, 1u);
  // max_engines=1: this acquire would deadlock forever if the discard had
  // not freed the capacity slot. The replacement is a brand-new engine.
  ecnn::EnginePool::Lease lease = pool.acquire();
  ps = pool.stats();
  EXPECT_EQ(ps.constructed, 2u);
  EXPECT_EQ(ps.discarded, 1u);
}

TEST(QuarantineTest, ReleaseFaultQuarantinesInsteadOfThrowing) {
  // ecnn.pool.release fires on a noexcept path (~Lease): the pool must eat
  // the failure by quarantining, never by throwing through a destructor.
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(
      hw, 1, ecnn::EnginePoolOptions{1u << 20, {}, false, /*max_engines=*/1});
  ScopedFaults chaos(hits_on("ecnn.pool.release", {1}));
  EXPECT_NO_THROW({ ecnn::EnginePool::Lease lease = pool.acquire(); });
  const ecnn::EnginePool::Stats ps = pool.stats();
  EXPECT_EQ(ps.discarded, 1u);
  EXPECT_NO_THROW({ ecnn::EnginePool::Lease lease = pool.acquire(); });
  EXPECT_EQ(pool.stats().constructed, 2u);
}

TEST(QuarantineTest, AcquireFaultSurfacesAndPoolRecovers) {
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(
      hw, 1, ecnn::EnginePoolOptions{1u << 20, {}, false, /*max_engines=*/1});
  ScopedFaults chaos(hits_on("ecnn.pool.acquire", {1}));
  EXPECT_THROW((void)pool.acquire(), FaultError);
  EXPECT_NO_THROW({ ecnn::EnginePool::Lease lease = pool.acquire(); });
}

// --- server retry: bitwise-identical recovery --------------------------------

TEST(RetryTest, RetriedResultsAreBitwiseIdenticalToFaultFreeRun) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  const SneConfig hw = SneConfig::paper_design_point(2);

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 6; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 950 + s));

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch(hw, *registry.get("m"), bo);
  std::vector<NetworkRunStats> ref;
  for (const auto& in : inputs) ref.push_back(batch.run_one(in));

  serve::ServeOptions so;
  so.engines = 1;  // serialize dispatch: hit k == k-th dispatch attempt
  so.memory_words = 1u << 20;
  so.warm_weights = false;  // strict tier: retried results must be bitwise
  serve::InferenceServer server(registry, hw, so);

  // Requests 2 and 5 fail on their first dispatch attempt and retry on a
  // fresh engine (the failed hits consume indices, shifting later ones:
  // dispatch attempts are 1,2,3(=req2 retry),4,5,6,7(=req5 retry),8).
  ScopedFaults chaos(hits_on("serve.server.dispatch", {2, 6}));
  std::vector<serve::Ticket> tickets;
  for (const auto& in : inputs) tickets.push_back(server.submit("m", in));
  for (std::size_t i = 0; i < inputs.size(); ++i)
    expect_equivalent(ref[i], tickets[i].wait());

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, inputs.size());
  EXPECT_EQ(st.failed, 0u);  // every fault was absorbed by a retry
  EXPECT_EQ(st.retried, 2u);
  // Each throwing dispatch poisoned its lease: quarantined and replaced.
  EXPECT_EQ(st.engines_quarantined, 2u);
  EXPECT_EQ(st.engines_discarded, 2u);
  EXPECT_EQ(st.engines_constructed, 3u);  // 1 original + 2 replacements
}

TEST(RetryTest, MidRequestProgrammingFaultRecoversBitwise) {
  // The canonical "engine state now unknown" fault: weight programming
  // throws partway into a request, after some slices were already
  // programmed. The retry must start from a provably clean engine.
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 970);

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch(hw, *registry.get("m"), bo);
  const NetworkRunStats ref = batch.run_one(in);

  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  so.warm_weights = false;
  serve::InferenceServer server(registry, hw, so);

  // Measure how many programming calls one request makes (armed with no
  // rules: counting only), so the injected hit lands mid-request.
  {
    ScopedFaults counting(FaultConfig{});
    (void)server.submit("m", in).wait();
    server.drain();
  }
  const std::uint64_t per_request =
      FaultInjector::instance().hits_seen("ecnn.runner.program");
  ASSERT_GT(per_request, 1u) << "need a multi-pass model for this test";

  // Fail the *second* programming call of the next request: layer 0 is
  // already programmed when the fault hits.
  ScopedFaults chaos(hits_on("ecnn.runner.program", {2}));
  expect_equivalent(ref, server.submit("m", in).wait());
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.retried, 1u);
  EXPECT_EQ(st.engines_discarded, 1u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(RetryTest, ExhaustedBudgetFailsTicketAndServerSurvives) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  so.warm_weights = false;
  so.retry_budget = 2;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2), so);
  server.register_tenant("frail", serve::TenantConfig{});
  serve::RequestOptions ro;
  ro.tenant = "frail";
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 980);
  const auto frail = [&server] {
    for (const serve::TenantStats& t : server.stats().tenants)
      if (t.name == "frail") return t;
    ADD_FAILURE() << "tenant 'frail' missing from stats";
    return serve::TenantStats{};
  };

  {
    // Probability 1.0: every dispatch attempt fails; the budget runs out.
    FaultConfig cfg;
    cfg.rules.push_back(FaultRule{"serve.server.dispatch", {}, 1.0, 0.0});
    ScopedFaults chaos(cfg);
    serve::Ticket t = server.submit("m", in, ro);
    EXPECT_THROW(t.wait(), FaultError);
    const serve::ServerStats st = server.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.retried, 2u);  // exactly the budget, then gave up
    EXPECT_EQ(st.engines_discarded, 3u);  // initial attempt + 2 retries
    // The failure lands on the submitting tenant's ledger too.
    const serve::TenantStats ts = frail();
    EXPECT_EQ(ts.failed, 1u);
    EXPECT_EQ(ts.retried, 2u);
    EXPECT_EQ(ts.completed + ts.failed, ts.submitted);
  }
  // Chaos over: the same server serves the same request fine.
  EXPECT_GT(server.submit("m", in, ro).wait().cycles, 0u);
  EXPECT_EQ(server.stats().completed, 1u);
  const serve::TenantStats ts = frail();
  EXPECT_EQ(ts.completed, 1u);
  EXPECT_EQ(ts.failed, 1u);
  EXPECT_EQ(ts.completed + ts.failed, ts.submitted);
}

// --- deadlines ---------------------------------------------------------------

TEST(DeadlineTest, ExpiredAtAdmissionIsShedNotSimulated) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2), so);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 990);

  serve::RequestOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  serve::Ticket t = server.submit("m", in, expired);
  EXPECT_TRUE(t.done());  // failed synchronously, nothing enqueued
  EXPECT_THROW(t.wait(), serve::DeadlineExceeded);
  // try_submit sheds identically (an answered ticket, not a rejection).
  std::optional<serve::Ticket> t2 = server.try_submit("m", in, expired);
  ASSERT_TRUE(t2.has_value());
  EXPECT_THROW(t2->wait(), serve::DeadlineExceeded);

  server.drain();  // trivially: nothing was admitted
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.shed, 2u);
  EXPECT_EQ(st.submitted, 0u);  // shed requests are pre-admission
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.total_sim_cycles, 0u);  // never simulated
  // A request with a generous deadline still completes normally.
  EXPECT_GT(server
                .submit("m", in,
                        serve::RequestOptions::within(std::chrono::minutes(5)))
                .wait()
                .cycles,
            0u);
}

TEST(DeadlineTest, ExpiredInQueueFailsFastWithConsistentAccounting) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  serve::ServeOptions so;
  so.engines = 1;  // one worker: the stalled request blocks the queue
  so.memory_words = 1u << 20;
  so.warm_weights = false;
  serve::InferenceServer server(registry, SneConfig::paper_design_point(2), so);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 991);

  // Request 1 stalls 100 ms in dispatch; request 2's 20 ms budget burns in
  // the queue behind it and must expire pre-dispatch, never simulated.
  FaultConfig cfg;
  cfg.rules.push_back(FaultRule{"serve.server.dispatch", {1}, 0.0, 100.0});
  ScopedFaults chaos(cfg);
  serve::Ticket slow = server.submit("m", in);
  serve::Ticket doomed = server.submit(
      "m", in, serve::RequestOptions::within(std::chrono::milliseconds(20)));
  const NetworkRunStats slow_result = slow.wait();  // stalled but fine
  EXPECT_THROW(doomed.wait(), serve::DeadlineExceeded);

  server.drain();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 2u);  // both were admitted
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 1u);  // completed + failed == submitted
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.shed, 0u);
  // Only the completed request simulated anything.
  EXPECT_EQ(st.total_sim_cycles, slow_result.cycles);
}

// --- admission chaos under fair-share load -----------------------------------

TEST(AdmissionChaosTest, AdmitFaultsLeaveNoResidueUnderMultiTenantLoad) {
  const QuantizedNetwork net = three_layer_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ModelRegistry registry;
  registry.put("m", net);

  constexpr std::uint64_t kPerTenant = 8;
  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 3 * kPerTenant; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 700 + s));
  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch(hw, net, bo);
  std::vector<NetworkRunStats> ref;
  for (const auto& in : inputs) ref.push_back(batch.run_one(in));

  serve::ServeOptions so;
  so.engines = 2;
  so.memory_words = 1u << 20;
  so.warm_weights = false;  // strict tier for the survivors
  serve::InferenceServer server(registry, hw, so);
  for (const auto& [name, w] : {std::pair<const char*, unsigned>{"a", 1},
                                {"b", 2},
                                {"c", 4}}) {
    serve::TenantConfig cfg;
    cfg.weight = w;
    server.register_tenant(name, cfg);
  }

  // A crash in the front door itself: serve.server.admit fires *before* any
  // counting or queuing, so a faulted submit must leave zero residue — no
  // submitted tick, no queue entry, no ticket obligation. Sequential submits
  // from one thread make hit n = submission n (tenant (n-1) % 3).
  std::vector<std::optional<serve::Ticket>> tickets(inputs.size());
  std::uint64_t crashed = 0;
  {
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.rules.push_back(FaultRule{"serve.server.admit", {}, 0.3, 0.0});
    ScopedFaults chaos(cfg);
    const char* tenants[] = {"a", "b", "c"};
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      serve::RequestOptions ro;
      ro.tenant = tenants[i % 3];
      try {
        tickets[i] = server.submit("m", inputs[i], ro);
      } catch (const FaultError&) {
        ++crashed;
        // The crashed submit fired exactly at this hit; the fired set is a
        // pure function of (seed, site, hit index).
        EXPECT_LT(FaultInjector::coin(7, "serve.server.admit", i + 1), 0.3)
            << "submit " << i + 1 << " crashed off the seeded schedule";
      }
    }
    EXPECT_EQ(FaultInjector::instance().fired("serve.server.admit"), crashed);
  }
  ASSERT_GT(crashed, 0u);  // seed 7 fires 8 of these 24 hits
  ASSERT_LT(crashed, inputs.size());

  // Every surviving request completes bitwise against the serial reference —
  // admission chaos sheds traffic, it never corrupts what runs.
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (tickets[i]) expect_equivalent(ref[i], tickets[i]->wait());
  server.drain();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, inputs.size() - crashed);
  EXPECT_EQ(st.completed, inputs.size() - crashed);
  EXPECT_EQ(st.failed, 0u);
  std::uint64_t tenant_submitted = 0;
  for (const serve::TenantStats& t : st.tenants) {
    EXPECT_EQ(t.completed + t.failed, t.submitted) << t.name;
    tenant_submitted += t.submitted;
  }
  EXPECT_EQ(tenant_submitted, st.submitted);
}

// --- streaming-session chaos -------------------------------------------------

TEST(SessionChaosTest, ChunkFaultStormRecoversMidSessionBitwise) {
  const QuantizedNetwork net = pipeline_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto model = std::make_shared<const QuantizedNetwork>(net);
  const auto full = data::random_stream({1, 16, 16, 24}, 0.1, 640);
  auto chunks = split_chunks(full, 4);
  ASSERT_EQ(chunks.size(), 6u);

  // Seed 7 fires serve.session.chunk hits {2, 3, 6} at p = 0.35: a
  // consecutive double failure mid-session (restore, crash again, restore)
  // and a failure on the final chunk.
  const double p = 0.35;
  std::vector<std::size_t> fired;
  for (std::uint64_t n = 1; n <= chunks.size(); ++n)
    if (FaultInjector::coin(7, "serve.session.chunk", n) < p)
      fired.push_back(static_cast<std::size_t>(n - 1));
  ASSERT_EQ(fired, (std::vector<std::size_t>{1, 2, 5}));

  ecnn::EnginePoolOptions po;
  po.memory_words = 1u << 20;
  ecnn::EnginePool pool(hw, 0, po);
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 24;
  serve::StreamingSession victim(pool, model, sopts);
  std::vector<NetworkRunStats> survived;
  std::vector<std::size_t> survived_idx;
  {
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.rules.push_back(FaultRule{"serve.session.chunk", {}, p, 0.0});
    ScopedFaults chaos(cfg);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const bool expect_fault =
          std::find(fired.begin(), fired.end(), i) != fired.end();
      try {
        NetworkRunStats r = victim.feed(chunks[i]).wait();
        EXPECT_FALSE(expect_fault) << "chunk " << i << " should have crashed";
        survived.push_back(std::move(r));
        survived_idx.push_back(i);
      } catch (const serve::ChunkError& e) {
        EXPECT_TRUE(expect_fault) << "chunk " << i << " crashed off the "
                                  << "seeded schedule: " << e.what();
      }
    }
  }
  victim.close();

  // A failed chunk never advances the session clock, so the victim's spike
  // history is exactly "the surviving chunks, fed back to back" — replay
  // them through an undisturbed session and every survivor must be bitwise
  // identical (cycles, counters, events).
  serve::StreamingSession replay(pool, model, sopts);
  for (std::size_t k = 0; k < survived.size(); ++k) {
    const NetworkRunStats r = replay.feed(chunks[survived_idx[k]]).wait();
    EXPECT_EQ(survived[k].cycles, r.cycles) << "survivor " << k;
    EXPECT_TRUE(survived[k].total == r.total) << "survivor " << k;
    EXPECT_TRUE(survived[k].final_output == r.final_output)
        << "survivor " << k;
  }
  replay.close();

  const serve::SessionStats st = victim.stats();
  EXPECT_EQ(st.chunks_submitted, chunks.size());
  EXPECT_EQ(st.chunks_completed, chunks.size() - fired.size());
  EXPECT_EQ(st.chunks_failed, fired.size());
  EXPECT_EQ(st.timesteps_consumed, 4u * (chunks.size() - fired.size()));
  // Chunks 1, 2 and 5 each poisoned their lease: every poisoned engine was
  // discarded by the pool, never re-leased.
  EXPECT_EQ(pool.stats().quarantined, 3u);
}

// --- crash-consistent checkpoints --------------------------------------------

TEST(CheckpointChaosTest, FaultedSaveLeavesPreviousCheckpointIntact) {
  QuantizedNetwork v1, v2;
  v1.layers.push_back(conv_layer(1, 16, 4, 4, 1));
  v2.layers.push_back(conv_layer(1, 16, 4, 4, 2));
  const std::string path = temp_path("ckpt_atomic.snem");
  serve::save_model(v1, path);
  const std::string good = slurp(path);

  {
    // The fault fires in the window the protocol exists for: after the
    // temp file is fully written, before the rename.
    ScopedFaults chaos(hits_on("serve.checkpoint.write", {1}));
    EXPECT_THROW(serve::save_model(v2, path), FaultError);
  }
  // The original is untouched (byte-for-byte) and still loads; the temp
  // file was cleaned up.
  EXPECT_EQ(slurp(path), good);
  EXPECT_EQ(serve::load_model(path).net.layers[0].weights,
            v1.layers[0].weights);
  EXPECT_FALSE(file_exists(path + ".tmp"));

  // Chaos over: the save goes through and fully replaces the checkpoint.
  serve::save_model(v2, path);
  EXPECT_EQ(serve::load_model(path).net.layers[0].weights,
            v2.layers[0].weights);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointChaosTest, RegistryKeepsLastGoodSnapshotOnFaultedLoad) {
  QuantizedNetwork v1;
  v1.layers.push_back(conv_layer(1, 16, 4, 4, 1));
  const std::string path = temp_path("ckpt_lastgood.snem");
  serve::save_model(v1, path);

  serve::ModelRegistry registry;
  registry.load_file("m", path);
  const auto before = registry.get("m");

  {
    ScopedFaults chaos(hits_on("serve.checkpoint.read", {1}));
    EXPECT_THROW(registry.load_file("m", path), FaultError);
  }
  // The name still serves the exact snapshot it pointed to before.
  EXPECT_EQ(registry.get("m"), before);
  // And a clean reload works.
  EXPECT_NO_THROW(registry.load_file("m", path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sne
