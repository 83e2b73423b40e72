// Serving-runtime regression suite (sne::serve).
//
// The serving contract is strict bitwise determinism: a request's
// NetworkRunStats depends only on (model, input) — never on which pooled
// engine ran it, what ran on that engine before, the worker/engine count,
// the submission order, or whether weights were host-loaded or streamed
// over WLOAD. Every test here compares served results against the serial
// fresh-engine reference (BatchRunner::run_one / NetworkRunner) with the
// same equality the fast-forward suite uses: cycles, every ActivityCounters
// field, and exact output event sequences.
//
// Also covered: model checkpoints (exact round-trip, corruption rejection),
// the model registry, and engine reset (a reset engine is indistinguishable
// from a new one, including the memory contention-stall RNG).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/engine_pool.h"
#include "ecnn/runner.h"
#include "serve/checkpoint.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "test_util.h"

namespace sne {
namespace {

using core::SneConfig;
using core::SneEngine;
using ecnn::NetworkRunner;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;

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

/// conv -> pool -> fc chain (the pipeline-sharding workload). The conv's
/// out_ch fills more than one slice on a 2-slice design point, so rounds
/// with *concurrent* slice passes — where collector arbitration order is
/// observable — are part of every test that uses it.
QuantizedNetwork three_layer_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 8, 4, 11));
  net.layers.push_back(pool_layer(8, 16));
  net.layers.push_back(fc_layer(8, 8, 10, 13));
  return net;
}

void expect_equivalent(const NetworkRunStats& ref, const NetworkRunStats& got) {
  EXPECT_EQ(ref.cycles, got.cycles);
  EXPECT_TRUE(ref.total == got.total)
      << "counters diverge:\nref: " << ref.total << "\ngot: " << got.total;
  ASSERT_EQ(ref.layers.size(), got.layers.size());
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].cycles, got.layers[i].cycles) << "layer " << i;
    EXPECT_EQ(ref.layers[i].rounds, got.layers[i].rounds) << "layer " << i;
    EXPECT_EQ(ref.layers[i].input_events, got.layers[i].input_events)
        << "layer " << i;
    EXPECT_TRUE(ref.layers[i].counters == got.layers[i].counters)
        << "layer " << i;
    // Exact event sequence, not just the canonical spike set.
    EXPECT_TRUE(ref.layers[i].output == got.layers[i].output) << "layer " << i;
  }
  EXPECT_TRUE(ref.final_output == got.final_output);
}

hwsim::ActivityCounters sum(hwsim::ActivityCounters a,
                            const hwsim::ActivityCounters& b) {
  a += b;
  return a;
}

/// The relaxed equality tier of weight-resident (warm) serving: output event
/// sequences and spikes bitwise identical to the cold reference, and the
/// counter/cycle difference EXACTLY the programming phases' contribution —
/// an arithmetic identity (ref - ref.programming == got - got.programming,
/// asserted additively so nothing can underflow), not a tolerance.
void expect_warm_equivalent(const NetworkRunStats& ref,
                            const NetworkRunStats& got) {
  EXPECT_EQ(ref.cycles - ref.programming_cycles,
            got.cycles - got.programming_cycles);
  EXPECT_TRUE(sum(ref.total, got.programming) == sum(got.total, ref.programming))
      << "post-programming counters diverge:\nref: " << ref.total
      << "\nref prog: " << ref.programming << "\ngot: " << got.total
      << "\ngot prog: " << got.programming;
  ASSERT_EQ(ref.layers.size(), got.layers.size());
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    const auto& rl = ref.layers[i];
    const auto& gl = got.layers[i];
    EXPECT_EQ(rl.cycles - rl.programming_cycles,
              gl.cycles - gl.programming_cycles)
        << "layer " << i;
    EXPECT_EQ(rl.rounds, gl.rounds) << "layer " << i;
    EXPECT_EQ(rl.passes_total, gl.passes_total) << "layer " << i;
    EXPECT_EQ(rl.input_events, gl.input_events) << "layer " << i;
    EXPECT_TRUE(sum(rl.counters, gl.programming) ==
                sum(gl.counters, rl.programming))
        << "layer " << i;
    // Exact event sequence, not just the canonical spike set.
    EXPECT_TRUE(rl.output == gl.output) << "layer " << i;
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

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- checkpoints -------------------------------------------------------------

TEST(CheckpointTest, RoundTripIsExact) {
  QuantizedNetwork net = three_layer_net();
  // Exercise the non-default neuron modes and a non-trivial scale too.
  net.layers[0].lif.leak_mode = neuron::LeakMode::kSubtractive;
  net.layers[2].lif.reset_mode = neuron::ResetMode::kSubtractThreshold;
  net.layers[0].scale = 0.12345678901234567;
  const SneConfig hw = SneConfig::paper_design_point(2);
  const serve::CheckpointPlanMeta meta = serve::plan_metadata(net, hw, 12);

  const std::string path = temp_path("ckpt_roundtrip.snem");
  serve::save_model(net, path, &meta);
  const serve::ModelCheckpoint loaded = serve::load_model(path);

  ASSERT_EQ(loaded.net.layers.size(), net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const auto& a = net.layers[i];
    const auto& b = loaded.net.layers[i];
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.in_ch, b.in_ch) << i;
    EXPECT_EQ(a.in_w, b.in_w) << i;
    EXPECT_EQ(a.in_h, b.in_h) << i;
    EXPECT_EQ(a.out_ch, b.out_ch) << i;
    EXPECT_EQ(a.kernel, b.kernel) << i;
    EXPECT_EQ(a.stride, b.stride) << i;
    EXPECT_EQ(a.pad, b.pad) << i;
    EXPECT_EQ(a.lif.leak, b.lif.leak) << i;
    EXPECT_EQ(a.lif.v_th, b.lif.v_th) << i;
    EXPECT_EQ(a.lif.leak_mode, b.lif.leak_mode) << i;
    EXPECT_EQ(a.lif.reset_mode, b.lif.reset_mode) << i;
    // Bit-exact double round-trip, not approximate.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.scale),
              std::bit_cast<std::uint64_t>(b.scale))
        << i;
    EXPECT_EQ(a.weights, b.weights) << i;
  }
  ASSERT_TRUE(loaded.plan.has_value());
  EXPECT_EQ(loaded.plan->num_slices, meta.num_slices);
  EXPECT_EQ(loaded.plan->timesteps, meta.timesteps);
  ASSERT_EQ(loaded.plan->layers.size(), meta.layers.size());
  for (std::size_t i = 0; i < meta.layers.size(); ++i) {
    EXPECT_EQ(loaded.plan->layers[i].rounds, meta.layers[i].rounds) << i;
    EXPECT_EQ(loaded.plan->layers[i].passes, meta.layers[i].passes) << i;
    EXPECT_EQ(loaded.plan->layers[i].weight_beats, meta.layers[i].weight_beats)
        << i;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsCorruption) {
  const QuantizedNetwork net = three_layer_net();
  const std::string path = temp_path("ckpt_corrupt.snem");
  serve::save_model(net, path);
  const std::string good = slurp(path);
  ASSERT_GE(good.size(), 64u);

  // Truncation at any prefix must throw, never yield a partial network.
  for (const std::size_t cut : {std::size_t{3}, std::size_t{16},
                                good.size() / 2, good.size() - 4}) {
    spit(path, good.substr(0, cut));
    EXPECT_THROW(serve::load_model(path), ConfigError) << "cut " << cut;
  }
  // Overlong files (trailing bytes) are rejected too.
  spit(path, good + std::string(4, '\0'));
  EXPECT_THROW(serve::load_model(path), ConfigError);
  // Bad magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    spit(path, bad);
    EXPECT_THROW(serve::load_model(path), ConfigError);
  }
  // Unsupported version.
  {
    std::string bad = good;
    bad[4] = static_cast<char>(bad[4] + 1);
    spit(path, bad);
    EXPECT_THROW(serve::load_model(path), ConfigError);
  }
  // A flipped payload byte fails the checksum.
  {
    std::string bad = good;
    bad[good.size() / 2] = static_cast<char>(bad[good.size() / 2] ^ 0x40);
    spit(path, bad);
    EXPECT_THROW(serve::load_model(path), ConfigError);
  }
  // The pristine bytes still load.
  spit(path, good);
  EXPECT_NO_THROW(serve::load_model(path));
  std::remove(path.c_str());
}

TEST(CheckpointTest, TornWriteAtEveryWordBoundaryIsRejected) {
  // The format is a stream of 4-byte words: a torn write (crash mid-save
  // without the atomic-rename protocol) can cut the file at any section
  // boundary. Every word-aligned prefix must be rejected — header, plan
  // meta, each layer record, the weight payload, and the checksum word.
  const QuantizedNetwork net = three_layer_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  const serve::CheckpointPlanMeta meta = serve::plan_metadata(net, hw, 10);
  const std::string path = temp_path("ckpt_torn.snem");
  serve::save_model(net, path, &meta);
  const std::string good = slurp(path);
  ASSERT_EQ(good.size() % 4, 0u);
  for (std::size_t cut = 0; cut < good.size(); cut += 4) {
    spit(path, good.substr(0, cut));
    EXPECT_THROW(serve::load_model(path), ConfigError) << "cut " << cut;
  }
  spit(path, good);
  EXPECT_NO_THROW(serve::load_model(path));
  std::remove(path.c_str());
}

TEST(RegistryTest, FailedReloadKeepsLastGoodSnapshot) {
  // A corrupt checkpoint on a re-point must not take the name down: the
  // registry installs the new snapshot only after a fully successful load,
  // so the previous model keeps serving.
  const QuantizedNetwork net = three_layer_net();
  const std::string path = temp_path("ckpt_lastgood_corrupt.snem");
  serve::save_model(net, path);

  serve::ModelRegistry registry;
  registry.load_file("m", path);
  const auto before = registry.get("m");

  const std::string good = slurp(path);
  spit(path, good.substr(0, good.size() / 2));  // torn replacement file
  EXPECT_THROW(registry.load_file("m", path), ConfigError);
  EXPECT_EQ(registry.get("m"), before);  // the exact snapshot, not a copy

  spit(path, good);
  EXPECT_NO_THROW(registry.load_file("m", path));
  std::remove(path.c_str());
}

// --- registry ----------------------------------------------------------------

TEST(RegistryTest, NamedResidentModels) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_THROW(registry.get("missing"), ConfigError);
  EXPECT_EQ(registry.find("missing"), nullptr);

  registry.put("a", three_layer_net());
  QuantizedNetwork single;
  single.layers.push_back(conv_layer(1, 16, 2, 4, 21));
  const auto b = registry.put("b", std::move(single));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.get("a")->layers.size(), 3u);
  EXPECT_EQ(registry.get("b")->layers.size(), 1u);
  const auto names = registry.names();
  EXPECT_TRUE(std::find(names.begin(), names.end(), "a") != names.end());

  // Erase drops the name but in-flight snapshots stay alive.
  EXPECT_TRUE(registry.erase("b"));
  EXPECT_FALSE(registry.erase("b"));
  EXPECT_EQ(registry.find("b"), nullptr);
  EXPECT_EQ(b->layers.size(), 1u);  // snapshot still valid

  // Checkpoint -> registry hand-off.
  const std::string path = temp_path("ckpt_registry.snem");
  serve::save_model(*registry.get("a"), path);
  registry.load_file("a2", path);
  EXPECT_EQ(registry.get("a2")->layers.size(), 3u);
  std::remove(path.c_str());
}

// --- engine reset / pool -----------------------------------------------------

TEST(EngineResetTest, ResetEngineMatchesFreshIncludingStallRng) {
  const QuantizedNetwork net = three_layer_net();
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 31);
  SneConfig hw = SneConfig::paper_design_point(2);
  hwsim::MemoryTiming timing;
  timing.stall_probability = 0.3;  // randomized contention: RNG state matters

  SneEngine fresh(hw, 1u << 20, timing);
  NetworkRunner fresh_runner(fresh, /*use_wload_stream=*/false);
  const NetworkRunStats ref = fresh_runner.run(net, in);

  SneEngine reused(hw, 1u << 20, timing);
  NetworkRunner reused_runner(reused, /*use_wload_stream=*/false);
  (void)reused_runner.run(net, in);  // dirty the engine (incl. RNG state)
  reused.reset();
  const NetworkRunStats again = reused_runner.run(net, in);
  expect_equivalent(ref, again);
}

TEST(EnginePoolTest, LeasedEnginesAreBitwiseFresh) {
  const QuantizedNetwork net = three_layer_net();
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 37);
  const SneConfig hw = SneConfig::paper_design_point(2);

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch(hw, net, bo);
  const NetworkRunStats ref = batch.run_one(in);

  ecnn::EnginePool pool(
      hw, 1, ecnn::EnginePoolOptions{1u << 20, {}, false, /*max_engines=*/1});
  for (int round = 0; round < 3; ++round) {
    ecnn::EnginePool::Lease lease = pool.acquire();
    expect_equivalent(ref, lease.runner().run(net, in));
  }
  const ecnn::EnginePool::Stats ps = pool.stats();
  EXPECT_EQ(ps.constructed, 1u);  // one engine, reused every round
  EXPECT_EQ(ps.leases, 3u);
}

TEST(EnginePoolTest, TaggedAcquiresPreferResidentEngines) {
  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::EnginePool pool(
      hw, 2, ecnn::EnginePoolOptions{1u << 20, {}, false, /*max_engines=*/2});
  const std::uint64_t tag_a = 111, tag_b = 222;

  core::SneEngine* engine_a = nullptr;
  {
    ecnn::EnginePool::Lease lease = pool.acquire(tag_a);
    engine_a = &lease.engine();
  }
  {
    // Different model: must land on the still-untagged engine instead of
    // evicting A's residency.
    ecnn::EnginePool::Lease lease = pool.acquire(tag_b);
    EXPECT_NE(&lease.engine(), engine_a);
  }
  {
    // Same model again: back on A's engine, counted as a warm lease.
    ecnn::EnginePool::Lease lease = pool.acquire(tag_a);
    EXPECT_EQ(&lease.engine(), engine_a);
  }
  const ecnn::EnginePool::Stats ps = pool.stats();
  EXPECT_EQ(ps.constructed, 2u);
  EXPECT_EQ(ps.leases, 3u);
  EXPECT_EQ(ps.warm_leases, 1u);
}

TEST(BatchRunnerTest, PooledRunMatchesFreshUnderStallRng) {
  const QuantizedNetwork net = three_layer_net();
  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 4; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 400 + s));

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  bo.workers = 2;
  bo.mem_timing.stall_probability = 0.2;  // stalls reseed per program
  ecnn::BatchRunner runner(SneConfig::paper_design_point(2), net, bo);
  const auto pooled = runner.run(inputs);
  ASSERT_EQ(pooled.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    expect_equivalent(runner.run_one(inputs[i]), pooled[i]);
}

// --- async server ------------------------------------------------------------

TEST(ServerTest, ServedResultsMatchSerialReferenceAnyEngineCountAnyOrder) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  const SneConfig hw = SneConfig::paper_design_point(2);

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 8; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 500 + s));

  // Host-loaded and WLOAD-streamed programming: the streamed path runs
  // extra engine.run()s per pass, and serving must reproduce those too.
  for (const bool wload : {false, true}) {
    ecnn::BatchOptions bo;
    bo.memory_words = 1u << 20;
    bo.use_wload_stream = wload;
    ecnn::BatchRunner batch(hw, *registry.get("m"), bo);
    std::vector<NetworkRunStats> ref;
    for (const auto& in : inputs) ref.push_back(batch.run_one(in));
    // Only streamed programming costs engine cycles.
    ASSERT_EQ(ref[0].programming_cycles > 0, wload);

    for (const unsigned engines : {1u, 2u, 4u}) {
      serve::ServeOptions so;
      so.engines = engines;
      so.memory_words = 1u << 20;
      so.warm_weights = false;  // strict tier: reprogram every request
      so.use_wload_stream = wload;
      serve::InferenceServer server(registry, hw, so);
      // Reversed submission order: completion order and engine assignment
      // are load-dependent, results must not be.
      std::vector<serve::Ticket> tickets(inputs.size());
      for (std::size_t i = inputs.size(); i-- > 0;)
        tickets[i] = server.submit("m", inputs[i]);
      for (std::size_t i = 0; i < inputs.size(); ++i)
        expect_equivalent(ref[i], tickets[i].wait());

      const serve::ServerStats st = server.stats();
      EXPECT_EQ(st.submitted, inputs.size());
      EXPECT_EQ(st.completed, inputs.size());
      EXPECT_EQ(st.failed, 0u);
      EXPECT_EQ(st.engine_leases, inputs.size());
      EXPECT_LE(st.engines_constructed, engines);
      EXPECT_GT(st.total_sim_cycles, 0u);
      EXPECT_GE(st.latency_ms_p99, st.latency_ms_p50);
    }
  }
}

TEST(ServerTest, AdmissionAccountingAndUnknownModels) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);
  serve::TenantConfig narrow;
  narrow.max_queue = 1;
  server.register_tenant("narrow", narrow);
  serve::RequestOptions ro;
  ro.tenant = "narrow";

  EXPECT_THROW(
      server.submit("nope", data::random_stream({1, 16, 16, 4}, 0.1, 1), ro),
      ConfigError);

  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 600);
  std::vector<serve::Ticket> accepted;
  std::uint64_t rejections = 0;
  for (int i = 0; i < 32; ++i) {
    if (auto t = server.try_submit("m", in, ro))
      accepted.push_back(std::move(*t));
    else
      ++rejections;
  }
  for (const auto& t : accepted) (void)t.wait();
  server.drain();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, accepted.size());
  EXPECT_EQ(st.rejected, rejections);
  EXPECT_EQ(st.completed + st.failed, st.submitted);
  EXPECT_EQ(st.failed, 0u);
}

TEST(ServerTest, RequestFailureSurfacesOnTicketNotServer) {
  serve::ModelRegistry registry;
  registry.put("good", three_layer_net());
  // Output map wider than the event address space: rejected inside the
  // worker when the layer is programmed.
  QuantizedNetwork bad;
  bad.layers.push_back(conv_layer(1, 160, 1, 4, 5));
  registry.put("bad", std::move(bad));

  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ServeOptions so;
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);

  serve::Ticket t_bad =
      server.submit("bad", data::random_stream({1, 160, 160, 2}, 0.02, 3));
  serve::Ticket t_good =
      server.submit("good", data::random_stream({1, 16, 16, 10}, 0.08, 4));
  EXPECT_THROW(t_bad.wait(), ConfigError);
  EXPECT_GT(t_good.wait().cycles, 0u);  // server survived the failure
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
}

// --- weight-resident (warm) serving ------------------------------------------
//
// The relaxed equality tier: a warm run's outputs, spikes and
// post-programming counters are bitwise identical to the cold fresh-engine
// reference, and the warm-vs-cold counter/cycle delta equals the programming
// phase's contribution EXACTLY (expect_warm_equivalent pins the arithmetic
// identity; no tolerances anywhere).

TEST(WarmRunTest, WarmRunsObeyRelaxedTier) {
  const SneConfig hw = SneConfig::paper_design_point(2);
  for (const bool wload : {false, true}) {
    for (const bool multi_layer : {false, true}) {
      QuantizedNetwork net;
      if (multi_layer) {
        net = three_layer_net();
      } else {
        net.layers.push_back(conv_layer(1, 16, 8, 4, 11));  // single round
      }
      const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 51);
      const std::uint64_t fp = ecnn::model_fingerprint(net);
      ASSERT_NE(fp, 0u);

      SneEngine ref_engine(hw, 1u << 20);
      NetworkRunner ref_runner(ref_engine, wload);
      const NetworkRunStats ref = ref_runner.run(net, in);

      SneEngine engine(hw, 1u << 20);
      NetworkRunner runner(engine, wload);
      const NetworkRunStats first =
          runner.run(net, in, event::FirePolicy::kActiveStepsOnly, fp);
      // First warm-mode run finds no residency: strict bitwise tier.
      expect_equivalent(ref, first);
      EXPECT_EQ(first.passes_warm, 0u);

      engine.reset_machine_state();
      const NetworkRunStats second =
          runner.run(net, in, event::FirePolicy::kActiveStepsOnly, fp);
      expect_warm_equivalent(ref, second);
      EXPECT_GT(second.passes_warm, 0u) << "wload=" << wload;
      if (!multi_layer) {
        // A single-round layer stays fully resident: the whole programming
        // phase vanishes and the delta is exactly the cold run's programming.
        EXPECT_EQ(second.passes_warm, second.passes_total);
        EXPECT_TRUE(second.programming == hwsim::ActivityCounters{});
        EXPECT_EQ(second.programming_cycles, 0u);
        EXPECT_EQ(second.cycles + ref.programming_cycles, ref.cycles);
        EXPECT_TRUE(sum(second.total, ref.programming) == ref.total);
        if (wload) {
          EXPECT_GT(ref.programming.weight_load_beats, 0u);
        }
      }

      // Deploy-time programming: program_layer installs and tags passes
      // without consuming input, so even the first request can run warm.
      SneEngine primed(hw, 1u << 20);
      NetworkRunner primed_runner(primed, wload);
      for (std::size_t li = 0; li < net.layers.size(); ++li)
        primed_runner.program_layer(net.layers[li], in.geometry().timesteps,
                                    fp, li);
      primed.reset_machine_state();
      const NetworkRunStats first_primed =
          primed_runner.run(net, in, event::FirePolicy::kActiveStepsOnly, fp);
      expect_warm_equivalent(ref, first_primed);
      if (!multi_layer) {
        EXPECT_EQ(first_primed.passes_warm, first_primed.passes_total);
        EXPECT_EQ(first_primed.cycles, second.cycles);
      }
    }
  }
}

TEST(WarmRunTest, MachineResetColdRunsStayBitwiseFresh) {
  // Negative control for the reset split: a machine reset alone (programming
  // kept resident but no warm fingerprint passed) never changes a cold run's
  // bits — stale-configured slices are inert and stalls reseed per program.
  const QuantizedNetwork other = three_layer_net();
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 4, 3, 77));
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 31);
  const SneConfig hw = SneConfig::paper_design_point(2);
  hwsim::MemoryTiming timing;
  timing.stall_probability = 0.3;  // randomized contention: RNG state matters

  SneEngine fresh(hw, 1u << 20, timing);
  NetworkRunner fresh_runner(fresh, /*use_wload_stream=*/false);
  const NetworkRunStats ref = fresh_runner.run(net, in);

  SneEngine reused(hw, 1u << 20, timing);
  NetworkRunner reused_runner(reused, /*use_wload_stream=*/false);
  (void)reused_runner.run(other, in);  // dirty with a different model
  reused.reset_machine_state();
  expect_equivalent(ref, reused_runner.run(net, in));
}

TEST(WarmRunTest, ResidencyNeverCrossesModels) {
  const SneConfig hw = SneConfig::paper_design_point(2);
  QuantizedNetwork a, b;
  a.layers.push_back(conv_layer(1, 16, 8, 4, 11));
  b.layers.push_back(conv_layer(1, 16, 8, 4, 99));  // same shape, new weights
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 61);
  const std::uint64_t fa = ecnn::model_fingerprint(a);
  const std::uint64_t fb = ecnn::model_fingerprint(b);
  EXPECT_NE(fa, fb);

  SneEngine ref_engine(hw, 1u << 20);
  NetworkRunner ref_runner(ref_engine, /*use_wload_stream=*/false);
  const NetworkRunStats ref_b = ref_runner.run(b, in);

  SneEngine engine(hw, 1u << 20);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  (void)runner.run(a, in, event::FirePolicy::kActiveStepsOnly, fa);
  engine.reset_machine_state();
  // B must not inherit A's residency even though the slice shapes agree.
  const NetworkRunStats got_b =
      runner.run(b, in, event::FirePolicy::kActiveStepsOnly, fb);
  EXPECT_EQ(got_b.passes_warm, 0u);
  expect_equivalent(ref_b, got_b);  // fully cold => strict tier
}

TEST(ServerTest, WarmServingObeysRelaxedTierAndSkipsReprogramming) {
  serve::ModelRegistry registry;
  registry.put("m", three_layer_net());
  const SneConfig hw = SneConfig::paper_design_point(2);

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 8; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 520 + s));

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch(hw, *registry.get("m"), bo);
  std::vector<NetworkRunStats> ref;
  for (const auto& in : inputs) ref.push_back(batch.run_one(in));

  for (const unsigned engines : {1u, 2u}) {
    serve::ServeOptions so;  // warm_weights defaults on
    so.engines = engines;
    so.memory_words = 1u << 20;
    serve::InferenceServer server(registry, hw, so);
    std::vector<serve::Ticket> tickets(inputs.size());
    for (std::size_t i = inputs.size(); i-- > 0;)
      tickets[i] = server.submit("m", inputs[i]);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      expect_warm_equivalent(ref[i], tickets[i].wait());

    const serve::ServerStats st = server.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.failed, 0u);
    EXPECT_GT(st.passes_total, 0u);
    // Same model on a reused engine: residency must actually kick in.
    EXPECT_GT(st.passes_warm, 0u);
    EXPECT_GT(st.engine_warm_leases, 0u);
  }
}

TEST(ServerTest, WarmServingEliminatesWloadStreamingSteadyState) {
  // Single-round model over the streamed WLOAD path: from the second request
  // on, every pass is warm and the request carries zero programming.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 8, 4, 11));
  serve::ModelRegistry registry;
  registry.put("m", net);
  const SneConfig hw = SneConfig::paper_design_point(2);

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 4; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 540 + s));

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  bo.use_wload_stream = true;
  ecnn::BatchRunner batch(hw, net, bo);
  std::vector<NetworkRunStats> ref;
  for (const auto& in : inputs) ref.push_back(batch.run_one(in));
  ASSERT_GT(ref[0].programming.weight_load_beats, 0u);

  serve::ServeOptions so;
  so.engines = 1;  // sequential: requests after the first are fully warm
  so.memory_words = 1u << 20;
  so.use_wload_stream = true;
  serve::InferenceServer server(registry, hw, so);
  std::vector<serve::Ticket> tickets;
  for (const auto& in : inputs) tickets.push_back(server.submit("m", in));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const NetworkRunStats got = tickets[i].wait();
    expect_warm_equivalent(ref[i], got);
    if (i > 0) {
      EXPECT_EQ(got.passes_warm, got.passes_total) << "request " << i;
      EXPECT_EQ(got.total.weight_load_beats, 0u) << "request " << i;
      EXPECT_TRUE(got.programming == hwsim::ActivityCounters{});
    }
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.passes_warm,
            st.passes_total - ref[0].passes_total);  // all but request 0
}

TEST(ServerTest, SessionsAndWarmOneShotsShareOneEngine) {
  // One engine, warm weights on: one-shots of two models interleave with
  // chunks of two pipeline sessions. A session chunk reprograms slices
  // 0..L-1 of the engine it leases, so the per-slice residency tags must
  // make the next one-shot reprogram them; each answer equals its cold
  // reference (relaxed tier for one-shots, strict for session chunks).
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto pipe = [](std::uint64_t seed) {
    QuantizedNetwork net;
    net.layers.push_back(conv_layer(1, 16, 2, 4, seed));
    net.layers.push_back(conv_layer(2, 16, 2, 5, seed + 1));
    return net;
  };
  QuantizedNetwork b;
  b.layers.push_back(conv_layer(1, 16, 2, 4, 99));
  serve::ModelRegistry registry;
  registry.put("a", three_layer_net());
  registry.put("b", b);
  registry.put("p", pipe(31));
  registry.put("q", pipe(41));

  constexpr std::size_t kRounds = 3;
  std::vector<event::EventStream> one_shot, chunks_p, chunks_q;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    one_shot.push_back(data::random_stream({1, 16, 16, 6}, 0.08, 900 + r));
    chunks_p.push_back(data::random_stream({1, 16, 16, 4}, 0.1, 910 + r));
    chunks_q.push_back(data::random_stream({1, 16, 16, 4}, 0.1, 920 + r));
  }
  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  const auto cold = [&](const std::string& m) {
    ecnn::BatchRunner batch(hw, *registry.get(m), bo);
    std::vector<NetworkRunStats> out;
    for (const auto& in : one_shot) out.push_back(batch.run_one(in));
    return out;
  };
  const std::vector<NetworkRunStats> ref_a = cold("a"), ref_b = cold("b");
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 4 * kRounds;
  const auto serial = [&](const std::string& m,
                          const std::vector<event::EventStream>& chunks) {
    ecnn::EnginePoolOptions po;
    po.memory_words = 1u << 20;
    ecnn::EnginePool pool(hw, 0, po);
    serve::StreamingSession s(pool, registry.get(m), sopts);
    std::vector<NetworkRunStats> out;
    for (const auto& c : chunks) out.push_back(s.feed(c).wait());
    return out;
  };
  const std::vector<NetworkRunStats> ref_p = serial("p", chunks_p);
  const std::vector<NetworkRunStats> ref_q = serial("q", chunks_q);

  serve::ServeOptions so;  // warm_weights defaults on
  so.engines = 1;
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);
  auto sp = server.open_session("p", sopts);
  auto sq = server.open_session("q", sopts);
  for (std::size_t r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    // a twice: the second run finds a's weights resident and runs warm.
    expect_warm_equivalent(ref_a[r], server.submit("a", one_shot[r]).wait());
    expect_warm_equivalent(ref_a[r], server.submit("a", one_shot[r]).wait());
    expect_equivalent(ref_p[r], sp->feed(chunks_p[r]).wait());
    expect_warm_equivalent(ref_a[r], server.submit("a", one_shot[r]).wait());
    expect_warm_equivalent(ref_b[r], server.submit("b", one_shot[r]).wait());
    expect_equivalent(ref_q[r], sq->feed(chunks_q[r]).wait());
    expect_warm_equivalent(ref_b[r], server.submit("b", one_shot[r]).wait());
  }
  server.close_session(sp);
  server.close_session(sq);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.engines_constructed, 1u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.passes_warm, 0u);  // residency did kick in between sessions
}

TEST(RegistryTest, RepointUnderLoadKeepsServingTheResolvedSnapshot) {
  // Swapping a name while requests are in flight: requests admitted before
  // the re-point keep executing the old immutable snapshot, later
  // submissions see the new one, and cross-model weight residency never
  // bleeds between them (distinct fingerprints).
  QuantizedNetwork v1, v2;
  v1.layers.push_back(conv_layer(1, 16, 4, 4, 1));
  v2.layers.push_back(conv_layer(1, 16, 4, 4, 2));
  const SneConfig hw = SneConfig::paper_design_point(2);

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 6; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 640 + s));

  ecnn::BatchOptions bo;
  bo.memory_words = 1u << 20;
  ecnn::BatchRunner batch_v1(hw, v1, bo), batch_v2(hw, v2, bo);
  std::vector<NetworkRunStats> ref_v1, ref_v2;
  for (const auto& in : inputs) {
    ref_v1.push_back(batch_v1.run_one(in));
    ref_v2.push_back(batch_v2.run_one(in));
  }

  serve::ModelRegistry registry;
  registry.put("m", v1);
  serve::ServeOptions so;
  so.engines = 1;  // queue backs up: the re-point lands mid-flight
  so.memory_words = 1u << 20;
  serve::InferenceServer server(registry, hw, so);

  std::vector<serve::Ticket> t1;
  for (std::size_t i = 0; i < 3; ++i) t1.push_back(server.submit("m", inputs[i]));
  registry.put("m", v2);  // re-point while v1 requests are queued/running
  std::vector<serve::Ticket> t2;
  for (std::size_t i = 3; i < 6; ++i) t2.push_back(server.submit("m", inputs[i]));

  for (std::size_t i = 0; i < t1.size(); ++i)
    expect_warm_equivalent(ref_v1[i], t1[i].wait());
  for (std::size_t i = 0; i < t2.size(); ++i)
    expect_warm_equivalent(ref_v2[i + 3], t2[i].wait());
  EXPECT_EQ(server.stats().failed, 0u);
}

}  // namespace
}  // namespace sne
