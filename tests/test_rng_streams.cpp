// Content-keyed stall-RNG regression suite.
//
// Under randomized memory contention (MemoryTiming::stall_probability > 0)
// every engine.run() draws its stalls from a stream keyed on the program
// *content* (FNV-1a over the beats): the draws depend only on (engine seed,
// program bytes), never on what ran before or where the run executes. That
// makes stalled results as reproducible as stall-free ones:
//
//   * results are invariant across batch worker counts, and equal to the
//     serial fresh-engine reference — which engine runs a sample stops
//     being observable;
//   * every front-end (BatchRunner, warm NetworkRunner, InferenceServer,
//     StreamingSession) accepts stall_probability > 0;
//   * warm runs keep the relaxed-tier arithmetic identity exactly, because
//     the skipped WLOAD programs drew from private streams the sample
//     programs never observe;
//   * a session that recovers from a crashed chunk mid-stream replays the
//     stalls of an undisturbed one.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/engine_pool.h"
#include "ecnn/runner.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"
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

QuantizedNetwork three_layer_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 8, 4, 11));
  net.layers.push_back(pool_layer(8, 16));
  net.layers.push_back(fc_layer(8, 8, 10, 13));
  return net;
}

/// Randomized contention timing. Stalls are long and frequent enough that
/// the input DMA FIFO cannot absorb them all — they show up in cycle
/// counts, so the invariance tests are not vacuous.
hwsim::MemoryTiming stall_timing() {
  hwsim::MemoryTiming t;
  t.latency_cycles = 6;
  t.stall_probability = 0.25;
  t.stall_cycles = 31;
  return t;
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

hwsim::ActivityCounters sum(hwsim::ActivityCounters a,
                            const hwsim::ActivityCounters& b) {
  a += b;
  return a;
}

TEST(RngStreamsTest, BatchWorkerCountInvariance) {
  // Same promise for the dataset runner: worker count and engine assignment
  // are unobservable under content-keyed stalls.
  const QuantizedNetwork net = three_layer_net();
  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 4; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 10}, 0.08, 660 + s));

  std::vector<std::vector<NetworkRunStats>> all;
  for (const unsigned workers : {1u, 2u, 4u}) {
    ecnn::BatchOptions bo;
    bo.workers = workers;
    bo.mem_timing = stall_timing();
    ecnn::BatchRunner batch(SneConfig::paper_design_point(2), net, bo);
    all.push_back(batch.run(inputs));
  }
  ASSERT_GT(all[0][0].cycles, 0u);
  for (std::size_t k = 1; k < all.size(); ++k) {
    ASSERT_EQ(all[0].size(), all[k].size());
    for (std::size_t i = 0; i < all[0].size(); ++i)
      expect_equivalent(all[0][i], all[k][i]);
  }
}

TEST(RngStreamsTest, FastForwardAndDrainBatchingStayExact) {
  // The compressed paths must consume each run's stream exactly like the
  // per-cycle reference: three-way bitwise equality under content-keyed
  // stalls (the stalled analogue of the DrainEquivalence suite).
  QuantizedLayerSpec l = conv_layer(1, 16, 8, 0, 71);
  for (auto& w : l.weights)
    w = static_cast<std::int8_t>(w <= 0 ? 1 : w);
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.15, 73);

  NetworkRunStats stats[3];
  int k = 0;
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = mode > 0;
    hw.drain_batching = mode > 1;
    SneEngine engine(hw, SneEngine::kDefaultMemoryWords, stall_timing());
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    stats[k++] = runner.run(net, in);
  }
  ASSERT_GT(stats[0].total.output_events, 0u);
  expect_equivalent(stats[0], stats[1]);
  expect_equivalent(stats[0], stats[2]);
}

TEST(RngStreamsTest, WarmWloadRelaxedTierUnderStreamSplit) {
  // WLOAD-streamed programming, randomized stalls, warm reuse. Content-keyed
  // streams make it sound — the WLOAD programs a warm run skips drew from
  // streams the sample program never touches, so the relaxed-tier
  // arithmetic identity (cold == warm + programming, exactly, no
  // tolerances) still holds.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 8, 4, 11));  // single round
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 51);
  const std::uint64_t fp = ecnn::model_fingerprint(net);
  ASSERT_NE(fp, 0u);
  const SneConfig hw = SneConfig::paper_design_point(2);

  SneEngine ref_engine(hw, SneEngine::kDefaultMemoryWords, stall_timing());
  NetworkRunner ref_runner(ref_engine, /*use_wload_stream=*/true);
  const NetworkRunStats ref = ref_runner.run(net, in);
  ASSERT_GT(ref.programming.weight_load_beats, 0u);

  SneEngine engine(hw, SneEngine::kDefaultMemoryWords, stall_timing());
  NetworkRunner runner(engine, /*use_wload_stream=*/true);
  const NetworkRunStats first =
      runner.run(net, in, event::FirePolicy::kActiveStepsOnly, fp);
  // No residency yet: fully cold, strict bitwise tier.
  expect_equivalent(ref, first);
  EXPECT_EQ(first.passes_warm, 0u);

  engine.reset_machine_state();
  const NetworkRunStats second =
      runner.run(net, in, event::FirePolicy::kActiveStepsOnly, fp);
  EXPECT_EQ(second.passes_warm, second.passes_total);
  EXPECT_GT(second.passes_warm, 0u);
  // Single-round layer: the programming phase vanishes entirely and the
  // delta is exactly the cold run's programming contribution.
  EXPECT_TRUE(second.programming == hwsim::ActivityCounters{});
  EXPECT_EQ(second.programming_cycles, 0u);
  EXPECT_EQ(second.cycles + ref.programming_cycles, ref.cycles);
  EXPECT_TRUE(sum(second.total, ref.programming) == ref.total)
      << "warm + programming != cold:\ncold: " << ref.total
      << "\nwarm: " << second.total << "\nprog: " << ref.programming;
  EXPECT_TRUE(second.final_output == ref.final_output);
}

TEST(RngStreamsTest, ServingFrontEndsAcceptStreamSplitStalls) {
  // Construction-time acceptance across the stack, plus a served request
  // matching the serial reference.
  const QuantizedNetwork net = three_layer_net();
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 680);

  SneEngine engine(hw, SneEngine::kDefaultMemoryWords, stall_timing());
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  const NetworkRunStats ref = runner.run(net, in);

  serve::ModelRegistry registry;
  registry.put("m", net);
  serve::ServeOptions so;
  so.engines = 2;
  so.mem_timing = stall_timing();
  so.warm_weights = false;  // strict comparison against the cold ref
  serve::InferenceServer server(registry, hw, so);
  expect_equivalent(ref, server.submit("m", in).wait());

  // Warm weight-resident leases with WLOAD-streamed programming under
  // stalls serve too.
  serve::ServeOptions warm = so;
  warm.warm_weights = true;
  warm.use_wload_stream = true;
  serve::InferenceServer warm_server(registry, hw, warm);
  EXPECT_GT(warm_server.submit("m", in).wait().cycles, 0u);
}

TEST(RngStreamsTest, SessionRecoveryReplaysStalls) {
  // A chunk that crashes mid-session quarantines its engine; the next chunk
  // leases another and restores the last good snapshot. Its stalls
  // are keyed by its own program, so every surviving chunk is bitwise
  // identical to the same chunks fed through an undisturbed session.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 4, 31));
  net.layers.push_back(conv_layer(2, 16, 2, 5, 32));
  const auto model = std::make_shared<const QuantizedNetwork>(net);
  const SneConfig hw = SneConfig::paper_design_point(2);
  std::vector<event::EventStream> chunks;
  for (std::uint64_t s = 0; s < 4; ++s)
    chunks.push_back(data::random_stream({1, 16, 16, 4}, 0.1, 700 + s));

  ecnn::EnginePoolOptions po;
  po.mem_timing = stall_timing();
  ecnn::EnginePool pool(hw, 0, po);
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = 16;

  std::vector<NetworkRunStats> survived;
  std::vector<std::size_t> survived_idx;
  serve::StreamingSession victim(pool, model, sopts);
  {
    faults::FaultConfig cfg;
    cfg.rules.push_back(faults::FaultRule{"serve.session.chunk", {2}, 0.0, 0.0});
    faults::ScopedFaults chaos(cfg);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      try {
        survived.push_back(victim.feed(chunks[i]).wait());
        survived_idx.push_back(i);
      } catch (const serve::ChunkError&) {
        EXPECT_EQ(i, 1u);
      }
    }
  }
  victim.close();
  ASSERT_EQ(survived_idx, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(pool.stats().quarantined, 1u);

  serve::StreamingSession replay(pool, model, sopts);
  ecnn::EnginePool quiet_pool(hw, 0);
  serve::StreamingSession quiet(quiet_pool, model, sopts);
  for (std::size_t k = 0; k < survived.size(); ++k) {
    const auto& chunk = chunks[survived_idx[k]];
    const NetworkRunStats r = replay.feed(chunk).wait();
    EXPECT_EQ(survived[k].cycles, r.cycles) << "survivor " << k;
    EXPECT_TRUE(survived[k].total == r.total) << "survivor " << k;
    EXPECT_TRUE(survived[k].final_output == r.final_output)
        << "survivor " << k;
    // Stalls actually happen, and change timing only.
    const NetworkRunStats q = quiet.feed(chunk).wait();
    EXPECT_GT(r.cycles, q.cycles) << "survivor " << k;
    EXPECT_EQ(testutil::canonical_spikes(r.final_output),
              testutil::canonical_spikes(q.final_output))
        << "survivor " << k;
  }
}

}  // namespace
}  // namespace sne
