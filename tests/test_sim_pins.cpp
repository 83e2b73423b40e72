// Pinned simulated numbers: what the machine computes, as literals.
//
// Every other equivalence suite compares one path with another (reference
// vs fast-forward, pooled vs serial, gateway vs in-process, restored vs
// continuous), so a change that moves timing in every path at once passes
// them all. This suite pins, for a few fixed scenarios, the simulated
// cycles, every ActivityCounters field, the EnergyReport split and a 64-bit
// FNV-1a digest of the output events. A change that moves any simulated bit
// fails here; a change that does so on purpose updates the literals in the
// same commit and names the mechanism. On a mismatch the failure message
// prints the whole pin as a ready-to-paste literal.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/rng.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/engine_pool.h"
#include "ecnn/layer.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "energy/energy_model.h"
#include "event/event.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"

namespace sne {
namespace {

using core::SneConfig;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;
using hwsim::ActivityCounters;

struct Pin {
  std::uint64_t cycles = 0;
  ActivityCounters counters;
  // EnergyReport split, pJ.
  double datapath_pj = 0.0;
  double control_pj = 0.0;
  double movement_pj = 0.0;
  double leakage_pj = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a over the output events
};

/// Folds a stream's events (packed beats) and its length into `h`.
std::uint64_t fold_events(std::uint64_t h, const event::EventStream& s) {
  for (const event::Event& e : s.events()) h = fnv64_step(h, event::pack(e));
  return fnv64_step(h, s.size());
}

Pin observe(const SneConfig& hw, std::uint64_t cycles,
            const ActivityCounters& counters, std::uint64_t digest) {
  const energy::EnergyReport e = energy::EnergyModel(hw).evaluate(counters);
  return Pin{cycles,        counters,     e.datapath_pj, e.control_pj,
             e.movement_pj, e.leakage_pj, digest};
}

/// Digest of every layer's output of a network run.
std::uint64_t run_digest(const NetworkRunStats& r) {
  std::uint64_t h = kFnv64Basis;
  for (const auto& l : r.layers) h = fold_events(h, l.output);
  return h;
}

Pin observe_run(const SneConfig& hw, const NetworkRunStats& r) {
  return observe(hw, r.cycles, r.total, run_digest(r));
}

/// The pin as a literal, in the layout this file uses.
std::string literal(const Pin& p) {
  const ActivityCounters& c = p.counters;
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{%lluull,\n {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
      "%llu, %llu, %llu, %llu,\n  %llu, %llu, %llu, %llu, %llu,\n  %llu, "
      "%llu, %llu, %llu, %llu},\n %.17g, %.17g, %.17g, %.17g,\n "
      "0x%016llxull}",
      static_cast<unsigned long long>(p.cycles),
      static_cast<unsigned long long>(c.cycles),
      static_cast<unsigned long long>(c.idle_cycles),
      static_cast<unsigned long long>(c.slice_busy_cycles),
      static_cast<unsigned long long>(c.neuron_updates),
      static_cast<unsigned long long>(c.leak_applications),
      static_cast<unsigned long long>(c.fire_checks),
      static_cast<unsigned long long>(c.fire_scans),
      static_cast<unsigned long long>(c.neuron_resets),
      static_cast<unsigned long long>(c.gated_cluster_cycles),
      static_cast<unsigned long long>(c.active_cluster_cycles),
      static_cast<unsigned long long>(c.state_reads),
      static_cast<unsigned long long>(c.state_writes),
      static_cast<unsigned long long>(c.timesteps_skipped),
      static_cast<unsigned long long>(c.events_consumed),
      static_cast<unsigned long long>(c.output_events),
      static_cast<unsigned long long>(c.fifo_pushes),
      static_cast<unsigned long long>(c.fifo_pops),
      static_cast<unsigned long long>(c.fifo_stall_cycles),
      static_cast<unsigned long long>(c.xbar_beats),
      static_cast<unsigned long long>(c.xbar_broadcast_beats),
      static_cast<unsigned long long>(c.dma_read_beats),
      static_cast<unsigned long long>(c.dma_write_beats),
      static_cast<unsigned long long>(c.weight_load_beats), p.datapath_pj,
      p.control_pj, p.movement_pj, p.leakage_pj,
      static_cast<unsigned long long>(p.digest));
  return buf;
}

void expect_pinned(const Pin& want, const Pin& got) {
  SCOPED_TRACE("observed pin:\n" + literal(got));
  EXPECT_EQ(want.cycles, got.cycles);
  EXPECT_TRUE(want.counters == got.counters)
      << "want: " << want.counters << "\ngot:  " << got.counters;
  // The split is a fixed function of the counters; a few ulps of slack keep
  // the pin independent of the optimizer's evaluation order.
  EXPECT_DOUBLE_EQ(want.datapath_pj, got.datapath_pj);
  EXPECT_DOUBLE_EQ(want.control_pj, got.control_pj);
  EXPECT_DOUBLE_EQ(want.movement_pj, got.movement_pj);
  EXPECT_DOUBLE_EQ(want.leakage_pj, got.leakage_pj);
  EXPECT_EQ(want.digest, got.digest);
}

// ActivityCounters literals below list the fields in declaration order:
//   cycles, idle_cycles, slice_busy_cycles, neuron_updates,
//   leak_applications, fire_checks, fire_scans, neuron_resets,
//   gated_cluster_cycles, active_cluster_cycles, state_reads, state_writes,
//   timesteps_skipped,
//   events_consumed, output_events, fifo_pushes, fifo_pops, fifo_stall_cycles,
//   xbar_beats, xbar_broadcast_beats, dma_read_beats, dma_write_beats,
//   weight_load_beats.

QuantizedLayerSpec conv(std::uint16_t in_ch, std::uint16_t size,
                        std::uint16_t out_ch, std::int32_t v_th,
                        std::int32_t lo, std::uint64_t seed) {
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
    w = static_cast<std::int8_t>(rng.uniform_int(lo, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

// The Fig. 6 network scaled to 32x32 on the 8-slice design point, with
// BM_GestureNetwork's (and perfbench gesture-offline's) weights and input:
// conv layers over all slices, pooling, and both FC sweeps.
TEST(SimPins, GestureNetworkOnEightSlices) {
  ecnn::Network topo = ecnn::Network::paper_topology(2, 32, 32, 11, 8, 64);
  Rng rng(99);
  for (auto& l : topo.layers) {
    for (auto& w : l.weights) w = static_cast<float>(rng.uniform(-0.3, 1.0));
    l.threshold = 2.0f;
    l.leak = 0.05f;
  }
  const QuantizedNetwork net = ecnn::quantize(topo);
  data::GestureConfig gcfg;
  gcfg.samples_per_class = 1;
  const data::Dataset ds = data::make_gesture_dataset(gcfg);

  const SneConfig hw = SneConfig::paper_design_point(8);
  core::SneEngine engine(hw);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  const NetworkRunStats r = runner.run(net, ds.samples.front().stream);

  const Pin want = {
      3112069,
      {3112069, 74, 4683806, 1012933, 0, 645350, 800, 16384, 43793424,
       11068374, 1658283, 1674667, 0, 92435, 66058, 377669, 377669, 75493,
       134949, 28147, 87524, 66874, 19449},
      996742.23959999986, 2432438.6200000001, 20099.709999999999,
      1556060.1745692499,
      0xef252d71d65e9087ull};
  expect_pinned(want, observe_run(hw, r));
}

// gateway-session's pipeline model (conv 1->2 -> conv 2->2 on 16x16, one
// slice per layer on the 2-slice design point) fed as 4-step chunks of one
// stream. The third chunk runs on a second engine (the first is held by
// another lease), reprogrammed and restored from the session's snapshot.
TEST(SimPins, SessionChunksWithOneOnARestoredEngine) {
  QuantizedNetwork net;
  net.layers.push_back(conv(1, 16, 2, 4, -4, 31));
  net.layers.push_back(conv(2, 16, 2, 5, -4, 32));
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto full = data::random_stream({1, 16, 16, 12}, 0.1, 4321);

  ecnn::EnginePool pool(hw, 0);
  serve::SessionOptions so;
  so.horizon_timesteps = 12;
  serve::StreamingSession session(
      pool, std::make_shared<const QuantizedNetwork>(net), so);

  std::uint64_t cycles = 0;
  ActivityCounters total;
  std::uint64_t h = kFnv64Basis;
  std::optional<ecnn::EnginePool::Lease> hold;
  for (std::uint16_t k = 0; k < 3; ++k) {
    event::EventStream chunk({1, 16, 16, 4});
    for (event::Event e : full.events())
      if (e.t / 4 == k) {
        e.t = static_cast<std::uint16_t>(e.t % 4);
        chunk.push(e);
      }
    if (k == 2) hold.emplace(pool.acquire());
    const NetworkRunStats r = session.feed(std::move(chunk)).wait();
    cycles += r.cycles;
    total += r.total;
    h = fnv64_step(fold_events(h, r.final_output), r.cycles);
  }
  EXPECT_EQ(pool.stats().constructed, 2u);

  const Pin want = {
      39329,
      {39329, 24, 67623, 15056, 0, 12288, 24, 2048, 235488, 124064, 27344,
       29392, 0, 899, 1874, 6302, 6302, 15937, 2214, 0, 314, 1289, 0},
      11315.3472, 33438.059999999998, 266.5, 5320.1616492500007,
      0x58887bdbaff21443ull};
  expect_pinned(want, observe(hw, cycles, total, h));
}

// A spike-dense conv layer (zero threshold, positive weights) over four
// slices with a slow, contended memory: the DMA stall pattern is keyed on
// the program's content, so it is part of what is pinned.
TEST(SimPins, DenseLayerUnderContentKeyedStalls) {
  QuantizedNetwork net;
  net.layers.push_back(conv(1, 16, 16, 0, 1, 5));
  const SneConfig hw = SneConfig::paper_design_point(4);
  hwsim::MemoryTiming timing;
  timing.latency_cycles = 9;
  timing.stall_probability = 0.25;
  timing.stall_cycles = 12;
  core::SneEngine engine(hw, core::SneEngine::kDefaultMemoryWords, timing);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  const NetworkRunStats r =
      runner.run(net, data::random_stream({1, 16, 16, 10}, 0.1, 177));

  const Pin want = {
      35951,
      {35951, 43, 143626, 33856, 0, 40960, 40, 4096, 542976, 285440, 74816,
       78912, 0, 1020, 23888, 73082, 73082, 87094, 24198, 266, 314, 23932, 48},
      27294.2592, 56745.619999999995, 3401.8000000000002, 9224.8019062499989,
      0x19ecc2f7ea3efabfull};
  expect_pinned(want, observe_run(hw, r));
}

// A conv layer with more output channels than one round carries (3->20 on
// 12x12 over 2 slices): the runner replays the input once per round and
// merges the rounds' outputs into one time-major stream, so the digest pins
// the order of that merge within each timestep.
TEST(SimPins, MultiRoundConvOnTwoSlices) {
  QuantizedNetwork net;
  net.layers.push_back(conv(3, 12, 20, 3, -3, 29));
  const SneConfig hw = SneConfig::paper_design_point(2);
  core::SneEngine engine(hw);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  const NetworkRunStats r =
      runner.run(net, data::random_stream({3, 12, 12, 8}, 0.05, 999));
  EXPECT_GT(r.layers.front().rounds, 1u);

  const Pin want = {
      33627,
      {33627, 33, 55942, 29800, 0, 23040, 40, 5120, 466560, 268160, 52840,
       57960, 0, 920, 8152, 26090, 26090, 8389, 8776, 386, 759, 8197, 180},
      23553.600000000002, 27989.540000000001, 1240.0799999999999,
      4548.8335777499997,
      0xe822d1ad83689275ull};
  expect_pinned(want, observe_run(hw, r));
}

// Weight-resident serving with WLOAD-streamed programming on one engine: the
// first request programs every pass over the C-XBAR, the second finds the
// last round's passes resident and skips their programming.
TEST(SimPins, WloadStreamedWarmServe) {
  QuantizedNetwork net;
  net.layers.push_back(conv(1, 16, 8, 4, -4, 11));
  {
    QuantizedLayerSpec pool;
    pool.type = ecnn::LayerSpec::Type::kPool;
    pool.name = "pool";
    pool.in_ch = 8;
    pool.in_w = 16;
    pool.in_h = 16;
    pool.out_ch = 8;
    pool.kernel = 2;
    pool.stride = 2;
    pool.pad = 0;
    pool.lif.v_th = 0;
    pool.lif.leak = 0;
    net.layers.push_back(pool);
  }
  {
    QuantizedLayerSpec fc;
    fc.type = ecnn::LayerSpec::Type::kFc;
    fc.name = "fc";
    fc.in_ch = 8;
    fc.in_w = 8;
    fc.in_h = 8;
    fc.out_ch = 10;
    fc.weights.resize(static_cast<std::size_t>(10) * fc.in_flat());
    Rng rng(13);
    for (auto& w : fc.weights)
      w = static_cast<std::int8_t>(rng.uniform_int(-7, 7));
    fc.lif.v_th = 6;
    fc.lif.leak = 1;
    net.layers.push_back(fc);
  }
  serve::ModelRegistry registry;
  registry.put("m", net);
  const SneConfig hw = SneConfig::paper_design_point(2);
  serve::ServeOptions so;
  so.engines = 1;
  so.use_wload_stream = true;
  serve::InferenceServer server(registry, hw, so);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.08, 51);
  const NetworkRunStats cold = server.submit("m", in).wait();
  const NetworkRunStats warm = server.submit("m", in).wait();
  EXPECT_EQ(cold.passes_warm, 0u);
  EXPECT_GT(warm.passes_warm, 0u);

  const Pin want_cold = {
      244365,
      {244365, 38, 255949, 34333, 0, 25700, 40, 4096, 1068240, 364180, 60033,
       64129, 0, 4645, 4222, 21950, 21950, 2135, 8747, 234, 7933, 4266, 3469},
      32113.813599999998, 155213.17999999999, 1449.95, 33056.047736250002,
      0x6d01f67220e6cf35ull};
  const Pin want_warm = {
      244348,
      {244348, 33, 255937, 34333, 0, 25700, 40, 4096, 1068240, 364180, 60033,
       64129, 0, 4645, 4222, 21926, 21926, 2135, 8735, 234, 7921, 4266, 3461},
      32113.813599999998, 155204.23999999999, 1448.27, 33053.748091000009,
      0x6d01f67220e6cf35ull};
  expect_pinned(want_cold, observe_run(hw, cold));
  expect_pinned(want_warm, observe_run(hw, warm));
}

}  // namespace
}  // namespace sne
