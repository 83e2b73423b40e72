// Multi-layer tests: network chaining, runner-vs-golden equivalence on full
// networks, the pipeline operating mode, and topology shape checks.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "test_util.h"

namespace sne::ecnn {
namespace {

using testutil::canonical_spikes;

TEST(NetworkTopology, PaperTopologyShapesChain) {
  // Fig. 6 on a 144x144-equivalent input yields fc fan-in 9x9x32.
  const Network n = Network::paper_topology(2, 144, 144, 11);
  ASSERT_EQ(n.layers.size(), 7u);
  EXPECT_EQ(n.layers[0].out_w(), 144);
  EXPECT_EQ(n.layers[1].out_w(), 72);
  EXPECT_EQ(n.layers[3].out_w(), 36);
  EXPECT_EQ(n.layers[4].out_w(), 9);
  EXPECT_EQ(n.layers[5].in_flat(), 9u * 9u * 32u);
  EXPECT_EQ(n.layers[5].out_ch, 512);
  EXPECT_EQ(n.layers[6].out_ch, 11);
}

TEST(NetworkTopology, ValidateCatchesBrokenChain) {
  Network n = Network::paper_topology(2, 32, 32, 5, 8, 64);
  n.layers[2].in_w = 99;
  EXPECT_THROW(n.validate(), ConfigError);
}

TEST(FcShapeTest, Factorization) {
  EXPECT_EQ(fc_shape(11).channels, 11);
  EXPECT_EQ(fc_shape(11).width, 1);
  EXPECT_EQ(fc_shape(256).channels, 256);
  EXPECT_EQ(fc_shape(512).channels, 256);
  EXPECT_EQ(fc_shape(512).width, 2);
  EXPECT_EQ(fc_shape(1024).width, 4);
}

TEST(QuantizeNetwork, PoolLayersLowerToOrPooling) {
  const Network n = Network::paper_topology(2, 32, 32, 5, 4, 32);
  const QuantizedNetwork q = quantize(n);
  ASSERT_EQ(q.layers.size(), n.layers.size());
  EXPECT_EQ(q.layers[1].type, LayerSpec::Type::kPool);
  EXPECT_EQ(q.layers[1].lif.v_th, 0);
  EXPECT_EQ(q.layers[1].lif.leak, 0);
}

/// Builds a small random two-conv network for equivalence runs.
QuantizedNetwork small_net(Rng& rng) {
  QuantizedNetwork net;
  QuantizedLayerSpec c1;
  c1.type = LayerSpec::Type::kConv;
  c1.name = "c1";
  c1.in_ch = 2;
  c1.in_w = 16;
  c1.in_h = 16;
  c1.out_ch = 4;
  c1.kernel = 3;
  c1.stride = 1;
  c1.pad = 1;
  c1.weights.resize(4 * 2 * 9);
  for (auto& w : c1.weights) w = static_cast<std::int8_t>(rng.uniform_int(-2, 7));
  c1.lif.v_th = 6;
  c1.lif.leak = 1;

  QuantizedLayerSpec p1;
  p1.type = LayerSpec::Type::kPool;
  p1.name = "p1";
  p1.in_ch = 4;
  p1.in_w = 16;
  p1.in_h = 16;
  p1.out_ch = 4;
  p1.kernel = 2;
  p1.stride = 2;
  p1.pad = 0;
  p1.lif.v_th = 0;

  QuantizedLayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.name = "fc";
  fc.in_ch = 4;
  fc.in_w = 8;
  fc.in_h = 8;
  fc.out_ch = 5;
  fc.weights.resize(5u * 4u * 64u);
  for (auto& w : fc.weights) w = static_cast<std::int8_t>(rng.uniform_int(-3, 5));
  fc.lif.v_th = 20;
  fc.lif.leak = 0;

  net.layers = {c1, p1, fc};
  return net;
}

TEST(NetworkRunnerTest, FullNetworkMatchesGolden) {
  Rng rng(404);
  const QuantizedNetwork net = small_net(rng);
  const auto in = data::random_stream({2, 16, 16, 12}, 0.05, 2222);

  core::SneConfig hw = core::SneConfig::paper_design_point(4);
  core::SneEngine engine(hw);
  NetworkRunner runner(engine);
  const NetworkRunStats hw_stats = runner.run(net, in);
  const auto gold = GoldenExecutor::run_network(net, in);

  ASSERT_EQ(hw_stats.layers.size(), gold.size());
  for (std::size_t li = 0; li < gold.size(); ++li) {
    EXPECT_EQ(canonical_spikes(hw_stats.layers[li].output),
              canonical_spikes(gold[li].output))
        << "layer " << li;
    EXPECT_EQ(hw_stats.layers[li].input_events, gold[li].input_events);
  }
}

TEST(NetworkRunnerTest, PerLayerStatsAreCoherent) {
  Rng rng(405);
  const QuantizedNetwork net = small_net(rng);
  const auto in = data::random_stream({2, 16, 16, 10}, 0.04, 3333);
  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  core::SneEngine engine(hw);
  NetworkRunner runner(engine);
  const NetworkRunStats s = runner.run(net, in);
  EXPECT_EQ(s.layers.size(), 3u);
  EXPECT_EQ(s.layers[0].input_events, in.update_count());
  // Layer i+1 consumes layer i's output.
  EXPECT_EQ(s.layers[1].input_events, s.layers[0].output_events);
  EXPECT_EQ(s.layers[2].input_events, s.layers[1].output_events);
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.total.neuron_updates, 0u);
  // Paper-method analytic time is positive and uses 48 cycles/event.
  EXPECT_GT(s.paper_method_time_ms(hw.cycle_ns(), hw.update_sweep_cycles), 0.0);
}

TEST(PipelineMode, TwoStageChainMatchesGolden) {
  // Layer-per-slice pipeline (paper III-D.5, first operating mode): conv on
  // slice 0 streaming its spikes through the C-XBAR into pool on slice 1.
  Rng rng(606);
  QuantizedNetwork net;
  {
    QuantizedLayerSpec c1;
    c1.type = LayerSpec::Type::kConv;
    c1.name = "c1";
    c1.in_ch = 1;
    c1.in_w = 16;
    c1.in_h = 16;
    c1.out_ch = 1;
    c1.kernel = 3;
    c1.stride = 1;
    c1.pad = 1;
    c1.weights.resize(9);
    for (auto& w : c1.weights) w = static_cast<std::int8_t>(rng.uniform_int(1, 7));
    c1.lif.v_th = 5;
    c1.lif.leak = 0;
    QuantizedLayerSpec p1;
    p1.type = LayerSpec::Type::kPool;
    p1.name = "p1";
    p1.in_ch = 1;
    p1.in_w = 16;
    p1.in_h = 16;
    p1.out_ch = 1;
    p1.kernel = 2;
    p1.stride = 2;
    p1.pad = 0;
    p1.lif.v_th = 0;
    net.layers = {c1, p1};
  }
  const auto in = data::random_stream({1, 16, 16, 8}, 0.05, 4444);

  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  core::SneEngine engine(hw);
  Mapper mapper(hw);
  // Configure slice 0 with the conv pass and slice 1 with the pool pass.
  const LayerPlan conv_plan = mapper.plan(net.layers[0], 8);
  const LayerPlan pool_plan = mapper.plan(net.layers[1], 8);
  ASSERT_EQ(conv_plan.rounds.size(), 1u);
  ASSERT_EQ(pool_plan.rounds.size(), 1u);
  engine.configure_slice(0, conv_plan.rounds[0].passes[0].cfg);
  engine.configure_slice(1, pool_plan.rounds[0].passes[0].cfg);
  conv_plan.rounds[0].passes[0].write_weights(engine.slice(0).weights());
  pool_plan.rounds[0].passes[0].write_weights(engine.slice(1).weights());
  engine.set_routes(core::XbarRoutes::pipeline(2));

  core::RunOptions opts;
  opts.out_geometry = pool_plan.out_geometry;
  const auto r = engine.run(in, opts);

  const auto gold = GoldenExecutor::run_network(net, in);
  EXPECT_EQ(canonical_spikes(r.output), canonical_spikes(gold[1].output));
  // Both layers execute concurrently: total cycles must be well below the
  // serialized sum of two TM passes.
  EXPECT_GT(r.counters.xbar_beats, 0u);
}

TEST(MapperTest, ConvPlanRespectsBufferLimit) {
  Mapper mapper(core::SneConfig::paper_design_point(8));
  QuantizedLayerSpec l;
  l.type = LayerSpec::Type::kConv;
  l.in_ch = 32;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = 32;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(32) * 32 * 9);
  l.lif.v_th = 1;
  const LayerPlan plan = mapper.plan(l, 10);
  for (const Round& r : plan.rounds)
    for (const SlicePass& p : r.passes) {
      EXPECT_LE(static_cast<std::uint32_t>(p.cfg.in_channels) *
                    p.cfg.oc_per_slice,
                256u);
      EXPECT_NO_THROW(p.cfg.validate());
    }
  EXPECT_EQ(plan.out_geometry.channels, 32);
}

TEST(MapperTest, FcResidencySelection) {
  Mapper mapper(core::SneConfig::paper_design_point(1));
  QuantizedLayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.in_ch = 1;
  fc.in_w = 4;
  fc.in_h = 4;  // 16 positions -> resident
  fc.out_ch = 8;
  fc.weights.resize(8 * 16);
  fc.lif.v_th = 1;
  EXPECT_FALSE(
      mapper.plan(fc, 4).rounds[0].passes[0].cfg.fc_weights_streamed);
  fc.in_w = 8;  // 32 positions -> streamed
  fc.weights.resize(8 * 32);
  EXPECT_TRUE(mapper.plan(fc, 4).rounds[0].passes[0].cfg.fc_weights_streamed);
}

TEST(GoldenClassCounts, ReadoutDecodesShapedFcOutput) {
  event::EventStream out(event::StreamGeometry{5, 1, 1, 4});
  out.push_update(0, 3, 0, 0);
  out.push_update(1, 3, 0, 0);
  out.push_update(2, 1, 0, 0);
  const auto counts = GoldenExecutor::class_spike_counts(out, 5);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[0], 0u);
}

}  // namespace
}  // namespace sne::ecnn
