// Engine-level integration tests beyond golden equivalence: pipeline mode,
// neuron-model variants, memory contention, multi-DMA output, error paths.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "test_util.h"

namespace sne {
namespace {

using testutil::canonical_spikes;

ecnn::QuantizedLayerSpec small_conv(Rng& rng, std::uint16_t in_ch = 1,
                                    std::uint16_t out_ch = 1) {
  ecnn::QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "x_conv";
  l.in_ch = in_ch;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = out_ch;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-1, 7));
  l.lif.v_th = 6;
  l.lif.leak = 1;
  return l;
}

TEST(PipelineBuilder, ThreeStageMatchesGolden) {
  Rng rng(808);
  ecnn::QuantizedNetwork net;
  net.layers.push_back(small_conv(rng));
  {
    ecnn::QuantizedLayerSpec pool;
    pool.type = ecnn::LayerSpec::Type::kPool;
    pool.name = "x_pool";
    pool.in_ch = 1;
    pool.in_w = 16;
    pool.in_h = 16;
    pool.out_ch = 1;
    pool.kernel = 2;
    pool.stride = 2;
    pool.lif.v_th = 0;
    net.layers.push_back(pool);
  }
  {
    auto c2 = small_conv(rng);
    c2.in_w = 8;
    c2.in_h = 8;
    c2.lif.v_th = 3;
    net.layers.push_back(c2);
  }
  const auto in = data::random_stream({1, 16, 16, 10}, 0.06, 117);

  core::SneConfig hw = core::SneConfig::paper_design_point(4);
  core::SneEngine engine(hw);
  core::RunOptions opts;
  opts.out_geometry = ecnn::build_pipeline(engine, net, 10);
  const auto r = engine.run(in, opts);

  const auto gold = ecnn::GoldenExecutor::run_network(net, in);
  EXPECT_EQ(canonical_spikes(r.output), canonical_spikes(gold.back().output));
}

TEST(PipelineBuilder, RejectsTooManyLayers) {
  Rng rng(1);
  ecnn::QuantizedNetwork net;
  for (int i = 0; i < 3; ++i) net.layers.push_back(small_conv(rng));
  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  core::SneEngine engine(hw);
  EXPECT_THROW(ecnn::build_pipeline(engine, net, 10), ConfigError);
}

TEST(PipelineBuilder, RejectsMultiPassLayers) {
  Rng rng(2);
  ecnn::QuantizedNetwork net;
  net.layers.push_back(small_conv(rng, 1, 40));  // 40 channels: multi-round
  core::SneConfig hw = core::SneConfig::paper_design_point(8);
  core::SneEngine engine(hw);
  EXPECT_THROW(ecnn::build_pipeline(engine, net, 10), ConfigError);
}

struct ModeParam {
  neuron::LeakMode leak_mode;
  neuron::ResetMode reset_mode;
  std::int32_t leak;
  event::FirePolicy policy;
};

class NeuronModeSweep : public ::testing::TestWithParam<ModeParam> {};

TEST_P(NeuronModeSweep, EngineMatchesGoldenForAllModes) {
  const ModeParam p = GetParam();
  Rng rng(31337);
  auto layer = small_conv(rng, 2, 3);
  layer.lif.leak = p.leak;
  layer.lif.leak_mode = p.leak_mode;
  layer.lif.reset_mode = p.reset_mode;
  const auto in = data::random_stream({2, 16, 16, 12}, 0.05, 4242);

  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  core::SneEngine engine(hw);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/true);
  ecnn::QuantizedNetwork net;
  net.layers.push_back(layer);
  const auto hw_stats = runner.run(net, in, p.policy);
  const auto gold = ecnn::GoldenExecutor::run_layer(layer, in, p.policy);
  EXPECT_EQ(canonical_spikes(hw_stats.final_output),
            canonical_spikes(gold.output));
}

INSTANTIATE_TEST_SUITE_P(
    LeakAndResetModes, NeuronModeSweep,
    ::testing::Values(
        ModeParam{neuron::LeakMode::kTowardZero, neuron::ResetMode::kToZero, 2,
                  event::FirePolicy::kActiveStepsOnly},
        ModeParam{neuron::LeakMode::kTowardZero,
                  neuron::ResetMode::kSubtractThreshold, 2,
                  event::FirePolicy::kActiveStepsOnly},
        ModeParam{neuron::LeakMode::kSubtractive, neuron::ResetMode::kToZero, 1,
                  event::FirePolicy::kEveryStep},
        ModeParam{neuron::LeakMode::kSubtractive,
                  neuron::ResetMode::kSubtractThreshold, 1,
                  event::FirePolicy::kEveryStep},
        ModeParam{neuron::LeakMode::kTowardZero, neuron::ResetMode::kToZero, 0,
                  event::FirePolicy::kActiveStepsOnly}));

TEST(EngineRobustness, MemoryContentionDoesNotChangeResults) {
  // Random DMA stalls change timing, never functionality.
  Rng rng(900);
  auto layer = small_conv(rng, 1, 2);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.05, 909);
  ecnn::QuantizedNetwork net;
  net.layers.push_back(layer);

  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  core::SneEngine fast(hw);
  ecnn::NetworkRunner fast_runner(fast, false);
  const auto a = fast_runner.run(net, in);

  hwsim::MemoryTiming contended;
  contended.latency_cycles = 9;
  contended.stall_probability = 0.25;
  contended.stall_cycles = 12;
  core::SneEngine slow(hw, 1u << 22, contended);
  ecnn::NetworkRunner slow_runner(slow, false);
  const auto b = slow_runner.run(net, in);

  EXPECT_EQ(canonical_spikes(a.final_output), canonical_spikes(b.final_output));
  EXPECT_GT(b.cycles, a.cycles);  // contention costs time, not correctness
}

TEST(EngineRobustness, MultiDmaOutputPreservesSpikeSet) {
  Rng rng(901);
  auto layer = small_conv(rng, 1, 2);
  layer.lif.v_th = 1;  // dense firing stresses the collector
  const auto in = data::random_stream({1, 16, 16, 8}, 0.08, 911);
  ecnn::QuantizedNetwork net;
  net.layers.push_back(layer);

  std::vector<event::Event> reference;
  std::uint64_t cycles_single = 0;
  for (std::uint32_t dmas : {1u, 2u, 4u}) {
    core::SneConfig hw = core::SneConfig::paper_design_point(2);
    hw.num_output_dmas = dmas;
    core::SneEngine engine(hw);
    ecnn::NetworkRunner runner(engine, false);
    const auto stats = runner.run(net, in);
    const auto spikes = canonical_spikes(stats.final_output);
    if (dmas == 1) {
      reference = spikes;
      cycles_single = stats.cycles;
    } else {
      EXPECT_EQ(spikes, reference);
      EXPECT_LE(stats.cycles, cycles_single);
    }
  }
}

TEST(EngineErrors, ConfigValidationRejectsEachBadDesignPoint) {
  EXPECT_NO_THROW(core::SneConfig::paper_design_point(1).validate());
  EXPECT_NO_THROW(core::SneConfig::paper_design_point(64).validate());
  const auto rejects = [](auto mutate) {
    core::SneConfig hw = core::SneConfig::paper_design_point(8);
    mutate(hw);
    EXPECT_THROW(hw.validate(), ConfigError);
  };
  rejects([](core::SneConfig& c) { c.num_slices = 0; });
  rejects([](core::SneConfig& c) { c.num_slices = 65; });
  rejects([](core::SneConfig& c) { c.cluster_fifo_depth = 0; });
  rejects([](core::SneConfig& c) { c.slice_in_fifo_depth = 0; });
  rejects([](core::SneConfig& c) { c.slice_out_fifo_depth = 0; });
  rejects([](core::SneConfig& c) { c.dma_fifo_depth = 0; });
  rejects([](core::SneConfig& c) { c.num_output_dmas = 0; });
  rejects([](core::SneConfig& c) { c.num_output_dmas = 17; });
  // The engine validates its design point at construction.
  core::SneConfig bad = core::SneConfig::paper_design_point(2);
  bad.num_output_dmas = 0;
  EXPECT_THROW(core::SneEngine{bad}, ConfigError);
}

TEST(EngineErrors, RunRejectsUnconfiguredRoute) {
  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  core::SneEngine engine(hw);
  engine.set_routes(core::XbarRoutes::time_multiplexed(2));
  event::EventStream in(event::StreamGeometry{1, 8, 8, 2});
  in.push_update(0, 0, 1, 1);
  EXPECT_THROW(engine.run(in), ConfigError);
}

TEST(EngineErrors, ProgramMustFitMemory) {
  core::SneConfig hw = core::SneConfig::paper_design_point(1);
  core::SneEngine engine(hw, /*memory_words=*/4096);
  core::SliceConfig cfg;
  cfg.kind = core::LayerKind::kConv;
  cfg.in_channels = 1;
  cfg.in_width = 8;
  cfg.in_height = 8;
  cfg.out_channels = 1;
  cfg.out_width = 8;
  cfg.out_height = 8;
  cfg.kernel_w = 3;
  cfg.kernel_h = 3;
  cfg.stride = 1;
  cfg.pad = 1;
  cfg.oc_per_slice = 1;
  cfg.lif.v_th = 10;
  cfg.clusters = core::make_tiled_mapping(8, 8, 0, 1);
  engine.configure_slice(0, cfg);
  std::vector<event::Beat> huge(3000, event::pack(event::Event::fire(0)));
  EXPECT_THROW(engine.run(huge), ConfigError);
}

TEST(EngineErrors, MaxCyclesGuardFires) {
  Rng rng(77);
  auto layer = small_conv(rng);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.05, 1);
  core::SneConfig hw = core::SneConfig::paper_design_point(1);
  core::SneEngine engine(hw);
  ecnn::Mapper mapper(hw);
  const auto plan = mapper.plan(layer, 8);
  engine.configure_slice(0, plan.rounds[0].passes[0].cfg);
  engine.set_routes(core::XbarRoutes::time_multiplexed(1));
  core::RunOptions opts;
  opts.max_cycles = 3;  // absurdly small: guard must trip, not hang
  EXPECT_THROW(engine.run(in.with_control_events().to_beats(), opts),
               ContractViolation);
}

TEST(EngineTotals, LifetimeCountersAccumulateAcrossRuns) {
  Rng rng(555);
  auto layer = small_conv(rng);
  const auto in = data::random_stream({1, 16, 16, 6}, 0.04, 2);
  core::SneConfig hw = core::SneConfig::paper_design_point(1);
  core::SneEngine engine(hw);
  ecnn::Mapper mapper(hw);
  const auto plan = mapper.plan(layer, 6);
  engine.configure_slice(0, plan.rounds[0].passes[0].cfg);
  engine.set_routes(core::XbarRoutes::time_multiplexed(1));
  const auto r1 = engine.run(in);
  const auto r2 = engine.run(in);
  EXPECT_EQ(engine.total_counters().cycles, r1.cycles + r2.cycles);
}

}  // namespace
}  // namespace sne
