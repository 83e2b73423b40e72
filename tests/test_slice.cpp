// Slice-level microarchitecture tests: event timing, weight-load paths,
// clock gating, address filtering, register interface.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/regfile.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "test_util.h"

namespace sne::core {
namespace {

SliceConfig simple_conv_cfg() {
  SliceConfig cfg;
  cfg.kind = LayerKind::kConv;
  cfg.in_channels = 1;
  cfg.in_width = 32;
  cfg.in_height = 32;
  cfg.out_channels = 1;
  cfg.out_width = 32;
  cfg.out_height = 32;
  cfg.kernel_w = 3;
  cfg.kernel_h = 3;
  cfg.stride = 1;
  cfg.pad = 1;
  cfg.oc_per_slice = 1;
  cfg.lif.leak = 0;
  cfg.lif.v_th = 100;  // high threshold: no output spikes unless wanted
  cfg.clusters = make_tiled_mapping(32, 32, 0, 1);
  return cfg;
}

/// Loads a uniform kernel into every (ic, slot) weight set.
void load_uniform_kernel(Slice& slice, const SliceConfig& cfg, std::int8_t w) {
  for (std::uint32_t ic = 0; ic < cfg.in_channels; ++ic)
    for (std::uint32_t slot = 0; slot < cfg.oc_per_slice; ++slot)
      for (std::uint32_t k = 0;
           k < static_cast<std::uint32_t>(cfg.kernel_w) * cfg.kernel_h; ++k)
        slice.weights().write(ic * cfg.oc_per_slice + slot, k, w);
}

TEST(SliceTiming, BackToBackUpdatesCost48CyclesEach) {
  // "SNE takes 48 clock cycles to consume an input event" (IV-A.3): in
  // steady state, N broadcast UPDATE events occupy a slice for 48N cycles.
  SneConfig hw = SneConfig::paper_design_point(1);
  SneEngine engine(hw);
  engine.configure_slice(0, simple_conv_cfg());
  load_uniform_kernel(engine.slice(0), engine.slice(0).config(), 1);
  engine.set_routes(XbarRoutes::time_multiplexed(1));

  event::EventStream in(event::StreamGeometry{1, 32, 32, 1});
  const int n_events = 20;
  for (int i = 0; i < n_events; ++i)
    in.push_update(0, 0, static_cast<std::uint8_t>(5 + i % 8), 10);

  // No FIRE events: isolate pure UPDATE timing.
  const auto r = engine.run(in.to_beats());
  // events_consumed counts per-slice acceptances.
  EXPECT_EQ(r.counters.events_consumed, static_cast<std::uint64_t>(n_events));
  // Total cycles = DMA fill + decode fill + 48 * N + small drain; the
  // steady-state slope must be exactly 48.
  const double per_event =
      static_cast<double>(r.cycles) / static_cast<double>(n_events);
  EXPECT_NEAR(per_event, 48.0, 2.0);
}

TEST(SliceTiming, SingleBufferedStateDoublesUpdateOccupancy) {
  SneConfig fast = SneConfig::paper_design_point(1);
  SneConfig slow = fast;
  slow.double_buffered_state = false;

  event::EventStream in(event::StreamGeometry{1, 32, 32, 1});
  for (int i = 0; i < 10; ++i)
    in.push_update(0, 0, static_cast<std::uint8_t>(6 + i), 12);

  std::uint64_t cycles[2];
  int k = 0;
  for (const SneConfig& hw : {fast, slow}) {
    SneEngine engine(hw);
    engine.configure_slice(0, simple_conv_cfg());
    load_uniform_kernel(engine.slice(0), engine.slice(0).config(), 1);
    engine.set_routes(XbarRoutes::time_multiplexed(1));
    cycles[k++] = engine.run(in.to_beats()).cycles;
  }
  EXPECT_GT(cycles[1], cycles[0] * 1.8);
}

TEST(SliceCounters, ClockGatingCountsFilteredClusters) {
  // A 3x3 RF touches at most 4 of the 16 clusters; the rest are gated.
  SneConfig hw = SneConfig::paper_design_point(1);
  SneEngine engine(hw);
  engine.configure_slice(0, simple_conv_cfg());
  load_uniform_kernel(engine.slice(0), engine.slice(0).config(), 1);
  engine.set_routes(XbarRoutes::time_multiplexed(1));

  event::EventStream in(event::StreamGeometry{1, 32, 32, 1});
  in.push_update(0, 0, 4, 4);  // interior of cluster tile (0,0)
  const auto r = engine.run(in.to_beats());
  EXPECT_GT(r.counters.gated_cluster_cycles, 0u);
  // One event, tile-interior: exactly 1 cluster enabled, 15 gated, 48 cycles.
  EXPECT_EQ(r.counters.gated_cluster_cycles, 15u * 48u);
  EXPECT_EQ(r.counters.active_cluster_cycles, 48u);
  EXPECT_EQ(r.counters.neuron_updates, 9u);  // 3x3 RF
}

TEST(SliceCounters, GatingDisabledBurnsActiveCycles) {
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.clock_gating = false;
  SneEngine engine(hw);
  engine.configure_slice(0, simple_conv_cfg());
  load_uniform_kernel(engine.slice(0), engine.slice(0).config(), 1);
  engine.set_routes(XbarRoutes::time_multiplexed(1));
  event::EventStream in(event::StreamGeometry{1, 32, 32, 1});
  in.push_update(0, 0, 4, 4);
  const auto r = engine.run(in.to_beats());
  EXPECT_EQ(r.counters.gated_cluster_cycles, 0u);
  EXPECT_EQ(r.counters.active_cluster_cycles, 16u * 48u);
}

TEST(SliceFilter, OutOfRangeEventsDropAtDecode) {
  SneConfig hw = SneConfig::paper_design_point(1);
  SneEngine engine(hw);
  SliceConfig cfg = simple_conv_cfg();
  engine.configure_slice(0, cfg);
  engine.set_routes(XbarRoutes::time_multiplexed(1));
  event::EventStream in(event::StreamGeometry{4, 64, 64, 1});
  in.push_update(0, 3, 40, 40);  // channel 3 / position outside 32x32
  const auto r = engine.run(in.to_beats());
  EXPECT_EQ(r.counters.events_consumed, 0u);
  EXPECT_EQ(r.counters.neuron_updates, 0u);
}

TEST(SliceWeights, StreamedWloadEqualsHostLoad) {
  // Programming weights through WLOAD beats over the C-XBAR must install
  // exactly the same filter buffer as direct host writes.
  SneConfig hw = SneConfig::paper_design_point(1);
  Rng rng(123);
  std::vector<std::int8_t> codes(9);
  for (auto& c : codes) c = static_cast<std::int8_t>(rng.uniform_int(-8, 7));

  // Path A: host load.
  SneEngine a(hw);
  a.configure_slice(0, simple_conv_cfg());
  for (std::size_t k = 0; k < codes.size(); ++k)
    a.slice(0).weights().write(0, static_cast<std::uint32_t>(k), codes[k]);

  // Path B: WLOAD stream.
  SneEngine b(hw);
  b.configure_slice(0, simple_conv_cfg());
  b.set_routes(XbarRoutes::time_multiplexed(1));
  std::vector<event::Beat> prog;
  event::WeightHeader h;
  h.set_index = 0;
  h.group_offset = 0;
  h.payload_beats = 2;  // 9 weights -> 2 beats
  prog.push_back(event::pack(h));
  std::int8_t w0[8], w1[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 8; ++i) w0[i] = codes[static_cast<std::size_t>(i)];
  w1[0] = codes[8];
  prog.push_back(event::pack_weights(w0));
  prog.push_back(event::pack_weights(w1));
  const auto r = b.run(prog);
  EXPECT_EQ(r.counters.weight_load_beats, 2u);

  for (std::uint32_t k = 0; k < 9; ++k)
    EXPECT_EQ(a.slice(0).weights().read(0, k), b.slice(0).weights().read(0, k));
}

TEST(SliceFire, SpikesDrainThroughClusterFifosAndCollector) {
  SneConfig hw = SneConfig::paper_design_point(1);
  SneEngine engine(hw);
  SliceConfig cfg = simple_conv_cfg();
  cfg.lif.v_th = 0;  // every touched neuron fires
  engine.configure_slice(0, cfg);
  load_uniform_kernel(engine.slice(0), cfg, 7);
  engine.set_routes(XbarRoutes::time_multiplexed(1));

  event::EventStream in(event::StreamGeometry{1, 32, 32, 1});
  in.push_update(0, 0, 10, 10);
  const auto r = engine.run(in, {}, event::FirePolicy::kActiveStepsOnly);
  // 3x3 neighbourhood above threshold fires.
  EXPECT_EQ(r.counters.output_events, 9u);
  EXPECT_EQ(r.spikes().update_count(), 9u);
  EXPECT_GT(r.counters.fire_checks, 0u);
}

TEST(RegFileTest, GlobalRegistersReadOnly) {
  SneConfig hw = SneConfig::paper_design_point(4);
  RegisterFile regs(hw);
  EXPECT_EQ(regs.read(RegisterFile::kRegId), RegisterFile::kIdValue);
  EXPECT_EQ(regs.read(RegisterFile::kRegNumSlices), 4u);
  EXPECT_EQ(regs.read(RegisterFile::kRegClusters), 16u);
  EXPECT_EQ(regs.read(RegisterFile::kRegNeurons), 64u);
  EXPECT_THROW(regs.write(RegisterFile::kRegId, 1), ConfigError);
  EXPECT_THROW(regs.read(0x3), ConfigError);  // unaligned
}

TEST(RegFileTest, SliceConfigRoundTrip) {
  SneConfig hw = SneConfig::paper_design_point(2);
  RegisterFile regs(hw);
  SliceConfig cfg = simple_conv_cfg();
  cfg.lif.leak = 3;
  cfg.lif.v_th = -5;
  cfg.lif.reset_mode = neuron::ResetMode::kSubtractThreshold;
  regs.encode_slice(1, cfg, RegisterFile::MapMode::kTiled, /*map_param=*/0);
  EXPECT_TRUE(regs.consume_apply(1));
  EXPECT_FALSE(regs.consume_apply(1));  // W1C semantics
  const SliceConfig dec = regs.decode_slice(1);
  EXPECT_EQ(dec.kind, cfg.kind);
  EXPECT_EQ(dec.in_channels, cfg.in_channels);
  EXPECT_EQ(dec.out_width, cfg.out_width);
  EXPECT_EQ(dec.kernel_w, cfg.kernel_w);
  EXPECT_EQ(dec.stride, cfg.stride);
  EXPECT_EQ(dec.pad, cfg.pad);
  EXPECT_EQ(dec.lif.leak, cfg.lif.leak);
  EXPECT_EQ(dec.lif.v_th, cfg.lif.v_th);
  EXPECT_EQ(dec.lif.reset_mode, cfg.lif.reset_mode);
  ASSERT_EQ(dec.clusters.size(), cfg.clusters.size());
  for (std::size_t i = 0; i < dec.clusters.size(); ++i) {
    EXPECT_EQ(dec.clusters[i].x_base, cfg.clusters[i].x_base);
    EXPECT_EQ(dec.clusters[i].y_base, cfg.clusters[i].y_base);
    EXPECT_EQ(dec.clusters[i].enabled, cfg.clusters[i].enabled);
  }
}

TEST(RegFileTest, DecodedConfigDrivesSlice) {
  // Register-programmed configuration must be functionally identical to the
  // C++-API configuration.
  SneConfig hw = SneConfig::paper_design_point(1);
  RegisterFile regs(hw);
  SliceConfig cfg = simple_conv_cfg();
  cfg.lif.v_th = 0;
  regs.encode_slice(0, cfg, RegisterFile::MapMode::kTiled, 0);
  ASSERT_TRUE(regs.consume_apply(0));

  SneEngine engine(hw);
  engine.configure_slice(0, regs.decode_slice(0));
  load_uniform_kernel(engine.slice(0), cfg, 7);
  engine.set_routes(XbarRoutes::time_multiplexed(1));
  event::EventStream in(event::StreamGeometry{1, 32, 32, 1});
  in.push_update(0, 0, 10, 10);
  const auto r = engine.run(in);
  EXPECT_EQ(r.spikes().update_count(), 9u);
}

TEST(SliceConfigTest, ValidationRejectsBadGeometry) {
  SliceConfig cfg = simple_conv_cfg();
  cfg.kernel_w = 9;  // 9x3 > 64 would be fine; 9 wide is ok; make it > set
  cfg.kernel_h = 9;  // 81 > 64 weights per set
  EXPECT_THROW(cfg.validate(), ConfigError);

  SliceConfig cfg2 = simple_conv_cfg();
  cfg2.clusters.pop_back();
  EXPECT_THROW(cfg2.validate(), ConfigError);

  SliceConfig cfg3 = simple_conv_cfg();
  cfg3.in_channels = 200;
  cfg3.oc_per_slice = 2;  // 400 sets > 256
  EXPECT_THROW(cfg3.validate(), ConfigError);
}

TEST(XbarRoutesTest, Validation) {
  XbarRoutes r = XbarRoutes::pipeline(4);
  EXPECT_NO_THROW(r.validate(4));
  r.slice_dest[3].dest = 0;  // 0->1->2->3->0 cycle
  EXPECT_THROW(r.validate(4), ConfigError);
  XbarRoutes self = XbarRoutes::time_multiplexed(2);
  self.slice_dest[0].dest = 0;
  EXPECT_THROW(self.validate(2), ConfigError);
  XbarRoutes oob = XbarRoutes::time_multiplexed(2);
  oob.input_dest.push_back(7);
  EXPECT_THROW(oob.validate(2), ConfigError);
}

}  // namespace
}  // namespace sne::core
