// Sequencer and receptive-field arithmetic tests.
#include <gtest/gtest.h>

#include <set>

#include "core/sequencer.h"

namespace sne::core {
namespace {

/// Brute-force reference for receptive_interval.
Interval brute_interval(int e, int kernel, int stride, int pad, int out) {
  Interval r;
  r.lo = out;
  r.hi = -1;
  for (int o = 0; o < out; ++o) {
    for (int k = 0; k < kernel; ++k) {
      if (o * stride - pad + k == e) {
        r.lo = std::min(r.lo, o);
        r.hi = std::max(r.hi, o);
      }
    }
  }
  if (r.hi < r.lo) return Interval{0, -1};
  return r;
}

TEST(ReceptiveInterval, MatchesBruteForce) {
  for (int kernel : {1, 2, 3, 4, 5, 7, 8})
    for (int stride : {1, 2, 3, 4})
      for (int pad : {0, 1, 2, 3})
        for (int out : {1, 4, 9, 16})
          for (int e = 0; e < 24; ++e) {
            const Interval got = receptive_interval(e, kernel, stride, pad, out);
            const Interval want = brute_interval(e, kernel, stride, pad, out);
            ASSERT_EQ(got.empty(), want.empty())
                << "k=" << kernel << " s=" << stride << " p=" << pad
                << " out=" << out << " e=" << e;
            if (!want.empty()) {
              ASSERT_EQ(got.lo, want.lo);
              ASSERT_EQ(got.hi, want.hi);
            }
          }
}

SliceConfig conv_cfg(std::uint16_t out_w, std::uint16_t out_h,
                     std::uint8_t kernel, std::uint8_t stride,
                     std::uint8_t pad) {
  SliceConfig cfg;
  cfg.kind = LayerKind::kConv;
  cfg.in_channels = 1;
  cfg.in_width = static_cast<std::uint16_t>(out_w * stride);
  cfg.in_height = static_cast<std::uint16_t>(out_h * stride);
  cfg.out_channels = 1;
  cfg.out_width = out_w;
  cfg.out_height = out_h;
  cfg.kernel_w = kernel;
  cfg.kernel_h = kernel;
  cfg.stride = stride;
  cfg.pad = pad;
  cfg.oc_per_slice = 1;
  cfg.clusters = make_tiled_mapping(out_w, out_h, 0, 1);
  return cfg;
}

TEST(SequencerTest, FixedSweepIsExactly48CyclesFor3x3) {
  // The paper's design point: 3x3 kernels, 8x8 tiles -> at most 6 distinct
  // local rows -> a constant 48-slot sweep.
  SneConfig hw = SneConfig::paper_design_point(1);
  Sequencer seq(hw);
  const SliceConfig cfg = conv_cfg(32, 32, 3, 1, 1);
  for (int ey = 0; ey < 32; ++ey) {
    const auto sched = seq.update_schedule(cfg, 10, ey);
    ASSERT_EQ(sched.size(), hw.update_sweep_cycles) << "ey=" << ey;
  }
}

TEST(SequencerTest, AdaptiveSweepIsShorterInTileInterior) {
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.adaptive_sequencer = true;
  Sequencer seq(hw);
  const SliceConfig cfg = conv_cfg(32, 32, 3, 1, 1);
  // Event deep inside a tile: RF spans 3 rows of a single tile band -> 24.
  const auto interior = seq.update_schedule(cfg, 10, 4);
  EXPECT_EQ(interior.size(), 24u);
  // Event at a tile boundary: rows split across two bands -> more rows.
  const auto boundary = seq.update_schedule(cfg, 10, 8);
  EXPECT_GT(boundary.size(), 0u);
  EXPECT_LE(boundary.size(), 48u);
}

TEST(SequencerTest, SweepCoversAllReceptiveRows) {
  // Every TDM slot whose neuron could be in the RF must appear in the sweep.
  SneConfig hw = SneConfig::paper_design_point(1);
  Sequencer seq(hw);
  for (std::uint8_t kernel : {1, 3, 5}) {
    const SliceConfig cfg =
        conv_cfg(32, 32, kernel, 1, static_cast<std::uint8_t>(kernel / 2));
    for (int ey = 0; ey < 32; ey += 3) {
      const auto sched = seq.update_schedule(cfg, 0, ey);
      std::set<std::uint16_t> slots(sched.begin(), sched.end());
      const Interval oy =
          receptive_interval(ey, kernel, 1, kernel / 2, cfg.out_height);
      for (const ClusterMapping& m : cfg.clusters) {
        if (!m.enabled) continue;
        for (int gy = oy.lo; gy <= oy.hi; ++gy) {
          if (gy < m.y_base ||
              gy >= m.y_base + static_cast<int>(hw.cluster_tile_height()))
            continue;
          const std::uint16_t row = static_cast<std::uint16_t>(gy - m.y_base);
          for (std::uint32_t ccol = 0; ccol < hw.cluster_tile_width; ++ccol)
            ASSERT_TRUE(slots.count(static_cast<std::uint16_t>(
                row * hw.cluster_tile_width + ccol)))
                << "kernel=" << int(kernel) << " ey=" << ey << " row=" << row;
        }
      }
    }
  }
}

TEST(SequencerTest, FcSweepVisitsAllSlots) {
  SneConfig hw = SneConfig::paper_design_point(1);
  Sequencer seq(hw);
  SliceConfig cfg;
  cfg.kind = LayerKind::kFc;
  const auto sched = seq.update_schedule(cfg, 0, 0);
  EXPECT_EQ(sched.size(), hw.neurons_per_cluster);
  std::set<std::uint16_t> slots(sched.begin(), sched.end());
  EXPECT_EQ(slots.size(), hw.neurons_per_cluster);
}

TEST(SequencerTest, FullScheduleForFireAndReset) {
  SneConfig hw = SneConfig::paper_design_point(1);
  Sequencer seq(hw);
  const auto full = seq.full_schedule();
  EXPECT_EQ(full.size(), 64u);
  EXPECT_EQ(full.front(), 0u);
  EXPECT_EQ(full.back(), 63u);
}

TEST(MappingHelpers, TiledMappingCoversWindow) {
  const auto maps = make_tiled_mapping(32, 32, 5, 1);
  std::set<std::pair<int, int>> bases;
  for (const auto& m : maps) {
    ASSERT_TRUE(m.enabled);
    EXPECT_EQ(m.out_channel, 5);
    bases.insert({m.x_base, m.y_base});
  }
  EXPECT_EQ(bases.size(), 16u);  // 4x4 distinct tiles
}

TEST(MappingHelpers, TiledMappingMultiChannel) {
  const auto maps = make_tiled_mapping(16, 16, 0, 4);
  // 2x2 tiles x 4 channels = 16 clusters, all enabled.
  int per_slot[4] = {0, 0, 0, 0};
  for (const auto& m : maps) {
    ASSERT_TRUE(m.enabled);
    per_slot[m.oc_slot]++;
  }
  for (int c : per_slot) EXPECT_EQ(c, 4);
}

TEST(MappingHelpers, TiledMappingRejectsOversizedWindow) {
  EXPECT_THROW(make_tiled_mapping(64, 64, 0, 1), ConfigError);
}

TEST(MappingHelpers, FcMappingDisablesPastEnd) {
  const auto maps = make_fc_mapping(0, 100);  // 100 outputs < 2*64
  EXPECT_TRUE(maps[0].enabled);
  EXPECT_TRUE(maps[1].enabled);   // covers ids 64..127 (partially used)
  EXPECT_FALSE(maps[2].enabled);  // 128 >= 100
}

}  // namespace
}  // namespace sne::core
