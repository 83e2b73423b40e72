// Mapper coverage properties: a layer plan must assign every output neuron
// of the layer to exactly one (pass, cluster, TDM slot) — no gaps (missing
// outputs) and no overlaps (double-counted membranes).
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/weight_memory.h"
#include "ecnn/mapper.h"

namespace sne::ecnn {
namespace {

struct CoverageParam {
  std::uint64_t seed;
  std::uint16_t in_ch, in_w, in_h, out_ch;
  std::uint8_t kernel, stride, pad;
  std::uint32_t slices;
};

class MapperCoverage : public ::testing::TestWithParam<CoverageParam> {};

TEST_P(MapperCoverage, EveryConvOutputCoveredExactlyOnce) {
  const CoverageParam p = GetParam();
  QuantizedLayerSpec l;
  l.type = LayerSpec::Type::kConv;
  l.name = "cov";
  l.in_ch = p.in_ch;
  l.in_w = p.in_w;
  l.in_h = p.in_h;
  l.out_ch = p.out_ch;
  l.kernel = p.kernel;
  l.stride = p.stride;
  l.pad = p.pad;
  l.weights.assign(static_cast<std::size_t>(p.out_ch) * p.in_ch * p.kernel *
                       p.kernel,
                   1);
  l.lif.v_th = 1;

  core::SneConfig hw = core::SneConfig::paper_design_point(p.slices);
  Mapper mapper(hw);
  const LayerPlan plan = mapper.plan(l, 4);

  const std::uint32_t tile_w = hw.cluster_tile_width;
  const std::uint32_t tile_h = hw.cluster_tile_height();
  // (oc, oy, ox) -> times covered.
  std::map<std::tuple<int, int, int>, int> covered;
  for (const Round& round : plan.rounds) {
    for (const SlicePass& pass : round.passes) {
      EXPECT_NO_THROW(pass.cfg.validate());
      for (const core::ClusterMapping& m : pass.cfg.clusters) {
        if (!m.enabled) continue;
        for (std::uint32_t ly = 0; ly < tile_h; ++ly)
          for (std::uint32_t lx = 0; lx < tile_w; ++lx) {
            const int ox = m.x_base + static_cast<int>(lx);
            const int oy = m.y_base + static_cast<int>(ly);
            if (ox >= l.out_w() || oy >= l.out_h()) continue;
            covered[{m.out_channel, oy, ox}]++;
          }
      }
    }
  }
  const std::size_t expected = static_cast<std::size_t>(l.out_ch) *
                               l.out_w() * l.out_h();
  ASSERT_EQ(covered.size(), expected) << "coverage gaps";
  for (const auto& [key, count] : covered)
    ASSERT_EQ(count, 1) << "output covered " << count << " times";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MapperCoverage,
    ::testing::Values(
        CoverageParam{1, 2, 16, 16, 4, 3, 1, 1, 2},    // small, multi-channel
        CoverageParam{2, 1, 32, 32, 1, 3, 1, 1, 1},    // exactly one slice
        CoverageParam{3, 3, 48, 40, 2, 3, 1, 1, 2},    // spatial windows
        CoverageParam{4, 2, 64, 64, 8, 3, 1, 1, 8},    // windows x channels
        CoverageParam{5, 4, 20, 20, 20, 3, 1, 1, 4},   // many channels
        CoverageParam{6, 1, 16, 16, 1, 5, 2, 2, 1},    // strided
        CoverageParam{7, 2, 24, 24, 3, 2, 2, 0, 2},    // pool-like
        CoverageParam{8, 1, 9, 7, 5, 3, 1, 1, 2}));    // odd sizes

TEST(MapperFcCoverage, OutputChunksPartitionNeurons) {
  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  Mapper mapper(hw);
  QuantizedLayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.name = "fc_cov";
  fc.in_ch = 2;
  fc.in_w = 6;
  fc.in_h = 6;
  fc.out_ch = 2048;  // needs 2 chunks of 1024
  fc.weights.assign(static_cast<std::size_t>(2048) * 72, 0);
  fc.lif.v_th = 1;
  const LayerPlan plan = mapper.plan(fc, 4);
  std::vector<int> covered(fc.out_ch, 0);
  for (const Round& round : plan.rounds)
    for (const SlicePass& pass : round.passes)
      for (const core::ClusterMapping& m : pass.cfg.clusters) {
        if (!m.enabled) continue;
        for (std::uint32_t slot = 0; slot < hw.neurons_per_cluster; ++slot) {
          const std::uint32_t id = m.out_channel + slot;
          if (id < fc.out_ch) covered[id]++;
        }
      }
  for (int c : covered) ASSERT_EQ(c, 1);
}

TEST(MapperWeights, ConvWeightImageMatchesLayerTensor) {
  // The weight image programmed for (set = ic*oc + slot) must contain the
  // layer's kernel for (oc_base + slot, ic) in row-major (ky, kx) order.
  Rng rng(123);
  QuantizedLayerSpec l;
  l.type = LayerSpec::Type::kConv;
  l.name = "wimg";
  l.in_ch = 3;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = 5;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(5) * 3 * 9);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-8, 7));
  l.lif.v_th = 1;

  core::SneConfig hw = core::SneConfig::paper_design_point(1);
  Mapper mapper(hw);
  const LayerPlan plan = mapper.plan(l, 2);
  for (const Round& round : plan.rounds) {
    for (const SlicePass& pass : round.passes) {
      const std::uint16_t oc_base = pass.cfg.clusters.front().out_channel;
      for (const auto& [set, codes] : pass.weight_image) {
        const std::uint32_t ic = set / pass.cfg.oc_per_slice;
        const std::uint32_t slot = set % pass.cfg.oc_per_slice;
        ASSERT_EQ(codes.size(), 9u);
        for (std::uint32_t ky = 0; ky < 3; ++ky)
          for (std::uint32_t kx = 0; kx < 3; ++kx)
            ASSERT_EQ(codes[ky * 3 + kx],
                      l.conv_weight(oc_base + slot, ic, ky, kx));
      }
    }
  }
}

TEST(MapperWeights, WloadBeatsRoundTripThroughWeightMemory) {
  // Serializing a pass's weight image to WLOAD beats and replaying them into
  // a WeightMemory reconstructs the image bit-exactly.
  Rng rng(321);
  QuantizedLayerSpec l;
  l.type = LayerSpec::Type::kConv;
  l.name = "beats";
  l.in_ch = 2;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = 2;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(2 * 2 * 9);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-8, 7));
  l.lif.v_th = 1;
  core::SneConfig hw = core::SneConfig::paper_design_point(1);
  Mapper mapper(hw);
  const LayerPlan plan = mapper.plan(l, 2);
  const SlicePass& pass = plan.rounds.at(0).passes.at(0);

  core::WeightMemory wm(hw.weight_sets, hw.weights_per_set);
  const auto beats = pass.wload_beats();
  std::size_t i = 0;
  while (i < beats.size()) {
    const event::WeightHeader h = event::unpack_weight_header(beats[i++]);
    for (std::uint32_t g = 0; g < h.payload_beats; ++g)
      wm.write_beat(h.set_index, h.group_offset + g, beats[i++]);
  }
  for (const auto& [set, codes] : pass.weight_image)
    for (std::size_t k = 0; k < codes.size(); ++k)
      ASSERT_EQ(wm.read(set, static_cast<std::uint32_t>(k)), codes[k]);
}

TEST(MapperWeights, BeatCountMatchesSerializedBeats) {
  // wload_beat_count() sizes the WLOAD image without building it; the plan's
  // weight_beats is its sum over the passes that load through WLOAD.
  Rng rng(77);
  QuantizedLayerSpec conv;
  conv.type = LayerSpec::Type::kConv;
  conv.name = "count_conv";
  conv.in_ch = 3;
  conv.in_w = 12;
  conv.in_h = 12;
  conv.out_ch = 20;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.weights.resize(static_cast<std::size_t>(20) * 3 * 9);
  conv.lif.v_th = 1;
  QuantizedLayerSpec fc;
  fc.type = LayerSpec::Type::kFc;
  fc.name = "count_fc";  // 72 positions: DMA-streamed
  fc.in_ch = 2;
  fc.in_w = 6;
  fc.in_h = 6;
  fc.out_ch = 37;
  fc.weights.resize(static_cast<std::size_t>(37) * 72);
  fc.lif.v_th = 1;
  QuantizedLayerSpec fc_resident = fc;  // 16 positions: buffer-resident
  fc_resident.name = "count_fc_resident";
  fc_resident.in_ch = 1;
  fc_resident.in_w = 4;
  fc_resident.in_h = 4;
  fc_resident.weights.resize(static_cast<std::size_t>(37) * 16);
  for (QuantizedLayerSpec* l : {&conv, &fc, &fc_resident})
    for (auto& w : l->weights)
      w = static_cast<std::int8_t>(rng.uniform_int(-8, 7));

  const Mapper mapper(core::SneConfig::paper_design_point(2));
  for (const QuantizedLayerSpec* l : {&conv, &fc, &fc_resident}) {
    const LayerPlan plan = mapper.plan(*l, 4);
    std::uint64_t wload = 0;
    for (const Round& round : plan.rounds)
      for (const SlicePass& pass : round.passes) {
        EXPECT_EQ(pass.wload_beat_count(), pass.wload_beats().size())
            << l->name;
        if (!pass.host_load_only) wload += pass.wload_beat_count();
      }
    EXPECT_EQ(plan.weight_beats, wload) << l->name;
    EXPECT_EQ(plan.weight_beats == 0, l == &fc) << l->name;  // fc streams
  }
}

}  // namespace
}  // namespace sne::ecnn
