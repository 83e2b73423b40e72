#include "ecnn/mapper.h"

#include <algorithm>

#include "common/contracts.h"

namespace sne::ecnn {

std::vector<event::Beat> SlicePass::wload_beats() const {
  std::vector<event::Beat> beats;
  for (const auto& [set, codes] : weight_image) {
    SNE_EXPECTS(set <= event::kMaxCh);
    const std::uint32_t groups = (static_cast<std::uint32_t>(codes.size()) + 7) / 8;
    event::WeightHeader h;
    h.set_index = static_cast<std::uint16_t>(set);
    h.group_offset = 0;
    h.payload_beats = static_cast<std::uint16_t>(groups);
    beats.push_back(event::pack(h));
    for (std::uint32_t g = 0; g < groups; ++g) {
      std::int8_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (int i = 0; i < 8; ++i) {
        const std::size_t idx = static_cast<std::size_t>(g) * 8 + static_cast<std::size_t>(i);
        if (idx < codes.size()) w[i] = codes[idx];
      }
      beats.push_back(event::pack_weights(w));
    }
  }
  return beats;
}

std::uint64_t SlicePass::wload_beat_count() const {
  std::uint64_t beats = 0;
  for (const auto& [set, codes] : weight_image)
    beats += 1 + (codes.size() + 7) / 8;
  return beats;
}

void SlicePass::write_weights(core::WeightMemory& w) const {
  for (const auto& [set, codes] : weight_image)
    for (std::size_t i = 0; i < codes.size(); ++i)
      w.write(set, static_cast<std::uint32_t>(i), codes[i]);
}

LayerPlan Mapper::plan(const QuantizedLayerSpec& layer,
                       std::uint16_t timesteps) const {
  layer.lif.validate();
  if (layer.type == LayerSpec::Type::kFc) return plan_fc(layer, timesteps);
  return plan_conv(layer, timesteps);
}

LayerPlan Mapper::plan_conv(const QuantizedLayerSpec& layer,
                            std::uint16_t timesteps) const {
  const bool pool = layer.type == LayerSpec::Type::kPool;
  const std::uint16_t out_w = layer.out_w();
  const std::uint16_t out_h = layer.out_h();
  const std::uint32_t tile_w = hw_.cluster_tile_width;
  const std::uint32_t tile_h = hw_.cluster_tile_height();

  // Window size: as much of the map as one slice's clusters can hold.
  const std::uint32_t max_tiles = hw_.clusters_per_slice;
  std::uint32_t win_tiles_x = (out_w + tile_w - 1) / tile_w;
  std::uint32_t win_tiles_y = (out_h + tile_h - 1) / tile_h;
  // Shrink to a near-square window with at most max_tiles tiles.
  while (win_tiles_x * win_tiles_y > max_tiles) {
    if (win_tiles_x >= win_tiles_y)
      win_tiles_x = (win_tiles_x + 1) / 2;
    else
      win_tiles_y = (win_tiles_y + 1) / 2;
  }
  const std::uint32_t win_w = win_tiles_x * tile_w;
  const std::uint32_t win_h = win_tiles_y * tile_h;
  const std::uint32_t windows_x = (out_w + win_w - 1) / win_w;
  const std::uint32_t windows_y = (out_h + win_h - 1) / win_h;

  // Output channels per slice: spare clusters carry more channels, bounded
  // by the filter buffer (not a constraint for depthwise pooling).
  std::uint32_t oc_per_slice =
      std::max<std::uint32_t>(1, max_tiles / (win_tiles_x * win_tiles_y));
  if (!pool)
    oc_per_slice = std::min<std::uint32_t>(
        oc_per_slice, std::max<std::uint32_t>(1, hw_.weight_sets / layer.in_ch));
  oc_per_slice = std::min<std::uint32_t>(oc_per_slice, layer.out_ch);
  oc_per_slice = std::min<std::uint32_t>(oc_per_slice, 255);

  LayerPlan plan;
  plan.out_geometry.channels = layer.out_ch;
  plan.out_geometry.width = static_cast<std::uint8_t>(out_w);
  plan.out_geometry.height = static_cast<std::uint8_t>(out_h);
  plan.out_geometry.timesteps = timesteps;

  // Enumerate (window, channel-group) work units, then fold them into
  // rounds of num_slices concurrent passes.
  struct Unit {
    std::uint32_t wx, wy, oc_base, oc_count;
  };
  std::vector<Unit> units;
  for (std::uint32_t wy = 0; wy < windows_y; ++wy)
    for (std::uint32_t wx = 0; wx < windows_x; ++wx)
      for (std::uint32_t oc = 0; oc < layer.out_ch; oc += oc_per_slice)
        units.push_back(Unit{
            wx, wy, oc,
            std::min<std::uint32_t>(oc_per_slice, layer.out_ch - oc)});

  for (std::size_t u = 0; u < units.size(); u += hw_.num_slices) {
    Round round;
    for (std::uint32_t s = 0; s < hw_.num_slices && u + s < units.size(); ++s) {
      const Unit& unit = units[u + s];
      SlicePass pass;
      pass.slice_id = s;
      core::SliceConfig& cfg = pass.cfg;
      cfg.kind = core::LayerKind::kConv;
      cfg.depthwise = pool;
      cfg.in_channels = layer.in_ch;
      cfg.in_width = layer.in_w;
      cfg.in_height = layer.in_h;
      cfg.out_channels = layer.out_ch;
      cfg.out_width = out_w;
      cfg.out_height = out_h;
      cfg.kernel_w = layer.kernel;
      cfg.kernel_h = layer.kernel;
      cfg.stride = layer.stride;
      cfg.pad = layer.pad;
      cfg.oc_per_slice = static_cast<std::uint8_t>(unit.oc_count);
      cfg.lif = layer.lif;
      const std::uint16_t origin_x = static_cast<std::uint16_t>(unit.wx * win_w);
      const std::uint16_t origin_y = static_cast<std::uint16_t>(unit.wy * win_h);
      const std::uint16_t this_win_w = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(win_w, out_w - origin_x));
      const std::uint16_t this_win_h = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(win_h, out_h - origin_y));
      cfg.clusters = core::make_tiled_mapping(
          this_win_w, this_win_h,
          static_cast<std::uint16_t>(unit.oc_base),
          static_cast<std::uint8_t>(unit.oc_count), origin_x, origin_y);

      // Weight image: set = ic * oc_per_slice + slot.
      if (pool) {
        pass.weight_image.emplace_back(
            0u, std::vector<std::int8_t>(
                    static_cast<std::size_t>(layer.kernel) * layer.kernel, 1));
      } else {
        for (std::uint32_t ic = 0; ic < layer.in_ch; ++ic) {
          for (std::uint32_t slot = 0; slot < unit.oc_count; ++slot) {
            std::vector<std::int8_t> codes;
            codes.reserve(static_cast<std::size_t>(layer.kernel) * layer.kernel);
            for (std::uint32_t ky = 0; ky < layer.kernel; ++ky)
              for (std::uint32_t kx = 0; kx < layer.kernel; ++kx)
                codes.push_back(static_cast<std::int8_t>(
                    layer.conv_weight(unit.oc_base + slot, ic, ky, kx)));
            pass.weight_image.emplace_back(ic * unit.oc_count + slot,
                                           std::move(codes));
          }
        }
      }
      round.passes.push_back(std::move(pass));
    }
    plan.rounds.push_back(std::move(round));
  }

  for (const Round& r : plan.rounds)
    for (const SlicePass& p : r.passes)
      plan.weight_beats += p.wload_beat_count();
  return plan;
}

LayerPlan Mapper::plan_fc(const QuantizedLayerSpec& layer,
                          std::uint16_t timesteps) const {
  const std::uint32_t positions = static_cast<std::uint32_t>(layer.in_flat());
  const std::uint32_t outputs = layer.out_ch;
  const std::uint32_t per_slice = hw_.neurons_per_slice();
  // Buffer-resident FC banks hold one weight per TDM slot in each set.
  static_assert(core::SneConfig::weights_per_set >=
                core::SneConfig::neurons_per_cluster);
  const bool resident = positions * hw_.clusters_per_slice <= hw_.weight_sets;
  const FcShape shape = fc_shape(outputs);

  LayerPlan plan;
  plan.out_geometry.channels = shape.channels;
  plan.out_geometry.width = static_cast<std::uint8_t>(shape.width);
  plan.out_geometry.height = static_cast<std::uint8_t>(shape.height);
  plan.out_geometry.timesteps = timesteps;

  // Output chunks of one slice's capacity; chunks run concurrently across
  // slices within a round (distinct output neurons -> no state conflicts).
  std::vector<std::uint32_t> chunk_bases;
  for (std::uint32_t base = 0; base < outputs; base += per_slice)
    chunk_bases.push_back(base);

  for (std::size_t c = 0; c < chunk_bases.size(); c += hw_.num_slices) {
    Round round;
    for (std::uint32_t s = 0; s < hw_.num_slices && c + s < chunk_bases.size();
         ++s) {
      const std::uint32_t base = chunk_bases[c + s];
      SlicePass pass;
      pass.slice_id = s;
      pass.host_load_only = !resident;
      core::SliceConfig& cfg = pass.cfg;
      cfg.kind = core::LayerKind::kFc;
      cfg.in_channels = layer.in_ch;
      cfg.in_width = layer.in_w;
      cfg.in_height = layer.in_h;
      cfg.out_channels = shape.channels;
      cfg.out_width = shape.width;
      cfg.out_height = shape.height;
      cfg.lif = layer.lif;
      cfg.fc_pass_base = 0;
      cfg.fc_pass_positions = positions;
      cfg.fc_weights_streamed = !resident;
      cfg.clusters = core::make_fc_mapping(base, outputs);

      if (resident) {
        // set = position * n_clusters + cluster; weight index = TDM slot.
        for (std::uint32_t pos = 0; pos < positions; ++pos) {
          for (std::uint32_t cl = 0; cl < hw_.clusters_per_slice; ++cl) {
            const std::uint32_t first = base + cl * hw_.neurons_per_cluster;
            if (first >= outputs) continue;
            std::vector<std::int8_t> codes(hw_.neurons_per_cluster, 0);
            for (std::uint32_t slot = 0; slot < hw_.neurons_per_cluster; ++slot) {
              const std::uint32_t id = first + slot;
              if (id < outputs)
                codes[slot] =
                    static_cast<std::int8_t>(layer.fc_weight(id, pos));
            }
            pass.weight_image.emplace_back(pos * hw_.clusters_per_slice + cl,
                                           std::move(codes));
          }
        }
      } else {
        // Streamed: virtual store indexed (position, absolute output id).
        for (std::uint32_t pos = 0; pos < positions; ++pos) {
          std::vector<std::int8_t> codes(outputs, 0);
          for (std::uint32_t id = 0; id < outputs; ++id)
            codes[static_cast<std::size_t>(id)] =
                static_cast<std::int8_t>(layer.fc_weight(id, pos));
          pass.weight_image.emplace_back(pos, std::move(codes));
        }
      }
      round.passes.push_back(std::move(pass));
    }
    plan.rounds.push_back(std::move(round));
  }

  for (const Round& r : plan.rounds)
    for (const SlicePass& p : r.passes)
      if (!p.host_load_only) plan.weight_beats += p.wload_beat_count();
  return plan;
}

}  // namespace sne::ecnn
