// Per-layer slice programming (the state written through the register
// interface before a layer pass, cf. Listing 1's `program_sne(W)`).
//
// A slice computes a rectangular window of one eCNN layer's output. Each of
// its clusters is bound to an (output channel slot, spatial tile) pair via a
// ClusterMapping: the "address shift" of paper III-D.4 ("the absolute
// spatial mapping of the output neurons is achieved by shifting each address
// with respect to the Cluster base address"). Filter-buffer sets are
// selected on the fly as  set = event.ch * oc_per_slice + oc_slot,
// which is how "multiple input channels can be accumulated on the same
// output neuron" while every cluster "independently selects" its weights.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "core/config.h"
#include "neuron/lif.h"

namespace sne::core {

/// Kind of layer arithmetic a slice performs.
enum class LayerKind : std::uint8_t {
  kConv,  ///< 2-D convolution (stride/pad), includes pooling as ones-kernel
  kFc,    ///< fully connected: every input event reaches every mapped neuron
};

/// Binding of one cluster to its output region.
struct ClusterMapping {
  std::uint16_t out_channel = 0;  ///< absolute output channel (event tagging)
  std::uint8_t oc_slot = 0;       ///< weight-set group within this slice
  std::uint8_t x_base = 0;        ///< tile origin, output map x
  std::uint8_t y_base = 0;        ///< tile origin, output map y
  bool enabled = true;            ///< unused clusters are statically gated
};

/// Everything a slice needs to know to execute one layer (pass).
struct SliceConfig {
  LayerKind kind = LayerKind::kConv;

  // Input geometry (the address space of incoming UPDATE events).
  std::uint16_t in_channels = 1;
  std::uint16_t in_width = 1;
  std::uint16_t in_height = 1;

  // Output geometry. For kFc the triple (out_channels, out_width, out_height)
  // is the *shape* given to the flat output vector so that neuron indices fit
  // the (ch, x, y) event address fields; flat id = (ch*out_h + y)*out_w + x.
  std::uint16_t out_channels = 1;
  std::uint16_t out_width = 1;
  std::uint16_t out_height = 1;

  // Convolution parameters (kConv only).
  std::uint8_t kernel_w = 3;
  std::uint8_t kernel_h = 3;
  std::uint8_t stride = 1;
  std::uint8_t pad = 1;           ///< symmetric zero padding

  // Output-channel slots computed concurrently by this slice.
  std::uint8_t oc_per_slice = 1;

  // Depthwise convolution (used for pooling layers): output channel oc only
  // listens to input channel oc, enforced by the per-cluster address filter,
  // and all channels share weight set 0 (the ones-kernel). This keeps the
  // cost of pooling proportional to its events instead of in_channels x
  // events.
  bool depthwise = false;

  // Fully-connected parameters (kFc only): this pass covers flat input
  // positions [fc_pass_base, fc_pass_base + fc_pass_positions).
  std::uint32_t fc_pass_base = 0;
  std::uint32_t fc_pass_positions = 0;

  // FC weight residency. Small FC layers fit the physical filter buffer
  // (per-cluster banks: set = local_position * n_clusters + cluster, weight
  // index = TDM slot). Large FC layers cannot — e.g. the paper network's
  // 2592x512 4-bit FC needs ~5.3 Mbit against a 64 Kbit buffer — so their
  // weights stream continuously from memory through the second DMA: the
  // model then charges ceil(active_outputs/8) weight beats per input event
  // and stretches the event's occupancy to the streaming bandwidth
  // (1 beat/cycle) when it exceeds the TDM sweep. The paper does not detail
  // FC mapping; this is our documented substitution, and it preserves
  // event-proportional cost (constant work per input event).
  bool fc_weights_streamed = false;

  neuron::LifParams lif;

  std::vector<ClusterMapping> clusters;  ///< one per physical cluster

  /// Flat input-position index of an FC event (channel-major).
  std::uint32_t fc_flat_index(std::uint16_t ch, std::uint8_t x,
                              std::uint8_t y) const {
    return (static_cast<std::uint32_t>(ch) * in_height + y) * in_width + x;
  }

  /// Total FC output neurons implied by the output shape.
  std::uint32_t fc_total_outputs() const {
    return static_cast<std::uint32_t>(out_channels) * out_width * out_height;
  }

  void validate() const {
    lif.validate();
    if (clusters.size() != SneConfig::clusters_per_slice)
      throw ConfigError("SliceConfig must map every physical cluster");
    if (in_channels == 0 || in_width == 0 || in_height == 0)
      throw ConfigError("input geometry must be non-empty");
    if (out_width == 0 || out_height == 0)
      throw ConfigError("output geometry must be non-empty");
    if (kind == LayerKind::kConv) {
      if (kernel_w == 0 || kernel_h == 0)
        throw ConfigError("kernel must be non-empty");
      if (stride == 0) throw ConfigError("stride must be positive");
      if (static_cast<std::uint32_t>(kernel_w) * kernel_h >
          SneConfig::weights_per_set)
        throw ConfigError("kernel does not fit one weight set");
      if (!depthwise &&
          static_cast<std::uint32_t>(in_channels) * oc_per_slice >
              SneConfig::weight_sets)
        throw ConfigError(
            "in_channels * oc_per_slice exceeds the filter buffer; split the "
            "layer into more passes");
      for (const auto& m : clusters)
        if (m.enabled && m.oc_slot >= oc_per_slice)
          throw ConfigError("cluster oc_slot out of range");
    } else {
      if (fc_pass_positions == 0)
        throw ConfigError("FC pass must cover at least one input position");
      if (!fc_weights_streamed &&
          fc_pass_positions * SneConfig::clusters_per_slice >
              SneConfig::weight_sets)
        throw ConfigError(
            "buffer-resident FC pass exceeds the filter buffer; use "
            "fc_weights_streamed");
      if (fc_total_outputs() == 0)
        throw ConfigError("FC output shape must be non-empty");
    }
  }
};

/// Builds the standard spatial-tiling cluster assignment: `oc_per_slice`
/// output-channel slots, each covering the window
/// [origin_x, origin_x+win_w) x [origin_y, origin_y+win_h) of the output map
/// with equal tiles in row-major order. Cluster bases are absolute output
/// coordinates (the "address shift"), so a window anywhere in a larger map
/// emits correctly-addressed events. Clusters left over are disabled.
inline std::vector<ClusterMapping> make_tiled_mapping(
    std::uint16_t win_w, std::uint16_t win_h, std::uint16_t base_channel,
    std::uint8_t oc_per_slice, std::uint16_t origin_x = 0,
    std::uint16_t origin_y = 0) {
  SNE_EXPECTS(oc_per_slice >= 1);
  const std::uint32_t tile_w = SneConfig::cluster_tile_width;
  const std::uint32_t tile_h = SneConfig::cluster_tile_height();
  const std::uint32_t tiles_x = (win_w + tile_w - 1) / tile_w;
  const std::uint32_t tiles_y = (win_h + tile_h - 1) / tile_h;
  const std::uint32_t tiles = tiles_x * tiles_y;
  if (tiles * oc_per_slice > SneConfig::clusters_per_slice)
    throw ConfigError("output window does not fit the slice's clusters");
  std::vector<ClusterMapping> maps(SneConfig::clusters_per_slice);
  std::uint32_t idx = 0;
  for (std::uint8_t slot = 0; slot < oc_per_slice; ++slot) {
    for (std::uint32_t ty = 0; ty < tiles_y; ++ty) {
      for (std::uint32_t tx = 0; tx < tiles_x; ++tx) {
        ClusterMapping m;
        m.out_channel = static_cast<std::uint16_t>(base_channel + slot);
        m.oc_slot = slot;
        m.x_base = static_cast<std::uint8_t>(origin_x + tx * tile_w);
        m.y_base = static_cast<std::uint8_t>(origin_y + ty * tile_h);
        m.enabled = true;
        maps[idx++] = m;
      }
    }
  }
  for (; idx < maps.size(); ++idx) maps[idx].enabled = false;
  return maps;
}

/// Builds the FC cluster assignment: cluster i owns flat output neurons
/// [base + i*64, base + (i+1)*64) of this pass; out_channel carries the base
/// flat id (see Slice::output_event for the id -> (ch, x, y) shaping).
inline std::vector<ClusterMapping> make_fc_mapping(
    std::uint32_t base_id, std::uint32_t total_outputs) {
  std::vector<ClusterMapping> maps(SneConfig::clusters_per_slice);
  for (std::uint32_t i = 0; i < maps.size(); ++i) {
    const std::uint32_t first = base_id + i * SneConfig::neurons_per_cluster;
    maps[i].out_channel = static_cast<std::uint16_t>(first);
    maps[i].oc_slot = 0;
    maps[i].x_base = 0;
    maps[i].y_base = 0;
    maps[i].enabled = first < total_outputs;
  }
  return maps;
}

}  // namespace sne::core
