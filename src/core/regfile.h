// Memory-mapped register interface: "SNE can be integrated as a memory-
// mapped peripheral into a system on chip (SoC) and programmed through a
// register interface" (paper section III-D), shown as the APB port + config
// registers in Fig. 2.
//
// The map below is ours (the paper does not publish one): a global window
// with ID/build parameters, then one 64-byte window per slice whose APPLY
// command decodes the staged fields into a SliceConfig. Cluster mappings are
// derived from a mapping-mode register using the same helpers the software
// mapper uses, so a driver and the C++ API produce identical configurations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "core/config.h"
#include "core/slice_config.h"

namespace sne::core {

class RegisterFile {
 public:
  // Global registers (byte offsets).
  static constexpr std::uint32_t kRegId = 0x00;        // RO "SNE1"
  static constexpr std::uint32_t kRegNumSlices = 0x04; // RO
  static constexpr std::uint32_t kRegClusters = 0x08;  // RO
  static constexpr std::uint32_t kRegNeurons = 0x0C;   // RO
  static constexpr std::uint32_t kRegClockKhz = 0x10;  // RO

  // Per-slice window: base + i*kSliceStride.
  static constexpr std::uint32_t kSliceWindowBase = 0x100;
  static constexpr std::uint32_t kSliceStride = 0x40;
  static constexpr std::uint32_t kSliceKind = 0x00;    // kind | oc_per_slice<<8 | map_mode<<16
  static constexpr std::uint32_t kSliceInGeom = 0x04;  // ch | w<<16 | h<<24
  static constexpr std::uint32_t kSliceOutGeom = 0x08; // ch | w<<16 | h<<24
  static constexpr std::uint32_t kSliceKernel = 0x0C;  // kw | kh<<8 | stride<<16 | pad<<24
  static constexpr std::uint32_t kSliceLif = 0x10;     // leak | vth<<8 | leak_mode<<16 | reset_mode<<17
  static constexpr std::uint32_t kSliceFcBase = 0x14;
  static constexpr std::uint32_t kSliceFcPositions = 0x18;
  static constexpr std::uint32_t kSliceMapParam = 0x1C;  // base channel / base id
  static constexpr std::uint32_t kSliceApply = 0x20;     // W1C command

  static constexpr std::uint32_t kIdValue = 0x534E4531;  // "SNE1"

  enum class MapMode : std::uint32_t { kTiled = 0, kFc = 1 };

  explicit RegisterFile(const SneConfig& hw) : hw_(&hw) {
    words_.resize((kSliceWindowBase + hw.num_slices * kSliceStride) / 4, 0);
  }

  std::uint32_t read(std::uint32_t offset) const {
    check_offset(offset);
    switch (offset) {
      case kRegId: return kIdValue;
      case kRegNumSlices: return hw_->num_slices;
      case kRegClusters: return hw_->clusters_per_slice;
      case kRegNeurons: return hw_->neurons_per_cluster;
      case kRegClockKhz: return static_cast<std::uint32_t>(hw_->clock_mhz * 1000.0);
      default: return words_[offset / 4];
    }
  }

  void write(std::uint32_t offset, std::uint32_t value) {
    check_offset(offset);
    if (offset < kSliceWindowBase)
      throw ConfigError("global SNE registers are read-only");
    words_[offset / 4] = value;
  }

  /// True when the slice's APPLY register has been written; reading the
  /// pending flag clears it (write-one-to-commit semantics).
  bool consume_apply(std::uint32_t slice) {
    const std::uint32_t off = slice_offset(slice, kSliceApply);
    const bool pending = words_[off / 4] != 0;
    words_[off / 4] = 0;
    return pending;
  }

  /// Decodes the staged per-slice window into a SliceConfig.
  SliceConfig decode_slice(std::uint32_t slice) const {
    const auto rd = [this, slice](std::uint32_t reg) {
      return words_[slice_offset(slice, reg) / 4];
    };
    SliceConfig cfg;
    const std::uint32_t kindw = rd(kSliceKind);
    cfg.kind = (kindw & 0xFF) == 0 ? LayerKind::kConv : LayerKind::kFc;
    cfg.oc_per_slice = static_cast<std::uint8_t>((kindw >> 8) & 0xFF);
    const MapMode mode = static_cast<MapMode>((kindw >> 16) & 0xFF);
    const std::uint32_t in = rd(kSliceInGeom);
    cfg.in_channels = static_cast<std::uint16_t>(in & 0xFFFF);
    cfg.in_width = static_cast<std::uint16_t>((in >> 16) & 0xFF);
    cfg.in_height = static_cast<std::uint16_t>((in >> 24) & 0xFF);
    const std::uint32_t out = rd(kSliceOutGeom);
    cfg.out_channels = static_cast<std::uint16_t>(out & 0xFFFF);
    cfg.out_width = static_cast<std::uint16_t>((out >> 16) & 0xFF);
    cfg.out_height = static_cast<std::uint16_t>((out >> 24) & 0xFF);
    const std::uint32_t k = rd(kSliceKernel);
    cfg.kernel_w = static_cast<std::uint8_t>(k & 0xFF);
    cfg.kernel_h = static_cast<std::uint8_t>((k >> 8) & 0xFF);
    cfg.stride = static_cast<std::uint8_t>((k >> 16) & 0xFF);
    cfg.pad = static_cast<std::uint8_t>((k >> 24) & 0xFF);
    const std::uint32_t lif = rd(kSliceLif);
    cfg.lif.leak = static_cast<std::int32_t>(lif & 0xFF);
    cfg.lif.v_th = from_field((lif >> 8) & 0xFF, 8);
    cfg.lif.leak_mode = ((lif >> 16) & 1) == 0 ? neuron::LeakMode::kTowardZero
                                               : neuron::LeakMode::kSubtractive;
    cfg.lif.reset_mode = ((lif >> 17) & 1) == 0
                             ? neuron::ResetMode::kToZero
                             : neuron::ResetMode::kSubtractThreshold;
    cfg.fc_pass_base = rd(kSliceFcBase);
    cfg.fc_pass_positions = rd(kSliceFcPositions);
    const std::uint32_t param = rd(kSliceMapParam);
    cfg.clusters = mode == MapMode::kFc
                       ? make_fc_mapping(param, cfg.fc_total_outputs())
                       : make_tiled_mapping(cfg.out_width, cfg.out_height,
                                            static_cast<std::uint16_t>(param),
                                            cfg.oc_per_slice);
    return cfg;
  }

  /// Encodes a SliceConfig into register writes (driver-side helper; the
  /// round trip decode(encode(cfg)) == cfg is unit-tested).
  void encode_slice(std::uint32_t slice, const SliceConfig& cfg, MapMode mode,
                    std::uint32_t map_param) {
    const auto wr = [this, slice](std::uint32_t reg, std::uint32_t v) {
      write(slice_offset(slice, reg), v);
    };
    wr(kSliceKind, (cfg.kind == LayerKind::kConv ? 0u : 1u) |
                       (static_cast<std::uint32_t>(cfg.oc_per_slice) << 8) |
                       (static_cast<std::uint32_t>(mode) << 16));
    wr(kSliceInGeom, cfg.in_channels |
                         (static_cast<std::uint32_t>(cfg.in_width) << 16) |
                         (static_cast<std::uint32_t>(cfg.in_height) << 24));
    wr(kSliceOutGeom, cfg.out_channels |
                          (static_cast<std::uint32_t>(cfg.out_width) << 16) |
                          (static_cast<std::uint32_t>(cfg.out_height) << 24));
    wr(kSliceKernel, cfg.kernel_w | (static_cast<std::uint32_t>(cfg.kernel_h) << 8) |
                         (static_cast<std::uint32_t>(cfg.stride) << 16) |
                         (static_cast<std::uint32_t>(cfg.pad) << 24));
    wr(kSliceLif,
       static_cast<std::uint32_t>(cfg.lif.leak) |
           (to_field(cfg.lif.v_th, 8) << 8) |
           ((cfg.lif.leak_mode == neuron::LeakMode::kSubtractive ? 1u : 0u) << 16) |
           ((cfg.lif.reset_mode == neuron::ResetMode::kSubtractThreshold ? 1u : 0u)
            << 17));
    wr(kSliceFcBase, cfg.fc_pass_base);
    wr(kSliceFcPositions, cfg.fc_pass_positions);
    wr(kSliceMapParam, map_param);
    wr(kSliceApply, 1);
  }

 private:
  std::uint32_t slice_offset(std::uint32_t slice, std::uint32_t reg) const {
    SNE_EXPECTS(slice < hw_->num_slices);
    return kSliceWindowBase + slice * kSliceStride + reg;
  }

  void check_offset(std::uint32_t offset) const {
    if (offset % 4 != 0) throw ConfigError("unaligned register access");
    if (offset / 4 >= words_.size())
      throw ConfigError("register offset out of range");
  }

  const SneConfig* hw_;
  std::vector<std::uint32_t> words_;
};

}  // namespace sne::core
