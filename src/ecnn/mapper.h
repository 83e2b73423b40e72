// Mapper: compiles a quantized eCNN layer into SNE slice passes.
//
// This is the software half of the paper's Listing 1: the outer, SW-managed
// loop reprograms the engine per output-channel group ("program_sne(W)"),
// while the inner loops execute on the hardware. The mapper implements the
// time-multiplexed operating mode of section III-D.5 (intermediate feature
// maps via external memory). For each layer it emits *rounds*; the passes of
// one round run concurrently on different slices against a broadcast of the
// input stream, and successive rounds replay the stream with new weights.
//
// Decomposition rules:
//  * conv: the output map is split into windows of at most
//    (4 tiles x 4 tiles) = 32x32 neurons (one slice's clusters); when the
//    whole map fits fewer tiles, the spare clusters carry extra output
//    channels (oc_per_slice), bounded by the filter buffer
//    (in_ch * oc_per_slice <= 256 sets).
//  * pool: depthwise conv with the ones-kernel in set 0 and threshold 0.
//  * fc: output neurons are chunked per slice (<= clusters x 64 = 1024);
//    weights are buffer-resident when positions x clusters <= 256 sets and
//    DMA-streamed otherwise (see SliceConfig::fc_weights_streamed).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/slice_config.h"
#include "core/weight_memory.h"
#include "ecnn/quantized.h"
#include "event/event.h"
#include "event/event_stream.h"

namespace sne::ecnn {

/// One slice's programming for one pass.
struct SlicePass {
  std::uint32_t slice_id = 0;
  core::SliceConfig cfg;
  /// Filter-buffer image: (set index, weight codes). Loaded over the event
  /// stream as WLOAD beats for physical buffers; host-loaded for streamed FC.
  std::vector<std::pair<std::uint32_t, std::vector<std::int8_t>>> weight_image;
  bool host_load_only = false;  ///< streamed FC: bypass the WLOAD beat path

  /// Serializes the weight image into WLOAD header+payload beats.
  std::vector<event::Beat> wload_beats() const;
  /// wload_beats().size() without building the beats: one header plus one
  /// payload beat per 8 codes, for each set of the image.
  std::uint64_t wload_beat_count() const;
  /// Host load of the weight image: writes every code straight into `w`.
  void write_weights(core::WeightMemory& w) const;
};

/// Passes that run concurrently (same broadcast of the input stream).
struct Round {
  std::vector<SlicePass> passes;
};

struct LayerPlan {
  std::vector<Round> rounds;
  event::StreamGeometry out_geometry;  ///< shape of the layer's output stream
  std::uint64_t weight_beats = 0;      ///< WLOAD programming volume (beats)
};

class Mapper {
 public:
  explicit Mapper(core::SneConfig hw) : hw_(hw) { hw_.validate(); }

  const core::SneConfig& hw() const { return hw_; }

  /// Plans one layer. `timesteps` stamps the output geometry.
  LayerPlan plan(const QuantizedLayerSpec& layer, std::uint16_t timesteps) const;

 private:
  LayerPlan plan_conv(const QuantizedLayerSpec& layer,
                      std::uint16_t timesteps) const;
  LayerPlan plan_fc(const QuantizedLayerSpec& layer,
                    std::uint16_t timesteps) const;

  core::SneConfig hw_;
};

}  // namespace sne::ecnn
