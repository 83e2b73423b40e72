// The paper's power-analysis calibration workload (section IV-A.2):
// "a sample eCNN layer where input events cause a neuron state update on all
// the SLs and all Clusters of each SL. Input events are distributed across
// 100 time steps, and the layer is generating 5% output event activity."
//
// Realized as a buffer-resident FC layer: an FC event's receptive field is
// every neuron, so all 16 clusters of every slice perform one update per
// cycle for the full TDM sweep — the all-units-busy condition. Weights are
// sparse (~7% non-zero) so that with the 8-bit threshold near full scale
// each neuron fires roughly every 20 timesteps, i.e. ~5% per-step output
// activity, matching the paper's benchmark without saturating the membrane.
#pragma once

#include "common/rng.h"
#include "core/engine.h"
#include "event/event_stream.h"
#include "hwsim/counters.h"

namespace sne::energy {

struct CalibrationRun {
  hwsim::ActivityCounters counters;
  double output_activity = 0.0;  ///< spikes / (neurons x timesteps)
  std::uint64_t cycles = 0;
};

/// Runs the dense calibration workload on a cycle-accurate engine.
/// `events_per_step` controls update-datapath saturation (48 keeps the
/// FIRE-scan overhead below ~5% of cycles).
inline CalibrationRun run_calibration_workload(std::uint32_t slices,
                                               std::uint16_t timesteps = 100,
                                               int events_per_step = 48,
                                               std::uint32_t output_dmas = 8) {
  core::SneConfig hw = core::SneConfig::paper_design_point(slices);
  hw.num_output_dmas = output_dmas;  // sustain output bandwidth (IV-A.3)
  core::SneEngine engine(hw);
  Rng rng(7);

  core::SliceConfig cfg;
  cfg.kind = core::LayerKind::kFc;
  cfg.in_channels = 1;
  cfg.in_width = 4;
  cfg.in_height = 4;  // 16 positions x 16 clusters = 256 sets: resident
  cfg.out_channels = 256;
  cfg.out_width = 4;
  cfg.out_height = 1;  // 1024 outputs = every TDM neuron of the slice
  cfg.lif.leak = 0;
  cfg.lif.v_th = 120;
  cfg.fc_pass_base = 0;
  cfg.fc_pass_positions = 16;
  cfg.fc_weights_streamed = false;
  for (std::uint32_t s = 0; s < slices; ++s) {
    cfg.clusters = core::make_fc_mapping(0, 1024);
    engine.configure_slice(s, cfg);
    for (std::uint32_t set = 0; set < 256; ++set)
      for (std::uint32_t k = 0; k < 64; ++k) {
        const std::int32_t w =
            rng.bernoulli(0.07)
                ? static_cast<std::int32_t>(rng.uniform_int(1, 3))
                : 0;
        engine.slice(s).weights().write(set, k, w);
      }
  }
  engine.set_routes(core::XbarRoutes::time_multiplexed(slices));

  event::EventStream in(event::StreamGeometry{1, 4, 4, timesteps});
  for (std::uint16_t t = 0; t < timesteps; ++t)
    for (int e = 0; e < events_per_step; ++e)
      in.push_update(t, 0, static_cast<std::uint8_t>(e % 4),
                     static_cast<std::uint8_t>((e / 4) % 4));
  const auto r = engine.run(in);

  CalibrationRun out;
  out.counters = r.counters;
  out.cycles = r.cycles;
  out.output_activity =
      static_cast<double>(r.counters.output_events) /
      (static_cast<double>(hw.total_neurons()) * timesteps);
  return out;
}

}  // namespace sne::energy
