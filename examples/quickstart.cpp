// Quickstart: configure one SNE slice as a 3x3 event-convolution layer,
// stream a handful of DVS-style events through the cycle-accurate engine,
// and read back the output spikes plus a timing/energy report.
//
//   $ ./quickstart
//
// This is the 60-second tour of the public API:
//   core::SneConfig      — hardware build parameters (slices/clusters/...)
//   core::SneEngine      — the cycle-accurate accelerator model
//   core::SliceConfig    — per-layer slice programming
//   event::EventStream   — explicit (t, ch, x, y) event representation
//   energy::EnergyModel  — GF22FDX-calibrated energy accounting
#include <iostream>

#include "core/engine.h"
#include "energy/energy_model.h"
#include "event/event_stream.h"

int main() {
  using namespace sne;

  // 1. Build a single-slice SNE (the paper's design point uses 8 slices;
  //    one is plenty for a 32x32 single-channel layer).
  core::SneConfig hw = core::SneConfig::paper_design_point(/*slices=*/1);
  core::SneEngine engine(hw);

  // 2. Program the slice: 1 input channel, 32x32 input, 3x3 kernel,
  //    stride 1, same-padding; LIF threshold 4, no leak. The slice's 16
  //    clusters tile the 32x32 output map in 8x8 blocks.
  core::SliceConfig cfg;
  cfg.kind = core::LayerKind::kConv;
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
  cfg.lif.v_th = 4;
  cfg.clusters = core::make_tiled_mapping(32, 32, /*base_channel=*/0,
                                          /*oc_per_slice=*/1);
  engine.configure_slice(0, cfg);

  // 3. Load a 3x3 cross-shaped kernel into filter-buffer set 0
  //    (set index = input_channel * oc_per_slice + channel slot).
  const std::int32_t kernel[9] = {0, 3, 0, 3, 5, 3, 0, 3, 0};
  for (std::uint32_t k = 0; k < 9; ++k)
    engine.slice(0).weights().write(0, k, kernel[k]);

  // 4. Route the input DMA to slice 0 and build an event stream: a few
  //    spikes around (10, 10) at t=0 and one far away at t=3.
  engine.set_routes(core::XbarRoutes::time_multiplexed(1));
  event::EventStream in(event::StreamGeometry{1, 32, 32, 8});
  in.push_update(0, 0, 10, 10);
  in.push_update(0, 0, 11, 10);
  in.push_update(0, 0, 10, 11);
  in.push_update(3, 0, 25, 25);
  std::cout << "input: " << in.size() << " events, activity "
            << in.activity() * 100.0 << "%\n";

  // 5. Run to quiescence. RST/FIRE control events are inserted
  //    automatically (FIRE only on timesteps with activity — the TLU path).
  const core::RunResult r = engine.run(in);

  // 6. Inspect the output spike train.
  const event::EventStream spikes = r.spikes();
  std::cout << "\noutput spikes:\n";
  for (const event::Event& e : spikes.events()) std::cout << "  " << e << "\n";

  // 7. Timing and energy.
  energy::EnergyModel model(hw);
  const energy::EnergyReport rep = model.evaluate(r.counters);
  std::cout << "\ncycles:            " << r.cycles << " ("
            << r.sim_time_us << " us at 400 MHz)\n";
  std::cout << "events consumed:   " << r.counters.events_consumed
            << " (48 cycles each)\n";
  std::cout << "synaptic ops:      " << r.counters.neuron_updates << "\n";
  std::cout << "gated cluster-cyc: " << r.counters.gated_cluster_cycles
            << " (clock gating at work)\n";
  std::cout << "energy:            " << rep.total_pj() << " pJ ("
            << rep.dynamic_pj << " dynamic + " << rep.leakage_pj
            << " leakage)\n";
  std::cout << "average power:     " << rep.average_power_mw() << " mW\n";
  return 0;
}
