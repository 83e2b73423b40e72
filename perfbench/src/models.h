// Models, inputs and per-layer probes shared by the benchmark workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "event/event_stream.h"
#include "harness.h"

namespace perfbench {

/// The paper's Fig. 6 topology scaled to the 32x32 synthetic DVS input
/// (paper_topology(2, 32, 32, 11, 8, 64)) with fixed seeded weights.
sne::ecnn::QuantizedNetwork gesture_network();

/// Synthetic DVS-Gesture batch: 11 classes x `per_class` samples, T = 50.
/// Sparse uses the generator's default rates (~1.3% mean activity), dense
/// blob_rate 48 / noise_rate 2 (~5.1%): the paper's two activity anchors.
std::vector<sne::event::EventStream> gesture_batch(std::uint64_t seed,
                                                   bool dense,
                                                   std::uint16_t per_class);

/// conv(1->2) -> conv(2->2) on 16x16 inputs: maps in pipeline mode on the
/// 2-slice design point, so it serves both one-shot inference and
/// streaming sessions.
sne::ecnn::QuantizedNetwork pipe_network();

/// Spikes (UPDATE events in (t, ch, y, x) order; the engine and the golden
/// model agree on spike sets, not on emission order) of every layer of the
/// golden model's run of `input`.
std::vector<std::vector<sne::event::Event>> golden_spikes(
    const sne::ecnn::QuantizedNetwork& net, const sne::event::EventStream& input);

/// Whether an engine run produced exactly the golden model's spikes.
bool matches_golden(const sne::ecnn::NetworkRunStats& r,
                    const std::vector<std::vector<sne::event::Event>>& golden);

/// Sum of the per-sample cycles / SOPs / events of a batch result.
struct SimTotals {
  std::uint64_t inferences = 0;
  std::uint64_t cycles = 0;
  std::uint64_t sops = 0;
  std::uint64_t input_events = 0;  ///< network input UPDATE events
  sne::hwsim::ActivityCounters counters;

  void add(const sne::ecnn::NetworkRunStats& r, std::size_t input_events);
};

/// Paper-facing simulated figures of a band (exact functions of the
/// counters): energy per inference, energy per SOP, simulated time per
/// inference at the design point's clock.
struct EnergyBand {
  double uj_per_inf = 0.0;
  double pj_per_sop = 0.0;
  double sim_ms_per_inf = 0.0;
};
EnergyBand energy_band(const sne::core::SneConfig& hw, const SimTotals& t);

/// Publishes energy.* per-layer metrics for a light (sparse) and heavy
/// (dense) band and prints the paper-facing report.
void report_energy(Report& rep, const sne::core::SneConfig& hw,
                   const SimTotals& sparse, const SimTotals& dense,
                   const std::string& what);

/// Decomposed replay of `inputs` through `net`: calls the ecnn and core
/// public functions one by one (EnginePool acquire/release, Mapper::plan,
/// NetworkRunner::program_layer and run_layer, GoldenExecutor) under spans
/// and obs::ScopedProfiling, checks every layer's spikes against the golden
/// model, and publishes the core.* and ecnn.* per-layer metrics. `warm`
/// replays the serving path (weight-resident runs keyed on the model
/// fingerprint); cold replays the strict tier where every inference
/// reprograms and replans. A fixed input set keeps the profile counts exact.
void probe_ecnn(Report& rep, const sne::ecnn::QuantizedNetwork& net,
                const sne::core::SneConfig& hw,
                const std::vector<sne::event::EventStream>& inputs, bool warm);

}  // namespace perfbench
