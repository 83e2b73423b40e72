// Reproduces paper Table I: "eCNN classification accuracy, energy per
// inference and inference rate" on NMNIST and IBM DVS-Gesture.
//
// Protocol (paper section IV-B, reproduced 1:1 on the synthetic datasets):
//  1. train the Fig. 6 topology with the SRM neuron (the SLAYER baseline),
//  2. train the same topology with the SNE linear-leak LIF, quantize to
//     4-bit weights / 8-bit state, and evaluate the *integer* golden model
//     (exactly what executes on the accelerator),
//  3. derive per-inference energy and rate from the measured per-layer
//     activity with the paper's timing method (events x 48 cycles @ 400 MHz,
//     energy = dense power x time).
//
// The synthetic datasets substitute for NMNIST / DVS-Gesture (which cannot
// be redistributed); absolute accuracies are not comparable with the paper,
// but the protocol — SRM baseline vs quantized SNE-LIF at matched topology,
// energy from activity — is. Paper rows are printed for reference.
//
// Environment knobs: SNE_T1_EPOCHS (default 8), SNE_T1_SPC (samples per
// class, default 10), SNE_T1_T (timesteps, default 24), SNE_T1_MB (trainer
// minibatch, default 1 = the serial trajectory bit for bit) and
// SNE_T1_WORKERS (trainer worker lanes, default 0 = the process-wide pool;
// any value produces identical bits for a fixed minibatch).
#include <cstdlib>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "energy/energy_model.h"
#include "train/trainer.h"

namespace {

int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : def;
}

struct DatasetResult {
  double srm_acc = 0.0;
  double lif4b_acc = 0.0;
  double energy_lo_uj = 0.0, energy_hi_uj = 0.0;
  double rate_lo = 0.0, rate_hi = 0.0;
  double act_lo = 1.0, act_hi = 0.0;
};

DatasetResult run_protocol(const sne::data::Dataset& full, double train_frac,
                           double val_frac, std::uint16_t classes,
                           std::uint32_t epochs, std::uint32_t minibatch,
                           unsigned workers) {
  using namespace sne;
  const data::DatasetSplit split = full.split(train_frac, val_frac, 2022);
  const auto& g = full.geometry;

  // Scale-adapted Fig. 6: reduced-resolution synthetic inputs keep a 4x4-ish
  // map in front of the classifier (the paper's 144x144 input keeps 9x9).
  const std::uint8_t final_pool = g.width >= 64 ? 4 : 2;
  ecnn::Network topo =
      ecnn::Network::paper_topology(g.channels, g.width, g.height, classes,
                                    /*features=*/8, /*hidden=*/64, final_pool);

  DatasetResult res;

  // --- SRM baseline (SLAYER-default substitute) ---------------------------
  {
    train::TrainConfig cfg;
    cfg.model = train::NeuronModel::kSrm;
    cfg.epochs = epochs;
    cfg.lr = 4e-3;
    cfg.threshold = 1.0;
    cfg.minibatch = minibatch;
    cfg.workers = workers;
    train::Trainer trainer(topo, cfg);
    trainer.calibrate_thresholds(split.train);
    trainer.fit(split.train);
    res.srm_acc = trainer.evaluate(split.test);
  }

  // --- SNE-LIF-4b: train float LIF, quantize, evaluate integer model ------
  ecnn::QuantizedNetwork qnet;
  {
    train::TrainConfig cfg;
    cfg.model = train::NeuronModel::kSneLif;
    cfg.epochs = epochs;
    cfg.lr = 4e-3;
    cfg.threshold = 1.0;
    cfg.leak = 0.08;
    cfg.minibatch = minibatch;
    cfg.workers = workers;
    train::Trainer trainer(topo, cfg);
    trainer.calibrate_thresholds(split.train);
    trainer.fit(split.train);
    qnet = ecnn::quantize(trainer.network());

    std::size_t correct = 0;
    core::SneConfig hw = core::SneConfig::paper_design_point(8);
    energy::EnergyModel model(hw);
    const double power_mw = model.dense_power_mw();
    // Golden-model evaluation batched over the sample dimension
    // (BatchRunner::run_golden): bitwise identical to the former serial
    // loop — the reductions below still run in sample order.
    std::vector<event::EventStream> test_streams;
    test_streams.reserve(split.test.samples.size());
    for (const data::Sample& s : split.test.samples)
      test_streams.push_back(s.stream);
    ecnn::BatchRunner batch(hw, qnet);
    const auto all_traces = batch.run_golden(test_streams);
    for (std::size_t si = 0; si < split.test.samples.size(); ++si) {
      const data::Sample& s = split.test.samples[si];
      const auto& traces = all_traces[si];
      const auto counts =
          ecnn::GoldenExecutor::class_spike_counts(traces.back().output, classes);
      std::size_t pred = 0;
      for (std::size_t k = 1; k < counts.size(); ++k)
        if (counts[k] > counts[pred]) pred = k;
      if (pred == s.label) ++correct;

      // Per-sample network activity and paper-method timing/energy.
      std::size_t events = 0;
      double act_num = 0.0, act_den = 0.0;
      events += s.stream.update_count();
      act_num += static_cast<double>(s.stream.update_count());
      act_den += static_cast<double>(s.stream.geometry().volume());
      for (const auto& tr : traces) {
        events += tr.output_events;
        act_num += static_cast<double>(tr.output_events);
        act_den += static_cast<double>(tr.output.geometry().volume());
      }
      const double act = act_num / act_den;
      const double t_s = static_cast<double>(events) * hw.update_sweep_cycles *
                         hw.cycle_ns() * 1e-9;
      const double e_uj = power_mw * 1e-3 * t_s * 1e6;
      const double rate = 1.0 / t_s;
      res.act_lo = std::min(res.act_lo, act);
      res.act_hi = std::max(res.act_hi, act);
      if (res.energy_hi_uj == 0.0) {
        res.energy_lo_uj = res.energy_hi_uj = e_uj;
        res.rate_lo = res.rate_hi = rate;
      } else {
        res.energy_lo_uj = std::min(res.energy_lo_uj, e_uj);
        res.energy_hi_uj = std::max(res.energy_hi_uj, e_uj);
        res.rate_lo = std::min(res.rate_lo, rate);
        res.rate_hi = std::max(res.rate_hi, rate);
      }
    }
    res.lif4b_acc = static_cast<double>(correct) /
                    static_cast<double>(split.test.samples.size());
  }
  return res;
}

}  // namespace

int main() {
  using namespace sne;
  const std::uint32_t epochs = static_cast<std::uint32_t>(env_int("SNE_T1_EPOCHS", 8));
  const std::uint16_t spc = static_cast<std::uint16_t>(env_int("SNE_T1_SPC", 10));
  const std::uint16_t T = static_cast<std::uint16_t>(env_int("SNE_T1_T", 24));
  const std::uint32_t mb = static_cast<std::uint32_t>(env_int("SNE_T1_MB", 1));
  const unsigned workers =
      static_cast<unsigned>(env_int("SNE_T1_WORKERS", 0));

  bench::print_header(
      "Table I", "eCNN accuracy, energy/inference, inference rate",
      "SRM (SLAYER substitute) vs SNE-LIF-4b on synthetic NMNIST and "
      "synthetic DVS-Gesture; paper split protocols (75/10/15 and 65/10/25)");
  std::cout << "config: epochs=" << epochs << " samples/class=" << spc
            << " timesteps=" << T << " minibatch=" << mb << " workers="
            << workers
            << " (env: SNE_T1_EPOCHS/SNE_T1_SPC/SNE_T1_T/SNE_T1_MB/"
               "SNE_T1_WORKERS)\n";

  data::NmnistConfig ncfg;
  ncfg.samples_per_class = spc;
  ncfg.timesteps = T;
  const data::Dataset nmnist = data::make_nmnist_dataset(ncfg);

  data::GestureConfig gcfg;
  gcfg.samples_per_class = spc;
  gcfg.timesteps = T;
  const data::Dataset gesture = data::make_gesture_dataset(gcfg);

  std::cout << "\n[1/2] synthetic NMNIST (" << nmnist.samples.size()
            << " samples, mean input activity "
            << AsciiTable::num(nmnist.mean_activity() * 100.0, 2) << "%)...\n";
  const DatasetResult nm =
      run_protocol(nmnist, 0.75, 0.10, 10, epochs, mb, workers);
  std::cout << "[2/2] synthetic DVS-Gesture (" << gesture.samples.size()
            << " samples, mean input activity "
            << AsciiTable::num(gesture.mean_activity() * 100.0, 2) << "%)...\n";
  const DatasetResult gs =
      run_protocol(gesture, 0.65, 0.10, 11, epochs, mb, workers);

  AsciiTable table({"Data set", "SNN (SRM)", "eCNN (SNE-LIF-4b)",
                    "Inf. energy [uJ/inf]", "Inf. rate [inf/s]",
                    "Net activity"});
  table.add_row({"synth-NMNIST (ours)",
                 AsciiTable::num(nm.srm_acc * 100.0, 2) + "%",
                 AsciiTable::num(nm.lif4b_acc * 100.0, 2) + "%",
                 AsciiTable::num(nm.energy_lo_uj, 1) + " - " +
                     AsciiTable::num(nm.energy_hi_uj, 1),
                 AsciiTable::num(nm.rate_hi, 0) + " - " +
                     AsciiTable::num(nm.rate_lo, 0),
                 AsciiTable::num(nm.act_lo * 100.0, 1) + "-" +
                     AsciiTable::num(nm.act_hi * 100.0, 1) + "%"});
  table.add_row({"NMNIST (paper)", "97.81%", "97.88%", "43 - 142",
                 "261 - 79.5", "-"});
  table.add_row({"synth-DVS-Gesture (ours)",
                 AsciiTable::num(gs.srm_acc * 100.0, 2) + "%",
                 AsciiTable::num(gs.lif4b_acc * 100.0, 2) + "%",
                 AsciiTable::num(gs.energy_lo_uj, 1) + " - " +
                     AsciiTable::num(gs.energy_hi_uj, 1),
                 AsciiTable::num(gs.rate_hi, 0) + " - " +
                     AsciiTable::num(gs.rate_lo, 0),
                 AsciiTable::num(gs.act_lo * 100.0, 1) + "-" +
                     AsciiTable::num(gs.act_hi * 100.0, 1) + "%"});
  table.add_row({"IBM DVS Gest. (paper)", "92.42%", "92.80%", "80 - 261",
                 "141 - 43", "1.2-4.9%"});
  table.print(std::cout);

  std::cout << "\nProtocol checks:\n";
  const double chance_nm = 100.0 / 10.0, chance_gs = 100.0 / 11.0;
  std::cout << "  - NMNIST: both models well above chance ("
            << AsciiTable::num(chance_nm, 0) << "%): "
            << bench::verdict(nm.srm_acc * 100 > 3 * chance_nm &&
                              nm.lif4b_acc * 100 > 3 * chance_nm)
            << "\n";
  std::cout << "  - Gesture: both models well above chance ("
            << AsciiTable::num(chance_gs, 0) << "%): "
            << bench::verdict(gs.srm_acc * 100 > 3 * chance_gs &&
                              gs.lif4b_acc * 100 > 3 * chance_gs)
            << "\n";
  std::cout << "  - Quantized SNE-LIF-4b tracks the SRM baseline (paper: "
               "within ~0.5 points; ours within 10 points on the synthetic "
               "tasks): "
            << (std::abs(gs.lif4b_acc - gs.srm_acc) < 0.10 &&
                        std::abs(nm.lif4b_acc - nm.srm_acc) < 0.10
                    ? "PASS"
                    : "CHECK")
            << "\n";
  std::cout << "  - Energy band scales with activity band (proportionality): "
            << bench::verdict(gs.energy_hi_uj > gs.energy_lo_uj) << "\n";
  return bench::exit_status();
}
