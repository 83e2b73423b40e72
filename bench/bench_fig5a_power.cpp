// Reproduces paper Fig. 5a: "Power consumption at average network firing
// activity of 5%" for 1/2/4/8 slices, split into dynamic and leakage.
//
// Two columns are reported: the analytic worst-case model (the paper's
// methodology — all computational units updating every cycle; anchored at
// 11.29 mW / 8 slices) and the cycle-accurate simulation of the same
// workload, whose small overhead over the analytic value comes from FIRE
// scans and output drains.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "energy/calibration_workload.h"
#include "energy/energy_model.h"

int main() {
  using namespace sne;
  bench::print_header(
      "Fig. 5a", "SNE power consumption vs number of slices",
      "Dense eCNN layer, 100 timesteps, ~5% output activity, 400 MHz, 0.8 V TT");

  AsciiTable table({"Slices", "Dynamic [mW]", "Leakage [mW]",
                    "Total (analytic) [mW]", "Total (simulated) [mW]",
                    "Sim. output act."});
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    energy::EnergyModel model(core::SneConfig::paper_design_point(n));
    const double total = model.dense_power_mw();
    const double leak = model.leakage_power_mw();
    const energy::CalibrationRun run = energy::run_calibration_workload(n, 50);
    const double sim = model.average_power_mw(run.counters);
    table.add_row({std::to_string(n), AsciiTable::num(total - leak, 3),
                   AsciiTable::num(leak, 3), AsciiTable::num(total, 2),
                   AsciiTable::num(sim, 2),
                   AsciiTable::num(run.output_activity * 100.0, 1) + "%"});
  }
  table.print(std::cout);

  std::cout << "\nPower scaling (analytic totals):\n";
  energy::EnergyModel m8(core::SneConfig::paper_design_point(8));
  const double full = m8.dense_power_mw();
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    energy::EnergyModel m(core::SneConfig::paper_design_point(n));
    std::cout << "  " << n << " slice" << (n > 1 ? "s" : " ") << " |"
              << ascii_bar(m.dense_power_mw(), full, 50) << "| "
              << AsciiTable::num(m.dense_power_mw(), 2) << " mW\n";
  }

  std::cout << "\nPaper anchors: 11.29 mW total at 8 slices (Table II); "
               "dynamic power dominates (Fig. 5a).\n";
  std::cout << "Measured: " << AsciiTable::num(full, 2) << " mW at 8 slices ("
            << bench::deviation(full, 11.29) << "); leakage share "
            << AsciiTable::num(m8.leakage_power_mw() / full * 100.0, 1)
            << "%.\n";
  std::cout << "  - 11.29 mW at 8 slices, within +/-1%: "
            << bench::within(full, 11.29, 0.01) << "\n";
  return bench::exit_status();
}
