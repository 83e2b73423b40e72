// Reproduces paper Fig. 5b: "Performance and energy per operation versus
// Number of Slices" — SOP/s scaling (6.4 -> 51.2 GSOP/s) and pJ/SOP falling
// toward the 0.221 pJ asymptote as fixed costs amortize.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "energy/calibration_workload.h"
#include "energy/energy_model.h"

int main() {
  using namespace sne;
  bench::print_header(
      "Fig. 5b", "SNE performance and energy/SOP vs number of slices",
      "Peak SOP rate (one update per cluster per cycle) and dense-workload "
      "energy per synaptic operation");

  AsciiTable table({"Slices", "Perf (analytic) [GSOP/s]",
                    "Perf (simulated) [GSOP/s]", "E/SOP (analytic) [pJ]",
                    "E/SOP (simulated) [pJ]"});
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    energy::EnergyModel model(core::SneConfig::paper_design_point(n));
    const energy::CalibrationRun run = energy::run_calibration_workload(n, 50);
    table.add_row({std::to_string(n), AsciiTable::num(model.peak_gsops(), 1),
                   AsciiTable::num(model.achieved_gsops(run.counters), 1),
                   AsciiTable::num(model.dense_pj_per_sop(), 3),
                   AsciiTable::num(model.pj_per_sop(run.counters), 3)});
  }
  table.print(std::cout);

  std::cout << "\nPerformance scaling (Fig. 5b left axis):\n";
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    energy::EnergyModel m(core::SneConfig::paper_design_point(n));
    std::cout << "  " << n << " slice" << (n > 1 ? "s" : " ") << " |"
              << ascii_bar(m.peak_gsops(), 51.2, 50) << "| "
              << AsciiTable::num(m.peak_gsops(), 1) << " GSOP/s\n";
  }

  energy::EnergyModel m8(core::SneConfig::paper_design_point(8));
  std::cout << "\nPaper anchors: 51.2 GSOP/s and 0.221 pJ/SOP at 8 slices; "
               "performance scales proportionally to slices (IV-A.3).\n";
  std::cout << "Measured: " << AsciiTable::num(m8.peak_gsops(), 1)
            << " GSOP/s (" << bench::deviation(m8.peak_gsops(), 51.2) << "), "
            << AsciiTable::num(m8.dense_pj_per_sop(), 3) << " pJ/SOP ("
            << bench::deviation(m8.dense_pj_per_sop(), 0.221) << ")\n";
  std::cout << "  - 51.2 GSOP/s at 8 slices, within +/-1%: "
            << bench::within(m8.peak_gsops(), 51.2, 0.01) << "\n";
  std::cout << "  - 0.221 pJ/SOP at 8 slices, within +/-1%: "
            << bench::within(m8.dense_pj_per_sop(), 0.221, 0.01) << "\n";
  return bench::exit_status();
}
