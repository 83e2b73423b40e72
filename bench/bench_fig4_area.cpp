// Reproduces paper Fig. 4: "SNE area breakdown for a different number of
// Slices. Values on the plot report the absolute area in kGE."
//
// The area model is calibrated on the decoded figure data (see
// energy/area_model.h), so the published design points {1,2,4,8} reproduce
// exactly; this bench renders the stacked-bar figure as a table plus ASCII
// bars, checks the paper's two qualitative claims (DMA area constant, memory
// dominates and scales), and derives Table II's 19.9 um2/neuron.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/config.h"
#include "energy/area_model.h"

int main() {
  using namespace sne;
  bench::print_header("Fig. 4", "SNE area breakdown vs number of slices",
                      "Component areas in kGE (16 clusters/slice, 64 TDM "
                      "neurons/cluster, GF22FDX 8T, ND2X1-normalized)");

  energy::AreaModel model;

  AsciiTable table({"Slices", "Memory", "Clusters", "Streamers", "Interconn.",
                    "Registers", "Control", "Fifos", "Filters", "Total kGE",
                    "Total mm^2"});
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const energy::AreaBreakdown b = model.breakdown(n);
    table.add_row({std::to_string(n), AsciiTable::num(b.memory, 1),
                   AsciiTable::num(b.clusters, 1),
                   AsciiTable::num(b.streamers, 1),
                   AsciiTable::num(b.interconnect, 1),
                   AsciiTable::num(b.registers, 1),
                   AsciiTable::num(b.control, 1), AsciiTable::num(b.fifos, 1),
                   AsciiTable::num(b.filters, 1),
                   AsciiTable::num(b.total(), 1),
                   AsciiTable::num(model.total_um2(n) * 1e-6, 3)});
  }
  table.print(std::cout);

  std::cout << "\nNormalized stacked area (Fig. 4 rendering):\n";
  const double full = model.total_kge(8);
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    std::cout << "  " << n << " slice" << (n > 1 ? "s" : " ") << " |"
              << ascii_bar(model.total_kge(n), full, 50) << "| "
              << AsciiTable::num(model.total_kge(n) / full, 2) << "\n";
  }

  std::cout << "\nChecks against the paper's prose:\n";
  const bool dma_const = model.breakdown(1).streamers == model.breakdown(8).streamers;
  std::cout << "  - 'DMA area remain constant': "
            << bench::verdict(dma_const) << " (30.0 kGE at every point)\n";
  bool mem_dominates = true;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const auto b = model.breakdown(n);
    for (int c = 1; c < energy::AreaBreakdown::kComponents; ++c)
      mem_dominates = mem_dominates && b.memory > b.component(c);
  }
  std::cout << "  - 'Most of the area is occupied by latch-based memories': "
            << bench::verdict(mem_dominates) << "\n";
  const double fixed_share1 =
      model.breakdown(1).streamers / model.total_kge(1) * 100.0;
  const double fixed_share8 =
      model.breakdown(8).streamers / model.total_kge(8) * 100.0;
  std::cout << "  - 'fixed cost of the DMAs is progressively absorbed': "
            << AsciiTable::num(fixed_share1, 1) << "% of total at 1 slice -> "
            << AsciiTable::num(fixed_share8, 1) << "% at 8 slices\n";

  core::SneConfig hw8 = core::SneConfig::paper_design_point(8);
  const double na = model.neuron_area_um2(hw8);
  std::cout << "\nDerived Table II metric — neuron area: "
            << AsciiTable::num(na, 1) << " um2/neuron (paper: 19.9, "
            << bench::deviation(na, 19.9) << ")\n";
  return bench::exit_status();
}
