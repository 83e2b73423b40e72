// SNE area model, calibrated to the paper's Fig. 4 ("SNE area breakdown for
// a different number of Slices. Values on the plot report the absolute area
// in kGE").
//
// The figure's stacked bars give, for 1/2/4/8 slices, the kGE of eight
// components (legend order): Memory, Clusters, Streamers, Interconnect,
// Registers, Control, Fifos, Filters. We embed those 32 decoded values as
// the calibration table — so the Fig. 4 bench reproduces the figure exactly
// at the published design points — and interpolate/extrapolate affinely per
// component for other slice counts. The table reflects the paper's
// qualitative claims: memory (latch-based neuron state) dominates and
// scales with slices, DMA ("Streamers") area is constant, and the crossbar
// ("Interconnect") grows superlinearly with its port count.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/contracts.h"
#include "core/config.h"
#include "energy/tech.h"

namespace sne::energy {

/// Area of each top-level component, in kGE.
struct AreaBreakdown {
  double memory = 0;        ///< latch-based neuron state memories
  double clusters = 0;      ///< LIF datapaths
  double streamers = 0;     ///< DMAs
  double interconnect = 0;  ///< C-XBAR
  double registers = 0;     ///< filter buffers + config registers
  double control = 0;       ///< sequencer/decoder control
  double fifos = 0;         ///< cluster/slice/DMA FIFOs
  double filters = 0;       ///< address filter / shift logic

  double total() const {
    return memory + clusters + streamers + interconnect + registers + control +
           fifos + filters;
  }

  static constexpr int kComponents = 8;
  double component(int i) const {
    switch (i) {
      case 0: return memory;
      case 1: return clusters;
      case 2: return streamers;
      case 3: return interconnect;
      case 4: return registers;
      case 5: return control;
      case 6: return fifos;
      case 7: return filters;
    }
    throw ContractViolation("component index out of range");
  }
};

class AreaModel {
 public:
  explicit AreaModel(TechParams tech = {}) : tech_(tech) { tech_.validate(); }

  /// Component areas for an SNE with `slices` slices (16 clusters x 64
  /// neurons each). Exact at the published points {1, 2, 4, 8}.
  AreaBreakdown breakdown(std::uint32_t slices) const {
    SNE_EXPECTS(slices >= 1);
    for (int p = 0; p < kPoints; ++p)
      if (kSliceCounts[p] == slices) return row(p);
    // Affine interpolation between (or extrapolation beyond) the two nearest
    // calibration points, per component.
    int lo = 0;
    while (lo + 1 < kPoints - 1 && kSliceCounts[lo + 1] < slices) ++lo;
    const int hi = lo + 1;
    const double n0 = kSliceCounts[lo], n1 = kSliceCounts[hi];
    const double f = (static_cast<double>(slices) - n0) / (n1 - n0);
    const AreaBreakdown a = row(lo), b = row(hi);
    AreaBreakdown r;
    r.memory = lerp(a.memory, b.memory, f);
    r.clusters = lerp(a.clusters, b.clusters, f);
    r.streamers = lerp(a.streamers, b.streamers, f);
    r.interconnect = lerp(a.interconnect, b.interconnect, f);
    r.registers = lerp(a.registers, b.registers, f);
    r.control = lerp(a.control, b.control, f);
    r.fifos = lerp(a.fifos, b.fifos, f);
    r.filters = lerp(a.filters, b.filters, f);
    return r;
  }

  double total_kge(std::uint32_t slices) const { return breakdown(slices).total(); }

  double total_um2(std::uint32_t slices) const {
    return total_kge(slices) * 1000.0 * tech_.nd2_area_um2;
  }

  /// Paper Table II "Neuron area [um2]": (state memory + LIF datapath) area
  /// divided by the neuron count. 19.9 um2 at the 8-slice design point.
  double neuron_area_um2(const core::SneConfig& hw) const {
    const AreaBreakdown b = breakdown(hw.num_slices);
    const double kge = b.memory + b.clusters;
    return kge * 1000.0 * tech_.nd2_area_um2 /
           static_cast<double>(hw.total_neurons());
  }

  const TechParams& tech() const { return tech_; }

 private:
  static constexpr int kPoints = 4;
  static constexpr std::array<std::uint32_t, kPoints> kSliceCounts{1, 2, 4, 8};
  // Decoded Fig. 4 table, [component][design point], kGE.
  static constexpr double kTable[AreaBreakdown::kComponents][kPoints] = {
      {91.2, 182.4, 364.9, 729.8},   // Memory
      {12.5, 24.9, 50.0, 99.9},      // Clusters
      {30.0, 30.0, 30.0, 30.0},      // Streamers (constant, paper IV-A.1)
      {0.8, 1.4, 2.8, 6.2},          // Interconnect
      {51.4, 88.5, 161.9, 306.2},    // Registers
      {7.1, 13.4, 31.3, 65.0},       // Control
      {27.8, 56.3, 106.0, 212.3},    // Fifos
      {28.9, 57.8, 115.6, 231.3},    // Filters
  };

  AreaBreakdown row(int p) const {
    AreaBreakdown r;
    r.memory = kTable[0][p];
    r.clusters = kTable[1][p];
    r.streamers = kTable[2][p];
    r.interconnect = kTable[3][p];
    r.registers = kTable[4][p];
    r.control = kTable[5][p];
    r.fifos = kTable[6][p];
    r.filters = kTable[7][p];
    return r;
  }

  static double lerp(double a, double b, double f) { return a + (b - a) * f; }

  TechParams tech_;
};

}  // namespace sne::energy
