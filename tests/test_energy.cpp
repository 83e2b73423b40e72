// Energy/area model calibration tests: the model must reproduce the paper's
// published anchors (Fig. 4, Fig. 5, Table II) within tight tolerances.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/synthetic.h"
#include "energy/area_model.h"
#include "energy/calibration_workload.h"
#include "energy/energy_model.h"

namespace sne::energy {
namespace {

TEST(AreaModelTest, Fig4TableIsExactAtPublishedPoints) {
  AreaModel m;
  const AreaBreakdown a1 = m.breakdown(1);
  EXPECT_DOUBLE_EQ(a1.memory, 91.2);
  EXPECT_DOUBLE_EQ(a1.streamers, 30.0);
  const AreaBreakdown a8 = m.breakdown(8);
  EXPECT_DOUBLE_EQ(a8.memory, 729.8);
  EXPECT_DOUBLE_EQ(a8.clusters, 99.9);
  EXPECT_DOUBLE_EQ(a8.streamers, 30.0);
  EXPECT_DOUBLE_EQ(a8.interconnect, 6.2);
  EXPECT_DOUBLE_EQ(a8.registers, 306.2);
  EXPECT_DOUBLE_EQ(a8.control, 65.0);
  EXPECT_DOUBLE_EQ(a8.fifos, 212.3);
  EXPECT_DOUBLE_EQ(a8.filters, 231.3);
}

TEST(AreaModelTest, DmaAreaIsConstant) {
  // "DMA area remain constant" (paper IV-A.1).
  AreaModel m;
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 6u, 8u})
    EXPECT_DOUBLE_EQ(m.breakdown(n).streamers, 30.0);
}

TEST(AreaModelTest, MemoryDominatesAndScales) {
  // "Most of the area is occupied by latch-based memories holding the
  // neuron state. As the number of SLs increase, the SLs and C-XBAR area
  // scales proportionally."
  AreaModel m;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const AreaBreakdown b = m.breakdown(n);
    for (int c = 1; c < AreaBreakdown::kComponents; ++c)
      EXPECT_GT(b.memory, b.component(c)) << "slices=" << n;
  }
  EXPECT_NEAR(m.breakdown(8).memory / m.breakdown(1).memory, 8.0, 0.05);
  EXPECT_GT(m.breakdown(8).interconnect / m.breakdown(1).interconnect, 7.0);
}

TEST(AreaModelTest, InterpolationIsMonotone) {
  AreaModel m;
  double prev = 0.0;
  for (std::uint32_t n = 1; n <= 8; ++n) {
    const double t = m.total_kge(n);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(AreaModelTest, NeuronAreaMatchesTableII) {
  // Table II: 19.9 um2/neuron at the 8-slice design point (8192 neurons).
  static_assert(core::SneConfig::neurons_per_slice() == 1024);
  AreaModel m;
  core::SneConfig hw = core::SneConfig::paper_design_point(8);
  EXPECT_EQ(hw.total_neurons(), 8192u);
  EXPECT_NEAR(m.neuron_area_um2(hw), 19.9, 0.2);
}

/// Dense benchmark used by the paper's power analysis (see
/// energy/calibration_workload.h).
hwsim::ActivityCounters dense_workload(std::uint32_t slices,
                                       std::uint32_t timesteps = 100) {
  return run_calibration_workload(slices,
                                  static_cast<std::uint16_t>(timesteps))
      .counters;
}

TEST(CalibrationWorkload, OutputActivityNearFivePercent) {
  // "the layer is generating 5% output event activity" (IV-A.2).
  const CalibrationRun run = run_calibration_workload(2, 60);
  EXPECT_GT(run.output_activity, 0.025);
  EXPECT_LT(run.output_activity, 0.08);
}

TEST(EnergyModelTest, DensePowerHitsPaperAnchor) {
  // Table II: 11.29 mW at 8 slices, 400 MHz, 0.8 V (all units updating).
  EnergyModel m(core::SneConfig::paper_design_point(8));
  EXPECT_NEAR(m.dense_power_mw(), 11.29, 11.29 * 0.01);
}

TEST(EnergyModelTest, DenseEnergyPerSopHitsPaperAnchor) {
  // Abstract/Table II: 0.221 pJ/SOP at 8 slices.
  EnergyModel m(core::SneConfig::paper_design_point(8));
  EXPECT_NEAR(m.dense_pj_per_sop(), 0.221, 0.221 * 0.01);
}

TEST(EnergyModelTest, SimulatedDenseWorkloadApproachesAnalyticAnchor) {
  // The cycle-accurate dense benchmark must land close to the analytic
  // worst-case estimate — above it (FIRE scans and drains add non-update
  // cycles) but within ~15%.
  const auto c = dense_workload(8, 40);
  EnergyModel m(core::SneConfig::paper_design_point(8));
  const double sim = m.pj_per_sop(c);
  const double analytic = m.dense_pj_per_sop();
  EXPECT_GT(sim, analytic * 0.99);
  EXPECT_LT(sim, analytic * 1.15);
}

TEST(EnergyModelTest, PeakPerformanceMatchesPaper) {
  // 51.2 GSOP/s = 8 slices x 16 clusters x 400 MHz.
  EnergyModel m(core::SneConfig::paper_design_point(8));
  EXPECT_DOUBLE_EQ(m.peak_gsops(), 51.2);
  EnergyModel m1(core::SneConfig::paper_design_point(1));
  EXPECT_DOUBLE_EQ(m1.peak_gsops(), 6.4);
}

TEST(EnergyModelTest, EfficiencyMatchesTableII) {
  // 4.54 TSOP/s/W.
  EnergyModel m(core::SneConfig::paper_design_point(8));
  EXPECT_NEAR(m.dense_tsops_per_watt(), 4.54, 4.54 * 0.01);
}

TEST(EnergyModelTest, EnergyPerSopDecreasesWithSlices) {
  // Fig. 5b: fixed costs amortize; pJ/SOP falls toward the 0.221 asymptote.
  double prev = 1e9;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    EnergyModel m(core::SneConfig::paper_design_point(n));
    const double pj = m.dense_pj_per_sop();
    EXPECT_LT(pj, prev);
    EXPECT_GT(pj, 0.219);
    EXPECT_LT(pj, 0.245);
    prev = pj;
  }
}

TEST(EnergyModelTest, VoltageExtrapolationMatchesTableIIFootnote) {
  // "extrapolating our results to the 0.9V operating condition, SNE would
  // still achieve 4.03 TOP/s/W and consume 0.248 pJ/SOP" — the paper's
  // numbers correspond to linear energy-voltage scaling (default).
  EnergyModel m(core::SneConfig::paper_design_point(8));
  EnergyModel hv = m.at_voltage(0.9);
  EXPECT_NEAR(hv.dense_pj_per_sop(), 0.248, 0.248 * 0.01);
  EXPECT_NEAR(hv.dense_tsops_per_watt(), 4.03, 4.03 * 0.01);
}

TEST(EnergyModelTest, QuadraticScalingAvailableForPhysics) {
  TechParams tech;
  tech.voltage_scale_exponent = 2.0;  // CV^2
  EnergyModel m(core::SneConfig::paper_design_point(8), tech);
  const double ratio =
      m.at_voltage(0.9).dense_pj_per_sop() / m.dense_pj_per_sop();
  EXPECT_NEAR(ratio, 1.2656, 0.02);  // (0.9/0.8)^2, leakage second-order
}

TEST(EnergyModelTest, LeakageIsSmallFraction) {
  // Fig. 5a: "Dynamic power significantly dominates".
  const auto c = dense_workload(8, 40);
  EnergyModel m(core::SneConfig::paper_design_point(8));
  const EnergyReport r = m.evaluate(c);
  EXPECT_LT(r.leakage_pj, 0.05 * r.dynamic_pj);
}

TEST(EnergyModelTest, EnergyProportionalToEvents) {
  // The headline property: energy scales ~linearly with input events at
  // fixed geometry.
  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  EnergyModel m(hw);
  std::vector<double> uj;
  for (double act : {0.01, 0.02, 0.04}) {
    core::SneEngine engine(hw);
    core::SliceConfig cfg;
    cfg.kind = core::LayerKind::kConv;
    cfg.in_channels = 2;
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
    cfg.lif.v_th = 10;
    cfg.clusters = core::make_tiled_mapping(32, 32, 0, 1);
    engine.configure_slice(0, cfg);
    engine.configure_slice(1, cfg);
    engine.set_routes(core::XbarRoutes::time_multiplexed(2));
    const auto in = data::random_stream({2, 32, 32, 50}, act, 31337);
    const auto r = engine.run(in);
    uj.push_back(m.evaluate(r.counters).total_uj());
  }
  // Doubling activity should roughly double energy (within 25%).
  EXPECT_NEAR(uj[1] / uj[0], 2.0, 0.5);
  EXPECT_NEAR(uj[2] / uj[1], 2.0, 0.5);
}

}  // namespace
}  // namespace sne::energy
