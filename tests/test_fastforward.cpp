// Fast-forward equivalence regression suite.
//
// SneConfig::fast_forward compresses provably-inactive cycle spans and
// stall-free TDM sweeps into bulk host operations. The contract is strict:
// cycle counts, every ActivityCounters field, and the output event stream
// (exact sequence, not just the spike set) must be bit-identical to the
// per-cycle reference path across every scenario the engine models. This
// suite runs each scenario twice — fast_forward on and off — and compares.
//
// Also covered: BatchRunner determinism (results independent of the worker
// count and identical to serial simulation).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/mapper.h"
#include "ecnn/runner.h"
#include "test_util.h"

namespace sne {
namespace {

using core::SneConfig;
using core::SneEngine;
using ecnn::NetworkRunner;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;

QuantizedLayerSpec conv_layer(std::uint16_t in_ch, std::uint16_t size,
                              std::uint16_t out_ch, std::int32_t v_th,
                              std::uint64_t seed) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "conv";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = out_ch;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

QuantizedLayerSpec fc_layer(std::uint16_t in_ch, std::uint16_t size,
                            std::uint16_t outputs, std::uint64_t seed) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kFc;
  l.name = "fc";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = outputs;
  l.weights.resize(static_cast<std::size_t>(outputs) * l.in_flat());
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-7, 7));
  l.lif.v_th = 9;
  l.lif.leak = 1;
  return l;
}

/// Runs `net` on `input` through NetworkRunner with the given fast_forward
/// setting, on a fresh engine.
NetworkRunStats run_network(SneConfig hw, bool fast, const QuantizedNetwork& net,
                            const event::EventStream& input) {
  hw.fast_forward = fast;
  SneEngine engine(hw, 1u << 20);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  return runner.run(net, input);
}

void expect_equivalent(const NetworkRunStats& ref, const NetworkRunStats& fast) {
  EXPECT_EQ(ref.cycles, fast.cycles);
  EXPECT_TRUE(ref.total == fast.total) << "counters diverge:\nref:  " << ref.total
                                       << "\nfast: " << fast.total;
  ASSERT_EQ(ref.layers.size(), fast.layers.size());
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].cycles, fast.layers[i].cycles) << "layer " << i;
    EXPECT_TRUE(ref.layers[i].counters == fast.layers[i].counters)
        << "layer " << i;
    // Exact event sequence, not just the canonical spike set.
    EXPECT_TRUE(ref.layers[i].output == fast.layers[i].output) << "layer " << i;
  }
  EXPECT_TRUE(ref.final_output == fast.final_output);
}

/// Runs `net` on `input` with an explicit full hardware config (fast_forward
/// and drain_batching as given), on a fresh engine.
NetworkRunStats run_network_cfg(const SneConfig& hw, const QuantizedNetwork& net,
                                const event::EventStream& input,
                                std::size_t memory_words = 1u << 20) {
  SneEngine engine(hw, memory_words);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  return runner.run(net, input);
}

/// Three-way equivalence: per-cycle reference vs fast-forward vs
/// fast-forward + batched drain engine, all bit-identical. Returns the
/// reference run, for checks that the scenario exercises what it claims.
NetworkRunStats expect_drain_equivalent(SneConfig hw, const QuantizedNetwork& net,
                                        const event::EventStream& input,
                                        std::size_t memory_words = 1u << 20) {
  hw.fast_forward = false;
  hw.drain_batching = false;
  const auto ref = run_network_cfg(hw, net, input, memory_words);
  hw.fast_forward = true;
  const auto fast = run_network_cfg(hw, net, input, memory_words);
  hw.drain_batching = true;
  const auto drain = run_network_cfg(hw, net, input, memory_words);
  expect_equivalent(ref, fast);
  expect_equivalent(ref, drain);
  return ref;
}

TEST(FastForwardEquivalence, ConvLayerTimeMultiplexed) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 4, 6, 5));
  const auto in = data::random_stream({2, 32, 32, 20}, 0.03, 99);
  const SneConfig hw = SneConfig::paper_design_point(4);
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  ASSERT_GT(fast.total.output_events, 0u);  // scenario actually spikes
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, ConvSilentNetwork) {
  // High threshold: FIRE scans are spike-free end to end, exercising the
  // batched no-spike scan and the marker-elision drain path.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 4, 120, 5));
  const auto in = data::random_stream({2, 32, 32, 10}, 0.05, 7);
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  EXPECT_EQ(fast.total.output_events, 0u);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, StreamedFcLayer) {
  // An FC layer too large for the filter buffer streams its weights from
  // the second DMA (fc_weights_streamed), stretching event occupancy.
  QuantizedNetwork net;
  net.layers.push_back(fc_layer(2, 16, 48, 11));
  const auto in = data::random_stream({2, 16, 16, 12}, 0.06, 21);
  const SneConfig hw = SneConfig::paper_design_point(4);
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  ASSERT_GT(ref.total.weight_load_beats, 0u);  // streaming path exercised
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, MultiSlicePipeline) {
  // Pipeline operating mode: conv -> conv chained through the C-XBAR, all
  // stages concurrently active (slice-to-slice hops + per-cycle FIRE).
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 4, 3));
  auto l2 = conv_layer(2, 16, 2, 5, 4);
  l2.name = "conv2";
  net.layers.push_back(l2);
  const auto in = data::random_stream({1, 16, 16, 12}, 0.08, 13);

  event::EventStream outputs[2];
  hwsim::ActivityCounters counters[2];
  std::uint64_t cycles[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20);
    const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
    core::RunOptions opts;
    opts.out_geometry = geom;
    const auto r = engine.run(in, opts);
    outputs[k] = r.output;
    counters[k] = r.counters;
    cycles[k] = r.cycles;
    ++k;
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_TRUE(counters[0] == counters[1]);
  EXPECT_TRUE(outputs[0] == outputs[1]);
  EXPECT_GT(counters[0].output_events, 0u);
}

TEST(FastForwardEquivalence, FifoStallScenario) {
  // Tiny FIFOs + near-zero threshold: FIRE sweeps stall on full cluster
  // FIFOs, the hardest interleaving for the batched paths to respect.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 0, 17));
  const auto in = data::random_stream({1, 16, 16, 10}, 0.15, 41);
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.cluster_fifo_depth = 1;
  hw.slice_out_fifo_depth = 2;
  hw.dma_fifo_depth = 2;
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  ASSERT_GT(ref.total.fifo_stall_cycles, 0u);  // stalls actually happen
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, SingleBufferedState) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 16, 2, 6, 23));
  const auto in = data::random_stream({2, 16, 16, 10}, 0.05, 3);
  SneConfig hw = SneConfig::paper_design_point(2);
  hw.double_buffered_state = false;  // 2-cycle updates
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, AdaptiveSequencer) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 16, 2, 6, 29));
  const auto in = data::random_stream({2, 16, 16, 10}, 0.05, 3);
  SneConfig hw = SneConfig::paper_design_point(2);
  hw.adaptive_sequencer = true;
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, ClockGatingOffAndNegativeThreshold) {
  // Negative thresholds disable the armed-slot acceleration (toward-zero
  // leak can cross a negative threshold upward); gating off flips the
  // cluster-cycle accounting. Both must stay bit-identical.
  QuantizedLayerSpec l = conv_layer(1, 16, 2, -3, 31);
  l.lif.leak = 2;
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.05, 19);
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.clock_gating = false;
  const auto ref = run_network(hw, false, net, in);
  const auto fast = run_network(hw, true, net, in);
  expect_equivalent(ref, fast);
}

TEST(FastForwardEquivalence, RandomMemoryStalls) {
  // Randomized DMA contention stalls (seeded): the input streamer's latency
  // countdown is skipped in bulk and must consume the RNG identically.
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 16, 2, 6, 37));
  const auto in = data::random_stream({2, 16, 16, 10}, 0.05, 11);
  hwsim::MemoryTiming timing;
  timing.latency_cycles = 6;
  timing.stall_probability = 0.2;
  timing.stall_cycles = 11;

  NetworkRunStats stats[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20, timing);
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    stats[k++] = runner.run(net, in);
  }
  expect_equivalent(stats[0], stats[1]);
}

TEST(FastForwardEquivalence, EngineReuseAcrossRuns) {
  // A reused engine carries membrane state into the next run's configure;
  // the armed-slot masks must stay conservative (configure arms everything).
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 2, 43));
  const auto in_a = data::random_stream({1, 16, 16, 8}, 0.08, 51);
  const auto in_b = data::random_stream({1, 16, 16, 8}, 0.08, 52);

  NetworkRunStats a[2], b[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(1);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20);
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    a[k] = runner.run(net, in_a);
    b[k] = runner.run(net, in_b);  // same engine, second dataset
    ++k;
  }
  expect_equivalent(a[0], a[1]);
  expect_equivalent(b[0], b[1]);
}

TEST(FastForwardEquivalence, WloadStreamProgramming) {
  // Weight programming through the C-XBAR WLOAD path (per-cycle payload
  // consumption) interleaved with simulation. On the 4-slice design point
  // the 8-channel layer takes two slices, so one WLOAD run routes the input
  // DMA point-to-point to slice 1 alone, with slice 0 idle below it.
  const auto in = data::random_stream({1, 16, 16, 8}, 0.06, 61);
  for (const auto& [slices, out_ch] :
       {std::pair<std::uint32_t, std::uint16_t>{1, 2}, {4, 8}}) {
    SCOPED_TRACE("slices=" + std::to_string(slices));
    QuantizedNetwork net;
    net.layers.push_back(conv_layer(1, 16, out_ch, 6, 47));
    SneConfig hw = SneConfig::paper_design_point(slices);
    std::uint32_t top_slice = 0;
    for (const auto& round : ecnn::Mapper(hw).plan(net.layers[0], 8).rounds)
      for (const auto& pass : round.passes)
        top_slice = std::max(top_slice, pass.slice_id);
    EXPECT_EQ(top_slice, slices == 1 ? 0u : 1u);

    NetworkRunStats stats[2];
    int k = 0;
    for (bool fast : {false, true}) {
      hw.fast_forward = fast;
      SneEngine engine(hw, 1u << 20);
      NetworkRunner runner(engine, /*use_wload_stream=*/true);
      stats[k++] = runner.run(net, in);
    }
    ASSERT_GT(stats[0].total.weight_load_beats, 0u);
    expect_equivalent(stats[0], stats[1]);
  }
}

TEST(FastForwardEquivalence, RunAfterThrowDrainsStrandedSlices) {
  // A run that throws leaves work in slices the next run's routes may not
  // reach. The next run must still tick them to quiescence, with the same
  // cycles and output as the per-cycle reference. (Counters are not
  // compared: a batch-executed sweep charges its counters up front, so the
  // thrown run takes charges the reference leaves to the next run.)
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 16, 2, 89));  // four slices wide
  const auto in = data::random_stream({1, 16, 16, 8}, 0.1, 97);
  core::XbarRoutes narrow;
  narrow.input_dest = {0};
  narrow.slice_dest.assign(4, core::SliceRoute{});

  core::RunResult after[2];
  int k = 0;
  for (bool fast : {false, true}) {
    SneConfig hw = SneConfig::paper_design_point(4);
    hw.fast_forward = fast;
    SneEngine engine(hw, 1u << 20);
    NetworkRunner runner(engine, /*use_wload_stream=*/false);
    runner.run(net, in);  // programs slices 0-3 and routes input to all four
    core::RunOptions cut;
    cut.max_cycles = 2000;
    EXPECT_THROW(engine.run(in, cut), ContractViolation);
    ASSERT_TRUE(engine.slice(3).busy() || !engine.slice(3).out_fifo().empty());
    engine.set_routes(narrow);
    after[k++] = engine.run(in);
    for (std::uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(engine.slice(i).idle()) << "slice " << i;
      EXPECT_TRUE(engine.slice(i).out_fifo().empty()) << "slice " << i;
      EXPECT_EQ(engine.slice(i).cluster_pending(), 0u) << "slice " << i;
    }
  }
  EXPECT_EQ(after[0].cycles, after[1].cycles);
  EXPECT_TRUE(after[0].output == after[1].output);
  EXPECT_GT(after[0].output.update_count(), 0u);
}

// --- batched drain engine ----------------------------------------------------

TEST(DrainEquivalence, DenseSpikingFire) {
  // Zero threshold and non-negative weights: every mapped neuron fires at
  // every scan, the worst case for the collector/DMA chain — exactly the
  // interleaving the batched drain engine compresses.
  QuantizedLayerSpec l = conv_layer(2, 16, 4, 0, 53);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({2, 16, 16, 6}, 0.25, 77);
  SneConfig hw = SneConfig::paper_design_point(2);
  expect_drain_equivalent(hw, net, in);
}

TEST(DrainEquivalence, MultiOutputDmas) {
  // The collector issues one beat per output DMA per cycle; the drain
  // replay must reproduce the per-DMA interleaving for every configured
  // width (paper IV-A.3's bandwidth-scaling knob).
  QuantizedLayerSpec l = conv_layer(2, 16, 4, 0, 59);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({2, 16, 16, 6}, 0.2, 79);
  for (std::uint32_t dmas : {1u, 2u, 4u}) {
    SneConfig hw = SneConfig::paper_design_point(4);
    hw.num_output_dmas = dmas;
    expect_drain_equivalent(hw, net, in);
  }
}

TEST(DrainEquivalence, MultiDmaWideSteadyRotation) {
  // 8 slices of dense output against D ∈ {2, 4} output DMAs: long steady
  // spans where D grants per cycle rotate across the request mask. The
  // D-wide closed form must land exactly where the per-cycle rotation
  // would — cursor position, per-DMA write interleaving, refill timing and
  // every counter, across block boundaries where D does not divide the
  // member count (M = 8 participants is exercised alongside smaller tails
  // as slices finish draining).
  QuantizedLayerSpec l = conv_layer(1, 16, 32, 0, 101);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.2, 103);
  for (std::uint32_t dmas : {2u, 4u}) {
    SneConfig hw = SneConfig::paper_design_point(8);
    hw.num_output_dmas = dmas;
    expect_drain_equivalent(hw, net, in);
  }
}

TEST(DrainEquivalence, ShallowFifosDenseDrain) {
  // Minimal buffering everywhere: stalls and backpressure at every hop of
  // the drain chain, including repeated full slice-output FIFOs.
  QuantizedLayerSpec l = conv_layer(1, 16, 2, 0, 61);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 8}, 0.3, 83);
  SneConfig hw = SneConfig::paper_design_point(1);
  hw.cluster_fifo_depth = 1;
  hw.slice_out_fifo_depth = 1;
  hw.dma_fifo_depth = 2;
  expect_drain_equivalent(hw, net, in);
}

TEST(DrainEquivalence, PipelineBackpressureDuringDrain) {
  // Pipeline operating mode with a spike-dense first stage and shallow
  // inter-slice FIFOs: the downstream slice backpressures the upstream
  // drain through the C-XBAR while both stages emit concurrently.
  QuantizedLayerSpec l1 = conv_layer(1, 16, 2, 0, 67);
  for (auto& w : l1.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  auto l2 = conv_layer(2, 16, 2, 1, 71);
  l2.name = "conv2";
  QuantizedNetwork net;
  net.layers.push_back(l1);
  net.layers.push_back(l2);
  const auto in = data::random_stream({1, 16, 16, 6}, 0.2, 87);

  event::EventStream outputs[3];
  hwsim::ActivityCounters counters[3];
  std::uint64_t cycles[3];
  int k = 0;
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = mode > 0;
    hw.drain_batching = mode > 1;
    hw.slice_in_fifo_depth = 1;
    hw.slice_out_fifo_depth = 2;
    SneEngine engine(hw, 1u << 20);
    const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
    core::RunOptions opts;
    opts.out_geometry = geom;
    const auto r = engine.run(in, opts);
    outputs[k] = r.output;
    counters[k] = r.counters;
    cycles[k] = r.cycles;
    ++k;
  }
  ASSERT_GT(counters[0].output_events, 0u);
  for (int m = 1; m < 3; ++m) {
    EXPECT_EQ(cycles[0], cycles[m]) << "mode " << m;
    EXPECT_TRUE(counters[0] == counters[m]) << "mode " << m
        << " counters diverge:\nref:  " << counters[0] << "\nfast: " << counters[m];
    EXPECT_TRUE(outputs[0] == outputs[m]) << "mode " << m;
  }
}

TEST(DrainEquivalence, PipeRoutedBulkDrainHostsDecodeBoundaries) {
  // Pipeline operating mode at default FIFO depths: the downstream slice
  // decodes a fresh event every few cycles, so the batched drain kernel
  // cannot exit at every decode boundary — it hosts the boundary slice via
  // the full tick() dispatch inside the kernel cycle while the rest of the
  // chain replays on the specialized path. Three-way bit-exact: cycles,
  // every counter field, exact output event order.
  QuantizedLayerSpec l1 = conv_layer(1, 16, 2, 0, 107);
  for (auto& w : l1.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  auto l2 = conv_layer(2, 16, 2, 5, 109);
  l2.name = "conv2";
  QuantizedNetwork net;
  net.layers.push_back(l1);
  net.layers.push_back(l2);
  const auto in = data::random_stream({1, 16, 16, 10}, 0.25, 113);

  event::EventStream outputs[3];
  hwsim::ActivityCounters counters[3];
  std::uint64_t cycles[3];
  int k = 0;
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig hw = SneConfig::paper_design_point(2);
    hw.fast_forward = mode > 0;
    hw.drain_batching = mode > 1;
    SneEngine engine(hw, 1u << 20);
    const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
    core::RunOptions opts;
    opts.out_geometry = geom;
    const auto r = engine.run(in, opts);
    outputs[k] = r.output;
    counters[k] = r.counters;
    cycles[k] = r.cycles;
    ++k;
  }
  ASSERT_GT(counters[0].output_events, 0u);
  for (int m = 1; m < 3; ++m) {
    EXPECT_EQ(cycles[0], cycles[m]) << "mode " << m;
    EXPECT_TRUE(counters[0] == counters[m]) << "mode " << m
        << " counters diverge:\nref:  " << counters[0] << "\nfast: " << counters[m];
    EXPECT_TRUE(outputs[0] == outputs[m]) << "mode " << m;
  }
}

TEST(DrainEquivalence, ResidentFcAcrossClusters) {
  // 16 input positions x 16 clusters fill the 256 weight sets exactly, so
  // the weights stay in the filter buffer. 150 outputs take clusters 0-2,
  // the last one engaged on 22 of its 64 slots: the FC UPDATE sweep must
  // integrate exactly each accepted cluster's engaged prefix.
  QuantizedNetwork net;
  net.layers.push_back(fc_layer(1, 4, 150, 71));
  const auto in = data::random_stream({1, 4, 4, 16}, 0.3, 73);
  const SneConfig hw = SneConfig::paper_design_point(2);
  const auto plan = ecnn::Mapper(hw).plan(net.layers[0], 16);
  ASSERT_EQ(plan.rounds.size(), 1u);
  ASSERT_FALSE(plan.rounds[0].passes[0].cfg.fc_weights_streamed);
  EXPECT_GT(expect_drain_equivalent(hw, net, in).total.output_events, 0u);
}

TEST(DrainEquivalence, StreamedFcAcrossClusters) {
  // 32 input positions overflow the filter buffer, so the weights stream
  // per event. 150 outputs end in a partial third cluster; 600 outputs take
  // ten clusters and 75 streaming beats per event, so the DMA outlasts the
  // 64-slot TDM sweep and sets the event's occupancy.
  const auto in = data::random_stream({2, 4, 4, 16}, 0.2, 79);
  for (const std::uint16_t outputs : {150, 600}) {
    SCOPED_TRACE("outputs=" + std::to_string(outputs));
    QuantizedNetwork net;
    net.layers.push_back(fc_layer(2, 4, outputs, 83));
    const SneConfig hw = SneConfig::paper_design_point(2);
    const auto plan = ecnn::Mapper(hw).plan(net.layers[0], 16);
    ASSERT_TRUE(plan.rounds[0].passes[0].cfg.fc_weights_streamed);
    const auto ref = expect_drain_equivalent(hw, net, in);
    EXPECT_GT(ref.total.output_events, 0u);
    EXPECT_GT(ref.total.weight_load_beats, 0u);
  }
}

TEST(DrainEquivalence, GestureNetworkOnLiveSlices) {
  // The Fig. 6 network on the 8-slice design point: conv1 spans all eight
  // slices, pool1 and conv2 two, and the pools and FC layers after them one,
  // so most engine runs leave the upper slices idle (and still configured
  // from an earlier, wider layer). A short synthetic gesture keeps the
  // per-cycle reference affordable.
  ecnn::Network topo = ecnn::Network::paper_topology(2, 32, 32, 11, 8, 64);
  Rng rng(99);
  for (auto& l : topo.layers) {
    for (auto& w : l.weights) w = static_cast<float>(rng.uniform(-0.3, 1.0));
    l.threshold = 2.0f;
    l.leak = 0.05f;
  }
  const QuantizedNetwork net = ecnn::quantize(topo);
  data::GestureConfig gcfg;
  gcfg.timesteps = 6;
  gcfg.classes = 1;
  gcfg.samples_per_class = 1;
  const event::EventStream in = data::make_gesture_dataset(gcfg).samples[0].stream;
  const SneConfig hw = SneConfig::paper_design_point(8);

  const ecnn::Mapper mapper(hw);
  std::vector<std::size_t> widths;
  for (const auto& layer : net.layers) {
    std::size_t w = 0;
    for (const auto& round : mapper.plan(layer, gcfg.timesteps).rounds)
      w = std::max(w, round.passes.size());
    widths.push_back(w);
  }
  ASSERT_EQ(widths.front(), 8u);
  EXPECT_EQ(widths.back(), 1u);

  const auto ref = expect_drain_equivalent(hw, net, in);
  // Every layer, the FC tail included, sees input events.
  for (std::size_t i = 0; i < ref.layers.size(); ++i)
    EXPECT_GT(ref.layers[i].input_events, 0u) << "layer " << i;
}

TEST(DrainEquivalence, FullOutputRegion) {
  // Output region sized down until the dense run overflows it: the drain
  // replay must stop one word short and let the per-cycle path raise the
  // same overflow, and near-full runs must stay bit-identical.
  QuantizedLayerSpec l = conv_layer(1, 16, 2, 0, 73);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(std::max(1, std::abs(w)));
  QuantizedNetwork net;
  net.layers.push_back(l);
  const auto in = data::random_stream({1, 16, 16, 4}, 0.3, 91);

  // 8192-word memory -> 4096-word output region: fits (~2k spikes + markers).
  SneConfig hw = SneConfig::paper_design_point(1);
  expect_drain_equivalent(hw, net, in, 8192);

  // 2048-word memory -> 1024-word region: overflows identically in every
  // engine mode.
  for (int mode = 0; mode < 3; ++mode) {
    SneConfig ov = hw;
    ov.fast_forward = mode > 0;
    ov.drain_batching = mode > 1;
    EXPECT_THROW(run_network_cfg(ov, net, in, 2048), ConfigError)
        << "mode " << mode;
  }
}

// --- BatchRunner ------------------------------------------------------------

TEST(BatchRunnerTest, DeterministicAcrossWorkerCounts) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(2, 32, 4, 6, 5));

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 6; ++s)
    inputs.push_back(data::random_stream({2, 32, 32, 8}, 0.04, 100 + s));

  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::BatchOptions base;
  base.memory_words = 1u << 20;

  std::vector<std::vector<NetworkRunStats>> all;
  for (unsigned workers : {1u, 2u, 3u}) {
    ecnn::BatchOptions o = base;
    o.workers = workers;
    ecnn::BatchRunner runner(hw, net, o);
    all.push_back(runner.run(inputs));
  }
  for (std::size_t w = 1; w < all.size(); ++w) {
    ASSERT_EQ(all[0].size(), all[w].size());
    for (std::size_t i = 0; i < all[0].size(); ++i) {
      EXPECT_EQ(all[0][i].cycles, all[w][i].cycles) << "sample " << i;
      EXPECT_TRUE(all[0][i].total == all[w][i].total) << "sample " << i;
      EXPECT_TRUE(all[0][i].final_output == all[w][i].final_output)
          << "sample " << i;
    }
  }
}

TEST(BatchRunnerTest, MatchesSerialNetworkRunner) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 5, 71));

  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 4; ++s)
    inputs.push_back(data::random_stream({1, 16, 16, 8}, 0.06, 200 + s));

  const SneConfig hw = SneConfig::paper_design_point(2);
  ecnn::BatchOptions o;
  o.memory_words = 1u << 20;
  o.workers = 2;
  ecnn::BatchRunner batch(hw, net, o);
  const auto batched = batch.run(inputs);

  // Serial reference: one engine reused across samples, as dataset loops
  // have always done.
  SneEngine engine(hw, 1u << 20);
  NetworkRunner runner(engine, /*use_wload_stream=*/false);
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto serial = runner.run(net, inputs[i]);
    EXPECT_EQ(serial.cycles, batched[i].cycles) << "sample " << i;
    EXPECT_TRUE(serial.total == batched[i].total) << "sample " << i;
    EXPECT_TRUE(serial.final_output == batched[i].final_output)
        << "sample " << i;
  }
}

TEST(BatchRunnerTest, PropagatesTaskExceptions) {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 5, 73));
  const SneConfig hw = SneConfig::paper_design_point(1);
  ecnn::BatchOptions o;
  o.memory_words = 1u << 20;
  o.workers = 2;
  ecnn::BatchRunner runner(hw, net, o);
  // An output map wider than the event address space makes Slice::configure
  // throw inside a worker; the exception must surface on the calling thread.
  QuantizedNetwork bad;
  bad.layers.push_back(conv_layer(1, 160, 1, 5, 73));
  ecnn::BatchRunner bad_runner(hw, bad, o);
  std::vector<event::EventStream> inputs;
  inputs.push_back(data::random_stream({1, 160, 160, 2}, 0.02, 3));
  EXPECT_ANY_THROW(bad_runner.run(inputs));
}

}  // namespace
}  // namespace sne
