// google-benchmark microbenchmarks of the simulator itself: host-side
// throughput of the cycle-accurate engine, the golden executor and the event
// codec. These do not reproduce paper numbers; they document the cost of
// using this repository (simulated cycles per host-second).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/golden.h"
#include "ecnn/mapper.h"
#include "ecnn/runner.h"
#include "event/event.h"
#include "event/event_io.h"
#include "net/client.h"
#include "net/gateway.h"
#include "obs/adapters.h"
#include "obs/metrics.h"
#include "obs/run_profile.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace {

using namespace sne;

// Attaches a RunProfile's per-mode cycle split as plain bench counters so
// BENCH_simthroughput.json records *where* the drain engine spends its
// simulated cycles, not just how fast it retires them.
// scripts/check_perf.py renders these as a warn-only mode-split table.
void attach_profile_counters(benchmark::State& state,
                             const obs::RunProfile& p) {
  const auto c = [](std::uint64_t v) {
    return benchmark::Counter(static_cast<double>(v));
  };
  state.counters["prof_dead_jump"] = c(p.dead_jump_cycles);
  state.counters["prof_sweep_jump"] = c(p.sweep_jump_cycles);
  state.counters["prof_percycle"] = c(p.percycle_cycles);
  state.counters["prof_burst"] = c(p.burst_cycles);
  state.counters["prof_bulk_replay"] = c(p.bulk_replay_cycles);
  state.counters["prof_steady"] = c(p.steady_cycles);
  state.counters["prof_drain_spans"] = c(p.drain_spans);
}

ecnn::QuantizedLayerSpec bench_layer() {
  ecnn::QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "bench_conv";
  l.in_ch = 2;
  l.in_w = 32;
  l.in_h = 32;
  l.out_ch = 4;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(4 * 2 * 9);
  Rng rng(5);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = 6;
  l.lif.leak = 1;
  return l;
}

void BM_EventPackUnpack(benchmark::State& state) {
  Rng rng(1);
  std::vector<event::Event> events(1024);
  for (auto& e : events)
    e = event::Event::update(
        static_cast<std::uint16_t>(rng.uniform_int(0, 255)),
        static_cast<std::uint16_t>(rng.uniform_int(0, 255)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 127)),
        static_cast<std::uint8_t>(rng.uniform_int(0, 127)));
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (const auto& e : events) acc ^= event::pack(e);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_EventPackUnpack);

void BM_GoldenLayer(benchmark::State& state) {
  const auto layer = bench_layer();
  const auto in = data::random_stream(
      {2, 32, 32, 20}, static_cast<double>(state.range(0)) / 1000.0, 99);
  for (auto _ : state) {
    auto trace = ecnn::GoldenExecutor::run_layer(layer, in);
    benchmark::DoNotOptimize(trace.output_events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.update_count()));
  state.SetLabel("events/iter=" + std::to_string(in.update_count()));
}
BENCHMARK(BM_GoldenLayer)->Arg(10)->Arg(30)->Arg(50);

// Arg 0: number of slices; arg 1: SneConfig::fast_forward (1 = default
// fast-forwarding engine, 0 = per-cycle reference path). The two must report
// identical sim_cycles_per_s denominators (cycle counts are bit-identical;
// test_fastforward proves it) — only wall-clock differs.
void BM_CycleAccurateLayer(benchmark::State& state) {
  const auto layer = bench_layer();
  const auto in = data::random_stream({2, 32, 32, 20}, 0.03, 99);
  core::SneConfig hw = core::SneConfig::paper_design_point(
      static_cast<std::uint32_t>(state.range(0)));
  hw.fast_forward = state.range(1) != 0;
  // Engine construction is hoisted out of the timed loop: every run
  // reprograms the slices and starts with an RST event, so reuse is
  // state-equivalent and the loop measures simulation.
  core::SneEngine engine(hw);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  ecnn::QuantizedNetwork net;
  net.layers.push_back(layer);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto stats = runner.run(net, in);
    cycles += stats.cycles;
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CycleAccurateLayer)
    ->Args({1, 1})->Args({4, 1})->Args({8, 1})
    ->Args({1, 0})->Args({4, 0})->Args({8, 0})
    ->Unit(benchmark::kMillisecond);

// Spike-dense workload measured on the engine core alone: a wide-output
// conv layer (zero threshold, strictly positive weights) makes nearly every
// mapped neuron fire at every scan from a sparse input, so simulated time is
// dominated by the spike drain through the cluster-FIFO -> slice collector
// -> engine collector -> output-DMA chain (one beat per hop per cycle).
// Slices are programmed and the beat program is compiled once outside the
// timed loop; each iteration is one engine.run() (engine reuse is
// state-equivalent: the program starts with an RST wipe). Arg 0: number of
// slices; arg 1: engine mode (0 = per-cycle reference, 1 = PR 1's
// fast-forward only, 2 = fast-forward + batched drain engine); arg 2:
// num_output_dmas (the paper IV-A.3 bandwidth-scaling knob — the D-wide
// steady-state rotation must hold its compression as D grows). All modes
// report identical sim_cycles_per_s denominators (bit-identical cycles, see
// test_fastforward's DrainEquivalence suite); only wall-clock differs.
void BM_DenseSpikingLayer(benchmark::State& state) {
  const auto slices = static_cast<std::uint32_t>(state.range(0));
  ecnn::QuantizedLayerSpec layer;
  layer.type = ecnn::LayerSpec::Type::kConv;
  layer.name = "dense_conv";
  layer.in_ch = 1;
  layer.in_w = 16;
  layer.in_h = 16;
  layer.out_ch = static_cast<std::uint16_t>(4 * slices);  // fills every slice
  layer.kernel = 3;
  layer.stride = 1;
  layer.pad = 1;
  layer.weights.resize(static_cast<std::size_t>(layer.out_ch) * 9);
  Rng rng(5);
  for (auto& w : layer.weights)
    w = static_cast<std::int8_t>(rng.uniform_int(1, 7));
  layer.lif.v_th = 0;
  layer.lif.leak = 1;
  const auto in = data::random_stream({1, 16, 16, 20}, 0.1, 177);

  core::SneConfig hw = core::SneConfig::paper_design_point(slices);
  hw.fast_forward = state.range(1) >= 1;
  hw.drain_batching = state.range(1) >= 2;
  hw.num_output_dmas = static_cast<std::uint32_t>(state.range(2));
  core::SneEngine engine(hw);
  ecnn::Mapper mapper(hw);
  const ecnn::LayerPlan plan = mapper.plan(layer, in.geometry().timesteps);
  if (plan.rounds.size() != 1) {
    state.SkipWithError("layer does not fit a single round");
    return;
  }
  std::vector<std::uint32_t> active;
  for (const ecnn::SlicePass& pass : plan.rounds[0].passes) {
    engine.configure_slice(pass.slice_id, pass.cfg);
    pass.write_weights(engine.slice(pass.slice_id).weights());
    active.push_back(pass.slice_id);
  }
  core::XbarRoutes routes;
  routes.input_dest = active;
  routes.slice_dest.assign(hw.num_slices,
                           core::SliceRoute{core::SliceRoute::kToMemory});
  engine.set_routes(routes);
  const std::vector<event::Beat> program =
      in.with_control_events(event::FirePolicy::kActiveStepsOnly).to_beats();
  core::RunOptions opts;
  opts.out_geometry = plan.out_geometry;
  // Counter-only measurement (same setting for every mode): the bench
  // times the simulation, not the output-stream decode.
  opts.materialize_output = false;

  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = engine.run(program, opts);
    cycles += r.cycles;
    events += r.counters.output_events;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["out_events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  // One profiled repeat outside the timed loop: the mode split documents
  // which drain machine earned the throughput above (bitwise-identical
  // results with profiling on, so the run is interchangeable with a timed
  // one — see tests/test_obs.cpp).
  {
    obs::ScopedProfiling profiling;
    const auto r = engine.run(program, opts);
    attach_profile_counters(state, r.profile);
    obs::publish_run_profile(
        obs::MetricsRegistry::instance(), r.profile,
        {{"bench", "dense"},
         {"args", std::to_string(state.range(0)) + "/" +
                      std::to_string(state.range(1)) + "/" +
                      std::to_string(state.range(2))}});
  }
}
BENCHMARK(BM_DenseSpikingLayer)
    ->Args({8, 2, 1})->Args({8, 1, 1})->Args({8, 0, 1})
    ->Args({4, 2, 1})->Args({4, 1, 1})
    // Multi-DMA drain: D grants per cycle through the rotating collector.
    ->Args({8, 2, 2})->Args({8, 1, 2})
    ->Args({8, 2, 4})->Args({8, 1, 4})
    ->Unit(benchmark::kMillisecond);

// Pipeline-routed drain workload: a spike-dense first conv stage chained
// into a second stage through the C-XBAR (paper III-D.5, pipeline operating
// mode). Decode boundaries recur every few cycles on the downstream slice,
// so the batched drain kernel hosts them via the full tick() dispatch
// instead of exiting back to the generic loop — this bench prices exactly
// that path. Arg 0: engine mode (0 = per-cycle reference, 1 = fast-forward,
// 2 = fast-forward + batched drain engine). All modes report identical
// sim_cycles_per_s denominators (DrainEquivalence's pipeline suites pin
// bit-exactness); only wall-clock differs.
void BM_DenseSpikingLayerPipeRouted(benchmark::State& state) {
  const auto stage = [](std::uint16_t in_ch, std::uint16_t out_ch,
                        std::int32_t v_th, std::uint64_t seed) {
    ecnn::QuantizedLayerSpec l;
    l.type = ecnn::LayerSpec::Type::kConv;
    l.name = "stage" + std::to_string(seed);
    l.in_ch = in_ch;
    l.in_w = 16;
    l.in_h = 16;
    l.out_ch = out_ch;
    l.kernel = 3;
    l.stride = 1;
    l.pad = 1;
    l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
    Rng rng(seed);
    for (auto& w : l.weights)
      w = static_cast<std::int8_t>(rng.uniform_int(1, 5));
    l.lif.v_th = v_th;
    l.lif.leak = 1;
    return l;
  };
  ecnn::QuantizedNetwork net;
  net.layers.push_back(stage(1, 2, 0, 67));  // dense: fires at every scan
  net.layers.push_back(stage(2, 2, 6, 71));
  const auto in = data::random_stream({1, 16, 16, 16}, 0.15, 177);

  core::SneConfig hw = core::SneConfig::paper_design_point(2);
  hw.fast_forward = state.range(0) >= 1;
  hw.drain_batching = state.range(0) >= 2;
  core::SneEngine engine(hw);
  const auto geom = ecnn::build_pipeline(engine, net, in.geometry().timesteps);
  const std::vector<event::Beat> program =
      in.with_control_events(event::FirePolicy::kActiveStepsOnly).to_beats();
  core::RunOptions opts;
  opts.out_geometry = geom;
  opts.materialize_output = false;

  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto r = engine.run(program, opts);
    cycles += r.cycles;
    events += r.counters.output_events;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["out_events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  // Untimed profiled repeat — same rationale as BM_DenseSpikingLayer.
  {
    obs::ScopedProfiling profiling;
    const auto r = engine.run(program, opts);
    attach_profile_counters(state, r.profile);
    obs::publish_run_profile(
        obs::MetricsRegistry::instance(), r.profile,
        {{"bench", "pipe_routed"},
         {"args", std::to_string(state.range(0))}});
  }
}
BENCHMARK(BM_DenseSpikingLayerPipeRouted)
    ->Arg(2)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Dataset-level batch simulation: N independent samples simulated across a
// worker pool (arg = worker count; results are bitwise identical for every
// value, see test_fastforward). On a multi-core host throughput scales
// near-linearly until the core count is reached.
void BM_BatchedDataset(benchmark::State& state) {
  const auto layer = bench_layer();
  ecnn::QuantizedNetwork net;
  net.layers.push_back(layer);
  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 16; ++s)
    inputs.push_back(data::random_stream({2, 32, 32, 10}, 0.03, 300 + s));

  ecnn::BatchOptions opts;
  opts.workers = static_cast<unsigned>(state.range(0));
  ecnn::BatchRunner runner(core::SneConfig::paper_design_point(4), net, opts);

  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto results = runner.run(inputs);
    for (const auto& r : results) cycles += r.cycles;
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inputs.size()));
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchedDataset)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// One cold inference of the Fig. 6 network (paper_topology(2, 32, 32, 11, 8,
// 64), the perfbench gesture-offline model) on the 8-slice design point, over
// one synthetic DVS-Gesture sample (T = 50), single-threaded NetworkRunner.
// conv1 spans all 8 slices while the later layers use one or two, and fc1/fc2
// run the FC UPDATE sweep, so this row tracks the per-event and per-slice
// host costs of a whole network rather than of one conv layer.
// `sim_cycles_per_inf` is a constant of the model and the input.
void BM_GestureNetwork(benchmark::State& state) {
  ecnn::Network topo = ecnn::Network::paper_topology(2, 32, 32, 11, 8, 64);
  Rng rng(99);
  for (auto& l : topo.layers) {
    for (auto& w : l.weights) w = static_cast<float>(rng.uniform(-0.3, 1.0));
    l.threshold = 2.0f;
    l.leak = 0.05f;
  }
  const ecnn::QuantizedNetwork net = ecnn::quantize(topo);
  data::GestureConfig gcfg;
  gcfg.samples_per_class = 1;
  const data::Dataset ds = data::make_gesture_dataset(gcfg);
  const event::EventStream& in = ds.samples.front().stream;

  // Engine construction is hoisted out of the timed loop; every run
  // reprograms each pass (no model fingerprint), so each iteration is cold.
  core::SneEngine engine(core::SneConfig::paper_design_point(8));
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  std::uint64_t cycles = 0;
  std::uint64_t cycles_per_inf = 0;
  for (auto _ : state) {
    const auto stats = runner.run(net, in);
    cycles += stats.cycles;
    cycles_per_inf = stats.cycles;
    benchmark::DoNotOptimize(stats.cycles);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["sim_cycles_per_inf"] =
      benchmark::Counter(static_cast<double>(cycles_per_inf));
}
BENCHMARK(BM_GestureNetwork)->Unit(benchmark::kMillisecond);

// One BPTT training epoch of the flat-tensor trainer on the Fig. 6-style
// topology (paper_topology(2, 32, 32, 4, 6, 32), 24 gesture samples, T = 16).
// Arg 0: neuron model (0 = SNE-LIF, 1 = SRM); arg 1: worker lanes
// (TrainConfig::workers; 1 = sample-serial processing). Minibatch is
// fixed at 4 for every worker count, so the trained weights are bitwise
// identical across all /N variants (test_train_parallel pins this) — only
// wall clock differs. Each iteration trains one epoch from a fresh seeded
// init so per-iteration work stays constant.
void BM_TrainerEpoch(benchmark::State& state) {
  data::GestureConfig gcfg;
  gcfg.classes = 4;
  gcfg.samples_per_class = 6;
  gcfg.timesteps = 16;
  const data::Dataset ds = data::make_gesture_dataset(gcfg);
  const ecnn::Network topo =
      ecnn::Network::paper_topology(2, 32, 32, 4, /*features=*/6,
                                    /*hidden=*/32);
  train::TrainConfig cfg;
  cfg.model = state.range(0) == 0 ? train::NeuronModel::kSneLif
                                  : train::NeuronModel::kSrm;
  cfg.epochs = 1;
  cfg.minibatch = 4;
  cfg.workers = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    train::Trainer trainer(topo, cfg);
    const auto hist = trainer.fit(ds);
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.samples.size()));
  state.SetLabel(state.range(0) == 0 ? "model=sne-lif" : "model=srm");
}
BENCHMARK(BM_TrainerEpoch)
    ->Args({0, 1})->Args({0, 2})->Args({0, 4})
    ->Args({1, 1})->Args({1, 4})
    ->UseRealTime()  // worker lanes shift work off the timing thread
    ->Unit(benchmark::kMillisecond);

// Serving throughput: a batch of requests through the sne::serve runtime.
// Arg 0: engines (server workers); arg 1: execution mode. Mode numbers 2
// and 5 are unused: the other modes keep their numbers so the committed
// baseline rows keep their names.
//
// Host-loaded weights, 3-layer conv/pool/fc model (PR 4's workload):
//   1 = pooled-reuse, cold: leases reset engines, reprograms every request
//
// WLOAD-streamed weights, weight-heavy single-conv model (programming
// dominates a request — the weight-resident serving workload):
//   3 = pooled, cold: every request streams the full WLOAD program
//   4 = pooled, warm: weight-resident leases skip the WLOAD phase entirely
// Modes 3-4 agree on events/spikes and post-programming counters (the
// relaxed equality tier); the warm mode reports fewer sim cycles because
// the programming phase is simply absent — the 4-vs-3 wall-clock gap is
// the program-once / serve-many win.
//
// Fault-tolerance mode (3-layer host-loaded model again):
//   6 = chaos + shedding: the sne::faults injector is armed with a seeded
//       8% dispatch-failure rule (each failure quarantines an engine and
//       retries within retry_budget), and every 4th request carries an
//       already-expired deadline (shed at admission, never simulated). This
//       prices the hardened serving path under load; mode 1 with the
//       injector disarmed is the contrast that keeps the compiled-in-but-
//       disabled overhead honest.
//
// Multi-tenant mode (3-layer host-loaded model again):
//   7 = multi-tenant-skew: four tenants with Zipf weights (8/4/2/1) and a
//       matching skewed request mix, under the same seeded 8% dispatch
//       chaos as mode 6. This prices the weighted-fair front door
//       (FairScheduler: DRR dispatch and per-tenant ledgers on every
//       admission) against mode 6's single-FIFO chaos baseline and mode 1's
//       clean one.
//
// Network gateway mode (mode 7's workload over real sockets):
//   8 = gateway-loopback: the same four Zipf-weighted tenants, skewed mix
//       and seeded 8% dispatch chaos as mode 7, but every request travels
//       through the HTTP gateway on 127.0.0.1 — one keep-alive client
//       thread per tenant, bodies SNE1-encoded on the wire, cycles read
//       back from the X-Sne-Cycles response header. The 8-vs-7 wall-clock
//       gap prices the whole front door: parsing, auth, socket hops and
//       the IO thread/worker handoff.
void BM_ServeThroughput(benchmark::State& state) {
  const auto engines = static_cast<unsigned>(state.range(0));
  const auto mode = static_cast<int>(state.range(1));
  const bool wload = mode == 3 || mode == 4;
  const std::string mode_label = mode == 1   ? "pooled-reuse"
                                 : mode == 3 ? "wload-cold-pooled"
                                 : mode == 4 ? "wload-warm-pooled"
                                 : mode == 6 ? "chaos-retry-shed"
                                 : mode == 7 ? "multi-tenant-skew"
                                             : "gateway-loopback";
  ecnn::QuantizedNetwork net;
  if (wload) {
    // 16 input channels x 16 resident output channels per slice at kernel 5
    // fill all 256 weight sets of each slice: 1280 WLOAD beats per pass,
    // against a deliberately sparse input (the request's simulation work).
    ecnn::QuantizedLayerSpec conv;
    conv.type = ecnn::LayerSpec::Type::kConv;
    conv.name = "wload_conv";
    conv.in_ch = 16;
    conv.in_w = 8;
    conv.in_h = 8;
    conv.out_ch = 32;
    conv.kernel = 5;
    conv.stride = 1;
    conv.pad = 2;
    conv.weights.resize(static_cast<std::size_t>(conv.out_ch) * conv.in_ch *
                        conv.kernel * conv.kernel);
    Rng rng(23);
    for (auto& w : conv.weights)
      w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
    conv.lif.v_th = 100;  // keep the output drain small
    conv.lif.leak = 1;
    net.layers.push_back(conv);
  } else {
    ecnn::QuantizedLayerSpec conv;
    conv.type = ecnn::LayerSpec::Type::kConv;
    conv.name = "conv";
    conv.in_ch = 1;
    conv.in_w = 16;
    conv.in_h = 16;
    conv.out_ch = 8;
    conv.kernel = 3;
    conv.stride = 1;
    conv.pad = 1;
    conv.weights.resize(static_cast<std::size_t>(conv.out_ch) * 9);
    Rng rng(11);
    for (auto& w : conv.weights)
      w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
    conv.lif.v_th = 4;
    conv.lif.leak = 1;
    net.layers.push_back(conv);

    ecnn::QuantizedLayerSpec pool;
    pool.type = ecnn::LayerSpec::Type::kPool;
    pool.name = "pool";
    pool.in_ch = 8;
    pool.in_w = 16;
    pool.in_h = 16;
    pool.out_ch = 8;
    pool.kernel = 2;
    pool.stride = 2;
    pool.lif.v_th = 0;
    pool.lif.leak = 0;
    net.layers.push_back(pool);

    ecnn::QuantizedLayerSpec fc;
    fc.type = ecnn::LayerSpec::Type::kFc;
    fc.name = "fc";
    fc.in_ch = 8;
    fc.in_w = 8;
    fc.in_h = 8;
    fc.out_ch = 10;
    fc.weights.resize(static_cast<std::size_t>(fc.out_ch) * fc.in_flat());
    for (auto& w : fc.weights)
      w = static_cast<std::int8_t>(rng.uniform_int(-7, 7));
    fc.lif.v_th = 6;
    fc.lif.leak = 1;
    net.layers.push_back(fc);
  }
  std::vector<event::EventStream> inputs;
  for (std::uint64_t s = 0; s < 12; ++s)
    inputs.push_back(wload
                         ? data::random_stream({16, 8, 8, 4}, 0.01, 910 + s)
                         : data::random_stream({1, 16, 16, 10}, 0.08, 910 + s));

  const core::SneConfig hw = core::SneConfig::paper_design_point(2);
  serve::ModelRegistry registry;
  registry.put("m", net);

  std::uint64_t cycles = 0;
  std::uint64_t requests = 0;
  serve::ServeOptions so;
  so.engines = engines;
  so.warm_weights = mode == 4;
  so.use_wload_stream = wload;
  serve::InferenceServer server(registry, hw, so);
  // Zipf-weighted tenants with a matching skewed request mix: the hot
  // tenant holds more than half the traffic AND more than half the fair
  // share, so the DRR ring and the ledger updates run hot.
  static constexpr unsigned kTenantOf[12] = {0, 0, 0, 0, 0, 0,
                                             1, 1, 1, 2, 2, 3};
  static const std::string kTenantName[4] = {"t0", "t1", "t2", "t3"};
  if (mode == 7 || mode == 8)
    for (unsigned ti = 0; ti < 4; ++ti) {
      serve::TenantConfig tc;
      tc.weight = 8u >> ti;  // 8, 4, 2, 1
      server.register_tenant(kTenantName[ti], tc);
    }
  std::optional<faults::ScopedFaults> chaos;
  if (mode >= 6) {
    faults::FaultConfig cfg;
    cfg.seed = 2026;
    cfg.rules.push_back(
        faults::FaultRule{"serve.server.dispatch", {}, 0.08, 0.0});
    chaos.emplace(std::move(cfg));
  }
  if (mode == 8) {
    net::GatewayConfig gcfg;
    for (unsigned ti = 0; ti < 4; ++ti)
      gcfg.bearer_tokens["tok-" + kTenantName[ti]] = kTenantName[ti];
    net::GatewayServer gateway(server, gcfg);
    std::vector<std::string> bodies;
    for (const auto& in : inputs) bodies.push_back(event::encode_stream(in));
    for (auto _ : state) {
      std::atomic<std::uint64_t> iter_cycles{0};
      std::vector<std::thread> drivers;
      for (unsigned ti = 0; ti < 4; ++ti) {
        drivers.emplace_back([&, ti] {
          // One keep-alive connection per tenant; its requests serialize
          // on it like a real client's would. The gateway closes the
          // connection after a 500 (a chaos failure that outran the retry
          // budget), so the driver reconnects like a real client — at most
          // one fresh attempt per request.
          std::optional<net::HttpClient> c;
          c.emplace("127.0.0.1", gateway.port());
          const std::vector<std::pair<std::string, std::string>> auth = {
              {"Authorization", "Bearer tok-" + kTenantName[ti]}};
          for (std::size_t i = 0; i < bodies.size(); ++i) {
            if (kTenantOf[i] != ti) continue;
            for (int attempt = 0; attempt < 2; ++attempt) {
              try {
                const net::ClientResponse r = c->request(
                    "POST", "/v1/infer?model=m", auth, bodies[i]);
                const std::string* cyc = r.header("x-sne-cycles");
                // Chaos answers (a 500 whose injected failure outran the
                // retry budget) carry no cycle header and count no work.
                if (r.status == 200 && cyc != nullptr)
                  iter_cycles.fetch_add(
                      std::strtoull(cyc->c_str(), nullptr, 10));
                break;
              } catch (const net::NetError&) {
                c.emplace("127.0.0.1", gateway.port());
              }
            }
          }
        });
      }
      for (auto& d : drivers) d.join();
      cycles += iter_cycles.load();
      requests += inputs.size();
      benchmark::DoNotOptimize(requests);
    }
    const obs::Labels base{{"bench", "serve"}, {"mode", mode_label}};
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    obs::publish_server_stats(reg, server.stats(), base);
    obs::publish_fault_stats(reg, base);
    obs::publish_gateway_stats(reg, gateway.stats(), base);
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
    state.SetLabel("mode=" + mode_label);
    return;
  }
  std::vector<serve::Ticket> tickets;
  for (auto _ : state) {
    tickets.clear();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      serve::RequestOptions ropts;
      if (mode == 6 && i % 4 == 3)
        ropts.deadline = std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1);
      if (mode == 7) ropts.tenant = kTenantName[kTenantOf[i]];
      tickets.push_back(server.submit("m", inputs[i], ropts));
    }
    for (const auto& t : tickets) {
      try {
        cycles += t.wait().cycles;
      } catch (const serve::DeadlineExceeded&) {
        // shed by design: every 4th request arrives expired
      } catch (const faults::FaultError&) {
        // an injected failure that outran the retry budget
      }
    }
    requests += tickets.size();
    benchmark::DoNotOptimize(tickets.size());
  }
  // Publish the final server snapshot (headline, per-tenant ledgers,
  // engine-pool roll-up) and the fault injector's per-site counters into
  // the process registry. Untimed; the SNE_OBS_PROM / SNE_OBS_METRICS_JSON
  // exports in main() scrape whatever accumulated here.
  const obs::Labels base{{"bench", "serve"}, {"mode", mode_label}};
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::publish_server_stats(reg, server.stats(), base);
  obs::publish_fault_stats(reg, base);
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.SetLabel("mode=" + mode_label);
}
BENCHMARK(BM_ServeThroughput)
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})
    ->Args({1, 3})->Args({1, 4})->Args({2, 3})->Args({2, 4})
    ->Args({2, 6})->Args({2, 7})->Args({2, 8})
    ->UseRealTime()  // dispatch workers shift work off the timing thread
    ->Unit(benchmark::kMillisecond);

void BM_GestureGeneration(benchmark::State& state) {
  for (auto _ : state) {
    data::GestureConfig cfg;
    cfg.samples_per_class = 1;
    auto d = data::make_gesture_dataset(cfg);
    benchmark::DoNotOptimize(d.samples.size());
  }
}
BENCHMARK(BM_GestureGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp the *library under test*'s
// build type into the JSON context. The stock `library_build_type` field
// reports how the google-benchmark library itself was compiled (Debian's
// libbenchmark-dev is a debug build), which says nothing about sne_core;
// scripts/check_perf.py and the committed-baseline policy key off this field
// instead.
//
// Telemetry export, all default-off (the timed loops never touch the
// registry; spans cost one disarmed atomic load each):
//   SNE_OBS_TRACE=<path>         arm the span tracer for the whole run and
//                                write Chrome trace-event JSON at exit
//                                (open in ui.perfetto.dev)
//   SNE_OBS_PROM=<path>          write the metrics registry as Prometheus
//                                text exposition at exit
//   SNE_OBS_METRICS_JSON=<path>  write the registry's JSON snapshot at exit
// scripts/check_obs.py validates all three in CI.
namespace {
const char* obs_env(const char* key) {
  const char* v = std::getenv(key);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}
void obs_dump(const char* path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
}
}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("sne_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  if (obs_env("SNE_OBS_TRACE") != nullptr) sne::obs::Tracer::instance().arm();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  if (const char* path = obs_env("SNE_OBS_TRACE")) {
    sne::obs::Tracer& tracer = sne::obs::Tracer::instance();
    tracer.disarm();
    obs_dump(path, tracer.chrome_trace_json());
  }
  if (const char* path = obs_env("SNE_OBS_PROM"))
    obs_dump(path, sne::obs::MetricsRegistry::instance().prometheus_text());
  if (const char* path = obs_env("SNE_OBS_METRICS_JSON"))
    obs_dump(path, sne::obs::MetricsRegistry::instance().json_snapshot());
  benchmark::Shutdown();
  return 0;
}
