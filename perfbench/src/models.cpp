#include "models.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "data/synthetic.h"
#include "ecnn/engine_pool.h"
#include "ecnn/golden.h"
#include "ecnn/layer.h"
#include "ecnn/mapper.h"
#include "energy/energy_model.h"
#include "obs/run_profile.h"

namespace perfbench {

using namespace sne;

ecnn::QuantizedNetwork gesture_network() {
  ecnn::Network net = ecnn::Network::paper_topology(2, 32, 32, 11, 8, 64);
  Rng rng(99);
  for (auto& l : net.layers) {
    for (auto& w : l.weights) w = static_cast<float>(rng.uniform(-0.3, 1.0));
    l.threshold = 2.0f;
    l.leak = 0.05f;
  }
  return ecnn::quantize(net);
}

std::vector<event::EventStream> gesture_batch(std::uint64_t seed, bool dense,
                                              std::uint16_t per_class) {
  data::GestureConfig cfg;
  cfg.samples_per_class = per_class;
  cfg.seed = seed;
  if (dense) {
    cfg.blob_rate = 48.0;
    cfg.noise_rate = 2.0;
  }
  const data::Dataset ds = data::make_gesture_dataset(cfg);
  std::vector<event::EventStream> out;
  out.reserve(ds.samples.size());
  for (const auto& s : ds.samples) out.push_back(s.stream);
  return out;
}

namespace {
ecnn::QuantizedLayerSpec conv_layer(std::uint16_t in_ch, std::uint16_t out_ch,
                                    std::int32_t v_th, std::uint64_t seed) {
  ecnn::QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "conv";
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
    w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}
}  // namespace

ecnn::QuantizedNetwork pipe_network() {
  ecnn::QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 2, 4, 31));
  net.layers.push_back(conv_layer(2, 2, 5, 32));
  net.layers.back().name = "conv2";
  return net;
}

namespace {
/// Metric suffix and span name of a layer's NetworkRunner::run_layer call.
struct LayerKind {
  const char* name;
  const char* span;
};
LayerKind layer_kind(const ecnn::QuantizedLayerSpec& layer) {
  switch (layer.type) {
    case ecnn::LayerSpec::Type::kPool: return {"pool", "ecnn.run_layer.pool"};
    case ecnn::LayerSpec::Type::kFc: return {"fc", "ecnn.run_layer.fc"};
    case ecnn::LayerSpec::Type::kConv: break;
  }
  return {"conv", "ecnn.run_layer.conv"};
}

/// UPDATE events of a stream in (t, ch, y, x) order.
std::vector<event::Event> canonical_spikes(const event::EventStream& s) {
  std::vector<event::Event> out;
  for (const event::Event& e : s.events())
    if (e.op == event::Op::kUpdate) out.push_back(e);
  std::sort(out.begin(), out.end(), [](const event::Event& a,
                                       const event::Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.ch != b.ch) return a.ch < b.ch;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  return out;
}
}  // namespace

std::vector<std::vector<event::Event>> golden_spikes(
    const ecnn::QuantizedNetwork& net, const event::EventStream& input) {
  std::vector<std::vector<event::Event>> out;
  for (const auto& trace : ecnn::GoldenExecutor::run_network(net, input))
    out.push_back(canonical_spikes(trace.output));
  return out;
}

bool matches_golden(const ecnn::NetworkRunStats& r,
                    const std::vector<std::vector<event::Event>>& golden) {
  if (r.layers.size() != golden.size()) return false;
  for (std::size_t l = 0; l < golden.size(); ++l)
    if (canonical_spikes(r.layers[l].output) != golden[l]) return false;
  return true;
}

void SimTotals::add(const ecnn::NetworkRunStats& r, std::size_t events) {
  ++inferences;
  cycles += r.cycles;
  sops += r.total.neuron_updates;
  input_events += events;
  counters += r.total;
}

EnergyBand energy_band(const core::SneConfig& hw, const SimTotals& t) {
  EnergyBand b;
  if (t.inferences == 0) return b;
  const energy::EnergyModel model(hw);
  const energy::EnergyReport e = model.evaluate(t.counters);
  const double n = static_cast<double>(t.inferences);
  b.uj_per_inf = e.total_uj() / n;
  b.pj_per_sop = t.sops == 0 ? 0.0 : e.total_pj() / static_cast<double>(t.sops);
  b.sim_ms_per_inf = static_cast<double>(t.cycles) * hw.cycle_ns() * 1e-6 / n;
  return b;
}

void report_energy(Report& rep, const core::SneConfig& hw,
                   const SimTotals& sparse, const SimTotals& dense,
                   const std::string& what) {
  const EnergyBand s = energy_band(hw, sparse);
  const EnergyBand d = energy_band(hw, dense);
  rep.set("energy.uj_per_inf.sparse", s.uj_per_inf, "uJ");
  rep.set("energy.uj_per_inf.dense", d.uj_per_inf, "uJ");
  rep.set("energy.pj_per_sop.sparse", s.pj_per_sop, "pJ");
  rep.set("energy.pj_per_sop.dense", d.pj_per_sop, "pJ");
  rep.set("energy.sim_ms_per_inf.sparse", s.sim_ms_per_inf, "ms");
  rep.set("energy.sim_ms_per_inf.dense", d.sim_ms_per_inf, "ms");
  const double ratio = s.uj_per_inf > 0.0 ? d.uj_per_inf / s.uj_per_inf : 0.0;
  rep.set("energy.dense_sparse_ratio", ratio, "x");
  std::printf(
      "simulated (%s, %u slices @ %.0f MHz; energy model not validated "
      "against silicon):\n",
      what.c_str(), hw.num_slices, hw.clock_mhz);
  const auto line = [&](const char* band, const SimTotals& t,
                        const EnergyBand& b) {
    std::printf(
        "  %-6s %6llu inf  %.4f uJ/inf  %.4f pJ/SOP  %.4f sim ms/inf  "
        "%.1f cycles/inf  %.1f SOP/inf\n",
        band, static_cast<unsigned long long>(t.inferences), b.uj_per_inf,
        b.pj_per_sop, b.sim_ms_per_inf,
        t.inferences ? static_cast<double>(t.cycles) / t.inferences : 0.0,
        t.inferences ? static_cast<double>(t.sops) / t.inferences : 0.0);
  };
  line("sparse", sparse, s);
  line("dense", dense, d);
  std::printf(
      "  dense/sparse energy ratio %.3fx (paper: 261/80 uJ = 3.26x on a "
      "144x144-class network; compare ratios only, never absolutes)\n",
      ratio);
}

void probe_ecnn(Report& rep, const ecnn::QuantizedNetwork& net,
                const core::SneConfig& hw,
                const std::vector<event::EventStream>& inputs, bool warm) {
  ecnn::EnginePoolOptions po;
  po.memory_words = 1u << 20;
  ecnn::EnginePool pool(hw, 0, po);
  const ecnn::Mapper mapper(hw);
  const std::uint64_t fp = ecnn::model_fingerprint(net);
  const std::uint64_t run_fp = warm ? fp : 0;
  const obs::ScopedProfiling profiling;

  std::vector<double> lease_us, plan_us, program_ms, golden_ms;
  std::map<std::string, double> layer_ms;  // kind -> total
  double run_ns = 0.0;
  std::uint64_t cycles = 0, events = 0, n = 0;
  obs::RunProfile prof;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const event::EventStream& input = inputs[i];
    const std::uint16_t T = input.geometry().timesteps;
    Span inference("ecnn.inference", i + 1);

    auto t0 = Clock::now();
    std::optional<ecnn::EnginePool::Lease> lease;
    {
      Span s("ecnn.pool.acquire");
      lease.emplace(pool.acquire(run_fp));
    }
    double lease_ms = ms_between(t0, Clock::now());

    for (const auto& layer : net.layers) {
      Span s("ecnn.plan");
      t0 = Clock::now();
      const ecnn::LayerPlan plan = mapper.plan(layer, T);
      plan_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      if (plan.rounds.empty()) rep.fail_check("empty mapper plan");
    }
    for (std::size_t k = 0; k < net.layers.size(); ++k) {
      Span s("ecnn.program_layer");
      t0 = Clock::now();
      lease->runner().program_layer(net.layers[k], T, fp, k);
      program_ms.push_back(ms_between(t0, Clock::now()));
    }

    std::vector<event::EventStream> outs;
    outs.reserve(net.layers.size());
    const event::EventStream* cur = &input;
    for (std::size_t k = 0; k < net.layers.size(); ++k) {
      const LayerKind kind = layer_kind(net.layers[k]);
      ecnn::LayerRunStats st;
      {
        Span s(kind.span);
        t0 = Clock::now();
        st = lease->runner().run_layer(net.layers[k], *cur,
                                       event::FirePolicy::kActiveStepsOnly,
                                       run_fp, k);
        const double ms = ms_between(t0, Clock::now());
        layer_ms[kind.name] += ms;
        run_ns += ms * 1e6;
      }
      cycles += st.cycles;
      events += st.input_events;
      prof += st.profile;
      outs.push_back(std::move(st.output));
      cur = &outs.back();
    }

    t0 = Clock::now();
    {
      Span s("ecnn.pool.release");
      lease.reset();
    }
    lease_ms += ms_between(t0, Clock::now());
    lease_us.push_back(lease_ms * 1e3);

    std::vector<std::vector<event::Event>> golden;
    {
      Span s("ecnn.golden");
      t0 = Clock::now();
      golden = golden_spikes(net, input);
      golden_ms.push_back(ms_between(t0, Clock::now()));
    }
    bool ok = golden.size() == outs.size();
    for (std::size_t k = 0; ok && k < outs.size(); ++k)
      ok = canonical_spikes(outs[k]) == golden[k];
    rep.count(ok, "layer-by-layer replay vs golden");
    ++n;
  }

  const double inf = static_cast<double>(n);
  rep.set("core.host_ns_per_cycle", cycles ? run_ns / cycles : 0.0, "ns");
  rep.set("core.host_ns_per_event", events ? run_ns / events : 0.0, "ns");
  rep.set("core.prof.dead_jump", prof.dead_jump_cycles / inf, "cycles");
  rep.set("core.prof.sweep_jump", prof.sweep_jump_cycles / inf, "cycles");
  rep.set("core.prof.percycle", prof.percycle_cycles / inf, "cycles");
  rep.set("core.prof.burst", prof.burst_cycles / inf, "cycles");
  rep.set("core.prof.bulk_replay", prof.bulk_replay_cycles / inf, "cycles");
  rep.set("core.prof.steady", prof.steady_cycles / inf, "cycles");
  for (const char* kind : {"conv", "pool", "fc"})
    rep.set(std::string("ecnn.run_layer_ms.") + kind, layer_ms[kind] / inf,
            "ms");
  rep.set("ecnn.plan_us", mean(plan_us), "us");
  rep.set("ecnn.program_ms", mean(program_ms), "ms");
  rep.set("ecnn.pool_lease_us", mean(lease_us), "us");
  rep.set("ecnn.golden_ms_per_inf", mean(golden_ms), "ms");
  std::printf("probe: %llu inferences replayed layer by layer (%s path)\n",
              static_cast<unsigned long long>(n), warm ? "warm" : "cold");
}

}  // namespace perfbench
