#include "ecnn/runner.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"
#include "common/fault_injection.h"
#include "common/fnv.h"
#include "obs/trace.h"

namespace sne::ecnn {

std::uint64_t model_fingerprint(const QuantizedNetwork& net) {
  std::uint64_t h = kFnv64Basis;
  h = fnv64_step(h, net.layers.size());
  for (const QuantizedLayerSpec& l : net.layers) {
    h = fnv64_step(h, static_cast<std::uint64_t>(l.type));
    h = fnv64_step(h, l.name.size());
    for (const char ch : l.name)
      h = fnv64_step(h, static_cast<unsigned char>(ch));
    h = fnv64_step(h, l.in_ch);
    h = fnv64_step(h, l.in_w);
    h = fnv64_step(h, l.in_h);
    h = fnv64_step(h, l.out_ch);
    h = fnv64_step(h, l.kernel);
    h = fnv64_step(h, l.stride);
    h = fnv64_step(h, l.pad);
    h = fnv64_step(h, static_cast<std::uint32_t>(l.lif.leak));
    h = fnv64_step(h, static_cast<std::uint32_t>(l.lif.v_th));
    h = fnv64_step(h, static_cast<std::uint64_t>(l.lif.leak_mode));
    h = fnv64_step(h, static_cast<std::uint64_t>(l.lif.reset_mode));
    h = fnv64_step(h, std::bit_cast<std::uint64_t>(l.scale));
    h = fnv64_step(h, l.weights.size());
    for (const std::int8_t w : l.weights)
      h = fnv64_step(h, static_cast<std::uint8_t>(w));
  }
  return h == 0 ? kFnv64Basis : h;
}

std::uint64_t pass_residency_tag(std::uint64_t model_fp,
                                 std::uint16_t timesteps, std::size_t layer,
                                 std::size_t round, std::size_t pass) {
  std::uint64_t h = fnv64_step(kFnv64Basis, model_fp);
  h = fnv64_step(h, timesteps);
  h = fnv64_step(h, layer);
  h = fnv64_step(h, round);
  h = fnv64_step(h, pass);
  return h == 0 ? 1 : h;
}

PipelinePlan plan_pipeline(const core::SneConfig& hw,
                           const QuantizedNetwork& net,
                           std::uint16_t timesteps) {
  SNE_EXPECTS(!net.layers.empty());
  if (net.layers.size() > hw.num_slices)
    throw ConfigError("pipeline mode needs one slice per layer (" +
                      std::to_string(net.layers.size()) + " layers, " +
                      std::to_string(hw.num_slices) + " slices)");
  Mapper mapper(hw);
  PipelinePlan out;
  for (const QuantizedLayerSpec& layer : net.layers) {
    LayerPlan plan = mapper.plan(layer, timesteps);
    if (plan.rounds.size() != 1 || plan.rounds[0].passes.size() != 1)
      throw ConfigError("layer '" + layer.name +
                        "' needs multiple passes and cannot run in pipeline "
                        "mode; use NetworkRunner (time-multiplexed) instead");
    out.stages.push_back(std::move(plan.rounds[0].passes[0]));
    out.out_geometry = plan.out_geometry;
  }
  return out;
}

void program_pipeline(core::SneEngine& engine, const PipelinePlan& plan) {
  for (std::size_t li = 0; li < plan.stages.size(); ++li) {
    const SlicePass& pass = plan.stages[li];
    const auto slice = static_cast<std::uint32_t>(li);
    engine.configure_slice(slice, pass.cfg);
    pass.write_weights(engine.slice(slice).weights());
  }
  engine.set_routes(core::XbarRoutes::pipeline(
      static_cast<std::uint32_t>(plan.stages.size())));
}

event::StreamGeometry build_pipeline(core::SneEngine& engine,
                                     const QuantizedNetwork& net,
                                     std::uint16_t timesteps) {
  const PipelinePlan plan = plan_pipeline(engine.config(), net, timesteps);
  program_pipeline(engine, plan);
  return plan.out_geometry;
}

NetworkRunStats NetworkRunner::run(const QuantizedNetwork& net,
                                   const event::EventStream& input,
                                   event::FirePolicy policy,
                                   std::uint64_t model_fp) {
  SNE_EXPECTS(!net.layers.empty());
  NetworkRunStats stats;
  const event::EventStream* current = &input;
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    stats.layers.push_back(
        run_layer(net.layers[li], *current, policy, model_fp, li));
    current = &stats.layers.back().output;
    stats.total += stats.layers.back().counters;
    stats.cycles += stats.layers.back().cycles;
    stats.programming += stats.layers.back().programming;
    stats.programming_cycles += stats.layers.back().programming_cycles;
    stats.passes_total += stats.layers.back().passes_total;
    stats.passes_warm += stats.layers.back().passes_warm;
    stats.profile += stats.layers.back().profile;
  }
  stats.final_output = stats.layers.back().output;
  return stats;
}

LayerRunStats NetworkRunner::run_layer(const QuantizedLayerSpec& layer,
                                       const event::EventStream& input,
                                       event::FirePolicy policy,
                                       std::uint64_t model_fp,
                                       std::size_t layer_index) {
  obs::ScopedSpan layer_span("ecnn.layer", layer_index);
  const std::uint16_t T = input.geometry().timesteps;
  LayerPlan local_plan;
  const LayerPlan* plan_ptr;
  if (model_fp != 0) {
    plan_ptr = &cached_plan(layer, T, model_fp, layer_index);
  } else {
    local_plan = mapper_.plan(layer, T);
    plan_ptr = &local_plan;
  }
  const LayerPlan& plan = *plan_ptr;

  LayerRunStats stats;
  stats.name = layer.name;
  stats.input_events = input.update_count();
  stats.input_activity = input.activity();
  stats.rounds = plan.rounds.size();
  stats.output = event::EventStream(plan.out_geometry);

  for (std::size_t ri = 0; ri < plan.rounds.size(); ++ri) {
    const Round& round = plan.rounds[ri];
    // Program every participating slice (configuration + weights) — unless
    // the slice provably still holds this exact pass (warm residency), in
    // which case rewinding its dynamic state is bitwise equivalent to
    // reprogramming and the whole WLOAD phase is skipped.
    std::vector<std::uint32_t> active;
    for (std::size_t pi = 0; pi < round.passes.size(); ++pi) {
      const SlicePass& pass = round.passes[pi];
      ++stats.passes_total;
      const std::uint64_t tag =
          model_fp == 0
              ? 0
              : pass_residency_tag(model_fp, T, layer_index, ri, pi);
      if (engine_->warm_rewind_slice(pass.slice_id, tag)) {
        ++stats.passes_warm;
        obs::trace_instant("ecnn.warm_skip", pass.slice_id);
      } else {
        obs::ScopedSpan program_span("ecnn.program", pass.slice_id);
        engine_->configure_slice(pass.slice_id, pass.cfg);
        program_weights(pass, stats.programming, stats.programming_cycles,
                        &stats.profile);
        if (tag != 0) engine_->tag_resident_pass(pass.slice_id, tag);
      }
      active.push_back(pass.slice_id);
    }

    // Broadcast the layer input to the round's slices.
    core::XbarRoutes routes;
    routes.input_dest = active;
    routes.slice_dest.assign(engine_->config().num_slices,
                             core::SliceRoute{core::SliceRoute::kToMemory});
    engine_->set_routes(routes);

    core::RunOptions opts;
    opts.out_geometry = plan.out_geometry;
    obs::ScopedSpan sim_span("ecnn.simulate", layer_index);
    const core::RunResult r = engine_->run(input, opts, policy);
    stats.counters += r.counters;
    stats.cycles += r.cycles;
    stats.profile += r.profile;

    for (const event::Event& e : r.output.events())
      if (e.op == event::Op::kUpdate) stats.output.push(e);
  }

  // Fold the programming phase into the headline totals (cold totals stay
  // byte-identical to the pre-split accounting; the split itself is what
  // the relaxed equality tier pins).
  stats.counters += stats.programming;
  stats.cycles += stats.programming_cycles;

  // Rounds append whole streams one after another: one bucket pass puts
  // them in time-major order, each timestep's spikes in round order. A
  // single round's spikes are a subsequence of the engine's output, which
  // is already in normal form.
  if (plan.rounds.size() > 1) stats.output.normalize();
  stats.output_events = stats.output.update_count();
  if (!stats.profile.empty()) {
    stats.profile.passes_total = stats.passes_total;
    stats.profile.passes_warm = stats.passes_warm;
  }
  return stats;
}

const LayerPlan& NetworkRunner::cached_plan(const QuantizedLayerSpec& layer,
                                            std::uint16_t timesteps,
                                            std::uint64_t model_fp,
                                            std::size_t layer_index) {
  for (const CachedPlan& c : plan_cache_)
    if (c.model_fp == model_fp && c.timesteps == timesteps &&
        c.layer_index == layer_index)
      return c.plan;
  if (plan_cache_.size() >= kPlanCacheCap)
    plan_cache_.erase(plan_cache_.begin());
  plan_cache_.push_back(
      CachedPlan{model_fp, timesteps, layer_index, mapper_.plan(layer, timesteps)});
  return plan_cache_.back().plan;
}

void NetworkRunner::program_layer(const QuantizedLayerSpec& layer,
                                  std::uint16_t timesteps,
                                  std::uint64_t model_fp,
                                  std::size_t layer_index) {
  SNE_EXPECTS(model_fp != 0);
  const LayerPlan& plan = cached_plan(layer, timesteps, model_fp, layer_index);
  hwsim::ActivityCounters discard;
  std::uint64_t discard_cycles = 0;
  for (std::size_t ri = 0; ri < plan.rounds.size(); ++ri) {
    for (std::size_t pi = 0; pi < plan.rounds[ri].passes.size(); ++pi) {
      const SlicePass& pass = plan.rounds[ri].passes[pi];
      const std::uint64_t tag =
          pass_residency_tag(model_fp, timesteps, layer_index, ri, pi);
      if (engine_->warm_rewind_slice(pass.slice_id, tag)) continue;
      engine_->configure_slice(pass.slice_id, pass.cfg);
      program_weights(pass, discard, discard_cycles);
      engine_->tag_resident_pass(pass.slice_id, tag);
    }
  }
}

void NetworkRunner::program_weights(const SlicePass& pass,
                                    hwsim::ActivityCounters& agg,
                                    std::uint64_t& cycles,
                                    obs::RunProfile* prof) {
  // Chaos registration point: a programming failure mid-request is the
  // canonical "engine state now unknown" fault the quarantine+retry story
  // is built around (tests/test_faults.cpp).
  faults::check("ecnn.runner.program");
  core::Slice& slice = engine_->slice(pass.slice_id);
  if (pass.host_load_only || !use_wload_stream_) {
    // Host-side load. For the streamed-FC case this is the *model* of the
    // continuously-streaming second DMA (per-event beats are charged at
    // event time); for conv it is a fast path whose beat count is charged
    // here so energy matches the WLOAD-stream path.
    pass.write_weights(slice.weights());
    if (!pass.host_load_only) {
      const std::uint64_t beats = pass.wload_beat_count();
      agg.weight_load_beats += beats;
      agg.dma_read_beats += beats;
    }
    return;
  }
  // Stream the WLOAD program through the C-XBAR point-to-point, exactly as
  // a host driver would: route input DMA -> this slice only.
  core::XbarRoutes routes;
  routes.input_dest = {pass.slice_id};
  routes.slice_dest.assign(engine_->config().num_slices,
                           core::SliceRoute{core::SliceRoute::kToMemory});
  engine_->set_routes(routes);
  const std::vector<event::Beat> beats = pass.wload_beats();
  if (beats.empty()) return;
  const core::RunResult r = engine_->run(beats);
  agg += r.counters;
  cycles += r.cycles;
  if (prof) *prof += r.profile;
}

}  // namespace sne::ecnn
