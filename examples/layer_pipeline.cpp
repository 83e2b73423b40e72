// Pipeline operating mode (paper section III-D.5, first mode): "each SL can
// be used to implement a different layer of the network, and the synaptic
// connections between neurons of consecutive layers are achieved through
// the C-XBAR. In this mode ... output events are produced simultaneously to
// the input event processing, and all the layers of the network can execute
// in parallel."
//
// This example maps a 3-stage network (conv -> pool -> conv) onto slices
// 0/1/2 of one SNE, chains them through the crossbar, and compares the
// pipeline's wall-clock against running the same layers one-after-another in
// time-multiplexed mode.
#include <iostream>

#include "common/table.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/mapper.h"
#include "ecnn/runner.h"
#include "event/event_stream.h"

namespace {

sne::ecnn::QuantizedNetwork three_stage_net() {
  using namespace sne;
  ecnn::QuantizedNetwork net;
  Rng rng(4242);
  ecnn::QuantizedLayerSpec c1;
  c1.type = ecnn::LayerSpec::Type::kConv;
  c1.name = "conv_a";
  c1.in_ch = 1;
  c1.in_w = 32;
  c1.in_h = 32;
  c1.out_ch = 1;
  c1.kernel = 3;
  c1.stride = 1;
  c1.pad = 1;
  c1.weights.resize(9);
  for (auto& w : c1.weights) w = static_cast<std::int8_t>(rng.uniform_int(1, 5));
  c1.lif.v_th = 6;
  c1.lif.leak = 0;

  ecnn::QuantizedLayerSpec p1;
  p1.type = ecnn::LayerSpec::Type::kPool;
  p1.name = "pool_a";
  p1.in_ch = 1;
  p1.in_w = 32;
  p1.in_h = 32;
  p1.out_ch = 1;
  p1.kernel = 2;
  p1.stride = 2;
  p1.pad = 0;
  p1.lif.v_th = 0;

  ecnn::QuantizedLayerSpec c2;
  c2.type = ecnn::LayerSpec::Type::kConv;
  c2.name = "conv_b";
  c2.in_ch = 1;
  c2.in_w = 16;
  c2.in_h = 16;
  c2.out_ch = 1;
  c2.kernel = 3;
  c2.stride = 1;
  c2.pad = 1;
  c2.weights.resize(9);
  for (auto& w : c2.weights) w = static_cast<std::int8_t>(rng.uniform_int(1, 4));
  c2.lif.v_th = 4;
  c2.lif.leak = 1;

  net.layers = {c1, p1, c2};
  return net;
}

}  // namespace

int main() {
  using namespace sne;
  std::cout << "SNE pipeline mode: conv(3x3) -> pool(2x2) -> conv(3x3) on "
               "slices 0 -> 1 -> 2\n";

  const ecnn::QuantizedNetwork net = three_stage_net();
  const auto input = data::random_stream({1, 32, 32, 30}, 0.03, 808);
  std::cout << "input: " << input.update_count() << " events over 30 steps\n\n";

  core::SneConfig hw = core::SneConfig::paper_design_point(4);
  core::SneEngine engine(hw);
  ecnn::Mapper mapper(hw);

  // Program one slice per layer and chain them through the C-XBAR.
  std::vector<ecnn::LayerPlan> plans;
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    plans.push_back(mapper.plan(net.layers[li], 30));
    const ecnn::SlicePass& pass = plans.back().rounds.at(0).passes.at(0);
    const auto slice = static_cast<std::uint32_t>(li);
    engine.configure_slice(slice, pass.cfg);
    pass.write_weights(engine.slice(slice).weights());
  }
  engine.set_routes(core::XbarRoutes::pipeline(3));

  core::RunOptions opts;
  opts.out_geometry = plans.back().out_geometry;
  const core::RunResult pipe = engine.run(input, opts);

  // Reference: the same network layer-by-layer in TM mode.
  core::SneEngine tm_engine(hw);
  ecnn::NetworkRunner runner(tm_engine, /*use_wload_stream=*/false);
  const ecnn::NetworkRunStats tm = runner.run(net, input);

  // And the bit-true golden model.
  const auto gold = ecnn::GoldenExecutor::run_network(net, input);

  AsciiTable table({"Execution", "Cycles", "Output spikes", "C-XBAR beats"});
  table.add_row({"pipeline (3 slices concurrent)", std::to_string(pipe.cycles),
                 std::to_string(pipe.spikes().update_count()),
                 std::to_string(pipe.counters.xbar_beats)});
  table.add_row({"time-multiplexed (serialized)", std::to_string(tm.cycles),
                 std::to_string(tm.final_output.update_count()),
                 std::to_string(tm.total.xbar_beats)});
  table.print(std::cout);

  const bool match =
      pipe.spikes().update_count() == gold.back().output.update_count() &&
      tm.final_output.update_count() == gold.back().output.update_count();
  std::cout << "\ngolden-model agreement: " << (match ? "PASS" : "FAIL")
            << " (" << gold.back().output.update_count() << " spikes)\n";
  std::cout << "pipeline speedup over TM: "
            << AsciiTable::num(static_cast<double>(tm.cycles) /
                                   static_cast<double>(pipe.cycles), 2)
            << "x — layers execute in parallel and intermediate feature maps "
               "never touch external memory.\n";
  return 0;
}
