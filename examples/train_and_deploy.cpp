// Train-and-deploy walkthrough: the full SLAYER-substitute flow from the
// Table I experiment as a standalone program.
//
//  1. generate a synthetic event dataset,
//  2. train the eCNN with surrogate-gradient BPTT (SNE linear-leak LIF),
//  3. quantize to SNE-LIF-4b (4-bit weights, 8-bit threshold/leak),
//  4. evaluate the integer model with the golden executor,
//  5. deploy one test sample on the cycle-accurate engine and report
//     accuracy, latency and energy,
//  6. hand off to serving: checkpoint the model, load it into a
//     ModelRegistry, and run the test set through the async InferenceServer
//     on pooled engines.
//
//   $ ./train_and_deploy            (small defaults, ~1 minute)
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <vector>

#include "common/table.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "ecnn/golden.h"
#include "ecnn/quantized.h"
#include "ecnn/runner.h"
#include "energy/energy_model.h"
#include "serve/checkpoint.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace {

/// Upper edge of the latency bucket holding the nearest-rank q-quantile
/// (+inf past the last edge): what a fixed-bucket histogram can say.
double bucket_edge(const sne::serve::LatencyHistogram& h, double q) {
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.count())));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.kBoundsMs.size(); ++i) {
    seen += h.counts[i];
    if (seen >= rank) return h.kBoundsMs[i];
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace

int main() {
  using namespace sne;
  std::cout << "SNE train-and-deploy walkthrough\n\n";

  // 1. Data: 2-class subset of the synthetic gesture task (claps vs waves)
  //    to keep the example fast.
  data::GestureConfig gcfg;
  gcfg.classes = 4;
  gcfg.samples_per_class = 10;
  gcfg.timesteps = 24;
  const data::Dataset ds = data::make_gesture_dataset(gcfg);
  const data::DatasetSplit split = ds.split(0.7, 0.0, 7);
  std::cout << "[1] dataset: " << ds.samples.size() << " samples, "
            << ds.classes << " classes, mean activity "
            << AsciiTable::num(ds.mean_activity() * 100.0, 2) << "%\n";

  // 2. Train a small eCNN with the SNE neuron model.
  ecnn::Network topo = ecnn::Network::paper_topology(2, 32, 32, gcfg.classes,
                                                     /*features=*/6,
                                                     /*hidden=*/32);
  train::TrainConfig tcfg;
  tcfg.model = train::NeuronModel::kSneLif;
  tcfg.epochs = 10;
  tcfg.lr = 3e-3;
  // Data-parallel epochs: 4 samples per Adam step, fanned out over the
  // process-wide pool. The trained weights are bitwise identical for any
  // worker count (only minibatch changes the trajectory; minibatch = 1
  // would reproduce plain per-sample SGD exactly).
  tcfg.minibatch = 4;
  tcfg.workers = 0;
  train::Trainer trainer(topo, tcfg);
  trainer.calibrate_thresholds(split.train);
  std::cout << "[2] training " << tcfg.epochs << " epochs on "
            << split.train.samples.size() << " samples (minibatch "
            << tcfg.minibatch << ", pooled workers)...\n";
  const auto history = trainer.fit(split.train);
  std::cout << "    loss " << AsciiTable::num(history.front().loss, 3)
            << " -> " << AsciiTable::num(history.back().loss, 3)
            << ", train acc "
            << AsciiTable::num(history.back().train_accuracy * 100.0, 1)
            << "%\n";
  std::cout << "    float test accuracy: "
            << AsciiTable::num(trainer.evaluate(split.test) * 100.0, 1)
            << "%\n";

  // 3. Quantize to the SNE integer grid.
  const ecnn::QuantizedNetwork qnet = ecnn::quantize(trainer.network());
  std::cout << "[3] quantized to 4-bit weights; per-layer (scale, v_th, leak):\n";
  for (const auto& l : qnet.layers)
    std::cout << "      " << l.name << ": (" << AsciiTable::num(l.scale, 4)
              << ", " << l.lif.v_th << ", " << l.lif.leak << ")\n";

  // 4. Integer-model accuracy (what the silicon would produce).
  std::size_t correct = 0;
  for (const auto& s : split.test.samples) {
    const auto traces = ecnn::GoldenExecutor::run_network(qnet, s.stream);
    const auto counts = ecnn::GoldenExecutor::class_spike_counts(
        traces.back().output, gcfg.classes);
    std::size_t pred = 0;
    for (std::size_t k = 1; k < counts.size(); ++k)
      if (counts[k] > counts[pred]) pred = k;
    if (pred == s.label) ++correct;
  }
  std::cout << "[4] SNE-LIF-4b test accuracy (integer golden model): "
            << AsciiTable::num(100.0 * static_cast<double>(correct) /
                                   static_cast<double>(split.test.samples.size()),
                               1)
            << "%\n";

  // 5. Deploy one sample on the cycle-accurate engine.
  core::SneConfig hw = core::SneConfig::paper_design_point(8);
  core::SneEngine engine(hw);
  ecnn::NetworkRunner runner(engine, /*use_wload_stream=*/false);
  const auto& probe = split.test.samples.front();
  const auto stats = runner.run(qnet, probe.stream);
  energy::EnergyModel model(hw);
  std::cout << "[5] deployed one sample (true class " << probe.label
            << ") on the 8-slice engine:\n"
            << "      " << stats.total_input_events() << " events, "
            << stats.cycles << " cycles ("
            << AsciiTable::num(static_cast<double>(stats.cycles) *
                                   hw.cycle_ns() * 1e-6, 3)
            << " ms), "
            << AsciiTable::num(model.evaluate(stats.total).total_uj(), 3)
            << " uJ\n";

  // 6. Train-to-serve hand-off: checkpoint -> registry -> served inference.
  //    The checkpoint stores the weights bit-exactly plus the mapper-plan
  //    summary for this design point; the server leases reset engines from
  //    its pool, so every served result is bitwise identical to step 5's
  //    direct NetworkRunner run of the same sample.
  const std::string ckpt_path = "/tmp/sne_gesture.snem";
  const serve::CheckpointPlanMeta meta =
      serve::plan_metadata(qnet, hw, gcfg.timesteps);
  serve::save_model(qnet, ckpt_path, &meta);
  serve::ModelRegistry registry;
  registry.load_file("gesture", ckpt_path);
  std::cout << "[6] checkpointed to " << ckpt_path << " and reloaded; serving "
            << split.test.samples.size() << " requests on pooled engines...\n";

  serve::ServeOptions so;
  so.engines = 2;
  serve::InferenceServer server(registry, hw, so);
  std::vector<serve::Ticket> tickets;
  for (const auto& s : split.test.samples)
    tickets.push_back(server.submit("gesture", s.stream));
  std::size_t served_correct = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const ecnn::NetworkRunStats& r = tickets[i].wait();
    const auto counts = ecnn::GoldenExecutor::class_spike_counts(
        r.final_output, gcfg.classes);
    std::size_t pred = 0;
    for (std::size_t k = 1; k < counts.size(); ++k)
      if (counts[k] > counts[pred]) pred = k;
    if (pred == split.test.samples[i].label) ++served_correct;
  }
  const serve::ServerStats st = server.stats();
  std::cout << "    served accuracy "
            << AsciiTable::num(100.0 * static_cast<double>(served_correct) /
                                   static_cast<double>(tickets.size()),
                               1)
            << "% (hardware spike counts), " << st.completed << "/"
            << st.submitted << " completed, "
            << AsciiTable::num(st.throughput_rps, 1) << " req/s, mean "
            << AsciiTable::num(st.latency_ms.sum_ms /
                                   static_cast<double>(st.latency_ms.count()),
                               1)
            << " ms, p50 <= " << bucket_edge(st.latency_ms, 0.50)
            << " ms, p99 <= " << bucket_edge(st.latency_ms, 0.99) << " ms, "
            << st.engines_constructed << " engines for " << st.engine_leases
            << " leases\n";
  std::remove(ckpt_path.c_str());
  std::cout << "\ndone.\n";
  return 0;
}
