// gesture-offline: closed-loop batch simulation of synthetic DVS-Gesture on
// the Fig. 6 topology, 8-slice design point, cold strict tier
// (BatchRunner::run over nproc lanes: every sample reprograms and replans).
// Each iteration runs a sparse batch (generator default rates, ~1.3%
// activity) and a dense batch (~5.1%): the paper's two activity anchors.
// core and ecnn do nearly all the work; serve and net none.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/thread_pool.h"
#include "core/config.h"
#include "ecnn/batch_runner.h"
#include "models.h"
#include "workloads.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr std::uint16_t kPerClass = 4;  // 44 samples per batch
constexpr int kSetupReps = 11;

// Exact simulated totals of the canary batches (fixed generator seed,
// 11 samples each) run during warm-up. A change to these is a change to the
// simulated machine, not a speed-up: re-pin only with a reason.
constexpr std::uint64_t kCanarySeed = 0x5E5E0001;
constexpr std::uint64_t kPinSparseCycles = 21952064;
constexpr std::uint64_t kPinSparseSops = 6815280;
constexpr double kPinSparseUj = 3.1475555847752728;
constexpr std::uint64_t kPinDenseCycles = 37367489;
constexpr std::uint64_t kPinDenseSops = 14352325;
constexpr double kPinDenseUj = 5.9994623656167496;

struct Batch {
  const char* name = nullptr;
  std::vector<event::EventStream> inputs;
  std::vector<std::vector<std::vector<event::Event>>> golden;  ///< per sample
  std::vector<std::uint64_t> cycles;  ///< per sample, from the first pass
  std::vector<double> pass_ms;
  SimTotals totals;  ///< first pass
};

/// Runs one pass of `b` and checks every sample against the golden model
/// and against the first pass's cycle count (the strict tier is
/// deterministic).
void run_pass(ecnn::BatchRunner& runner, Batch& b, Report& rep,
              std::uint64_t pass) {
  const auto t0 = Clock::now();
  std::vector<ecnn::NetworkRunStats> rs;
  {
    Span s(b.name, pass);
    rs = runner.run(b.inputs);
  }
  const double ms = ms_between(t0, Clock::now());
  b.pass_ms.push_back(ms);
  const bool first = b.cycles.empty();
  for (std::size_t k = 0; k < rs.size(); ++k) {
    bool ok = matches_golden(rs[k], b.golden[k]);
    if (first) {
      b.cycles.push_back(rs[k].cycles);
      b.totals.add(rs[k], b.inputs[k].update_count());
    } else {
      ok = ok && rs[k].cycles == b.cycles[k];
    }
    rep.count(ok, b.name);
  }
}

void check_canary(ecnn::BatchRunner& runner, const core::SneConfig& hw,
                  Report& rep) {
  for (const bool dense : {false, true}) {
    SimTotals t;
    const auto inputs = gesture_batch(kCanarySeed, dense, 1);
    for (std::size_t k = 0; const auto& r : runner.run(inputs))
      t.add(r, inputs[k++].update_count());
    const EnergyBand e = energy_band(hw, t);
    const std::uint64_t pin_cycles = dense ? kPinDenseCycles : kPinSparseCycles;
    const std::uint64_t pin_sops = dense ? kPinDenseSops : kPinSparseSops;
    const double pin_uj = dense ? kPinDenseUj : kPinSparseUj;
    std::printf("canary %s: %llu cycles, %llu SOPs, %.17g uJ/inf\n",
                dense ? "dense" : "sparse",
                static_cast<unsigned long long>(t.cycles),
                static_cast<unsigned long long>(t.sops), e.uj_per_inf);
    if (t.cycles != pin_cycles || t.sops != pin_sops ||
        std::abs(e.uj_per_inf - pin_uj) > 1e-9 * pin_uj)
      rep.fail_check(std::string("canary ") + (dense ? "dense" : "sparse") +
                     " totals differ from the pinned values");
  }
}

}  // namespace

void run_gesture_offline(const Args& args, Report& rep) {
  const core::SneConfig hw = core::SneConfig::paper_design_point(8);
  const ecnn::QuantizedNetwork net = gesture_network();
  Batch sparse, dense;
  sparse.name = "gesture.batch.sparse";
  sparse.inputs = gesture_batch(mix_seed(args.seed, 1), false, kPerClass);
  dense.name = "gesture.batch.dense";
  dense.inputs = gesture_batch(mix_seed(args.seed, 2), true, kPerClass);
  for (Batch* b : {&sparse, &dense}) {  // golden references, untimed
    b->golden.resize(b->inputs.size());
    struct Ctx {
      const ecnn::QuantizedNetwork* net;
      Batch* batch;
    } ctx{&net, b};
    ThreadPool::global().run(
        [](void* p, std::size_t k) {
          Ctx& c = *static_cast<Ctx*>(p);
          c.batch->golden[k] = golden_spikes(*c.net, c.batch->inputs[k]);
        },
        &ctx, b->inputs.size());
  }

  // Setup: construct the runner and lease one engine per lane (the pool
  // grows on first use), i.e. everything before the first batch. The
  // calling thread is a lane too, so nproc - 1 workers make nproc lanes.
  const unsigned lanes = ThreadPool::default_workers();
  ecnn::BatchOptions opts;
  opts.workers = lanes - 1;
  const std::vector<event::EventStream> prime(
      sparse.inputs.begin(),
      sparse.inputs.begin() + std::min<std::size_t>(lanes, sparse.inputs.size()));
  std::unique_ptr<ecnn::BatchRunner> runner;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    runner.reset();
    runner = std::make_unique<ecnn::BatchRunner>(hw, net, opts);
    runner->run(prime);
  });
  check_canary(*runner, hw, rep);  // doubles as the warm-up pass

  const auto timed = [&](double budget_s) {
    sparse.pass_ms.clear();
    dense.pass_ms.clear();
    const auto t0 = Clock::now();
    for (std::uint64_t pass = 1; pass == 1 || s_since(t0) < budget_s; ++pass) {
      run_pass(*runner, sparse, rep, pass);
      run_pass(*runner, dense, rep, pass);
    }
  };
  // Median pass: one pass slowed by a noisy neighbour does not decide it.
  const auto inf_per_s = [](const Batch& b) {
    return static_cast<double>(b.inputs.size()) / (median(b.pass_ms) * 1e-3);
  };

  if (!args.trace) {
    timed(args.seconds);
    rep.set("setup_s", setup_s, "s");
    rep.set("inf_per_s.sparse", inf_per_s(sparse), "inf/s");
    rep.set("inf_per_s.dense", inf_per_s(dense), "inf/s");
    rep.set("latency_p50_ms", median(sparse.pass_ms), "ms");
    rep.set("latency_p90_ms", percentile(sparse.pass_ms, 0.9), "ms");
    rep.set("loaded_latency_p90_ms", percentile(dense.pass_ms, 0.9), "ms");
    std::printf("gesture-offline: %zu passes x (%zu sparse + %zu dense) on %u "
                "lanes; %.2f / %.2f inf/s\n",
                sparse.pass_ms.size(), sparse.inputs.size(),
                dense.inputs.size(), lanes, inf_per_s(sparse), inf_per_s(dense));
  } else {
    // Untraced and traced passes alternate: the ratio of their medians is
    // the tracing overhead. Then samples replay layer by layer.
    std::vector<double> untraced_ms, traced_ms;
    const auto t0 = Clock::now();
    for (std::uint64_t pass = 1; pass <= 2 || s_since(t0) < 2 * args.seconds / 3;
         ++pass) {
      Spans::instance().enable(pass % 2 == 0);
      sparse.pass_ms.clear();
      dense.pass_ms.clear();
      run_pass(*runner, sparse, rep, pass);
      run_pass(*runner, dense, rep, pass);
      (pass % 2 == 0 ? traced_ms : untraced_ms)
          .push_back(sparse.pass_ms[0] + dense.pass_ms[0]);
    }
    rep.set("trace.overhead_pct",
            (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
    Spans::instance().enable(true);
    std::vector<event::EventStream> probe;  // one sample of each class and band
    for (std::size_t k = 0; k < 11; ++k) {
      probe.push_back(sparse.inputs[k * kPerClass]);
      probe.push_back(dense.inputs[k * kPerClass]);
    }
    probe_ecnn(rep, net, hw, probe, /*warm=*/false);
    Spans::instance().enable(false);
  }
  SimTotals all = sparse.totals;
  all.cycles += dense.totals.cycles;
  all.inferences += dense.totals.inferences;
  rep.set("core.sim_cycles_per_inf",
          static_cast<double>(all.cycles) / static_cast<double>(all.inferences),
          "cycles");
  report_energy(rep, hw, sparse.totals, dense.totals, "gesture batches");
  std::printf("mean input activity: sparse %.3f%%, dense %.3f%%\n",
              100.0 * static_cast<double>(sparse.totals.input_events) /
                  (sparse.totals.inferences * 2.0 * 32 * 32 * 50),
              100.0 * static_cast<double>(dense.totals.input_events) /
                  (dense.totals.inferences * 2.0 * 32 * 32 * 50));
}

}  // namespace perfbench
