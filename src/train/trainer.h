// Surrogate-gradient trainer (the SLAYER substitute for Table I).
//
// The paper trains its Fig. 6 network twice in SLAYER: once with the default
// SRM neuron (baseline) and once with a custom neuron implementing SNE's
// quantization-friendly linear-leak LIF dynamics, then compares accuracy.
// We reproduce that protocol with a from-scratch BPTT trainer:
//
//  * forward: dense spiking simulation over T timesteps of the eCNN
//    (conv / OR-pool / fc), with either
//      - kSneLif: V[t] = leak_toward_zero(V[t-1]) + I[t], spike if V > th,
//        reset to zero (bit-compatible with neuron::LifNeuron up to float
//        rounding), or
//      - kSrm: synaptic current + membrane exponential filters with
//        refractory reset (neuron::SrmNeuron dynamics);
//  * backward: BPTT with the SuperSpike surrogate
//        dS/dV ~= 1 / (1 + |V - th| / w)^2
//    through time and space; OR-pooling backpropagates straight-through;
//  * loss: softmax cross-entropy on output spike counts;
//  * optimizer: Adam.
//
// After training with kSneLif, weights/threshold/leak are quantized with
// ecnn::quantize and evaluated with the *integer* golden executor — that
// quantized accuracy is what Table I reports as "eCNN (SNE-LIF-4b)".
//
// Performance / determinism contract:
//  * All per-sample state lives in flat time-major FrameSeq buffers inside
//    reusable per-slot scratch arenas — the hot path allocates nothing after
//    the first minibatch.
//  * fit() processes `minibatch` samples in parallel (one scratch slot per
//    sample), reduces their gradients in fixed sample order, and takes one
//    Adam step per minibatch. minibatch = 1 reproduces the original
//    sample-by-sample serial trajectory exactly, and for any fixed
//    minibatch the trained weights are bitwise identical for every value of
//    `workers` — worker count never changes bits (tests pin this).
//  * evaluate() and calibrate_thresholds() run their per-sample sweeps
//    through the same pool, also with order-fixed reductions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "ecnn/layer.h"
#include "event/event_stream.h"

namespace sne::train {

enum class NeuronModel : std::uint8_t { kSneLif, kSrm };

struct TrainConfig {
  NeuronModel model = NeuronModel::kSneLif;
  double lr = 2e-3;
  std::uint32_t epochs = 20;
  double threshold = 1.0;        ///< firing threshold used during training
  double leak = 0.08;            ///< kSneLif: linear decay per step
  double tau_s = 2.0;            ///< kSrm: synaptic time constant
  double tau_m = 8.0;            ///< kSrm: membrane time constant
  double surrogate_width = 0.5;  ///< SuperSpike sharpness
  double weight_init_gain = 1.2;
  double logit_scale = 0.5;      ///< spike-count -> logit scaling in the loss
  double rate_floor = 0.02;      ///< calibration: minimum layer spike rate
  std::uint64_t seed = 42;
  /// Samples per Adam step. Each minibatch sample gets its own scratch slot
  /// and runs forward+backward in parallel; gradients reduce in sample
  /// order. 1 = the original serial trajectory, bit for bit.
  std::uint32_t minibatch = 1;
  /// Sample-level parallel lanes for fit/evaluate/calibrate_thresholds:
  /// 0 = share the process-wide pool, 1 = samples processed one at a time
  /// on the calling thread, N >= 2 = dedicated pool with N lanes (N-1 pool
  /// threads plus the calling thread). Wide layers' channel-level kernels
  /// may still use the process-wide pool in every mode (as pre-refactor).
  /// Changing this never changes any trained bit.
  unsigned workers = 0;
};

struct EpochStats {
  double loss = 0.0;
  double train_accuracy = 0.0;
};

class Trainer {
 public:
  /// `net` supplies the topology; its weights are (re-)initialized.
  Trainer(ecnn::Network net, TrainConfig cfg);
  ~Trainer();

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;
  Trainer(Trainer&&) noexcept;             // defined in trainer.cpp, where
  Trainer& operator=(Trainer&&) noexcept;  // FitSlot is a complete type

  /// Data-driven threshold initialization: per layer (input to output),
  /// bisects the firing threshold so the layer's mean output spike rate is
  /// `target_gain` times its mean input spike rate on a calibration batch
  /// (clamped below by a small floor so no layer starts dead). This is the
  /// standard SNN practice that keeps activity alive through depth; without
  /// it, deep layers never fire at init and receive no surrogate gradient.
  /// The per-sample bisection sweeps run across the worker pool; results
  /// are bitwise independent of the worker count.
  void calibrate_thresholds(const data::Dataset& calib,
                            double target_gain = 1.0,
                            std::size_t max_samples = 6);

  /// One pass of Adam over the (shuffled) training set per epoch,
  /// `cfg.minibatch` samples per optimizer step in parallel.
  std::vector<EpochStats> fit(const data::Dataset& train);

  /// Accuracy of the float model on a dataset (samples evaluated across the
  /// worker pool; the result is exactly the serial accuracy).
  double evaluate(const data::Dataset& ds) const;

  /// Output spike counts per class for one sample (float model).
  std::vector<double> forward_counts(const event::EventStream& stream) const;

  /// The network with trained weights and the training-time threshold/leak
  /// recorded per layer (input to ecnn::quantize for SNE deployment).
  const ecnn::Network& network() const { return net_; }

 private:
  struct FitSlot;  // per-minibatch-sample scratch arena, defined in trainer.cpp

  /// Runs fn(k) for every k in [0, n) across the configured lanes. Each k
  /// must own its outputs; reductions happen afterwards in k order, which is
  /// what makes every caller bitwise worker-count-invariant.
  template <typename Fn>
  void parallel_samples(std::size_t n, Fn&& fn) const {
    if (n == 0) return;
    if (cfg_.workers == 1) {
      for (std::size_t k = 0; k < n; ++k) fn(k);
      return;
    }
    struct Ctx {
      Fn* fn;
    } ctx{&fn};
    ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
    pool.run(
        [](void* p, std::size_t k) { (*static_cast<Ctx*>(p)->fn)(k); }, &ctx,
        n);
  }

  ecnn::Network net_;
  TrainConfig cfg_;
  // Adam state per layer (same size as weights).
  std::vector<std::vector<float>> adam_m_;
  std::vector<std::vector<float>> adam_v_;
  std::uint64_t adam_t_ = 0;
  /// Dedicated pool when cfg_.workers >= 2; otherwise the global pool.
  std::unique_ptr<ThreadPool> pool_;
  /// One scratch slot per minibatch sample, grown on first use and reused
  /// across samples, minibatches, epochs and fit() calls.
  std::vector<std::unique_ptr<FitSlot>> slots_;
  /// Per-layer minibatch gradient accumulator (fixed-order reduction target).
  std::vector<std::vector<double>> grad_acc_;
};

}  // namespace sne::train
