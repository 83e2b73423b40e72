// SRM reference neuron (baseline of the paper's Table I accuracy experiment).
//
// The paper trains its network once with the default SLAYER spike response
// model (SRM) and once with the SNE linear-leak LIF, and compares accuracy.
// We reproduce the SRM_0 variant used by SLAYER in discrete time: a synaptic
// current filtered by an exponential kernel feeding a membrane with its own
// exponential decay, plus a refractory subtraction on firing:
//
//   i[t+1] = alpha_s * i[t] + sum_j w_j s_j[t]        alpha_s = exp(-1/tau_s)
//   u[t+1] = alpha_m * u[t] + i[t+1] - r[t]
//   s[t]   = Heaviside(u[t] - theta)
//   r decays with tau_r and jumps by 2*theta on an output spike.
//
// This is floating point on purpose: it is the *unquantized baseline* the
// SNE-LIF-4b network is compared against.
#pragma once

#include <cmath>

#include "common/contracts.h"

namespace sne::neuron {

/// SRM kernel parameters (SLAYER defaults scaled to our timestep).
struct SrmParams {
  double tau_s = 2.0;    ///< synaptic kernel time constant (timesteps)
  double tau_m = 8.0;    ///< membrane time constant (timesteps)
  double tau_r = 2.0;    ///< refractory time constant (timesteps)
  double theta = 1.0;    ///< firing threshold

  double alpha_s() const { return std::exp(-1.0 / tau_s); }
  double alpha_m() const { return std::exp(-1.0 / tau_m); }
  double alpha_r() const { return std::exp(-1.0 / tau_r); }

  void validate() const {
    if (tau_s <= 0 || tau_m <= 0 || tau_r <= 0)
      throw ConfigError("SRM time constants must be positive");
    if (theta <= 0) throw ConfigError("SRM threshold must be positive");
  }
};

/// One SRM neuron in discrete time.
class SrmNeuron {
 public:
  double membrane() const { return u_; }

  void reset() {
    i_ = 0.0;
    u_ = 0.0;
    r_ = 0.0;
  }

  /// Advances one timestep with the summed weighted input `drive`;
  /// returns true if the neuron spikes this step.
  bool step(double drive, const SrmParams& p) {
    i_ = p.alpha_s() * i_ + drive;
    u_ = p.alpha_m() * u_ + i_ - r_;
    r_ *= p.alpha_r();
    if (u_ > p.theta) {
      r_ += 2.0 * p.theta;  // refractory suppression after a spike
      u_ = 0.0;
      return true;
    }
    return false;
  }

 private:
  double i_ = 0.0;  ///< synaptic current state
  double u_ = 0.0;  ///< membrane potential
  double r_ = 0.0;  ///< refractory state
};

}  // namespace sne::neuron
