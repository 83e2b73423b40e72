// SNE hardware build configuration (paper section III-D).
//
// The paper's reference design point: a parametric number of slices (1/2/4/8
// explored in section IV-A), 16 clusters per slice, 64 TDM neurons per
// cluster (so 8 slices = 8192 neurons, Table II), 4-bit weights, 8-bit
// state, a 256-set filter buffer, 16-word DMA FIFOs and a 400 MHz clock.
// Ablation switches (clock gating, double buffering, adaptive sequencer)
// default to the paper's design choices; the TLU ablation is a
// FirePolicy, not a hardware switch.
#pragma once

#include <cstdint>
#include <limits>

#include "common/contracts.h"

namespace sne::core {

/// "This component will not act again on its own" — a component whose next
/// observable action is gated on another component's progress reports this
/// from its next_activity_delta(); the engine's fast-forward jump is bounded
/// by the minimum over all *self-timed* deltas.
inline constexpr std::uint64_t kNeverActive =
    std::numeric_limits<std::uint64_t>::max();

struct SneConfig {
  // --- structural parameters ------------------------------------------------
  std::uint32_t num_slices = 8;          ///< parallel processing engines (SLs)
  std::uint32_t clusters_per_slice = 16; ///< parallel datapaths per slice
  std::uint32_t neurons_per_cluster = 64;///< TDM neurons per cluster datapath
  std::uint32_t cluster_tile_width = 8;  ///< spatial tile width of one cluster

  // --- timing parameters ----------------------------------------------------
  std::uint32_t update_sweep_cycles = 48;///< cycles to consume one UPDATE event
  double clock_mhz = 400.0;              ///< target clock (GF22FDX SSG point)

  // --- buffering ------------------------------------------------------------
  std::uint32_t cluster_fifo_depth = 4;  ///< per-cluster output event FIFO
  std::uint32_t slice_in_fifo_depth = 2; ///< slice input (C-XBAR slave) FIFO
  std::uint32_t slice_out_fifo_depth = 8;///< slice output (C-XBAR master) FIFO
  std::uint32_t dma_fifo_depth = 16;     ///< streamer FIFO (paper: 16 words)

  // "When more SLs are added to the SNE, or when more activity is expected
  // on the output of each SL, the SNE can be configured with a higher
  // number of DMAs to sustain the SLs output bandwidth" (IV-A.3).
  std::uint32_t num_output_dmas = 1;

  // --- filter buffer ----------------------------------------------------------
  std::uint32_t weight_sets = 256;       ///< on-the-fly selectable weight sets
  std::uint32_t weights_per_set = 64;    ///< 4-bit weights per set (<= 8x8)

  // --- microarchitectural switches (ablations) -------------------------------
  bool clock_gating = true;        ///< gate clusters outside the event's filter
  bool double_buffered_state = true;  ///< 1 update/cycle; false: 2 cycles/update
  bool adaptive_sequencer = false; ///< sweep only needed rows (< 48 cycles)

  // --- host-simulation switches ----------------------------------------------
  // Fast-forwarding host simulation: stall-free TDM sweeps execute in one
  // host call and the engine jumps over provably-inactive cycle spans.
  // Cycle counts, activity counters, and output streams are bit-identical to
  // the per-cycle reference path (false); only wall-clock time changes.
  bool fast_forward = true;

  // Batched spike-drain engine: while the machine is in a drain-dominated
  // configuration (spikes flowing cluster FIFO -> slice collector -> engine
  // collector -> output DMA -> memory), the engine replays the deterministic
  // round-robin interleaving through a specialized kernel and, for pure
  // drain spans, a closed-form bulk model that emits events and charges
  // counters arithmetically. Bit-identical to the per-cycle path; only
  // effective when fast_forward is also set.
  bool drain_batching = true;

  // --- derived --------------------------------------------------------------
  std::uint32_t neurons_per_slice() const {
    return clusters_per_slice * neurons_per_cluster;
  }
  std::uint32_t total_neurons() const { return num_slices * neurons_per_slice(); }
  std::uint32_t cluster_tile_height() const {
    return neurons_per_cluster / cluster_tile_width;
  }
  double cycle_ns() const { return 1e3 / clock_mhz; }
  /// Peak synaptic-operation rate: one update per cluster per cycle.
  double peak_sops_per_second() const {
    return static_cast<double>(num_slices) * clusters_per_slice * clock_mhz * 1e6;
  }

  void validate() const {
    if (num_slices == 0 || num_slices > 64)
      throw ConfigError("num_slices must be in [1, 64]");
    if (clusters_per_slice == 0 || clusters_per_slice > 64)
      throw ConfigError("clusters_per_slice must be in [1, 64]");
    if (neurons_per_cluster == 0 || neurons_per_cluster > 256)
      throw ConfigError("neurons_per_cluster must be in [1, 256]");
    if (cluster_tile_width == 0 ||
        neurons_per_cluster % cluster_tile_width != 0)
      throw ConfigError("cluster tile width must divide neurons_per_cluster");
    if (update_sweep_cycles == 0)
      throw ConfigError("update_sweep_cycles must be positive");
    if (weight_sets == 0 || weight_sets > 256)
      throw ConfigError("weight_sets must be in [1, 256] (8-bit set index)");
    if (weights_per_set == 0 || weights_per_set > 64)
      throw ConfigError("weights_per_set must be in [1, 64]");
    if (clock_mhz <= 0) throw ConfigError("clock_mhz must be positive");
    if (dma_fifo_depth == 0 || cluster_fifo_depth == 0 ||
        slice_in_fifo_depth == 0 || slice_out_fifo_depth == 0)
      throw ConfigError("FIFO depths must be positive");
    if (num_output_dmas == 0 || num_output_dmas > 16)
      throw ConfigError("num_output_dmas must be in [1, 16]");
  }

  /// The paper's synthesized design point (8 slices, everything default).
  static SneConfig paper_design_point(std::uint32_t slices = 8) {
    SneConfig c;
    c.num_slices = slices;
    return c;
  }
};

}  // namespace sne::core
