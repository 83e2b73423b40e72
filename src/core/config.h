// SNE hardware build configuration (paper section III-D).
//
// Fixed silicon: the paper varies only the slice count (1/2/4/8, section
// IV-A). Everything else about the datapath is one synthesized design and
// lives here as compile-time constants: 16 clusters per slice, 64 TDM
// neurons per cluster (so 8 slices = 8192 neurons, Table II), 8-wide cluster
// tiles, a 256-set x 64-weight filter buffer of 4-bit weights, the 48-cycle
// UPDATE sweep and the 400 MHz clock.
//
// Settable: the design point (slice count, the four FIFO depths, the number
// of output DMAs), the microarchitectural ablation switches (clock gating,
// double buffering, adaptive sequencer; they default to the paper's design
// choices — the TLU ablation is a FirePolicy, not a hardware switch), and
// two host-simulation switches that change wall-clock time only.
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
  // --- fixed silicon ---------------------------------------------------------
  static constexpr std::uint32_t clusters_per_slice = 16;  ///< datapaths
  static constexpr std::uint32_t neurons_per_cluster = 64; ///< TDM neurons
  static constexpr std::uint32_t cluster_tile_width = 8;   ///< tile width
  /// Cycles to consume one UPDATE event (fixed sequencer).
  static constexpr std::uint32_t update_sweep_cycles = 48;
  static constexpr double clock_mhz = 400.0;  ///< GF22FDX SSG point
  static constexpr std::uint32_t weight_sets = 256;    ///< filter-buffer sets
  static constexpr std::uint32_t weights_per_set = 64; ///< 4-bit weights/set

  static_assert(neurons_per_cluster % cluster_tile_width == 0,
                "the cluster tile width must divide neurons_per_cluster");
  static_assert(neurons_per_cluster <= 256,
                "the sequencer's row mask is 256 bits wide");
  static_assert(weight_sets <= 256, "the weight-set index is 8 bits wide");
  static_assert(weights_per_set <= 64, "a weight set holds at most 8x8 taps");

  // --- design point (section IV-A explores 1/2/4/8 slices) -------------------
  std::uint32_t num_slices = 8;          ///< parallel processing engines (SLs)

  // --- buffering ------------------------------------------------------------
  std::uint32_t cluster_fifo_depth = 4;  ///< per-cluster output event FIFO
  std::uint32_t slice_in_fifo_depth = 2; ///< slice input (C-XBAR slave) FIFO
  std::uint32_t slice_out_fifo_depth = 8;///< slice output (C-XBAR master) FIFO
  std::uint32_t dma_fifo_depth = 16;     ///< streamer FIFO (paper: 16 words)

  // "When more SLs are added to the SNE, or when more activity is expected
  // on the output of each SL, the SNE can be configured with a higher
  // number of DMAs to sustain the SLs output bandwidth" (IV-A.3).
  std::uint32_t num_output_dmas = 1;

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
  static constexpr std::uint32_t neurons_per_slice() {
    return clusters_per_slice * neurons_per_cluster;
  }
  std::uint32_t total_neurons() const { return num_slices * neurons_per_slice(); }
  static constexpr std::uint32_t cluster_tile_height() {
    return neurons_per_cluster / cluster_tile_width;
  }
  static constexpr double cycle_ns() { return 1e3 / clock_mhz; }
  /// Peak synaptic-operation rate: one update per cluster per cycle.
  double peak_sops_per_second() const {
    return static_cast<double>(num_slices) * clusters_per_slice * clock_mhz * 1e6;
  }

  void validate() const {
    if (num_slices == 0 || num_slices > 64)
      throw ConfigError("num_slices must be in [1, 64]");
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
