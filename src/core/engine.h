// SNE top level (paper Fig. 2): slices + C-XBAR + streamers + collector +
// memory-mapped register interface, driven cycle by cycle until quiescence.
//
// The engine is the public entry point of the cycle-accurate model: load a
// 32-bit program (WLOAD/RST/UPDATE/FIRE beats) into external memory, point
// the input streamer at it, and run. Events flow
//
//   memory -> input DMA -> C-XBAR -> slice(s) -> collector -> output DMA
//                                        `-> next slice (pipeline mode)
//
// and the returned RunResult carries the output event stream plus the
// activity counters the energy model consumes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "core/config.h"
#include "core/slice.h"
#include "core/streamer.h"
#include "core/xbar.h"
#include "event/event_stream.h"
#include "hwsim/arbiter.h"
#include "hwsim/counters.h"
#include "hwsim/memory.h"
#include "obs/run_profile.h"

namespace sne::core {

struct RunOptions {
  std::uint64_t max_cycles = 2'000'000'000ull;  ///< livelock guard
  event::StreamGeometry out_geometry{};  ///< stamped on the output stream
  /// Build RunResult::output from the written memory regions. Counter-only
  /// sweeps (energy ablations, throughput benches) can turn this off to
  /// skip the dump/decode/normalize pass; cycles and counters are
  /// unaffected and the events remain in engine memory.
  bool materialize_output = true;
};

struct RunResult {
  event::EventStream output;         ///< everything the output DMA wrote
  hwsim::ActivityCounters counters;  ///< activity delta of this run
  std::uint64_t cycles = 0;          ///< clock cycles of this run
  double sim_time_us = 0.0;          ///< cycles at the configured clock
  /// Cycle attribution by engine mode; filled only while
  /// obs::profiling_enabled() (empty() otherwise). Purely observational:
  /// output, counters and cycles are bitwise identical either way.
  obs::RunProfile profile;

  /// Output spikes only (UPDATE events, markers stripped).
  event::EventStream spikes() const {
    event::EventStream s(output.geometry());
    for (const auto& e : output.events())
      if (e.op == event::Op::kUpdate) s.push(e);
    return s;
  }
};

class SneEngine {
 public:
  using RunOptions = core::RunOptions;
  using RunResult = core::RunResult;

  explicit SneEngine(SneConfig cfg, std::size_t memory_words = (1u << 22),
                     hwsim::MemoryTiming mem_timing = {});

  const SneConfig& config() const { return cfg_; }
  hwsim::MemoryModel& memory() { return mem_; }

  Slice& slice(std::uint32_t i) {
    SNE_EXPECTS(i < slices_.size());
    return slices_[i];
  }
  const Slice& slice(std::uint32_t i) const {
    SNE_EXPECTS(i < slices_.size());
    return slices_[i];
  }

  /// Programs slice `i` for a layer pass. Drops the slice's residency tag:
  /// whatever weights it held are no longer certified until the programmer
  /// re-tags after loading the new image.
  void configure_slice(std::uint32_t i, const SliceConfig& cfg) {
    slice(i).configure(cfg);
    resident_tags_[i] = 0;
  }

  /// Installs the C-XBAR route table for subsequent runs.
  void set_routes(XbarRoutes routes) {
    routes.validate(cfg_.num_slices);
    routes_ = std::move(routes);
    rebuild_route_index();
  }
  const XbarRoutes& routes() const { return routes_; }

  /// Returns the engine to its freshly-constructed state: every slice
  /// deconfigured and wiped, DMA FIFOs cleared, arbitration pointers rewound,
  /// routes back to the time-multiplexed default and the lifetime counters
  /// zeroed. The contention-stall RNG needs no rewind: every stalled run
  /// reseeds it from the program's content key. Memory *contents* are not
  /// scrubbed — every run loads its own program image and dumps only the
  /// words it wrote, so stale words are unobservable. After
  /// reset() all subsequent runs are bitwise identical to the same runs on a
  /// new engine; the serving engine pool relies on this to reuse engines
  /// across requests instead of paying construction (the dominant cost: the
  /// memory model's multi-MB zero-fill) per sample. Equivalent to
  /// reset_machine_state() followed by scrub_programming().
  void reset();

  /// Machine-state half of reset(): wipes run state (slice dynamics, DMA
  /// FIFOs, arbitration, routes, lifetime counters) while keeping every
  /// slice's *programming* — configuration, weight store and residency
  /// tags — resident. Cold runs on a machine-reset engine are
  /// bitwise identical to runs on a new engine (every pass reconfigures its
  /// slices; stale-configured slices are inert), while warm runs can skip
  /// reprogramming via warm_rewind_slice(). The weight-resident serving path
  /// releases pooled engines with this instead of reset().
  void reset_machine_state();

  /// Programming half of reset(): deconfigures every slice and drops all
  /// residency tags. Weight stores go stale until the next configure.
  void scrub_programming();

  // --- weight residency ------------------------------------------------------
  // The engine records, per slice, an opaque tag naming the programming
  // (configuration + weight image) the slice currently holds — see
  // ecnn::pass_residency_tag. configure_slice() invalidates the tag; the
  // programmer re-tags after writing the weights. 0 means "untagged".

  /// If `tag` is nonzero and matches slice `i`'s resident tag, rewinds the
  /// slice's dynamic state exactly as configure() would and returns true:
  /// the caller may skip reconfiguration and weight programming, and the
  /// subsequent run is bitwise identical to the reprogrammed one. Returns
  /// false (leaving the slice untouched) otherwise.
  bool warm_rewind_slice(std::uint32_t i, std::uint64_t tag) {
    SNE_EXPECTS(i < slices_.size());
    if (tag == 0 || resident_tags_[i] != tag) return false;
    slices_[i].rewind_for_pass();
    return true;
  }

  /// Declares that slice `i` now holds the programming named by `tag`
  /// (called after a successful configure + weight load).
  void tag_resident_pass(std::uint32_t i, std::uint64_t tag) {
    SNE_EXPECTS(i < slices_.size());
    resident_tags_[i] = tag;
  }

  std::uint64_t resident_pass_tag(std::uint32_t i) const {
    SNE_EXPECTS(i < slices_.size());
    return resident_tags_[i];
  }

  /// Loads `program` into external memory and executes it to quiescence.
  RunResult run(const std::vector<event::Beat>& program,
                const RunOptions& opts = RunOptions{});

  /// Convenience: compiles control events into the stream and runs it.
  RunResult run(const event::EventStream& stream,
                const RunOptions& opts = RunOptions{},
                event::FirePolicy policy = event::FirePolicy::kActiveStepsOnly);

  /// Accumulated activity totals across all runs since construction or the
  /// last reset(), whichever is later.
  const hwsim::ActivityCounters& total_counters() const { return total_; }

  // --- neuron-state snapshot (streaming sessions) ---------------------------
  // Between two run() calls the only machine state that carries semantic
  // meaning across the boundary is the slices' neuron arrays (everything
  // else is quiescent: FIFOs empty, engine and slice arbitration rewound
  // at each run's start pulse). Saving and restoring them lets a streaming
  // session resume mid-stream on *any* engine: program the same pipeline,
  // restore the snapshot, and the next chunk is bitwise identical to the
  // uninterrupted run. serve::StreamingSession does this for every chunk
  // (tests/test_tenants.cpp pins it).

  /// Whole-engine neuron-state image, one entry per slice.
  struct NeuronState {
    std::vector<Slice::NeuronStateImage> slices;
  };

  void save_neuron_state(NeuronState& st) const {
    st.slices.resize(slices_.size());
    for (std::size_t i = 0; i < slices_.size(); ++i)
      slices_[i].save_neuron_state(st.slices[i]);
  }

  /// Restores a snapshot taken on an engine of the same design point; call
  /// after the slices are configured (configure re-arms clusters).
  void restore_neuron_state(const NeuronState& st) {
    SNE_EXPECTS(st.slices.size() == slices_.size());
    for (std::size_t i = 0; i < slices_.size(); ++i)
      slices_[i].restore_neuron_state(st.slices[i]);
  }

 private:
  /// One pass over the machine state; replaces the former triple walk
  /// (quiescent's two slice scans + the all_idle loop) with a single scan
  /// per simulated cycle.
  struct ScanState {
    bool any_slice_busy = false;   ///< some slice is executing or holds input
    bool any_slice_out = false;    ///< some slice output FIFO is nonempty
    bool any_drain = false;        ///< some slice holds spikes / FIRE / DRAIN
    bool out_dma_pending = false;  ///< some output DMA FIFO is nonempty
    bool in_drained = false;       ///< input DMA done and its FIFO empty
    bool quiescent() const {
      return in_drained && !any_slice_busy && !any_slice_out &&
             !out_dma_pending;
    }
  };
  ScanState scan_state() const;

  /// Lower bound on cycles until any component can act (fast-forward jump
  /// width). Exact for self-timed components (slice sweeps, DMA latency);
  /// components blocked on FIFO conditions report kNeverActive because their
  /// unblocking is another component's activity.
  std::uint64_t next_activity_delta() const;

  /// Slices [0, n_live_): the only ones the running program can touch.
  std::span<Slice> live_slices() { return {slices_.data(), n_live_}; }
  std::span<const Slice> live_slices() const {
    return {slices_.data(), n_live_};
  }

  void tick(hwsim::ActivityCounters& c);
  void xbar_input_move(hwsim::ActivityCounters& c);
  void xbar_slice_moves(hwsim::ActivityCounters& c);
  void collector_tick(hwsim::ActivityCounters& c);

  /// Rebuilds the memory-routed slice list and the pipeline hop list from
  /// routes_ (shared by the collector, the activity scan and the drain
  /// engine instead of three per-cycle route-table re-scans).
  void rebuild_route_index();

  // --- batched drain engine -------------------------------------------------
  /// Replays a drain-dominated span: a specialized kernel executes the
  /// collector/DMA chain cycle-exactly with precomputed route lists and
  /// masked round-robin grants, and pure-drain spans are compressed through
  /// drain_bulk_span(). Returns the number of cycles simulated (0 = the
  /// configuration needs the generic loop); exits at the first cycle whose
  /// semantics the kernel cannot prove. Under memory routing that is any
  /// decode boundary (event decode, countdown expiry); under pipeline
  /// routing those boundaries recur every few cycles, so the kernel hosts
  /// them via the full tick() dispatch instead and exits only for WLOAD /
  /// reference-path sweeps (and the livelock bound).
  std::uint64_t drain_burst(hwsim::ActivityCounters& c,
                            std::uint64_t max_cycles);

  /// Bulk replay of a drain-dominated span (every busy slice emitting
  /// spikes in FIRE, draining, or under an inert countdown; input side
  /// provably static): runs the deterministic round-robin interleaving on
  /// count queues and cursors, emits the exact per-cycle event order into
  /// memory, and advances cycles in bulk — the batched form of the former
  /// per-cycle batch_fire fallback. Returns cycles compressed
  /// (0 = preconditions unmet).
  std::uint64_t drain_bulk_span(hwsim::ActivityCounters& c,
                                std::uint64_t max_cycles);

  SneConfig cfg_;
  hwsim::MemoryModel mem_;
  std::vector<Slice> slices_;  ///< by value: hot loops stay cache-local
  /// Live-slice bound of the current run, set by run(): the per-slice loops
  /// of the cycle engine stop here.
  std::uint32_t n_live_ = 0;
  InputStreamer in_dma_;
  std::vector<OutputStreamer> out_dmas_;
  hwsim::RoundRobinArbiter collector_arb_;
  XbarRoutes routes_;
  hwsim::ActivityCounters total_;
  /// Per-slice residency tag of the programming the slice holds (0 = none);
  /// survives reset_machine_state(), dropped by scrub_programming().
  std::vector<std::uint64_t> resident_tags_;
  std::size_t out_region_base_ = 0;
  std::size_t out_region_words_ = 0;

  // Route index (rebuilt by rebuild_route_index).
  std::vector<std::uint32_t> mem_slices_;  ///< slices routed kToMemory
  std::uint64_t mem_slice_mask_ = 0;       ///< same, as a bitmask
  /// (src, dest) slice-to-slice hops, ascending src (pipeline mode).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pipe_routes_;

  /// Reusable scratch of drain_bulk_span (no per-span allocation).
  struct DrainParticipant {
    std::uint32_t slice = 0;    ///< slice index
    std::uint32_t granted = 0;  ///< events popped by the engine collector
    Slice::DrainReplay replay;  ///< the slice-side virtual state
  };
  struct DmaReplay {
    std::uint32_t count = 0;    ///< current FIFO occupancy
    std::uint32_t peak = 0;     ///< max occupancy over the span
    std::uint32_t head = 0;     ///< next staged word to write to memory
    std::uint32_t writes = 0;   ///< words written to memory this span
    std::uint32_t appended = 0; ///< words pushed by the collector this span
    std::size_t space = 0;      ///< output-region words left at span start
    std::vector<event::Beat> staged;  ///< initial FIFO contents + appends
  };
  std::vector<DrainParticipant> drain_parts_;
  std::vector<DmaReplay> drain_dmas_;

  /// Points at the active run's profile while obs::profiling_enabled(),
  /// else null; the drain engine attributes its cycles through it.
  obs::RunProfile* prof_ = nullptr;
};

}  // namespace sne::core
