// SNE slice: one of the parallel processing engines (paper section III-D.4).
//
// A slice contains 16 cluster datapaths, each computing one LIF neuron state
// update per clock cycle over 64 time-domain-multiplexed neurons held in
// local double-buffered latch memories. The slice front-end decodes event
// operations, an address filter selectively enables clusters (the rest are
// clock-gated), the sequencer drives the synchronous TDM sweep, and a local
// collector merges the per-cluster output FIFOs into the slice's C-XBAR
// master port.
//
// Cycle model (one tick() per clock):
//   IDLE        pop + decode one event from the input FIFO      (1 cycle)
//   UPDATE      sweep `update_sweep_cycles` TDM slots            (48 cycles)
//   FIRE        sweep all TDM slots; stall on full cluster FIFO  (>= 64)
//   RESET       wipe all TDM slots                               (64 cycles)
//   WLOAD       consume one weight payload beat per cycle
//   DRAIN       after FIRE: wait for cluster FIFOs to empty, then emit the
//               time-synchronization FIRE marker downstream
//
// Functional semantics are delegated to neuron::LifNeuron, the same code the
// golden model executes — the slice adds only *when* things happen and what
// they cost.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.h"
#include "core/config.h"
#include "core/sequencer.h"
#include "core/slice_config.h"
#include "core/weight_memory.h"
#include "event/event.h"
#include "hwsim/arbiter.h"
#include "hwsim/counters.h"
#include "hwsim/fifo.h"
#include "neuron/lif.h"

namespace sne::core {

/// One cluster: 64 TDM LIF neurons + output event FIFO + static mapping.
struct Cluster {
  explicit Cluster(const SneConfig& hw)
      : neurons(hw.neurons_per_cluster), out_fifo(hw.cluster_fifo_depth) {}

  std::vector<neuron::LifNeuron> neurons;
  hwsim::Fifo<event::Event> out_fifo;
  ClusterMapping map;
  bool enabled_for_event = false;  ///< address-filter result for current event
  /// Fast-forward FIRE acceleration: slots whose neuron *may* be above
  /// threshold (a conservative superset). With v_th >= 0 leak only decays
  /// membranes, so a neuron can only cross the threshold at an integrate —
  /// which sets its bit. configure() arms everything (membranes are
  /// unknown), RST disarms (all membranes zero). Unused when v_th < 0
  /// (toward-zero leak could raise a negative membrane past a negative
  /// threshold) and on the per-cycle reference path.
  std::array<std::uint64_t, 4> armed{};  ///< 4x64 bits covers npc <= 256
};

class Slice {
  enum class State : std::uint8_t;  // defined below; opaque for DrainReplay

 public:
  Slice(std::uint32_t slice_id, const SneConfig& hw);

  std::uint32_t id() const { return id_; }

  /// Programs the slice for a layer pass (Listing 1's `program_sne`).
  /// Weight contents are loaded separately (WLOAD beats or load_weights).
  void configure(const SliceConfig& cfg);

  /// Returns the slice to its freshly-constructed state: deconfigured, all
  /// FIFOs empty, neuron membranes wiped, arbitration pointer rewound. The
  /// weight store is left stale — the next configure() rebuilds it per pass
  /// before anything can read it. The serving engine pool resets pooled
  /// engines between requests so a reused slice is indistinguishable from a
  /// new one (pinned by test_serve). Equivalent to reset_machine_state()
  /// followed by scrub_programming().
  void reset();

  /// Machine-state half of reset(): wipes everything a run mutates (neuron
  /// membranes, FIFO contents and statistics, arbitration pointers, the
  /// state machine and decode scratch) while keeping the *programming*
  /// resident — cfg_, the weight store and every pass-constant derived
  /// structure survive. A machine-reset slice is bitwise indistinguishable
  /// from a fresh slice that configure()d the same pass and rewrote the same
  /// weights, which is what lets warm serving skip reprogramming
  /// (test_serve pins the equivalence).
  void reset_machine_state();

  /// Programming half of reset(): deconfigures the slice and drops the
  /// pass-constant derived state. The weight store itself is left stale, as
  /// in reset() — configure() rebuilds it before anything can read it.
  void scrub_programming();

  /// Warm-serving skip path: restores exactly the dynamic state configure()
  /// restores (state machine, FIFO contents, arbitration pointer, armed
  /// masks, FIRE caches) while leaving the programming in place. Calling
  /// this instead of configure(cfg_) + rewriting the identical weight image
  /// leaves the slice in bitwise-identical state; SneEngine::warm_rewind_slice
  /// guards it with the residency tag.
  void rewind_for_pass();

  /// Rewinds the collector arbitration pointer only: SneEngine::run's start
  /// pulse calls it on every live slice, so a run's grant schedule never
  /// depends on where a previous run on this slice left the pointer.
  void rewind_collector() { collector_arb_.reset(); }

  /// Host-side bulk weight load (bypasses the streamed WLOAD path; tests
  /// cover the equivalence of both paths).
  WeightMemory& weights() { return weights_; }
  const WeightMemory& weights() const { return weights_; }

  const SliceConfig& config() const { return cfg_; }
  bool configured() const { return configured_; }

  /// Input (C-XBAR slave) FIFO; carries raw 32-bit beats because WLOAD
  /// payload words are not events.
  hwsim::Fifo<event::Beat>& in_fifo() { return in_fifo_; }
  const hwsim::Fifo<event::Beat>& in_fifo() const { return in_fifo_; }
  /// Output (C-XBAR master) FIFO of decoded events.
  hwsim::Fifo<event::Event>& out_fifo() { return out_fifo_; }
  const hwsim::Fifo<event::Event>& out_fifo() const { return out_fifo_; }

  bool busy() const { return state_ != State::kIdle || !in_fifo_.empty(); }
  bool idle() const { return !busy(); }

  /// Advances one clock cycle.
  void tick(hwsim::ActivityCounters& c);

  // --- batched drain engine support ----------------------------------------
  // The engine's drain kernel replays drain-dominated spans through a
  // specialized per-cycle path plus a closed-form bulk model; the slice side
  // below exposes exactly the state and transitions that replay needs.

  /// Spikes queued across the cluster output FIFOs right now.
  std::uint32_t cluster_pending() const { return cluster_pending_; }
  /// Residual occupancy countdown of a batch-executed sweep (0 = none).
  std::uint64_t countdown() const { return countdown_; }
  /// True while this slice produces cycle-by-cycle drain work: queued
  /// cluster spikes, or an active FIRE/DRAIN step not under a countdown.
  bool draining() const {
    return cluster_pending_ > 0 ||
           (countdown_ == 0 &&
            (state_ == State::kFire || state_ == State::kDrain));
  }
  /// True when the slice sits in the post-scan DRAIN state with no residual
  /// countdown (the pure-drain configuration the bulk model compresses).
  bool in_pure_drain() const {
    return state_ == State::kDrain && countdown_ == 0;
  }
  bool in_idle_state() const { return state_ == State::kIdle; }
  /// Mid-FIRE-scan with no residual countdown (an active emission step).
  bool in_fire_state() const {
    return state_ == State::kFire && countdown_ == 0;
  }
  /// A retiring countdown hands control back to the decoder (kIdle post
  /// state); the bulk replay must stop before that cycle.
  bool countdown_posts_idle() const { return post_state_ == State::kIdle; }

  /// May the drain kernel tick this slice this cycle? False when the cycle
  /// could decode a new event, retire a countdown, or needs a per-cycle
  /// sweep handler — those paths belong to the generic engine loop.
  /// `incoming_hop`: a slice-to-slice C-XBAR move can land in this slice's
  /// input FIFO this cycle (those land before the slice ticks, so an idle
  /// slice would decode the hopped event within the same cycle).
  bool drain_cycle_ok(bool incoming_hop) const {
    if (!configured_) return true;  // statically idle; tick() is a no-op
    if (countdown_ > 0) return countdown_ > 1;
    switch (state_) {
      case State::kIdle:
        return in_fifo_.empty() && !incoming_hop;
      case State::kFire:
        return true;
      case State::kDrain:
        // pending <= 1 can finish the drain this cycle; with input queued
        // (or arriving) the same cycle then decodes the next event.
        return cluster_pending_ > 1 || (in_fifo_.empty() && !incoming_hop);
      default:
        return false;  // UPDATE/RESET reference sweeps, WLOAD
    }
  }

  /// May the full tick() dispatch host this slice's cycle *inside* the drain
  /// kernel when drain_cycle_ok() fails? tick() is the reference dispatcher,
  /// so this is a profitability split, not an exactness one: decode
  /// boundaries (a hop landing in an idle slice, a drain finishing into
  /// queued input, a retiring countdown) are ticked in-kernel so
  /// pipeline-routed drains never abandon the kernel, while WLOAD payload
  /// streaming and the reference-path sweeps exit to the generic loop (whose
  /// dead-span jumps pay off there).
  bool drain_kernel_tick_ok() const {
    if (!configured_ || countdown_ > 0) return true;
    return state_ == State::kIdle || state_ == State::kFire ||
           state_ == State::kDrain;
  }

  /// One drain-kernel cycle: identical transitions and counter charges to
  /// tick() for the states drain_cycle_ok() admits, minus the decode path
  /// (provably unreachable under the precheck).
  void drain_tick(hwsim::ActivityCounters& c);

  /// Virtual slice state for the engine's bulk drain replay. The replay
  /// runs this slice's drain-side behaviour — the cluster collector, FIRE
  /// emission (batch_fire's former per-cycle fallback), countdowns and the
  /// DRAIN marker — against count-based cluster queues instead of the real
  /// FIFOs; commit() writes the final state back with the same statistics
  /// the per-cycle interleaving would have produced. Neuron state mutations
  /// (fire commits) happen eagerly during the replay: they are
  /// timing-independent because each neuron is touched exactly once per
  /// scan and only by its own commit.
  struct DrainReplay {
    // --- virtual cluster queues ---------------------------------------
    // One arena of clusters x cluster_cap ring slots replaces the former
    // 64 per-cluster heap vectors: cluster g's live window is the ring
    // [rhead[g], rhead[g] + count[g]) of slots [g*cap, (g+1)*cap). A popped
    // event is never re-read (each pop goes straight into out_seq, and
    // commit needs only the live window plus the pop counts), so fixed
    // rings suffice and the replay's whole cluster working set is one
    // contiguous allocation-free block.
    std::vector<event::Event> qarena;
    std::array<std::uint16_t, 64> count{};  ///< live occupancy per cluster
    std::array<std::uint16_t, 64> rhead{};  ///< ring head slot per cluster
    std::array<std::uint16_t, 64> init{};   ///< occupancy at span start
    std::array<std::uint16_t, 64> peak{};   ///< high-water over the span
    std::array<std::uint32_t, 64> pops{};   ///< events consumed per cluster
    std::uint64_t nonempty = 0;   ///< clusters with a nonempty queue
    std::uint32_t pending = 0;    ///< total queued cluster events
    std::size_t arb_cursor = 0;   ///< local collector round-robin cursor
    std::size_t arb_ports = 0;    ///< number of clusters
    std::uint32_t cluster_cap = 0;
    bool in_nonempty = false;     ///< input FIFO state (frozen in-span)
    // --- out-FIFO window ------------------------------------------------
    // out_seq likewise holds the out FIFO's span-start contents (out0 of
    // them) plus every in-span push; the engine's collector grants read
    // out_seq[granted] directly.
    std::vector<event::Event> out_seq;
    std::uint32_t out0 = 0;       ///< out-FIFO occupancy at span start
    std::uint32_t out_count = 0;
    std::uint32_t out_cap = 0;
    std::uint32_t out_peak = 0;
    // --- virtual state machine -----------------------------------------
    State vstate{};
    State vpost{};
    std::uint64_t vcountdown = 0;
    /// Cluster the last FIRE step stalled on (-1 = none): while it stays
    /// full the scan provably re-stalls, so the engine parks the slice and
    /// charges the stall arithmetically without re-entering the step.
    std::int32_t stall_on = -1;
    /// Firing clusters of the stalled slot: any full one certifies the
    /// stall, so the steady-state block picks the one farthest in
    /// round-robin order to maximize the compressed span.
    std::uint64_t stall_mask = 0;
    /// Clusters whose queue sits at capacity (maintained on push/pop).
    std::uint64_t full = 0;
    /// Scratch for commit: a live window that wraps its ring is linearized
    /// here (reconcile_bulk consumes contiguous survivors).
    std::vector<event::Event> lin;

    /// Pops cluster g's front event (ring window + occupancy masks; the
    /// caller owns `pending`).
    event::Event qpop(std::size_t g) {
      const event::Event e = qarena[g * cluster_cap + rhead[g]];
      rhead[g] = rhead[g] + 1u == cluster_cap ? 0 : rhead[g] + 1;
      ++pops[g];
      full &= ~(1ull << g);
      if (--count[g] == 0) nonempty &= ~(1ull << g);
      return e;
    }
    /// Pushes onto cluster g's ring (the caller owns `pending`; the stall
    /// check proved space).
    void qpush(std::size_t g, const event::Event& e) {
      std::size_t slot = rhead[g] + count[g];
      if (slot >= cluster_cap) slot -= cluster_cap;
      qarena[g * cluster_cap + slot] = e;
      if (++count[g] >= cluster_cap) full |= 1ull << g;
      if (count[g] > peak[g]) peak[g] = count[g];
      nonempty |= 1ull << g;
    }

    /// True when the next cycle would finish the drain and decode queued
    /// input in the same cycle — the replay must stop before it.
    bool must_exit() const {
      return in_nonempty && vcountdown == 0 && vstate == State::kDrain &&
             pending <= 1;
    }
    /// Nothing left to do (terminates the replay when all queues ran dry).
    bool quiet() const {
      return vstate == State::kIdle && vcountdown == 0 && pending == 0 &&
             out_count == 0;
    }
    /// Mirrors Slice::busy() for the span's idle-cycle accounting.
    bool busy() const { return in_nonempty || vstate != State::kIdle; }
    bool is_idle_state() const { return vstate == State::kIdle; }

    /// The engine's per-cycle collector move (tick_collector on the count
    /// queues): pure DrainReplay state, inlined into the replay loop.
    void up_move(hwsim::ActivityCounters& c) {
      if (pending == 0 || out_count >= out_cap) return;
      const std::size_t g =
          hwsim::RoundRobinArbiter::first_from(arb_cursor, nonempty);
      out_seq.push_back(qpop(g));
      --pending;
      if (++out_count > out_peak) out_peak = out_count;
      c.fifo_pops++;
      c.fifo_pushes++;
      arb_cursor = g + 1 == arb_ports ? 0 : g + 1;
    }

    /// Post-up-move dispatch for the engine loop: 0 = idle (nothing),
    /// 1 = FIRE step re-stalls (park: charge busy+stall inline; exact — a
    /// scan stalls iff some firing cluster of its current slot is full),
    /// 2 = draining with events left (charge busy inline),
    /// 3 = needs the slice's state step (FIRE emission or DRAIN marker).
    int fast_class() const {
      switch (vstate) {
        case State::kIdle:
          return 0;
        case State::kFire:
          return stall_on >= 0 && (stall_mask & full) != 0 ? 1 : 3;
        case State::kDrain:
          return pending != 0 ? 2 : 3;
        default:
          return 3;
      }
    }
  };

  /// Captures this slice's drain state into `r` (cluster queues, out-FIFO
  /// contents, arbiter cursor, state machine). The engine owns the grant
  /// side of the out window.
  void drain_replay_begin(DrainReplay& r) const;
  /// The slow part of one virtual cycle (fast_class() == 3): an unparked
  /// FIRE emission step or the DRAIN marker, charging counters exactly as
  /// the per-cycle path would. The up-move already ran engine-side.
  void drain_replay_step(DrainReplay& r, hwsim::ActivityCounters& c);
  /// Writes the replayed state back: cluster FIFO contents + statistics,
  /// pending count, arbiter cursor, and the state machine. The out FIFO is
  /// reconciled by the engine (it owns the grant side).
  void drain_replay_commit(DrainReplay& r);

  /// Cycles until this slice's next self-timed observable action: the
  /// remaining occupancy of a pre-executed sweep, 1 while anything is in
  /// flight, kNeverActive when idle with empty FIFOs (it only wakes when the
  /// C-XBAR pushes an event, which is the xbar's activity, not ours).
  std::uint64_t next_activity_delta() const {
    if (!configured_) return kNeverActive;
    // Spikes queued in cluster FIFOs keep the collector active every cycle
    // — even under a sweep countdown (a FIRE scan's pre-executed spike-free
    // run overlaps the drain of its earlier slots).
    if (cluster_pending_ > 0) return 1;
    if (countdown_ > 0) return countdown_;
    if (state_ != State::kIdle || !in_fifo_.empty()) return 1;
    return kNeverActive;
  }

  /// Fast-forward support: burns `cycles` ticks of a pre-executed sweep's
  /// occupancy countdown in bulk. Callers guarantee
  /// cycles < next_activity_delta(); counters were already charged when the
  /// sweep was batch-executed, so this is pure bookkeeping.
  void skip_cycles(std::uint64_t cycles) {
    if (countdown_ == 0) return;
    SNE_ASSERT(cycles < countdown_);
    countdown_ -= cycles;
  }

  /// Direct membrane inspection (verification only). Note: with
  /// fast_forward, non-spiking FIRE scans apply their leak catch-up lazily
  /// (the paper's TLU optimisation; functionally identical because the
  /// linear leak composes one-shot — see neuron::leaked), so the raw stored
  /// value can lag the reference path's by pending leak. All engine-visible
  /// behaviour — outputs, counters, future spikes — is bit-identical.
  std::int32_t membrane(std::uint32_t cluster, std::uint32_t slot) const {
    SNE_EXPECTS(cluster < clusters_.size());
    SNE_EXPECTS(slot < clusters_[cluster].neurons.size());
    return clusters_[cluster].neurons[slot].membrane();
  }

  const std::vector<Cluster>& clusters() const { return clusters_; }

  // --- neuron-state snapshot (streaming sessions) ---------------------------
  // The cross-run state a pipeline-resident slice carries between chunks is
  // exactly its neuron array (membrane + TLU timestamp; LifNeuron is plain
  // data) plus the armed masks. The FIFOs and the state machine are
  // quiescent between runs and rebuilt by configure(). The collector
  // arbitration pointer is not quiescent (a run leaves it wherever its last
  // grant put it), so SneEngine::run rewinds it at every start pulse. The
  // FIRE caches are refilled at each FIRE decode before any read.
  // serve::StreamingSession snapshots after every successful chunk and
  // restores onto the freshly programmed engine each chunk leases, so the
  // machine resumes in bitwise the state the last good chunk left.

  /// Per-slice neuron-state image (clusters x neurons, plus armed masks).
  struct NeuronStateImage {
    std::vector<std::vector<neuron::LifNeuron>> neurons;  ///< per cluster
    std::vector<std::array<std::uint64_t, 4>> armed;
  };

  /// Captures the cross-run neuron state into `img` (overwritten).
  void save_neuron_state(NeuronStateImage& img) const {
    img.neurons.resize(clusters_.size());
    img.armed.resize(clusters_.size());
    for (std::size_t g = 0; g < clusters_.size(); ++g) {
      img.neurons[g] = clusters_[g].neurons;
      img.armed[g] = clusters_[g].armed;
    }
  }

  /// Restores a snapshot taken on a slice of the same design point. Call
  /// after configure() — configure's dynamic-state reset re-arms every
  /// cluster and would otherwise clobber the restored masks.
  void restore_neuron_state(const NeuronStateImage& img) {
    SNE_EXPECTS(img.neurons.size() == clusters_.size());
    for (std::size_t g = 0; g < clusters_.size(); ++g) {
      SNE_EXPECTS(img.neurons[g].size() == clusters_[g].neurons.size());
      clusters_[g].neurons = img.neurons[g];
      clusters_[g].armed = img.armed[g];
    }
  }

 private:
  enum class State : std::uint8_t {
    kIdle,
    kUpdate,
    kFire,
    kReset,
    kWeightLoad,
    kDrain,
  };

  /// The dynamic-state block shared by configure() and rewind_for_pass():
  /// FIRE caches, armed masks, the state machine, FIFO contents (statistics
  /// kept) and the collector arbitration pointer. Single source of truth so
  /// the warm skip path cannot drift from the configure path.
  void reset_pass_dynamic_state();

  void decode(const event::Event& e, hwsim::ActivityCounters& c);
  void tick_update(hwsim::ActivityCounters& c);
  void tick_fire(hwsim::ActivityCounters& c);
  void tick_fire_cached(hwsim::ActivityCounters& c);
  /// The FIRE-scan step shared by the per-cycle cached path and the bulk
  /// drain replay: `sink` abstracts the cluster FIFOs (real ring buffers or
  /// the replay's count queues); the state-machine outputs go to
  /// `state`/`countdown`/`post` (the real members or the replay's virtual
  /// ones). Stall semantics, counter charges, commit order and the
  /// spike-free run-ahead are identical by construction.
  template <typename Sink>
  void fire_step(Sink&& sink, State& state, std::uint64_t& countdown,
                 State& post, hwsim::ActivityCounters& c);
  void tick_reset(hwsim::ActivityCounters& c);
  void tick_wload(hwsim::ActivityCounters& c);
  void tick_drain(hwsim::ActivityCounters& c);
  void tick_collector(hwsim::ActivityCounters& c);

  // Fast-forward sweep execution: runs an entire stall-free TDM sweep in one
  // host call, charging per-cycle counters arithmetically, and leaves
  // countdown_ cycles of residual occupancy. Bit-identical to ticking the
  // per-cycle handlers for the same number of cycles.
  void batch_execute(hwsim::ActivityCounters& c);
  void batch_update(hwsim::ActivityCounters& c);
  void batch_reset(hwsim::ActivityCounters& c);
  /// Returns false (leaving the per-cycle path in charge) when any neuron
  /// would spike during the scan — spike drainage interleaves with the
  /// collector and the C-XBAR cycle by cycle and must not be compressed.
  bool batch_fire(hwsim::ActivityCounters& c);

  /// Address filter for all clusters at decode time: sets
  /// Cluster::enabled_for_event and returns whether any cluster accepted.
  /// The event-wide work (bounds check, receptive intervals / FC flat index)
  /// is hoisted out of the per-cluster loop.
  bool compute_event_filter(const event::Event& e);

  /// Does TDM `slot` address a real neuron of `cl` (i.e. would output_event
  /// be engaged)? Bounds-only fast form of output_event for the scan paths.
  bool slot_mapped(const Cluster& cl, std::uint16_t slot) const {
    if (cfg_.kind == LayerKind::kFc)
      return cl.map.out_channel + slot < fc_total_outputs();
    const std::uint32_t tile_w = hw_->cluster_tile_width;
    const std::uint32_t ox = cl.map.x_base + slot % tile_w;
    const std::uint32_t oy = cl.map.y_base + slot / tile_w;
    return ox < cfg_.out_width && oy < cfg_.out_height;
  }

  /// Read-only replica of LifNeuron::fire's threshold decision for the
  /// current event's timestep (also exactly the stall check's comparison).
  bool would_fire(const Cluster& cl, std::uint16_t slot) const {
    const auto& n = cl.neurons[slot];
    const std::int32_t v = neuron::leaked(
        n.membrane(), cfg_.lif.leak,
        current_.t >= n.last_update() ? current_.t - n.last_update() : 0,
        cfg_.lif.leak_mode);
    return v > cfg_.lif.v_th;
  }

  /// Weight for cluster `cl`, TDM slot `slot`, given current UPDATE event.
  /// Returns nullopt when the slot's neuron is not in the receptive field.
  /// The per-cycle reference sweep (tick_update) reads weights through this;
  /// batch_update addresses the same cells directly, per cluster.
  std::optional<std::int32_t> weight_for(const Cluster& cl,
                                         std::uint16_t slot) const;

  /// Output event emitted by `cl` when TDM slot `slot` fires at time t.
  std::optional<event::Event> output_event(const Cluster& cl,
                                           std::uint16_t slot,
                                           std::uint16_t t) const;

  std::uint32_t fc_total_outputs() const { return cfg_.fc_total_outputs(); }

  std::uint32_t id_;
  const SneConfig* hw_;
  SliceConfig cfg_;
  bool configured_ = false;

  Sequencer sequencer_;
  WeightMemory weights_;
  std::vector<Cluster> clusters_;
  hwsim::Fifo<event::Beat> in_fifo_;
  hwsim::Fifo<event::Event> out_fifo_;
  hwsim::RoundRobinArbiter collector_arb_;

  State state_ = State::kIdle;
  event::Event current_{};                 ///< event being executed
  std::vector<std::uint16_t> schedule_;    ///< TDM sweep for current op (reused)
  /// Cycle length of the current sweep. Equals schedule_.size() whenever the
  /// schedule is materialized; the fast-forward UPDATE path computes only
  /// the length (the slot list is never consumed there).
  std::size_t sweep_slots_ = 0;
  /// Events currently queued across all cluster output FIFOs; lets the
  /// per-cycle collector and the activity scan skip 16 FIFO probes when the
  /// slice has nothing to collect (the common case outside FIRE drains).
  std::uint32_t cluster_pending_ = 0;
  /// Bit i set iff cluster i's output FIFO is nonempty (maintained at every
  /// push/pop); the local collector grants from this mask in O(1) instead of
  /// probing all cluster FIFOs, and the drain replay reads it directly.
  std::uint64_t cluster_nonempty_ = 0;
  std::size_t sweep_pos_ = 0;
  bool write_phase_ = false;   ///< single-buffered state: 2-cycle updates
  std::uint32_t wload_remaining_ = 0;
  std::uint32_t wload_set_ = 0;
  std::uint32_t wload_group_ = 0;
  std::uint64_t fc_streamed_beats_ = 0;  ///< per-event DMA beats (streamed FC)
  /// Conv UPDATE sweep length per input row (pass constant per ey), built at
  /// configure time so the fast-forward decode is O(1) per event.
  std::vector<std::uint32_t> update_len_lut_;
  /// Per-TDM-slot bitmask of clusters whose slot addresses a real neuron
  /// (bit i = cluster i); a pass constant built at configure time.
  std::vector<std::uint64_t> mapped_mask_;
  /// Transpose of mapped_mask_: per cluster, the slots addressing a real
  /// neuron (same layout as Cluster::armed).
  std::vector<std::array<std::uint64_t, 4>> cluster_mapped_;
  std::uint64_t mapped_total_ = 0;  ///< total mapped (cluster, slot) pairs
  /// FIRE-scan cache, filled once per scan at decode (fast-forward): every
  /// neuron's caught-up membrane and, per slot, the clusters that will
  /// spike. Exact for the whole scan because each neuron is visited exactly
  /// once and only by its own commit.
  std::vector<std::int32_t> fire_leaked_;   ///< [cluster * npc + slot]
  std::vector<std::uint64_t> fire_mask_;    ///< per slot: clusters that spike
  bool fired_any_ = false;     ///< spikes emitted during current FIRE scan

  // Fast-forward: residual occupancy of a batch-executed sweep. While
  // countdown_ > 0 the externally visible state (busy(), FIFO behaviour) is
  // exactly that of the per-cycle sweep; when it reaches zero the slice
  // transitions to post_state_ in the same cycle the reference path would.
  std::uint64_t countdown_ = 0;
  State post_state_ = State::kIdle;
  // Receptive intervals of the current UPDATE event (conv mode), computed
  // once at decode; batch_update enumerates each cluster's RF rectangle
  // from these instead of scanning the padded TDM schedule.
  Interval ev_ox_{};
  Interval ev_oy_{};
  std::uint32_t ev_accepted_ = 0;     ///< clusters passing the event filter
  std::uint32_t enabled_clusters_ = 0;  ///< clusters with map.enabled (pass)
  std::array<std::uint8_t, 64> ev_accepted_idx_{};  ///< their indices
};

}  // namespace sne::core
