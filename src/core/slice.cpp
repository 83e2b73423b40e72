#include "core/slice.h"

#include <algorithm>
#include <bit>

namespace sne::core {

Slice::Slice(std::uint32_t slice_id, const SneConfig& hw)
    : id_(slice_id),
      hw_(&hw),
      sequencer_(hw),
      weights_(hw.weight_sets, hw.weights_per_set),
      in_fifo_(hw.slice_in_fifo_depth),
      out_fifo_(hw.slice_out_fifo_depth),
      collector_arb_(hw.clusters_per_slice) {
  clusters_.reserve(hw.clusters_per_slice);
  for (std::uint32_t i = 0; i < hw.clusters_per_slice; ++i)
    clusters_.emplace_back(hw);
}

void Slice::configure(const SliceConfig& cfg) {
  cfg.validate();
  if (cfg.out_width > event::kMaxX + 1 || cfg.out_height > event::kMaxY + 1)
    throw ConfigError("output map exceeds the event address space");
  cfg_ = cfg;
  for (std::uint32_t i = 0; i < clusters_.size(); ++i)
    clusters_[i].map = cfg.clusters[i];
  // The filter buffer is rebuilt per pass: physical geometry for conv and
  // buffer-resident FC, a virtual stream-backed store for streamed FC
  // (weights are host-preloaded; streaming cost is charged per event).
  if (cfg.kind == LayerKind::kFc && cfg.fc_weights_streamed)
    weights_ = WeightMemory(cfg.fc_pass_positions, cfg.fc_total_outputs());
  else
    weights_ = WeightMemory(hw_->weight_sets, hw_->weights_per_set);
  // Streamed-FC DMA beats per event: a pass constant, hoisted out of the
  // per-event decode path.
  fc_streamed_beats_ = 0;
  if (cfg.kind == LayerKind::kFc && cfg.fc_weights_streamed) {
    std::uint64_t outputs = 0;
    for (std::uint32_t i = 0; i < clusters_.size(); ++i) {
      const ClusterMapping& m = cfg.clusters[i];
      if (!m.enabled) continue;
      const std::uint32_t first = m.out_channel;
      if (first < cfg.fc_total_outputs())
        outputs += std::min<std::uint32_t>(hw_->neurons_per_cluster,
                                           cfg.fc_total_outputs() - first);
    }
    fc_streamed_beats_ = (outputs * 4 + 31) / 32;
  }
  // Per-input-row UPDATE sweep lengths (conv): the sequencer's row-union
  // computation depends only on ey for a fixed pass, so the fast-forward
  // decode path reads one LUT entry instead of recomputing the mask.
  update_len_lut_.clear();
  if (cfg.kind == LayerKind::kConv && hw_->fast_forward) {
    update_len_lut_.resize(cfg.in_height);
    for (std::uint32_t ey = 0; ey < cfg.in_height; ++ey)
      update_len_lut_[ey] = static_cast<std::uint32_t>(
          sequencer_.update_schedule_length(cfg, 0, static_cast<int>(ey)));
  }
  // Per-slot mapped-cluster masks (pass constant; drives the FIRE paths),
  // plus the per-cluster transpose for the armed-slot iteration.
  mapped_mask_.assign(hw_->neurons_per_cluster, 0);
  cluster_mapped_.assign(clusters_.size(), {});
  for (std::uint32_t slot = 0; slot < hw_->neurons_per_cluster; ++slot)
    for (std::size_t i = 0; i < clusters_.size(); ++i)
      if (clusters_[i].map.enabled &&
          slot_mapped(clusters_[i], static_cast<std::uint16_t>(slot))) {
        mapped_mask_[slot] |= 1ull << i;
        cluster_mapped_[i][slot >> 6] |= 1ull << (slot & 63);
      }
  mapped_total_ = 0;
  for (std::uint64_t m : mapped_mask_)
    mapped_total_ += static_cast<std::uint64_t>(std::popcount(m));
  enabled_clusters_ = 0;
  for (const auto& m : cfg.clusters)
    if (m.enabled) ++enabled_clusters_;
  configured_ = true;
  reset_pass_dynamic_state();
}

void Slice::reset_pass_dynamic_state() {
  fire_mask_.clear();
  fire_leaked_.clear();
  // Membranes survive reconfiguration, so every neuron is a firing
  // candidate until the first RST wipes the state.
  for (auto& cl : clusters_) cl.armed = {~0ull, ~0ull, ~0ull, ~0ull};
  state_ = State::kIdle;
  sweep_pos_ = 0;
  write_phase_ = false;
  wload_remaining_ = 0;
  countdown_ = 0;
  post_state_ = State::kIdle;
  sweep_slots_ = 0;
  cluster_pending_ = 0;
  cluster_nonempty_ = 0;
  for (auto& cl : clusters_) cl.out_fifo.clear();
  in_fifo_.clear();
  out_fifo_.clear();
  collector_arb_.reset();
}

void Slice::rewind_for_pass() {
  SNE_EXPECTS(configured_);
  reset_pass_dynamic_state();
}

void Slice::reset() {
  reset_machine_state();
  scrub_programming();
}

void Slice::reset_machine_state() {
  for (auto& cl : clusters_) {
    for (auto& n : cl.neurons) n.reset();
    cl.out_fifo.reset();
    cl.enabled_for_event = false;
    // A configured slice re-arms like configure() would (the wiped membranes
    // are a subset of "unknown"); a deconfigured one stays disarmed.
    cl.armed = configured_ ? std::array<std::uint64_t, 4>{~0ull, ~0ull, ~0ull,
                                                          ~0ull}
                           : std::array<std::uint64_t, 4>{};
  }
  in_fifo_.reset();
  out_fifo_.reset();
  collector_arb_.reset();
  state_ = State::kIdle;
  current_ = event::Event{};
  schedule_.clear();
  sweep_slots_ = 0;
  cluster_pending_ = 0;
  cluster_nonempty_ = 0;
  sweep_pos_ = 0;
  write_phase_ = false;
  wload_remaining_ = 0;
  wload_set_ = 0;
  wload_group_ = 0;
  fire_leaked_.clear();
  fire_mask_.clear();
  fired_any_ = false;
  countdown_ = 0;
  post_state_ = State::kIdle;
  ev_ox_ = Interval{};
  ev_oy_ = Interval{};
  ev_accepted_ = 0;
  ev_accepted_idx_ = {};
}

void Slice::scrub_programming() {
  configured_ = false;
  cfg_ = SliceConfig{};
  // weights_ is deliberately left as-is: configure() rebuilds the store per
  // pass before any run can touch the slice, so wiping here would be paid on
  // every lease release and then discarded.
  for (auto& cl : clusters_) {
    cl.map = ClusterMapping{};
    cl.armed = {};
  }
  fc_streamed_beats_ = 0;
  update_len_lut_.clear();
  mapped_mask_.clear();
  cluster_mapped_.clear();
  mapped_total_ = 0;
  enabled_clusters_ = 0;
}

void Slice::tick(hwsim::ActivityCounters& c) {
  if (!configured_) {
    // A slice that no pass has programmed is statically idle; routing events
    // at it is rejected by SneEngine::run.
    SNE_ASSERT(in_fifo_.empty());
    return;
  }
  tick_collector(c);

  const bool was_busy = state_ != State::kIdle;
  if (countdown_ > 0) {
    // Residual occupancy of a batch-executed sweep: busy cycles and datapath
    // counters were charged arithmetically at decode, so the countdown only
    // reproduces the sweep's external timing. The state transition lands in
    // the same cycle the reference path's last sweep slot would execute.
    if (--countdown_ > 0) return;
    state_ = post_state_;
    if (state_ != State::kIdle) return;  // kDrain starts next cycle, as ref
  } else if (was_busy) {
    c.slice_busy_cycles++;
    switch (state_) {
      case State::kUpdate:
        tick_update(c);
        break;
      case State::kFire:
        tick_fire(c);
        break;
      case State::kReset:
        tick_reset(c);
        break;
      case State::kWeightLoad:
        tick_wload(c);
        break;
      case State::kDrain:
        tick_drain(c);
        break;
      case State::kIdle:
        break;
    }
  }

  // The decoder accepts the next event in the same cycle the datapath
  // retires the previous one, so back-to-back UPDATE events cost exactly
  // `update_sweep_cycles` each ("SNE takes 48 clock cycles to consume an
  // input event", section IV-A.3). A decode from a cold (idle) slice costs
  // its own cycle (pipeline fill).
  if (state_ == State::kIdle && !in_fifo_.empty()) {
    if (!was_busy) c.slice_busy_cycles++;
    const event::Beat beat = in_fifo_.pop();
    c.fifo_pops++;
    decode(event::unpack(beat), c);
    if (hw_->fast_forward && state_ != State::kIdle) batch_execute(c);
  }
}

void Slice::decode(const event::Event& e, hwsim::ActivityCounters& c) {
  current_ = e;
  sweep_pos_ = 0;
  write_phase_ = false;
  switch (e.op) {
    case event::Op::kUpdate: {
      if (!compute_event_filter(e))
        return;  // address filter drops the event at the decoder
      if (hw_->fast_forward) {
        // Fast path: the batch executor enumerates integrations itself
        // (conv: the receptive rectangle; FC: each accepted cluster's
        // engaged slots) and only needs the sweep's cycle length, so the
        // slot buffer is never filled. (e.y bounds-checked by the filter
        // above; an FC sweep visits every TDM slot.)
        sweep_slots_ = cfg_.kind == LayerKind::kFc ? hw_->neurons_per_cluster
                                                   : update_len_lut_[e.y];
        if (sweep_slots_ == 0) return;
      } else {
        sequencer_.update_schedule_into(cfg_, e.x, e.y, schedule_);
        if (schedule_.empty()) return;
        sweep_slots_ = schedule_.size();
      }
      if (cfg_.kind == LayerKind::kFc && cfg_.fc_weights_streamed) {
        // Streamed FC: the event's weight column (4 bits per mapped output)
        // rides the second DMA at one 32-bit beat per cycle. The event
        // occupies the slice for max(TDM sweep, streaming) cycles, idle
        // slots padding the reference schedule. The beat count is a pass
        // constant precomputed in configure().
        c.weight_load_beats += fc_streamed_beats_;
        c.dma_read_beats += fc_streamed_beats_;
        sweep_slots_ = std::max<std::size_t>(sweep_slots_, fc_streamed_beats_);
        if (!hw_->fast_forward) schedule_.resize(sweep_slots_, kIdleSlot);
      }
      c.events_consumed++;
      state_ = State::kUpdate;
      break;
    }
    case event::Op::kFire: {
      for (auto& cl : clusters_) cl.enabled_for_event = cl.map.enabled;
      sequencer_.full_schedule_into(schedule_);
      sweep_slots_ = schedule_.size();
      fired_any_ = false;
      c.fire_scans++;
      state_ = State::kFire;
      break;
    }
    case event::Op::kReset: {
      // "In the case of a RST_OP, all the Clusters are activated" (III-D.4).
      for (auto& cl : clusters_) cl.enabled_for_event = true;
      sequencer_.full_schedule_into(schedule_);
      sweep_slots_ = schedule_.size();
      state_ = State::kReset;
      break;
    }
    case event::Op::kWeight: {
      // Header fields ride the event address fields (see event.h).
      wload_set_ = e.ch;
      wload_group_ = e.x;
      wload_remaining_ = e.t;
      state_ = wload_remaining_ > 0 ? State::kWeightLoad : State::kIdle;
      break;
    }
  }
}

void Slice::tick_update(hwsim::ActivityCounters& c) {
  SNE_EXPECTS(sweep_pos_ < schedule_.size());
  // Single-buffered state memory needs separate read and write cycles; the
  // paper's double-buffered latch memories achieve one update per cycle.
  if (!hw_->double_buffered_state && !write_phase_) {
    write_phase_ = true;
    for (const auto& cl : clusters_) {
      if (!cl.map.enabled) continue;
      if (cl.enabled_for_event)
        c.active_cluster_cycles++;
      else if (hw_->clock_gating)
        c.gated_cluster_cycles++;
      else
        c.active_cluster_cycles++;
    }
    return;
  }
  write_phase_ = false;

  const std::uint16_t slot = schedule_[sweep_pos_];
  for (auto& cl : clusters_) {
    if (!cl.map.enabled) continue;
    if (!cl.enabled_for_event) {
      // Clusters outside the event's address filter: clock-gated when the
      // feature is on, otherwise they burn datapath power doing nothing.
      if (hw_->clock_gating)
        c.gated_cluster_cycles++;
      else
        c.active_cluster_cycles++;
      continue;
    }
    c.active_cluster_cycles++;
    if (slot == kIdleSlot) continue;
    const auto w = weight_for(cl, slot);
    if (!w.has_value()) continue;  // address in sweep but outside this RF
    cl.neurons[slot].integrate(current_.t, *w, cfg_.lif);
    c.neuron_updates++;
    c.state_reads++;
    c.state_writes++;
  }

  if (++sweep_pos_ >= schedule_.size()) state_ = State::kIdle;
}

void Slice::tick_fire(hwsim::ActivityCounters& c) {
  SNE_EXPECTS(sweep_pos_ < schedule_.size());
  if (hw_->fast_forward) {
    tick_fire_cached(c);
    return;
  }
  const std::uint16_t slot = schedule_[sweep_pos_];

  // Two-phase commit: all clusters evaluate the firing condition; if any
  // cluster that needs to emit has a full output FIFO, the whole synchronous
  // sweep stalls this cycle (the per-cluster FIFOs exist precisely to make
  // this rare, paper III-D.4).
  bool stalled = false;
  for (auto& cl : clusters_) {
    if (!cl.map.enabled) continue;
    if (!slot_mapped(cl, slot)) continue;
    if (would_fire(cl, slot) && cl.out_fifo.full()) {
      stalled = true;
      break;
    }
  }
  if (stalled) {
    c.fifo_stall_cycles++;
    return;  // retry the same TDM address next cycle
  }

  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    Cluster& cl = clusters_[i];
    if (!cl.map.enabled) continue;
    if (!slot_mapped(cl, slot)) continue;  // slot not mapped to a real neuron
    c.fire_checks++;
    c.state_reads++;
    c.state_writes++;
    c.active_cluster_cycles++;
    if (cl.neurons[slot].fire(current_.t, cfg_.lif)) {
      const bool ok = cl.out_fifo.try_push(*output_event(cl, slot, current_.t));
      SNE_ASSERT(ok);  // guaranteed by the stall check above
      ++cluster_pending_;
      cluster_nonempty_ |= 1ull << i;
      c.fifo_pushes++;
      c.output_events++;
      fired_any_ = true;
    }
  }

  if (++sweep_pos_ >= schedule_.size()) state_ = State::kDrain;
}

template <typename Sink>
void Slice::fire_step(Sink&& sink, State& state, std::uint64_t& countdown,
                      State& post, hwsim::ActivityCounters& c) {
  // Fast-forward FIRE step driven by the scan cache batch_fire filled at
  // decode: the stall check probes only the clusters that will spike, the
  // commit reuses the cached caught-up membranes, and runs of spike-free
  // slots ahead of the cursor are pre-executed under a countdown (they
  // cannot stall and touch no FIFO). State transitions, counter totals, and
  // the spike push order are identical to the reference handler's.
  const std::size_t npc = hw_->neurons_per_cluster;
  const std::uint16_t slot = schedule_[sweep_pos_];
  std::uint64_t fm = fire_mask_[slot];
  while (fm) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(fm));
    fm &= fm - 1;
    if (sink.full(i)) {
      sink.stalled(i, fire_mask_[slot]);
      c.fifo_stall_cycles++;
      return;  // retry the same TDM address next cycle
    }
  }

  // Commit the spiking neurons; non-firing neurons' leak catch-up is lazy
  // (see batch_fire) and their datapath activity is charged arithmetically.
  std::uint64_t fm2 = fire_mask_[slot];
  std::uint64_t checks =
      static_cast<std::uint64_t>(std::popcount(mapped_mask_[slot]));
  while (fm2) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(fm2));
    fm2 &= fm2 - 1;
    Cluster& cl = clusters_[i];
    const bool fired = cl.neurons[slot].commit_fire(
        fire_leaked_[i * npc + slot], current_.t, cfg_.lif);
    SNE_ASSERT(fired);  // fire_mask_ is exact
    sink.push(i, *output_event(cl, slot, current_.t));
    c.fifo_pushes++;
    c.output_events++;
    fired_any_ = true;
  }

  // Pre-execute the run of spike-free slots ahead of the cursor: pure
  // counter arithmetic under the lazy-leak rule.
  std::uint64_t extra = 0;
  ++sweep_pos_;
  while (sweep_pos_ < schedule_.size() &&
         fire_mask_[schedule_[sweep_pos_]] == 0) {
    checks += static_cast<std::uint64_t>(
        std::popcount(mapped_mask_[schedule_[sweep_pos_]]));
    ++sweep_pos_;
    ++extra;
  }

  c.fire_checks += checks;
  c.state_reads += checks;
  c.state_writes += checks;
  c.active_cluster_cycles += checks;
  if (sweep_pos_ >= schedule_.size()) {
    if (extra == 0) {
      state = State::kDrain;  // this tick executed the final slot
    } else {
      c.slice_busy_cycles += extra;
      countdown = extra;
      post = State::kDrain;
    }
    return;
  }
  if (extra > 0) {
    c.slice_busy_cycles += extra;
    countdown = extra;
    post = State::kFire;
  }
}

void Slice::tick_fire_cached(hwsim::ActivityCounters& c) {
  // The real-FIFO sink: pushes land in the cluster ring buffers and the
  // pending count / nonempty mask track them.
  struct RealSink {
    Slice* s;
    bool full(unsigned i) const { return s->clusters_[i].out_fifo.full(); }
    void stalled(unsigned, std::uint64_t) const {}
    void push(unsigned i, const event::Event& e) {
      const bool ok = s->clusters_[i].out_fifo.try_push(e);
      SNE_ASSERT(ok);  // guaranteed by the stall check
      ++s->cluster_pending_;
      s->cluster_nonempty_ |= 1ull << i;
    }
  };
  fire_step(RealSink{this}, state_, countdown_, post_state_, c);
}

void Slice::tick_reset(hwsim::ActivityCounters& c) {
  SNE_EXPECTS(sweep_pos_ < schedule_.size());
  const std::uint16_t slot = schedule_[sweep_pos_];
  for (auto& cl : clusters_) {
    cl.neurons[slot].reset();
    c.neuron_resets++;
    c.state_writes++;
    c.active_cluster_cycles++;
  }
  if (++sweep_pos_ >= schedule_.size()) {
    fired_any_ = true;  // RST markers always propagate downstream
    state_ = State::kDrain;
  }
}

void Slice::tick_wload(hwsim::ActivityCounters& c) {
  SNE_EXPECTS(wload_remaining_ > 0);
  if (in_fifo_.empty()) return;  // wait for the streamer
  const event::Beat payload = in_fifo_.pop();
  c.fifo_pops++;
  weights_.write_beat(wload_set_, wload_group_, payload);
  c.weight_load_beats++;
  ++wload_group_;
  if (--wload_remaining_ == 0) state_ = State::kIdle;
}

void Slice::tick_drain(hwsim::ActivityCounters& c) {
  // Wait until every spike of the completed scan has been collected, then
  // emit the time-synchronization marker (FIRE with the scan's timestep, or
  // RST) so downstream consumers observe a time-ordered stream.
  if (cluster_pending_ != 0) return;
  if (current_.op == event::Op::kFire && !fired_any_) {
    // No spikes at this timestep: downstream layers cannot fire either
    // (non-negative thresholds), so the marker is elided — the stream-level
    // counterpart of the TLU skip.
    state_ = State::kIdle;
    return;
  }
  if (out_fifo_.full()) return;
  event::Event marker = current_;
  const bool ok = out_fifo_.try_push(marker);
  SNE_ASSERT(ok);
  c.fifo_pushes++;
  state_ = State::kIdle;
}

void Slice::tick_collector(hwsim::ActivityCounters& c) {
  if (cluster_pending_ == 0) return;  // nothing to arbitrate
  if (out_fifo_.full()) return;
  // cluster_nonempty_ mirrors per-FIFO emptiness exactly, so the masked
  // grant issues the same round-robin sequence as probing every FIFO.
  const int granted = collector_arb_.grant_masked(cluster_nonempty_);
  SNE_ASSERT(granted >= 0);  // cluster_pending_ > 0 implies a request bit
  auto& src = clusters_[static_cast<std::size_t>(granted)].out_fifo;
  const event::Event e = src.pop();
  if (src.empty()) cluster_nonempty_ &= ~(1ull << granted);
  --cluster_pending_;
  c.fifo_pops++;
  const bool ok = out_fifo_.try_push(e);
  SNE_ASSERT(ok);
  c.fifo_pushes++;
}

void Slice::drain_tick(hwsim::ActivityCounters& c) {
  if (!configured_) return;  // statically idle (engine routes validated)
  tick_collector(c);
  const bool was_busy = state_ != State::kIdle;
  if (countdown_ > 0) {
    // drain_cycle_ok() admitted countdown_ > 1 only, so the decrement can
    // never retire the sweep here.
    --countdown_;
    return;
  }
  if (!was_busy) return;  // idle with empty input FIFO
  c.slice_busy_cycles++;
  switch (state_) {
    case State::kFire:
      tick_fire(c);
      break;
    case State::kDrain:
      tick_drain(c);
      break;
    default:
      SNE_ASSERT(false);  // excluded by drain_cycle_ok()
  }
}

void Slice::drain_replay_begin(DrainReplay& r) const {
  r.nonempty = cluster_nonempty_;
  r.pending = cluster_pending_;
  r.arb_cursor = collector_arb_.cursor();
  r.arb_ports = clusters_.size();
  r.cluster_cap = hw_->cluster_fifo_depth;
  r.in_nonempty = !in_fifo_.empty();
  r.full = 0;
  const std::size_t cap = r.cluster_cap;
  if (r.qarena.size() < clusters_.size() * cap)
    r.qarena.resize(clusters_.size() * cap);
  for (std::size_t g = 0; g < clusters_.size(); ++g) {
    const auto& fifo = clusters_[g].out_fifo;
    const auto n = static_cast<std::uint16_t>(fifo.size());
    r.count[g] = n;
    r.init[g] = n;
    r.peak[g] = n;
    r.rhead[g] = 0;
    r.pops[g] = 0;
    if (n >= r.cluster_cap) r.full |= 1ull << g;
    fifo.copy_to(r.qarena.data() + g * cap);
  }
  r.out_seq.resize(out_fifo_.size());
  out_fifo_.copy_to(r.out_seq.data());
  r.out0 = static_cast<std::uint32_t>(out_fifo_.size());
  r.out_count = r.out0;
  r.out_peak = r.out0;
  r.vstate = state_;
  r.vpost = post_state_;
  r.vcountdown = countdown_;
  r.stall_on = -1;
}

void Slice::drain_replay_step(DrainReplay& r, hwsim::ActivityCounters& c) {
  switch (r.vstate) {
    case State::kFire: {
      c.slice_busy_cycles++;
      // The virtual sink: spikes land in the count queues the up-moves
      // consume; the first full cluster parks the slice (see fast_class).
      struct VirtualSink {
        DrainReplay* r;
        bool full(unsigned i) const { return r->count[i] >= r->cluster_cap; }
        void stalled(unsigned i, std::uint64_t slot_mask) const {
          r->stall_on = static_cast<std::int32_t>(i);
          r->stall_mask = slot_mask;
        }
        void push(unsigned i, const event::Event& e) {
          r->qpush(i, e);
          ++r->pending;
        }
      };
      r.stall_on = -1;
      fire_step(VirtualSink{&r}, r.vstate, r.vcountdown, r.vpost, c);
      return;
    }
    case State::kDrain: {
      c.slice_busy_cycles++;
      SNE_ASSERT(r.pending == 0);  // pending != 0 is engine-inlined
      if (current_.op == event::Op::kFire && !fired_any_) {
        r.vstate = State::kIdle;  // marker elided (silent scan)
        return;
      }
      if (r.out_count >= r.out_cap) return;  // marker waits for space
      r.out_seq.push_back(current_);
      if (++r.out_count > r.out_peak) r.out_peak = r.out_count;
      c.fifo_pushes++;
      r.vstate = State::kIdle;
      return;
    }
    default:
      SNE_ASSERT(false);  // excluded at span entry / by fast_class
  }
}

void Slice::drain_replay_commit(DrainReplay& r) {
  const std::size_t cap = r.cluster_cap;
  for (std::size_t g = 0; g < clusters_.size(); ++g) {
    const std::size_t pushes = r.pops[g] + r.count[g] - r.init[g];
    const std::size_t pops = r.pops[g];
    if (pushes == 0 && pops == 0) continue;
    const event::Event* survivors = r.qarena.data() + g * cap + r.rhead[g];
    if (r.rhead[g] + r.count[g] > cap) {
      // The live window wraps its ring: linearize into the scratch buffer
      // (reconcile_bulk consumes contiguous survivors).
      r.lin.resize(r.count[g]);
      const std::size_t head_seg = cap - r.rhead[g];
      std::copy(survivors, survivors + head_seg, r.lin.begin());
      std::copy(r.qarena.data() + g * cap,
                r.qarena.data() + g * cap + (r.count[g] - head_seg),
                r.lin.begin() + static_cast<long>(head_seg));
      survivors = r.lin.data();
    }
    clusters_[g].out_fifo.reconcile_bulk(pushes, pops, r.peak[g], survivors,
                                         r.count[g]);
  }
  cluster_pending_ = r.pending;
  cluster_nonempty_ = r.nonempty;
  collector_arb_.set_cursor(r.arb_cursor);
  state_ = r.vstate;
  post_state_ = r.vpost;
  countdown_ = r.vcountdown;
}

bool Slice::compute_event_filter(const event::Event& e) {
  // Event-wide work is done once; the per-cluster loop only performs the
  // tile-intersection test against the precomputed receptive intervals.
  ev_accepted_ = 0;
  if (e.ch >= cfg_.in_channels || e.x >= cfg_.in_width ||
      e.y >= cfg_.in_height) {
    for (auto& cl : clusters_) cl.enabled_for_event = false;
    return false;
  }
  if (cfg_.kind == LayerKind::kFc) {
    const std::uint32_t flat = cfg_.fc_flat_index(e.ch, e.x, e.y);
    const bool in_pass = flat >= cfg_.fc_pass_base &&
                         flat < cfg_.fc_pass_base + cfg_.fc_pass_positions;
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      Cluster& cl = clusters_[i];
      cl.enabled_for_event = cl.map.enabled && in_pass;
      if (cl.enabled_for_event)
        ev_accepted_idx_[ev_accepted_++] = static_cast<std::uint8_t>(i);
    }
    return ev_accepted_ > 0;
  }
  const Interval ox = receptive_interval(e.x, cfg_.kernel_w, cfg_.stride,
                                         cfg_.pad, cfg_.out_width);
  const Interval oy = receptive_interval(e.y, cfg_.kernel_h, cfg_.stride,
                                         cfg_.pad, cfg_.out_height);
  ev_ox_ = ox;
  ev_oy_ = oy;
  if (ox.empty() || oy.empty()) {
    for (auto& cl : clusters_) cl.enabled_for_event = false;
    return false;
  }
  const int tile_w = static_cast<int>(hw_->cluster_tile_width);
  const int tile_h = static_cast<int>(hw_->cluster_tile_height());
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    Cluster& cl = clusters_[i];
    const bool accepted =
        cl.map.enabled && (!cfg_.depthwise || cl.map.out_channel == e.ch) &&
        ox.hi >= cl.map.x_base && ox.lo < cl.map.x_base + tile_w &&
        oy.hi >= cl.map.y_base && oy.lo < cl.map.y_base + tile_h;
    cl.enabled_for_event = accepted;
    if (accepted) ev_accepted_idx_[ev_accepted_++] = static_cast<std::uint8_t>(i);
  }
  return ev_accepted_ > 0;
}

void Slice::batch_execute(hwsim::ActivityCounters& c) {
  switch (state_) {
    case State::kUpdate:
      batch_update(c);
      break;
    case State::kReset:
      batch_reset(c);
      break;
    case State::kFire:
      batch_fire(c);  // declines (stays per-cycle) when spikes would flow
      break;
    default:
      break;  // WLOAD consumes FIFO beats and must stay per-cycle
  }
}

void Slice::batch_update(hwsim::ActivityCounters& c) {
  // An UPDATE sweep touches no FIFO, so compressing it into one host call is
  // unconditionally cycle-equivalent: the per-cycle handler's charges are
  // reproduced arithmetically and the slice stays externally busy for the
  // same number of cycles via countdown_.
  const std::uint64_t slots = sweep_slots_;
  const std::uint64_t per_slot = hw_->double_buffered_state ? 1 : 2;
  const std::uint64_t cycles = slots * per_slot;

  const std::uint64_t enabled = ev_accepted_;
  const std::uint64_t filtered = enabled_clusters_ - ev_accepted_;
  c.active_cluster_cycles += enabled * cycles;
  if (hw_->clock_gating)
    c.gated_cluster_cycles += filtered * cycles;
  else
    c.active_cluster_cycles += filtered * cycles;

  // Integrations. The per-cycle handler visits (slot, cluster) pairs in
  // schedule order and integrates exactly the pairs whose neuron lies in the
  // event's receptive field; each neuron is touched at most once and neurons
  // share no state, so visiting the same set in cluster-major order is
  // state- and counter-identical. For conv, that set is the intersection of
  // the cluster tile with the precomputed receptive rectangle — enumerate it
  // directly instead of scanning the padded sweep.
  std::uint64_t updates = 0;
  if (cfg_.kind == LayerKind::kFc) {
    // The FC sweep visits every TDM slot, and slot s of a cluster is engaged
    // while out_channel + s < total: each accepted cluster integrates a
    // prefix of its slots. The flat input index is an event constant, and
    // each cluster's weights for the event are one contiguous row (same
    // addressing as weight_for).
    const std::uint32_t local =
        cfg_.fc_flat_index(current_.ch, current_.x, current_.y) -
        cfg_.fc_pass_base;
    const std::uint32_t total = fc_total_outputs();
    const std::uint32_t npc = hw_->neurons_per_cluster;
    for (std::uint32_t k = 0; k < ev_accepted_; ++k) {
      const std::uint32_t i = ev_accepted_idx_[k];
      Cluster& cl = clusters_[i];
      const std::uint32_t first = cl.map.out_channel;
      if (first >= total) continue;
      const std::uint32_t n = std::min(npc, total - first);
      for (std::uint32_t slot = 0; slot < n; ++slot) {
        const std::int32_t w =
            cfg_.fc_weights_streamed
                ? weights_.read(local, first + slot)
                : weights_.read(local * hw_->clusters_per_slice + i, slot);
        cl.neurons[slot].integrate(current_.t, w, cfg_.lif);
        if (cl.neurons[slot].membrane() > cfg_.lif.v_th)
          cl.armed[slot >> 6] |= 1ull << (slot & 63);
      }
      updates += n;
    }
  } else {
    const int tile_w = static_cast<int>(hw_->cluster_tile_width);
    const int tile_h = static_cast<int>(hw_->cluster_tile_height());
    for (std::uint32_t k = 0; k < ev_accepted_; ++k) {
      Cluster& cl = clusters_[ev_accepted_idx_[k]];
      const int x_lo = std::max(ev_ox_.lo, static_cast<int>(cl.map.x_base));
      const int x_hi =
          std::min(ev_ox_.hi, static_cast<int>(cl.map.x_base) + tile_w - 1);
      const int y_lo = std::max(ev_oy_.lo, static_cast<int>(cl.map.y_base));
      const int y_hi =
          std::min(ev_oy_.hi, static_cast<int>(cl.map.y_base) + tile_h - 1);
      // Direct weight addressing (same formulas as weight_for, which is
      // always engaged on rectangle cells): kernel taps are in range by the
      // receptive-interval construction, and the weight set is a
      // per-cluster constant for the event.
      const std::uint32_t set =
          cfg_.depthwise
              ? 0u
              : static_cast<std::uint32_t>(current_.ch) * cfg_.oc_per_slice +
                    cl.map.oc_slot;
      for (int oy = y_lo; oy <= y_hi; ++oy) {
        const int ky = current_.y + cfg_.pad - oy * cfg_.stride;
        const int row = (oy - cl.map.y_base) * tile_w - cl.map.x_base;
        for (int ox = x_lo; ox <= x_hi; ++ox) {
          const int kx = current_.x + cfg_.pad - ox * cfg_.stride;
          const std::uint16_t slot = static_cast<std::uint16_t>(row + ox);
          const std::int32_t w = weights_.read(
              set, static_cast<std::uint32_t>(ky * cfg_.kernel_w + kx));
          cl.neurons[slot].integrate(current_.t, w, cfg_.lif);
          if (cl.neurons[slot].membrane() > cfg_.lif.v_th)
            cl.armed[slot >> 6] |= 1ull << (slot & 63);
          ++updates;
        }
      }
    }
  }
  c.neuron_updates += updates;
  c.state_reads += updates;
  c.state_writes += updates;

  c.slice_busy_cycles += cycles;
  countdown_ = cycles;
  post_state_ = State::kIdle;
}

void Slice::batch_reset(hwsim::ActivityCounters& c) {
  // RST sweeps touch no FIFO either; every cluster participates. All
  // membranes drop to zero, so (for v_th >= 0) nothing remains armed; with
  // v_th < 0 the armed masks are unused entirely.
  const std::uint64_t slots = sweep_slots_;
  for (std::uint64_t i = 0; i < slots; ++i) {
    const std::uint16_t slot = schedule_[i];
    for (auto& cl : clusters_) {
      cl.neurons[slot].reset();
      c.neuron_resets++;
      c.state_writes++;
      c.active_cluster_cycles++;
    }
  }
  for (auto& cl : clusters_) cl.armed = {};
  fired_any_ = true;  // RST markers always propagate downstream
  c.slice_busy_cycles += slots;
  countdown_ = slots;
  post_state_ = State::kDrain;
}

bool Slice::batch_fire(hwsim::ActivityCounters& c) {
  // Fill the scan-wide FIRE cache: every neuron's caught-up membrane plus
  // the per-slot spike masks. The precomputation is exact for the entire
  // scan because each neuron is visited exactly once (its slot) and only
  // mutated by its own commit — earlier slots cannot change later slots'
  // firing decisions, and stalls never mutate state.
  //
  // A scan with no spike at all touches no FIFO and can never stall, so it
  // commits here in one call; otherwise the per-cycle handler takes over,
  // consuming the same cache (spike drainage interleaves with the collector
  // and the C-XBAR cycle by cycle and must not be compressed).
  const std::size_t npc = hw_->neurons_per_cluster;
  fire_leaked_.resize(clusters_.size() * npc);
  fire_mask_.assign(npc, 0);
  // Candidate slots per cluster: the armed superset (exact fallback to all
  // mapped slots for negative thresholds, where leak can cross upward).
  const bool use_armed = cfg_.lif.v_th >= 0;
  bool any_spike = false;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    Cluster& cl = clusters_[i];
    if (!cl.map.enabled) continue;
    for (std::size_t w = 0; w < 4; ++w) {
      std::uint64_t cand = cluster_mapped_[i][w];
      if (use_armed) cand &= cl.armed[w];
      while (cand) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(cand));
        cand &= cand - 1;
        const auto& n = cl.neurons[slot];
        const std::int32_t v = neuron::leaked(
            n.membrane(), cfg_.lif.leak,
            current_.t >= n.last_update() ? current_.t - n.last_update() : 0,
            cfg_.lif.leak_mode);
        if (v > cfg_.lif.v_th) {
          fire_mask_[slot] |= 1ull << i;
          fire_leaked_[i * npc + slot] = v;
          any_spike = true;
        } else if (use_armed) {
          // Disproven candidate: it cannot fire again until an integrate
          // re-arms it (leak only decays when v_th >= 0).
          cl.armed[w] &= ~(1ull << (slot & 63));
        }
      }
    }
  }
  if (any_spike) return false;  // per-cycle path resumes, reusing the cache

  // No spike: nothing touches a FIFO and no neuron changes observably —
  // the leak catch-up every mapped neuron would receive is applied lazily
  // at its next touch (one-shot == iterative for the linear leak, see
  // neuron::leaked), so the whole scan reduces to counter arithmetic.
  c.fire_checks += mapped_total_;
  c.state_reads += mapped_total_;
  c.state_writes += mapped_total_;
  c.active_cluster_cycles += mapped_total_;
  const std::uint64_t slots = sweep_slots_;
  c.slice_busy_cycles += slots;
  countdown_ = slots;
  post_state_ = State::kDrain;
  return true;
}

std::optional<std::int32_t> Slice::weight_for(const Cluster& cl,
                                              std::uint16_t slot) const {
  const std::uint32_t tile_w = hw_->cluster_tile_width;
  if (cfg_.kind == LayerKind::kFc) {
    const std::uint32_t id = cl.map.out_channel + slot;
    if (id >= fc_total_outputs()) return std::nullopt;
    const std::uint32_t flat =
        cfg_.fc_flat_index(current_.ch, current_.x, current_.y);
    const std::uint32_t local = flat - cfg_.fc_pass_base;
    if (cfg_.fc_weights_streamed) return weights_.read(local, id);
    const std::uint32_t cluster_index =
        static_cast<std::uint32_t>(&cl - clusters_.data());
    const std::uint32_t set = local * hw_->clusters_per_slice + cluster_index;
    return weights_.read(set, slot);
  }
  const int lx = static_cast<int>(slot % tile_w);
  const int ly = static_cast<int>(slot / tile_w);
  const int ox = cl.map.x_base + lx;
  const int oy = cl.map.y_base + ly;
  if (ox >= cfg_.out_width || oy >= cfg_.out_height) return std::nullopt;
  const int kx = current_.x + cfg_.pad - ox * cfg_.stride;
  const int ky = current_.y + cfg_.pad - oy * cfg_.stride;
  if (kx < 0 || kx >= cfg_.kernel_w || ky < 0 || ky >= cfg_.kernel_h)
    return std::nullopt;
  const std::uint32_t set =
      cfg_.depthwise ? 0u
                     : static_cast<std::uint32_t>(current_.ch) *
                               cfg_.oc_per_slice +
                           cl.map.oc_slot;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(ky) * cfg_.kernel_w +
      static_cast<std::uint32_t>(kx);
  return weights_.read(set, idx);
}

std::optional<event::Event> Slice::output_event(const Cluster& cl,
                                                std::uint16_t slot,
                                                std::uint16_t t) const {
  const std::uint32_t tile_w = hw_->cluster_tile_width;
  if (cfg_.kind == LayerKind::kFc) {
    const std::uint32_t id = cl.map.out_channel + slot;
    if (id >= fc_total_outputs()) return std::nullopt;
    const std::uint32_t per_ch =
        static_cast<std::uint32_t>(cfg_.out_width) * cfg_.out_height;
    const std::uint32_t ch = id / per_ch;
    const std::uint32_t rem = id % per_ch;
    return event::Event::update(t, static_cast<std::uint16_t>(ch),
                                static_cast<std::uint8_t>(rem % cfg_.out_width),
                                static_cast<std::uint8_t>(rem / cfg_.out_width));
  }
  const std::uint32_t lx = slot % tile_w;
  const std::uint32_t ly = slot / tile_w;
  const std::uint32_t ox = cl.map.x_base + lx;
  const std::uint32_t oy = cl.map.y_base + ly;
  if (ox >= cfg_.out_width || oy >= cfg_.out_height) return std::nullopt;
  return event::Event::update(t, cl.map.out_channel,
                              static_cast<std::uint8_t>(ox),
                              static_cast<std::uint8_t>(oy));
}

}  // namespace sne::core
