#include "core/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <sstream>

#include "common/fnv.h"

namespace sne::core {

SneEngine::SneEngine(SneConfig cfg, std::size_t memory_words,
                     hwsim::MemoryTiming mem_timing)
    : cfg_(cfg),
      mem_(memory_words, mem_timing),
      in_dma_(mem_, cfg.dma_fifo_depth),
      collector_arb_(cfg.num_slices),
      routes_(XbarRoutes::time_multiplexed(cfg.num_slices)) {
  cfg_.validate();
  SNE_EXPECTS(memory_words >= 1024);
  slices_.reserve(cfg_.num_slices);
  for (std::uint32_t i = 0; i < cfg_.num_slices; ++i)
    slices_.emplace_back(i, cfg_);
  for (std::uint32_t i = 0; i < cfg_.num_output_dmas; ++i)
    out_dmas_.emplace_back(mem_, cfg_.dma_fifo_depth);
  // Memory map: program in the lower half; the upper half is split into one
  // linear output region per output DMA.
  out_region_base_ = memory_words / 2;
  out_region_words_ = (memory_words - out_region_base_) / cfg_.num_output_dmas;
  rebuild_route_index();
  resident_tags_.assign(cfg_.num_slices, 0);
  drain_parts_.resize(cfg_.num_slices);
  drain_dmas_.resize(cfg_.num_output_dmas);
}

void SneEngine::rebuild_route_index() {
  mem_slices_.clear();
  pipe_routes_.clear();
  mem_slice_mask_ = 0;
  for (std::size_t i = 0; i < routes_.slice_dest.size(); ++i) {
    const int dest = routes_.slice_dest[i].dest;
    if (dest == SliceRoute::kToMemory) {
      mem_slices_.push_back(static_cast<std::uint32_t>(i));
      mem_slice_mask_ |= 1ull << i;
    } else {
      pipe_routes_.emplace_back(static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(dest));
    }
  }
}

void SneEngine::reset() {
  reset_machine_state();
  scrub_programming();
}

void SneEngine::reset_machine_state() {
  for (auto& sl : slices_) sl.reset_machine_state();
  in_dma_.reset();
  for (auto& dma : out_dmas_) dma.reset();
  collector_arb_.reset();
  routes_ = XbarRoutes::time_multiplexed(cfg_.num_slices);
  rebuild_route_index();
  total_ = hwsim::ActivityCounters{};
}

void SneEngine::scrub_programming() {
  for (auto& sl : slices_) sl.scrub_programming();
  std::fill(resident_tags_.begin(), resident_tags_.end(), 0);
}

SneEngine::RunResult SneEngine::run(const std::vector<event::Beat>& program,
                                    const RunOptions& opts) {
  if (program.size() > out_region_base_)
    throw ConfigError("program does not fit the input memory region");
  for (auto d : routes_.input_dest)
    if (!slice(d).configured())
      throw ConfigError("route targets an unconfigured slice");

  // The start pulse rewinds the collector's rotating priority, so a run's
  // grant schedule depends only on the programmed configuration — never on
  // what a previous run on this engine happened to grant last. This is what
  // lets pooled engines and pipeline stages reproduce the serial reference
  // bit for bit (sne::serve pins it).
  collector_arb_.reset();

  // Live-slice bound: a slice no input route or pipeline hop reaches, and
  // that holds no work left by an earlier run that threw, gets nothing to do
  // this run, so every per-slice loop stops at n_live_. The mapper puts a
  // round's passes on slices 0..k-1, so the bound is the layer's slice set.
  n_live_ = 0;
  const auto reach = [this](std::uint32_t i) {
    n_live_ = std::max(n_live_, i + 1);
  };
  for (const auto d : routes_.input_dest) reach(d);
  for (const auto& [src, dest] : pipe_routes_) {
    reach(src);
    reach(dest);
  }
  for (std::uint32_t i = n_live_; i < slices_.size(); ++i) {
    const Slice& sl = slices_[i];
    if (sl.busy() || !sl.out_fifo().empty() || sl.cluster_pending() > 0 ||
        sl.countdown() > 0)
      reach(i);
  }
  // The same start pulse rewinds each live slice's collector: its pointer
  // otherwise carries over from the last run on the slice, and an engine
  // that was programmed and restored from a snapshot (a streaming session's
  // chunk) would grant in a different order than the one that ran the
  // previous chunk. Slices outside the bound are rewound by the run that
  // makes them live.
  for (std::uint32_t i = 0; i < n_live_; ++i) slices_[i].rewind_collector();

  // Contention stalls draw from a stream keyed by the program *contents*
  // (FNV-1a over the beats). Content keying — not a stage or run index — is
  // what makes stalled results invariant across stage/worker counts and
  // engine reuse: identical per-layer programs draw identical stall patterns
  // wherever they execute, and warm runs that skip a WLOAD program skip
  // exactly that program's private stream. Stall-free timing draws nothing.
  if (mem_.timing().stall_probability > 0.0) {
    std::uint64_t key = kFnv64Basis;
    for (const event::Beat b : program) key = fnv64_step(key, b);
    mem_.begin_stream(key);
  }

  mem_.load(0, program);
  in_dma_.start(0, program.size());
  for (std::uint32_t i = 0; i < out_dmas_.size(); ++i)
    out_dmas_[i].start(out_region_base_ + i * out_region_words_,
                       out_region_words_);

  hwsim::ActivityCounters c;
  // Replay profiling (one relaxed atomic load when disarmed — the whole
  // disarmed cost of this run). The profile only *records* where cycles go;
  // no simulated state reads it back, so results are bitwise identical
  // with profiling on or off.
  obs::RunProfile profile;
  prof_ = obs::profiling_enabled() ? &profile : nullptr;
  if (prof_) {
    profile.runs = 1;
    profile.slice_busy.assign(slices_.size(), 0);
  }
  struct ProfScope {  // never leave prof_ dangling past this frame
    obs::RunProfile*& slot;
    ~ProfScope() { slot = nullptr; }
  } prof_scope{prof_};
  const bool fast = cfg_.fast_forward;
  const bool drain_fast = fast && cfg_.drain_batching;
  ScanState s = scan_state();
  while (!s.quiescent()) {
    if (c.cycles >= opts.max_cycles) {
      std::ostringstream os;
      os << "engine did not quiesce within " << opts.max_cycles
         << " cycles; counters: " << c;
      throw ContractViolation(os.str());
    }
    // Drain-dominated spans (spikes flowing through the collector/DMA
    // chain) replay through the batched drain engine.
    if (drain_fast && (s.out_dma_pending || s.any_slice_out || s.any_drain)) {
      if (drain_burst(c, opts.max_cycles) > 0) {
        s = scan_state();
        continue;
      }
    }
    // A pending output-DMA word means next_activity_delta() == 1 (its first
    // check); skip the scan entirely — drain phases tick every cycle.
    if (fast && !s.out_dma_pending) {
      const std::uint64_t d = next_activity_delta();
      if (d > 1 && d != kNeverActive) {
        // No component can act for d-1 cycles: advance time in bulk. All
        // FIFO states are static across the span, so the reference loop
        // would have ticked through it with no effect beyond countdowns and
        // the cycle/idle counters reproduced here.
        const std::uint64_t jump = std::min(d - 1, opts.max_cycles - c.cycles);
        c.cycles += jump;
        if (prof_) {
          // A busy jump spans a TDM sweep countdown; an idle one a dead span.
          if (s.any_slice_busy) {
            prof_->sweep_jump_cycles += jump;
            for (std::size_t i = 0; i < n_live_; ++i)
              if (slices_[i].busy()) prof_->slice_busy[i] += jump;
          } else {
            prof_->dead_jump_cycles += jump;
          }
        }
        if (!s.any_slice_busy) c.idle_cycles += jump;
        in_dma_.skip_cycles(jump);
        for (auto& sl : live_slices()) sl.skip_cycles(jump);
        if (c.cycles >= opts.max_cycles) continue;  // livelock guard throws
      }
    }
    tick(c);
    c.cycles++;
    s = scan_state();
    if (prof_) {
      prof_->percycle_cycles++;
      for (std::size_t i = 0; i < n_live_; ++i)
        if (slices_[i].busy()) prof_->slice_busy[i]++;
    }
    if (!s.any_slice_busy) c.idle_cycles++;
  }

  RunResult r;
  r.counters = c;
  r.cycles = c.cycles;
  r.sim_time_us = static_cast<double>(c.cycles) * cfg_.cycle_ns() * 1e-3;
  if (prof_) r.profile = std::move(profile);
  if (opts.materialize_output) {
    std::vector<event::Beat> beats;
    for (std::uint32_t i = 0; i < out_dmas_.size(); ++i) {
      const auto part = mem_.dump(out_region_base_ + i * out_region_words_,
                                  out_dmas_[i].written());
      beats.insert(beats.end(), part.begin(), part.end());
    }
    r.output = event::EventStream::from_beats(beats, opts.out_geometry);
    r.output.normalize();
  }
  total_ += c;
  return r;
}

SneEngine::RunResult SneEngine::run(const event::EventStream& stream,
                                    const RunOptions& opts,
                                    event::FirePolicy policy) {
  RunOptions o = opts;
  if (o.out_geometry.volume() <= 1) {
    // Default the output geometry from the slice that feeds the output DMA
    // (the last pipeline stage, or any slice in time-multiplexed mode).
    for (std::size_t i = 0; i < routes_.slice_dest.size(); ++i) {
      if (routes_.slice_dest[i].dest != SliceRoute::kToMemory) continue;
      const SliceConfig& last = slice(static_cast<std::uint32_t>(i)).config();
      o.out_geometry.channels = last.out_channels;
      o.out_geometry.width = static_cast<std::uint8_t>(last.out_width);
      o.out_geometry.height = static_cast<std::uint8_t>(last.out_height);
      o.out_geometry.timesteps = stream.geometry().timesteps;
      break;
    }
  }
  return run(stream.with_control_events(policy).to_beats(), o);
}

void SneEngine::tick(hwsim::ActivityCounters& c) {
  // Consumer-first ordering: every beat advances at most one hop per cycle,
  // mirroring the registered FIFO stages of the RTL.
  for (auto& dma : out_dmas_) dma.tick(c);
  collector_tick(c);
  xbar_slice_moves(c);
  for (auto& s : live_slices()) s.tick(c);
  xbar_input_move(c);
  in_dma_.tick(c);
}

SneEngine::ScanState SneEngine::scan_state() const {
  ScanState s;
  for (const auto& sl : live_slices()) {
    if (sl.busy()) s.any_slice_busy = true;
    if (!sl.out_fifo().empty()) s.any_slice_out = true;
    if (sl.draining()) s.any_drain = true;
  }
  for (const auto& dma : out_dmas_)
    if (!dma.fifo().empty()) {
      s.out_dma_pending = true;
      break;
    }
  s.in_drained = in_dma_.fully_drained();
  return s;
}

std::uint64_t SneEngine::next_activity_delta() const {
  std::uint64_t d = kNeverActive;
  const auto consider = [&d](std::uint64_t v) {
    if (v < d) d = v;
  };

  // Output DMAs drain one word per cycle whenever their FIFO holds data.
  for (const auto& dma : out_dmas_)
    if (!dma.fifo().empty()) return 1;

  // Collector: movable when some output DMA FIFO has space and some
  // memory-routed slice holds an output event. A full DMA FIFO is nonempty,
  // so its drain already bounded d above.
  bool dma_space = false;
  for (const auto& dma : out_dmas_)
    if (!dma.fifo().full()) {
      dma_space = true;
      break;
    }
  if (dma_space) {
    for (const auto i : mem_slices_) {
      if (i >= n_live_) break;  // ascending
      if (!slices_[i].out_fifo().empty()) return 1;
    }
  }

  // Slice-to-slice crossbar hops (pipeline mode). A hop blocked on a full
  // destination unblocks only when that slice pops, which its own delta
  // (sweep countdown or 1) already bounds.
  for (const auto& [src, dest] : pipe_routes_)
    if (!slices_[src].out_fifo().empty() &&
        !slices_[dest].in_fifo().full())
      return 1;

  for (const auto& sl : live_slices()) {
    consider(sl.next_activity_delta());
    if (d == 1) return 1;
  }

  // Input broadcast: moves only when every destination has space.
  if (!in_dma_.fifo().empty()) {
    bool blocked = false;
    for (auto dest : routes_.input_dest)
      if (slices_[dest].in_fifo().full()) {
        blocked = true;
        break;
      }
    if (!blocked) return 1;
  }

  consider(in_dma_.next_activity_delta());
  return d;
}

void SneEngine::xbar_input_move(hwsim::ActivityCounters& c) {
  auto& src = in_dma_.fifo();
  if (src.empty()) return;
  // Broadcast flow control: "pause the transaction until all slave ports
  // have received the event" -> move only when every destination has space.
  for (auto d : routes_.input_dest)
    if (slice(d).in_fifo().full()) return;
  const event::Beat b = src.pop();
  c.fifo_pops++;
  for (auto d : routes_.input_dest) {
    const bool ok = slice(d).in_fifo().try_push(b);
    SNE_ASSERT(ok);
    c.fifo_pushes++;
  }
  c.xbar_beats++;
  if (routes_.input_dest.size() > 1) c.xbar_broadcast_beats++;
}

void SneEngine::xbar_slice_moves(hwsim::ActivityCounters& c) {
  for (const auto& [src_id, dest_id] : pipe_routes_) {
    auto& src = slices_[src_id].out_fifo();
    if (src.empty()) continue;
    auto& dst = slices_[dest_id].in_fifo();
    if (dst.full()) continue;
    const event::Event e = src.pop();
    c.fifo_pops++;
    const bool ok = dst.try_push(event::pack(e));
    SNE_ASSERT(ok);
    c.fifo_pushes++;
    c.xbar_beats++;
  }
}

std::uint64_t SneEngine::drain_burst(hwsim::ActivityCounters& c,
                                     std::uint64_t max_cycles) {
  std::uint64_t done = 0;
  for (;;) {
    if (c.cycles >= max_cycles) return done;  // caller's livelock guard throws
    // Cycle prechecks: every slice must be in a state whose full cycle the
    // kernel can replay (no event decode, no countdown retirement, no
    // reference-path sweep handlers). Slice-to-slice hops land before the
    // slices tick, so a movable hop makes its destination decode-capable.
    std::uint64_t incoming = 0;
    for (const auto& [src, dest] : pipe_routes_)
      if (!slices_[src].out_fifo().empty() &&
          !slices_[dest].in_fifo().full())
        incoming |= 1ull << dest;
    bool ok = true;
    bool any_work = false;
    std::uint64_t full_tick = 0;  // decode-boundary slices, ticked in full
    for (std::size_t i = 0; i < n_live_; ++i) {
      const Slice& sl = slices_[i];
      if (!sl.drain_cycle_ok(incoming >> i & 1)) {
        // Pipeline-routed drains hit decode boundaries (a hop landing in an
        // idle slice, a drain finishing into queued input, a countdown
        // retiring) every few cycles; abandoning the kernel there pays the
        // generic loop's full scan per drained event. Instead those slices
        // run the full tick() dispatch inside the kernel cycle — exact by
        // construction, drain_tick() being a specialization of tick() —
        // while the states that profit from the generic loop (WLOAD,
        // reference-path sweeps) still exit.
        if (pipe_routes_.empty() || !sl.drain_kernel_tick_ok()) {
          ok = false;
          break;
        }
        full_tick |= 1ull << i;
      }
      if (sl.draining() || !sl.out_fifo().empty()) any_work = true;
    }
    if (!ok) return done;
    if (!any_work) {
      bool dma_pending = false;
      for (const auto& dma : out_dmas_)
        if (!dma.fifo().empty()) {
          dma_pending = true;
          break;
        }
      if (!dma_pending) return done;  // dead span: the generic loop jumps it
    }

    // Pure-drain spans compress to the closed-form bulk model.
    const std::uint64_t bulk = drain_bulk_span(c, max_cycles);
    if (bulk > 0) {
      done += bulk;
      continue;
    }

    // One kernel cycle: the exact component order of tick(), with the
    // specialized slice drain step instead of the full tick dispatch
    // (decode-boundary slices get the full dispatch).
    for (auto& dma : out_dmas_) dma.tick(c);
    collector_tick(c);
    xbar_slice_moves(c);
    if (full_tick == 0) {
      for (auto& sl : live_slices()) sl.drain_tick(c);
    } else {
      for (std::size_t i = 0; i < n_live_; ++i) {
        if (full_tick >> i & 1)
          slices_[i].tick(c);
        else
          slices_[i].drain_tick(c);
      }
    }
    xbar_input_move(c);
    in_dma_.tick(c);
    c.cycles++;
    ++done;
    bool any_busy = false;
    if (prof_) {
      prof_->burst_cycles++;
      for (std::size_t i = 0; i < n_live_; ++i)
        if (slices_[i].busy()) {
          any_busy = true;
          prof_->slice_busy[i]++;
        }
    } else {
      for (const auto& sl : live_slices())
        if (sl.busy()) {
          any_busy = true;
          break;
        }
    }
    if (!any_busy) c.idle_cycles++;
  }
}

std::uint64_t SneEngine::drain_bulk_span(hwsim::ActivityCounters& c,
                                         std::uint64_t max_cycles) {
  // Preconditions: time-multiplexed routing only (slice-to-slice hops renew
  // input FIFOs mid-span), and an input side that provably cannot move for
  // the whole span — draining slices never pop their input FIFOs, so a
  // blocked broadcast stays blocked and a full streamer FIFO stays full.
  if (!pipe_routes_.empty()) return 0;
  std::uint64_t limit = max_cycles - c.cycles;
  if (!in_dma_.fifo().empty()) {
    bool all_space = true;
    for (const auto d : routes_.input_dest)
      if (slices_[d].in_fifo().full()) {
        all_space = false;
        break;
      }
    if (all_space) return 0;  // a broadcast move would land this cycle
  }
  if (!in_dma_.transfer_done()) {
    const std::uint64_t w = in_dma_.next_activity_delta();
    if (w == 1) return 0;  // a fetch would land this cycle
    if (w != kNeverActive) limit = std::min(limit, w - 1);
    // kNeverActive: blocked on its full FIFO behind the blocked broadcast.
  }
  if (limit == 0) return 0;

  // Classify slices. Participants feed the replay (FIRE emission, drains,
  // countdowns that resume emitting in-span); every participant must be
  // memory-routed. Countdowns that retire into the decoder bound the span.
  std::size_t n_parts = 0;
  std::array<std::uint8_t, 64> part_of{};  // slice index -> participant + 1
  std::uint64_t request = 0;               // slices with a nonempty out FIFO
  bool inert_busy = false;                 // a busy non-participant slice
  std::uint64_t inert_busy_mask = 0;       // same slices, for the profiler
  for (std::uint32_t i = 0; i < n_live_; ++i) {
    const Slice& sl = slices_[i];
    if (!sl.configured()) continue;
    const bool events = sl.cluster_pending() > 0 || !sl.out_fifo().empty();
    bool part;
    if (sl.countdown() > 0) {
      if (sl.countdown_posts_idle()) {
        // Retires into the decoder: stop the span one cycle short.
        if (sl.countdown() <= 1) return 0;
        limit = std::min(limit, sl.countdown() - 1);
        part = events;
        if (!part) {
          inert_busy = true;  // skip_cycles() handles the countdown
          inert_busy_mask |= 1ull << i;
        }
      } else {
        part = true;  // resumes FIRE/DRAIN in-span
      }
    } else if (sl.in_pure_drain()) {
      if (sl.cluster_pending() <= 1 && !sl.in_fifo().empty())
        return 0;  // would exit at cycle 0
      part = true;
    } else if (sl.in_fire_state()) {
      part = true;  // batch_fire's fallback: emission joins the replay
    } else if (sl.in_idle_state()) {
      if (!sl.in_fifo().empty()) return 0;  // decode imminent
      part = events;                        // idle with out-FIFO remnants
    } else {
      return 0;  // WLOAD or a reference-path sweep state
    }
    if (!part) continue;
    if (!(mem_slice_mask_ >> i & 1))
      return 0;  // participant the collector cannot serve
    DrainParticipant& p = drain_parts_[n_parts];
    p.slice = i;
    p.granted = 0;
    sl.drain_replay_begin(p.replay);
    p.replay.out_cap = cfg_.slice_out_fifo_depth;
    if (p.replay.out_count > 0) request |= 1ull << i;
    part_of[i] = static_cast<std::uint8_t>(++n_parts);
  }
  if (n_parts == 0) return 0;

  const std::uint32_t dma_cap = cfg_.dma_fifo_depth;
  for (std::size_t d = 0; d < out_dmas_.size(); ++d) {
    DmaReplay& r = drain_dmas_[d];
    const auto& fifo = out_dmas_[d].fifo();
    r.count = static_cast<std::uint32_t>(fifo.size());
    r.peak = r.count;
    r.head = 0;
    r.writes = 0;
    r.appended = 0;
    r.space = out_dmas_[d].region_space();
    r.staged.resize(fifo.size());
    fifo.copy_to(r.staged.data());
  }

  // Replay the round-robin interleaving on counts and cursors. Each
  // iteration is one machine cycle in tick()'s component order: DMA memory
  // writes, collector grants, then the per-slice collector moves and
  // state-machine steps.
  std::size_t cursor = collector_arb_.cursor();
  const std::size_t ports = collector_arb_.ports();
  std::uint64_t span = 0;
  std::uint64_t grants = 0;
  std::uint64_t idle_count = 0;
  // The steady-state eligibility check is re-run only after something that
  // can enable it (an emission/marker step, a countdown retiring, an out
  // FIFO filling to capacity) — pure drain cycles cannot.
  bool steady_dirty = true;
  while (span < limit) {
    // Boundaries the per-cycle paths must handle: a drainer one cycle from
    // decoding queued input, or an output region one word from overflowing
    // (the reference path throws there).
    bool boundary = false;
    for (std::size_t k = 0; k < n_parts && !boundary; ++k)
      boundary = drain_parts_[k].replay.must_exit();
    bool all_quiet = !boundary;
    for (std::size_t d = 0; d < out_dmas_.size() && !boundary; ++d) {
      const DmaReplay& r = drain_dmas_[d];
      if (r.count > 0 && r.writes >= r.space) boundary = true;
      if (r.count > 0) all_quiet = false;
    }
    if (boundary) break;
    if (all_quiet) {
      for (std::size_t k = 0; k < n_parts && all_quiet; ++k)
        all_quiet = drain_parts_[k].replay.quiet();
      if (all_quiet) break;  // everything ran dry; the generic loop resumes
    }

    // --- steady-state block ------------------------------------------------
    // With every output DMA holding at least one word and the request set at
    // least D wide, the drain settles into a strictly periodic regime: every
    // cycle each DMA writes one word and grants one slice — D grants per
    // cycle sharing one round-robin rotation over the M requesting members,
    // so consecutive grants visit consecutive members and each cycle's D
    // grants hit D *distinct* members — and each granted emitter refills its
    // out FIFO from its cluster queues the same cycle, while every state
    // machine is frozen. Grant k of the block goes to rotation position
    // k mod M and DMA k mod D; blocks of lcm(M, D) grants return both
    // assignments to their start, so the model advances whole blocks with
    // one event move per grant and charges the per-cycle activity (stalls,
    // busy cycles) arithmetically. At D == 1 this is exactly the former
    // single-DMA closed form. The occupancy preconditions (DMA counts,
    // D <= M) sit outside the dirty flag, like the old count >= 1 check:
    // they can become true through pure per-cycle drain cycles.
    bool steady_ready = steady_dirty && request != 0;
    const std::uint64_t dmas = out_dmas_.size();
    if (steady_ready) {
      if (dmas > static_cast<std::uint64_t>(std::popcount(request)))
        steady_ready = false;
      for (std::size_t d = 0; d < dmas && steady_ready; ++d)
        steady_ready = drain_dmas_[d].count >= 1;
    }
    if (steady_ready) {
      std::uint64_t rounds = kNeverActive;  // per-member grant allowance
      std::uint32_t busy_members = 0;
      std::uint64_t busy_member_mask = 0;
      std::uint64_t stall_members = 0;  // bitmask of parked FIRE slices
      std::uint64_t drain_members = 0;  // bitmask of busy drain/fire members
      bool steady = true;
      for (std::size_t k = 0; k < n_parts && steady; ++k) {
        const auto& rep = drain_parts_[k].replay;
        const std::uint64_t bit = 1ull << drain_parts_[k].slice;
        if (rep.busy()) {
          ++busy_members;
          busy_member_mask |= bit;
        }
        if (rep.vcountdown > 0) {
          steady = false;
        } else if (!(request & bit)) {
          steady = rep.quiet();  // only inert members may sit outside
        } else if (rep.is_idle_state()) {
          // Passive source: drains its out remnants, no refill.
          if (rep.pending != 0) steady = false;
          else rounds = std::min(rounds, std::uint64_t{rep.out_count});
        } else if (rep.fast_class() == 1 && rep.out_count == rep.out_cap &&
                   rep.pending >= 2) {
          // Parked FIRE emitter: stays stalled while some full firing
          // cluster of its slot stays full. Any such cluster certifies the
          // park; pick the one farthest in round-robin order (the last
          // full certificate the up-moves would reach) to maximize the
          // compressed span.
          const std::uint64_t certs = rep.stall_mask & rep.full;
          const std::size_t cur = rep.arb_cursor;
          const std::uint64_t below = certs & ~(~0ull << cur);
          const std::size_t pick = static_cast<std::size_t>(
              63 - std::countl_zero(below ? below : certs));
          const std::uint64_t upto =
              pick == 63 ? ~0ull : (1ull << (pick + 1)) - 1;
          std::uint64_t range;
          if (pick >= cur)
            range = rep.nonempty & (~0ull << cur) & upto;
          else
            range = (rep.nonempty & (~0ull << cur)) | (rep.nonempty & upto);
          const auto dist = static_cast<std::uint64_t>(std::popcount(range));
          if (dist < 2)
            steady = false;  // the very next up-move could unpark it
          else
            rounds = std::min(
                rounds, std::min(dist - 1, std::uint64_t{rep.pending} - 1));
          stall_members |= bit;
          drain_members |= bit;
        } else if (rep.fast_class() == 2 && rep.out_count == rep.out_cap &&
                   rep.pending >= 2) {
          // Post-scan drainer at full back-pressure.
          rounds = std::min(rounds, std::uint64_t{rep.pending} - 1);
          drain_members |= bit;
        } else {
          steady = false;  // still filling, marker imminent, or emitting
        }
      }
      const std::uint64_t members =
          static_cast<std::uint64_t>(std::popcount(request));
      if (steady && rounds != kNeverActive && rounds > 0) {
        // Whole lcm(M, D)-grant blocks only: every member then receives
        // exactly `turns` grants and every DMA stages exactly `cycles`
        // words, at fixed strides in the grant stream.
        const std::uint64_t gcd_md = std::gcd(members, dmas);
        const std::uint64_t gpm = dmas / gcd_md;  // grants/member per block
        const std::uint64_t cpb = members / gcd_md;  // cycles per block
        std::uint64_t blocks = rounds / gpm;
        blocks = std::min(blocks, (limit - span) / cpb);
        for (std::size_t d = 0; d < dmas; ++d) {
          const DmaReplay& r = drain_dmas_[d];
          blocks = std::min(
              blocks,
              (static_cast<std::uint64_t>(r.space) - r.writes) / cpb);
        }
        const std::uint64_t turns = blocks * gpm;   // grants per member
        const std::uint64_t cycles = blocks * cpb;  // machine cycles
        if (blocks > 0) {
          std::uint64_t ups = 0;
          std::array<std::size_t, 16> sbase{};  // staged base per DMA
          for (std::size_t d = 0; d < dmas; ++d) {
            DmaReplay& r = drain_dmas_[d];
            sbase[d] = r.staged.size();
            r.staged.resize(sbase[d] + cycles);
          }
          for (std::uint64_t rot = 0; rot < members; ++rot) {
            const std::size_t g =
                hwsim::RoundRobinArbiter::first_from(cursor, request);
            cursor = g + 1 == ports ? 0 : g + 1;
            DrainParticipant& p = drain_parts_[part_of[g] - 1];
            auto& rep = p.replay;
            if (rep.pending > 0) {
              // Emitting member: each grant is refilled the same cycle by
              // its cluster collector, so the out window slides in place.
              rep.out_seq.reserve(rep.out_seq.size() + turns);
              std::uint64_t i = rot;  // flat grant index of grant j
              for (std::uint64_t j = 0; j < turns; ++j, i += members) {
                const std::size_t dd = i % dmas;
                drain_dmas_[dd].staged[sbase[dd] + i / dmas] =
                    event::pack(rep.out_seq[p.granted + j]);
                const std::size_t cg = hwsim::RoundRobinArbiter::first_from(
                    rep.arb_cursor, rep.nonempty);
                rep.out_seq.push_back(rep.qpop(cg));
                rep.arb_cursor = cg + 1 == rep.arb_ports ? 0 : cg + 1;
              }
              rep.pending -= static_cast<std::uint32_t>(turns);
              p.granted += static_cast<std::uint32_t>(turns);
              ups += turns;
            } else {
              // Passive source: drains its remnants, no refill. Its last
              // grant is its final one of the block, so a bit cleared here
              // is never rescanned by the remaining rotation positions.
              std::uint64_t i = rot;
              for (std::uint64_t j = 0; j < turns; ++j, i += members) {
                const std::size_t dd = i % dmas;
                drain_dmas_[dd].staged[sbase[dd] + i / dmas] =
                    event::pack(rep.out_seq[p.granted + j]);
              }
              p.granted += static_cast<std::uint32_t>(turns);
              rep.out_count -= static_cast<std::uint32_t>(turns);
              if (rep.out_count == 0) request &= ~(1ull << g);
            }
          }
          for (std::size_t d = 0; d < dmas; ++d) {
            DmaReplay& r = drain_dmas_[d];
            // Write-then-grant keeps each DMA's occupancy (and peak) flat.
            r.writes += static_cast<std::uint32_t>(cycles);
            r.head += static_cast<std::uint32_t>(cycles);
            r.appended += static_cast<std::uint32_t>(cycles);
          }
          grants += turns * members;
          c.fifo_pops += ups;
          c.fifo_pushes += ups;
          c.fifo_stall_cycles +=
              cycles * static_cast<std::uint64_t>(std::popcount(stall_members));
          c.slice_busy_cycles +=
              cycles * static_cast<std::uint64_t>(std::popcount(drain_members));
          if (busy_members == 0 && !inert_busy) idle_count += cycles;
          if (prof_) {
            prof_->steady_cycles += cycles;
            // Members busy at the eligibility scan stay busy for the whole
            // block (their state machines are frozen); inert slices are
            // charged once for the full span at commit.
            for (std::uint64_t m = busy_member_mask; m != 0; m &= m - 1)
              prof_->slice_busy[static_cast<std::size_t>(
                  std::countr_zero(m))] += cycles;
          }
          span += cycles;
          continue;
        }
      }
      steady_dirty = false;
    }
    // --- one replayed cycle ------------------------------------------------
    for (std::size_t d = 0; d < out_dmas_.size(); ++d) {
      DmaReplay& r = drain_dmas_[d];
      if (r.count == 0) continue;
      ++r.writes;
      ++r.head;
      --r.count;
    }
    for (std::size_t d = 0; d < out_dmas_.size(); ++d) {
      DmaReplay& r = drain_dmas_[d];
      if (r.count >= dma_cap) continue;
      if (request == 0) break;  // collector_tick returns on a failed grant
      const std::size_t g =
          hwsim::RoundRobinArbiter::first_from(cursor, request);
      cursor = g + 1 == ports ? 0 : g + 1;
      DrainParticipant& p = drain_parts_[part_of[g] - 1];
      r.staged.push_back(event::pack(p.replay.out_seq[p.granted]));
      ++p.granted;
      ++r.appended;
      ++r.count;
      ++grants;
      if (r.count > r.peak) r.peak = r.count;
      if (--p.replay.out_count == 0) request &= ~(1ull << g);
    }
    bool any_busy = inert_busy;
    for (std::size_t k = 0; k < n_parts; ++k) {
      DrainParticipant& p = drain_parts_[k];
      auto& rep = p.replay;
      // tick_collector, then the state machine — tick()'s order, with the
      // hot cases (countdown ticks, parked stalls, draining, idle) inlined
      // and only real emission/marker work calling into the slice.
      const std::uint32_t out_before = rep.out_count;
      rep.up_move(c);
      if (rep.out_count != out_before && rep.out_count == rep.out_cap)
        steady_dirty = true;
      if (rep.vcountdown > 0) {
        if (--rep.vcountdown == 0) {
          rep.vstate = rep.vpost;
          SNE_ASSERT(!rep.is_idle_state());  // kIdle posts bound the span
          steady_dirty = true;
        }
      } else {
        switch (rep.fast_class()) {
          case 0:
            break;  // idle; input FIFO provably empty
          case 1:  // FIRE step provably re-stalls on a still-full cluster
            c.slice_busy_cycles++;
            c.fifo_stall_cycles++;
            break;
          case 2:  // post-scan drain with events still queued
            c.slice_busy_cycles++;
            break;
          default:
            slices_[p.slice].drain_replay_step(rep, c);
            steady_dirty = true;
        }
      }
      if (rep.out_count > 0) request |= 1ull << p.slice;
      if (rep.busy()) {
        any_busy = true;
        if (prof_) prof_->slice_busy[p.slice]++;
      }
    }
    if (!any_busy) ++idle_count;
    if (prof_) prof_->bulk_replay_cycles++;
    ++span;
  }
  if (span == 0) return 0;

  // Commit: memory image in one burst per DMA, everything else in bulk.
  std::uint64_t writes_total = 0;
  for (std::size_t d = 0; d < out_dmas_.size(); ++d) {
    DmaReplay& r = drain_dmas_[d];
    out_dmas_[d].write_burst(r.staged.data(), r.writes, c);
    out_dmas_[d].fifo().reconcile_bulk(r.appended, r.writes, r.peak,
                                       r.staged.data() + r.head, r.count);
    writes_total += r.writes;
  }
  for (std::size_t k = 0; k < n_parts; ++k) {
    DrainParticipant& p = drain_parts_[k];
    Slice& sl = slices_[p.slice];
    auto& rep = p.replay;
    sl.drain_replay_commit(rep);  // cluster FIFOs, state machine, cursors
    // Out FIFO: survivors are the window [granted, granted + out_count) of
    // the recorded sequence; in-span pushes exclude the span-start prefix.
    sl.out_fifo().reconcile_bulk(rep.out_seq.size() - rep.out0, p.granted,
                                 rep.out_peak, rep.out_seq.data() + p.granted,
                                 rep.out_count);
  }
  for (std::size_t i = 0; i < n_live_; ++i)
    if (!part_of[i]) slices_[i].skip_cycles(span);
  in_dma_.skip_cycles(span);
  collector_arb_.set_cursor(cursor);
  c.fifo_pops += writes_total + grants;  // DMA drains + collector grants
  c.fifo_pushes += grants;               // collector pushes into the DMAs
  c.xbar_beats += grants;
  c.cycles += span;
  c.idle_cycles += idle_count;
  if (prof_) {
    prof_->note_span(span);
    // Inert busy slices (countdowns ridden by skip_cycles) were busy for
    // every cycle of the span, steady blocks and replayed cycles alike.
    for (std::uint64_t m = inert_busy_mask; m != 0; m &= m - 1)
      prof_->slice_busy[static_cast<std::size_t>(std::countr_zero(m))] += span;
  }
  return span;
}

void SneEngine::collector_tick(hwsim::ActivityCounters& c) {
  // "a single DMA can provide significantly more bandwidth than required on
  // a single SL output port. Therefore, the collector arbitrates between the
  // SLs output ports and multiplexes them into a single event stream." With
  // several output DMAs configured, the collector issues one beat per DMA
  // per cycle (paper IV-A.3's bandwidth-scaling knob).
  //
  // The request mask mirrors the former per-port predicate (memory-routed
  // and output FIFO nonempty) over the precomputed slice list; grants are
  // identical, at two bit scans per DMA instead of a route-table walk.
  std::uint64_t request = 0;
  for (const auto i : mem_slices_) {
    if (i >= n_live_) break;  // ascending
    if (!slices_[i].out_fifo().empty()) request |= 1ull << i;
  }
  for (auto& dma : out_dmas_) {
    if (dma.fifo().full()) continue;
    const int granted = collector_arb_.grant_masked(request);
    if (granted < 0) return;
    auto& src = slices_[static_cast<std::size_t>(granted)].out_fifo();
    const event::Event e = src.pop();
    if (src.empty()) request &= ~(1ull << granted);
    c.fifo_pops++;
    const bool ok = dma.fifo().try_push(event::pack(e));
    SNE_ASSERT(ok);
    c.fifo_pushes++;
    c.xbar_beats++;
  }
}

}  // namespace sne::core
