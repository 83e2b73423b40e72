// Event stream container: an ordered sequence of SNE events plus the
// transformations the toolchain needs (time-major normal form, control-event
// insertion, activity statistics, DMA images).
//
// The execution model (paper Listing 1) requires the outermost loop to span
// the time dimension, so streams handed to the engine must be in time-major
// normal form: ordered by timestep and, within a timestep, RST < WLOAD <
// UPDATE < FIRE, equal keys in arrival order.
//
// Who sorts and who asserts:
//  * Untrusted or unordered producers call normalize(): event_io decode
//    (SNE1 files and request bodies), the engine's output image (its slices'
//    time-synchronization markers interleave with other slices' spikes of
//    the same timestep, and each output DMA writes its own region), the
//    runner's merge of a layer's rounds, and EventStream::merge. normalize()
//    is one stable counting pass over the key (t, op rank), O(n + T), and
//    returns at once on a stream already in normal form.
//  * Producers that emit in order by construction state it with a contract
//    (the synthetic generators, SNE_ENSURES(is_normalized())).
//    with_control_events() emits normal form by construction, in one linear
//    pass over a normal-form input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/contracts.h"
#include "event/event.h"

namespace sne::event {

/// Controls how FIRE_OP control events are scheduled when compiling a spike
/// stream into an engine-executable stream.
enum class FirePolicy : std::uint8_t {
  kActiveStepsOnly,  ///< FIRE only on timesteps with input activity (TLU path)
  kEveryStep,        ///< FIRE on every timestep (TLU-disabled ablation)
};

/// Geometry of the tensor an event stream addresses.
struct StreamGeometry {
  std::uint16_t channels = 1;
  std::uint8_t width = 1;
  std::uint8_t height = 1;
  std::uint16_t timesteps = 1;

  std::size_t sites() const {
    return static_cast<std::size_t>(channels) * width * height;
  }
  /// Total spatio-temporal volume (denominator of the activity metric).
  std::size_t volume() const { return sites() * timesteps; }
};

/// Ordered event sequence with geometry metadata.
class EventStream {
 public:
  EventStream() = default;
  explicit EventStream(StreamGeometry geom) : geom_(geom) {}

  const StreamGeometry& geometry() const { return geom_; }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  void clear() { events_.clear(); }
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Whether `e` lies inside the geometry: its timestep, and for an UPDATE
  /// also its address.
  bool in_geometry(const Event& e) const {
    if (e.t >= geom_.timesteps) return false;
    return e.op != Op::kUpdate || (e.ch < geom_.channels &&
                                   e.x < geom_.width && e.y < geom_.height);
  }

  /// Appends an event; it must lie inside the geometry.
  void push(const Event& e) {
    SNE_EXPECTS(in_geometry(e));
    events_.push_back(e);
  }

  void push_update(std::uint16_t t, std::uint16_t ch, std::uint8_t x,
                   std::uint8_t y) {
    push(Event::update(t, ch, x, y));
  }

  /// Number of UPDATE events (the paper's notion of "input activity" counts
  /// spikes, i.e. UPDATE events, not control events).
  std::size_t update_count() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const Event& e) { return e.op == Op::kUpdate; }));
  }

  /// Fraction of the spatio-temporal volume carrying a spike, in [0, 1].
  double activity() const {
    const std::size_t vol = geom_.volume();
    SNE_EXPECTS(vol > 0);
    return static_cast<double>(update_count()) / static_cast<double>(vol);
  }

  /// Brings the stream into time-major normal form: ordered by timestep and,
  /// within a timestep, RST < WLOAD < UPDATE < FIRE, so that a reset always
  /// precedes integration and firing concludes the step (paper section
  /// III-C). Events with equal keys keep their order, so the result is
  /// exactly what a stable sort on (t, op rank) gives. One counting pass over
  /// buckets spanning the stream's own key range: O(n + T). A stream already
  /// in normal form is detected in one linear scan and left alone.
  void normalize() {
    if (is_normalized()) return;
    // Bucket the stream's maximal runs of equal key, not single events:
    // out-of-form streams are mostly long in-form runs (a slice's spikes)
    // cut by a few stray events (other slices' markers), and each run then
    // moves as one block. Buckets span the keys the runs carry.
    struct Run {
      std::uint32_t key;
      std::uint32_t begin;
      std::uint32_t end;
    };
    std::vector<Run> runs;
    std::uint32_t lo = UINT32_MAX;
    std::uint32_t hi = 0;
    for (std::size_t i = 0; i < events_.size();) {
      const std::uint32_t key = order_key(events_[i]);
      std::size_t j = i + 1;
      while (j < events_.size() && order_key(events_[j]) == key) ++j;
      runs.push_back({key, static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j)});
      lo = std::min(lo, key);
      hi = std::max(hi, key);
      i = j;
    }
    std::vector<std::uint32_t> start(hi - lo + 2, 0);
    for (const Run& r : runs) ++start[r.key - lo + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<std::uint32_t> order(runs.size());
    for (std::uint32_t k = 0; k < runs.size(); ++k)
      order[start[runs[k].key - lo]++] = k;
    std::vector<Event> sorted;
    sorted.reserve(events_.size());
    for (const std::uint32_t k : order)
      sorted.insert(sorted.end(), events_.begin() + runs[k].begin,
                    events_.begin() + runs[k].end);
    events_.swap(sorted);
  }

  /// True if the stream is in time-major normal form.
  bool is_normalized() const {
    std::uint32_t prev = 0;
    for (const Event& e : events_) {
      const std::uint32_t key = order_key(e);
      if (key < prev) return false;
      prev = key;
    }
    return true;
  }

  /// Inserts one RST at t=0 and FIRE control events, producing the full
  /// control-flow-annotated stream the engine consumes (Listing 1 semantics:
  /// state resets at inference start; each timestep concludes with a
  /// threshold scan). Only the input's UPDATE events are kept.
  ///
  /// With FirePolicy::kActiveStepsOnly, FIREs are emitted only for timesteps
  /// that carry at least one UPDATE event. This is sound whenever the firing
  /// threshold is non-negative: a LIF membrane without input can only decay,
  /// so a silent timestep can never create a spike. Together with the TLU
  /// one-shot leak catch-up this "compresses long intervals of sparse input
  /// activity into dense computational phases" (paper section II) and is the
  /// stream-level half of SNE's energy proportionality. FIREs are only ever
  /// emitted for timesteps inside the geometry.
  ///
  /// `initial_reset = false` omits the leading RST: the continuation form
  /// for streaming sessions, where the engine's neuron state carries over
  /// from the previous chunk and must not be wiped at the chunk boundary
  /// (serve::StreamingSession resets only in its first chunk).
  ///
  /// The result is in normal form by construction: one linear pass emits
  /// each timestep's FIRE right after that timestep's UPDATEs. An input not
  /// in normal form is normalized first (into a copy) and then takes the
  /// same pass.
  EventStream with_control_events(
      FirePolicy policy = FirePolicy::kActiveStepsOnly,
      bool initial_reset = true) const {
    if (!is_normalized()) {
      EventStream sorted = *this;
      sorted.normalize();
      return sorted.with_control_events(policy, initial_reset);
    }
    const bool every_step = policy == FirePolicy::kEveryStep;
    const std::uint32_t steps = geom_.timesteps;
    EventStream out(geom_);
    out.reserve(events_.size() + steps + 1);
    if (initial_reset) out.events_.push_back(Event::reset(0));
    std::uint32_t next_fire = 0;  // kEveryStep: first step not yet fired
    const auto fire_before = [&](std::uint32_t end) {
      for (; next_fire < std::min(end, steps); ++next_fire)
        out.events_.push_back(
            Event::fire(static_cast<std::uint16_t>(next_fire)));
    };
    for (std::size_t i = 0; i < events_.size();) {
      const std::uint16_t t = events_[i].t;
      if (every_step) fire_before(t);
      bool active = false;
      for (; i < events_.size() && events_[i].t == t; ++i)
        if (events_[i].op == Op::kUpdate) {
          out.events_.push_back(events_[i]);
          active = true;
        }
      if (t < steps && (active || every_step)) {
        out.events_.push_back(Event::fire(t));
        next_fire = t + 1u;
      }
    }
    if (every_step) fire_before(steps);
    return out;
  }

  /// Packs the stream into its linear 32-bit memory image (DMA layout).
  std::vector<Beat> to_beats() const {
    std::vector<Beat> beats;
    beats.reserve(events_.size());
    for (const Event& e : events_) beats.push_back(pack(e));
    return beats;
  }

  /// Parses a linear memory image back into a stream.
  static EventStream from_beats(const std::vector<Beat>& beats,
                                StreamGeometry geom) {
    EventStream s(geom);
    s.reserve(beats.size());
    for (Beat b : beats) s.events_.push_back(unpack(b));
    return s;
  }

  /// Merges two streams (e.g. outputs of parallel slices) and re-normalizes.
  static EventStream merge(const EventStream& a, const EventStream& b) {
    SNE_EXPECTS(a.geom_.timesteps == b.geom_.timesteps);
    EventStream out(a.geom_);
    out.geom_.channels = std::max(a.geom_.channels, b.geom_.channels);
    out.geom_.width = std::max(a.geom_.width, b.geom_.width);
    out.geom_.height = std::max(a.geom_.height, b.geom_.height);
    out.events_ = a.events_;
    out.events_.insert(out.events_.end(), b.events_.begin(), b.events_.end());
    out.normalize();
    return out;
  }

  bool operator==(const EventStream& other) const {
    return events_ == other.events_;
  }

 private:
  /// Normal-form sort key: timestep, then op rank RST < WLOAD < UPDATE <
  /// FIRE. The ranks of the op codes kReset, kUpdate, kFire, kWeight (0..3)
  /// are packed two bits each into one constant: 0, 2, 3, 1.
  static std::uint32_t order_key(const Event& e) {
    constexpr std::uint32_t kRanks = 0 | 2u << 2 | 3u << 4 | 1u << 6;
    const unsigned op = static_cast<unsigned>(e.op) & 3u;
    return std::uint32_t{e.t} << 2 | (kRanks >> (2 * op) & 3u);
  }

  StreamGeometry geom_;
  std::vector<Event> events_;
};

}  // namespace sne::event
