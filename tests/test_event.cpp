// Event format and stream container tests (paper Fig. 1 + section III-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "event/event.h"
#include "event/event_io.h"
#include "event/event_stream.h"

namespace sne::event {
namespace {

TEST(EventFormat, FieldLayoutIs32Bits) {
  EXPECT_EQ(kOpShift + kOpBits, 32);
  EXPECT_EQ(kMaxX, 127u);
  EXPECT_EQ(kMaxY, 127u);
  EXPECT_EQ(kMaxCh, 255u);
  EXPECT_EQ(kMaxTime, 255u);
}

TEST(EventFormat, PackUnpackRoundTrip) {
  const Event e = Event::update(200, 255, 127, 127);
  EXPECT_EQ(unpack(pack(e)), e);
  const Event r = Event::reset(0);
  EXPECT_EQ(unpack(pack(r)), r);
  const Event f = Event::fire(99);
  EXPECT_EQ(unpack(pack(f)), f);
}

TEST(EventFormat, RandomizedRoundTrip) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    Event e;
    e.op = static_cast<Op>(rng.uniform_int(0, 3));
    e.t = static_cast<std::uint16_t>(rng.uniform_int(0, kMaxTime));
    e.ch = static_cast<std::uint16_t>(rng.uniform_int(0, kMaxCh));
    e.x = static_cast<std::uint8_t>(rng.uniform_int(0, kMaxX));
    e.y = static_cast<std::uint8_t>(rng.uniform_int(0, kMaxY));
    EXPECT_EQ(unpack(pack(e)), e);
  }
}

TEST(EventFormat, EveryBeatDecodes) {
  // Total decoder: no 32-bit pattern traps.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Beat b = static_cast<Beat>(rng.next());
    const Event e = unpack(b);
    EXPECT_LE(e.t, kMaxTime);
    EXPECT_LE(static_cast<std::uint32_t>(e.x), kMaxX);
  }
}

TEST(EventFormat, PackRejectsOutOfRange) {
  Event e = Event::update(0, 0, 0, 0);
  e.t = 300;
  EXPECT_THROW(pack(e), ContractViolation);
}

TEST(EventFormat, WeightBeatRoundTrip) {
  const std::int8_t w[8] = {-8, -1, 0, 1, 7, -5, 3, -2};
  const Beat b = pack_weights(w);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(unpack_weight(b, i), w[i]);
}

TEST(EventFormat, WeightHeaderRoundTrip) {
  WeightHeader h{37, 5, 9};
  const WeightHeader r = unpack_weight_header(pack(h));
  EXPECT_EQ(r.set_index, h.set_index);
  EXPECT_EQ(r.group_offset, h.group_offset);
  EXPECT_EQ(r.payload_beats, h.payload_beats);
}

TEST(EventStreamTest, ActivityMetric) {
  EventStream s(StreamGeometry{2, 4, 4, 10});
  // volume = 2*4*4*10 = 320
  for (int i = 0; i < 32; ++i)
    s.push_update(static_cast<std::uint16_t>(i % 10), 0,
                  static_cast<std::uint8_t>(i % 4), 1);
  EXPECT_DOUBLE_EQ(s.activity(), 0.1);
  EXPECT_EQ(s.update_count(), 32u);
}

TEST(EventStreamTest, NormalizeOrdersTimeMajorWithOpRank) {
  EventStream s(StreamGeometry{1, 4, 4, 4});
  s.push(Event::fire(1));
  s.push(Event::update(1, 0, 2, 2));
  s.push(Event::update(0, 0, 1, 1));
  s.push(Event::reset(0));
  s.normalize();
  EXPECT_TRUE(s.is_normalized());
  EXPECT_EQ(s.events()[0].op, Op::kReset);
  EXPECT_EQ(s.events()[1].op, Op::kUpdate);
  EXPECT_EQ(s.events()[1].t, 0);
  EXPECT_EQ(s.events()[2].op, Op::kUpdate);
  EXPECT_EQ(s.events()[3].op, Op::kFire);
}

TEST(EventStreamTest, ControlEventsActiveStepsOnly) {
  EventStream s(StreamGeometry{1, 4, 4, 10});
  s.push_update(2, 0, 1, 1);
  s.push_update(7, 0, 2, 2);
  const EventStream c = s.with_control_events(FirePolicy::kActiveStepsOnly);
  std::size_t fires = 0, resets = 0;
  for (const Event& e : c.events()) {
    if (e.op == Op::kFire) ++fires;
    if (e.op == Op::kReset) ++resets;
  }
  EXPECT_EQ(fires, 2u);  // only steps 2 and 7
  EXPECT_EQ(resets, 1u);
}

TEST(EventStreamTest, ControlEventsEveryStep) {
  EventStream s(StreamGeometry{1, 4, 4, 10});
  s.push_update(2, 0, 1, 1);
  const EventStream c = s.with_control_events(FirePolicy::kEveryStep);
  std::size_t fires = 0;
  for (const Event& e : c.events())
    if (e.op == Op::kFire) ++fires;
  EXPECT_EQ(fires, 10u);
}

TEST(EventStreamTest, BeatsRoundTrip) {
  EventStream s(StreamGeometry{2, 8, 8, 4});
  s.push_update(0, 1, 3, 4);
  s.push_update(3, 0, 7, 7);
  const auto beats = s.to_beats();
  const EventStream r = EventStream::from_beats(beats, s.geometry());
  EXPECT_EQ(r, s);
}

TEST(EventStreamTest, PushEnforcesGeometry) {
  EventStream s(StreamGeometry{1, 4, 4, 4});
  EXPECT_THROW(s.push_update(0, 1, 0, 0), ContractViolation);  // ch out of range
  EXPECT_THROW(s.push_update(0, 0, 4, 0), ContractViolation);  // x out of range
  EXPECT_THROW(s.push_update(4, 0, 0, 0), ContractViolation);  // t out of range
}

TEST(EventStreamTest, MergePreservesEventsAndNormalizes) {
  EventStream a(StreamGeometry{1, 4, 4, 4});
  a.push_update(1, 0, 1, 1);
  EventStream b(StreamGeometry{1, 4, 4, 4});
  b.push_update(0, 0, 2, 2);
  const EventStream m = EventStream::merge(a, b);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.is_normalized());
  EXPECT_EQ(m.events()[0].t, 0);
}

// Differential oracles: the append-then-stable-sort implementations that
// normalize() and with_control_events() replaced. The library's versions
// must reproduce their output event for event.
int ref_rank(Op op) {
  switch (op) {
    case Op::kReset: return 0;
    case Op::kWeight: return 1;
    case Op::kUpdate: return 2;
    case Op::kFire: return 3;
  }
  return 4;
}

std::vector<Event> ref_normalize(std::vector<Event> v) {
  std::stable_sort(v.begin(), v.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return ref_rank(a.op) < ref_rank(b.op);
  });
  return v;
}

std::vector<Event> ref_with_control_events(const EventStream& in,
                                           FirePolicy policy,
                                           bool initial_reset) {
  const std::uint16_t steps = in.geometry().timesteps;
  std::vector<Event> out;
  if (initial_reset) out.push_back(Event::reset(0));
  std::vector<bool> active(steps, false);
  for (const Event& e : in.events())
    if (e.op == Op::kUpdate) {
      out.push_back(e);
      active[e.t] = true;
    }
  for (std::uint16_t t = 0; t < steps; ++t)
    if (policy == FirePolicy::kEveryStep || active[t])
      out.push_back(Event::fire(t));
  return ref_normalize(std::move(out));
}

// Every event is distinct: (ch, x) carries its draw index, so any reordering
// of equal (t, op) keys shows up as a mismatch.
constexpr StreamGeometry kTagged{256, 128, 1, 1};

EventStream random_events(Rng& rng, std::uint16_t timesteps, std::size_t n,
                          std::uint16_t t_lo, std::uint16_t t_hi,
                          bool updates_only) {
  StreamGeometry g = kTagged;
  g.timesteps = timesteps;
  EventStream s(g);
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.op = updates_only ? Op::kUpdate : static_cast<Op>(rng.uniform_int(0, 3));
    e.t = static_cast<std::uint16_t>(rng.uniform_int(t_lo, t_hi));
    e.ch = static_cast<std::uint16_t>(i & 0xFF);
    e.x = static_cast<std::uint8_t>(i >> 8);
    s.push(e);
  }
  return s;
}

EventStream from_events(std::uint16_t timesteps, const std::vector<Event>& v) {
  StreamGeometry g = kTagged;
  g.timesteps = timesteps;
  EventStream s(g);
  for (const Event& e : v) s.push(e);
  return s;
}

void expect_normalize_matches_reference(const EventStream& in) {
  const std::vector<Event> want = ref_normalize(in.events());
  EventStream got = in;
  got.normalize();
  EXPECT_TRUE(got.is_normalized());
  EXPECT_EQ(got.events(), want);
  EXPECT_EQ(in.is_normalized(), in.events() == want);
}

TEST(EventStreamDifferential, NormalizeMatchesStableSort) {
  Rng rng(2801);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 600));
    // Narrow ranges force many (t, op) ties; wide ones spread the buckets.
    const std::uint16_t span =
        static_cast<std::uint16_t>(rng.uniform_int(0, 1) ? 3 : 255);
    const EventStream s = random_events(rng, 256, n, 0, span, false);
    SCOPED_TRACE("rep " + std::to_string(rep));
    expect_normalize_matches_reference(s);
    // Already sorted, and reverse-sorted.
    const std::vector<Event> sorted = ref_normalize(s.events());
    expect_normalize_matches_reference(from_events(256, sorted));
    expect_normalize_matches_reference(
        from_events(256, {sorted.rbegin(), sorted.rend()}));
    // Long in-form runs of spikes cut by stray markers of the same timestep:
    // the shape of a multi-slice engine output image.
    std::vector<Event> cut =
        ref_normalize(random_events(rng, 256, n, 0, span, true).events());
    for (int k = 0; k < 12 && !cut.empty(); ++k) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cut.size()) - 1));
      const std::uint16_t t = cut[at].t;
      cut.insert(cut.begin() + static_cast<std::ptrdiff_t>(at),
                 k % 3 == 0 ? Event::reset(t) : Event::fire(t));
    }
    expect_normalize_matches_reference(from_events(256, cut));
  }
}

TEST(EventStreamDifferential, NormalizeSingleStepAndSixteenBitTimes) {
  Rng rng(2802);
  // One timestep: only the op rank orders, all four ops tied in bulk.
  expect_normalize_matches_reference(
      random_events(rng, 256, 400, 42, 42, false));
  expect_normalize_matches_reference(random_events(rng, 1, 50, 0, 0, false));
  // Timesteps across the whole 16-bit geometry range, a narrow band at its
  // top (the buckets start at the stream's first timestep, not at 0), and
  // the two extremes alone.
  expect_normalize_matches_reference(
      random_events(rng, 0xFFFF, 500, 0, 0xFFFE, false));
  expect_normalize_matches_reference(
      random_events(rng, 0xFFFF, 500, 0xFFF0, 0xFFFE, false));
  expect_normalize_matches_reference(from_events(
      0xFFFF, {Event::fire(0xFFFE), Event::update(0xFFFE, 1, 1, 0),
               Event::fire(0), Event::update(0, 2, 2, 0), Event::reset(0xFFFE),
               Event::reset(0)}));
  expect_normalize_matches_reference(from_events(256, {}));
  expect_normalize_matches_reference(from_events(256, {Event::fire(7)}));
}

TEST(EventStreamDifferential, ControlEventsMatchAppendThenSort) {
  Rng rng(2803);
  for (int rep = 0; rep < 60; ++rep) {
    const std::uint16_t steps =
        static_cast<std::uint16_t>(rng.uniform_int(1, 40));
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    // Sparse draws leave silent steps; updates-only and mixed-op inputs
    // (inputs that already carry RST/FIRE/WLOAD events) alternate.
    const bool updates_only = rep % 2 == 0;
    const EventStream unsorted =
        random_events(rng, steps, n, 0, steps - 1, updates_only);
    const EventStream sorted =
        from_events(steps, ref_normalize(unsorted.events()));
    for (const EventStream* in : {&unsorted, &sorted})
      for (FirePolicy policy :
           {FirePolicy::kActiveStepsOnly, FirePolicy::kEveryStep})
        for (bool initial_reset : {true, false}) {
          SCOPED_TRACE("rep " + std::to_string(rep) + " sorted " +
                       std::to_string(in == &sorted) + " every " +
                       std::to_string(policy == FirePolicy::kEveryStep) +
                       " reset " + std::to_string(initial_reset));
          const EventStream got =
              in->with_control_events(policy, initial_reset);
          EXPECT_TRUE(got.is_normalized());
          EXPECT_EQ(got.events(),
                    ref_with_control_events(*in, policy, initial_reset));
          EXPECT_EQ(got.geometry().timesteps, steps);
        }
  }
}

TEST(EventIo, FileRoundTrip) {
  EventStream s(StreamGeometry{2, 16, 16, 8});
  Rng rng(5);
  for (int i = 0; i < 100; ++i)
    s.push_update(static_cast<std::uint16_t>(rng.uniform_int(0, 7)),
                  static_cast<std::uint16_t>(rng.uniform_int(0, 1)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 15)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 15)));
  s.normalize();
  const std::string path = "/tmp/sne_stream_test.bin";
  save_stream(s, path);
  const EventStream r = load_stream(path);
  EXPECT_EQ(r, s);
  EXPECT_EQ(r.geometry().channels, 2);
  EXPECT_EQ(r.geometry().timesteps, 8);
  std::remove(path.c_str());
}

TEST(EventIo, RejectsBadMagic) {
  const std::string path = "/tmp/sne_bad_magic.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint32_t junk = 0xDEADBEEF;
    f.write(reinterpret_cast<const char*>(&junk), 4);
  }
  EXPECT_THROW(load_stream(path), ConfigError);
  std::remove(path.c_str());
}

TEST(EventIo, RejectsTruncatedAndOverlongFiles) {
  EventStream s(StreamGeometry{1, 8, 8, 4});
  Rng rng(9);
  for (int i = 0; i < 20; ++i)
    s.push_update(static_cast<std::uint16_t>(rng.uniform_int(0, 3)), 0,
                  static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 7)));
  s.normalize();
  const std::string path = "/tmp/sne_stream_corrupt.bin";
  save_stream(s, path);
  std::string good;
  {
    std::ifstream f(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(f),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(good.size(), (6 + s.size()) * 4);

  const auto rewrite = [&path](const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  // Any truncation — mid-header, at the count word, mid-beats, or one word
  // short — must throw instead of yielding a partial stream.
  for (const std::size_t cut :
       {std::size_t{2}, std::size_t{12}, std::size_t{23}, good.size() / 2,
        good.size() - 4, good.size() - 1}) {
    rewrite(good.substr(0, cut));
    EXPECT_THROW(load_stream(path), ConfigError) << "cut at " << cut;
  }
  // Trailing bytes (e.g. two concatenated recordings) are rejected too.
  rewrite(good + std::string(4, '\7'));
  EXPECT_THROW(load_stream(path), ConfigError);
  rewrite(good + std::string(1, '\0'));
  EXPECT_THROW(load_stream(path), ConfigError);
  // The pristine bytes still round-trip.
  rewrite(good);
  EXPECT_EQ(load_stream(path), s);
  std::remove(path.c_str());
}

// --- SNE1 decode: geometry checks and seeded mutation ------------------------

/// Raw SNE1 blob from header words and beats, so tests can write headers and
/// events encode_stream never would.
std::string sne1_blob(std::uint32_t channels, std::uint32_t width,
                      std::uint32_t height, std::uint32_t timesteps,
                      const std::vector<Beat>& beats) {
  std::string out;
  const auto put = [&out](std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const std::uint32_t v :
       {kStreamFileMagic, channels, width, height, timesteps,
        static_cast<std::uint32_t>(beats.size())})
    put(v);
  for (const Beat b : beats) put(b);
  return out;
}

EventStream decode(const std::string& blob) {
  return decode_stream(blob.data(), blob.size());
}

TEST(EventIo, DecodeRoundTripsAnInGeometryStream) {
  // Every op, the geometry's last timestep and its far corner.
  EventStream s(StreamGeometry{3, 5, 7, 4});
  s.push(Event::reset(0));
  s.push_update(0, 2, 4, 6);
  s.push(Event::fire(0));
  s.push(Event{Op::kWeight, 1, 0, 0, 0});
  s.push_update(3, 0, 0, 0);
  s.push_update(3, 2, 4, 6);
  s.push(Event::fire(3));
  const EventStream r = decode(encode_stream(s));
  EXPECT_EQ(r, s);
  EXPECT_EQ(r.geometry().channels, 3);
  EXPECT_EQ(r.geometry().width, 5);
  EXPECT_EQ(r.geometry().height, 7);
  EXPECT_EQ(r.geometry().timesteps, 4);
}

TEST(EventIo, DecodeRejectsAnUpdatePastTheTimesteps) {
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 4, {pack(Event::update(4, 0, 0, 0))})),
               ConfigError);
  EXPECT_NO_THROW(decode(sne1_blob(1, 4, 4, 5, {pack(Event::update(4, 0, 0, 0))})));
}

TEST(EventIo, DecodeRejectsAMarkerPastTheTimesteps) {
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 4, {pack(Event::fire(4))})),
               ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 4, {pack(Event::reset(200))})),
               ConfigError);
}

TEST(EventIo, DecodeRejectsAnUpdateChannelOutsideTheGeometry) {
  EXPECT_THROW(decode(sne1_blob(2, 4, 4, 4, {pack(Event::update(0, 2, 0, 0))})),
               ConfigError);
}

TEST(EventIo, DecodeRejectsAnUpdateXOutsideTheGeometry) {
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 4, {pack(Event::update(0, 0, 4, 0))})),
               ConfigError);
}

TEST(EventIo, DecodeRejectsAnUpdateYOutsideTheGeometry) {
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 4, {pack(Event::update(0, 0, 0, 4))})),
               ConfigError);
}

TEST(EventIo, DecodeRejectsAZeroDimension) {
  const std::vector<Beat> none;
  EXPECT_THROW(decode(sne1_blob(0, 4, 4, 4, none)), ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 0, 4, 4, none)), ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 4, 0, 4, none)), ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 0, none)), ConfigError);
  EXPECT_NO_THROW(decode(sne1_blob(1, 1, 1, 1, none)));
}

TEST(EventIo, DecodeRejectsAHeaderWordTooWideForItsField) {
  // 0x10001 would wrap to a 16-bit 1 and 0x101 to an 8-bit 1.
  const std::vector<Beat> none;
  EXPECT_THROW(decode(sne1_blob(0x10001, 4, 4, 4, none)), ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 0x101, 4, 4, none)), ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 4, 0x101, 4, none)), ConfigError);
  EXPECT_THROW(decode(sne1_blob(1, 4, 4, 0x10001, none)), ConfigError);
  EXPECT_NO_THROW(decode(sne1_blob(0xFFFF, 0xFF, 0xFF, 0xFFFF, none)));
}

TEST(EventIo, LoadStreamRejectsWhatDecodeRejects) {
  const std::string path = "/tmp/sne_stream_geometry.bin";
  {
    const std::string blob =
        sne1_blob(1, 4, 4, 4, {pack(Event::update(4, 0, 0, 0))});
    std::ofstream f(path, std::ios::binary);
    f.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  EXPECT_THROW(load_stream(path), ConfigError);
  std::remove(path.c_str());
}

/// In-geometry stream of every op, timesteps in [0, steps), in random order.
EventStream random_any_op_stream(StreamGeometry g, std::size_t n, Rng& rng) {
  EventStream s(g);
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.op = static_cast<Op>(rng.uniform_int(0, 3));
    e.t = static_cast<std::uint16_t>(rng.uniform_int(0, g.timesteps - 1));
    if (e.op == Op::kUpdate) {
      e.ch = static_cast<std::uint16_t>(rng.uniform_int(0, g.channels - 1));
      e.x = static_cast<std::uint8_t>(rng.uniform_int(0, g.width - 1));
      e.y = static_cast<std::uint8_t>(rng.uniform_int(0, g.height - 1));
    }
    s.push(e);
  }
  return s;
}

TEST(EventIo, SeededMutationsDecodeCleanlyOrThrowConfigError) {
  // Every mutated blob either throws ConfigError or decodes to a stream in
  // normal form, inside its (nonzero) geometry, that survives an
  // encode/decode round trip unchanged. Anything else (another exception, a
  // sanitizer report) fails the test.
  Rng rng(0x5E1);
  std::vector<std::string> seeds;
  for (const StreamGeometry g :
       {StreamGeometry{1, 4, 4, 4}, StreamGeometry{2, 16, 16, 8},
        StreamGeometry{3, 8, 5, 200}}) {
    seeds.push_back(encode_stream(random_any_op_stream(g, 0, rng)));
    seeds.push_back(encode_stream(random_any_op_stream(g, 40, rng)));
  }
  constexpr std::size_t kCountOffset = 5 * sizeof(std::uint32_t);
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 6000; ++i) {
    std::string blob = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const auto byte_at = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(blob.size()) - 1));
    };
    const int kind = i % 5;
    if (kind == 0) {  // bit flips
      for (auto k = rng.uniform_int(1, 3); k > 0; --k)
        blob[byte_at()] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
    } else if (kind == 1) {  // byte overwrites
      for (auto k = rng.uniform_int(1, 4); k > 0; --k)
        blob[byte_at()] = static_cast<char>(rng.uniform_int(0, 255));
    } else if (kind == 2) {  // truncation
      blob.resize(byte_at());
    } else if (kind == 3) {  // appended bytes
      for (auto k = rng.uniform_int(1, 8); k > 0; --k)
        blob.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    } else {  // count-field edit: off by a few words, or any value
      std::uint32_t count = 0;
      std::memcpy(&count, blob.data() + kCountOffset, sizeof count);
      count = rng.bernoulli(0.5)
                  ? count + static_cast<std::uint32_t>(rng.uniform_int(-3, 3))
                  : static_cast<std::uint32_t>(rng.next());
      std::memcpy(blob.data() + kCountOffset, &count, sizeof count);
    }
    EventStream s(StreamGeometry{});
    try {
      s = decode(blob);
    } catch (const ConfigError&) {
      ++rejected;
      continue;
    }
    ++accepted;
    const StreamGeometry& g = s.geometry();
    ASSERT_TRUE(g.channels > 0 && g.width > 0 && g.height > 0 &&
                g.timesteps > 0)
        << "mutation " << i;
    ASSERT_TRUE(s.is_normalized()) << "mutation " << i;
    for (const Event& e : s.events())
      ASSERT_TRUE(s.in_geometry(e)) << "mutation " << i;
    const EventStream again = decode(encode_stream(s));
    ASSERT_EQ(again, s) << "mutation " << i;
    ASSERT_EQ(again.geometry().channels, g.channels);
    ASSERT_EQ(again.geometry().width, g.width);
    ASSERT_EQ(again.geometry().height, g.height);
    ASSERT_EQ(again.geometry().timesteps, g.timesteps);
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace sne::event
