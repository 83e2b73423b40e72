#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.h"

namespace sne::data {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Emits `count` events Poisson-scattered around (cx, cy) on channel `ch`.
void scatter(event::EventStream& s, Rng& rng, double cx, double cy,
             std::uint32_t count, std::uint16_t ch, std::uint16_t t,
             double sigma) {
  const auto& g = s.geometry();
  for (std::uint32_t i = 0; i < count; ++i) {
    const int x = static_cast<int>(std::lround(cx + rng.normal(0.0, sigma)));
    const int y = static_cast<int>(std::lround(cy + rng.normal(0.0, sigma)));
    if (x < 0 || y < 0 || x >= g.width || y >= g.height) continue;
    s.push_update(t, ch, static_cast<std::uint8_t>(x),
                  static_cast<std::uint8_t>(y));
  }
}

void background_noise(event::EventStream& s, Rng& rng, double rate,
                      std::uint16_t t) {
  const auto& g = s.geometry();
  const std::uint32_t n = rng.poisson(rate);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.push_update(t,
                  static_cast<std::uint16_t>(rng.uniform_int(0, g.channels - 1)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, g.width - 1)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, g.height - 1)));
  }
}

/// Class-specific blob trajectory for the gesture vocabulary. Returns the
/// positions of one or two blobs at phase u in [0, 1).
struct BlobState {
  double x0, y0;
  double x1, y1;
  bool two_blobs;
};

BlobState gesture_trajectory(std::uint16_t label, double u, double w, double h) {
  const double cx = w / 2.0, cy = h / 2.0;
  const double r = 0.30 * std::min(w, h);
  BlobState b{cx, cy, cx, cy, false};
  switch (label % 11) {
    case 0:  // hand clap: two blobs converge and diverge horizontally
      b.two_blobs = true;
      b.x0 = cx - r * std::fabs(std::cos(2.0 * kPi * u));
      b.x1 = cx + r * std::fabs(std::cos(2.0 * kPi * u));
      b.y0 = b.y1 = cy;
      break;
    case 1:  // right hand wave: horizontal oscillation, upper half
      b.x0 = cx + r * std::sin(4.0 * kPi * u);
      b.y0 = cy - 0.5 * r;
      break;
    case 2:  // left hand wave: horizontal oscillation, lower half, phase lag
      b.x0 = cx + r * std::sin(4.0 * kPi * u + kPi / 2);
      b.y0 = cy + 0.5 * r;
      break;
    case 3:  // right arm roll: clockwise circle, anchored right of center
      b.x0 = cx + 0.12 * w + 0.8 * r * std::cos(2.0 * kPi * u);
      b.y0 = cy + 0.8 * r * std::sin(2.0 * kPi * u);
      break;
    case 4:  // left arm roll: counter-clockwise circle, anchored left
      b.x0 = cx - 0.12 * w + 0.8 * r * std::cos(-2.0 * kPi * u);
      b.y0 = cy + 0.8 * r * std::sin(-2.0 * kPi * u);
      break;
    case 5:  // air drums: fast vertical oscillation, two blobs in phase opp.
      b.two_blobs = true;
      b.x0 = cx - 0.7 * r;
      b.x1 = cx + 0.7 * r;
      b.y0 = cy + r * std::sin(6.0 * kPi * u);
      b.y1 = cy - r * std::sin(6.0 * kPi * u);
      break;
    case 6:  // air guitar: diagonal strum
      b.x0 = cx + r * std::sin(4.0 * kPi * u) * 0.7;
      b.y0 = cy + r * std::sin(4.0 * kPi * u) * 0.7;
      break;
    case 7:  // forearm roll forward: small fast circle, offset up
      b.x0 = cx + 0.5 * r * std::cos(4.0 * kPi * u);
      b.y0 = cy - 0.5 * r + 0.5 * r * std::sin(4.0 * kPi * u);
      break;
    case 8:  // forearm roll backward: small fast circle, reversed, offset down
      b.x0 = cx + 0.5 * r * std::cos(-4.0 * kPi * u);
      b.y0 = cy + 0.5 * r + 0.5 * r * std::sin(-4.0 * kPi * u);
      break;
    case 9:  // lateral arm swing: slow full-width sweep
      b.x0 = (0.15 + 0.7 * u) * w;
      b.y0 = cy;
      break;
    default:  // class 10, "other": figure-eight
      b.x0 = cx + r * std::sin(2.0 * kPi * u);
      b.y0 = cy + r * std::sin(4.0 * kPi * u);
      break;
  }
  return b;
}

}  // namespace

DatasetSplit Dataset::split(double train_frac, double val_frac,
                            std::uint64_t seed) const {
  SNE_EXPECTS(train_frac > 0 && val_frac >= 0 && train_frac + val_frac < 1.0);
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  const std::size_t n_train = static_cast<std::size_t>(train_frac * static_cast<double>(order.size()));
  const std::size_t n_val = static_cast<std::size_t>(val_frac * static_cast<double>(order.size()));
  DatasetSplit sp;
  sp.train.geometry = sp.val.geometry = sp.test.geometry = geometry;
  sp.train.classes = sp.val.classes = sp.test.classes = classes;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Dataset& dst = i < n_train ? sp.train
                   : i < n_train + n_val ? sp.val
                                         : sp.test;
    dst.samples.push_back(samples[order[i]]);
  }
  return sp;
}

double Dataset::mean_activity() const {
  if (samples.empty()) return 0.0;
  double acc = 0.0;
  for (const Sample& s : samples) acc += s.stream.activity();
  return acc / static_cast<double>(samples.size());
}

event::EventStream random_stream(event::StreamGeometry g, double activity,
                                 std::uint64_t seed) {
  SNE_EXPECTS(activity >= 0.0 && activity <= 1.0);
  Rng rng(seed);
  event::EventStream s(g);
  for (std::uint16_t t = 0; t < g.timesteps; ++t)
    for (std::uint16_t ch = 0; ch < g.channels; ++ch)
      for (std::uint16_t y = 0; y < g.height; ++y)
        for (std::uint16_t x = 0; x < g.width; ++x)
          if (rng.bernoulli(activity))
            s.push_update(t, ch, static_cast<std::uint8_t>(x),
                          static_cast<std::uint8_t>(y));
  SNE_ENSURES(s.is_normalized());
  return s;
}

Dataset make_gesture_dataset(const GestureConfig& cfg) {
  Dataset d;
  d.geometry = event::StreamGeometry{2, cfg.width, cfg.height, cfg.timesteps};
  d.classes = cfg.classes;
  Rng master(cfg.seed);
  const double sigma = 0.06 * std::min(cfg.width, cfg.height);
  for (std::uint16_t label = 0; label < cfg.classes; ++label) {
    for (std::uint16_t k = 0; k < cfg.samples_per_class; ++k) {
      Rng rng = master.fork(static_cast<std::uint64_t>(label) * 10007u + k);
      Sample sample;
      sample.label = label;
      sample.stream = event::EventStream(d.geometry);
      const double speed_jit = rng.uniform(0.85, 1.15);
      const double phase = rng.uniform(0.0, 0.2);
      BlobState prev = gesture_trajectory(label, phase, cfg.width, cfg.height);
      for (std::uint16_t t = 0; t < cfg.timesteps; ++t) {
        const double u =
            phase + speed_jit * static_cast<double>(t) / cfg.timesteps;
        const BlobState cur =
            gesture_trajectory(label, u, cfg.width, cfg.height);
        // Leading edge -> ON events (ch 0) at the new position; trailing
        // edge -> OFF events (ch 1) at the previous position.
        scatter(sample.stream, rng, cur.x0, cur.y0,
                rng.poisson(cfg.blob_rate), 0, t, sigma);
        scatter(sample.stream, rng, prev.x0, prev.y0,
                rng.poisson(cfg.blob_rate * 0.8), 1, t, sigma);
        if (cur.two_blobs) {
          scatter(sample.stream, rng, cur.x1, cur.y1,
                  rng.poisson(cfg.blob_rate), 0, t, sigma);
          scatter(sample.stream, rng, prev.x1, prev.y1,
                  rng.poisson(cfg.blob_rate * 0.8), 1, t, sigma);
        }
        background_noise(sample.stream, rng, cfg.noise_rate, t);
        prev = cur;
      }
      SNE_ENSURES(sample.stream.is_normalized());  // emitted step by step
      d.samples.push_back(std::move(sample));
    }
  }
  return d;
}

namespace {

/// 5x7 digit glyphs (classic seven-segment-ish bitmap font), row-major.
const char* const kDigitGlyphs[10] = {
    "01110"
    "10001"
    "10011"
    "10101"
    "11001"
    "10001"
    "01110",  // 0
    "00100"
    "01100"
    "00100"
    "00100"
    "00100"
    "00100"
    "01110",  // 1
    "01110"
    "10001"
    "00001"
    "00110"
    "01000"
    "10000"
    "11111",  // 2
    "01110"
    "10001"
    "00001"
    "00110"
    "00001"
    "10001"
    "01110",  // 3
    "00010"
    "00110"
    "01010"
    "10010"
    "11111"
    "00010"
    "00010",  // 4
    "11111"
    "10000"
    "11110"
    "00001"
    "00001"
    "10001"
    "01110",  // 5
    "01110"
    "10000"
    "11110"
    "10001"
    "10001"
    "10001"
    "01110",  // 6
    "11111"
    "00001"
    "00010"
    "00100"
    "01000"
    "01000"
    "01000",  // 7
    "01110"
    "10001"
    "10001"
    "01110"
    "10001"
    "10001"
    "01110",  // 8
    "01110"
    "10001"
    "10001"
    "01111"
    "00001"
    "00001"
    "01110",  // 9
};

/// N-MNIST's three saccades: the sensor moves along a triangle; each leg
/// lasts a third of the record. Returns the glyph offset at phase u.
void saccade_offset(double u, double amp, double& dx, double& dy) {
  const double leg = std::fmod(u, 1.0) * 3.0;
  if (leg < 1.0) {
    dx = amp * leg;
    dy = 0.0;
  } else if (leg < 2.0) {
    dx = amp * (2.0 - leg);
    dy = amp * (leg - 1.0);
  } else {
    dx = 0.0;
    dy = amp * (3.0 - leg);
  }
}

}  // namespace

Dataset make_nmnist_dataset(const NmnistConfig& cfg) {
  Dataset d;
  d.geometry = event::StreamGeometry{2, cfg.width, cfg.height, cfg.timesteps};
  d.classes = 10;
  Rng master(cfg.seed);
  const double scale_x = cfg.width / 10.0;   // glyph cell size
  const double scale_y = cfg.height / 12.0;
  for (std::uint16_t label = 0; label < 10; ++label) {
    for (std::uint16_t k = 0; k < cfg.samples_per_class; ++k) {
      Rng rng = master.fork(static_cast<std::uint64_t>(label) * 7919u + k);
      Sample sample;
      sample.label = label;
      sample.stream = event::EventStream(d.geometry);
      const char* glyph = kDigitGlyphs[label];
      // Precompute the lit pixels so the event rate does not depend on the
      // glyph's ink density.
      std::vector<std::pair<int, int>> lit;
      for (int gy = 0; gy < 7; ++gy)
        for (int gx = 0; gx < 5; ++gx)
          if (glyph[gy * 5 + gx] == '1') lit.emplace_back(gx, gy);
      const double jx = rng.uniform(-1.0, 1.0), jy = rng.uniform(-1.0, 1.0);
      double pdx = 0.0, pdy = 0.0;
      for (std::uint16_t t = 0; t < cfg.timesteps; ++t) {
        const double u = static_cast<double>(t) / cfg.timesteps;
        double dx = 0.0, dy = 0.0;
        saccade_offset(u, 3.0, dx, dy);
        const double vx = dx - pdx, vy = dy - pdy;
        const double speed = std::sqrt(vx * vx + vy * vy) + 0.2;
        // Events along the glyph's lit pixels, rate scaled by edge motion.
        const std::uint32_t n = rng.poisson(cfg.edge_rate * speed);
        for (std::uint32_t i = 0; i < n; ++i) {
          const auto [gx, gy] =
              lit[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(lit.size()) - 1))];
          const double px = (gx + 2.5) * scale_x + dx + jx + rng.normal(0, 0.6);
          const double py = (gy + 2.5) * scale_y + dy + jy + rng.normal(0, 0.6);
          const int x = static_cast<int>(std::lround(px));
          const int y = static_cast<int>(std::lround(py));
          if (x < 0 || y < 0 || x >= cfg.width || y >= cfg.height) continue;
          // Polarity from motion direction: leading edge ON, trailing OFF.
          const std::uint16_t ch = (vx + vy >= 0) == (i % 2 == 0) ? 0 : 1;
          sample.stream.push_update(t, ch, static_cast<std::uint8_t>(x),
                                    static_cast<std::uint8_t>(y));
        }
        background_noise(sample.stream, rng, cfg.noise_rate, t);
        pdx = dx;
        pdy = dy;
      }
      SNE_ENSURES(sample.stream.is_normalized());  // emitted step by step
      d.samples.push_back(std::move(sample));
    }
  }
  return d;
}

}  // namespace sne::data
