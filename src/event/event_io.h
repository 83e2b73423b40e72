// Binary serialization of event streams ("events can be stored linearly into
// the external memory", paper section III-D.2). The on-disk format is the
// in-memory DMA format prefixed by a small header so examples can exchange
// recorded streams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "event/event_stream.h"

namespace sne::event {

inline constexpr std::uint32_t kStreamFileMagic = 0x534E4531;  // "SNE1"

/// SNE1 encoding: [magic, channels, width, height, timesteps, count,
/// beat...] as 32-bit words. It is both the file format (save_stream) and
/// the gateway's wire format: an HTTP request/response body carrying an
/// event stream is exactly one encoded SNE1 blob.
inline std::string encode_stream(const EventStream& s) {
  std::string out;
  const auto put = [&out](std::uint32_t v) {
    char w[sizeof v];
    std::memcpy(w, &v, sizeof v);
    out.append(w, sizeof v);
  };
  const auto& g = s.geometry();
  put(kStreamFileMagic);
  put(g.channels);
  put(g.width);
  put(g.height);
  put(g.timesteps);
  const auto beats = s.to_beats();
  put(static_cast<std::uint32_t>(beats.size()));
  for (Beat b : beats) put(b);
  return out;
}

/// Decodes an SNE1 blob produced by encode_stream/save_stream. The blob is
/// an untrusted producer (a file, a request body), so the decode is strict
/// and throws ConfigError (`what` names the failing input, e.g. "request
/// body") on: a bad magic; a truncated blob or trailing bytes, so a torn or
/// padded body never silently yields a partial stream; a geometry with a
/// zero dimension or a header word too wide for its field; and any event
/// that EventStream::push would refuse (a timestep at or past `timesteps`,
/// an UPDATE address outside the geometry). The stream comes back in
/// normal form.
inline EventStream decode_stream(const char* data, std::size_t n,
                                 const std::string& what = "stream blob") {
  std::size_t off = 0;
  const auto get = [&]() {
    std::uint32_t v = 0;
    if (off + sizeof v > n) throw ConfigError("truncated " + what);
    std::memcpy(&v, data + off, sizeof v);
    off += sizeof v;
    return v;
  };
  const auto dim = [&](std::uint32_t max) {
    const std::uint32_t v = get();
    if (v == 0 || v > max)
      throw ConfigError("geometry out of range in " + what);
    return v;
  };
  if (get() != kStreamFileMagic) throw ConfigError("bad magic in " + what);
  StreamGeometry g;
  g.channels = static_cast<std::uint16_t>(dim(UINT16_MAX));
  g.width = static_cast<std::uint8_t>(dim(UINT8_MAX));
  g.height = static_cast<std::uint8_t>(dim(UINT8_MAX));
  g.timesteps = static_cast<std::uint16_t>(dim(UINT16_MAX));
  const std::uint32_t count = get();
  std::vector<Beat> beats;
  beats.reserve(std::min<std::size_t>(count, (n - off) / sizeof(Beat)));
  for (std::uint32_t i = 0; i < count; ++i) beats.push_back(get());
  if (off != n) throw ConfigError("trailing bytes after " + what);
  EventStream s = EventStream::from_beats(beats, g);
  for (const Event& e : s.events())
    if (!s.in_geometry(e))
      throw ConfigError("event outside the declared geometry in " + what);
  s.normalize();
  return s;
}

/// Writes encode_stream(s) to `path`.
inline void save_stream(const EventStream& s, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw ConfigError("cannot open for writing: " + path);
  const std::string bytes = encode_stream(s);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) throw ConfigError("write failed: " + path);
}

/// Reads the file at `path` whole and decodes it with decode_stream, so a
/// recording passes exactly the checks a request body does.
inline EventStream load_stream(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw ConfigError("cannot open for reading: " + path);
  const std::string bytes{std::istreambuf_iterator<char>(f),
                          std::istreambuf_iterator<char>()};
  if (f.bad()) throw ConfigError("read failed: " + path);
  return decode_stream(bytes.data(), bytes.size(), path);
}

}  // namespace sne::event
