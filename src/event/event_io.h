// Binary serialization of event streams ("events can be stored linearly into
// the external memory", paper section III-D.2). The on-disk format is the
// in-memory DMA format prefixed by a small header so examples can exchange
// recorded streams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "event/event_stream.h"

namespace sne::event {

inline constexpr std::uint32_t kStreamFileMagic = 0x534E4531;  // "SNE1"

/// Writes a stream as [magic, channels, width, height, timesteps, count,
/// beat...] little-endian 32-bit words.
inline void save_stream(const EventStream& s, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw ConfigError("cannot open for writing: " + path);
  const auto put = [&f](std::uint32_t v) {
    f.write(reinterpret_cast<const char*>(&v), sizeof v);
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
  if (!f) throw ConfigError("write failed: " + path);
}

/// Loads a stream written by save_stream. The file must be *exactly* the
/// header plus `count` beat words: every read is checked (a short file used
/// to zero-fill whatever followed the truncation point and silently yield a
/// partial stream) and trailing bytes are rejected, so a corrupted or
/// mis-concatenated recording fails loudly instead of simulating garbage.
/// A file is an untrusted producer, so the stream comes back in normal form.
inline EventStream load_stream(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw ConfigError("cannot open for reading: " + path);
  const auto get = [&f, &path]() {
    std::uint32_t v = 0;
    if (!f.read(reinterpret_cast<char*>(&v), sizeof v))
      throw ConfigError("truncated stream file: " + path);
    return v;
  };
  if (get() != kStreamFileMagic) throw ConfigError("bad magic in " + path);
  StreamGeometry g;
  g.channels = static_cast<std::uint16_t>(get());
  g.width = static_cast<std::uint8_t>(get());
  g.height = static_cast<std::uint8_t>(get());
  g.timesteps = static_cast<std::uint16_t>(get());
  const std::uint32_t count = get();
  std::vector<Beat> beats;
  beats.reserve(std::min<std::uint32_t>(count, 1u << 20));
  for (std::uint32_t i = 0; i < count; ++i) beats.push_back(get());
  if (f.peek() != std::ifstream::traits_type::eof())
    throw ConfigError("trailing bytes after stream in " + path);
  EventStream s = EventStream::from_beats(beats, g);
  s.normalize();
  return s;
}

/// In-memory SNE1 encoding — byte-identical to what save_stream writes.
/// The gateway's wire format: an HTTP request/response body carrying an
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

/// Decodes an SNE1 blob produced by encode_stream/save_stream, with the same
/// strictness as load_stream: truncation and trailing bytes both throw
/// ConfigError (`what` names the failing input, e.g. "request body"), so a
/// torn or padded network body never silently yields a partial stream. Like
/// load_stream, it returns the stream in normal form.
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
  if (get() != kStreamFileMagic) throw ConfigError("bad magic in " + what);
  StreamGeometry g;
  g.channels = static_cast<std::uint16_t>(get());
  g.width = static_cast<std::uint8_t>(get());
  g.height = static_cast<std::uint8_t>(get());
  g.timesteps = static_cast<std::uint16_t>(get());
  const std::uint32_t count = get();
  std::vector<Beat> beats;
  beats.reserve(std::min<std::uint32_t>(count, 1u << 20));
  for (std::uint32_t i = 0; i < count; ++i) beats.push_back(get());
  if (off != n) throw ConfigError("trailing bytes after " + what);
  EventStream s = EventStream::from_beats(beats, g);
  s.normalize();
  return s;
}

}  // namespace sne::event
