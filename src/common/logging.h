// Leveled stderr logging. Off by default above WARN; benches and examples
// raise the level explicitly.
//
// Thread-safe: serving-stack workers and the gateway's IO thread all log.
// Each message is preformatted into one buffer and emitted with a single
// write(2) to stderr, so concurrent messages never interleave mid-line
// (POSIX pipe/terminal writes of modest size are atomic in practice, and
// there is no shared stream state to race on). The discard path (level
// below threshold) takes no lock and touches no stream.
#pragma once

#include <sstream>
#include <string>

#ifdef _WIN32
#include <cstdio>
#else
#include <unistd.h>
#endif

namespace sne {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log threshold; messages below it are discarded.
inline LogLevel& log_threshold() {
  static LogLevel level = LogLevel::kWarn;
  return level;
}

inline const char* log_level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

inline void log_message(LogLevel level, const std::string& msg) {
  if (level < log_threshold()) return;
  std::string line;
  line.reserve(msg.size() + 16);
  line += "[sne:";
  line += log_level_name(level);
  line += "] ";
  line += msg;
  line += "\n";
#ifdef _WIN32
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
#else
  // One write(2) per message; retry the (rare) short write so a partial
  // line is never left for another thread to split.
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ::ssize_t n = ::write(2, p, left);
    if (n <= 0) break;  // stderr gone; drop the remainder
    p += n;
    left -= static_cast<std::size_t>(n);
  }
#endif
}

}  // namespace sne

#define SNE_LOG_DEBUG(msg)                                   \
  do {                                                       \
    std::ostringstream os_;                                  \
    os_ << msg;                                              \
    ::sne::log_message(::sne::LogLevel::kDebug, os_.str());  \
  } while (false)

#define SNE_LOG_INFO(msg)                                    \
  do {                                                       \
    std::ostringstream os_;                                  \
    os_ << msg;                                              \
    ::sne::log_message(::sne::LogLevel::kInfo, os_.str());   \
  } while (false)

#define SNE_LOG_WARN(msg)                                    \
  do {                                                       \
    std::ostringstream os_;                                  \
    os_ << msg;                                              \
    ::sne::log_message(::sne::LogLevel::kWarn, os_.str());   \
  } while (false)
