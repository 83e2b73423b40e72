// Shared plumbing of the end-to-end benchmark: result reporting, sample
// statistics, host resource probes, and the benchmark's own span recorder.
//
// Spans are recorded only here, in the benchmark's files, around calls into
// the simulator's public functions; nothing under src/ is instrumented for
// the benchmark. Each span carries a name, start, end, parent span and
// request id; spans stay in memory and are written once, at exit, as Chrome
// trace-event JSON (the format obs::Tracer emits), so Perfetto opens both.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

/// What one run prints as its last stdout line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Records one checked operation of kind `what`; a wrong answer or a
  /// transport failure is a failed one (the first few are logged).
  void count(bool ok, const char* what);
  /// Failures outside any counted operation (a pinned total that moved).
  void fail_check(const std::string& why);

  /// Keeps exactly the reported set: the end-to-end metrics (trace off) or
  /// the per-layer metrics (trace on). Per-layer metrics the workload does
  /// not exercise read 0; a missing end-to-end metric throws.
  void finalize(bool trace);

  std::string json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Non-empty when the run cannot be trusted (the load generator missed
  /// its schedule); stamped next to the result.
  std::string invalid_reason;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

double peak_rss_mib();
double process_cpu_s();
double thread_cpu_s();
std::string cpu_model();

/// Times `setup` `reps` times and returns the median seconds; the caller
/// keeps whatever the last repetition built.
template <typename F>
double median_setup_s(int reps, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(s_since(t0));
  }
  return median(s);
}

/// Splits a 64-bit seed into independent sub-seeds (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- span recorder ----------------------------------------------------------

struct SpanRec {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< request id; inherited from the parent
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint32_t tid = 0;
};

/// Process-wide span recorder. Enable it before starting the threads that
/// record; collect after joining them.
class Spans {
 public:
  static Spans& instance();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const;

  std::vector<SpanRec> collect() const;

  /// Per name: count, total and self time (duration minus the time its
  /// direct children cover), in ms.
  struct Agg {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Agg> aggregate() const;

  /// Writes the Chrome trace-event JSON; false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

  struct ThreadBuf;  ///< one thread's spans (defined in harness.cpp)

 private:
  friend class Span;
  ThreadBuf& local();

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span. A no-op when the recorder is disabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool live_ = false;
  std::size_t index_ = 0;
};

}  // namespace perfbench
