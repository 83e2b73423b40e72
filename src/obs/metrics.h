// Process-wide metrics registry: the one export surface for every signal
// the stack already keeps in ad-hoc structs (ServerStats, TenantStats,
// EnginePool::Stats, FaultInjector site stats, ActivityCounters roll-ups —
// see obs/adapters.h for the publishers).
//
// Model: a registry owns metric *families* (one name, one type, one help
// string) and each family owns label-distinguished *series*. Callers
// register once (string name + labels, under the registry lock) and keep
// the returned reference; the update path is a single relaxed atomic
// RMW — no lock, no hashing, no allocation:
//
//   auto& reqs = obs::MetricsRegistry::instance().counter(
//       "sne_server_submitted_total", {{"server", "edge"}});
//   reqs.inc();                       // hot path: one relaxed fetch_add
//
// Three metric types, mirroring the Prometheus exposition model:
//   Counter    monotonic uint64 (adapters may set() absolute snapshots)
//   Gauge      double, set/add
//   Histogram  fixed boundaries declared at registration; observe() does
//              one relaxed increment per sample plus a relaxed sum update
//
// Export: prometheus_text() emits the text exposition format (# TYPE/# HELP
// preambles, cumulative `le` buckets, escaped label values); json_snapshot()
// emits the same data as one JSON document. Both walk the registry under
// its lock but never stop writers: readers see per-series snapshots that
// are each internally torn-free enough for monitoring (individual atomics).
//
// The registry has no armed/disarmed switch because it has no sites in
// simulator or serving hot paths — publication happens at scrape time
// through the adapters. The default-off contract of the telemetry layer
// (one relaxed atomic load per disarmed site, as fault_injection.h) applies
// to the tracer (obs/trace.h) and the replay profiler (obs/run_profile.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace sne::obs {

/// Label set of one series; canonicalized (key-sorted) at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Absolute republish for adapters mirroring an external cumulative
  /// counter (ServerStats and friends are already monotonic snapshots).
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// The Prometheus `le` rule: a sample lands in the first bucket whose
/// inclusive upper bound is >= v; bounds.size() is the +Inf bucket. Every
/// histogram in the stack (Histogram, serve::LatencyHistogram) buckets
/// through this one function.
std::size_t bucket_index(std::span<const double> bounds, double v);

class Histogram {
 public:
  /// `bounds` are the inclusive upper edges of the finite buckets, strictly
  /// ascending; a +Inf bucket is implicit. Fixed at registration — the
  /// observe path never reallocates.
  explicit Histogram(std::vector<double> bounds);

  /// Buckets by bucket_index (le = "less than or equal").
  void observe(double v);
  /// Absolute republish, the histogram twin of Counter::set, for adapters
  /// mirroring a histogram kept elsewhere: overwrites every bucket with
  /// `counts` (per bucket, +Inf last) and the sum. Throws ConfigError when
  /// the bucket count differs.
  void set(std::span<const std::uint64_t> counts, double sum);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts, +Inf bucket last.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + Inf
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  /// The process-global registry (what the adapters and the future gateway
  /// scrape). Local instances are constructible for tests.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the returned reference is stable for the registry's
  /// lifetime (series are never erased, only clear()ed wholesale). Throws
  /// ConfigError on an invalid name or a type conflict with an existing
  /// family of the same name.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  /// `bounds` must match any prior registration of the same family.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {}, const std::string& help = "");

  /// Prometheus text exposition (version 0.0.4): families in name order,
  /// series in canonical label order — a fixed registry exports a
  /// byte-stable document (tests pin it).
  std::string prometheus_text() const;

  /// The same data as one JSON document:
  ///   {"metrics":[{"name":...,"type":...,"help":...,
  ///                "series":[{"labels":{...},"value":...}|
  ///                          {"labels":{...},"buckets":[{"le":...,
  ///                           "count":...}],"sum":...,"count":...}]}]}
  std::string json_snapshot() const;

  /// Drops every family (tests; the global registry is otherwise append-only).
  void clear();

  std::size_t family_count() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;      // canonical (key-sorted)
    Counter counter;    // active iff family type == kCounter
    Gauge gauge;        // active iff kGauge
    std::unique_ptr<Histogram> hist;  // active iff kHistogram
  };

  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::vector<double> bounds;  // histogram families only
    /// Canonical label string -> series; std::map for deterministic export.
    std::map<std::string, std::unique_ptr<Series>> series;
  };

  Family& family(const std::string& name, Type type, const std::string& help,
                 const std::vector<double>* bounds);
  Series& series(Family& fam, const Labels& labels);

  mutable std::mutex m_;
  std::map<std::string, Family> families_;
};

/// Canonicalizes (key-sorts) a label set; throws ConfigError on duplicate
/// keys or invalid label names.
Labels canonical_labels(Labels labels);

}  // namespace sne::obs
