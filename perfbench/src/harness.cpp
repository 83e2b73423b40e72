#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"inf_per_s.sparse", "inf/s"},
    {"inf_per_s.dense", "inf/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"loaded_latency_p90_ms", "ms"},
    {"success_rate", "ok/attempted"},
    {"peak_rss_mb", "MiB"},
};
constexpr MetricDef kPerLayer[] = {
    {"core.host_ns_per_cycle", "ns"},
    {"core.host_ns_per_event", "ns"},
    {"core.sim_cycles_per_inf", "cycles"},
    {"core.prof.dead_jump", "cycles"},
    {"core.prof.sweep_jump", "cycles"},
    {"core.prof.percycle", "cycles"},
    {"core.prof.burst", "cycles"},
    {"core.prof.bulk_replay", "cycles"},
    {"core.prof.steady", "cycles"},
    {"ecnn.run_layer_ms.conv", "ms"},
    {"ecnn.run_layer_ms.pool", "ms"},
    {"ecnn.run_layer_ms.fc", "ms"},
    {"ecnn.plan_us", "us"},
    {"ecnn.program_ms", "ms"},
    {"ecnn.pool_lease_us", "us"},
    {"ecnn.golden_ms_per_inf", "ms"},
    {"serve.inproc_p50_ms", "ms"},
    {"serve.inproc_p99_ms", "ms"},
    {"serve.submit_us", "us"},
    {"serve.peak_queue_depth", "count"},
    {"serve.tenant_p99_ms.t0", "ms"},
    {"serve.tenant_p99_ms.t1", "ms"},
    {"serve.tenant_p99_ms.t2", "ms"},
    {"serve.tenant_p99_ms.t3", "ms"},
    {"serve.warm_lease_ratio", "ratio"},
    {"serve.warm_pass_ratio", "ratio"},
    {"serve.session_feed_ms_p50", "ms"},
    {"serve.session_feed_ms_p99", "ms"},
    {"serve.session_open_ms", "ms"},
    {"serve.retried", "count"},
    {"serve.failed", "count"},
    {"serve.rejected", "count"},
    {"net.front_door_p50_ms", "ms"},
    {"net.http_parse_us", "us"},
    {"net.session_open_ms_p50", "ms"},
    {"net.bytes_in_per_req", "B"},
    {"net.bytes_out_per_req", "B"},
    {"net.responses_5xx", "count"},
    {"net.dispatch_rejected", "count"},
    {"net.reconnects", "count"},
    {"event.decode_us", "us"},
    {"event.encode_us", "us"},
    {"energy.uj_per_inf.sparse", "uJ"},
    {"energy.uj_per_inf.dense", "uJ"},
    {"energy.pj_per_sop.sparse", "pJ"},
    {"energy.pj_per_sop.dense", "pJ"},
    {"energy.sim_ms_per_inf.sparse", "ms"},
    {"energy.sim_ms_per_inf.dense", "ms"},
    {"energy.dense_sparse_ratio", "x"},
    {"gen.lag_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};
}  // namespace

void Report::count(bool ok, const char* what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) std::cerr << "perfbench: failed operation: " << what << "\n";
}

void Report::fail_check(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Report::finalize(bool trace) {
  std::map<std::string, Metric> kept;
  if (trace) {
    for (const MetricDef& m : kPerLayer) {
      const auto it = metrics_.find(m.name);
      kept[m.name] = it != metrics_.end() ? it->second : Metric{0.0, m.unit};
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      const auto it = metrics_.find(m.name);
      if (it == metrics_.end())
        throw std::logic_error(std::string("metric not measured: ") + m.name);
      kept[m.name] = it->second;
    }
  }
  metrics_ = std::move(kept);
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct && failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof buf, "%.10g", m.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.5);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- span recorder ----------------------------------------------------------

struct Spans::ThreadBuf {
  std::vector<SpanRec> recs;
  std::vector<std::size_t> open;  ///< indices of unfinished spans
  std::uint32_t tid = 0;
};

namespace {
std::mutex g_bufs_m;
std::vector<std::shared_ptr<Spans::ThreadBuf>> g_bufs;  // guarded by g_bufs_m
std::atomic<std::uint64_t> g_next_span_id{1};
}  // namespace

Spans& Spans::instance() {
  static Spans s;
  return s;
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Spans::ThreadBuf& Spans::local() {
  thread_local std::shared_ptr<ThreadBuf> buf;
  if (!buf) {
    buf = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lk(g_bufs_m);
    buf->tid = static_cast<std::uint32_t>(g_bufs.size() + 1);
    g_bufs.push_back(buf);
  }
  return *buf;
}

std::vector<SpanRec> Spans::collect() const {
  std::vector<SpanRec> out;
  std::lock_guard<std::mutex> lk(g_bufs_m);
  for (const auto& b : g_bufs)
    for (const SpanRec& r : b->recs)
      if (r.t1_ns >= r.t0_ns) out.push_back(r);
  return out;
}

std::map<std::string, Spans::Agg> Spans::aggregate() const {
  const std::vector<SpanRec> spans = collect();
  std::map<std::uint64_t, double> child_ms;  // parent id -> children's ms
  for (const SpanRec& s : spans)
    if (s.parent != 0) child_ms[s.parent] += (s.t1_ns - s.t0_ns) * 1e-6;
  std::map<std::string, Agg> out;
  for (const SpanRec& s : spans) {
    Agg& a = out[s.name];
    const double dur = (s.t1_ns - s.t0_ns) * 1e-6;
    ++a.count;
    a.total_ms += dur;
    const auto it = child_ms.find(s.id);
    a.self_ms += dur - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const SpanRec& s : collect()) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
                  "\"span_id\":%" PRIu64 ",\"parent\":%" PRIu64
                  ",\"req\":%" PRIu64 "}}",
                  first ? "" : ",", s.name, s.t0_ns / 1e3,
                  (s.t1_ns - s.t0_ns) / 1e3, s.tid, s.id, s.parent, s.req);
    f << buf;
    first = false;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

Span::Span(const char* name, std::uint64_t req) {
  Spans& sp = Spans::instance();
  if (!sp.enabled()) return;
  Spans::ThreadBuf& b = sp.local();
  SpanRec r;
  r.name = name;
  r.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (!b.open.empty()) {
    const SpanRec& p = b.recs[b.open.back()];
    r.parent = p.id;
    r.req = req != 0 ? req : p.req;
  } else {
    r.req = req;
  }
  r.tid = b.tid;
  r.t1_ns = -1;  // open
  r.t0_ns = sp.now_ns();
  index_ = b.recs.size();
  b.recs.push_back(r);
  b.open.push_back(index_);
  live_ = true;
}

Span::~Span() {
  if (!live_) return;
  Spans& sp = Spans::instance();
  Spans::ThreadBuf& b = sp.local();
  b.recs[index_].t1_ns = sp.now_ns();
  b.open.pop_back();
}

}  // namespace perfbench
