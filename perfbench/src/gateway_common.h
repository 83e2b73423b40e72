// Pieces shared by the two gateway workloads: the serving stack behind a
// loopback GatewayServer, four bearer-token tenants, and the open-loop
// client bookkeeping (service latency, latency from the due time, generator
// lag).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/gateway.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace perfbench {

/// Tenants t0..t3 with fair-share weights 8/4/2/1; requests pick a tenant
/// with the same Zipf-like skew (8/15, 4/15, 2/15, 1/15).
inline constexpr unsigned kTenants = 4;
inline const char* const kTenantName[kTenants] = {"t0", "t1", "t2", "t3"};
inline constexpr unsigned kTenantWeight[kTenants] = {8, 4, 2, 1};

/// Client connections (and client threads): never more than nproc = 4.
inline constexpr unsigned kConnections = 4;

/// A run whose generator sent later than this at p99 is stamped invalid:
/// the box, not the system under test, set the schedule.
inline constexpr double kMaxGenLagMs = 2.0;

/// Disables Nagle's algorithm on a client socket. net::HttpClient writes a
/// chunked request body as several small sends; with Nagle on, each feed
/// then stalls on the server's delayed ACK (~40 ms), which would time the
/// TCP stack instead of the gateway.
void set_nodelay(int fd);

inline std::string bearer(unsigned tenant) {
  return std::string("Bearer tok-") + kTenantName[tenant];
}

/// Registry + InferenceServer + GatewayServer on 127.0.0.1:<ephemeral>,
/// torn down in reverse order.
struct Stack {
  Stack(const sne::ecnn::QuantizedNetwork& net, unsigned engines);

  sne::serve::ModelRegistry registry;
  std::unique_ptr<sne::serve::InferenceServer> server;
  std::unique_ptr<sne::net::GatewayServer> gateway;
};

/// One operation as seen by the client.
struct Outcome {
  double latency_ms = 0.0;  ///< completion minus due time
  double service_ms = 0.0;  ///< completion minus send time
  double lag_ms = 0.0;      ///< how late the generator sent it
  bool ok = false;
  unsigned tenant = 0;
};

/// Result of one load phase.
struct Phase {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;  ///< process CPU minus the client threads'

  /// Service latencies (send to completion) of the successful operations.
  std::vector<double> service(int tenant = -1) const;
  /// Latencies from the due time of the successful operations.
  std::vector<double> from_due() const;
  std::size_t completed_ok() const;
  double lag_p99_ms() const;
  /// "n=.. p50=.. p90=.. p99=.. max=.." of the service and due latencies.
  std::string summary() const;
  /// Successful operations per second of server CPU.
  double ok_per_cpu_s() const {
    return server_cpu_s > 0.0 ? static_cast<double>(completed_ok()) / server_cpu_s
                              : 0.0;
  }
};

/// Per-round figures of one kind of phase. The light and heavy phases
/// alternate for several rounds and every end-to-end figure is the median
/// over rounds, so a burst from a noisy neighbour spoils one round, not the
/// run. Latency figures are service latencies.
struct Rounds {
  std::vector<double> ok_per_cpu_s, p50_ms, p90_ms, lag_p99_ms;
  std::size_t ops = 0;
  Phase all;  ///< every round's outcomes, for the printed summary

  void add(const Phase& ph);
};

/// Untraced and traced sub-phases alternating in the traced run; their
/// medians give trace.overhead_pct.
inline constexpr unsigned kTraceRounds = 4;

/// Runs `threads` client threads. Each calls `body(thread_index, out)`,
/// appending the outcomes of the operations it ran; the phase measures wall
/// time and the CPU the server side spent (process CPU minus the clients'
/// own thread CPU).
template <typename Body>
Phase run_phase(unsigned threads, Body body) {
  std::vector<std::vector<Outcome>> per(threads);
  std::vector<double> client_cpu(threads, 0.0);
  std::vector<std::exception_ptr> errors(threads);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        const double c0 = thread_cpu_s();
        try {
          body(t, per[t]);
        } catch (...) {
          errors[t] = std::current_exception();
        }
        client_cpu[t] = thread_cpu_s() - c0;
      });
    for (auto& th : pool) th.join();
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  Phase ph;
  ph.wall_s = s_since(t0);
  double clients = 0.0;
  for (double c : client_cpu) clients += c;
  ph.server_cpu_s = process_cpu_s() - cpu0 - clients;
  for (auto& v : per) ph.outcomes.insert(ph.outcomes.end(), v.begin(), v.end());
  return ph;
}

/// The instant `offset_s` after `start`.
inline Clock::time_point at(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// Lateness of a send at `sent` for an operation due at `due` that a client
/// could first pick up at `picked` (time spent waiting for a free
/// connection is the system's backlog, not generator lag).
inline double lag_ms(Clock::time_point due, Clock::time_point picked,
                     Clock::time_point sent) {
  return std::max(0.0, ms_between(std::max(due, picked), sent));
}

}  // namespace perfbench
