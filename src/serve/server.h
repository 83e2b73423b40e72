// InferenceServer: the async multi-tenant front door of the serving runtime.
//
//   ModelRegistry registry;            // named resident models
//   registry.load_file("gesture", "model.snem");
//   InferenceServer server(registry, hw, opts);
//   server.register_tenant("mobile", {.weight = 4, .max_queue = 32});
//   RequestOptions ro;
//   ro.tenant = "mobile";
//   Ticket t = server.submit("gesture", stream, ro);   // returns immediately
//   const NetworkRunStats& r = t.wait();
//
// Admission runs through a per-tenant weighted-fair scheduler
// (serve::FairScheduler): each tenant owns a bounded queue and a
// deficit-round-robin share of the dispatch workers, so one hot tenant can
// saturate only its own quota — never another tenant's latency. Overload
// degrades gracefully per tenant: a full queue sheds the tenant's own
// expired entries first and otherwise refuses, and per-tenant SLO stats
// (p50/p90/p99, queue age, shed/expired/rejected/evicted counts) land in
// ServerStats::tenants. Requests that don't name a tenant land on the
// default tenant (a TenantConfig{} quota), which preserves the single-FIFO
// semantics and bits of the pre-tenant server.
//
// Determinism: scheduling policy may reorder and shed, but a request's
// NetworkRunStats depends only on (model, input) — never on the tenant mix,
// the worker that ran it, the engine it leased, or the submission order.
// test_serve and test_tenants pin served results bitwise against the serial
// BatchRunner::run_one reference; `completed + failed == submitted` holds
// globally and per tenant.
//
// Threading: the `engines` dispatch workers are the only threads that run
// simulation work. Each pops the next request by DRR and runs it on a
// pooled engine; submit() and try_submit() only queue, and a caller that
// must not block takes Ticket::on_settled instead of Ticket::wait().
//
// Streaming: open_session() opens a long-lived StreamingSession (chunked
// event-stream inference with carried neuron state, heartbeat timeouts,
// crash recovery via neuron-state snapshots — see serve/session.h). Its
// chunks are requests in the session tenant's lane, run by the same
// dispatch workers on an engine leased per chunk and counted in the same
// ledgers. A session holds no engine between chunks, so the open-session
// count is bounded by each tenant's max_sessions quota, not by `engines`.
// Sessions close on tenant eviction. A worker also sweeps the open
// sessions' heartbeat clocks at most every 100 ms.
//
// Fault tolerance: requests can carry a deadline (RequestOptions) — expired
// work is shed at admission or pre-dispatch with a DeadlineExceeded ticket,
// never simulated. A dispatch that throws poisons its engine lease (the
// pool quarantines and rebuilds the engine, see ecnn::EnginePool) and the
// request retries on a fresh engine within ServeOptions::retry_budget;
// since fresh engines are bitwise identical to reset ones, retried results
// equal the fault-free run exactly. tests/test_faults.cpp drives all of it
// under the deterministic sne::faults injector (admission chaos at the
// `serve.server.admit` site included).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "ecnn/runner.h"
#include "event/event_stream.h"
#include "hwsim/memory.h"
#include "ecnn/engine_pool.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/session.h"
#include "serve/ticket.h"

namespace sne::serve {

struct ServeOptions {
  unsigned engines = 2;             ///< dispatch workers == pooled engines
  /// Weight-resident dispatch (program-once / serve-many): leases carry the
  /// request's model fingerprint, the pool prefers an engine that already
  /// holds the model, and warm runs skip reprogramming resident passes.
  /// Results follow the *relaxed equality tier*: events, spikes and
  /// post-programming counters bitwise equal to the cold fresh-engine
  /// reference, counter/cycle deltas exactly the skipped programming
  /// (see ecnn::NetworkRunner::run). false restores PR-4's strict tier
  /// (every request reprograms; results byte-identical to the reference,
  /// programming counters included).
  bool warm_weights = true;
  bool use_wload_stream = false;
  std::size_t memory_words = (1u << 22);
  hwsim::MemoryTiming mem_timing{};
  /// Fault tolerance: how many times a request whose dispatch threw is
  /// retried on a freshly acquired engine before its ticket fails. The
  /// throwing lease is poisoned (the pool discards the engine), and because
  /// cold runs on fresh/reset engines are bitwise identical, a retried
  /// request's result equals the fault-free run exactly — retries are
  /// invisible to the equivalence contract (tests/test_faults.cpp pins it).
  unsigned retry_budget = 1;
};

/// Per-request submission options.
struct RequestOptions {
  /// Absolute completion deadline. A request whose deadline has passed is
  /// *never simulated*: at admission it is shed (ticket fails immediately
  /// with DeadlineExceeded, nothing enqueued, ServerStats::shed); popped by
  /// a worker after the queue age burned the budget it expires
  /// (ServerStats::expired). nullopt = wait forever (the pre-PR-6 default).
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Tenant this request is accounted (and queued) against. Must be the
  /// default tenant or a name registered via register_tenant().
  std::string tenant = kDefaultTenant;

  /// Deadline `budget` from now — the common client idiom.
  static RequestOptions within(std::chrono::steady_clock::duration budget) {
    RequestOptions o;
    o.deadline = std::chrono::steady_clock::now() + budget;
    return o;
  }
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Tickets that completed with an exception — dispatch failures that
  /// exhausted the retry budget, deadline expiries (the `expired` sub-count
  /// below), and queued requests displaced by overload shedding or tenant
  /// eviction (the `evicted` sub-count). completed + failed always reaches
  /// submitted.
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;  ///< try_submit refusals (tenant queue full)
  /// Deadline accounting (requests failed fast, never simulated):
  /// shed at admission (deadline already passed at submit, or a blocking
  /// submit timed out on a full queue; not counted in submitted/failed) vs
  /// expired pre-dispatch (queue age burned the budget; counted in failed
  /// too).
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  /// Dispatch retry attempts after an exception (bounded per request by
  /// ServeOptions::retry_budget); the throwing engines are quarantined.
  std::uint64_t retried = 0;
  /// Queued requests displaced after admission (same-tenant overload
  /// shedding, tenant eviction); sub-count of failed.
  std::uint64_t evicted = 0;
  std::size_t queue_depth = 0;       ///< across all tenant queues
  std::size_t peak_queue_depth = 0;
  double elapsed_s = 0.0;         ///< since server construction
  double throughput_rps = 0.0;    ///< completed / elapsed
  /// Latency (submit -> completion wall time) statistics, computed over a
  /// bounded reservoir sample of completions (exact until the reservoir
  /// fills, uniformly sampled after), so a long-running server holds O(1)
  /// latency state no matter how many requests it has served.
  double latency_ms_mean = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p90 = 0.0;
  double latency_ms_p99 = 0.0;
  std::uint64_t total_sim_cycles = 0;  ///< simulated cycles over completions
  std::uint64_t engines_constructed = 0;
  std::uint64_t engine_leases = 0;  ///< leases - constructed = reuses
  /// Weight-residency effectiveness (warm_weights mode): leases that landed
  /// on an engine already tagged with the request's model, and slice passes
  /// that skipped reprogramming vs all passes executed.
  std::uint64_t engine_warm_leases = 0;
  std::uint64_t passes_warm = 0;
  std::uint64_t passes_total = 0;
  /// Quarantine effectiveness: leases that observed an exception and were
  /// discarded instead of released (EnginePool::Stats pass-through). A
  /// poisoned engine is never re-leased.
  std::uint64_t engines_quarantined = 0;
  std::uint64_t engines_discarded = 0;
  /// Per-tenant SLO ledgers (default tenant included; evicted tenants keep
  /// reporting their final ledger). Ordered by tenant name.
  std::vector<TenantStats> tenants;
};

class InferenceServer {
 public:
  /// The registry is borrowed and must outlive the server; models registered
  /// after construction are immediately servable.
  InferenceServer(const ModelRegistry& registry, core::SneConfig hw,
                  ServeOptions opts = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a tenant with its own queue quota and fair-share weight.
  /// Throws ConfigError on invalid config or duplicate (or previously
  /// evicted) names.
  void register_tenant(const std::string& name, TenantConfig cfg);

  /// Evicts a tenant: closes its streaming sessions, fails its queued
  /// requests with TenantOverload, and refuses its future submits
  /// (ConfigError — the name is not recycled). In-flight requests finish;
  /// the tenant's ledger survives in stats(). The default tenant cannot be
  /// evicted.
  void evict_tenant(const std::string& name);

  /// Admits a request, blocking while the tenant's queue is full — but
  /// never past the request's own deadline (a timed-out wait sheds with
  /// DeadlineExceeded). Throws ConfigError when the model or tenant is
  /// unknown or the server is shutting down. A request whose deadline has
  /// already passed returns an already-failed ticket (DeadlineExceeded)
  /// without touching a queue.
  Ticket submit(const std::string& model, event::EventStream input,
                RequestOptions ropts = {});

  /// Non-blocking admission: nullopt (and a `rejected` tick) when the
  /// tenant's quota is exhausted with nothing sheddable. Throws ConfigError
  /// when the model or tenant is unknown or the server is shutting down
  /// (shutdown is not overload; retry loops must not spin). Expired
  /// deadlines answer like submit() (a returned, already-failed ticket —
  /// an answer, not overload).
  std::optional<Ticket> try_submit(const std::string& model,
                                   event::EventStream input,
                                   RequestOptions ropts = {});

  /// Opens a streaming session against `model` for `sopts.tenant` (see
  /// serve/session.h): plans the model in pipeline mode without waiting,
  /// leasing or simulating (each chunk leases and programs an engine);
  /// chunks account to the tenant. Throws ConfigError (unknown
  /// model/tenant, model unfit for pipeline mode) or TenantOverload
  /// (session quota exhausted).
  std::shared_ptr<StreamingSession> open_session(const std::string& model,
                                                 SessionOptions sopts = {});

  /// Closes a session opened by open_session() and drops the server's
  /// reference to it immediately. This is the half-close path for network
  /// front ends: when a client tears its connection mid-session, the gateway
  /// calls this instead of leaving the session to idle until heartbeat
  /// expiry, so the tenant's session-quota slot frees promptly (at once
  /// when the session is idle, else when its admitted chunks settle).
  /// Never blocks; idempotent; sessions the server doesn't know are still
  /// closed.
  void close_session(const std::shared_ptr<StreamingSession>& session);

  /// Never-registered vs active vs evicted — the gateway's 401-vs-403
  /// distinction (has-the-name-existed is not derivable from has_tenant).
  TenantPresence tenant_presence(const std::string& name) const;

  /// Blocks until every admitted request has completed.
  void drain();

  ServerStats stats() const;

  const core::SneConfig& hw() const { return hw_; }
  const ServeOptions& options() const { return opts_; }
  /// The borrowed model registry (route handlers resolve model names
  /// against it for 404s before paying a submit).
  const ModelRegistry& registry() const { return registry_; }

 private:
  friend class StreamingSession;

  struct Request {
    ModelRegistry::ModelPtr model;
    std::uint64_t model_fp = 0;  ///< snapshot fingerprint (warm dispatch key)
    event::EventStream input;
    std::shared_ptr<detail::TicketState> ticket;
    std::chrono::steady_clock::time_point submitted_at;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::string tenant;
    /// Set for a session chunk: the session runs it (run_chunk).
    std::shared_ptr<StreamingSession> session;
  };

  Request make_request(const std::string& model, event::EventStream input,
                       const RequestOptions& ropts);
  enum class Admission {
    kQueued,    ///< in the tenant's lane; a worker will settle the ticket
    kAnswered,  ///< refused with the ticket failed (shed)
    kRefused,   ///< non-blocking push, quota full: ticket untouched
  };
  /// The one admission body (submit, try_submit, session chunks): the
  /// admission chaos site, the dead-on-arrival shed, the ledger count, the
  /// tenant-lane push (blocking while full only for `block`) and its
  /// rollback. kRefused counts `rejected`. Throws ConfigError on a
  /// shut-down server or an evicted tenant.
  Admission admit(Request req, bool block);
  /// Sheds `req` at admission when its deadline has already passed: fails
  /// the ticket with DeadlineExceeded and counts `shed` (globally and on
  /// the tenant). Returns whether it shed (the caller then skips the queue
  /// entirely).
  bool shed_if_expired(Request& req);
  /// Fails the tickets of requests displaced from a tenant queue
  /// (overload shedding / eviction) and counts them failed+evicted
  /// globally (the scheduler already counted the tenant side).
  void fail_displaced(std::vector<Request> displaced, const char* why);
  void worker_loop();
  void process(Request& req, const std::string& tenant);
  /// Closes idle sessions past their heartbeat budget and prunes closed
  /// ones; at most one sweep per 100 ms across all workers.
  void sweep_sessions();

  /// Pushes one session chunk into the tenant's lane (StreamingSession
  /// calls it). False = refused, with the chunk's ticket already answered.
  bool dispatch_chunk(StreamingSession& session, StreamingSession::Chunk& c);

  const ModelRegistry& registry_;
  core::SneConfig hw_;
  ServeOptions opts_;
  ecnn::EnginePool pool_;
  FairScheduler<Request> sched_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point started_at_;

  std::mutex sessions_m_;
  std::vector<std::shared_ptr<StreamingSession>> sessions_;
  std::atomic<std::chrono::steady_clock::rep> last_sweep_{0};

  mutable std::mutex stats_m_;
  std::condition_variable drained_cv_;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t total_sim_cycles_ = 0;
  std::uint64_t passes_warm_ = 0;
  std::uint64_t passes_total_ = 0;
  /// Bounded latency reservoir (classic reservoir sampling over all
  /// completions; kLatencyReservoir entries max).
  static constexpr std::size_t kLatencyReservoir = 4096;
  std::vector<double> latencies_ms_;
  std::uint64_t latency_seen_ = 0;
  Rng latency_rng_{0x5EEDF00Dull};
};

}  // namespace sne::serve
