#include "serve/server.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "obs/trace.h"

namespace sne::serve {

using detail::ms_since;

InferenceServer::InferenceServer(const ModelRegistry& registry,
                                 core::SneConfig hw, ServeOptions opts)
    : registry_(registry),
      hw_(hw),
      opts_(opts),
      pool_(hw, opts.engines,
            ecnn::EnginePoolOptions{opts.memory_words, opts.mem_timing,
                                    opts.use_wload_stream,
                                    /*max_engines=*/opts.engines,
                                    /*weight_resident=*/opts.warm_weights}),
      sched_(TenantConfig{}),
      started_at_(std::chrono::steady_clock::now()) {
  hw_.validate();
  if (opts_.engines == 0) throw ConfigError("server needs at least one engine");
  workers_.reserve(opts_.engines);
  for (unsigned i = 0; i < opts_.engines; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

InferenceServer::~InferenceServer() {
  // Close streaming sessions first: a session reports its close to the
  // scheduler (a member destroyed after this body). Closing is graceful — a
  // busy session still runs its admitted chunks on the workers — so wait
  // for each to finish while the scheduler still takes its re-pushes.
  std::vector<std::shared_ptr<StreamingSession>> sessions;
  {
    std::lock_guard<std::mutex> lk(sessions_m_);
    sessions.swap(sessions_);
  }
  for (const auto& s : sessions) s->close();
  for (const auto& s : sessions)
    while (!s->closed())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Stop admission; workers drain everything already accepted (a fulfilled
  // ticket for every admitted request), then exit on the closed scheduler.
  sched_.close();
  for (auto& t : workers_) t.join();
}

void InferenceServer::register_tenant(const std::string& name,
                                      TenantConfig cfg) {
  sched_.register_tenant(name, cfg);
}

void InferenceServer::evict_tenant(const std::string& name) {
  if (name == kDefaultTenant)
    throw ConfigError("the default tenant cannot be evicted");
  if (!sched_.has_tenant(name))
    throw ConfigError("unknown tenant '" + name + "'");
  // Close the tenant's sessions first (idle ones finish at once), then
  // purge the tenant's queue: dropped session chunks fail, and the
  // sessions' waiting chunks fail on the refused re-push, so nothing of the
  // tenant is queued once evict_tenant returns (requests and chunks
  // already popped by a worker still finish — their tickets were promised).
  std::vector<std::shared_ptr<StreamingSession>> to_close;
  {
    std::lock_guard<std::mutex> lk(sessions_m_);
    for (const auto& s : sessions_)
      if (s->tenant() == name) to_close.push_back(s);
  }
  for (const auto& s : to_close) s->close();
  fail_displaced(sched_.evict(name), "tenant evicted: queued request dropped");
}

std::shared_ptr<StreamingSession> InferenceServer::open_session(
    const std::string& model, SessionOptions sopts) {
  const ModelRegistry::Resolved resolved = registry_.resolve(model);
  if (!sched_.has_tenant(sopts.tenant))
    throw ConfigError("unknown tenant '" + sopts.tenant + "'");
  if (!sched_.try_open_session(sopts.tenant))
    throw TenantOverload("session quota exhausted for tenant '" +
                         sopts.tenant + "' (max_sessions)");
  const std::string tenant = sopts.tenant;
  std::shared_ptr<StreamingSession> session;
  try {
    session = std::make_shared<StreamingSession>(pool_, resolved.model,
                                                 std::move(sopts), this);
  } catch (...) {
    // The session never existed; release its quota slot (it will never
    // report a close).
    sched_.note_session_closed(tenant);
    throw;
  }
  {
    std::lock_guard<std::mutex> lk(sessions_m_);
    // Prune sessions the client already closed so the list stays bounded by
    // the number of live sessions.
    sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                   [](const auto& s) { return s->closed(); }),
                    sessions_.end());
    sessions_.push_back(session);
  }
  return session;
}

void InferenceServer::close_session(
    const std::shared_ptr<StreamingSession>& session) {
  if (session == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(sessions_m_);
    sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                    sessions_.end());
  }
  // Off the lock: finishing takes the scheduler lock.
  session->close();
}

bool InferenceServer::dispatch_chunk(StreamingSession& session,
                                     StreamingSession::Chunk& c) {
  Request req;
  req.input = std::move(c.input);
  req.ticket = c.ticket;
  req.submitted_at = c.submitted_at;
  req.deadline = c.deadline;
  req.tenant = session.tenant();
  req.session = session.shared_from_this();
  std::exception_ptr refused;
  try {
    const Admission a = admit(std::move(req), /*block=*/false);
    if (a != Admission::kRefused) return a == Admission::kQueued;
    refused = std::make_exception_ptr(DispatchRefused(
        "tenant '" + session.tenant() + "' queue full: session chunk refused"));
  } catch (const ConfigError& e) {
    // Shut-down server or evicted tenant: the session is on its way out.
    refused = std::make_exception_ptr(
        SessionClosed(std::string("session chunk dropped: ") + e.what()));
  } catch (...) {
    refused = std::current_exception();
  }
  c.ticket->fail(refused, ms_since(c.submitted_at));
  return false;
}

TenantPresence InferenceServer::tenant_presence(const std::string& name)
    const {
  return sched_.presence(name);
}

InferenceServer::Request InferenceServer::make_request(
    const std::string& model, event::EventStream input,
    const RequestOptions& ropts) {
  Request req;
  // Snapshot + fingerprint resolve atomically (throws on unknown models);
  // a re-point mid-flight can never pair one model's weights with
  // another's residency key.
  const ModelRegistry::Resolved resolved = registry_.resolve(model);
  if (!sched_.has_tenant(ropts.tenant))
    throw ConfigError("unknown tenant '" + ropts.tenant +
                      "' (register_tenant first; evicted names are not "
                      "recycled)");
  req.model = resolved.model;
  req.model_fp = resolved.fingerprint;
  req.input = std::move(input);
  req.ticket = std::make_shared<detail::TicketState>();
  req.submitted_at = std::chrono::steady_clock::now();
  req.deadline = ropts.deadline;
  req.tenant = ropts.tenant;
  req.ticket->id = next_id_++;
  return req;
}

bool InferenceServer::shed_if_expired(Request& req) {
  if (!req.deadline || std::chrono::steady_clock::now() < *req.deadline)
    return false;
  sched_.note_shed(req.tenant);
  // Shed requests never count as submitted: drain() tracks admitted work,
  // and this request is answered (with its failure) before admission.
  req.ticket->fail(std::make_exception_ptr(DeadlineExceeded(
                       "shed at admission: request deadline already passed")),
                   ms_since(req.submitted_at));
  return true;
}

void InferenceServer::fail_displaced(std::vector<Request> displaced,
                                     const char* why) {
  // Displaced requests were admitted: the scheduler booked them failed +
  // evicted, and answering them here keeps every ticket's promise.
  for (Request& d : displaced) {
    if (d.session) d.session->chunk_done(/*success=*/false);
    d.ticket->fail(
        std::make_exception_ptr(TenantOverload(
            std::string(why) + " (tenant '" + d.tenant + "')")),
        ms_since(d.submitted_at));
  }
}

InferenceServer::Admission InferenceServer::admit(Request req, bool block) {
  obs::ScopedCorr corr(req.ticket->id);
  obs::ScopedSpan span("serve.submit", obs::trace_key(req.tenant));
  // Admission chaos site: a FaultError here models a crash in the front
  // door itself — nothing counted, nothing queued, the exception reaches
  // the caller.
  faults::check("serve.server.admit");
  if (shed_if_expired(req)) return Admission::kAnswered;
  const std::string tenant = req.tenant;
  const auto deadline = req.deadline;
  const auto submitted_at = req.submitted_at;
  const auto ticket = req.ticket;
  auto out = sched_.push(tenant, std::move(req), deadline, block);
  fail_displaced(std::move(out.displaced),
                 "shed under overload: displaced by a newer request");
  if (out.status == FairScheduler<Request>::PushStatus::kAccepted)
    return Admission::kQueued;
  switch (out.status) {
    case FairScheduler<Request>::PushStatus::kFull:
      // Non-blocking: genuine overload (the scheduler booked the
      // rejection). Blocking: the wait for queue space timed out on the
      // request's own deadline — a shed.
      if (!block) return Admission::kRefused;
      sched_.note_shed(tenant);
      ticket->fail(std::make_exception_ptr(DeadlineExceeded(
                       "shed at admission: deadline passed while blocked on "
                       "tenant '" + tenant + "' queue")),
                   ms_since(submitted_at));
      return Admission::kAnswered;
    case FairScheduler<Request>::PushStatus::kClosed:
      // A caller error, so retry loops don't spin against a dead server.
      throw ConfigError("submit on a shut-down server");
    default:
      throw ConfigError("tenant '" + tenant + "' was evicted");
  }
}

Ticket InferenceServer::submit(const std::string& model,
                               event::EventStream input,
                               RequestOptions ropts) {
  Request req = make_request(model, std::move(input), ropts);
  const Ticket ticket{req.ticket};
  admit(std::move(req), /*block=*/true);
  return ticket;
}

std::optional<Ticket> InferenceServer::try_submit(const std::string& model,
                                                  event::EventStream input,
                                                  RequestOptions ropts) {
  Request req = make_request(model, std::move(input), ropts);
  const Ticket ticket{req.ticket};
  if (admit(std::move(req), /*block=*/false) == Admission::kRefused)
    return std::nullopt;
  return ticket;
}

void InferenceServer::worker_loop() {
  // Timed pop instead of a parked pop(): the tick drives the session
  // heartbeat sweep on an idle server (request deadlines are judged
  // per-request at dispatch) and bounds how long shutdown can lag behind
  // close().
  constexpr auto kTick = std::chrono::milliseconds(100);
  for (;;) {
    FairScheduler<Request>::Popped p;
    switch (sched_.pop_for(kTick, p)) {
      case FairScheduler<Request>::PopStatus::kTimeout:
        break;
      case FairScheduler<Request>::PopStatus::kClosed:
        return;  // closed and drained
      case FairScheduler<Request>::PopStatus::kItem:
        process(p.item, p.tenant);
        break;
    }
    sweep_sessions();
  }
}

void InferenceServer::sweep_sessions() {
  constexpr auto kSweepEvery = std::chrono::milliseconds(100);
  const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
  auto last = last_sweep_.load(std::memory_order_relaxed);
  if (now - last < std::chrono::steady_clock::duration(kSweepEvery).count() ||
      !last_sweep_.compare_exchange_strong(last, now,
                                           std::memory_order_relaxed))
    return;  // swept recently, or another worker just won the sweep
  std::lock_guard<std::mutex> lk(sessions_m_);
  // closed() checks each session's heartbeat clock first.
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const auto& s) { return s->closed(); }),
                  sessions_.end());
}

void InferenceServer::process(Request& req, const std::string& tenant) {
  // Request lifecycle spans, all correlated by the ticket id: the queue wait
  // (submit -> this DRR grant), then one span over dispatch + simulation +
  // settling, with the engine-side spans (pool lease, layer program/warm
  // skip, simulate) nesting underneath via the ambient correlation.
  obs::ScopedCorr corr(req.ticket->id);
  obs::trace_span_since("serve.queue", req.submitted_at,
                        obs::trace_key(tenant));
  obs::ScopedSpan req_span("serve.request", obs::trace_key(tenant));
  obs::trace_instant("serve.dispatch", obs::trace_key(tenant));
  ecnn::NetworkRunStats result;
  std::exception_ptr error;
  bool deadline_expired = false;
  // Expired-in-queue requests fail fast without touching an engine: the
  // queue already burned their budget, and simulating work nobody will
  // consume only delays the requests behind them.
  if (req.deadline && std::chrono::steady_clock::now() >= *req.deadline) {
    deadline_expired = true;
    error = std::make_exception_ptr(DeadlineExceeded(
        "expired in queue: deadline passed before dispatch"));
  }
  if (!error && req.session) {
    // Session chunk: one attempt on an engine the session leases — a failed
    // chunk is the session's to recover (the next chunk restores its
    // snapshot).
    error = req.session->run_chunk(req.input, result);
  }
  const std::uint64_t fp = opts_.warm_weights ? req.model_fp : 0;
  for (unsigned attempt = 0; !error && !req.session; ++attempt) {
    try {
      // The lease lives inside the try scope: when the run throws, the
      // poisoned lease destructs (the pool discards the engine and frees its
      // capacity slot) *before* the retry acquires — so retries never
      // deadlock, even on a max_engines=1 pool.
      ecnn::EnginePool::Lease lease = pool_.acquire(fp);
      try {
        faults::check("serve.server.dispatch");
        result = lease.runner().run(*req.model, req.input,
                                    event::FirePolicy::kActiveStepsOnly, fp);
      } catch (...) {
        lease.poison();
        throw;
      }
      break;  // dispatched cleanly
    } catch (...) {
      if (attempt < opts_.retry_budget) {
        // Retry on a freshly acquired engine. Fresh/reset engines are
        // bitwise identical, so the retried result equals the fault-free
        // run exactly — the failure is invisible to the caller.
        sched_.note_retried(tenant);
        continue;
      }
      error = std::current_exception();
    }
  }
  // A session is idle (or has its next chunk queued) before this chunk
  // settles: a client that closes on the answer finds it closable at once.
  if (req.session) req.session->chunk_done(!error);
  const double lat_ms = ms_since(req.submitted_at);
  // Settle the tenant's ledger before answering the ticket, so a waiter
  // observes its own completion in stats().
  obs::ScopedSpan settle_span("serve.settle", obs::trace_key(tenant));
  DoneRecord done{.ok = !error, .expired = deadline_expired,
                  .latency_ms = lat_ms};
  if (!error) {
    done.cycles = result.cycles;
    done.passes_warm = result.passes_warm;
    done.passes_total = result.passes_total;
  }
  sched_.on_done(tenant, done);
  if (error)
    req.ticket->fail(error, lat_ms);
  else
    req.ticket->fulfill(std::move(result), lat_ms);
}

void InferenceServer::drain() { sched_.wait_drained(); }

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.tenants = sched_.stats();
  for (const TenantStats& t : s.tenants) {
    s += t;
    s.queue_depth += t.queue_depth;
  }
  // Read after the tenant snapshot, so peak >= depth.
  s.peak_queue_depth = sched_.peak_depth();
  s.elapsed_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started_at_)
                    .count();
  if (s.elapsed_s > 0.0)
    s.throughput_rps = static_cast<double>(s.completed) / s.elapsed_s;
  const ecnn::EnginePool::Stats ps = pool_.stats();
  s.engines_constructed = ps.constructed;
  s.engine_leases = ps.leases;
  s.engine_warm_leases = ps.warm_leases;
  s.engines_quarantined = ps.quarantined;
  s.engines_discarded = ps.discarded;
  return s;
}

}  // namespace sne::serve
