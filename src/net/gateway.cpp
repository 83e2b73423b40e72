#include "net/gateway.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/contracts.h"
#include "common/fault_injection.h"
#include "event/event_io.h"
#include "net/socket.h"
#include "obs/adapters.h"
#include "obs/metrics.h"

namespace sne::net {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after_ms(Clock::time_point from, double ms) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

/// Parses a strictly-positive decimal header value; false on anything else
/// (the caller answers 400 — a malformed budget must not mean "no budget").
bool parse_positive_ms(const std::string& v, double& out) {
  if (v.empty() || v.size() > 10 ||
      !std::all_of(v.begin(), v.end(),
                   [](unsigned char c) { return std::isdigit(c); }))
    return false;
  out = std::stod(v);
  return out > 0.0;
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  if (v.empty() || v.size() > 19 ||
      !std::all_of(v.begin(), v.end(),
                   [](unsigned char c) { return std::isdigit(c); }))
    return false;
  out = std::stoull(v);
  return true;
}

HttpResponse stream_response(const ecnn::NetworkRunStats& rs) {
  HttpResponse r;
  r.content_type = "application/x-sne-events";
  r.headers.emplace_back("X-Sne-Cycles", std::to_string(rs.cycles));
  r.body = event::encode_stream(rs.final_output);
  return r;
}

}  // namespace

struct GatewayServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  HttpParser parser;
  std::string out;          ///< serialized response bytes pending write
  std::size_t out_off = 0;
  bool busy = false;        ///< waiting on a ticket
  bool close_after_flush = false;
  Clock::time_point last_activity;

  explicit Conn(const HttpLimits& lim) : parser(lim) {}
};

struct GatewayServer::Inbox {
  std::mutex m;
  bool armed = true;
  int wake_fd = -1;
  std::vector<Completion> items;

  /// Called by whichever thread settled the ticket.
  void post(Completion c) {
    std::lock_guard<std::mutex> lk(m);
    if (!armed) return;  // the gateway shut down: nobody to answer
    items.push_back(std::move(c));
    // Raw write under the lock, so shutdown() cannot close the pipe in
    // between; a full pipe already means a wake is pending.
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &b, 1);
  }
};

GatewayServer::GatewayServer(serve::InferenceServer& server, GatewayConfig cfg)
    : server_(server), cfg_(std::move(cfg)) {
  if (cfg_.max_connections == 0)
    throw ConfigError("GatewayConfig::max_connections must be at least 1");
  listen_fd_ = listen_tcp(cfg_.host, cfg_.port);
  int p[2] = {-1, -1};
  try {
    port_ = local_port(listen_fd_);
    if (::pipe(p) < 0)
      throw NetError(std::string("pipe: ") + std::strerror(errno));
    wake_rd_ = p[0];
    wake_wr_ = p[1];
    set_nonblocking(wake_rd_);
    set_nonblocking(wake_wr_);
  } catch (...) {
    close_fd(listen_fd_);
    close_fd(p[0]);
    close_fd(p[1]);
    throw;
  }
  inbox_ = std::make_shared<Inbox>();
  inbox_->wake_fd = wake_wr_;
  io_thread_ = std::thread([this] { io_loop(); });
}

GatewayServer::~GatewayServer() { shutdown(); }

void GatewayServer::shutdown() {
  std::lock_guard<std::mutex> lk(shutdown_m_);
  if (stopped_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  wake();
  // The IO thread reaps idle connections, flushes in-flight responses
  // (force-closing stragglers at drain_timeout_ms) and exits once every
  // connection — and with it every session it opened — is gone.
  io_thread_.join();
  {
    // Tickets still in flight (their connections were force-closed) settle
    // later on server workers; their callbacks now drop the answer.
    std::lock_guard<std::mutex> ilk(inbox_->m);
    inbox_->armed = false;
  }
  SNE_ASSERT(sessions_.empty());
  close_fd(wake_rd_);
  close_fd(wake_wr_);
  stopped_.store(true, std::memory_order_release);
}

GatewayStats GatewayServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_m_);
  return st_;
}

void GatewayServer::wake() {
  // Raw write on purpose: the self-pipe must not hit a net.* fault site,
  // and a full pipe already means a wake is pending.
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &b, 1);
}

void GatewayServer::count_dispatch_rejected() {
  std::lock_guard<std::mutex> lk(stats_m_);
  ++st_.dispatch_rejected;
}

// ---------------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------------

void GatewayServer::io_loop() {
  std::optional<Clock::time_point> drain_deadline;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;  ///< conn id per fds entry (0 = not a conn)

  for (;;) {
    const auto now = Clock::now();
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (listen_fd_ >= 0) {
        close_fd(listen_fd_);
        listen_fd_ = -1;
      }
      if (!drain_deadline)
        drain_deadline = deadline_after_ms(now, cfg_.drain_timeout_ms);
      // Idle keep-alive connections hold nothing in flight: close now.
      std::vector<std::uint64_t> idle;
      for (const auto& [id, c] : conns_)
        if (!c->busy && c->out.empty() && c->parser.idle()) idle.push_back(id);
      for (const std::uint64_t id : idle) teardown(id);
      if (now >= *drain_deadline) {
        std::vector<std::uint64_t> all;
        for (const auto& [id, c] : conns_) all.push_back(id);
        for (const std::uint64_t id : all) teardown(id);
      }
      if (conns_.empty()) return;  // drained: nothing connected
    }

    // Build the poll set: wake pipe, listener, then one entry per
    // connection. A busy connection polls with no events — Linux still
    // reports POLLHUP/POLLERR, so a client hang-up is seen promptly.
    fds.clear();
    ids.clear();
    fds.push_back(pollfd{wake_rd_, POLLIN, 0});
    ids.push_back(0);
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      ids.push_back(0);
    }
    std::optional<Clock::time_point> next_deadline = drain_deadline;
    for (const auto& [id, c] : conns_) {
      short events = 0;
      if (!c->busy) events = c->out.empty() ? POLLIN : POLLOUT;
      fds.push_back(pollfd{c->fd, events, 0});
      ids.push_back(id);
      if (const auto d = conn_deadline(*c))
        if (!next_deadline || *d < *next_deadline) next_deadline = d;
    }
    int timeout_ms = 500;
    if (next_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            *next_deadline - now)
                            .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(left, 0, 500));
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    // Wake pipe: drain it, then flush settled tickets' responses onto
    // their connections (a completion for a torn-down connection is
    // dropped — the server side already accounted the request).
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof buf) > 0) {
      }
    }
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lk(inbox_->m);
      done.swap(inbox_->items);
    }
    for (Completion& comp : done) {
      const auto it = conns_.find(comp.conn_id);
      if (it == conns_.end()) continue;
      if (comp.dispatch_rejected) count_dispatch_rejected();
      it->second->busy = false;
      start_response(*it->second, comp.resp);  // may tear the conn down
    }

    if (listen_fd_ >= 0 && fds.size() > 1 && fds[1].fd == listen_fd_ &&
        (fds[1].revents & POLLIN))
      accept_ready();

    // Connection IO. Snapshot (id, revents) first: handlers tear
    // connections down, which mutates conns_.
    std::vector<std::pair<std::uint64_t, short>> events;
    for (std::size_t i = 0; i < fds.size(); ++i)
      if (ids[i] != 0 && fds[i].revents != 0)
        events.emplace_back(ids[i], fds[i].revents);
    for (const auto& [id, rev] : events) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      if (rev & (POLLERR | POLLNVAL)) {
        teardown(id);
      } else if (rev & POLLIN) {
        conn_readable(c);
      } else if (rev & POLLHUP) {
        teardown(id);
      } else if (rev & POLLOUT) {
        conn_writable(c);
      }
    }

    // Deadline pass: reap idle keep-alives, answer stalled reads with 408,
    // drop clients that stopped draining their response.
    const auto dnow = Clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto& [id, c] : conns_)
      if (const auto d = conn_deadline(*c))
        if (dnow >= *d) expired.push_back(id);
    for (const std::uint64_t id : expired) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      if (!c.out.empty()) {
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++st_.write_timeouts;
        }
        teardown(id);
      } else if (!c.parser.idle()) {
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++st_.read_timeouts;
        }
        HttpResponse r = error_response(408, "request read timed out");
        r.close = true;
        start_response(c, r);
      } else {
        {
          std::lock_guard<std::mutex> lk(stats_m_);
          ++st_.idle_reaped;
        }
        teardown(id);
      }
    }
  }
}

std::optional<std::chrono::steady_clock::time_point>
GatewayServer::conn_deadline(const Conn& c) const {
  if (c.busy) return std::nullopt;  // the request's own budget governs
  if (!c.out.empty())
    return deadline_after_ms(c.last_activity, cfg_.write_timeout_ms);
  if (!c.parser.idle())
    return deadline_after_ms(c.last_activity, cfg_.read_timeout_ms);
  return deadline_after_ms(c.last_activity, cfg_.idle_timeout_ms);
}

void GatewayServer::accept_ready() {
  for (;;) {
    int fd = -1;
    try {
      fd = accept_conn(listen_fd_);
    } catch (const NetError&) {
      // Injected net.accept fault (or a kernel-side accept failure): the
      // connection — if one existed — was already closed by the wrapper.
      std::lock_guard<std::mutex> lk(stats_m_);
      ++st_.accept_faults;
      break;
    }
    if (fd == static_cast<int>(kAgain)) break;
    if (conns_.size() >= cfg_.max_connections) {
      // Accept backpressure: a well-formed overload answer, not a silent
      // drop. Best-effort nonblocking write — a client that can't take
      // even this is torn down regardless.
      HttpResponse r = error_response(503, "connection limit reached");
      r.close = true;
      const std::string bytes = serialize(r);
      [[maybe_unused]] const ssize_t n =
          ::send(fd, bytes.data(), bytes.size(),
#ifdef MSG_NOSIGNAL
                 MSG_NOSIGNAL
#else
                 0
#endif
          );
      close_fd(fd);
      std::lock_guard<std::mutex> lk(stats_m_);
      ++st_.accept_rejected;
      continue;
    }
    auto c = std::make_unique<Conn>(cfg_.limits);
    c->fd = fd;
    c->id = next_conn_id_++;
    c->last_activity = Clock::now();
    const std::uint64_t id = c->id;
    conns_.emplace(id, std::move(c));
    std::lock_guard<std::mutex> lk(stats_m_);
    ++st_.connections_accepted;
    ++st_.connections_open;
    st_.peak_connections =
        std::max<std::uint64_t>(st_.peak_connections, st_.connections_open);
  }
}

void GatewayServer::after_parse(Conn& c, HttpParser::Status st) {
  if (st == HttpParser::Status::kDone) {
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++st_.requests;
    }
    dispatch(c);
  } else if (st == HttpParser::Status::kError) {
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++st_.parse_errors;
    }
    HttpResponse r =
        error_response(c.parser.error_status(), c.parser.error_reason());
    r.close = true;  // framing is unknown past a protocol violation
    start_response(c, r);
  }
}

void GatewayServer::conn_readable(Conn& c) {
  char buf[16384];
  try {
    for (;;) {
      const long got = read_some(c.fd, buf, sizeof buf);
      if (got == kAgain) return;
      if (got == 0) {  // orderly peer close
        teardown(c.id);
        return;
      }
      {
        std::lock_guard<std::mutex> lk(stats_m_);
        st_.bytes_in += static_cast<std::uint64_t>(got);
      }
      c.last_activity = Clock::now();
      const HttpParser::Status st =
          c.parser.feed(buf, static_cast<std::size_t>(got));
      if (st != HttpParser::Status::kNeedMore) {
        after_parse(c, st);  // dispatch or answer; stop reading either way
        return;
      }
    }
  } catch (const NetError&) {  // torn read (injected or real)
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++st_.conn_read_failures;
    }
    teardown(c.id);
  }
}

void GatewayServer::conn_writable(Conn& c) {
  try {
    while (c.out_off < c.out.size()) {
      const long put =
          write_some(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (put == kAgain) return;  // wait for POLLOUT
      c.out_off += static_cast<std::size_t>(put);
      {
        std::lock_guard<std::mutex> lk(stats_m_);
        st_.bytes_out += static_cast<std::uint64_t>(put);
      }
      c.last_activity = Clock::now();
    }
  } catch (const NetError&) {  // torn write (injected or real)
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++st_.conn_write_failures;
    }
    teardown(c.id);
    return;
  }
  // Response fully flushed.
  c.out.clear();
  c.out_off = 0;
  if (c.close_after_flush) {
    teardown(c.id);
    return;
  }
  // Keep-alive: rearm and immediately consume any pipelined bytes.
  c.parser.reset();
  after_parse(c, c.parser.feed(nullptr, 0));
}

void GatewayServer::start_response(Conn& c, const HttpResponse& resp) {
  HttpResponse r = resp;
  if (draining_.load(std::memory_order_acquire) ||
      !c.parser.request().keep_alive)
    r.close = true;
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    switch (r.status / 100) {
      case 2: ++st_.responses_2xx; break;
      case 3: ++st_.responses_3xx; break;
      case 5: ++st_.responses_5xx; break;
      default: ++st_.responses_4xx; break;
    }
  }
  c.out += serialize(r);
  c.close_after_flush = r.close;
  c.last_activity = Clock::now();
  conn_writable(c);  // flush as much as the socket takes right now
}

void GatewayServer::dispatch(Conn& c) {
  c.last_activity = Clock::now();
  std::optional<HttpResponse> resp;
  try {
    resp = route(c.id, c.parser.request());
  } catch (const std::exception& e) {
    // Route handlers map the expected taxonomy themselves; anything that
    // still escapes (FaultError from a chaos site, a contract violation) is
    // a 500 — never a crash past the connection handler.
    resp = error_response(500, e.what());
    resp->close = true;
  } catch (...) {
    resp = error_response(500, "unexpected error");
    resp->close = true;
  }
  if (resp)
    start_response(c, *resp);  // may tear the connection down
  else
    c.busy = true;  // a ticket callback answers through the inbox
}

void GatewayServer::teardown(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  close_fd(it->second->fd);
  conns_.erase(it);
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    if (st_.connections_open > 0) --st_.connections_open;
  }
  reap_conn_sessions(conn_id);
}

void GatewayServer::reap_conn_sessions(std::uint64_t conn_id) {
  // The half-close fix: sessions this connection opened are closed *now*
  // (through InferenceServer::close_session, freeing the tenant's quota
  // slot) instead of idling until heartbeat expiry.
  std::uint64_t reaped = 0;
  for (auto sit = sessions_.begin(); sit != sessions_.end();) {
    if (sit->second.owner_conn == conn_id) {
      server_.close_session(sit->second.session);
      sit = sessions_.erase(sit);
      ++reaped;
    } else {
      ++sit;
    }
  }
  if (reaped == 0) return;
  std::lock_guard<std::mutex> lk(stats_m_);
  st_.sessions_torn_down += reaped;
  st_.sessions_open_now -= std::min(st_.sessions_open_now, reaped);
}

// ---------------------------------------------------------------------------
// Route handlers (IO thread) and ticket completions
// ---------------------------------------------------------------------------

void GatewayServer::answer_when_settled(std::uint64_t conn_id,
                                        const serve::Ticket& ticket) {
  ticket.on_settled([inbox = inbox_, conn_id](const serve::Ticket& t) {
    inbox->post(settled_response(conn_id, t));
  });
}

GatewayServer::Completion GatewayServer::settled_response(
    std::uint64_t conn_id, const serve::Ticket& ticket) {
  Completion c;
  c.conn_id = conn_id;
  try {
    c.resp = stream_response(ticket.wait());
  } catch (const serve::SessionClosed& e) {
    c.resp = error_response(410, e.what());
  } catch (const serve::DeadlineExceeded& e) {
    c.resp = error_response(504, e.what());
  } catch (const serve::ChunkError& e) {
    c.resp = error_response(500, e.what());
  } catch (const serve::DispatchRefused& e) {
    c.resp = error_response(503, e.what());
    c.dispatch_rejected = true;
  } catch (const serve::TenantOverload& e) {
    c.resp = error_response(503, e.what());
  } catch (const ConfigError& e) {
    c.resp = error_response(400, e.what());
  } catch (const std::exception& e) {
    // FaultError and anything else unexpected.
    c.resp = error_response(500, e.what());
    c.resp.close = true;
  } catch (...) {
    c.resp = error_response(500, "unexpected error");
    c.resp.close = true;
  }
  return c;
}

bool GatewayServer::authenticate(const HttpRequest& req, std::string& tenant,
                                 HttpResponse& resp) {
  const std::string* auth = req.header("authorization");
  if (auth == nullptr) {
    if (cfg_.allow_anonymous) {
      tenant = serve::kDefaultTenant;
      return true;
    }
    resp = error_response(401, "missing Authorization header");
    return false;
  }
  constexpr const char kScheme[] = "Bearer ";
  if (auth->rfind(kScheme, 0) != 0) {
    resp = error_response(401, "expected a Bearer token");
    return false;
  }
  const std::string token = auth->substr(sizeof kScheme - 1);
  const auto it = cfg_.bearer_tokens.find(token);
  if (it == cfg_.bearer_tokens.end()) {
    resp = error_response(401, "unknown token");
    return false;
  }
  tenant = it->second;
  if (server_.tenant_presence(tenant) == serve::TenantPresence::kEvicted) {
    resp = error_response(403, "tenant '" + tenant + "' has been evicted");
    return false;
  }
  return true;
}

std::optional<HttpResponse> GatewayServer::route(std::uint64_t conn_id,
                                                 const HttpRequest& req) {
  if (req.path == "/healthz") {
    if (req.method != "GET") return error_response(405, "GET only");
    HttpResponse r;
    r.body = "ok\n";
    return r;
  }
  if (req.path == "/metrics") {
    if (req.method != "GET") return error_response(405, "GET only");
    return handle_metrics();
  }
  if (draining_.load(std::memory_order_acquire)) {
    // In-flight requests flush, but a pipelined follow-up arriving during
    // the drain window is overload, not service.
    HttpResponse r = error_response(503, "gateway draining");
    r.close = true;
    return r;
  }
  std::string tenant;
  HttpResponse auth_err;
  if (!authenticate(req, tenant, auth_err)) return auth_err;

  if (req.path == "/v1/infer") {
    if (req.method != "POST") return error_response(405, "POST only");
    return handle_infer(conn_id, req, tenant);
  }
  if (req.path == "/v1/session/open") {
    if (req.method != "POST") return error_response(405, "POST only");
    return handle_session_open(conn_id, req, tenant);
  }
  constexpr const char kSessionPrefix[] = "/v1/session/";
  if (req.path.rfind(kSessionPrefix, 0) == 0) {
    const std::string rest = req.path.substr(sizeof kSessionPrefix - 1);
    const std::size_t slash = rest.find('/');
    std::uint64_t id = 0;
    if (slash == std::string::npos || !parse_u64(rest.substr(0, slash), id))
      return error_response(404, "no such endpoint");
    const std::string verb = rest.substr(slash + 1);
    if (verb == "feed") {
      if (req.method != "POST") return error_response(405, "POST only");
      return handle_session_feed(conn_id, id, req, tenant);
    }
    if (verb == "close") {
      if (req.method != "POST") return error_response(405, "POST only");
      return handle_session_close(id, tenant);
    }
    return error_response(404, "no such endpoint");
  }
  return error_response(404, "no such endpoint");
}

HttpResponse GatewayServer::handle_metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::publish_server_stats(reg, server_.stats());
  obs::publish_fault_stats(reg);
  obs::publish_gateway_stats(reg, stats());
  HttpResponse r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = reg.prometheus_text();
  return r;
}

std::optional<HttpResponse> GatewayServer::handle_infer(
    std::uint64_t conn_id, const HttpRequest& req, const std::string& tenant) {
  const auto model = req.query_param("model");
  if (!model || model->empty())
    return error_response(400, "missing 'model' query parameter");
  if (server_.registry().find(*model) == nullptr)
    return error_response(404, "unknown model '" + *model + "'");

  serve::RequestOptions ro;
  ro.tenant = tenant;
  if (const std::string* t = req.header("x-sne-timeout-ms")) {
    double ms = 0.0;
    if (!parse_positive_ms(*t, ms))
      return error_response(400, "malformed X-Sne-Timeout-Ms");
    ro.deadline = deadline_after_ms(Clock::now(), ms);
  }
  try {
    event::EventStream input =
        event::decode_stream(req.body.data(), req.body.size(), "request body");
    std::optional<serve::Ticket> ticket =
        server_.try_submit(*model, std::move(input), ro);
    if (!ticket) {
      count_dispatch_rejected();
      return error_response(503, "tenant queue full");
    }
    answer_when_settled(conn_id, *ticket);
    return std::nullopt;
  } catch (const ConfigError& e) {
    return error_response(400, e.what());
  }
  // FaultError and anything else unexpected become dispatch()'s 500.
}

HttpResponse GatewayServer::handle_session_open(std::uint64_t conn_id,
                                                const HttpRequest& req,
                                                const std::string& tenant) {
  const auto model = req.query_param("model");
  if (!model || model->empty())
    return error_response(400, "missing 'model' query parameter");
  if (server_.registry().find(*model) == nullptr)
    return error_response(404, "unknown model '" + *model + "'");

  serve::SessionOptions so;
  so.tenant = tenant;
  if (const std::string* h = req.header("x-sne-horizon")) {
    std::uint64_t v = 0;
    if (!parse_u64(*h, v) || v == 0 || v > serve::kMaxHorizonTimesteps)
      return error_response(
          400, "X-Sne-Horizon must be an integer in [1, " +
                   std::to_string(serve::kMaxHorizonTimesteps) + "]");
    so.horizon_timesteps = static_cast<std::uint16_t>(v);
  }
  if (const std::string* h = req.header("x-sne-heartbeat-ms")) {
    double ms = 0.0;
    if (!parse_positive_ms(*h, ms))
      return error_response(400, "malformed X-Sne-Heartbeat-Ms");
    so.heartbeat_timeout_ms = ms;
  }
  std::shared_ptr<serve::StreamingSession> session;
  try {
    session = server_.open_session(*model, std::move(so));
  } catch (const serve::TenantOverload& e) {
    return error_response(503, e.what());
  } catch (const ConfigError& e) {
    return error_response(400, e.what());
  }
  const std::uint64_t id = next_session_id_++;
  sessions_.emplace(id, SessionEntry{session, tenant, conn_id});
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    ++st_.sessions_opened;
    ++st_.sessions_open_now;
  }
  HttpResponse r;
  r.body = std::to_string(id);
  return r;
}

std::optional<HttpResponse> GatewayServer::handle_session_feed(
    std::uint64_t conn_id, std::uint64_t id, const HttpRequest& req,
    const std::string& tenant) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return error_response(404, "unknown session");
  if (it->second.tenant != tenant)
    return error_response(403, "session belongs to another tenant");
  const std::shared_ptr<serve::StreamingSession> session = it->second.session;
  std::optional<Clock::time_point> deadline;
  if (const std::string* t = req.header("x-sne-timeout-ms")) {
    double ms = 0.0;
    if (!parse_positive_ms(*t, ms))
      return error_response(400, "malformed X-Sne-Timeout-Ms");
    deadline = deadline_after_ms(Clock::now(), ms);
  }
  try {
    event::EventStream chunk =
        event::decode_stream(req.body.data(), req.body.size(), "request body");
    answer_when_settled(conn_id, session->feed(std::move(chunk), deadline));
    return std::nullopt;
  } catch (const serve::SessionClosed& e) {
    return error_response(410, e.what());
  } catch (const ConfigError& e) {
    return error_response(400, e.what());
  }
}

HttpResponse GatewayServer::handle_session_close(std::uint64_t id,
                                                 const std::string& tenant) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return error_response(404, "unknown session");
  if (it->second.tenant != tenant)
    return error_response(403, "session belongs to another tenant");
  server_.close_session(it->second.session);
  sessions_.erase(it);
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    ++st_.sessions_closed;
    if (st_.sessions_open_now > 0) --st_.sessions_open_now;
  }
  HttpResponse r;
  r.body = "closed\n";
  return r;
}

}  // namespace sne::net
