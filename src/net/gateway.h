// GatewayServer: the hardened HTTP/TCP front door of the serving stack
// (ROADMAP item 4's transport half; PR 8 built the in-process admission
// machinery it fronts). Dependency-free POSIX sockets, in the shape of
// distributed-llama's dllama-api server but with this repo's robustness
// discipline: every limit bounded, every failure mapped to a status code,
// every teardown accounted, chaos injectable at three `net.*` fault sites.
//
// Threading: one IO thread owns the listening socket and every connection
// fd — it accepts, polls, reads request bytes into per-connection
// HttpParsers, runs the route handlers, and writes serialized responses
// back (all nonblocking). No handler blocks: /healthz, /metrics, auth,
// session open and close answer at once (opening a session plans the
// pipeline without leasing an engine or simulating), while /v1/infer and
// session feeds submit to the InferenceServer and register a
// Ticket::on_settled callback. The dispatch worker that settles the ticket
// builds the HTTP response (SNE1 encode included), posts it to the
// gateway's completion inbox and wakes the IO thread through a self-pipe.
// A connection with a request in flight is still polled (events = 0) so a
// client hang-up is noticed promptly.
//
// Endpoints:
//   GET  /healthz                  liveness ("ok"); unauthenticated
//   GET  /metrics                  Prometheus exposition of the process
//                                  registry (gateway + server + fault
//                                  families published at scrape time);
//                                  unauthenticated — deploy accordingly
//   POST /v1/infer?model=M        one SNE1 event-stream blob in, the final
//                                  output stream out (X-Sne-Cycles header);
//                                  maps onto InferenceServer::try_submit
//   POST /v1/session/open?model=M opens a streaming session; the decimal
//                                  session id is the response body
//                                  (X-Sne-Horizon, at most 256 steps,
//                                  and X-Sne-Heartbeat-Ms request
//                                  headers configure it)
//   POST /v1/session/<id>/feed    one request body (Content-Length or
//                                  chunked) ≡ one session chunk; output
//                                  events + X-Sne-Cycles back
//   POST /v1/session/<id>/close   graceful session close
//
// Auth: every /v1 request carries `Authorization: Bearer <token>`; the
// static token → tenant map lives in GatewayConfig. Unknown token → 401,
// token of an evicted tenant → 403. The mapped tenant is what the request
// is accounted to (RequestOptions::tenant / SessionOptions::tenant).
//
// Error mapping (the serve-layer taxonomy surfaced as HTTP):
//   DeadlineExceeded         504   X-Sne-Timeout-Ms budget burned
//   TenantOverload           503 + Retry-After (queue displacement,
//                                  tenant eviction, session quota:
//                                  max_sessions, 64 by default)
//   try_submit queue-full    503 + Retry-After
//   DispatchRefused          503 + Retry-After (session FIFO full, chunk
//                                  refused by a full tenant queue)
//   SessionClosed            410
//   unknown model / session  404   (ConfigError from resolve also 400)
//   ChunkError / FaultError  500
//   parse violations         400 / 413 / 431 (see net/http.h)
//   read deadline mid-request 408, then the connection closes
//
// Hardening: connection cap (accepts past it answer a static 503 +
// Retry-After and close), per-connection read/write deadlines, idle
// keep-alive reaping, bounded request bodies, and graceful drain shutdown:
// shutdown() stops accepting, lets in-flight requests flush their
// responses (Connection: close forced), force-closes stragglers at
// drain_timeout_ms (closing the sessions each connection opened), then
// disarms the completion inbox (a ticket that settles later drops its
// response). Sessions are bound to the connection that opened them — a
// client vanishing mid-session tears its sessions down through
// InferenceServer::close_session immediately (the half-close fix) instead
// of waiting for heartbeat expiry.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "serve/server.h"

namespace sne::net {

struct GatewayConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  /// Accept backpressure: connections past this answer 503 + Retry-After.
  std::size_t max_connections = 64;
  HttpLimits limits;
  /// Mid-request read stall budget (partial request, no new bytes) → 408.
  double read_timeout_ms = 5000.0;
  /// Response flush stall budget → teardown (the client stopped draining).
  double write_timeout_ms = 5000.0;
  /// Keep-alive idle budget (no request in progress) → silent close.
  double idle_timeout_ms = 30000.0;
  /// shutdown(): in-flight grace before stragglers are force-closed.
  double drain_timeout_ms = 10000.0;
  /// Static bearer-token → tenant map. Tenants must be registered with the
  /// InferenceServer separately; kDefaultTenant ("") is a valid target.
  std::map<std::string, std::string> bearer_tokens;
  /// Let /v1 requests without an Authorization header through as the
  /// default tenant (loopback benches); off = such requests answer 401.
  bool allow_anonymous = false;
};

/// Monotonic gateway counters + point-in-time gauges; snapshot via stats(),
/// published to the metrics registry as sne_gateway_* (obs/adapters.h).
struct GatewayStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;   ///< gauge
  std::uint64_t peak_connections = 0;
  std::uint64_t accept_rejected = 0;    ///< connection cap 503s
  std::uint64_t accept_faults = 0;      ///< net.accept injections torn
  /// 503s answered because the server refused dispatch: tenant queue full
  /// or session chunk FIFO full.
  std::uint64_t dispatch_rejected = 0;
  std::uint64_t requests = 0;           ///< complete requests parsed
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_3xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t conn_read_failures = 0;   ///< torn reads (incl. injected)
  std::uint64_t conn_write_failures = 0;  ///< torn writes (incl. injected)
  std::uint64_t read_timeouts = 0;        ///< 408s
  std::uint64_t write_timeouts = 0;
  std::uint64_t idle_reaped = 0;
  std::uint64_t parse_errors = 0;  ///< malformed/oversized requests answered
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;     ///< client-requested closes
  std::uint64_t sessions_torn_down = 0;  ///< half-close teardown path
  std::uint64_t sessions_open_now = 0;   ///< gauge
};

class GatewayServer {
 public:
  /// Binds, listens and starts the IO thread; throws NetError /
  /// ConfigError on failure. The server reference is borrowed and must
  /// outlive the gateway.
  GatewayServer(serve::InferenceServer& server, GatewayConfig cfg);
  ~GatewayServer();  ///< shutdown() if still running

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// The bound port (resolves an ephemeral config port 0).
  std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, flush in-flight responses, close.
  /// Blocks until the gateway is fully down; idempotent and callable from
  /// any thread (the sne_gateway binary calls it from its SIGTERM path).
  void shutdown();

  GatewayStats stats() const;

 private:
  struct Conn;
  /// A finished response for a connection, produced by a ticket callback.
  struct Completion {
    std::uint64_t conn_id = 0;
    HttpResponse resp;
    bool dispatch_rejected = false;  ///< a DispatchRefused 503
  };
  /// Lock-guarded completion list shared with every pending ticket
  /// callback; shutdown() disarms it, so a ticket that settles after the
  /// gateway is gone drops its response instead of touching freed memory.
  struct Inbox;
  struct SessionEntry {
    std::shared_ptr<serve::StreamingSession> session;
    std::string tenant;
    std::uint64_t owner_conn = 0;
  };

  void io_loop();
  void accept_ready();
  void conn_readable(Conn& c);
  void conn_writable(Conn& c);
  /// Routes a completed request or answers a parse error. Like every
  /// method below that writes, the connection may be gone afterwards.
  void after_parse(Conn& c, HttpParser::Status st);
  /// The connection's current IO deadline (read/write/idle phase), or
  /// nullopt while a ticket owns the request.
  std::optional<std::chrono::steady_clock::time_point> conn_deadline(
      const Conn& c) const;
  /// Closes the fd, erases the connection, and closes its sessions.
  /// Never throws.
  void teardown(std::uint64_t conn_id);
  /// Closes the sessions `conn_id` opened (never blocks).
  void reap_conn_sessions(std::uint64_t conn_id);
  void dispatch(Conn& c);
  /// Serializes `resp` onto the connection's write buffer (forcing close
  /// while draining) and starts flushing.
  void start_response(Conn& c, const HttpResponse& resp);
  void wake();
  /// Answers `conn_id` once `ticket` settles (via the inbox).
  void answer_when_settled(std::uint64_t conn_id, const serve::Ticket& ticket);
  /// The HTTP answer for a settled ticket. Runs on the settling thread, so
  /// it touches no gateway state.
  static Completion settled_response(std::uint64_t conn_id,
                                     const serve::Ticket& ticket);
  void count_dispatch_rejected();

  // Route handlers (IO thread). nullopt = answered later by a ticket.
  std::optional<HttpResponse> route(std::uint64_t conn_id,
                                    const HttpRequest& req);
  HttpResponse handle_metrics();
  std::optional<HttpResponse> handle_infer(std::uint64_t conn_id,
                                           const HttpRequest& req,
                                           const std::string& tenant);
  HttpResponse handle_session_open(std::uint64_t conn_id,
                                   const HttpRequest& req,
                                   const std::string& tenant);
  std::optional<HttpResponse> handle_session_feed(std::uint64_t conn_id,
                                                  std::uint64_t id,
                                                  const HttpRequest& req,
                                                  const std::string& tenant);
  HttpResponse handle_session_close(std::uint64_t id,
                                    const std::string& tenant);
  /// Resolves the request's tenant (Authorization: Bearer). False = `resp`
  /// holds the 401/403 answer.
  bool authenticate(const HttpRequest& req, std::string& tenant,
                    HttpResponse& resp);

  serve::InferenceServer& server_;
  GatewayConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_rd_ = -1;  ///< self-pipe: completions and shutdown nudge the poll
  int wake_wr_ = -1;

  std::thread io_thread_;
  std::shared_ptr<Inbox> inbox_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_m_;  ///< serializes shutdown() callers

  // IO-thread-owned state (no lock: only io_loop touches it, and
  // shutdown() after joining the IO thread).
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, SessionEntry> sessions_;
  std::uint64_t next_session_id_ = 1;

  mutable std::mutex stats_m_;
  GatewayStats st_;
};

}  // namespace sne::net
