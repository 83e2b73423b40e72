// Loopback tests for the network gateway (src/net/): the HTTP front door
// must be a *transparent* transport — anything served over a socket is
// bitwise identical to the same call made in-process — and a hardened one:
// malformed bytes, oversized bodies, expired deadlines, overload and
// injected transport faults each map to exactly one well-formed HTTP error
// on exactly one connection, with the per-tenant accounting invariant
// (completed + failed == submitted) intact throughout.
//
// Every test stands up a real GatewayServer on 127.0.0.1:<ephemeral> and
// drives it with net/client.h (raw syscalls, so the server-side `net.*`
// fault-site hit indices stay deterministic).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/config.h"
#include "data/synthetic.h"
#include "event/event_io.h"
#include "net/client.h"
#include "net/gateway.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"

namespace sne {
namespace {

using core::SneConfig;
using ecnn::NetworkRunStats;
using ecnn::QuantizedLayerSpec;
using ecnn::QuantizedNetwork;
using serve::TenantConfig;
using serve::TenantStats;

QuantizedLayerSpec conv_layer(std::uint16_t in_ch, std::uint16_t size,
                              std::uint16_t out_ch, std::int32_t v_th,
                              std::uint64_t seed) {
  QuantizedLayerSpec l;
  l.type = ecnn::LayerSpec::Type::kConv;
  l.name = "conv";
  l.in_ch = in_ch;
  l.in_w = size;
  l.in_h = size;
  l.out_ch = out_ch;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  Rng rng(seed);
  for (auto& w : l.weights) w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

/// Single small conv — the infer round-trip model ({1,8,8,T} inputs).
QuantizedNetwork tiny_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 8, 2, 4, 21));
  return net;
}

/// conv -> conv that maps in pipeline mode on the 2-slice design point —
/// what /v1/session serves ({1,16,16,T} inputs).
QuantizedNetwork pipeline_net() {
  QuantizedNetwork net;
  net.layers.push_back(conv_layer(1, 16, 2, 4, 31));
  net.layers.push_back(conv_layer(2, 16, 2, 5, 32));
  net.layers.back().name = "conv2";
  return net;
}

std::vector<event::EventStream> split_chunks(const event::EventStream& full,
                                             std::uint16_t chunk_t) {
  std::vector<event::EventStream> chunks;
  const std::uint16_t total = full.geometry().timesteps;
  for (std::uint16_t t0 = 0; t0 < total; t0 += chunk_t) {
    event::StreamGeometry g = full.geometry();
    g.timesteps = std::min<std::uint16_t>(chunk_t, total - t0);
    event::EventStream c(g);
    for (event::Event e : full.events())
      if (e.t >= t0 && e.t < t0 + g.timesteps) {
        e.t = static_cast<std::uint16_t>(e.t - t0);
        c.push(e);
      }
    chunks.push_back(std::move(c));
  }
  return chunks;
}

const TenantStats& tenant_stats(const serve::ServerStats& st,
                                const std::string& name) {
  for (const TenantStats& t : st.tenants)
    if (t.name == name) return t;
  static const TenantStats none{};
  return none;
}

/// Registry("tiny", "pipe") + InferenceServer + GatewayServer on an
/// ephemeral loopback port, torn down in reverse order.
struct Stack {
  explicit Stack(net::GatewayConfig gc = anonymous_config(),
                 serve::ServeOptions so = serve_options()) {
    registry.put("tiny", tiny_net());
    registry.put("pipe", pipeline_net());
    server = std::make_unique<serve::InferenceServer>(
        registry, SneConfig::paper_design_point(2), so);
    gateway = std::make_unique<net::GatewayServer>(*server, gc);
  }

  static net::GatewayConfig anonymous_config() {
    net::GatewayConfig gc;
    gc.allow_anonymous = true;
    return gc;
  }
  static serve::ServeOptions serve_options() {
    serve::ServeOptions so;
    so.engines = 2;
    return so;
  }

  net::HttpClient connect() const {
    return net::HttpClient("127.0.0.1", gateway->port(), 15.0);
  }

  serve::ModelRegistry registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::GatewayServer> gateway;
};

// --- transparency ------------------------------------------------------------

TEST(GatewayTest, InferRoundTripIsBitwiseIdenticalToDirectSubmit) {
  Stack stack;
  net::HttpClient c = stack.connect();
  // Three keep-alive exchanges on one connection, each checked bitwise
  // against the in-process answer for the same input.
  for (std::uint64_t seed : {101u, 102u, 103u}) {
    const auto input = data::random_stream({1, 8, 8, 6}, 0.1, seed);
    const NetworkRunStats ref = stack.server->submit("tiny", input).wait();

    const net::ClientResponse r =
        c.request("POST", "/v1/infer?model=tiny", {}, event::encode_stream(input));
    ASSERT_EQ(r.status, 200) << r.body;
    const std::string* ct = r.header("content-type");
    ASSERT_NE(ct, nullptr);
    EXPECT_EQ(*ct, "application/x-sne-events");
    const std::string* cycles = r.header("x-sne-cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(*cycles, std::to_string(ref.cycles));
    EXPECT_EQ(r.body, event::encode_stream(ref.final_output));
  }
  const net::GatewayStats gs = stack.gateway->stats();
  EXPECT_EQ(gs.connections_accepted, 1u);
  EXPECT_EQ(gs.requests, 3u);
  EXPECT_EQ(gs.responses_2xx, 3u);
}

TEST(GatewayTest, ChunkedSessionMatchesInProcessSession) {
  Stack stack;
  const auto full = data::random_stream({1, 16, 16, 12}, 0.08, 77);
  const auto chunks = split_chunks(full, 4);

  // In-process reference session over the same chunk sequence.
  std::vector<std::uint64_t> ref_cycles;
  std::vector<std::string> ref_bodies;
  {
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 16;
    auto s = stack.server->open_session("pipe", sopts);
    for (const auto& chunk : chunks) {
      const NetworkRunStats r = s->feed(chunk).wait();
      ref_cycles.push_back(r.cycles);
      ref_bodies.push_back(event::encode_stream(r.final_output));
    }
    stack.server->close_session(s);
  }

  net::HttpClient c = stack.connect();
  const net::ClientResponse open = c.request(
      "POST", "/v1/session/open?model=pipe", {{"X-Sne-Horizon", "16"}});
  ASSERT_EQ(open.status, 200) << open.body;
  const std::string sid = open.body;
  ASSERT_FALSE(sid.empty());

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    // Each feed body travels as chunked transfer-encoding, split mid-blob,
    // so the parser's chunk reassembly is on the equivalence path too.
    const std::string blob = event::encode_stream(chunks[i]);
    const std::size_t half = blob.size() / 2;
    const net::ClientResponse r = c.request_chunked(
        "POST", "/v1/session/" + sid + "/feed",
        {blob.substr(0, half), blob.substr(half)});
    ASSERT_EQ(r.status, 200) << r.body;
    const std::string* cycles = r.header("x-sne-cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(*cycles, std::to_string(ref_cycles[i])) << "chunk " << i;
    EXPECT_EQ(r.body, ref_bodies[i]) << "chunk " << i;
  }

  EXPECT_EQ(c.request("POST", "/v1/session/" + sid + "/close").status, 200);
  // Closed id is gone; unknown ids and non-numeric ids 404.
  EXPECT_EQ(c.request("POST", "/v1/session/" + sid + "/feed").status, 404);
  EXPECT_EQ(c.request("POST", "/v1/session/999/feed").status, 404);
  EXPECT_EQ(c.request("POST", "/v1/session/abc/feed").status, 404);

  const net::GatewayStats gs = stack.gateway->stats();
  EXPECT_EQ(gs.sessions_opened, 1u);
  EXPECT_EQ(gs.sessions_closed, 1u);
  EXPECT_EQ(gs.sessions_open_now, 0u);
}

TEST(GatewayTest, SessionHorizonIsBoundedByTheEventClock) {
  Stack stack;
  net::HttpClient c = stack.connect();
  // 257 steps cannot be timestamped with 8-bit event times: a client error
  // at open, never a 500 mid-session.
  for (const char* bad : {"257", "0", "65535"}) {
    const net::ClientResponse r = c.request(
        "POST", "/v1/session/open?model=pipe", {{"X-Sne-Horizon", bad}});
    EXPECT_EQ(r.status, 400) << bad << ": " << r.body;
  }

  const net::ClientResponse open = c.request(
      "POST", "/v1/session/open?model=pipe", {{"X-Sne-Horizon", "256"}});
  ASSERT_EQ(open.status, 200) << open.body;
  const std::string sid = open.body;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const net::ClientResponse r = c.request_chunked(
        "POST", "/v1/session/" + sid + "/feed",
        {event::encode_stream(
            data::random_stream({1, 16, 16, 16}, 0.05, 500 + i))});
    ASSERT_EQ(r.status, 200) << "chunk " << i << ": " << r.body;
  }
  EXPECT_EQ(c.request("POST", "/v1/session/" + sid + "/close").status, 200);
}

TEST(GatewayTest, OutOfGeometryChunkIs400AndTheSessionCarriesOn) {
  Stack stack;
  const auto full = data::random_stream({1, 16, 16, 12}, 0.08, 79);
  const auto chunks = split_chunks(full, 4);

  std::vector<std::string> ref_bodies;
  {
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 16;
    auto s = stack.server->open_session("pipe", sopts);
    for (const auto& chunk : chunks)
      ref_bodies.push_back(event::encode_stream(s->feed(chunk).wait().final_output));
    stack.server->close_session(s);
  }

  // A 4-step body with a spike at step 4: encoded under a 5-step geometry,
  // then its header's timesteps word set to 4.
  const auto spike_past_last_step = [](std::uint8_t size) {
    event::EventStream wide({1, size, size, 5});
    wide.push_update(4, 0, 3, 3);
    std::string blob = event::encode_stream(wide);
    const std::uint32_t four = 4;
    std::memcpy(blob.data() + 4 * sizeof four, &four, sizeof four);
    return blob;
  };

  net::HttpClient c = stack.connect();
  // A one-shot infer with the same flaw is refused before it runs.
  EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny", {},
                      spike_past_last_step(8))
                .status,
            400);

  const net::ClientResponse open = c.request(
      "POST", "/v1/session/open?model=pipe", {{"X-Sne-Horizon", "16"}});
  ASSERT_EQ(open.status, 200) << open.body;
  const std::string sid = open.body;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i == 1) {
      const net::ClientResponse r =
          c.request("POST", "/v1/session/" + sid + "/feed", {},
                    spike_past_last_step(16));
      EXPECT_EQ(r.status, 400) << r.body;
    }
    const net::ClientResponse r =
        c.request("POST", "/v1/session/" + sid + "/feed", {},
                  event::encode_stream(chunks[i]));
    ASSERT_EQ(r.status, 200) << "chunk " << i << ": " << r.body;
    EXPECT_EQ(r.body, ref_bodies[i]) << "chunk " << i;
  }
  EXPECT_EQ(c.request("POST", "/v1/session/" + sid + "/close").status, 200);
  EXPECT_EQ(stack.gateway->stats().responses_5xx, 0u);
}

// --- authentication ----------------------------------------------------------

TEST(GatewayTest, AuthMapsTokensToTenantsAndRejectsTheRest) {
  net::GatewayConfig gc;
  gc.bearer_tokens["sk-acme"] = "acme";
  gc.bearer_tokens["sk-gone"] = "doomed";
  Stack stack(gc);
  stack.server->register_tenant("acme", TenantConfig{});
  stack.server->register_tenant("doomed", TenantConfig{});

  net::HttpClient c = stack.connect();
  const auto input = event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 7));

  // Health and metrics stay un-authenticated (probes and scrapers).
  EXPECT_EQ(c.request("GET", "/healthz").status, 200);
  EXPECT_EQ(c.request("GET", "/metrics").status, 200);

  const net::ClientResponse no_auth =
      c.request("POST", "/v1/infer?model=tiny", {}, input);
  EXPECT_EQ(no_auth.status, 401);
  ASSERT_NE(no_auth.header("www-authenticate"), nullptr);
  EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny",
                      {{"Authorization", "Basic Zm9v"}}, input)
                .status,
            401);
  EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny",
                      {{"Authorization", "Bearer sk-wrong"}}, input)
                .status,
            401);
  EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny",
                      {{"Authorization", "Bearer sk-acme"}}, input)
                .status,
            200);

  // An evicted tenant's still-valid token turns 403, not 401: the caller
  // is who they claim to be — they just aren't welcome anymore.
  stack.server->evict_tenant("doomed");
  EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny",
                      {{"Authorization", "Bearer sk-gone"}}, input)
                .status,
            403);

  const serve::ServerStats st = stack.server->stats();
  const TenantStats& acme = tenant_stats(st, "acme");
  EXPECT_EQ(acme.completed, 1u);
  EXPECT_EQ(acme.completed + acme.failed, acme.submitted);
}

// --- malformed input ---------------------------------------------------------

TEST(GatewayTest, MalformedRequestsGetClientErrorsNeverCrashes) {
  net::GatewayConfig gc = Stack::anonymous_config();
  gc.limits.max_body_bytes = 1024;
  Stack stack(gc);

  {  // Garbage request line: 400, then the gateway closes the connection.
    net::HttpClient c = stack.connect();
    c.send_raw("GARBAGE\r\n\r\n");
    EXPECT_EQ(c.read_response().status, 400);
    // The gateway closed the connection: the next exchange fails on send
    // (EPIPE) or on read (EOF), depending on when the RST lands.
    EXPECT_THROW(
        {
          c.send_raw("GET /healthz HTTP/1.1\r\n\r\n");
          c.read_response();
        },
        net::NetError);
  }
  {  // Oversized request line: 431.
    net::HttpClient c = stack.connect();
    c.send_raw("GET /" + std::string(10000, 'a') + " HTTP/1.1\r\n\r\n");
    EXPECT_EQ(c.read_response().status, 431);
  }
  {  // Content-Length and Transfer-Encoding together: 400.
    net::HttpClient c = stack.connect();
    c.send_raw(
        "POST /v1/infer HTTP/1.1\r\nContent-Length: 4\r\n"
        "Transfer-Encoding: chunked\r\n\r\n");
    EXPECT_EQ(c.read_response().status, 400);
  }
  {  // Duplicate Content-Length headers: 400 — ambiguous framing is the
    // classic request-smuggling vector, rejected per RFC 7230 3.3.3.
    net::HttpClient c = stack.connect();
    c.send_raw(
        "POST /v1/infer HTTP/1.1\r\nContent-Length: 100\r\n"
        "Content-Length: 0\r\n\r\n");
    EXPECT_EQ(c.read_response().status, 400);
  }
  {  // Chunked trailer flood: the trailer section hits the same 431 cap as
    // the header section instead of buffering without bound.
    net::HttpClient c = stack.connect();
    std::string req =
        "POST /v1/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        "0\r\n";
    for (int i = 0; i < 400; ++i)
      req += "X-Trailer-" + std::to_string(i) + ": " + std::string(40, 't') +
             "\r\n";
    c.send_raw(req);
    EXPECT_EQ(c.read_response().status, 431);
  }
  {  // Declared body above the limit: 413 without reading the body.
    net::HttpClient c = stack.connect();
    c.send_raw("POST /v1/infer HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
    EXPECT_EQ(c.read_response().status, 413);
  }
  {  // Chunked body crossing the limit mid-stream: 413. One send for the
    // whole request — the gateway closes as soon as the cap is crossed, and
    // a follow-up send would race that close into EPIPE.
    net::HttpClient c = stack.connect();
    c.send_raw(
        "POST /v1/infer?model=tiny HTTP/1.1\r\nHost: sne\r\n"
        "Transfer-Encoding: chunked\r\n\r\n"
        "258\r\n" +
        std::string(600, 'x') + "\r\n258\r\n" + std::string(600, 'y') +
        "\r\n0\r\n\r\n");
    EXPECT_EQ(c.read_response().status, 413);
  }
  {  // Routing and body-decode errors on a healthy connection.
    net::HttpClient c = stack.connect();
    EXPECT_EQ(c.request("GET", "/nope").status, 404);
    EXPECT_EQ(c.request("GET", "/v1/infer?model=tiny").status, 405);
    EXPECT_EQ(c.request("POST", "/v1/infer").status, 400);  // no model param
    EXPECT_EQ(c.request("POST", "/v1/infer?model=ghost").status, 404);
    const net::ClientResponse bad_body =
        c.request("POST", "/v1/infer?model=tiny", {}, "not an SNE1 stream");
    EXPECT_EQ(bad_body.status, 400);
    EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny",
                        {{"X-Sne-Timeout-Ms", "banana"}},
                        "")
                  .status,
              400);
    // The connection survived all of it.
    EXPECT_EQ(c.request("GET", "/healthz").status, 200);
  }
  const net::GatewayStats gs = stack.gateway->stats();
  EXPECT_GE(gs.parse_errors, 7u);
}

// --- deadlines and overload --------------------------------------------------

TEST(GatewayTest, QueueAgedDeadlineBecomes504) {
  serve::ServeOptions so = Stack::serve_options();
  so.engines = 1;
  Stack stack(Stack::anonymous_config(), so);

  // First dispatch stalls 1 s (wide enough that sanitizer slowdowns can't
  // close the window), so the second request's 30 ms budget burns in the
  // queue and it sheds with DeadlineExceeded -> 504.
  faults::FaultConfig fc;
  fc.rules.push_back({"serve.server.dispatch", {1}, 0.0, /*stall_ms=*/1000.0});
  faults::ScopedFaults chaos(fc);

  const std::string body =
      event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 9));
  net::HttpClient slow = stack.connect();
  net::HttpClient doomed = stack.connect();
  slow.send_raw("POST /v1/infer?model=tiny HTTP/1.1\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  doomed.send_raw(
      "POST /v1/infer?model=tiny HTTP/1.1\r\nX-Sne-Timeout-Ms: 30\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_EQ(doomed.read_response().status, 504);
  EXPECT_EQ(slow.read_response().status, 200);

  const serve::ServerStats st = stack.server->stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed + st.failed, st.submitted);
}

TEST(GatewayTest, TenantQueueOverloadBecomes503WithRetryAfter) {
  net::GatewayConfig gc;
  gc.bearer_tokens["sk-small"] = "small";
  serve::ServeOptions so = Stack::serve_options();
  so.engines = 1;
  Stack stack(gc, so);
  TenantConfig tc;
  tc.max_queue = 1;
  stack.server->register_tenant("small", tc);

  // The stall holds the tenant queue full while requests 2 and 3 arrive;
  // generous so sanitizer-slowed parsing can't outlive the window.
  faults::FaultConfig fc;
  fc.rules.push_back({"serve.server.dispatch", {1}, 0.0, /*stall_ms=*/1500.0});
  faults::ScopedFaults chaos(fc);

  const std::string body =
      event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 11));
  const std::string req =
      "POST /v1/infer?model=tiny HTTP/1.1\r\nAuthorization: Bearer sk-small\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  // Request 1 stalls inside dispatch, request 2 fills the queue (quota 1),
  // request 3 must shed: 503 with a Retry-After hint.
  net::HttpClient c1 = stack.connect();
  net::HttpClient c2 = stack.connect();
  net::HttpClient c3 = stack.connect();
  c1.send_raw(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  c2.send_raw(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  c3.send_raw(req);
  const net::ClientResponse shed = c3.read_response();
  EXPECT_EQ(shed.status, 503);
  ASSERT_NE(shed.header("retry-after"), nullptr);
  EXPECT_EQ(c1.read_response().status, 200);
  EXPECT_EQ(c2.read_response().status, 200);

  const serve::ServerStats st = stack.server->stats();
  const TenantStats& ts = tenant_stats(st, "small");
  EXPECT_EQ(ts.completed, 2u);
  EXPECT_EQ(ts.rejected, 1u);
  EXPECT_EQ(ts.completed + ts.failed, ts.submitted);
}

TEST(GatewayTest, ConnectionCapSheds503AndRecovers) {
  net::GatewayConfig gc = Stack::anonymous_config();
  gc.max_connections = 1;
  Stack stack(gc);

  net::HttpClient held = stack.connect();
  EXPECT_EQ(held.request("GET", "/healthz").status, 200);
  {
    net::HttpClient over = stack.connect();
    const net::ClientResponse r = over.read_response();
    EXPECT_EQ(r.status, 503);
    ASSERT_NE(r.header("retry-after"), nullptr);
  }
  held.close();
  // The slot frees once the held connection is reaped; a fresh client gets
  // through (poll until the IO thread notices the close).
  bool recovered = false;
  for (int i = 0; i < 50 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    try {
      net::HttpClient again = stack.connect();
      recovered = again.request("GET", "/healthz").status == 200;
    } catch (const net::NetError&) {
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(stack.gateway->stats().accept_rejected, 1u);
}

// --- connection deadlines ----------------------------------------------------

TEST(GatewayTest, SlowRequestsGet408AndIdleConnectionsAreReaped) {
  net::GatewayConfig gc = Stack::anonymous_config();
  gc.read_timeout_ms = 150;
  gc.idle_timeout_ms = 400;
  Stack stack(gc);

  {  // Half a request, then silence: 408 and close.
    net::HttpClient c = stack.connect();
    c.send_raw("POST /v1/infer HTTP/1.1\r\nContent-Le");
    const net::ClientResponse r = c.read_response();
    EXPECT_EQ(r.status, 408);
  }
  {  // Idle keep-alive connection: reaped without a response.
    net::HttpClient c = stack.connect();
    EXPECT_EQ(c.request("GET", "/healthz").status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    c.send_raw("GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_THROW(c.read_response(), net::NetError);
  }
  const net::GatewayStats gs = stack.gateway->stats();
  EXPECT_GE(gs.read_timeouts, 1u);
  EXPECT_GE(gs.idle_reaped, 1u);
  EXPECT_EQ(gs.connections_open, 0u);
}

// --- transport chaos ---------------------------------------------------------

TEST(GatewayTest, NetFaultsFailExactlyOneConnectionEach) {
  net::GatewayConfig gc;
  gc.bearer_tokens["sk-t"] = "t";
  Stack stack(gc);
  stack.server->register_tenant("t", TenantConfig{});

  const std::string body =
      event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 13));
  const std::vector<std::pair<std::string, std::string>> auth = {
      {"Authorization", "Bearer sk-t"}};
  const auto infer = [&](net::HttpClient& c) {
    return c.request("POST", "/v1/infer?model=tiny", auth, body);
  };

  {  // net.conn.read: the connection dies before the request parses.
    faults::FaultConfig fc;
    fc.rules.push_back({"net.conn.read", {1}, 0.0, 0.0});
    faults::ScopedFaults chaos(fc);
    net::HttpClient victim = stack.connect();
    EXPECT_THROW(infer(victim), net::NetError);
    net::HttpClient ok = stack.connect();
    EXPECT_EQ(infer(ok).status, 200);
  }
  {  // net.conn.write: the response is torn, but the server-side request
    // completed and stays counted — the ledger never forgets a torn client.
    faults::FaultConfig fc;
    fc.rules.push_back({"net.conn.write", {1}, 0.0, 0.0});
    faults::ScopedFaults chaos(fc);
    net::HttpClient victim = stack.connect();
    EXPECT_THROW(infer(victim), net::NetError);
    net::HttpClient ok = stack.connect();
    EXPECT_EQ(infer(ok).status, 200);
  }
  {  // net.accept: the freshly accepted connection is dropped on the floor;
    // the next one sails through.
    faults::FaultConfig fc;
    fc.rules.push_back({"net.accept", {1}, 0.0, 0.0});
    faults::ScopedFaults chaos(fc);
    net::HttpClient victim = stack.connect();
    EXPECT_THROW(infer(victim), net::NetError);
    net::HttpClient ok = stack.connect();
    EXPECT_EQ(infer(ok).status, 200);
  }

  const net::GatewayStats gs = stack.gateway->stats();
  EXPECT_EQ(gs.conn_read_failures, 1u);
  EXPECT_EQ(gs.conn_write_failures, 1u);
  EXPECT_EQ(gs.accept_faults, 1u);

  // Chaos accounting invariant: the torn-write request completed, the
  // torn-read and torn-accept ones never reached admission.
  const serve::ServerStats st = stack.server->stats();
  const TenantStats& ts = tenant_stats(st, "t");
  EXPECT_EQ(ts.submitted, 4u);
  EXPECT_EQ(ts.completed, 4u);
  EXPECT_EQ(ts.completed + ts.failed, ts.submitted);
}

// --- half-close --------------------------------------------------------------

TEST(GatewayTest, AbruptClientCloseFreesSessionQuotaPromptly) {
  net::GatewayConfig gc;
  gc.bearer_tokens["sk-s"] = "streamer";
  Stack stack(gc);
  TenantConfig tc;
  tc.max_sessions = 1;
  stack.server->register_tenant("streamer", tc);

  const std::vector<std::pair<std::string, std::string>> auth = {
      {"Authorization", "Bearer sk-s"}};
  {
    net::HttpClient c = stack.connect();
    const net::ClientResponse open =
        c.request("POST", "/v1/session/open?model=pipe", auth);
    ASSERT_EQ(open.status, 200) << open.body;
    // No heartbeat is configured: only the connection-teardown path can
    // release the quota slot. Destroying the client closes the TCP
    // connection abruptly, session still open.
  }
  // The gateway notices the half-close and tears the session down — a new
  // session for the same tenant must succeed well before any idle expiry.
  bool reopened = false;
  net::ClientResponse last{};
  for (int i = 0; i < 100 && !reopened; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    net::HttpClient c = stack.connect();
    last = c.request("POST", "/v1/session/open?model=pipe", auth);
    if (last.status == 200) {
      reopened = true;
      EXPECT_EQ(
          c.request("POST", "/v1/session/" + last.body + "/close", auth).status,
          200);
    }
  }
  EXPECT_TRUE(reopened) << "last status " << last.status << ": " << last.body;
  EXPECT_EQ(stack.gateway->stats().sessions_torn_down, 1u);
}

// --- one dispatch path --------------------------------------------------------

/// Runs one client exchange on its own thread and waits at most `budget`
/// for it, so a wedged front door fails the test instead of hanging it.
/// nullopt = no answer in time (the exchange may still finish later).
std::optional<net::ClientResponse> answer_within(
    std::future<net::ClientResponse>& f, std::chrono::milliseconds budget) {
  if (f.wait_for(budget) != std::future_status::ready) return std::nullopt;
  try {
    return f.get();
  } catch (const net::NetError&) {
    return std::nullopt;
  }
}

TEST(GatewayTest, SessionsOutnumberEnginesAndNeverBlockTheFrontDoor) {
  net::GatewayConfig gc = Stack::anonymous_config();
  gc.bearer_tokens["sk-s"] = "streamer";
  Stack stack(gc);  // engines = 2
  stack.server->register_tenant("streamer", TenantConfig{});
  const std::vector<std::pair<std::string, std::string>> auth = {
      {"Authorization", "Bearer sk-s"}};

  // In-process reference: each session's first chunk through its own
  // session on the same server.
  std::vector<std::string> chunks, ref_bodies, ref_cycles;
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    const auto chunk = data::random_stream({1, 16, 16, 4}, 0.1, seed);
    serve::SessionOptions sopts;
    sopts.horizon_timesteps = 16;
    auto s = stack.server->open_session("pipe", sopts);
    const NetworkRunStats r = s->feed(chunk).wait();
    stack.server->close_session(s);
    chunks.push_back(event::encode_stream(chunk));
    ref_bodies.push_back(event::encode_stream(r.final_output));
    ref_cycles.push_back(std::to_string(r.cycles));
  }

  // Three sessions on two engines: a session holds no engine between
  // chunks, so every open answers 200.
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  std::vector<std::string> sids;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<net::HttpClient>(
        "127.0.0.1", stack.gateway->port(), 15.0));
    const net::ClientResponse open = clients.back()->request(
        "POST", "/v1/session/open?model=pipe",
        {auth[0], {"X-Sne-Horizon", "16"}});
    ASSERT_EQ(open.status, 200) << "open " << i << ": " << open.body;
    sids.push_back(open.body);
  }

  const auto exchange = [&](std::string method, std::string target,
                            std::string body, bool authed) {
    return std::async(std::launch::async, [&stack, &auth, method, target,
                                           body, authed] {
      net::HttpClient c("127.0.0.1", stack.gateway->port(), 5.0);
      return c.request(method, target,
                       authed ? auth
                              : std::vector<std::pair<std::string,
                                                      std::string>>{},
                       body);
    });
  };
  // The front door stays live, and a one-shot still gets an engine.
  auto health = exchange("GET", "/healthz", "", false);
  const auto rh = answer_within(health, std::chrono::milliseconds(1000));
  auto infer = exchange(
      "POST", "/v1/infer?model=tiny",
      event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 23)), false);
  const auto ri = answer_within(infer, std::chrono::milliseconds(5000));
  // Each session's chunk matches its in-process reference.
  for (std::size_t i = 0; i < sids.size(); ++i) {
    const net::ClientResponse r = clients[i]->request(
        "POST", "/v1/session/" + sids[i] + "/feed", auth, chunks[i]);
    ASSERT_EQ(r.status, 200) << "session " << i << ": " << r.body;
    const std::string* cycles = r.header("x-sne-cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(*cycles, ref_cycles[i]) << "session " << i;
    EXPECT_EQ(r.body, ref_bodies[i]) << "session " << i;
  }
  stack.server->evict_tenant("streamer");

  ASSERT_TRUE(rh.has_value()) << "/healthz got no answer within 1 s";
  EXPECT_EQ(rh->status, 200);
  ASSERT_TRUE(ri.has_value()) << "/v1/infer got no answer within 5 s";
  EXPECT_EQ(ri->status, 200) << ri->body;
  EXPECT_EQ(stack.gateway->stats().dispatch_rejected, 0u);
}

TEST(GatewayTest, DefaultSessionQuotaAnswers503) {
  Stack stack;
  // A tenant that sets no quota still has one: the 65th open of the
  // default tenant is a TenantOverload, surfaced as 503 + Retry-After.
  net::HttpClient c = stack.connect();
  for (int i = 0; i < 64; ++i)
    ASSERT_EQ(c.request("POST", "/v1/session/open?model=pipe").status, 200)
        << "open " << i;
  const net::ClientResponse r =
      c.request("POST", "/v1/session/open?model=pipe");
  EXPECT_EQ(r.status, 503) << r.body;
  EXPECT_NE(r.header("retry-after"), nullptr);
  EXPECT_NE(r.body.find("max_sessions"), std::string::npos) << r.body;
  EXPECT_EQ(stack.gateway->stats().dispatch_rejected, 0u);
}

// --- graceful drain ----------------------------------------------------------

TEST(GatewayTest, ShutdownDrainsInflightRequestsBeforeClosing) {
  Stack stack;
  faults::FaultConfig fc;
  fc.rules.push_back({"serve.server.dispatch", {1}, 0.0, /*stall_ms=*/250.0});
  faults::ScopedFaults chaos(fc);

  const std::string body =
      event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 17));
  net::HttpClient c = stack.connect();
  int status = 0;
  bool closed_after = false;
  std::thread client([&] {
    const net::ClientResponse r =
        c.request("POST", "/v1/infer?model=tiny", {}, body);
    status = r.status;
    const std::string* conn = r.header("connection");
    closed_after = conn != nullptr && *conn == "close";
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::uint16_t port = stack.gateway->port();
  stack.gateway->shutdown();
  client.join();

  // The in-flight request finished with a complete response (stamped
  // Connection: close), and the listener is gone.
  EXPECT_EQ(status, 200);
  EXPECT_TRUE(closed_after);
  EXPECT_THROW(net::HttpClient("127.0.0.1", port), net::NetError);
  EXPECT_EQ(stack.gateway->stats().connections_open, 0u);
}

TEST(GatewayTest, TicketSettlingAfterForcedDrainIsDropped) {
  net::GatewayConfig gc = Stack::anonymous_config();
  gc.drain_timeout_ms = 50;
  serve::ServeOptions so = Stack::serve_options();
  so.engines = 1;
  Stack stack(gc, so);
  // The one dispatch stalls well past the drain window.
  faults::FaultConfig fc;
  fc.rules.push_back({"serve.server.dispatch", {1}, 0.0, /*stall_ms=*/1000.0});
  faults::ScopedFaults chaos(fc);

  const std::string body =
      event::encode_stream(data::random_stream({1, 8, 8, 4}, 0.1, 29));
  net::HttpClient c = stack.connect();
  c.send_raw("POST /v1/infer?model=tiny HTTP/1.1\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // shutdown() force-closes the in-flight connection at drain_timeout_ms,
  // and the gateway is destroyed, while the ticket is still running.
  stack.gateway->shutdown();
  EXPECT_THROW(c.read_response(), net::NetError);
  EXPECT_EQ(stack.server->stats().completed, 0u);
  stack.gateway.reset();

  // The ticket settles afterwards on a dispatch worker; its completion
  // callback posts into the disarmed inbox and is dropped (ASan builds
  // check that nothing freed is touched).
  auto drained = std::async(std::launch::async,
                            [&stack] { stack.server->drain(); });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const serve::ServerStats st = stack.server->stats();
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.completed + st.failed, st.submitted);
}

// --- observability -----------------------------------------------------------

TEST(GatewayTest, MetricsExposeGatewayFamilies) {
  Stack stack;
  net::HttpClient c = stack.connect();
  EXPECT_EQ(c.request("POST", "/v1/infer?model=tiny", {},
                      event::encode_stream(
                          data::random_stream({1, 8, 8, 4}, 0.1, 19)))
                .status,
            200);
  const net::ClientResponse r = c.request("GET", "/metrics");
  ASSERT_EQ(r.status, 200);
  const std::string* ct = r.header("content-type");
  ASSERT_NE(ct, nullptr);
  EXPECT_NE(ct->find("text/plain"), std::string::npos);
  for (const char* family :
       {"sne_gateway_connections_accepted_total", "sne_gateway_requests_total",
        "sne_gateway_responses_total", "sne_gateway_bytes_in_total",
        "sne_server_submitted_total", "sne_tenant_submitted_total"}) {
    EXPECT_NE(r.body.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace sne
