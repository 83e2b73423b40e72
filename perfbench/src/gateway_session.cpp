// gateway-session: streaming sessions over loopback HTTP (/v1/session/*).
//
// Four concurrent sessions, one connection and one tenant each, feed
// fixed-timestep gesture-like chunks (4 steps of a 1x16x16 event stream,
// chunked transfer-encoding bodies) on a fixed per-session sensor cadence.
// This is the path
// gateway-infer never touches: one OS thread per session, pipeline-mode
// programming at open (paper III-D.5), per-chunk neuron-state snapshots and
// chunk rebasing; it bypasses DRR and time-multiplexed mapping. A sparse
// phase (generator default rates) is followed by a dense one (4x blob rate).
//
// Session clock limit: every session closes and reopens after 60 chunks
// (240 steps). Event timestamps are 8-bit (event::kMaxTime = 255) while
// SessionOptions::horizon_timesteps defaults to 1024 and the gateway accepts
// X-Sne-Horizon up to 65535, so the feed that crosses step 256 fails with a
// 500 "precondition failed: (e.t <= kMaxTime)" (the 65th 4-step chunk).
// The rotation works around that defect; it is not part of what is timed.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>

#include "core/config.h"
#include "data/synthetic.h"
#include "event/event_io.h"
#include "gateway_common.h"
#include "models.h"
#include "net/client.h"
#include "net/http.h"
#include "workloads.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr std::uint16_t kChunkSteps = 4;
constexpr std::size_t kChunksPerSession = 60;  // 240 steps < 256
constexpr std::uint16_t kHorizon = kChunkSteps * kChunksPerSession;
// Sensor cadence per session. A dense chunk costs about twice a sparse one,
// so the dense phase feeds half as often: both keep each session's thread
// about half busy. Slower cadences leave the box idle between chunks, and
// the wake-up jitter of an idle 4-vCPU box then dominates every figure.
constexpr double kSparsePeriodS = 0.001;
constexpr double kDensePeriodS = 0.002;
constexpr unsigned kEngines = kConnections;  // a session holds its engine
constexpr int kSetupReps = 11;
constexpr unsigned kRounds = 10;  // alternating sparse / dense sub-phases

/// One chunk sequence: a gesture-like stream cut into 4-step chunks, with
/// the in-process replay session's answer for every chunk.
struct Sequence {
  event::EventStream stream;  ///< whole 240-step stream
  std::vector<event::EventStream> chunks;
  std::vector<std::string> blobs;  ///< SNE1-encoded chunks
  std::vector<std::string> ref_bodies;
  std::vector<std::uint64_t> ref_cycles;
  std::vector<ecnn::NetworkRunStats> ref;
};

/// Synthetic gestures on a 16x16 sensor with both polarities merged into
/// the model's single input channel.
std::vector<Sequence> make_sequences(std::uint64_t seed, bool dense) {
  data::GestureConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.timesteps = kHorizon;
  cfg.samples_per_class = 1;
  cfg.seed = seed;
  if (dense) cfg.blob_rate *= 4;
  std::vector<Sequence> out;
  for (const auto& s : data::make_gesture_dataset(cfg).samples) {
    Sequence q;
    q.stream = event::EventStream({1, 16, 16, kHorizon});
    std::set<std::tuple<std::uint16_t, std::uint8_t, std::uint8_t>> seen;
    for (const event::Event& e : s.stream.events())
      if (e.op == event::Op::kUpdate && seen.insert({e.t, e.y, e.x}).second)
        q.stream.push_update(e.t, 0, e.x, e.y);
    q.stream.normalize();
    for (std::size_t k = 0; k < kChunksPerSession; ++k) {
      event::EventStream c({1, 16, 16, kChunkSteps});
      for (event::Event e : q.stream.events())
        if (e.t / kChunkSteps == k) {
          e.t = static_cast<std::uint16_t>(e.t % kChunkSteps);
          c.push(e);
        }
      q.blobs.push_back(event::encode_stream(c));
      q.chunks.push_back(std::move(c));
    }
    out.push_back(std::move(q));
  }
  return out;
}

void build_references(std::vector<Sequence>& seqs,
                      const ecnn::QuantizedNetwork& net) {
  serve::ModelRegistry registry;
  registry.put("pipe", net);
  serve::ServeOptions so;
  so.engines = 1;
  serve::InferenceServer server(registry, core::SneConfig::paper_design_point(2),
                                so);
  serve::SessionOptions sopts;
  sopts.horizon_timesteps = kHorizon;
  for (Sequence& q : seqs) {
    auto s = server.open_session("pipe", sopts);
    for (const auto& c : q.chunks) {
      q.ref.push_back(s->feed(c).wait());
      q.ref_bodies.push_back(event::encode_stream(q.ref.back().final_output));
      q.ref_cycles.push_back(q.ref.back().cycles);
    }
    server.close_session(s);
  }
}

/// HTTP session client: one keep-alive connection, one tenant.
class HttpSessions {
 public:
  HttpSessions(std::uint16_t port, unsigned tenant)
      : port_(port), auth_{{"Authorization", bearer(tenant)}} {
    connect();
  }
  bool open() {
    return call([&] {
      Span s("net.session.open");
      auto hdrs = auth_;
      hdrs.emplace_back("X-Sne-Horizon", std::to_string(kHorizon));
      const net::ClientResponse r =
          http_->request("POST", "/v1/session/open?model=pipe", hdrs);
      sid_ = r.body;
      return r.status == 200 && !sid_.empty();
    });
  }
  bool feed(const Sequence& q, std::size_t k) {
    return call([&] {
      Span s("net.session.feed");
      const std::string& blob = q.blobs[k];
      const std::size_t half = blob.size() / 2;
      const net::ClientResponse r = http_->request_chunked(
          "POST", "/v1/session/" + sid_ + "/feed",
          {blob.substr(0, half), blob.substr(half)}, auth_);
      const std::string* cyc = r.header("x-sne-cycles");
      return r.status == 200 && cyc != nullptr && r.body == q.ref_bodies[k] &&
             std::strtoull(cyc->c_str(), nullptr, 10) == q.ref_cycles[k];
    });
  }
  bool close() {
    return call([&] {
      Span s("net.session.close");
      return http_->request("POST", "/v1/session/" + sid_ + "/close", auth_)
                 .status == 200;
    });
  }

 private:
  template <typename F>
  bool call(F f) {
    try {
      return f();
    } catch (const net::NetError&) {
      connect();
      return false;
    }
  }
  void connect() {
    http_.emplace("127.0.0.1", port_);
    set_nodelay(http_->fd());
  }
  std::uint16_t port_;
  std::vector<std::pair<std::string, std::string>> auth_;
  std::optional<net::HttpClient> http_;
  std::string sid_;
};

/// The same protocol in-process: InferenceServer::open_session and
/// StreamingSession::feed, no sockets. A thrown error is a failed operation.
class InProcSessions {
 public:
  InProcSessions(serve::InferenceServer& server, unsigned tenant)
      : server_(server), tenant_(kTenantName[tenant]) {}
  bool open() {
    Span s("serve.InferenceServer.open_session");
    serve::SessionOptions so;
    so.tenant = tenant_;
    so.horizon_timesteps = kHorizon;
    return call([&] {
      session_ = server_.open_session("pipe", so);
      return true;
    });
  }
  bool feed(const Sequence& q, std::size_t k) {
    Span s("serve.StreamingSession.feed");
    return call([&] {
      const serve::Ticket ticket = session_->feed(q.chunks[k]);
      const ecnn::NetworkRunStats& r = ticket.wait();
      return r.cycles == q.ref_cycles[k] &&
             r.final_output == q.ref[k].final_output;
    });
  }
  bool close() {
    Span s("serve.InferenceServer.close_session");
    server_.close_session(session_);
    session_.reset();
    return true;
  }

 private:
  template <typename F>
  static bool call(F f) {
    try {
      return f();
    } catch (const std::exception&) {
      return false;
    }
  }

  serve::InferenceServer& server_;
  std::string tenant_;
  std::shared_ptr<serve::StreamingSession> session_;
};

struct SessionPhase {
  Phase chunks;
  std::vector<double> open_ms;
  std::uint64_t failed_controls = 0;  ///< opens/closes that failed
};

/// Each client thread runs sessions back to back over `seqs`: open, feed
/// chunk k at its sensor-clock due time (start + j * period, staggered per
/// client), close after 60 chunks, reopen. Stops feeding at `duration_s`.
template <typename Client, typename MakeClient>
SessionPhase run_sessions(const std::vector<Sequence>& seqs, double period_s,
                          double duration_s, MakeClient make) {
  SessionPhase sp;
  std::vector<std::vector<double>> open_ms(kConnections);
  std::atomic<std::uint64_t> failed_controls{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  sp.chunks = run_phase(kConnections, [&](unsigned t, std::vector<Outcome>& out) {
    Client c = make(t);
    std::size_t j = 0;  // this client's sensor clock (chunk slots)
    const double offset = period_s * t / kConnections;
    for (std::size_t life = 0;; ++life) {
      const double next_due = offset + static_cast<double>(j) * period_s;
      if (next_due >= duration_s) return;
      const Sequence& q = seqs[(t + life * kConnections) % seqs.size()];
      const auto t_open = Clock::now();
      if (!c.open()) {
        ++failed_controls;
        return;
      }
      open_ms[t].push_back(ms_between(t_open, Clock::now()));
      for (std::size_t k = 0; k < kChunksPerSession; ++k, ++j) {
        const double due_s = offset + static_cast<double>(j) * period_s;
        if (due_s >= duration_s) break;
        const auto due = at(start, due_s);
        const auto picked = Clock::now();
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        Span s("session.chunk", (t + 1) * 1000000 + j);
        const bool ok = c.feed(q, k);
        const auto done = Clock::now();
        out.push_back({ms_between(due, done), ms_between(sent, done),
                       lag_ms(due, picked, sent), ok, t});
      }
      if (!c.close()) ++failed_controls;
    }
  });
  for (auto& v : open_ms) sp.open_ms.insert(sp.open_ms.end(), v.begin(), v.end());
  sp.failed_controls = failed_controls.load();
  return sp;
}

void count_outcomes(const SessionPhase& sp, Report& rep) {
  for (const Outcome& o : sp.chunks.outcomes) rep.count(o.ok, "session feed");
  for (std::size_t i = 0; i < sp.open_ms.size(); ++i)
    rep.count(true, "session open");
  for (std::uint64_t i = 0; i < sp.failed_controls; ++i)
    rep.count(false, "session open/close");
}

SimTotals totals_of(const std::vector<Sequence>& seqs) {
  SimTotals t;
  for (const Sequence& q : seqs)
    for (std::size_t k = 0; k < q.ref.size(); ++k)
      t.add(q.ref[k], q.chunks[k].update_count());
  return t;
}

}  // namespace

void run_gateway_session(const Args& args, Report& rep) {
  const ecnn::QuantizedNetwork net = pipe_network();
  std::vector<Sequence> sparse = make_sequences(mix_seed(args.seed, 1), false);
  std::vector<Sequence> dense = make_sequences(mix_seed(args.seed, 2), true);
  build_references(sparse, net);
  build_references(dense, net);

  // Setup: stack up, clients connected, and one session opened and closed
  // per engine (pipeline programming touches every engine once).
  std::unique_ptr<Stack> stack;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    stack.reset();
    stack = std::make_unique<Stack>(net, kEngines);
    std::vector<std::unique_ptr<HttpSessions>> prime;
    for (unsigned t = 0; t < kConnections; ++t) {
      prime.push_back(
          std::make_unique<HttpSessions>(stack->gateway->port(), t));
      rep.count(prime.back()->open(), "priming session open");
    }
    for (auto& p : prime) rep.count(p->close(), "priming session close");
  });

  const auto http = [&](unsigned t) {
    return HttpSessions(stack->gateway->port(), t);
  };
  const double warmup_s = 0.5;
  count_outcomes(
      run_sessions<HttpSessions>(sparse, kSparsePeriodS, warmup_s, http), rep);

  if (!args.trace) {
    Rounds sparse_r, dense_r;
    std::vector<double> open_ms;
    const double span_s = args.seconds / (2 * kRounds);
    for (unsigned r = 0; r < kRounds; ++r) {
      for (const bool is_dense : {false, true}) {
        const SessionPhase p = run_sessions<HttpSessions>(
            is_dense ? dense : sparse,
            is_dense ? kDensePeriodS : kSparsePeriodS, span_s, http);
        count_outcomes(p, rep);
        (is_dense ? dense_r : sparse_r).add(p.chunks);
        open_ms.insert(open_ms.end(), p.open_ms.begin(), p.open_ms.end());
      }
    }
    rep.set("setup_s", setup_s, "s");
    rep.set("inf_per_s.sparse", median(sparse_r.ok_per_cpu_s), "inf/s");
    rep.set("inf_per_s.dense", median(dense_r.ok_per_cpu_s), "inf/s");
    rep.set("latency_p50_ms", median(sparse_r.p50_ms), "ms");
    rep.set("latency_p90_ms", median(sparse_r.p90_ms), "ms");
    rep.set("loaded_latency_p90_ms", median(dense_r.p90_ms), "ms");
    const double lag =
        std::max(median(sparse_r.lag_p99_ms), median(dense_r.lag_p99_ms));
    if (lag > kMaxGenLagMs)
      rep.invalid_reason = "generator lag p99 " + std::to_string(lag) + " ms";
    std::printf(
        "gateway-session: %u sessions, %u rounds of sparse + dense x %.1f s; "
        "%zu + %zu chunks, %.2f + %.2f server CPU-s; %zu session opens, open "
        "p50 %.3f ms; generator lag p99 %.3f ms\n",
        kConnections, kRounds, span_s, sparse_r.ops, dense_r.ops,
        sparse_r.all.server_cpu_s, dense_r.all.server_cpu_s, open_ms.size(),
        median(open_ms), lag);
    std::printf("  sparse chunk latency %s\n  dense chunk latency  %s\n",
                sparse_r.all.summary().c_str(), dense_r.all.summary().c_str());
    report_energy(rep, core::SneConfig::paper_design_point(2),
                  totals_of(sparse), totals_of(dense),
                  "session chunks, sparse vs dense gestures");
    return;
  }

  // Traced variant: untraced and traced sparse sub-phases alternate, then
  // the same protocol runs in-process, then the per-layer probes.
  Rounds untraced, traced;
  std::vector<double> open_ms;
  for (unsigned r = 0; r < kTraceRounds; ++r)
    for (Rounds* into : {&untraced, &traced}) {
      Spans::instance().enable(into == &traced);
      const SessionPhase p = run_sessions<HttpSessions>(
          sparse, kSparsePeriodS, args.seconds / (4 * kTraceRounds), http);
      count_outcomes(p, rep);
      into->add(p.chunks);
      if (into == &untraced)
        open_ms.insert(open_ms.end(), p.open_ms.begin(), p.open_ms.end());
    }
  const double http_p50 = median(untraced.p50_ms);
  rep.set("trace.overhead_pct", (median(traced.p50_ms) / http_p50 - 1.0) * 100.0,
          "%");
  rep.set("gen.lag_p99_ms", median(untraced.lag_p99_ms), "ms");
  rep.set("net.session_open_ms_p50", median(open_ms), "ms");

  serve::InferenceServer& server = *stack->server;
  const SessionPhase inproc = run_sessions<InProcSessions>(
      sparse, kSparsePeriodS, args.seconds / 4,
      [&](unsigned t) { return InProcSessions(server, t); });
  count_outcomes(inproc, rep);
  rep.set("serve.session_feed_ms_p50", median(inproc.chunks.service()), "ms");
  rep.set("serve.session_feed_ms_p99", percentile(inproc.chunks.service(), 0.99),
          "ms");
  rep.set("serve.session_open_ms", median(inproc.open_ms), "ms");
  rep.set("net.front_door_p50_ms", http_p50 - median(inproc.chunks.service()),
          "ms");

  // Codecs over the chunk bytes this workload moves.
  std::vector<double> parse_us, decode_us, encode_us;
  for (const Sequence& q : sparse)
    for (std::size_t k = 0; k < q.chunks.size(); ++k) {
      const std::string& blob = q.blobs[k];
      char len[32];
      std::snprintf(len, sizeof len, "%zx\r\n", blob.size());
      const std::string bytes =
          "POST /v1/session/1/feed HTTP/1.1\r\nHost: sne\r\nAuthorization: " +
          bearer(0) + "\r\nTransfer-Encoding: chunked\r\n\r\n" + len + blob +
          "\r\n0\r\n\r\n";
      auto t0 = Clock::now();
      {
        Span s("net.HttpParser.feed");
        net::HttpParser p{net::HttpLimits{}};
        rep.count(p.feed(bytes.data(), bytes.size()) ==
                          net::HttpParser::Status::kDone &&
                      p.request().body == blob,
                  "HTTP parse of a recorded feed");
      }
      parse_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      t0 = Clock::now();
      {
        Span s("event.decode_stream");
        rep.count(event::decode_stream(blob.data(), blob.size()) == q.chunks[k],
                  "SNE1 decode of a chunk");
      }
      decode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      t0 = Clock::now();
      {
        Span s("event.encode_stream");
        rep.count(event::encode_stream(q.ref[k].final_output) == q.ref_bodies[k],
                  "SNE1 encode of a chunk answer");
      }
      encode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
  rep.set("net.http_parse_us", mean(parse_us), "us");
  rep.set("event.decode_us", mean(decode_us), "us");
  rep.set("event.encode_us", mean(encode_us), "us");

  std::vector<event::EventStream> streams;
  for (const Sequence& q : sparse) streams.push_back(q.stream);
  probe_ecnn(rep, net, core::SneConfig::paper_design_point(2), streams,
             /*warm=*/false);
  Spans::instance().enable(false);

  const serve::ServerStats ss = server.stats();
  const net::GatewayStats gs = stack->gateway->stats();
  rep.set("serve.retried", static_cast<double>(ss.retried), "count");
  rep.set("serve.failed", static_cast<double>(ss.failed), "count");
  rep.set("serve.rejected", static_cast<double>(ss.rejected), "count");
  const double reqs = static_cast<double>(std::max<std::uint64_t>(gs.requests, 1));
  rep.set("net.bytes_in_per_req", static_cast<double>(gs.bytes_in) / reqs, "B");
  rep.set("net.bytes_out_per_req", static_cast<double>(gs.bytes_out) / reqs,
          "B");
  rep.set("net.responses_5xx", static_cast<double>(gs.responses_5xx), "count");
  rep.set("net.dispatch_rejected", static_cast<double>(gs.dispatch_rejected),
          "count");
  const SimTotals ts = totals_of(sparse);
  rep.set("core.sim_cycles_per_inf",
          static_cast<double>(ts.cycles) / static_cast<double>(ts.inferences),
          "cycles");
  report_energy(rep, core::SneConfig::paper_design_point(2), ts,
                totals_of(dense), "session chunks, sparse vs dense gestures");
}

}  // namespace perfbench
