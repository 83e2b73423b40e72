// gateway-infer: open-loop one-shot inference over loopback HTTP.
//
// POST /v1/infer of the light pipe model (two 3x3 convs, 1x16x16 inputs,
// T = 16, ~5% activity), served warm by 2 engines on the 2-slice design
// point. Four bearer-token tenants (weights 8/4/2/1, matching Zipf request
// mix) share four keep-alive connections; auth is per request. Poisson
// arrivals alternate a nominal phase at 40% and a high phase at 60% of the
// committed closed-loop capacity: the nominal phase prices the front door
// and scheduler, the high phase builds the queue DRR and the gateway worker
// handoff act on. (At 85% the p90 swung 3x between runs whenever the shared
// host slowed the box: the knee moved under the fixed rate.) Warm weights
// and the plan cache bypass ecnn programming and mapping.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>

#include "core/config.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "event/event_io.h"
#include "gateway_common.h"
#include "models.h"
#include "net/client.h"
#include "net/http.h"
#include "workloads.h"

namespace perfbench {

using namespace sne;

namespace {

/// Closed-loop capacity of this workload at 4 connections, measured once on
/// the reference box (4 vCPU Intel Xeon) and committed so every run offers
/// the same load. Re-derive it only together with a new baseline.
constexpr double kCapacityRps = 2500.0;
constexpr double kNominalShare = 0.40;
constexpr double kHighShare = 0.60;
constexpr std::size_t kInputs = 256;
constexpr std::uint16_t kTimesteps = 16;
constexpr double kActivity = 0.05;
constexpr unsigned kEngines = 2;
constexpr int kSetupReps = 11;
constexpr unsigned kRounds = 10;  // alternating nominal / high sub-phases
constexpr unsigned kWarmupRequests = 800;

struct Arrival {
  double due_s = 0.0;  ///< offset from the phase start
  unsigned tenant = 0;
  std::uint32_t input = 0;
};

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double duration_s) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::uint32_t> pick_input(0, kInputs - 1);
  std::uniform_int_distribution<unsigned> pick_share(0, 14);  // 15 shares
  std::vector<Arrival> out;
  for (double t = gap(rng); t < duration_s; t += gap(rng)) {
    const unsigned s = pick_share(rng);
    const unsigned tenant = s < 8 ? 0 : s < 12 ? 1 : s < 14 ? 2 : 3;
    out.push_back({t, tenant, pick_input(rng)});
  }
  return out;
}

/// In-process references: the warm answer (body + cycles) every request
/// must reproduce bitwise, and the cold cycle count an engine's first lease
/// reports under the relaxed tier.
struct Reference {
  std::string body;
  std::uint64_t warm_cycles = 0;
  std::uint64_t cold_cycles = 0;
  ecnn::NetworkRunStats warm;
};

struct Workload {
  ecnn::QuantizedNetwork net = pipe_network();
  std::vector<event::EventStream> inputs;
  std::vector<std::string> bodies;  ///< SNE1-encoded inputs
  std::vector<Reference> refs;
  std::atomic<std::uint64_t> cold_answers{0};

  bool check(const net::ClientResponse& r, std::uint32_t input) {
    if (r.status != 200) return false;
    const Reference& ref = refs[input];
    const std::string* cyc = r.header("x-sne-cycles");
    if (cyc == nullptr || r.body != ref.body) return false;
    const std::uint64_t c = std::strtoull(cyc->c_str(), nullptr, 10);
    if (c == ref.cold_cycles && c != ref.warm_cycles) ++cold_answers;
    return c == ref.warm_cycles || c == ref.cold_cycles;
  }
};

void build_references(Workload& w) {
  const core::SneConfig hw = core::SneConfig::paper_design_point(2);
  serve::ModelRegistry registry;
  registry.put("pipe", w.net);
  serve::ServeOptions so;
  so.engines = 1;
  serve::InferenceServer ref_server(registry, hw, so);
  const ecnn::BatchRunner cold(hw, w.net);
  ref_server.submit("pipe", w.inputs[0]).wait();  // program the one engine
  for (const auto& in : w.inputs) {
    Reference r;
    r.warm = ref_server.submit("pipe", in).wait();
    r.body = event::encode_stream(r.warm.final_output);
    r.warm_cycles = r.warm.cycles;
    const ecnn::NetworkRunStats c = cold.run_one(in);
    r.cold_cycles = c.cycles;
    if (!(c.final_output == r.warm.final_output))
      throw std::runtime_error("cold and warm references disagree on spikes");
    w.refs.push_back(std::move(r));
  }
}

/// One client connection; reconnects after a transport error.
struct Conn {
  explicit Conn(std::uint16_t port) : port(port) { connect(); }
  void connect() {
    http.emplace("127.0.0.1", port);
    set_nodelay(http->fd());
  }
  std::uint16_t port;
  std::optional<net::HttpClient> http;
};

/// Sends one request; false on any wrong answer or transport failure.
bool http_infer(Workload& w, Conn& c, const Arrival& a) {
  try {
    Span s("net.HttpClient.request");
    const net::ClientResponse r =
        c.http->request("POST", "/v1/infer?model=pipe",
                        {{"Authorization", bearer(a.tenant)}},
                        w.bodies[a.input]);
    return w.check(r, a.input);
  } catch (const net::NetError&) {
    c.connect();
    return false;
  }
}

/// Open-loop load generator: the client threads pull arrivals in order,
/// wait for their due time, and call send(thread, arrival).
template <typename Send>
Phase open_loop(const std::vector<Arrival>& sched, Send send) {
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  return run_phase(kConnections, [&](unsigned t, std::vector<Outcome>& out) {
    for (std::size_t i; (i = next.fetch_add(1)) < sched.size();) {
      const Arrival& a = sched[i];
      const auto due = at(start, a.due_s);
      const auto picked = Clock::now();
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      Span s("gateway.request", i + 1);
      const bool ok = send(t, a);
      const auto done = Clock::now();
      out.push_back({ms_between(due, done), ms_between(sent, done),
                     lag_ms(due, picked, sent), ok, a.tenant});
    }
  });
}

void count_outcomes(const Phase& ph, Report& rep) {
  for (const Outcome& o : ph.outcomes) rep.count(o.ok, "infer request");
}

void add_totals(SimTotals& t, const Workload& w,
                const std::vector<Arrival>& sched) {
  for (const Arrival& a : sched)
    t.add(w.refs[a.input].warm, w.inputs[a.input].update_count());
}

/// HttpParser, SNE1 decode and encode over the bytes this workload moves.
void probe_codecs(const Workload& w, Report& rep) {
  std::vector<double> parse_us, decode_us, encode_us;
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    const std::string bytes =
        "POST /v1/infer?model=pipe HTTP/1.1\r\nHost: sne\r\nAuthorization: " +
        bearer(static_cast<unsigned>(i % kTenants)) +
        "\r\nContent-Length: " + std::to_string(w.bodies[i].size()) +
        "\r\n\r\n" + w.bodies[i];
    auto t0 = Clock::now();
    {
      Span s("net.HttpParser.feed", i + 1);
      net::HttpParser p{net::HttpLimits{}};
      rep.count(p.feed(bytes.data(), bytes.size()) ==
                        net::HttpParser::Status::kDone &&
                    p.request().body == w.bodies[i],
                "HTTP parse of a recorded request");
    }
    parse_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    {
      Span s("event.decode_stream", i + 1);
      rep.count(event::decode_stream(w.bodies[i].data(), w.bodies[i].size()) ==
                    w.inputs[i],
                "SNE1 decode of a request body");
    }
    decode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    t0 = Clock::now();
    {
      Span s("event.encode_stream", i + 1);
      rep.count(event::encode_stream(w.refs[i].warm.final_output) ==
                    w.refs[i].body,
                "SNE1 encode of a response body");
    }
    encode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  rep.set("net.http_parse_us", mean(parse_us), "us");
  rep.set("event.decode_us", mean(decode_us), "us");
  rep.set("event.encode_us", mean(encode_us), "us");
}

}  // namespace

void run_gateway_infer(const Args& args, Report& rep) {
  Workload w;
  for (std::size_t i = 0; i < kInputs; ++i)
    w.inputs.push_back(data::random_stream({1, 16, 16, kTimesteps}, kActivity,
                                           mix_seed(args.seed, 100 + i)));
  for (const auto& in : w.inputs) w.bodies.push_back(event::encode_stream(in));
  build_references(w);

  // Setup: stack up, clients connected, one request per connection (every
  // engine then holds the model).
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<Conn>> conns;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    conns.clear();
    stack.reset();
    stack = std::make_unique<Stack>(w.net, kEngines);
    for (unsigned c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<Conn>(stack->gateway->port()));
      rep.count(http_infer(w, *conns.back(), {0.0, c, c}), "priming request");
    }
  });
  const std::uint64_t accepted_at_start =
      stack->gateway->stats().connections_accepted;

  // Warm-up: closed loop, untimed; its rate is printed as the capacity
  // estimate kCapacityRps was calibrated from.
  const Phase warm = run_phase(kConnections, [&](unsigned t,
                                                 std::vector<Outcome>& out) {
    for (unsigned k = 0; k < kWarmupRequests / kConnections; ++k) {
      const Arrival a{0.0, (t + k) % kTenants,
                      static_cast<std::uint32_t>((t * 61 + k) % kInputs)};
      out.push_back({0.0, 0.0, 0.0, http_infer(w, *conns[t], a), a.tenant});
    }
  });
  count_outcomes(warm, rep);
  std::printf("warm-up: closed loop at %u connections: %.0f rps (committed "
              "capacity %.0f rps)\n",
              kConnections, kWarmupRequests / warm.wall_s, kCapacityRps);

  const auto http = [&](unsigned t, const Arrival& a) {
    return http_infer(w, *conns[t], a);
  };
  const double nominal_rps = kNominalShare * kCapacityRps;
  const double high_rps = kHighShare * kCapacityRps;

  if (!args.trace) {
    Rounds nominal, high;
    SimTotals nominal_sim, high_sim;
    const double span_s = args.seconds / (2 * kRounds);
    for (unsigned r = 0; r < kRounds; ++r) {
      const auto ns = poisson_schedule(mix_seed(args.seed, 10 + r),
                                       nominal_rps, span_s);
      const auto hs = poisson_schedule(mix_seed(args.seed, 20 + r), high_rps,
                                       span_s);
      nominal.add(open_loop(ns, http));
      high.add(open_loop(hs, http));
      add_totals(nominal_sim, w, ns);
      add_totals(high_sim, w, hs);
    }
    count_outcomes(nominal.all, rep);
    count_outcomes(high.all, rep);
    rep.set("setup_s", setup_s, "s");
    rep.set("inf_per_s.sparse", median(nominal.ok_per_cpu_s), "inf/s");
    rep.set("inf_per_s.dense", median(high.ok_per_cpu_s), "inf/s");
    rep.set("latency_p50_ms", median(nominal.p50_ms), "ms");
    rep.set("latency_p90_ms", median(nominal.p90_ms), "ms");
    rep.set("loaded_latency_p90_ms", median(high.p90_ms), "ms");
    const double lag =
        std::max(median(nominal.lag_p99_ms), median(high.lag_p99_ms));
    if (lag > kMaxGenLagMs)
      rep.invalid_reason = "generator lag p99 " + std::to_string(lag) + " ms";
    std::printf(
        "gateway-infer: %u rounds of nominal %.0f rps + high %.0f rps x "
        "%.1f s; %zu + %zu requests, %.2f + %.2f server CPU-s; generator lag "
        "p99 %.3f ms; %llu cold answers\n",
        kRounds, nominal_rps, high_rps, span_s, nominal.ops, high.ops,
        nominal.all.server_cpu_s, high.all.server_cpu_s, lag,
        static_cast<unsigned long long>(w.cold_answers.load()));
    std::printf("  nominal latency %s\n  high latency    %s\n",
                nominal.all.summary().c_str(), high.all.summary().c_str());
    report_energy(rep, core::SneConfig::paper_design_point(2), nominal_sim,
                  high_sim, "served requests, nominal vs high phase");
    return;
  }

  // Traced variant: untraced and traced nominal sub-phases alternate, then
  // a nominal schedule replays in-process (no sockets), then the per-layer
  // probes.
  Rounds untraced, traced;
  for (unsigned r = 0; r < kTraceRounds; ++r) {
    const auto s = poisson_schedule(mix_seed(args.seed, 30 + r), nominal_rps,
                                    args.seconds / (4 * kTraceRounds));
    for (Rounds* into : {&untraced, &traced}) {
      Spans::instance().enable(into == &traced);
      const Phase ph = open_loop(s, http);
      count_outcomes(ph, rep);
      into->add(ph);
    }
  }
  const double http_p50 = median(untraced.p50_ms);
  rep.set("trace.overhead_pct", (median(traced.p50_ms) / http_p50 - 1.0) * 100.0,
          "%");
  rep.set("gen.lag_p99_ms", median(untraced.lag_p99_ms), "ms");

  const auto sched =
      poisson_schedule(mix_seed(args.seed, 1), nominal_rps, args.seconds / 4);

  std::vector<double> submit_us(sched.size(), 0.0);
  serve::InferenceServer& server = *stack->server;
  const Phase inproc = open_loop(sched, [&](unsigned, const Arrival& a) {
    serve::RequestOptions ro;
    ro.tenant = kTenantName[a.tenant];
    try {
      const auto t0 = Clock::now();
      serve::Ticket ticket;
      {
        Span s("serve.InferenceServer.submit");
        ticket = server.submit("pipe", w.inputs[a.input], ro);
      }
      submit_us[&a - sched.data()] = ms_between(t0, Clock::now()) * 1e3;
      Span s("serve.Ticket.wait");
      const ecnn::NetworkRunStats& r = ticket.wait();
      return r.final_output == w.refs[a.input].warm.final_output;
    } catch (const std::exception&) {  // a refused or failed request
      return false;
    }
  });
  count_outcomes(inproc, rep);
  const double inproc_p50 = median(inproc.service());
  rep.set("serve.inproc_p50_ms", inproc_p50, "ms");
  rep.set("serve.inproc_p99_ms", percentile(inproc.service(), 0.99), "ms");
  rep.set("serve.submit_us", mean(submit_us), "us");
  for (unsigned t = 0; t < kTenants; ++t)
    rep.set(std::string("serve.tenant_p99_ms.") + kTenantName[t],
            percentile(inproc.service(static_cast<int>(t)), 0.99), "ms");
  rep.set("net.front_door_p50_ms", http_p50 - inproc_p50, "ms");

  probe_codecs(w, rep);
  const std::vector<event::EventStream> probe(w.inputs.begin(),
                                              w.inputs.begin() + 64);
  probe_ecnn(rep, w.net, core::SneConfig::paper_design_point(2), probe,
             /*warm=*/true);
  Spans::instance().enable(false);

  const serve::ServerStats ss = server.stats();
  const net::GatewayStats gs = stack->gateway->stats();
  rep.set("serve.peak_queue_depth", static_cast<double>(ss.peak_queue_depth),
          "count");
  rep.set("serve.warm_lease_ratio",
          ss.engine_leases ? static_cast<double>(ss.engine_warm_leases) /
                                 static_cast<double>(ss.engine_leases)
                           : 0.0,
          "ratio");
  rep.set("serve.warm_pass_ratio",
          ss.passes_total ? static_cast<double>(ss.passes_warm) /
                                static_cast<double>(ss.passes_total)
                          : 0.0,
          "ratio");
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
  rep.set("net.reconnects",
          static_cast<double>(gs.connections_accepted - accepted_at_start),
          "count");
  SimTotals t;
  add_totals(t, w, sched);
  rep.set("core.sim_cycles_per_inf",
          static_cast<double>(t.cycles) / static_cast<double>(t.inferences),
          "cycles");
  report_energy(rep, core::SneConfig::paper_design_point(2), t, t,
                "served requests, nominal phase");
}

}  // namespace perfbench
