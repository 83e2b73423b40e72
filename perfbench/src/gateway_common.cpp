#include "gateway_common.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstdio>

#include "core/config.h"

namespace perfbench {

using namespace sne;

Stack::Stack(const ecnn::QuantizedNetwork& net, unsigned engines) {
  registry.put("pipe", net);
  serve::ServeOptions so;
  so.engines = engines;
  server = std::make_unique<serve::InferenceServer>(
      registry, core::SneConfig::paper_design_point(2), so);
  net::GatewayConfig gc;
  for (unsigned t = 0; t < kTenants; ++t) {
    serve::TenantConfig tc;
    tc.weight = kTenantWeight[t];
    server->register_tenant(kTenantName[t], tc);
    gc.bearer_tokens[std::string("tok-") + kTenantName[t]] = kTenantName[t];
  }
  gateway = std::make_unique<net::GatewayServer>(*server, gc);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::vector<double> Phase::service(int tenant) const {
  std::vector<double> v;
  for (const Outcome& o : outcomes)
    if (o.ok && (tenant < 0 || o.tenant == static_cast<unsigned>(tenant)))
      v.push_back(o.service_ms);
  return v;
}

std::vector<double> Phase::from_due() const {
  std::vector<double> v;
  for (const Outcome& o : outcomes)
    if (o.ok) v.push_back(o.latency_ms);
  return v;
}

std::size_t Phase::completed_ok() const {
  std::size_t n = 0;
  for (const Outcome& o : outcomes) n += o.ok;
  return n;
}

void Rounds::add(const Phase& ph) {
  ok_per_cpu_s.push_back(ph.ok_per_cpu_s());
  const std::vector<double> lat = ph.service();
  p50_ms.push_back(percentile(lat, 0.5));
  p90_ms.push_back(percentile(lat, 0.9));
  lag_p99_ms.push_back(ph.lag_p99_ms());
  ops += ph.outcomes.size();
  all.outcomes.insert(all.outcomes.end(), ph.outcomes.begin(),
                      ph.outcomes.end());
  all.wall_s += ph.wall_s;
  all.server_cpu_s += ph.server_cpu_s;
}

std::string Phase::summary() const {
  char buf[320];
  const std::vector<double> s = service(), d = from_due();
  std::snprintf(buf, sizeof buf,
                "n=%zu service p50=%.3f p90=%.3f p99=%.3f max=%.3f ms; from "
                "due p50=%.3f p90=%.3f p99=%.3f max=%.3f ms",
                s.size(), percentile(s, 0.5), percentile(s, 0.9),
                percentile(s, 0.99), percentile(s, 1.0), percentile(d, 0.5),
                percentile(d, 0.9), percentile(d, 0.99), percentile(d, 1.0));
  return buf;
}

double Phase::lag_p99_ms() const {
  std::vector<double> v;
  for (const Outcome& o : outcomes)
    v.push_back(o.lag_ms);
  return percentile(std::move(v), 0.99);
}

}  // namespace perfbench
