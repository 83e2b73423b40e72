// sne_gateway: the serving stack behind a real TCP port.
//
// Loads (or writes + reloads, with --demo-checkpoint) model checkpoints
// into a ModelRegistry, stands an InferenceServer up on pooled engines and
// fronts it with the hardened HTTP gateway (net/gateway.h). SIGTERM/SIGINT
// trigger a graceful drain: stop accepting, flush in-flight responses,
// close sessions, exit 0 — the contract the CI smoke test pins.
//
//   $ ./sne_gateway --port 8080 --token secret=default
//   $ curl -s -H 'Authorization: Bearer secret' --data-binary @stream.sne1
//         'localhost:8080/v1/infer?model=demo'
//
// Options:
//   --host A            bind address        (default 127.0.0.1)
//   --port N            bind port, 0 = ephemeral (default 8080)
//   --engines N         pooled engines / dispatch workers (default 2)
//   --token TOK=TENANT  bearer token mapping, repeatable; a bare TOK maps
//                       to the default tenant. Named tenants are
//                       registered automatically (weight 1, max_queue 64,
//                       max_sessions 8).
//   --model NAME=PATH   load a checkpoint into the registry, repeatable
//   --demo-checkpoint P write the built-in demo model (pipeline-capable
//                       conv->conv) to P, then load it back as "demo" —
//                       exercising the checkpoint path end to end
//   --allow-anonymous   let tokenless requests through as default tenant
//
// Without --model/--demo-checkpoint the demo model is registered
// in-memory as "demo".
#include <poll.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "core/config.h"
#include "ecnn/quantized.h"
#include "net/gateway.h"
#include "serve/checkpoint.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace {

// Self-pipe signal handling: the handler only writes a byte, the main
// thread polls the pipe — every step async-signal-safe.
volatile std::sig_atomic_t g_stop = 0;
int g_sigpipe_wr = -1;

void on_signal(int) {
  g_stop = 1;
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_sigpipe_wr, &b, 1);
}

sne::ecnn::QuantizedLayerSpec demo_conv(std::uint16_t in_ch,
                                        std::uint16_t out_ch,
                                        std::int32_t v_th, std::uint64_t seed,
                                        const char* name) {
  sne::ecnn::QuantizedLayerSpec l;
  l.type = sne::ecnn::LayerSpec::Type::kConv;
  l.name = name;
  l.in_ch = in_ch;
  l.in_w = 16;
  l.in_h = 16;
  l.out_ch = out_ch;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  l.weights.resize(static_cast<std::size_t>(out_ch) * in_ch * 9);
  sne::Rng rng(seed);
  for (auto& w : l.weights)
    w = static_cast<std::int8_t>(rng.uniform_int(-4, 7));
  l.lif.v_th = v_th;
  l.lif.leak = 1;
  return l;
}

/// conv -> conv chain that maps in pipeline operating mode on the 2-slice
/// design point, so /v1/session works against it out of the box.
sne::ecnn::QuantizedNetwork demo_net() {
  sne::ecnn::QuantizedNetwork net;
  net.layers.push_back(demo_conv(1, 2, 4, 31, "conv"));
  net.layers.push_back(demo_conv(2, 2, 5, 32, "conv2"));
  return net;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--host A] [--port N] [--engines N]"
               " [--token TOK[=TENANT]]... [--model NAME=PATH]..."
               " [--demo-checkpoint PATH] [--allow-anonymous]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sne;

  net::GatewayConfig gc;
  gc.port = 8080;
  unsigned engines = 2;
  std::string demo_checkpoint;
  std::vector<std::pair<std::string, std::string>> models;  // name -> path

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      gc.host = value();
    } else if (arg == "--port") {
      gc.port = static_cast<std::uint16_t>(std::atoi(value()));
    } else if (arg == "--engines") {
      engines = static_cast<unsigned>(std::atoi(value()));
    } else if (arg == "--token") {
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos)
        gc.bearer_tokens[spec] = serve::kDefaultTenant;
      else
        gc.bearer_tokens[spec.substr(0, eq)] = spec.substr(eq + 1);
    } else if (arg == "--model") {
      const std::string spec = value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) return usage(argv[0]);
      models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--demo-checkpoint") {
      demo_checkpoint = value();
    } else if (arg == "--allow-anonymous") {
      gc.allow_anonymous = true;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    serve::ModelRegistry registry;
    if (!demo_checkpoint.empty()) {
      // Round-trip through the checkpoint machinery on purpose: what
      // serves is what a deployment would actually load from disk.
      serve::save_model(demo_net(), demo_checkpoint);
      registry.load_file("demo", demo_checkpoint);
    }
    for (const auto& [name, path] : models) registry.load_file(name, path);
    if (demo_checkpoint.empty() && models.empty())
      registry.put("demo", demo_net());

    const core::SneConfig hw = core::SneConfig::paper_design_point(2);
    serve::ServeOptions so;
    so.engines = engines;
    serve::InferenceServer server(registry, hw, so);
    for (const auto& [token, tenant] : gc.bearer_tokens) {
      if (tenant == serve::kDefaultTenant ||
          server.tenant_presence(tenant) != serve::TenantPresence::kUnknown)
        continue;
      serve::TenantConfig tc;
      tc.max_sessions = 8;
      server.register_tenant(tenant, tc);
    }

    net::GatewayServer gateway(server, gc);
    std::cout << "sne_gateway listening on " << gc.host << ":"
              << gateway.port() << " (" << registry.size()
              << " model(s), " << engines << " engines)" << std::endl;

    int pipefd[2];
    if (::pipe(pipefd) < 0) {
      std::cerr << "pipe: " << std::strerror(errno) << "\n";
      return 1;
    }
    g_sigpipe_wr = pipefd[1];
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    while (g_stop == 0) {
      pollfd p{pipefd[0], POLLIN, 0};
      ::poll(&p, 1, 1000);
      if (p.revents & POLLIN) break;
    }
    std::cout << "sne_gateway draining..." << std::endl;
    gateway.shutdown();
    server.drain();
    std::cout << "sne_gateway drained; exiting 0" << std::endl;
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sne_gateway: " << e.what() << "\n";
    return 1;
  }
}
