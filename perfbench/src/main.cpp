// sne_perfbench: the end-to-end benchmark of the SNE simulator stack.
//
//   sne_perfbench --workload <gesture-offline|gateway-infer|gateway-session>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints human-readable progress, a stamp line (nproc, CPU model, build
// type, seed, validity) and, as the last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the traced variant and reports the
// per-layer metrics, writing the spans as Chrome trace JSON to --trace-dir.
// See perfbench/README.md for the workloads and metric definitions.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "sne_perfbench: %s\nusage: sne_perfbench --workload "
               "<gesture-offline|gateway-infer|gateway-session> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "sne_perfbench: refusing to run an assert-enabled "
                       "(non-Release) build\n");
  return 2;
#endif
  if (std::strcmp(SNE_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "sne_perfbench: refusing build type %s\n",
                 SNE_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = val == "1";
      } else if (key == "--trace-dir") {
        args.trace_dir = val;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!have_seed) return usage("--seed is required");
  if (!(args.seconds > 0.0 && args.seconds <= 120.0))
    return usage("--seconds must be in (0, 120]");

  perfbench::Report rep;
  try {
    if (args.workload == "gesture-offline")
      perfbench::run_gesture_offline(args, rep);
    else if (args.workload == "gateway-infer")
      perfbench::run_gateway_infer(args, rep);
    else if (args.workload == "gateway-session")
      perfbench::run_gateway_session(args, rep);
    else
      return usage(("unknown workload '" + args.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sne_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  rep.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
  rep.set("success_rate",
          rep.attempted == 0 ? 0.0
                             : static_cast<double>(rep.attempted - rep.failed) /
                                   static_cast<double>(rep.attempted),
          "ok/attempted");
  if (rep.attempted == 0) rep.fail_check("no operation was checked");
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    const perfbench::Spans& spans = perfbench::Spans::instance();
    if (ec || !spans.write_chrome_json(path))
      rep.fail_check("cannot write trace " + path);
    else
      std::printf("trace: %s\n", path.c_str());
    std::printf("%-36s %9s %12s %12s\n", "span", "count", "total ms",
                "self ms");
    for (const auto& [name, a] : spans.aggregate())
      std::printf("%-36s %9llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(a.count), a.total_ms,
                  a.self_ms);
  }
  try {
    rep.finalize(args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sne_perfbench: %s\n", e.what());
    return 1;
  }

  const std::string validity =
      rep.invalid_reason.empty() ? "true" : "false (" + rep.invalid_reason + ")";
  std::printf(
      "stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%u cpu=\"%s\" "
      "build=%s valid=%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      perfbench::cpu_model().c_str(), SNE_PERFBENCH_BUILD_TYPE,
      validity.c_str());
  std::printf("%s\n", rep.json().c_str());
  std::fflush(stdout);
  return 0;
}
