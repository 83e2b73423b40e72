// The three benchmark workloads (see perfbench/README.md for why each
// exists). Each builds its inputs from args.seed, sets its system up several
// times (reporting the median as setup_s), warms up, measures for
// args.seconds, and counts every checked output in the report. With
// args.trace the workload runs its traced variant and reports per-layer
// metrics instead.
#pragma once

#include "harness.h"

namespace perfbench {

void run_gesture_offline(const Args& args, Report& rep);
void run_gateway_infer(const Args& args, Report& rep);
void run_gateway_session(const Args& args, Report& rep);

}  // namespace perfbench
