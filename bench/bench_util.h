// Shared helpers for the reproduction benches: each bench prints the paper's
// published numbers next to what this repository measures, in a form that
// can be pasted into EXPERIMENTS.md. Shape checks print PASS or FAIL through
// verdict(), and a bench whose check failed exits nonzero (exit_status()),
// so ctest's `paper` label gates them.
#pragma once

#include <cmath>
#include <iostream>
#include <string>

#include "common/table.h"

namespace sne::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& paper_artifact,
                         const std::string& what) {
  std::cout << "\n==================================================================\n"
            << experiment_id << " — " << paper_artifact << "\n"
            << what << "\n"
            << "==================================================================\n";
}

/// Relative deviation as a percentage string, e.g. "+1.3%".
inline std::string deviation(double measured, double paper) {
  if (paper == 0.0) return "n/a";
  const double d = (measured - paper) / paper * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", d);
  return buf;
}

inline int failed_checks = 0;

/// "PASS" or "FAIL" for a shape check; a FAIL is remembered for
/// exit_status().
inline const char* verdict(bool ok) {
  if (!ok) ++failed_checks;
  return ok ? "PASS" : "FAIL";
}

/// Verdict of an anchor comparison: `measured` within a relative `band` of
/// the paper's value.
inline const char* within(double measured, double paper, double band) {
  return verdict(std::abs(measured - paper) <= band * std::abs(paper));
}

/// main()'s return value: nonzero when any check printed FAIL.
inline int exit_status() { return failed_checks == 0 ? 0 : 1; }

}  // namespace sne::bench
