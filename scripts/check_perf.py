#!/usr/bin/env python3
"""Perf-regression guard: compare a fresh bench_json run to the committed baseline.

Usage:
    check_perf.py BASELINE.json CURRENT.json [--threshold 2.0] [--strict]
                  [--regression-threshold 1.5]

Matches benchmarks by name and compares wall-clock (real_time — several
benches use UseRealTime because worker threads shift work off the timing
thread; for the rest real and cpu time agree on the 1-core CI box). Prints a
markdown before/after table — plus a dedicated section for the drain-path
benchmarks (BM_DenseSpikingLayer*) — and appends it to
$GITHUB_STEP_SUMMARY when set.

Simulated counters are a hard gate: for every benchmark present in both
files, `sim_cycles_per_inf` and every `prof_*` counter must be identical.
They count simulated cycles, not host time, so they read the same on any
box; a difference means the simulation itself changed, and the baseline
must then be regenerated (Release `bench_json` target) in the same change.

Two wall-clock gates:
  --threshold: the coarse per-benchmark gate (default 2.0x); the only one
    --strict turns into a failing exit status.
  --regression-threshold: an *advisory* finer gate, always warn-only — flags
    the geometric mean of current/baseline ratios and every individual
    benchmark whose ratio exceeds it. Meant to surface creeping regressions
    the coarse gate is too generous to catch, without making a noisy 1-core
    box fail builds.

Exit status:
    0  simulated counters identical, wall clock within threshold (or
       warn-only mode, the default)
    1  --strict and at least one benchmark regressed past the threshold
    2  the current run is not an optimized build (sne_build_type != release)
       — a deterministic configuration error, never timing noise.
    3  a simulated counter differs from the baseline.

The wall-clock threshold is deliberately generous and its default mode
warn-only: the 1-core CI box is too noisy for a hard wall-clock gate, but a
silent 3x regression should at least be visible in the job summary.
"""

import argparse
import json
import math
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def bench_times(doc):
    """name -> (real_time_ns, reported_unit), skipping aggregate rows.

    Times are normalized to nanoseconds so a benchmark whose ->Unit() changed
    between the baseline and the current run still compares correctly.
    """
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        out[b["name"]] = (float(b["real_time"]) * _UNIT_NS.get(unit, 1.0),
                          unit)
    return out


def sim_counters(doc):
    """name -> {counter: value} for sim_cycles_per_inf and every prof_*."""
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = {k: v for k, v in b.items()
                          if k == "sim_cycles_per_inf" or k.startswith("prof_")}
    return out


def compare_sim_counters(baseline, current):
    """Compares the simulated counters of every benchmark present in both
    runs: (values compared, [(name, counter, baseline, current)] that
    differ)."""
    base, cur = sim_counters(baseline), sim_counters(current)
    compared, mismatches = 0, []
    for name in sorted(set(base) & set(cur)):
        for k in sorted(set(base[name]) & set(cur[name])):
            compared += 1
            if base[name][k] != cur[name][k]:
                mismatches.append((name, k, base[name][k], cur[name][k]))
    return compared, mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="warn when current/baseline exceeds this (default 2.0)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on threshold violations instead of warning")
    ap.add_argument("--regression-threshold", type=float, default=None,
                    help="advisory (always warn-only) gate: flag the geomean "
                         "of current/baseline ratios and any individual "
                         "benchmark exceeding this ratio")
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    # Build-type gate: the bench binary stamps sne_build_type itself (the
    # stock library_build_type field describes the google-benchmark library,
    # not the code under test).
    build_type = current.get("context", {}).get("sne_build_type", "unknown")
    if build_type != "release":
        print(f"ERROR: current run is a '{build_type}' build of sne_core; "
              "perf comparisons need -DCMAKE_BUILD_TYPE=Release")
        return 2
    base_build = baseline.get("context", {}).get("sne_build_type", "unknown")
    if base_build != "release":
        print(f"WARNING: committed baseline records sne_build_type="
              f"'{base_build}' — regenerate it with the Release bench_json "
              "target")

    base = bench_times(baseline)
    cur = bench_times(current)

    rows = []
    warned = 0
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            rows.append((name, base[name], None, None, "GONE"))
            continue
        if name not in base:
            rows.append((name, None, cur[name], None, "NEW"))
            continue
        b, c = base[name], cur[name]
        ratio = c[0] / b[0] if b[0] > 0 else float("inf")
        status = "OK"
        if ratio > args.threshold:
            status = "WARN"
            warned += 1
        rows.append((name, b, c, ratio, status))

    def fmt(t):
        if t is None:
            return "-"
        return f"{t[0] / _UNIT_NS.get(t[1], 1.0):.3f} {t[1]}"

    lines = ["| benchmark | baseline | current | ratio | status |",
             "|---|---:|---:|---:|---|"]
    for name, b, c, ratio, status in rows:
        r = "-" if ratio is None else f"{ratio:.2f}x"
        mark = {"OK": "", "WARN": " :warning:", "NEW": "", "GONE": ""}[status]
        lines.append(f"| `{name}` | {fmt(b)} | {fmt(c)} | {r} | {status}{mark} |")
    lines.append("")
    lines.append(f"threshold {args.threshold:.2f}x · {warned} warning(s) · "
                 f"{'strict' if args.strict else 'warn-only'} mode · "
                 f"sne_build_type={build_type}")

    # Advisory fine-grained gate: geomean drift + per-benchmark deltas.
    # Never contributes to the exit status — the 1-core CI box is too noisy
    # for a hard gate this tight; the job summary is where it lives.
    if args.regression_threshold:
        ratios = [r for _, _, _, r, _ in rows if r is not None and r > 0]
        lines.append("")
        if ratios:
            gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
            flag = " :warning:" if gm > args.regression_threshold else ""
            lines.append(f"advisory geomean: **{gm:.3f}x** over "
                         f"{len(ratios)} benchmark(s) (advisory threshold "
                         f"{args.regression_threshold:.2f}x, warn-only)"
                         f"{flag}")
            over = [(n, r) for n, _, _, r, _ in rows
                    if r is not None and r > args.regression_threshold]
            for n, r in sorted(over, key=lambda x: -x[1]):
                lines.append(f"- `{n}` {r:.2f}x exceeds the advisory "
                             f"threshold :warning:")
            if not over:
                lines.append("- no individual benchmark over the advisory "
                             "threshold")
        else:
            lines.append("advisory geomean: no comparable benchmarks")

    # Drain-path benchmarks get their own section: the batched drain engine
    # is the hottest simulator path and the one this repo optimizes hardest,
    # so its numbers should be readable at a glance in the step summary.
    drain_rows = [r for r in rows if r[0].startswith("BM_DenseSpikingLayer")]
    if drain_rows:
        lines.append("")
        lines.append("### Drain-path benchmarks")
        lines.append("")
        lines.append("`BM_DenseSpikingLayer/<slices>/<mode>/<dmas>` "
                     "(mode: 0 = per-cycle reference, 1 = fast-forward, "
                     "2 = + batched drain engine) and the pipeline-routed "
                     "variant `BM_DenseSpikingLayerPipeRouted/<mode>`:")
        lines.append("")
        lines.append("| benchmark | baseline | current | ratio |")
        lines.append("|---|---:|---:|---:|")
        for name, b, c, ratio, _ in drain_rows:
            r = "-" if ratio is None else f"{ratio:.2f}x"
            lines.append(f"| `{name}` | {fmt(b)} | {fmt(c)} | {r} |")

    # Replay-profile mode split (current run only): the drain benches attach
    # prof_* counters from one profiled, untimed repeat — where the batched
    # drain engine actually spends its simulated cycles. The table is
    # informational; the hard gate on the same counters follows it.
    prof_keys = [("prof_dead_jump", "dead-jump"),
                 ("prof_sweep_jump", "sweep-jump"),
                 ("prof_percycle", "per-cycle"),
                 ("prof_burst", "burst"),
                 ("prof_bulk_replay", "bulk-replay"),
                 ("prof_steady", "steady")]
    prof_rows = []
    for b in current.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        total = sum(float(b.get(k, 0.0)) for k, _ in prof_keys)
        if total <= 0:
            continue
        prof_rows.append((b["name"], total,
                          [float(b.get(k, 0.0)) / total for k, _ in prof_keys],
                          int(b.get("prof_drain_spans", 0))))
    if prof_rows:
        lines.append("")
        lines.append("### Replay-profile mode split (current run, "
                     "informational)")
        lines.append("")
        lines.append("| benchmark | cycles | " +
                     " | ".join(label for _, label in prof_keys) +
                     " | drain spans |")
        lines.append("|---|---:|" + "---:|" * len(prof_keys) + "---:|")
        for name, total, split, spans in prof_rows:
            cells = " | ".join(f"{frac * 100:.1f}%" for frac in split)
            lines.append(f"| `{name}` | {int(total)} | {cells} | {spans} |")

    # Simulated-counter gate (hard): cycle counts are deterministic, so any
    # difference is a change in the simulation, not host noise.
    compared, mismatches = compare_sim_counters(baseline, current)
    lines.append("")
    lines.append("### Simulated counters (hard gate)")
    lines.append("")
    if mismatches:
        lines.append("| benchmark | counter | baseline | current |")
        lines.append("|---|---|---:|---:|")
        for name, k, b, c in mismatches:
            lines.append(f"| `{name}` | `{k}` | {b:.0f} | {c:.0f} |")
        lines.append("")
        lines.append(f"FAIL: {len(mismatches)} of {compared} simulated "
                     "counter value(s) differ from the baseline. A change "
                     "that moves simulated cycles regenerates the baseline "
                     "(Release `bench_json` target) in the same commit.")
    else:
        lines.append(f"OK: all {compared} simulated counter value(s) match "
                     "the baseline.")

    table = "\n".join(lines)

    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write("## Perf regression guard\n\n" + table + "\n")

    if mismatches:
        return 3
    if warned and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
