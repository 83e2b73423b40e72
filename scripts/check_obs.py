#!/usr/bin/env python3
"""Telemetry-export validator: the CI gate for the obs layer's three exports.

Usage:
    check_obs.py [--trace TRACE.json] [--prom PROM.txt]
                 [--metrics METRICS.json]

Validates whatever exports are passed (at least one required):

  --trace    Chrome trace-event JSON written by SNE_OBS_TRACE. Structural
             checks (traceEvents list, required fields, ts >= 0, dur >= 0 on
             complete spans — i.e. Perfetto/chrome://tracing will load it)
             plus the causality contract: at least one serve.request span
             exists, and every ecnn.pool.lease / ecnn.simulate span that
             shares a correlation id AND thread with a request nests inside
             one of that request's spans. (Correlation ids are per-server
             ticket ids, so they restart for every fresh server a bench
             iteration builds — but a request's children always run on the
             request span's own worker thread, and worker threads get fresh
             trace tids, so (corr, tid) identifies a request exactly.)

  --prom     Prometheus text exposition written by SNE_OBS_PROM. Line-level
             lint (every sample line parses, every family has a # TYPE
             preamble, histogram buckets are cumulative) plus required
             series: the per-tenant breakdown (sne_tenant_*{tenant=...},
             the latency histogram sne_tenant_latency_ms_bucket among them)
             and the fault-site counters (sne_fault_site_hits_total{site=...})
             the serve benches publish.

  --gateway  Change --prom's required-series set to a live gateway scrape
             (GET /metrics): sne_gateway_* connection/request/session
             families plus the server roll-up, without the profile-mode
             series only the drain benches publish.

  --metrics  Registry JSON snapshot written by SNE_OBS_METRICS_JSON:
             well-formed JSON with the documented {"metrics":[...]} shape.

Exit status: 0 when every requested validation passes, 1 otherwise (each
failure is printed). Unlike check_perf.py this is a hard gate — telemetry
exports are deterministic structure, never timing noise.
"""

import argparse
import json
import re
import sys

# Rounding slack: ts/dur are printed in microseconds with 3 decimals, so a
# child's printed start can precede its parent's by at most one rounding step.
EPS_US = 0.002

REQUEST_SPAN = "serve.request"
CHILD_SPANS = ("ecnn.pool.lease", "ecnn.simulate")


def check_trace(path, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"trace: cannot load {path}: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("trace: traceEvents missing or empty")
        return

    requests = {}  # (corr, tid) -> [(t0, t1)]
    spans_checked = 0
    for i, ev in enumerate(events):
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in ev:
                errors.append(f"trace: event #{i} lacks '{field}': {ev}")
                return
        if ev["ts"] < 0:
            errors.append(f"trace: event #{i} has negative ts: {ev}")
        if ev["ph"] == "X":
            if "dur" not in ev or ev["dur"] < 0:
                errors.append(f"trace: complete span #{i} lacks a "
                              f"non-negative dur: {ev}")
            elif ev["name"] == REQUEST_SPAN:
                key = (ev.get("args", {}).get("corr"), ev["tid"])
                requests.setdefault(key, []).append(
                    (ev["ts"], ev["ts"] + ev["dur"]))
        elif ev["ph"] not in ("i", "I"):
            errors.append(f"trace: event #{i} has unexpected phase "
                          f"'{ev['ph']}'")

    if not requests:
        errors.append(f"trace: no {REQUEST_SPAN} spans found")
        return

    # Causality: a lease/simulate span recorded under a request's
    # (correlation id, worker thread) must nest inside one of that request's
    # spans. Spans with no matching request — engine benches, direct runner
    # use, or a corr id some *other* server's ticket numbering also used —
    # have no request to nest under and are skipped.
    for ev in events:
        if ev.get("ph") != "X" or ev["name"] not in CHILD_SPANS:
            continue
        key = (ev.get("args", {}).get("corr"), ev["tid"])
        if key not in requests:
            continue
        spans_checked += 1
        t0, t1 = ev["ts"], ev["ts"] + ev.get("dur", 0.0)
        if not any(r0 - EPS_US <= t0 and t1 <= r1 + EPS_US
                   for r0, r1 in requests[key]):
            errors.append(f"trace: {ev['name']} span (corr={key[0]}, "
                          f"tid={key[1]}, ts={t0}) outside every "
                          f"{REQUEST_SPAN} span with its correlation id "
                          "on its thread")
    if spans_checked == 0:
        errors.append("trace: no lease/simulate spans correlated with a "
                      "request — the serve benches did not run traced")
    print(f"trace: {len(events)} events, "
          f"{sum(len(v) for v in requests.values())} request spans, "
          f"{spans_checked} nested child spans checked")


SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'           # metric name
    r'(\{[^}]*\})?'                          # optional label block
    r' (-?[0-9][0-9.e+-]*|[+-]Inf|NaN)$')    # value


# What a scrape must contain, by origin. The bench export carries the
# profile-mode split (drain benches); a live gateway scrape instead carries
# the sne_gateway_* families the front door publishes per request.
PROM_REQUIRED_BENCH = (
    r'^sne_tenant_[a-z_]+\{[^}]*tenant="',
    # Latency is one histogram per tenant; the server's is their sum.
    r'^sne_tenant_latency_ms_bucket\{[^}]*tenant="',
    r'^sne_fault_site_hits_total\{[^}]*site="',
    r'^sne_server_submitted_total',
    r'^sne_profile_mode_cycles_total\{[^}]*mode="',
)
PROM_REQUIRED_GATEWAY = (
    r'^sne_tenant_[a-z_]+\{[^}]*tenant="',
    # The per-tenant overload ledger: why a lane's requests were refused.
    r'^sne_tenant_rejected_total\{[^}]*tenant="',
    r'^sne_tenant_evicted_total\{[^}]*tenant="',
    r'^sne_tenant_latency_ms_bucket\{[^}]*tenant="',
    r'^sne_server_submitted_total',
    r'^sne_gateway_connections_accepted_total',
    r'^sne_gateway_connections_open',
    r'^sne_gateway_requests_total',
    r'^sne_gateway_responses_total\{[^}]*class="2xx"',
    r'^sne_gateway_bytes_in_total',
    r'^sne_gateway_bytes_out_total',
    r'^sne_gateway_sessions_opened_total',
)


def check_prom(path, errors, required=PROM_REQUIRED_BENCH):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        errors.append(f"prom: cannot read {path}: {e}")
        return
    typed = set()
    samples = 0
    bucket_prev = {}  # (name, labels-minus-le) -> last cumulative count
    for ln, line in enumerate(text.splitlines(), 1):
        if not line:
            errors.append(f"prom: blank line {ln}")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[3] not in ("counter", "gauge",
                                                  "histogram"):
                errors.append(f"prom: malformed TYPE line {ln}: {line}")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"prom: unparseable sample line {ln}: {line}")
            continue
        samples += 1
        name = m.group(1)
        base = re.sub(r'_(bucket|sum|count)$', '', name)
        if name not in typed and base not in typed:
            errors.append(f"prom: series '{name}' (line {ln}) has no "
                          "# TYPE preamble")
        if name.endswith("_bucket"):
            labels = m.group(2) or "{}"
            key = (name, re.sub(r'le="[^"]*",?', '', labels))
            cum = float(m.group(3))
            if key in bucket_prev and cum < bucket_prev[key]:
                errors.append(f"prom: histogram buckets not cumulative at "
                              f"line {ln}: {line}")
            bucket_prev[key] = cum

    for pattern in required:
        if not re.search(pattern, text, re.MULTILINE):
            errors.append(f"prom: required series /{pattern}/ missing — "
                          "the expected publisher did not run")
    print(f"prom: {samples} samples across {len(typed)} typed families")


def check_metrics_json(path, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"metrics: cannot load {path}: {e}")
        return
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        errors.append("metrics: 'metrics' list missing or empty")
        return
    for i, fam in enumerate(metrics):
        for field in ("name", "type", "help", "series"):
            if field not in fam:
                errors.append(f"metrics: family #{i} lacks '{field}'")
                return
        if fam["type"] not in ("counter", "gauge", "histogram"):
            errors.append(f"metrics: family '{fam['name']}' has unknown "
                          f"type '{fam['type']}'")
        for s in fam["series"]:
            if "labels" not in s:
                errors.append(f"metrics: series in '{fam['name']}' lacks "
                              "labels")
            if fam["type"] == "histogram":
                if "buckets" not in s or "count" not in s:
                    errors.append(f"metrics: histogram series in "
                                  f"'{fam['name']}' lacks buckets/count")
            elif "value" not in s:
                errors.append(f"metrics: series in '{fam['name']}' lacks a "
                              "value")
    print(f"metrics: {len(metrics)} families")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace")
    ap.add_argument("--prom")
    ap.add_argument("--metrics")
    ap.add_argument("--gateway", action="store_true",
                    help="--prom input is a live gateway /metrics scrape")
    args = ap.parse_args()
    if not (args.trace or args.prom or args.metrics):
        ap.error("pass at least one of --trace/--prom/--metrics")

    errors = []
    if args.trace:
        check_trace(args.trace, errors)
    if args.prom:
        check_prom(args.prom, errors,
                   PROM_REQUIRED_GATEWAY if args.gateway
                   else PROM_REQUIRED_BENCH)
    if args.metrics:
        check_metrics_json(args.metrics, errors)

    for e in errors:
        print(f"FAIL: {e}")
    if errors:
        return 1
    print("telemetry exports OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
