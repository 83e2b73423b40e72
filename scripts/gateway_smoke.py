#!/usr/bin/env python3
"""End-to-end smoke test for the sne_gateway binary — the CI gateway job.

Usage:
    gateway_smoke.py --binary build/sne_gateway [--checkpoint /tmp/demo.snem]
                     [--scrape-out /tmp/gateway_prom.txt]

Drives a freshly started gateway over real loopback sockets with nothing
but the standard library:

  1. starts `sne_gateway --port 0 --demo-checkpoint ...` (the binary writes
     the demo model checkpoint, loads it back, and prints its bound port),
  2. polls GET /healthz until the gateway answers,
  3. POST /v1/infer with a hand-packed SNE1 body -> 200, an X-Sne-Cycles
     header, and an SNE1 response body (magic + geometry verified),
  4. opens a streaming session, feeds it two chunks (the second via chunked
     transfer-encoding), closes it,
  4b. with the binary's default 2 engines, opens 2 sessions: a third open
     answers 503 + Retry-After (no engine free) while /healthz still
     answers 200; then closes both,
  5. scrapes GET /metrics, writes it to --scrape-out for check_obs.py
     --prom <file> --gateway,
  6. sends SIGTERM and asserts the gateway drains and exits 0.

Exit status: 0 when every step passes, 1 otherwise.
"""

import argparse
import http.client
import signal
import struct
import subprocess
import sys
import time

SNE1_MAGIC = 0x534E4531


def pack_stream(channels, width, height, timesteps, beats):
    head = struct.pack("<6I", SNE1_MAGIC, channels, width, height,
                       timesteps, len(beats))
    return head + b"".join(struct.pack("<I", b) for b in beats)


def beat(op, t, ch, x, y):
    return (op << 30) | (t << 22) | (ch << 14) | (x << 7) | y


def demo_body(timesteps, seed):
    # A deterministic sprinkle of UPDATE (op=1) events on the demo model's
    # 1x16x16 input plane.
    beats = []
    state = seed
    for t in range(timesteps):
        for _ in range(6):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            x, y = (state >> 8) % 16, (state >> 16) % 16
            beats.append(beat(1, t, 0, x, y))
    return pack_stream(1, 16, 16, timesteps, beats)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)
    print(f"ok: {msg}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", required=True)
    ap.add_argument("--checkpoint", default="/tmp/sne_gateway_demo.snem")
    ap.add_argument("--scrape-out", default="/tmp/sne_gateway_prom.txt")
    ap.add_argument("--timeout", type=float, default=30.0)
    args = ap.parse_args()

    proc = subprocess.Popen(
        [args.binary, "--port", "0", "--demo-checkpoint", args.checkpoint,
         "--token", "smoke-token=smoke", "--allow-anonymous"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        # The binary prints "sne_gateway listening on 127.0.0.1:<port> ...".
        line = proc.stdout.readline()
        print(line.rstrip())
        if "listening on" not in line:
            fail(f"unexpected startup line: {line!r}")
        port = int(line.split(":")[1].split()[0])

        deadline = time.monotonic() + args.timeout
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().read() == b"ok\n":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                fail("gateway never became healthy")
            time.sleep(0.1)
        print("ok: /healthz answers")

        auth = {"Authorization": "Bearer smoke-token"}

        # Inference round trip with a checkable SNE1 response.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        conn.request("POST", "/v1/infer?model=demo", demo_body(6, 42), auth)
        r = conn.getresponse()
        body = r.read()
        expect(r.status == 200, f"/v1/infer status 200 (got {r.status})")
        expect(r.getheader("X-Sne-Cycles") is not None
               and int(r.getheader("X-Sne-Cycles")) > 0,
               "response carries a positive X-Sne-Cycles")
        expect(len(body) >= 24
               and struct.unpack("<I", body[:4])[0] == SNE1_MAGIC,
               "response body is an SNE1 stream")
        ch, w, h = struct.unpack("<3I", body[4:16])
        expect((ch, w, h) == (2, 16, 16),
               f"output geometry matches the demo model (got {ch}x{w}x{h})")

        def exchange(method, target, body=b"", headers=auth):
            # One keep-alive exchange; the body must be drained before the
            # connection can carry the next request.
            conn.request(method, target, body, headers)
            resp = conn.getresponse()
            return resp.status, resp.read(), resp

        # Error mapping stays intact over the wire.
        status, _, _ = exchange("POST", "/v1/infer?model=ghost")
        expect(status == 404, "unknown model answers 404")
        status, _, _ = exchange("POST", "/v1/infer?model=demo", b"garbage")
        expect(status == 400, "malformed body answers 400")

        # Event timestamps are 8-bit, so a session clock holds at most 256
        # steps: a longer horizon is a client error at open.
        status, _, _ = exchange("POST", "/v1/session/open?model=demo",
                                headers={**auth, "X-Sne-Horizon": "257"})
        expect(status == 400, "X-Sne-Horizon: 257 answers 400")

        # Streaming session: open, feed plain, feed chunked, close.
        status, raw, _ = exchange("POST", "/v1/session/open?model=demo",
                                  headers={**auth, "X-Sne-Horizon": "16"})
        sid = raw.decode()
        expect(status == 200 and sid.isdigit(), f"session opened (id {sid})")
        status, _, _ = exchange("POST", f"/v1/session/{sid}/feed",
                                demo_body(4, 1))
        expect(status == 200, "session feed answers 200")
        # Hand-rolled chunked transfer-encoding (putrequest, so http.client
        # doesn't add a conflicting Content-Length): the blob split mid-way
        # into an explicit two-chunk wire shape.
        chunk = demo_body(4, 2)
        conn.putrequest("POST", f"/v1/session/{sid}/feed")
        conn.putheader("Authorization", "Bearer smoke-token")
        conn.putheader("Transfer-Encoding", "chunked")
        conn.endheaders()
        half = len(chunk) // 2
        for piece in (chunk[:half], chunk[half:]):
            conn.send(b"%x\r\n" % len(piece) + piece + b"\r\n")
        conn.send(b"0\r\n\r\n")
        r = conn.getresponse()
        r.read()
        expect(r.status == 200, "chunked session feed answers 200")
        status, _, _ = exchange("POST", f"/v1/session/{sid}/close")
        expect(status == 200, "session close answers 200")

        # A session holds no engine between chunks: three sessions open on
        # the default 2 engines, each answers a chunk, and the front door
        # stays live.
        sids = []
        for i in range(3):
            status, raw, _ = exchange("POST", "/v1/session/open?model=demo",
                                      headers={**auth, "X-Sne-Horizon": "16"})
            expect(status == 200,
                   f"session {i + 1} of 3 opens on 2 engines (got {status})")
            sids.append(raw.decode())
        for i, s in enumerate(sids):
            status, _, _ = exchange("POST", f"/v1/session/{s}/feed",
                                    demo_body(4, 10 + i))
            expect(status == 200,
                   f"session {s} answers its chunk (got {status})")
        probe = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
        probe.request("GET", "/healthz")
        health = probe.getresponse()
        expect(health.status == 200 and health.read() == b"ok\n",
               "/healthz answers 200 with three sessions open")
        probe.close()
        for s in sids:
            status, _, _ = exchange("POST", f"/v1/session/{s}/close")
            expect(status == 200, f"session {s} closes")

        # Metrics scrape for check_obs.py --gateway.
        status, raw, _ = exchange("GET", "/metrics", body=None, headers={})
        scrape = raw.decode()
        expect(status == 200 and "sne_gateway_requests_total" in scrape,
               "metrics scrape exposes sne_gateway_* families")
        with open(args.scrape_out, "w") as f:
            f.write(scrape)
        print(f"ok: scrape written to {args.scrape_out}")
        conn.close()

        # Graceful drain: SIGTERM -> exit 0.
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=args.timeout)
        out = proc.stdout.read()
        print(out.rstrip())
        expect(rc == 0, f"SIGTERM drained with exit 0 (got {rc})")
        expect("drained" in out, "drain message printed")
        print("gateway smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
