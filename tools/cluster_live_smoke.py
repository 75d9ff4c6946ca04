#!/usr/bin/env python3
"""End-to-end smoke test for the cluster telemetry plane.

Launches `cluster_sim --serve-obs 0` (ephemeral port), waits for the
server banner, then validates the cluster roll-up endpoints while the
sim is still running:

  * /cluster.json       — valid JSON; the conservation invariant holds
                          in the served document: sum of per-node caps
                          equals the granted.sum roll-up and stays
                          within the global budget
  * /cluster.json?topk=K — exactly K nodes, sorted by deficit descending
  * /timeseries.json?node=N — only node="N" labeled series
  * /metrics            — well-formed exposition with cluster series
  * /traces.json        — at least one complete decision→grant→effect
                          flow closed with positive cap-to-effect
                          latency, served from the live tracer
  * gzip                — Accept-Encoding: gzip answers with a gzip
                          body that inflates back to the same document
                          schema, and is actually smaller
  * /healthz            — valid JSON, zero invariant violations
  * procap_top --once   — renders a frame with the cluster pane

Usage: cluster_live_smoke.py CLUSTER_SIM_BIN PROCAP_TOP_BIN [--soak]
           [--soak-seconds N] [--soak-scrapers N] [--soak-p99-ms MS]

--soak switches to the scrape-load soak: after the functional checks,
N forked scraper processes (default 8) hammer the live endpoints for at
least --soak-seconds (default 30).  The run fails on any 5xx (or
connection error), and on a scrape p99 above --soak-p99-ms (default
250 ms — the same SLO the obs_load bench gates).  CI runs this lane
nightly / on perf-labelled PRs, not in the default test sweep.
"""

import gzip
import json
import multiprocessing
import re
import subprocess
import sys
import time
import urllib.request

BANNER = re.compile(r"obs: serving http on 127\.0\.0\.1:(\d+)")


def fail(proc, msg):
    proc.terminate()
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def get(port, path, timeout=5):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as resp:
        return resp.status, resp.read().decode()


def get_gzip(port, path, timeout=5):
    """Fetch with Accept-Encoding: gzip; returns (encoding, raw bytes)."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        headers={"Accept-Encoding": "gzip"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.headers.get("Content-Encoding", ""), resp.read()


def scrape_worker(port, worker_id, stop_at, conn):
    """One soak scraper: rotate the endpoints until the deadline, record
    per-request latency and any non-2xx outcome."""
    paths = [
        "/cluster.json",
        "/metrics",
        f"/timeseries.json?node={worker_id}",
        "/traces.json",
        "/cluster.json?topk=8",
        "/healthz",
    ]
    latencies = []
    errors = 0
    i = 0
    while time.monotonic() < stop_at:
        path = paths[i % len(paths)]
        i += 1
        t0 = time.perf_counter()
        try:
            status, _ = get(port, path, timeout=10)
            if status >= 500:
                errors += 1
        except Exception:
            # The sim may finish (connection refused) right at the end of
            # the window; only count errors while the deadline holds.
            if time.monotonic() < stop_at - 1.0:
                errors += 1
            break
        latencies.append(time.perf_counter() - t0)
    conn.send((len(latencies), errors, latencies))
    conn.close()


def run_soak(proc, port, scrapers, seconds, p99_ms):
    print(f"soak: {scrapers} scraper processes for {seconds} s "
          f"(p99 SLO {p99_ms:.0f} ms)")
    stop_at = time.monotonic() + seconds
    workers = []
    for worker_id in range(scrapers):
        parent, child = multiprocessing.Pipe()
        w = multiprocessing.Process(
            target=scrape_worker, args=(port, worker_id, stop_at, child)
        )
        w.start()
        workers.append((w, parent))

    total = 0
    errors = 0
    latencies = []
    for w, parent in workers:
        if parent.poll(seconds + 60):
            n, e, lat = parent.recv()
            total += n
            errors += e
            latencies.extend(lat)
        else:
            errors += 1
        w.join(timeout=30)
    if total == 0:
        fail(proc, "soak: no scrape completed")
    if errors:
        fail(proc, f"soak: {errors} scrape failures (5xx or refused)")
    latencies.sort()
    p50 = latencies[len(latencies) // 2] * 1e3
    p99 = latencies[min(len(latencies) - 1,
                        int(len(latencies) * 0.99))] * 1e3
    rate = total / seconds
    print(f"soak: {total} scrapes ({rate:.0f}/s), zero 5xx, "
          f"p50 {p50:.1f} ms, p99 {p99:.1f} ms")
    if p99 > p99_ms:
        fail(proc, f"soak: scrape p99 {p99:.1f} ms exceeds SLO "
                   f"{p99_ms:.0f} ms")


def main():
    args = [a for a in sys.argv[1:]]
    soak = "--soak" in args
    if soak:
        args.remove("--soak")

    def flag(name, default):
        if name in args:
            i = args.index(name)
            value = float(args[i + 1])
            del args[i:i + 2]
            return value
        return default

    soak_seconds = flag("--soak-seconds", 30.0)
    soak_scrapers = int(flag("--soak-scrapers", 8))
    soak_p99_ms = flag("--soak-p99-ms", 250.0)
    cluster_sim, procap_top = args[0], args[1]

    # The soak needs the sim to keep serving past its deadline: slow the
    # pace so the run covers the functional checks plus the soak window.
    epochs, pace = (600, 10) if soak else (120, 20)
    proc = subprocess.Popen(
        [
            cluster_sim,
            "--nodes", "48",
            "--epochs", str(epochs),
            "--threads", "2",
            "--quiet",
            "--serve-obs", "0",
            "--pace", str(pace),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            m = BANNER.search(line)
            if m:
                port = int(m.group(1))
                break
        if port is None:
            fail(proc, "server banner never appeared")
        print(f"server on port {port}")

        # Poll until a couple of epochs have been rolled up.
        deadline = time.monotonic() + 20
        cluster = None
        while time.monotonic() < deadline:
            status, body = get(port, "/cluster.json")
            if status != 200:
                fail(proc, f"/cluster.json -> {status}")
            cluster = json.loads(body)
            if cluster.get("epoch", 0) >= 2 and cluster.get("nodes"):
                break
            time.sleep(0.1)
        if not cluster or not cluster.get("nodes"):
            fail(proc, "cluster roll-up never populated")

        # Conservation, as served: the sum of per-node grants must equal
        # the cluster granted.sum series and respect the global budget.
        cap_sum = sum(n["cap"] for n in cluster["nodes"])
        granted = cluster["granted"]["sum"]
        budget = cluster["budget"]
        if abs(cap_sum - granted) > 1e-6 * max(1.0, abs(granted)):
            fail(proc, f"cap sum {cap_sum} != granted.sum {granted}")
        if cap_sum > budget * (1 + 1e-9):
            fail(proc, f"granted {cap_sum} exceeds budget {budget}")
        if len(cluster["nodes"]) != 48:
            fail(proc, f"expected 48 nodes, got {len(cluster['nodes'])}")
        if cluster["alive"] + cluster["suspect"] + cluster["dead"] != 48:
            fail(proc, f"liveness counts do not add up: {cluster}")
        print(f"cluster.json: epoch {cluster['epoch']}, "
              f"granted {granted:.0f} W of {budget:.0f} W — conserved")

        # Top-k drill-down: k rows, sorted by deficit descending.
        status, body = get(port, "/cluster.json?topk=8")
        if status != 200:
            fail(proc, f"/cluster.json?topk=8 -> {status}")
        top = json.loads(body)
        deficits = [n["deficit"] for n in top["nodes"]]
        if len(deficits) != 8:
            fail(proc, f"topk=8 returned {len(deficits)} nodes")
        if deficits != sorted(deficits, reverse=True):
            fail(proc, f"topk nodes not sorted by deficit: {deficits}")
        print(f"cluster.json?topk=8: worst deficit {deficits[0]:.1f} W")

        # Per-node drill-down on the retained time series.
        status, body = get(port, "/timeseries.json?node=5")
        if status != 200:
            fail(proc, f"/timeseries.json?node=5 -> {status}")
        ts = json.loads(body)
        labels = {s["labels"] for s in ts["series"]}
        if not ts["series"] or labels != {'node="5"'}:
            fail(proc, f"node filter leaked other series: {sorted(labels)}")
        status, body = get(port, "/timeseries.json?name=cluster.granted.sum")
        names = {s["name"] for s in json.loads(body)["series"]}
        if names != {"cluster.granted.sum"}:
            fail(proc, f"name filter leaked other series: {sorted(names)}")
        print(f"timeseries.json: node and name filters select exactly")

        status, body = get(port, "/metrics")
        if status != 200:
            fail(proc, f"/metrics -> {status}")
        metric_line = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.inf-]+$"
        )
        for line in body.splitlines():
            if line and not line.startswith("#") and \
                    not metric_line.match(line):
                fail(proc, f"bad exposition line: {line!r}")
        if "procap_cluster_granted_sum" not in body:
            fail(proc, "procap_cluster_granted_sum missing from /metrics")
        print(f"metrics: {len(body.splitlines())} exposition lines")

        # Causal tracing, live: the control loop must have closed at
        # least one complete decision→grant→effect flow, with a positive
        # cap-to-effect latency, served from the tracer's kept ring.
        deadline = time.monotonic() + 20
        closed_flow = None
        traces = None
        while time.monotonic() < deadline and closed_flow is None:
            status, body = get(port, "/traces.json")
            if status != 200:
                fail(proc, f"/traces.json -> {status}")
            traces = json.loads(body)
            closed_flow = next(
                (f for f in traces.get("flows", [])
                 if f.get("state") == "closed"
                 and f.get("latency_ms", 0) > 0),
                None,
            )
            if closed_flow is None:
                time.sleep(0.2)
        if closed_flow is None:
            fail(proc, f"no closed flow with positive latency: "
                       f"{traces and traces.get('stats')}")
        stats = traces["stats"]
        if stats.get("closed", 0) < 1:
            fail(proc, f"tracer closed no flows: {stats}")
        print(f"traces.json: {stats['closed']} flows closed, kept flow "
              f"epoch {closed_flow['epoch']} node {closed_flow['node']} "
              f"latency {closed_flow['latency_ms']:.0f} ms")

        # Flow filters, live: the epoch filter must select exactly.
        status, body = get(
            port, f"/traces.json?epoch={closed_flow['epoch']}")
        filtered = json.loads(body)
        if not filtered["flows"] or any(
                f["epoch"] != closed_flow["epoch"]
                for f in filtered["flows"]):
            fail(proc, "traces.json epoch filter leaked other epochs")
        print(f"traces.json?epoch={closed_flow['epoch']}: "
              f"{len(filtered['flows'])} flows, filter exact")

        # gzip negotiation: the compressed answer must inflate to the
        # same document schema and actually save bytes.
        encoding, raw = get_gzip(port, "/traces.json?flows=0")
        if encoding != "gzip":
            fail(proc, f"gzip not negotiated (Content-Encoding "
                       f"{encoding!r})")
        inflated = json.loads(gzip.decompress(raw).decode())
        if "stats" not in inflated or "node_summary" not in inflated:
            fail(proc, "gzip round-trip lost the document schema")
        identity_len = len(get(port, "/traces.json?flows=0")[1])
        if len(raw) >= identity_len:
            fail(proc, f"gzip body ({len(raw)} B) not smaller than "
                       f"identity ({identity_len} B)")
        print(f"gzip: {identity_len} B -> {len(raw)} B on "
              f"/traces.json?flows=0")

        status, body = get(port, "/healthz")
        if status != 200:
            fail(proc, f"/healthz -> {status}")
        health = json.loads(body)
        if health.get("invariant_violations", -1) != 0:
            fail(proc, f"/healthz reports violations: {health}")
        print(f"healthz: epoch {health['epoch']}, all invariants hold")

        top_run = subprocess.run(
            [procap_top, "--port", str(port), "--once"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if top_run.returncode != 0:
            fail(proc, f"procap_top failed: {top_run.stderr}")
        if "cluster" not in top_run.stdout:
            fail(proc, f"procap_top cluster pane missing:\n{top_run.stdout}")
        print("procap_top: rendered cluster pane")

        if soak:
            run_soak(proc, port, soak_scrapers, soak_seconds, soak_p99_ms)
            proc.terminate()
            proc.wait(timeout=30)
        else:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                fail(proc, "cluster_sim did not exit within 30 s after "
                           "the checks passed (hung run loop?)")
            if proc.returncode != 0:
                fail(proc, f"cluster_sim exited {proc.returncode}")
        print("PASS")
    finally:
        proc.terminate()
        proc.wait(timeout=10)


if __name__ == "__main__":
    main()
