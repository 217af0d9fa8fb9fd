"""serve: the ``repro-xml serve`` daemon under a closed loop of two clients.

The daemon runs as a subprocess with ``--checkpoint-dir``; booting it
(spawn, import, journal recovery, bind) is the set-up, repeated
:data:`BOOTS` times.  After the 32-request hot set is sent once (so the
result journal holds it), two client threads, one keep-alive
connection each, send single-pair requests in a closed loop: three of
every four come from the hot set (result-journal and single-flight
hits), the fourth is a pair the daemon has never seen, which it
computes.

Items are requests; latencies are client-side.  Every response must be
HTTP 200, not degraded, with the verdict the same pair gets in process.

This workload is not listed in ``BENCHMARK.json``: over ten seeds its
spread reached 0.17 on a shared 2-vCPU host, where the closed loop's
thread wake-ups slow down in ways the clock's reference does not see.
Run it by hand with ``--workload serve``.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.common import Clock, Cycle, Outcome, fresh_dir, process_peak_rss_mb
from perfbench.inputs import hot_pairs, serve_request

#: requests a timed run sends at least, and a traced pass sends exactly
REQUESTS = 1000
BOOTS = 3
CONNECTIONS = 2
#: shortest closed-loop stretch between two clock references
WINDOW_SECONDS = 1.0
COUNTERS = ("cache_hits", "coalesced", "computed", "shed_429", "batches", "batched_requests")
#: the per-layer counts only this workload reports (from the daemon's /stats)
LAYER_COUNTERS = {
    "serve.cache_hits": "count",
    "serve.coalesced": "count",
    "serve.computed": "count",
    "serve.batch_size": "count",
    "serve.shed_429": "count",
    "serve.server_ms_p50": "ms",
}


class Daemon:
    """One ``repro-xml serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx, checkpoint_dir: Path, trace_path: Path | None = None) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--checkpoint-dir", str(checkpoint_dir),
        ]
        if trace_path is not None:
            command += ["--trace-out", str(trace_path)]
        env = dict(os.environ, PYTHONPATH=ctx.src_dir)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, cwd=ctx.work_dir, text=True,
        )
        ready = self.process.stdout.readline()
        if "ready on http://" not in ready:
            self.stop()
            raise RuntimeError(f"daemon did not boot: {ready!r}")
        self.boot_seconds = time.perf_counter() - started
        self.port = int(ready.strip().rsplit(":", 1)[1])

    def stats(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _post(connection, pair) -> tuple[int, bytes]:
    body = json.dumps({"fds": [pair[0]], "updates": [pair[1]]})
    connection.request("POST", "/v1/independence", body, {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def _closed_loop(port: int, seed: int, minimum: int, seconds, clock: Clock):
    """Two clients send ``minimum`` requests and, given ``seconds``, go on
    until that much time has passed.

    The loop runs in windows of at least :data:`WINDOW_SECONDS`; between
    windows both clients pause while the clock measures the reference
    (the only break in the closed loop).  Returns ([(index, status,
    body)], calibrated latencies in ms, calibrated seconds).
    """
    lock = threading.Lock()
    issued = [0]
    connections = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=60) for _ in range(CONNECTIONS)
    ]
    # without ``seconds`` the loop is one window of exactly ``minimum`` requests
    window_seconds = max(WINDOW_SECONDS, clock.segment_seconds)
    results, latencies = [], []
    busy = elapsed = 0.0

    def client(slot: int, window_started: float, window: list) -> None:
        while True:
            with lock:
                if issued[0] >= minimum and (
                    seconds is None or time.perf_counter() - window_started >= window_seconds
                ):
                    break
                index = issued[0]
                issued[0] += 1
            pair = serve_request(seed, index)
            sent = time.perf_counter()
            try:
                status, body = _post(connections[slot], pair)
            except (OSError, http.client.HTTPException) as error:
                # http.client reconnects on the next request
                status, body = 0, repr(error).encode()
                connections[slot].close()
            window.append(((index, status, body), time.perf_counter() - sent))

    clock.mark()
    while issued[0] < minimum or (seconds is not None and elapsed < seconds):
        window: list = []
        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(slot, started, window))
            for slot in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        raw = time.perf_counter() - started
        factor = clock.factor()
        elapsed += raw
        busy += raw * factor
        results += [result for result, _ in window]
        latencies += [latency * factor * 1000.0 for _, latency in window]
    for connection in connections:
        connection.close()
    return results, latencies, busy


def _expected_verdicts(pairs) -> dict:
    """The in-process verdict of each distinct pair, as the daemon names it."""
    from repro.independence.matrix import check_independence_matrix
    from repro.serve.api import aggregate_verdict, parse_request

    expected = {}
    for pair in set(pairs):
        request = parse_request({"fds": [pair[0]], "updates": [pair[1]]}, "auto")
        matrix = check_independence_matrix(
            request.fds, request.update_classes, schema=request.schema, strategy=request.strategy
        )
        expected[pair] = aggregate_verdict(matrix.to_json_dict())
    return expected


def _session(ctx, name: str, minimum: int, seconds=None, trace_path=None, boots: int = 1):
    """Boot (``boots`` times, keeping the last), prime, run the loop, stop.

    Returns (cycle, span records of the loop or None).
    """
    from repro.obs.trace import read_trace

    base = fresh_dir(Path(ctx.work_dir) / name)
    boot_seconds = []
    for boot in range(boots):
        checkpoint = fresh_dir(base / f"checkpoint-{boot}")
        ctx.clock.mark()
        daemon = Daemon(ctx, checkpoint, trace_path if boot == boots - 1 else None)
        boot_seconds.append(daemon.boot_seconds * ctx.clock.factor())
        if boot < boots - 1:
            daemon.stop()
    failures: list[str] = []
    try:
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
        for pair in hot_pairs(ctx.seed):
            status, _ = _post(connection, pair)
            if status != 200:
                failures.append(f"priming request answered HTTP {status}")
        connection.close()
        primed = len(read_trace(trace_path)) if trace_path is not None else 0
        before = daemon.stats()["counters"]
        results, latencies, busy = _closed_loop(
            daemon.port, ctx.seed, minimum, seconds, ctx.clock
        )
        stats = daemon.stats()
        peak_rss = process_peak_rss_mb(daemon.process.pid)
    finally:
        daemon.stop()
    records = read_trace(trace_path)[primed:] if trace_path is not None else None

    pairs = [serve_request(ctx.seed, index) for index, _, _ in results]
    expected = _expected_verdicts(pairs)
    wrong = 0
    for (index, status, body), pair in zip(results, pairs):
        if status != 200:
            wrong += 1
            failures.append(f"request {index}: HTTP {status} {body[:120]!r}")
            continue
        answer = json.loads(body)
        if answer["served"]["source"] == "degraded" or answer["verdict"] != expected[pair]:
            wrong += 1
            failures.append(
                f"request {index}: {answer['verdict']} via {answer['served']['source']}, "
                f"expected {expected[pair]}"
            )
    counts = {key: stats["counters"][key] - before[key] for key in COUNTERS}
    compute_batches = counts["computed"] - counts["batched_requests"] + counts["batches"]
    cycle = Cycle(
        items=len(results),
        busy_seconds=busy,
        latencies_ms=latencies,
        setup_seconds=statistics.median(boot_seconds),
        attempted=len(results),
        failed=wrong,
        failures=failures[:20],
        detail={
            "serve_req_per_s": len(results) / busy,
            "serve_ms_p50": statistics.median(latencies),
        },
        sizes={
            "requests": len(results),
            "fresh_requests": sum(1 for index, _, _ in results if index % 4 == 3),
            "hot_set": len(hot_pairs(ctx.seed)),
            "connections": CONNECTIONS,
        },
        layers={
            "serve.cache_hits": counts["cache_hits"],
            "serve.coalesced": counts["coalesced"],
            "serve.computed": counts["computed"],
            "serve.shed_429": counts["shed_429"],
            "serve.batch_size": counts["computed"] / compute_batches if compute_batches else 0.0,
            "serve.server_ms_p50": stats["latency_ms"]["p50"],
        },
    )
    return cycle, peak_rss, records


def timed(ctx) -> Outcome:
    # the daemon may run on either CPU: the clock's reference visits both
    ctx.clock.every_cpu = True
    minimum = max(8, round(REQUESTS * ctx.scale))
    cycle, peak_rss, _ = _session(ctx, "timed", minimum, seconds=ctx.seconds, boots=BOOTS)
    return Outcome([cycle], peak_rss)


def traced(ctx):
    ctx.clock.every_cpu = True
    count = max(8, round(REQUESTS * ctx.scale))
    plain, rss, _ = _session(ctx, "plain", count)
    trace_path = Path(ctx.work_dir) / "serve-trace.jsonl"
    cycle, traced_rss, records = _session(ctx, "traced", count, trace_path=trace_path)
    return Outcome([plain], rss), Outcome([cycle], traced_rss), records
