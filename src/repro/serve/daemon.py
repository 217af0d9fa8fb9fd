"""Process lifecycle of ``repro-xml serve``: boot, signals, drain, exit.

Boot order is chosen so "ready" means ready: the worker pool is warmed
(when ``--jobs`` asks for one) and the result journal recovered
*before* the listener binds, and the one machine-readable ready line ::

    repro-serve ready on http://127.0.0.1:8642

is printed (and flushed) only after ``accept()`` works — harnesses
bind port 0 and parse the ephemeral port out of this line.

Signals follow the CLI's exit-code convention:

* ``SIGTERM`` → graceful drain → exit 0 (the orchestrator asked nicely
  and was obliged);
* ``SIGINT``  → the same graceful drain → exit 130 (the operator's
  Ctrl-C is still an interruption, and scripts distinguish the two).

Drain itself is the service's job (stop accepting, finish and journal
the queue, flush checkpoints, shut the pools down); the daemon's only
extra duty is the ugly case — a compute thread still wedged after the
grace cannot be joined, so the process must ``os._exit`` rather than
hang forever in the interpreter's thread-join shutdown.  Everything
durable was fsynced long before that point.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys

from repro.independence import pool
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import jsonl_tracing
from repro.serve.config import ServeConfig
from repro.serve.http import HttpFrontend
from repro.serve.service import IndependenceService

EXIT_OK = 0
EXIT_INTERRUPTED = 130


async def _serve(
    config: ServeConfig, metrics, tracer, ready_stream
) -> tuple[int, bool]:
    """Run until a signal; returns (exit_code, drained_cleanly)."""
    service = IndependenceService(config, metrics=metrics, tracer=tracer)
    service.start()
    if config.jobs > 1:
        # pay the worker spawn cost at boot, not on the first request —
        # a resident daemon's whole point is staying warm
        pool.get_executor(config.jobs)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    exit_code = EXIT_OK

    def _on_signal(code: int) -> None:
        nonlocal exit_code
        exit_code = code
        stop.set()

    # handlers go in before the ready line: a supervisor that signals
    # the instant it reads "ready" must hit the drain path, never the
    # default KeyboardInterrupt
    loop.add_signal_handler(signal.SIGTERM, _on_signal, EXIT_OK)
    loop.add_signal_handler(signal.SIGINT, _on_signal, EXIT_INTERRUPTED)
    frontend = HttpFrontend(service)
    host, port = await frontend.start(config.host, config.port)
    print(f"repro-serve ready on http://{host}:{port}", file=ready_stream)
    ready_stream.flush()
    try:
        await stop.wait()
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
        loop.remove_signal_handler(signal.SIGINT)
    await frontend.stop_accepting()
    clean = await service.drain()
    print(
        f"repro-serve drained ({'clean' if clean else 'grace expired'}), "
        f"exiting {exit_code}",
        file=sys.stderr,
    )
    return exit_code, clean


def run_daemon(config: ServeConfig, ready_stream=None) -> int:
    """Boot the daemon and block until drained; returns the exit code."""
    ready_stream = sys.stdout if ready_stream is None else ready_stream
    with jsonl_tracing(config.trace_path) as tracer:
        exit_code, clean = asyncio.run(
            _serve(config, MetricsRegistry(), tracer, ready_stream)
        )
    if not clean:
        # a wedged compute thread cannot be joined; everything durable
        # is already on disk, so leave without the thread-join hang
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exit_code)
    return exit_code
