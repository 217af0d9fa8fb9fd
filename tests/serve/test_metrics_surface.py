"""The daemon's ``/metrics`` body keeps its key set.

``/metrics`` is the service registry refreshed from the process-global
cache, pool and persistence sources.  Whatever the registry's adapters
look like internally, a monitoring client must keep seeing the same
instrument names after one independent and one dependent request.
"""

from __future__ import annotations

import asyncio

from tests.serve.conftest import (
    UPDATE_NAME,
    body,
    http_request,
    post_independence,
    running_service,
)

EXPECTED = {
    "counters": [
        "ic.explored_rules",
        "ic.explored_states",
        "ic.step_attempts",
        "ic.verdict.independent",
        "ic.verdict.possibly-dependent",
        "ic.worst_case_rules",
        "serve.computed",
    ],
    "gauges": [
        "cache.compile.evictions",
        "cache.compile.hits",
        "cache.compile.misses",
        "cache.compile.size",
        "matrix.elapsed_ms",
        "persistence.degraded_events",
        "persistence.suppressed_warnings",
        "pool.breaker_serial_chunks",
        "pool.context_cache_hits",
        "pool.contexts_materialized",
        "pool.contexts_published",
        "pool.gate_parallel",
        "pool.gate_serial",
        "pool.pools_created",
        "pool.pools_discarded",
        "pool.pools_reused",
        "pool.serial_fallback_chunks",
        "pool.warmup_ms_total",
        "serve.queue_depth",
    ],
    "histograms": [
        "ic.cell_ms",
        "serve.latency_ms",
    ],
}


def test_metrics_endpoint_key_set():
    async def scenario():
        async with running_service() as (_service, port):
            await post_independence(port, body())
            await post_independence(port, body(updates=[UPDATE_NAME]))
            status, _, metrics = await http_request(port, "GET", "/metrics")
            assert status == 200
            return {kind: sorted(values) for kind, values in metrics.items()}

    assert asyncio.run(scenario()) == EXPECTED
