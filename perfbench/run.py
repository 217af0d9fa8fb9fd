"""The repository benchmark: one workload per run, timed or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (reasons in ``perfbench/layers.json``): ``corpus``, ``apply``
and ``ic-matrix``, listed in ``BENCHMARK.json``, and ``serve``, run by
hand only (its spread over seeds is too wide for a regression bound on
a shared host).  The program is imported from ``src/`` of
the same checkout (the serve daemon runs from it as a subprocess);
without it the benchmark exits 2 and prints no result.

``--trace 0`` repeats the workload's cycle for ``--seconds`` with
tracing off and reports the end-to-end metrics.  ``--trace 1`` runs a
warm-up cycle, one cycle plainly and the same cycle again under an
in-memory tracer with the program's layers wrapped, and reports the
per-layer metrics (calls and self time per span name,
``unattributed.ms``, the workload's counts and ratios, and
``trace.overhead_ms``: traced minus plain time).

Times are wall-clock times rescaled to a fixed host speed
(:class:`perfbench.common.Clock`): a fixed pure-Python reference is timed
around every timed stretch, so drift in the shared host's speed cancels.

Every run checks the program's outputs; a wrong output makes the run
exit 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human table,
the environment and the input sizes are printed before it and stored
with the metrics under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())

#: workload name -> module under perfbench.workloads
MODULES = {"corpus": "corpus", "apply": "apply", "ic-matrix": "icmatrix", "serve": "serve"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
}

#: per-layer counts and ratios the workloads measure (0 where not reached)
LAYER_COUNTERS = {
    "store.index_hit_ratio.cold": "ratio",
    "store.index_hit_ratio.refresh": "ratio",
    "store.index_hit_ratio.warm": "ratio",
    "store.sha_skip_ratio": "ratio",
    "store.doc_fd_pairs_indexed": "count",
    "store.bytes_per_input_byte": "ratio",
    "apply.checks_skipped_ratio": "ratio",
    "regex.compile_cache.hit_ratio": "ratio",
    "ic.explored_rules": "count",
    "ic.explored_rules_ratio": "ratio",
}


#: name prefix of the benchmark's own phase spans
ROOT_PREFIX = "bench."
#: reference runs per clock reading in traced passes (one per phase edge)
TRACE_REFERENCE_SAMPLES = 5


def per_layer_units(module=None) -> dict[str, str]:
    """Every per-layer metric name the traced pass emits, with its unit.

    A workload outside ``BENCHMARK.json`` (serve) adds its own counters.
    """
    from perfbench.tracing import SPAN_LAYERS

    units = {}
    for name in SPAN_LAYERS:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units["unattributed.ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    units.update(layer_counters(module))
    return units


def layer_counters(module=None) -> dict[str, str]:
    """The per-layer counts and ratios a workload reports, with units."""
    return {**LAYER_COUNTERS, **getattr(module, "LAYER_COUNTERS", {})}


def timed(module, ctx):
    """Repeat the workload's cycle until ``ctx.seconds`` are spent."""
    from perfbench.common import Outcome, no_root, self_peak_rss_mb

    if hasattr(module, "timed"):
        return module.timed(ctx)
    cycles = []
    started = time.perf_counter()
    while len(cycles) < module.MIN_CYCLES or time.perf_counter() - started < ctx.seconds:
        gc.collect()
        cycles.append(module.cycle(ctx, len(cycles), no_root))
    return Outcome(cycles, self_peak_rss_mb())


def traced(module, ctx):
    """A warm-up cycle, one plain cycle, then the same cycle traced.

    Returns (plain, traced, span records).
    """
    from perfbench.common import Clock, Outcome, no_root, self_peak_rss_mb
    from perfbench.tracing import TraceSession
    from repro.regex.cache import clear_caches

    # no reference runs inside a traced stretch (it would count as a layer)
    ctx.clock = Clock(segment_seconds=math.inf, samples=TRACE_REFERENCE_SAMPLES)
    if hasattr(module, "traced"):
        return module.traced(ctx)
    # a warm-up cycle pays the first-run costs (lazy imports, first
    # code paths) so they count in neither pass; both passes then start
    # from an empty process-wide compile cache
    module.cycle(ctx, 0, no_root)
    clear_caches()
    gc.collect()
    plain = module.cycle(ctx, 0, no_root)
    clear_caches()
    gc.collect()
    with TraceSession() as session:
        cycle = module.cycle(ctx, 0, session.root)
    rss = self_peak_rss_mb()
    return Outcome([plain], rss), Outcome([cycle], rss), session.records()


def layer_metrics(module, plain, traced_outcome, records, root_prefix) -> tuple[dict, dict]:
    """Per-layer metric values and the layer table behind them."""
    from perfbench.tracing import SPAN_LAYERS, layer_table

    table = layer_table(records, root_prefix)
    values = {}
    for name in SPAN_LAYERS:
        values[f"{name}.ms"] = table[name]["self_ms"]
        values[f"{name}.calls"] = table[name]["calls"]
    values["unattributed.ms"] = table["unattributed"]["self_ms"]
    values["trace.overhead_ms"] = (traced_outcome.busy_seconds - plain.busy_seconds) * 1000.0
    measured = traced_outcome.cycles[-1].layers
    for name in layer_counters(module):
        values[name] = measured.get(name, 0)
    return values, table


def print_end_to_end(values: dict, outcome, detail: dict) -> None:
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<28} {values[name]:>14.4f} {unit}")
    share = outcome.failed / outcome.attempted
    print(f"  {'failed_share':<28} {share:>14.4f} ratio ({outcome.failed} of {outcome.attempted})")
    for name, value in detail.items():
        print(f"  {name:<28} {value:>14.4f}")


def print_layers(table: dict, values: dict, counters, plain_s: float, traced_s: float) -> None:
    rows = sorted(table.items(), key=lambda item: -item[1]["self_ms"])
    print(f"  {'layer':<34} {'calls':>9} {'self ms':>12}")
    for name, row in rows:
        if row["calls"]:
            print(f"  {name:<34} {row['calls']:>9} {row['self_ms']:>12.2f}")
    print(
        f"  tracing overhead: {values['trace.overhead_ms']:.1f} ms "
        f"(plain {plain_s:.3f} s, traced {traced_s:.3f} s)"
    )
    for name in counters:
        if values[name]:
            print(f"  {name:<34} {values[name]:>12.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=LAYERS["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import importlib

    from perfbench.common import REFERENCE_SECONDS, Context, environment

    module = importlib.import_module(f"perfbench.workloads.{MODULES[args.workload]}")
    results = ROOT / ".perfbench" / "results"
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    ctx = Context(seed=args.seed, seconds=args.seconds, work_dir=str(work), src_dir=str(src))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    try:
        if args.trace:
            plain, outcome, records = traced(module, ctx)
            # in process, only spans under the benchmark's phase spans
            # count; the daemon's trace holds the loop's spans alone
            root_prefix = None if hasattr(module, "traced") else ROOT_PREFIX
            metrics, table = layer_metrics(module, plain, outcome, records, root_prefix)
            units = per_layer_units(module)
            print_layers(
                table, metrics, layer_counters(module), plain.busy_seconds, outcome.busy_seconds
            )
            from perfbench.tracing import write_records

            write_records(results / f"{args.workload}-seed{args.seed}.spans.jsonl", records)
            attempted = plain.attempted + outcome.attempted
            failed = plain.failed + outcome.failed
            failures = plain.failures + outcome.failures
        else:
            outcome = timed(module, ctx)
            metrics = outcome.end_to_end()
            units = END_TO_END_UNITS
            print_end_to_end(metrics, outcome, outcome.detail())
            attempted, failed, failures = outcome.attempted, outcome.failed, outcome.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "sizes": outcome.cycles[-1].sizes,
        "cycles": len(outcome.cycles),
        "detail": outcome.detail(),
        "failures": failures,
        "clock": {
            "reference_seconds": REFERENCE_SECONDS,
            "factor_median": statistics.median(ctx.clock.factors),
            "factor_min": min(ctx.clock.factors),
            "factor_max": max(ctx.clock.factors),
        },
    }
    print("# env " + json.dumps(record, sort_keys=True))
    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({**record, **payload}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
