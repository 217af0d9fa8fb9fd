"""ic-matrix: independence matrices through ``check_independence_matrix``.

One round checks T3's FD-chain x U-chain axes (lengths 2-32), T3's
wide-schema cells (widths 2, 4, 16), the library, package and exam
matrices under their own schemas, and a seeded random schema-less
FD x update-class matrix, all with the default strategy and
parallelism.  No XML, store or I/O is involved.

Items are cells; latencies are ``MatrixCell.elapsed_seconds``.  Checks:
no cell is UNKNOWN, the library matrix has its semantically certain
verdicts, and a sample of cells agrees with per-pair
``check_independence``.
"""

from __future__ import annotations

from perfbench.common import Cycle, Segments, ratio
from perfbench.inputs import ic_round, seeded_rng

MIN_CYCLES = 3
#: cells re-checked per round with per-pair check_independence
RECHECKS = 4

#: (FD, update class) -> verdict that holds whatever the strategy
LIBRARY_CERTAIN = {
    ("isbn-title", "price-updates"): "independent",
    ("publisher-city", "price-updates"): "independent",
    ("isbn-title", "title-updates"): "possibly-dependent",
}


def cycle(ctx, index: int, root) -> Cycle:
    from repro.independence.criterion import check_independence
    from repro.independence.matrix import check_independence_matrix
    from repro.regex.cache import cache_stats

    matrices, setup = ctx.clock.timed(ic_round, ctx.seed, index)

    before = cache_stats()["compile"]
    results = []
    segments = Segments(ctx.clock)
    segments.begin()
    for name, fds, updates, schema in matrices:
        with root(f"bench.matrix.{name}"):
            matrix = check_independence_matrix(fds, updates, schema=schema)
        results.append((name, fds, updates, schema, matrix))
        segments.add(*(cell.elapsed_seconds for row in matrix.cells for cell in row))
    segments.end()
    busy = segments.busy_seconds
    after = cache_stats()["compile"]

    failures: list[str] = []
    explored = worst = 0
    wrong = 0
    cells = []
    for name, fds, updates, schema, matrix in results:
        for row in matrix.cells:
            for cell in row:
                cells.append((name, fds[cell.row], updates[cell.column], schema, cell))
                if cell.exploration is not None:
                    explored += cell.exploration.explored_rules
                    worst += cell.exploration.worst_case_rules
                if cell.verdict.value == "unknown":
                    wrong += 1
                    failures.append(f"{name}: cell {cell.row},{cell.column} is UNKNOWN")
                if name == "library":
                    pair = (fds[cell.row].name, updates[cell.column].name)
                    expected = LIBRARY_CERTAIN.get(pair)
                    if expected is not None and cell.verdict.value != expected:
                        wrong += 1
                        failures.append(f"library {pair}: {cell.verdict.value}, expected {expected}")
    for name, fd, update, schema, cell in seeded_rng(ctx.seed, "recheck", index).sample(cells, RECHECKS):
        single = check_independence(fd, update, schema=schema, want_witness=False)
        if single.verdict is not cell.verdict:
            wrong += 1
            failures.append(
                f"{name} {fd.name} x {update.name}: matrix {cell.verdict.value}, "
                f"per pair {single.verdict.value}"
            )

    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return Cycle(
        items=len(cells),
        busy_seconds=busy,
        latencies_ms=segments.latencies_ms,
        setup_seconds=setup,
        attempted=len(cells) + RECHECKS,
        failed=wrong,
        failures=failures,
        detail={"ic_cells_per_s": len(cells) / busy},
        sizes={"cells": len(cells), "matrices": len(results)},
        layers={
            "regex.compile_cache.hit_ratio": ratio(hits, hits + misses),
            "ic.explored_rules": explored,
            "ic.explored_rules_ratio": ratio(explored, worst),
        },
    )
