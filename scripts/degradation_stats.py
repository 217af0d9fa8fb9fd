"""Dump budgeted-exploration partial statistics as JSON.

CI runs this when the fault-injection job fails, attaching the output
as an artifact so the truncation behaviour that broke the build can be
inspected without rerunning anything: a small randomized matrix is
driven under several deliberately tight budgets and every cell's
verdict and explored-so-far counters are recorded.  Each budget's
section also carries the metrics snapshot of its run (verdict
counters, explored-work totals, cell-latency histogram), so the
artifact shows what the pipeline was doing when it degraded.

Usage::

    PYTHONPATH=src python scripts/degradation_stats.py [OUTPUT.json]
"""

from __future__ import annotations

import json
import random
import sys

from repro.independence.matrix import check_independence_matrix
from repro.limits import Budget
from repro.obs.metrics import MetricsRegistry
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_update_class,
)

LABELS = ("a", "b", "c")
BUDGETS = {
    "tight-caps": Budget(max_explored_states=3, max_explored_rules=3),
    "medium-caps": Budget(max_explored_states=64, max_explored_rules=64),
    "expired-deadline": Budget(deadline_ms=0),
    "unbounded": None,
}


def sample_workload(seed: int = 99, rows: int = 3, columns: int = 2):
    rng = random.Random(seed)
    fds = [
        random_functional_dependency(rng, LABELS, node_count=3, max_length=2)
        for _ in range(rows)
    ]
    update_classes = [
        random_update_class(rng, LABELS, node_count=2, max_length=2)
        for _ in range(columns)
    ]
    return fds, update_classes


def collect() -> dict:
    fds, update_classes = sample_workload()
    report: dict = {"budgets": {}}
    for name, budget in BUDGETS.items():
        matrix = check_independence_matrix(fds, update_classes, budget=budget)
        registry = MetricsRegistry().absorb(matrix)
        cells = []
        for row in matrix.cells:
            for cell in row:
                entry = {
                    "row": cell.row,
                    "column": cell.column,
                    "verdict": cell.verdict.value,
                    "elapsed_ms": round(cell.elapsed_seconds * 1000, 3),
                }
                if cell.partial is not None:
                    entry["partial"] = {
                        "reason": cell.partial.reason,
                        "explored_states": cell.partial.explored_states,
                        "explored_rules": cell.partial.explored_rules,
                        "step_attempts": cell.partial.step_attempts,
                    }
                cells.append(entry)
        report["budgets"][name] = {
            "budget": None
            if budget is None
            else {
                "deadline_ms": budget.deadline_ms,
                "max_explored_states": budget.max_explored_states,
                "max_explored_rules": budget.max_explored_rules,
            },
            "unknown_cells": matrix.unknown_count(),
            "independent_cells": matrix.independent_count(),
            "cells": cells,
            "metrics": registry.snapshot(),
        }
    return report


def main(argv: list[str]) -> int:
    output = argv[1] if len(argv) > 1 else "degradation-stats.json"
    report = collect()
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
