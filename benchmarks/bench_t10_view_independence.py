"""T10 — view-update independence (the [9] companion machinery).

The abstract recalls that the regular-tree-pattern technique was first
used to detect independence of *views* from update classes; Section 5
transfers it to FDs.  This bench runs the view criterion for the paper's
queries R1-R3 against the update class U, checks the verdicts against
dynamic ground truth (apply an update, re-evaluate the view), and times
the analysis.
"""

import pytest

from repro.independence.matrix import check_view_independence_matrix
from repro.independence.views import check_view_independence
from repro.obs.metrics import MetricsRegistry, format_metrics_table
from repro.pattern.engine import evaluate_pattern
from repro.update.apply import Update, apply_update
from repro.update.operations import set_text
from repro.workload.exams import generate_session
from repro.xmlmodel.equality import value_key

from benchmarks.conftest import emit_table

EXPECTED = {"r1": True, "r2": True, "r3": False}


@pytest.mark.parametrize("name", ("r1", "r2", "r3"))
def bench_view_criterion(benchmark, figures, name):
    view = getattr(figures, name)
    result = benchmark.pedantic(
        lambda: check_view_independence(
            view, figures.update_class, want_witness=False
        ),
        rounds=3,
        iterations=1,
    )
    assert result.independent == EXPECTED[name]


def _view_snapshot(view, document):
    return [
        tuple(value_key(node) for node in row)
        for row in evaluate_pattern(view, document)
    ]


def bench_t10_report(benchmark, figures):
    document = generate_session(40, seed=33)
    update = Update(figures.update_class, set_text("Z"))
    updated = apply_update(document, update)

    # the batch API decides all three views in one shared run
    names = ("r1", "r2", "r3")
    views = [getattr(figures, name) for name in names]
    matrix = check_view_independence_matrix(
        views, [figures.update_class], view_names=list(names)
    )

    rows = []
    for index, name in enumerate(names):
        view = views[index]
        cell = matrix.cell(index, 0)
        assert cell.independent == EXPECTED[name]
        changed = _view_snapshot(view, document) != _view_snapshot(
            view, updated
        )
        rows.append(
            [
                name.upper(),
                cell.verdict.value.upper(),
                "changed" if changed else "unchanged",
                f"{cell.elapsed_seconds * 1000:.1f}",
            ]
        )
        # soundness: certified views must not change
        if cell.independent:
            assert not changed
    emit_table(
        "T10: view-update independence (views R1-R3 vs level updates U)",
        ["view", "view-IC verdict", "dynamic check (40 candidates)", "time (ms)"],
        rows,
    )

    # the bench opts in to metrics: fold the batch run into a registry
    # so the report shows the verdict counters and cell-latency buckets
    registry = MetricsRegistry().absorb(matrix)
    for line in format_metrics_table(registry.snapshot()).splitlines():
        print(f"# {line}")

    benchmark.pedantic(
        lambda: check_view_independence(
            figures.r1, figures.update_class, want_witness=False
        ),
        rounds=2,
        iterations=1,
    )
