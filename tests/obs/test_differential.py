"""Observability must never change a verdict: traced == untraced.

The acceptance bar for the whole subsystem: for randomized (FD, update
class[, schema]) instances — plain, budgeted, and checkpointed matrix
runs — the verdict AND the explored-work accounting of a run with a
live tracer are bit-for-bit identical to the same run with
observability disabled.  ``ExplorationStats`` is a frozen
dataclass, so ``==`` compares every counter exactly.

200+ sampled instances: 100 seeds x plain pairs, 50 seeds x budgeted
pairs, and 15 seeds x 2x2 checkpointed matrices (60 cells).
"""

import random

import pytest

from repro.independence.criterion import check_independence
from repro.independence.matrix import check_independence_matrix
from repro.limits import Budget
from repro.obs.trace import InMemorySpanCollector, Tracer, installed_tracer
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_update_class,
)

from tests.independence.test_lazy_criterion import _random_triple

LABELS = ("a", "b", "c")


def _traced(callable_):
    """Run ``callable_`` under a live tracer."""
    collector = InMemorySpanCollector()
    with installed_tracer(Tracer(collector)):
        result = callable_()
    assert collector.spans, "the traced run must actually produce spans"
    return result


def _assert_same_result(traced, untraced):
    assert traced.verdict == untraced.verdict
    assert traced.exploration == untraced.exploration  # frozen dataclass ==
    assert traced.partial == untraced.partial
    assert traced.automaton_size == untraced.automaton_size


class TestDifferentialPlain:
    @pytest.mark.parametrize("seed", range(100))
    def test_traced_run_is_bit_for_bit_identical(self, seed):
        fd, update_class, schema = _random_triple(seed)

        def run():
            return check_independence(
                fd, update_class, schema=schema, want_witness=False
            )

        _assert_same_result(_traced(run), run())


class TestDifferentialBudgeted:
    @pytest.mark.parametrize("seed", range(50))
    def test_budgeted_run_is_bit_for_bit_identical(self, seed):
        fd, update_class, schema = _random_triple(seed)
        # deterministic caps only: a deadline budget varies run to run
        budget = Budget(max_explored_states=8, max_explored_rules=8)

        def run():
            return check_independence(
                fd, update_class, schema=schema, want_witness=False,
                budget=budget,
            )

        _assert_same_result(_traced(run), run())


class TestDifferentialMatrix:
    @pytest.mark.parametrize("seed", range(15))
    def test_checkpointed_matrix_is_identical(self, seed, tmp_path):
        rng = random.Random(seed)
        fds = [
            random_functional_dependency(rng, LABELS, node_count=3, max_length=2)
            for _ in range(2)
        ]
        update_classes = [
            random_update_class(rng, LABELS, node_count=2, max_length=2)
            for _ in range(2)
        ]

        def run(checkpoint_dir):
            return check_independence_matrix(
                fds, update_classes, checkpoint_dir=checkpoint_dir
            )

        traced = _traced(lambda: run(tmp_path / "traced"))
        untraced = run(tmp_path / "untraced")
        for traced_row, untraced_row in zip(traced.cells, untraced.cells):
            for traced_cell, untraced_cell in zip(traced_row, untraced_row):
                assert traced_cell.verdict == untraced_cell.verdict
                assert traced_cell.exploration == untraced_cell.exploration
                assert traced_cell.partial == untraced_cell.partial
