"""``decide_dangerous`` against the frozen procedures it replaced.

Per-pair FD checks, per-pair view checks and matrix cells all decide
``L = ∅`` through :func:`repro.independence.criterion.decide_dangerous`.
Before it existed each of the three wrote the decision out on its own;
``legacy_cells`` keeps those three copies as the oracle.  Per-pair
results must equal the oracle field for field — verdict, serialized
witness, exploration and partial statistics, ``automaton_size`` and
the resolved strategy — for every strategy, with and without a
witness, unbounded and under a step cap tight enough to cut some runs
short.  Matrix cells must equal the oracle's cell loop on the T3 chain
and schema-width inputs, serial and fanned out, and the row chunk's
selector must have been fed exactly the lazy cells the oracle fed.
"""

import itertools

import pytest

from repro.fd.fd import FunctionalDependency
from repro.independence import matrix as matrix_module
from repro.independence import pool
from repro.independence.criterion import Verdict, check_independence
from repro.independence.matrix import _witness_to_json, check_independence_matrix
from repro.independence.strategy import AUTO, EAGER, LAZY, StrategySelector
from repro.independence.views import check_view_independence
from repro.limits import Budget
from repro.pattern.builder import PatternBuilder
from repro.schema.dtd import Schema
from repro.update.update_class import UpdateClass
from tests.independence.legacy_cells import (
    legacy_check_independence,
    legacy_check_view_independence,
    legacy_explore_rows,
)
from tests.independence.test_lazy_criterion import _random_triple

SEEDS = range(16)
STRATEGIES = (AUTO, LAZY, EAGER)

#: a step cap that cuts some random cells short and lets others finish
STEP_BUDGET = Budget(max_explored_rules=60)
BUDGETS = (None, STEP_BUDGET)


def _witness(document):
    return None if document is None else _witness_to_json(document)


def _pair_fields(result) -> tuple:
    return (
        result.verdict,
        _witness(result.witness),
        result.exploration,
        result.partial,
        result.automaton_size,
        result.strategy,
    )


def _cell_fields(cell) -> tuple:
    return (
        cell.verdict,
        _witness(cell.witness),
        cell.exploration,
        cell.partial,
    )


def _pair_runs():
    return itertools.product(STRATEGIES, (True, False), BUDGETS)


class TestPerPair:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fd_checks_match_oracle(self, seed):
        fd, update_class, schema = _random_triple(seed)
        for strategy, want_witness, budget in _pair_runs():
            new = check_independence(
                fd, update_class, schema=schema, want_witness=want_witness,
                strategy=strategy, budget=budget,
            )
            old = legacy_check_independence(
                fd, update_class, schema=schema, want_witness=want_witness,
                strategy=strategy, budget=budget,
            )
            assert _pair_fields(new) == _pair_fields(old), (
                strategy, want_witness, budget,
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_view_checks_match_oracle(self, seed):
        fd, update_class, schema = _random_triple(seed)
        for strategy, want_witness, budget in _pair_runs():
            new = check_view_independence(
                fd.pattern, update_class, schema=schema,
                want_witness=want_witness, strategy=strategy, budget=budget,
            )
            old = legacy_check_view_independence(
                fd.pattern, update_class, schema=schema,
                want_witness=want_witness, strategy=strategy, budget=budget,
            )
            assert _pair_fields(new) == _pair_fields(old), (
                strategy, want_witness, budget,
            )
            assert (new.automaton is None) == (old.automaton is None)

    def test_step_budget_splits_the_seeds(self):
        # the capped runs above only mean something if the cap both
        # cuts some decisions short and lets others finish
        verdicts = set()
        for seed in SEEDS:
            fd, update_class, schema = _random_triple(seed)
            for strategy in (LAZY, EAGER):
                verdicts.add(
                    check_independence(
                        fd, update_class, schema=schema, want_witness=False,
                        strategy=strategy, budget=STEP_BUDGET,
                    ).verdict
                )
        assert Verdict.UNKNOWN in verdicts
        assert verdicts - {Verdict.UNKNOWN}


def _chain_fd(length: int) -> FunctionalDependency:
    builder = PatternBuilder()
    node = builder.child(builder.root, "c", name="c")
    for index in range(length):
        node = builder.child(node, f"x{index % 3}")
    builder.child(node, "k", name="p1")
    builder.child(node, "v", name="q")
    return FunctionalDependency(
        builder.pattern("p1", "q"), context="c", name=f"fd-chain-{length}"
    )


def _chain_update(length: int) -> UpdateClass:
    builder = PatternBuilder()
    node = builder.root
    for index in range(length):
        node = builder.child(node, f"y{index % 3}")
    builder.child(node, "t", name="s")
    return UpdateClass(builder.pattern("s"), name=f"u-chain-{length}")


def _wide_schema(width: int) -> Schema:
    return Schema.from_rules(
        "r",
        {
            "r": " ".join(f"l{index}*" for index in range(width)),
            **{f"l{index}": "#text" for index in range(width)},
        },
    )


def _matrix_input(name: str):
    if name == "chain":
        lengths = (2, 4, 8)
        schema = None
    else:
        lengths = (2, 4)
        schema = _wide_schema(int(name.split("-")[1]))
    return (
        [_chain_fd(length) for length in lengths],
        [_chain_update(length) for length in lengths],
        schema,
    )


MATRICES = ("chain", "wide-2", "wide-4", "wide-16")

#: tight enough that some T3 cells run out, loose enough for others
MATRIX_BUDGET = Budget(max_explored_rules=150)


def _oracle_cells(
    fds, update_classes, schema, strategy, want_witness, budget,
    rows_per_chunk=None,
):
    """The oracle's cells; ``rows_per_chunk`` mimics a fanned-out run,
    where every chunk scopes its own selector."""
    patterns = [fd.pattern for fd in fds]
    shared = pool.SharedWorkContext(
        update_classes=tuple(update_classes),
        schema=schema,
        alphabet=matrix_module._global_alphabet(
            patterns, update_classes, schema
        ),
    ).materialize()
    step = rows_per_chunk or len(patterns)
    cells = []
    for start in range(0, len(patterns), step):
        cells += legacy_explore_rows(
            patterns[start:start + step], shared, strategy, want_witness,
            budget=budget,
        )
    return cells


def _grid(cells):
    return [[_cell_fields(cell) for cell in row] for row in cells]


class TestMatrixCells:
    @pytest.mark.parametrize("name", MATRICES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("budget", BUDGETS[:1] + (MATRIX_BUDGET,))
    def test_serial_cells_match_oracle(self, name, strategy, budget):
        fds, update_classes, schema = _matrix_input(name)
        for want_witness in (False, True):
            matrix = check_independence_matrix(
                fds, update_classes, schema=schema, strategy=strategy,
                want_witness=want_witness, budget=budget,
            )
            expected = _oracle_cells(
                fds, update_classes, schema, strategy, want_witness, budget
            )
            assert _grid(matrix.cells) == _grid(expected), want_witness

    @pytest.mark.parametrize("name", MATRICES)
    def test_fanned_out_cells_match_oracle(self, name):
        # unbudgeted only: a worker's factor cache outlives its chunks,
        # and a cache hit charges no steps, so where a budget runs out
        # depends on which worker ran which chunk before
        fds, update_classes, schema = _matrix_input(name)
        for want_witness in (False, True):
            matrix = check_independence_matrix(
                fds, update_classes, schema=schema, parallelism=2,
                parallel_threshold_seconds=0.0, want_witness=want_witness,
            )
            assert matrix.parallelism == 2
            expected = _oracle_cells(
                fds, update_classes, schema, AUTO, want_witness, None,
                rows_per_chunk=1,  # a 2-4 row matrix on 2 jobs
            )
            assert _grid(matrix.cells) == _grid(expected), want_witness

    def test_budget_splits_the_matrix_cells(self):
        verdicts = set()
        for name in MATRICES:
            fds, update_classes, schema = _matrix_input(name)
            for strategy in (LAZY, EAGER):
                matrix = check_independence_matrix(
                    fds, update_classes, schema=schema, strategy=strategy,
                    budget=MATRIX_BUDGET,
                )
                verdicts.update(cell.verdict for row in matrix.cells for cell in row)
        assert Verdict.UNKNOWN in verdicts
        assert verdicts - {Verdict.UNKNOWN}

    @pytest.mark.parametrize("name", MATRICES)
    def test_row_selector_is_fed_like_the_oracle(self, name, monkeypatch):
        # no T3 cell explores enough of its worst case to flip a later
        # choice, so the verdicts alone cannot show whether the lazy
        # cells reached the selector: compare its state directly
        selectors = []

        class RecordingSelector(StrategySelector):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                selectors.append(self)

        monkeypatch.setattr(matrix_module, "StrategySelector", RecordingSelector)
        fds, update_classes, schema = _matrix_input(name)
        check_independence_matrix(fds, update_classes, schema=schema)
        (selector,) = selectors
        expected = StrategySelector()
        for row in _oracle_cells(fds, update_classes, schema, AUTO, False, None):
            for cell in row:
                if cell.exploration is not None:
                    expected.observe(cell.exploration)
        assert selector.explored_fraction == expected.explored_fraction
