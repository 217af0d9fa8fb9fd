"""Batch matrix IC vs the per-pair criterion, plus the CLI front-end.

The matrix run shares trace automata, the schema automaton and the
per-factor fixpoints across cells — the tests pin that none of that
sharing (nor the process fan-out) changes a single verdict.
"""

import random

import pytest

from repro.errors import IndependenceError
from repro.cli import main
from repro.independence.criterion import check_independence
from repro.independence.matrix import (
    check_independence_matrix,
    check_view_independence_matrix,
)
from repro.independence.views import check_view_independence
from repro.schema.dtd import Schema
from repro.workload.random_patterns import (
    random_functional_dependency,
    random_pattern,
    random_update_class,
)

LABELS = ("a", "b", "c")


def _workload(seed: int, rows: int = 3, columns: int = 2):
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


def _schema() -> Schema:
    return Schema.from_rules(
        "a", {"a": "b* c?", "b": "a? c*", "c": "#text"}
    )


class TestMatrixEqualsPerPair:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_schema", (False, True))
    def test_cells_match_per_pair_checks(self, seed, with_schema):
        fds, update_classes = _workload(seed)
        schema = _schema() if with_schema else None
        matrix = check_independence_matrix(fds, update_classes, schema=schema)
        assert matrix.row_names == [fd.name for fd in fds]
        assert matrix.cell_count == len(fds) * len(update_classes)
        for i, fd in enumerate(fds):
            for j, update_class in enumerate(update_classes):
                single = check_independence(
                    fd, update_class, schema=schema, want_witness=False
                )
                assert matrix.verdict(i, j) == single.verdict

    def test_eager_strategy_matches_lazy(self):
        fds, update_classes = _workload(11)
        lazy = check_independence_matrix(fds, update_classes)
        eager = check_independence_matrix(
            fds, update_classes, strategy="eager"
        )
        assert [[c.verdict for c in row] for row in lazy.cells] == [
            [c.verdict for c in row] for row in eager.cells
        ]

    def test_witnesses_on_request(self):
        fds, update_classes = _workload(4)
        matrix = check_independence_matrix(
            fds, update_classes, want_witness=True
        )
        for row in matrix.cells:
            for cell in row:
                assert cell.independent == (cell.witness is None)


class TestCellClock:
    def test_journaling_never_inflates_cell_elapsed_seconds(self):
        """The ``on_cell`` hook runs after the cell's clock stopped.

        A slow journaling callback (an fsync on spinning rust, say)
        must not show up in ``elapsed_seconds`` — that figure feeds the
        bench ratios and the pool's cell-cost model, both of which must
        measure the *analysis*, not the persistence layer.
        """
        import time as time_module

        from repro.independence import pool
        from repro.independence.matrix import _explore_rows

        fds, update_classes = _workload(17, rows=2)
        shared = pool.SharedWorkContext(
            update_classes=tuple(update_classes),
            schema=None,
            alphabet=frozenset(
                label
                for fd in fds
                for label in fd.pattern.template.alphabet()
            )
            | frozenset(
                label
                for uc in update_classes
                for label in uc.pattern.template.alphabet()
            ),
        ).materialize()
        sleep_seconds = 0.05

        def slow_journal(cell):
            time_module.sleep(sleep_seconds)

        rows = _explore_rows(
            [fd.pattern for fd in fds], 0, shared, "auto", False,
            on_cell=slow_journal,
        )
        for row in rows:
            for cell in row:
                assert cell.elapsed_seconds < sleep_seconds


class TestParallelism:
    @pytest.mark.parametrize("with_schema", (False, True))
    def test_process_fanout_matches_serial(self, with_schema):
        fds, update_classes = _workload(21, rows=4)
        schema = _schema() if with_schema else None
        serial = check_independence_matrix(fds, update_classes, schema=schema)
        parallel = check_independence_matrix(
            fds, update_classes, schema=schema, parallelism=2,
            parallel_threshold_seconds=0.0,
        )
        assert parallel.parallelism == 2
        assert [[c.verdict for c in row] for row in serial.cells] == [
            [c.verdict for c in row] for row in parallel.cells
        ]
        # cell coordinates survive the row-chunked reassembly
        for i, row in enumerate(parallel.cells):
            for j, cell in enumerate(row):
                assert (cell.row, cell.column) == (i, j)

    def test_single_row_falls_back_to_serial(self):
        fds, update_classes = _workload(5, rows=1)
        matrix = check_independence_matrix(
            fds, update_classes, parallelism=4
        )
        assert matrix.parallelism == 1


class TestViewMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_view_cells_match_per_view_checks(self, seed):
        # unbudgeted only: per-pair and matrix runs build their automata
        # over different alphabets, so step counts are not comparable
        rng = random.Random(seed + 300)
        views = [
            random_pattern(rng, LABELS, node_count=3, max_length=2)
            for _ in range(2)
        ]
        update_classes = [
            random_update_class(rng, LABELS, node_count=2, max_length=2)
            for _ in range(2)
        ]
        for schema in (None, _schema()):
            for strategy in ("auto", "lazy", "eager"):
                matrix = check_view_independence_matrix(
                    views, update_classes, schema=schema, want_witness=True,
                    strategy=strategy,
                )
                for i, view in enumerate(views):
                    for j, update_class in enumerate(update_classes):
                        single = check_view_independence(
                            view, update_class, schema=schema,
                            want_witness=True, strategy=strategy,
                        )
                        cell = matrix.cell(i, j)
                        context = (schema is not None, strategy, i, j)
                        assert cell.verdict == single.verdict, context
                        assert (cell.witness is None) == (
                            single.witness is None
                        ), context


class TestValidation:
    def test_empty_inputs_rejected(self):
        fds, update_classes = _workload(0)
        with pytest.raises(IndependenceError):
            check_independence_matrix([], update_classes)
        with pytest.raises(IndependenceError):
            check_independence_matrix(fds, [])

    def test_unknown_strategy_rejected(self):
        fds, update_classes = _workload(0)
        with pytest.raises(IndependenceError):
            check_independence_matrix(
                fds, update_classes, strategy="speculative"
            )

    def test_describe_mentions_every_row(self):
        fds, update_classes = _workload(2)
        rendered = check_independence_matrix(fds, update_classes).describe()
        for name in (fd.name for fd in fds):
            assert name in rendered


class TestCLIMatrix:
    FD1 = "(/orders, ((order/@id) -> order/customer/name))"
    FD2 = "(/orders, ((order/@id) -> order/total))"

    def test_matrix_flag_runs_batch(self, capsys):
        code = main(
            [
                "check-independence",
                "--matrix",
                "--fd", self.FD1,
                "--fd", self.FD2,
                "--update-xpath", "/orders/order/status",
                "--update-xpath", "/orders/order/customer/name",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2  # at least one POSSIBLY_DEPENDENT cell
        assert "fd1" in out and "fd2" in out
        assert "INDEPENDENT" in out and "POSSIBLY_DEPENDENT" in out

    def test_repeated_args_imply_matrix(self, capsys):
        code = main(
            [
                "independence",
                "--fd", self.FD1,
                "--fd", self.FD2,
                "--update-xpath", "/orders/order/status",
                "--jobs", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # the spawn-cost gate may degrade a tiny matrix to jobs=1; the
        # point here is that repeated --fd args produced a matrix run
        assert "jobs=" in out

    def test_single_pair_without_witness_by_default(self, capsys):
        code = main(
            [
                "independence",
                "--fd", self.FD1,
                "--update-xpath", "/orders/order/customer/name",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "dangerous document" not in out

    def test_show_witness_prints_document(self, capsys):
        code = main(
            [
                "independence",
                "--fd", self.FD1,
                "--update-xpath", "/orders/order/customer/name",
                "--show-witness",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "dangerous document" in out
