"""Tests for the daemon's supporting changes in the older layers:
pressure-scalable budgets, idempotent pool shutdown, breaker-attributed
serial-fallback accounting, persistence-warning dedup, and the matrix
JSON rendering the HTTP responses are built from."""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ReproError
from repro.independence import pool
from repro.independence.matrix import check_independence_matrix
from repro.limits import Budget
from repro.obs.metrics import MetricsRegistry
from repro.persistence import PersistenceWarning
from repro.persistence.store import (
    _warn_degraded,
    persistence_metrics,
    persistence_stats,
    reset_persistence_warnings,
)
from tests.serve.conftest import FD_ITEMS, FD_ORDERS
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.xpath.translate import update_class_from_xpath


class TestBudgetScaled:
    def test_scales_every_configured_dimension(self):
        budget = Budget(
            deadline_ms=1000.0, max_explored_states=400, max_explored_rules=200
        )
        scaled = budget.scaled(0.5)
        assert scaled.deadline_ms == 500.0
        assert scaled.max_explored_states == 200
        assert scaled.max_explored_rules == 100

    def test_unconfigured_dimensions_stay_unconfigured(self):
        """Pressure scaling tightens caps the operator set; it must not
        invent caps on dimensions left unbounded."""
        budget = Budget(deadline_ms=1000.0)
        scaled = budget.scaled(0.25)
        assert scaled.deadline_ms == 250.0
        assert scaled.max_explored_states is None
        assert scaled.max_explored_rules is None

    def test_full_fraction_and_unbounded_are_identity(self):
        budget = Budget(deadline_ms=100.0)
        assert budget.scaled(1.0) is budget
        unbounded = Budget()
        assert unbounded.scaled(0.1) is unbounded

    def test_floors_protect_against_zero_budgets(self):
        budget = Budget(deadline_ms=2.0, max_explored_states=3)
        scaled = budget.scaled(0.01)
        assert scaled.deadline_ms >= 1.0
        assert scaled.max_explored_states >= 1

    def test_nonpositive_fraction_is_an_error(self):
        with pytest.raises(ReproError):
            Budget(deadline_ms=10.0).scaled(0.0)


class TestPoolShutdownIdempotency:
    def test_shutdown_all_twice_is_safe(self):
        pool.shutdown_all()
        pool.shutdown_all()  # idempotent: drain + atexit may both call

    def test_discard_of_missing_executor_is_a_noop(self):
        pool.discard_executor(max_workers=997)

    def test_breaker_serial_fallback_reuses_the_pool_counters(self):
        before = pool.pool_stats()
        pool.record_serial_fallback(3, reason="breaker")
        after = pool.pool_stats()
        assert after["serial_fallback_chunks"] == (
            before["serial_fallback_chunks"] + 3
        )
        assert after["breaker_serial_chunks"] == (
            before["breaker_serial_chunks"] + 3
        )

    def test_plain_fallback_does_not_count_as_breaker(self):
        before = pool.pool_stats()
        pool.record_serial_fallback(2)
        after = pool.pool_stats()
        assert after["serial_fallback_chunks"] == (
            before["serial_fallback_chunks"] + 2
        )
        assert after["breaker_serial_chunks"] == before["breaker_serial_chunks"]


class TestPersistenceWarningDedup:
    @pytest.fixture(autouse=True)
    def fresh(self):
        reset_persistence_warnings()
        yield
        reset_persistence_warnings()

    def test_one_warning_per_group_rest_counted(self):
        with pytest.warns(PersistenceWarning):
            _warn_degraded("disk on fire", group="daemon", stacklevel=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a repeat would fail the test
            _warn_degraded("disk still on fire", group="daemon", stacklevel=1)
        stats = persistence_stats()
        assert stats["degraded_events"] == 2
        assert stats["suppressed_warnings"] == 1

    def test_distinct_groups_each_warn(self):
        with pytest.warns(PersistenceWarning):
            _warn_degraded("run a", group="a", stacklevel=1)
        with pytest.warns(PersistenceWarning):
            _warn_degraded("run b", group="b", stacklevel=1)
        assert persistence_stats()["suppressed_warnings"] == 0

    def test_metrics_absorb_persistence(self):
        with pytest.warns(PersistenceWarning):
            _warn_degraded("x", group="g", stacklevel=1)
        _warn_degraded("y", group="g", stacklevel=1)
        registry = MetricsRegistry().absorb(persistence_metrics)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["persistence.degraded_events"] == 2
        assert snapshot["gauges"]["persistence.suppressed_warnings"] == 1


class TestMatrixToJsonDict:
    @pytest.fixture(scope="class")
    def matrix(self):
        fds = [
            translate_linear_fd(LinearFD.parse(text, name=f"fd{i + 1}"))
            for i, text in enumerate([FD_ORDERS, FD_ITEMS])
        ]
        updates = [
            update_class_from_xpath(xpath, name=f"u{i + 1}")
            for i, xpath in enumerate(
                ["/orders/order/status", "/orders/order/customer/name"]
            )
        ]
        return check_independence_matrix(fds, updates)

    def test_shape_and_names(self, matrix):
        document = matrix.to_json_dict()
        assert document["row_names"] == ["fd1", "fd2"]
        assert document["column_names"] == ["u1", "u2"]
        assert len(document["verdicts"]) == 2
        assert all(len(row) == 2 for row in document["verdicts"])
        assert document["cells"] == 4

    def test_needs_revalidation_is_the_complement_of_independent(
        self, matrix
    ):
        document = matrix.to_json_dict()
        flagged = {tuple(pair) for pair in document["needs_revalidation"]}
        for i, row in enumerate(document["verdicts"]):
            for j, verdict in enumerate(row):
                pair = (document["row_names"][i], document["column_names"][j])
                assert (pair in flagged) == (verdict != "independent")
        assert document["independent"] + len(flagged) == document["cells"]

    def test_counts_agree_with_the_matrix(self, matrix):
        document = matrix.to_json_dict()
        assert document["independent"] == matrix.independent_count()
        assert document["unknown"] == matrix.unknown_count()
        assert document["all_independent"] == matrix.all_independent()
        assert document["strategy"] == matrix.strategy
