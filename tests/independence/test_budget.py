"""Budgeted runs of the criterion: UNKNOWN semantics and determinism.

Three properties pin down the degradation layer:

* **non-interference** — ``budget=None`` and a generous budget both
  reproduce the unbounded verdict exactly (the meter only observes);
* **determinism** — the state/rule caps charge at insertion-ordered
  counter points, so the same instance under the same cap yields the
  same UNKNOWN snapshot on every run (only deadline snapshots may
  vary);
* **soundness routing** — an UNKNOWN result reports
  ``needs_revalidation`` and the router in
  :mod:`repro.independence.revalidate` actually takes the fallback.

The instance sampler is shared with the lazy-vs-eager equivalence suite
so budgeted behaviour is exercised on the same randomized population.
"""

import pytest

from repro.independence.criterion import (
    EAGER,
    LAZY,
    Verdict,
    check_independence,
)
from repro.independence.views import check_view_independence
from repro.limits import Budget, DEADLINE, RULE_CAP, STATE_CAP
from tests.independence.test_lazy_criterion import _random_triple

TINY = Budget(max_explored_states=3, max_explored_rules=3)
GENEROUS = Budget(
    deadline_ms=60_000, max_explored_states=10**6, max_explored_rules=10**6
)


class TestNonInterference:
    @pytest.mark.parametrize("seed", range(25))
    def test_generous_budget_reproduces_unbounded_verdict(self, seed):
        fd, update_class, schema = _random_triple(seed)
        # pinned lazy: the exploration-stats comparison below needs the
        # lazy accounting regardless of what strategy="auto" would pick
        unbounded = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            strategy=LAZY,
        )
        bounded = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            budget=GENEROUS, strategy=LAZY,
        )
        assert bounded.verdict == unbounded.verdict
        assert bounded.decided
        assert bounded.partial is None
        assert bounded.exploration is not None
        assert (
            bounded.exploration.explored_rules
            == unbounded.exploration.explored_rules
        )

    @pytest.mark.parametrize("strategy", [LAZY, EAGER])
    def test_unbounded_budget_object_is_a_noop(self, strategy):
        fd, update_class, schema = _random_triple(7)
        plain = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            strategy=strategy,
        )
        with_budget = check_independence(
            fd, update_class, schema=schema, want_witness=False,
            strategy=strategy, budget=Budget(),
        )
        assert with_budget.verdict == plain.verdict


class TestUnknownVerdict:
    @pytest.mark.parametrize("seed", range(25))
    def test_tiny_caps_yield_unknown_with_partial_stats(self, seed):
        fd, update_class, schema = _random_triple(seed)
        result = check_independence(
            fd, update_class, schema=schema, want_witness=False, budget=TINY
        )
        # 3 states/rules cannot complete any real product exploration
        assert result.verdict is Verdict.UNKNOWN
        assert not result.decided
        assert result.needs_revalidation
        assert result.witness is None
        assert result.partial is not None
        assert result.unknown_reason in (STATE_CAP, RULE_CAP)
        assert "budget exhausted" in result.describe()
        assert "revalidation" in result.describe()

    def test_expired_deadline_yields_unknown(self):
        fd, update_class, schema = _random_triple(1)
        result = check_independence(
            fd, update_class, schema=schema,
            budget=Budget(deadline_ms=0),
        )
        assert result.verdict is Verdict.UNKNOWN
        assert result.unknown_reason == DEADLINE

    @pytest.mark.parametrize("strategy", [LAZY, EAGER])
    def test_both_strategies_degrade(self, strategy):
        fd, update_class, schema = _random_triple(2)
        result = check_independence(
            fd, update_class, schema=schema, strategy=strategy,
            budget=Budget(deadline_ms=0),
        )
        assert result.verdict is Verdict.UNKNOWN

    def test_view_independence_degrades_too(self):
        import random

        from repro.workload.random_patterns import (
            random_pattern,
            random_update_class,
        )

        rng = random.Random(11)
        view = random_pattern(rng, ("a", "b", "c"), node_count=3, max_length=2)
        update_class = random_update_class(
            rng, ("a", "b", "c"), node_count=2, max_length=2
        )
        result = check_view_independence(view, update_class, budget=TINY)
        assert result.verdict is Verdict.UNKNOWN
        assert result.needs_revalidation
        assert result.partial is not None


class TestDeadlineInsideTheFixpoint:
    """The amortized deadline read still fires inside a long fixpoint.

    The engine ticks the meter once per *woken* search; searches its
    wake index skips tick nothing.  A long FD-chain x U-chain cell must
    still hit the deadline from those ticks alone, with no phase
    boundary in between, so a deadline-budgeted cell (and the service,
    whose watchdog answers all-UNKNOWN on top of it) stays bounded.
    """

    def test_long_chain_cell_stops_inside_the_product_fixpoint(self):
        from repro.independence.language import (
            dangerous_factors,
            explore_dangerous_factors,
        )
        from repro.limits import BudgetExceeded
        from tests.tautomata.test_wake_index import _chain_fd, _chain_update

        pattern_automaton, update_automaton, _ = dangerous_factors(
            _chain_fd(32).pattern, _chain_update(32)
        )
        cache: dict = {}  # factor fixpoints run (unbudgeted) up front
        full = explore_dangerous_factors(
            pattern_automaton, update_automaton, factor_cache=cache
        )
        meter = Budget(deadline_ms=0).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            explore_dangerous_factors(
                pattern_automaton, update_automaton, factor_cache=cache,
                meter=meter,
            )
        partial = excinfo.value.partial
        assert partial.reason == DEADLINE
        assert 0 < partial.step_attempts < full.stats.step_attempts
        assert partial.explored_states < full.stats.explored_states

    def test_deadline_budgeted_chain_matrix_is_all_unknown(self):
        from repro.independence.matrix import check_independence_matrix
        from tests.tautomata.test_wake_index import _chain_fd, _chain_update

        matrix = check_independence_matrix(
            [_chain_fd(32)], [_chain_update(32)],
            budget=Budget(deadline_ms=0),
        )
        cells = [cell for row in matrix.cells for cell in row]
        assert [cell.verdict for cell in cells] == [Verdict.UNKNOWN]
        assert cells[0].partial.reason == DEADLINE


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(15))
    def test_capped_runs_stop_at_identical_snapshots(self, seed):
        fd, update_class, schema = _random_triple(seed)
        budget = Budget(max_explored_states=5, max_explored_rules=8)
        first = check_independence(
            fd, update_class, schema=schema, budget=budget
        )
        second = check_independence(
            fd, update_class, schema=schema, budget=budget
        )
        assert first.verdict == second.verdict
        if first.verdict is Verdict.UNKNOWN:
            assert first.partial == second.partial

    @pytest.mark.parametrize("seed", range(10))
    def test_raising_the_cap_monotonically_decides(self, seed):
        """Some finite cap always suffices; once decided, the verdict
        matches the unbounded one."""
        fd, update_class, schema = _random_triple(seed)
        unbounded = check_independence(
            fd, update_class, schema=schema, want_witness=False
        )
        for cap in (4, 64, 4096, 10**6):
            result = check_independence(
                fd, update_class, schema=schema, want_witness=False,
                budget=Budget(
                    max_explored_states=cap, max_explored_rules=cap
                ),
            )
            if result.decided:
                assert result.verdict == unbounded.verdict
                break
        else:
            pytest.fail("a 10^6 state/rule cap should decide any test triple")


class TestFallbackRouting:
    def test_unknown_routes_to_revalidation(self):
        from repro.independence.revalidate import apply_with_fallback
        from repro.update.apply import Update
        from repro.update.operations import keep_unchanged
        from repro.xmlmodel.parser import parse_document

        fd, update_class, _schema = _random_triple(4)
        result = check_independence(fd, update_class, budget=TINY)
        assert result.verdict is Verdict.UNKNOWN
        document = parse_document("<a><b/></a>")
        update = Update(update_class, keep_unchanged(), name="noop")
        routed = apply_with_fallback(result, document, update)
        assert routed.revalidated
        assert routed.revalidation is not None
        # identity performer: FD satisfaction is whatever it was before
        assert routed.fd_preserved == routed.revalidation.satisfied_after

    def test_independent_skips_revalidation(self):
        from repro.independence.revalidate import apply_with_fallback
        from repro.update.apply import Update
        from repro.update.operations import keep_unchanged
        from repro.xmlmodel.parser import parse_document

        for seed in range(40):
            fd, update_class, schema = _random_triple(seed)
            if schema is not None:
                continue
            result = check_independence(fd, update_class)
            if result.independent:
                break
        else:
            pytest.fail("sampler produced no schemaless INDEPENDENT triple")
        document = parse_document("<a><b/></a>")
        update = Update(update_class, keep_unchanged(), name="noop")
        routed = apply_with_fallback(result, document, update)
        assert not routed.revalidated
        assert routed.fd_preserved
        assert routed.revalidation is None

    def test_mismatched_update_class_rejected(self):
        from repro.errors import IndependenceError
        from repro.independence.revalidate import apply_with_fallback
        from repro.update.apply import Update
        from repro.update.operations import keep_unchanged
        from repro.xmlmodel.parser import parse_document

        fd, update_class, _schema = _random_triple(4)
        _fd2, other_class, _schema2 = _random_triple(5)
        other_class.name = "a-different-class"
        result = check_independence(fd, update_class)
        update = Update(other_class, keep_unchanged(), name="stray")
        with pytest.raises(IndependenceError):
            apply_with_fallback(
                result, parse_document("<a/>"), update
            )
