"""Frozen oracle: the three IC decision procedures before they merged.

Until :func:`repro.independence.criterion.decide_dangerous` existed, the
test "is the dangerous language ``L`` empty?" was written out three
times — in ``check_independence``, in ``check_view_independence`` and in
the cell loop of the matrix's ``_explore_rows`` — each with its own
strategy resolution, meter, eager/lazy branch and UNKNOWN mapping.
This module keeps those three procedures as they were, tracing removed
(observability never changes a verdict), so
``tests/independence/test_decide_differential.py`` can pin the shared
cell function to them field for field.  Test-only: nothing under
``src/`` imports it.
"""

from __future__ import annotations

import time

from repro.errors import IndependenceError
from repro.independence.criterion import (
    IndependenceResult,
    Verdict,
)
from repro.independence.language import (
    _flagged_product,
    dangerous_factors,
    dangerous_language,
    explore_dangerous_factors,
)
from repro.independence.matrix import MatrixCell
from repro.independence.strategy import (
    AUTO,
    EAGER,
    LAZY,
    STRATEGIES,
    StrategySelector,
)
from repro.independence.views import ViewIndependenceResult
from repro.limits import BudgetExceeded
from repro.tautomata.emptiness import automaton_is_empty_typed, witness_document
from repro.tautomata.from_pattern import trace_automaton
from repro.tautomata.ops import product_automaton


def _eager(pattern_automaton, update_automaton, schema_hedge):
    flagged = _flagged_product(pattern_automaton, update_automaton)
    if schema_hedge is None:
        return flagged
    return product_automaton(schema_hedge, flagged, name="A_S×B")


def _check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise IndependenceError(
            f"unknown independence strategy {strategy!r}; "
            f"expected {AUTO!r}, {LAZY!r} or {EAGER!r}"
        )


def legacy_check_independence(
    fd, update_class, schema=None, want_witness=True, strategy=AUTO,
    budget=None,
) -> IndependenceResult:
    """``check_independence`` as it was (``ic.construct`` + one branch)."""
    _check_strategy(strategy)
    started = time.perf_counter()
    meter = None if budget is None or budget.unbounded else budget.start()
    exploration = None
    partial = None
    witness = None
    language = dangerous_language(
        fd, update_class, schema=schema, materialize=False
    )
    if strategy == AUTO:
        alphabet = set(fd.pattern.template.alphabet())
        alphabet |= update_class.pattern.template.alphabet()
        if schema is not None:
            alphabet |= schema.alphabet()
        strategy = StrategySelector().choose(
            pattern_rules=len(language.fd_automaton.automaton.rules),
            update_rules=len(language.update_automaton.automaton.rules),
            schema_rules=(
                0
                if language.schema_automaton is None
                else len(language.schema_automaton.rules)
            ),
            alphabet_size=len(alphabet),
        )
    try:
        if strategy == LAZY:
            outcome = explore_dangerous_factors(
                language.fd_automaton,
                language.update_automaton,
                language.schema_automaton,
                want_witness=want_witness,
                meter=meter,
            )
            empty = outcome.empty
            witness = outcome.witness
            exploration = outcome.stats
            automaton_size = exploration.explored_size
        else:
            if meter is not None:
                meter.check_deadline()
            automaton = _eager(
                language.fd_automaton,
                language.update_automaton,
                language.schema_automaton,
            )
            if meter is not None:
                meter.check_deadline()
            if want_witness:
                witness = witness_document(automaton, meter=meter)
                empty = witness is None
            else:
                empty = automaton_is_empty_typed(automaton, meter=meter)
            automaton_size = automaton.size()
        verdict = Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT
    except BudgetExceeded as signal:
        verdict = Verdict.UNKNOWN
        partial = signal.partial
        witness = None
        exploration = None
        automaton_size = partial.explored_states + partial.explored_rules
    return IndependenceResult(
        verdict=verdict,
        fd=fd,
        update_class=update_class,
        schema=schema,
        language=language,
        witness=witness,
        automaton_size=automaton_size,
        elapsed_seconds=time.perf_counter() - started,
        strategy=strategy,
        exploration=exploration,
        budget=budget,
        partial=partial,
    )


def legacy_check_view_independence(
    view, update_class, schema=None, want_witness=True, strategy=AUTO,
    budget=None,
) -> ViewIndependenceResult:
    """``check_view_independence`` as it was."""
    _check_strategy(strategy)
    started = time.perf_counter()
    meter = None if budget is None or budget.unbounded else budget.start()
    exploration = None
    automaton = None
    partial = None
    witness = None
    view_automaton, update_automaton, schema_hedge = dangerous_factors(
        view, update_class, schema, pattern_name="A_V"
    )
    if strategy == AUTO:
        alphabet = set(view.template.alphabet())
        alphabet |= update_class.pattern.template.alphabet()
        if schema is not None:
            alphabet |= schema.alphabet()
        strategy = StrategySelector().choose(
            pattern_rules=len(view_automaton.automaton.rules),
            update_rules=len(update_automaton.automaton.rules),
            schema_rules=0 if schema_hedge is None else len(schema_hedge.rules),
            alphabet_size=len(alphabet),
        )
    try:
        if strategy == LAZY:
            outcome = explore_dangerous_factors(
                view_automaton,
                update_automaton,
                schema_hedge,
                want_witness=want_witness,
                meter=meter,
            )
            empty = outcome.empty
            witness = outcome.witness
            exploration = outcome.stats
            automaton_size = exploration.explored_size
        else:
            if meter is not None:
                meter.check_deadline()
            automaton = _eager(view_automaton, update_automaton, schema_hedge)
            if meter is not None:
                meter.check_deadline()
            if want_witness:
                witness = witness_document(automaton, meter=meter)
                empty = witness is None
            else:
                empty = automaton_is_empty_typed(automaton, meter=meter)
            automaton_size = automaton.size()
        verdict = Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT
    except BudgetExceeded as signal:
        verdict = Verdict.UNKNOWN
        partial = signal.partial
        witness = None
        exploration = None
        automaton = None
        automaton_size = partial.explored_states + partial.explored_rules
    return ViewIndependenceResult(
        verdict=verdict,
        view=view,
        update_class=update_class,
        schema=schema,
        automaton=automaton,
        witness=witness,
        automaton_size=automaton_size,
        elapsed_seconds=time.perf_counter() - started,
        strategy=strategy,
        exploration=exploration,
        budget=budget,
        partial=partial,
    )


def legacy_explore_rows(
    patterns, shared, strategy, want_witness, budget=None,
) -> list[list[MatrixCell]]:
    """The matrix cell loop as it was: one selector and one trace
    automaton per row chunk, a fresh meter per cell."""
    update_automata = shared.update_automata
    schema_hedge = shared.schema_hedge
    factor_cache = shared.factor_cache
    schema_rules = 0 if schema_hedge is None else len(schema_hedge.rules)
    selector = StrategySelector() if strategy == AUTO else None
    rows = []
    for row_index, pattern in enumerate(patterns):
        pattern_automaton = trace_automaton(
            pattern, shared.alphabet, track_regions=True, name="A_FD"
        )
        row = []
        for column, update_automaton in enumerate(update_automata):
            cell_strategy = strategy
            if selector is not None:
                cell_strategy = selector.choose(
                    pattern_rules=len(pattern_automaton.automaton.rules),
                    update_rules=len(update_automaton.automaton.rules),
                    schema_rules=schema_rules,
                    alphabet_size=len(shared.alphabet),
                )
            started = time.perf_counter()
            meter = None if budget is None or budget.unbounded else budget.start()
            exploration = None
            witness = None
            partial = None
            try:
                if cell_strategy == LAZY:
                    outcome = explore_dangerous_factors(
                        pattern_automaton,
                        update_automaton,
                        schema_hedge,
                        want_witness=want_witness,
                        factor_cache=factor_cache,
                        meter=meter,
                    )
                    empty = outcome.empty
                    witness = outcome.witness
                    exploration = outcome.stats
                else:
                    if meter is not None:
                        meter.check_deadline()
                    automaton = _eager(
                        pattern_automaton, update_automaton, schema_hedge
                    )
                    if meter is not None:
                        meter.check_deadline()
                    if want_witness:
                        witness = witness_document(automaton, meter=meter)
                        empty = witness is None
                    else:
                        empty = automaton_is_empty_typed(automaton, meter=meter)
                verdict = (
                    Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT
                )
            except BudgetExceeded as signal:
                verdict = Verdict.UNKNOWN
                partial = signal.partial
                witness = None
                exploration = None
            if selector is not None and exploration is not None:
                selector.observe(exploration)
            row.append(
                MatrixCell(
                    row=row_index,
                    column=column,
                    verdict=verdict,
                    elapsed_seconds=time.perf_counter() - started,
                    exploration=exploration,
                    witness=witness,
                    partial=partial,
                )
            )
        rows.append(row)
    return rows
