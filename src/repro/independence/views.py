"""View-update independence: the companion result of [9].

The paper's abstract and related-work section recall that the same
technique was first used (by the same authors, reference [9]) to detect
independence of *view queries* from update classes: a view defined by an
n-ary regular tree pattern is unaffected by every update of a class
``U`` whenever no document lets an update touch the view's trace or the
subtrees it returns.

That dangerous region is *identical* to the FD case — ``N(trace)`` plus
the subtrees rooted at selected-node images — so the construction of
:mod:`repro.independence.language` applies verbatim with the view
pattern in place of the FD pattern.

:func:`check_view_independence` is the polynomial criterion: when the
language is empty, every update of the class leaves ``V(D)`` (as a
forest of subtrees) unchanged on every (schema-valid) document.  It
builds the view's factors and hands them to the same decision procedure
as the FD criterion,
:func:`repro.independence.criterion.decide_dangerous`, which resolves
the strategy and builds a witness document only when one is requested.

Batch runs over many views and update classes should go through
:func:`repro.independence.matrix.check_view_independence_matrix`, which
shares the factor automata and fixpoints across cells.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator

from repro.independence.criterion import (
    EAGER,
    Verdict,
    decide_dangerous,
    pair_alphabet_size,
)
from repro.independence.language import dangerous_factors
from repro.independence.strategy import AUTO
from repro.limits import Budget, PartialStats
from repro.obs.metrics import format_stats, verdict_metrics
from repro.obs.trace import current_tracer
from repro.pattern.template import RegularTreePattern
from repro.schema.dtd import Schema
from repro.tautomata.hedge import HedgeAutomaton
from repro.tautomata.lazy import ExplorationStats
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument


@dataclasses.dataclass
class ViewIndependenceResult:
    """Verdict of the view-update criterion.

    ``automaton`` is the eager product when ``strategy="eager"`` and
    ``None`` under the lazy exploration (which never materializes it);
    ``automaton_size`` accordingly reports the full or the explored
    size, with ``exploration`` carrying the worst-case accounting.
    """

    verdict: Verdict
    view: RegularTreePattern
    update_class: UpdateClass
    schema: Schema | None
    automaton: HedgeAutomaton | None
    witness: XMLDocument | None
    automaton_size: int
    elapsed_seconds: float
    strategy: str = EAGER
    exploration: ExplorationStats | None = None
    budget: Budget | None = None
    partial: PartialStats | None = None

    @property
    def independent(self) -> bool:
        return self.verdict is Verdict.INDEPENDENT

    @property
    def decided(self) -> bool:
        """True when the analysis ran to completion (either boolean)."""
        return self.verdict is not Verdict.UNKNOWN

    @property
    def needs_revalidation(self) -> bool:
        """True when soundness requires recomputing the view downstream."""
        return not self.independent

    @property
    def unknown_reason(self) -> str | None:
        """Why the verdict is UNKNOWN (``None`` for decided runs)."""
        return None if self.partial is None else self.partial.reason

    def metrics(self) -> Iterator[tuple[str, str, float]]:
        """Verdict count, duration, explored work (see :mod:`repro.obs.metrics`)."""
        return verdict_metrics(self)

    def describe(self) -> str:
        """One-line human-readable account of the verdict."""
        schema_part = "no schema" if self.schema is None else "with schema"
        size_part = format_stats(
            self.exploration, self.partial, self.automaton_size
        )
        return (
            f"view-IC(view/{self.view.arity}-ary, {self.update_class.name}) "
            f"[{schema_part}]: {self.verdict.value.upper()} "
            f"({size_part}, "
            f"{self.elapsed_seconds * 1000:.2f} ms)"
        )


def check_view_independence(
    view: RegularTreePattern,
    update_class: UpdateClass,
    schema: Schema | None = None,
    want_witness: bool = True,
    strategy: str = AUTO,
    budget: Budget | None = None,
    tracer=None,
) -> ViewIndependenceResult:
    """Certify that no update of the class can change the view's result.

    Like :func:`repro.independence.criterion.check_independence`, the
    decision is :func:`~repro.independence.criterion.decide_dangerous`
    with the view pattern in place of the FD pattern: a ``budget``
    bounds the total exploration, and exhausting it yields the UNKNOWN
    verdict with partial statistics, never a wrong boolean.  ``tracer``
    likewise mirrors the FD criterion: the run is wrapped in a
    ``view.check`` span, and observability never changes the verdict.
    """
    if tracer is None:
        tracer = current_tracer()
    started = time.perf_counter()
    with tracer.span("view.check") as check_span:
        with tracer.span("ic.construct"):
            view_automaton, update_automaton, schema_hedge = (
                dangerous_factors(
                    view, update_class, schema,
                    pattern_name="A_V", tracer=tracer,
                )
            )
        outcome = decide_dangerous(
            view_automaton,
            update_automaton,
            schema_hedge,
            strategy,
            want_witness,
            budget,
            pair_alphabet_size(view, update_class, schema),
            tracer=tracer,
            span=check_span,
        )
        if check_span.enabled:
            check_span.set_attribute("view_arity", view.arity)
            check_span.set_attribute("update_class", update_class.name)
            if strategy == AUTO:
                check_span.set_attribute("strategy_requested", AUTO)
            check_span.set_attribute("automaton_size", outcome.automaton_size)
    return ViewIndependenceResult(
        verdict=outcome.verdict,
        view=view,
        update_class=update_class,
        schema=schema,
        automaton=outcome.automaton,
        witness=outcome.witness,
        automaton_size=outcome.automaton_size,
        elapsed_seconds=time.perf_counter() - started,
        strategy=outcome.strategy,
        exploration=outcome.exploration,
        budget=budget,
        partial=outcome.partial,
    )
