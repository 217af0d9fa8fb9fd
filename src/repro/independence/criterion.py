"""The polynomial independence criterion IC (Propositions 2-3).

``check_independence`` builds the automaton for the dangerous language
``L`` and tests its emptiness:

* ``L = ∅``  →  verdict INDEPENDENT: *no* document (valid w.r.t. the
  schema, if any) lets any update of the class touch the FD's traces or
  selected subtrees, so the FD cannot start failing — whatever the
  concrete update performer does (label-preservingly);
* ``L ≠ ∅``  →  verdict POSSIBLY_DEPENDENT: the criterion is
  sufficient, not complete; a witness "dangerous document" can be
  extracted to show the analyst where an interaction is possible;
* budget exhausted  →  verdict UNKNOWN: a bounded run that hit its
  wall-clock deadline or an explored-state/rule cap proves *nothing*
  about ``L`` — the result carries the reason and the partial
  exploration statistics, and callers must degrade to the sound
  fallback of re-validating the FD on the updated document (see the
  DESIGN.md section "Degradation semantics").

Three strategies decide the same emptiness:

* ``strategy="lazy"`` — on-the-fly product exploration
  (:mod:`repro.tautomata.lazy`): product rules are generated only for
  label-compatible pairs of individually fireable factor rules, and the
  worklist fixpoint extends persistent frontiers instead of restarting;
  the result records explored-vs-worst-case sizes;
* ``strategy="eager"`` — materialize the full product (the Proposition
  3 construction measured by experiment T2), then run the fixpoint;
* ``strategy="auto"`` (default) — resolve to one of the two per check
  from the factor shapes (:mod:`repro.independence.strategy`): the T3
  bench shows each fixed strategy losing on a known input family, so
  the default picks per instance instead of assuming one regime.  The
  result's ``strategy`` field reports the resolved choice.

:func:`decide_dangerous` is the one place that does all of this —
strategy resolution, metering, the lazy or eager run, the UNKNOWN
mapping — for per-pair FD checks, per-pair view checks
(:mod:`repro.independence.views`) and every matrix cell
(:mod:`repro.independence.matrix`) alike; the entry points only build
the factors and wrap the outcome in their result types.

The check never looks at any source document — its cost depends only on
``|FD|``, ``|U|``, ``|A_S|`` and the alphabet, which is the efficiency
claim the paper makes against the revalidation approach of [14].
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import time
from collections.abc import Iterator

from repro.errors import IndependenceError
from repro.fd.fd import FunctionalDependency
from repro.independence.language import (
    DangerousLanguage,
    dangerous_language,
    eager_dangerous_automaton,
    explore_dangerous_factors,
)
from repro.independence.strategy import (
    AUTO,
    EAGER,
    LAZY,
    STRATEGIES,
    StrategySelector,
)
from repro.limits import Budget, BudgetExceeded, PartialStats
from repro.obs.metrics import format_stats, verdict_metrics
from repro.obs.trace import NOOP_TRACER, current_tracer
from repro.pattern.template import RegularTreePattern
from repro.schema.dtd import Schema
from repro.tautomata.emptiness import automaton_is_empty_typed, witness_document
from repro.tautomata.from_pattern import PatternAutomaton
from repro.tautomata.hedge import HedgeAutomaton
from repro.tautomata.lazy import ExplorationStats
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument

__all__ = [
    "AUTO",
    "EAGER",
    "LAZY",
    "DangerousOutcome",
    "IndependenceResult",
    "Verdict",
    "check_independence",
    "decide_dangerous",
]


class Verdict(enum.Enum):
    """Three-valued outcome of the criterion.

    ``INDEPENDENT`` certifies (Prop. 2); ``POSSIBLY_DEPENDENT`` records
    that ``L ≠ ∅`` was *proved* (the criterion simply cannot certify —
    it is sufficient, not complete); ``UNKNOWN`` records that the
    analysis was cut short by its :class:`~repro.limits.Budget` and
    proved nothing either way.  Only INDEPENDENT may skip revalidation;
    both other verdicts must fall back to full FD re-checking.
    """

    INDEPENDENT = "independent"
    POSSIBLY_DEPENDENT = "possibly-dependent"
    UNKNOWN = "unknown"


@dataclasses.dataclass
class IndependenceResult:
    """Verdict plus the artifacts produced along the way.

    ``automaton_size`` reports the size of what the decision actually
    touched: the full eager automaton under ``strategy="eager"``, the
    explored fragment (inhabited states + instantiated rules) under
    ``strategy="lazy"``.  ``exploration`` carries the full
    explored-vs-worst-case accounting for the lazy path (``None`` for
    eager runs); the worst case is the Proposition 3 bound either way.

    UNKNOWN results carry ``partial`` — the explored-so-far counters at
    the moment the budget ran out — instead of ``exploration``/witness;
    ``unknown_reason`` names the exhausted dimension.
    """

    verdict: Verdict
    fd: FunctionalDependency
    update_class: UpdateClass
    schema: Schema | None
    language: DangerousLanguage
    witness: XMLDocument | None
    automaton_size: int
    elapsed_seconds: float
    strategy: str = EAGER
    exploration: ExplorationStats | None = None
    budget: Budget | None = None
    partial: PartialStats | None = None

    @property
    def independent(self) -> bool:
        """True when independence is certified."""
        return self.verdict is Verdict.INDEPENDENT

    @property
    def decided(self) -> bool:
        """True when the analysis ran to completion (either boolean)."""
        return self.verdict is not Verdict.UNKNOWN

    @property
    def needs_revalidation(self) -> bool:
        """True when soundness requires full FD re-checking downstream."""
        return not self.independent

    @property
    def unknown_reason(self) -> str | None:
        """Why the verdict is UNKNOWN (``None`` for decided runs)."""
        return None if self.partial is None else self.partial.reason

    def metrics(self) -> Iterator[tuple[str, str, float]]:
        """Verdict count, duration, explored work (see :mod:`repro.obs.metrics`)."""
        return verdict_metrics(self)

    def describe(self) -> str:
        """One-paragraph human-readable account of the verdict."""
        schema_part = "no schema" if self.schema is None else "with schema"
        size_part = format_stats(
            self.exploration, self.partial, self.automaton_size
        )
        lines = [
            f"IC({self.fd.name}, {self.update_class.name}) [{schema_part}]: "
            f"{self.verdict.value.upper()} "
            f"({size_part}, {self.elapsed_seconds * 1000:.2f} ms)"
        ]
        if self.verdict is Verdict.UNKNOWN:
            lines.append(
                "  the budget ran out before emptiness was decided; "
                "fall back to full FD revalidation"
            )
        if self.witness is not None:
            lines.append(
                "  a dangerous document exists; inspect result.witness"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class DangerousOutcome:
    """What one decision of ``L = ∅`` established (:func:`decide_dangerous`).

    ``strategy`` is the resolved one (never ``"auto"``).  ``automaton``
    is the eager product when the decision materialized it and ``None``
    otherwise; ``exploration`` carries the lazy accounting and
    ``partial`` the explored-so-far counters of an UNKNOWN verdict.
    """

    verdict: Verdict
    strategy: str
    witness: XMLDocument | None = None
    exploration: ExplorationStats | None = None
    partial: PartialStats | None = None
    automaton: HedgeAutomaton | None = None

    @functools.cached_property
    def automaton_size(self) -> int:
        """Size of what the decision touched (see :class:`IndependenceResult`)."""
        if self.partial is not None:
            return self.partial.explored_states + self.partial.explored_rules
        if self.exploration is not None:
            return self.exploration.explored_size
        return self.automaton.size()


def validate_strategy(strategy: str) -> None:
    """Reject a strategy name no entry point knows."""
    if strategy not in STRATEGIES:
        raise IndependenceError(
            f"unknown independence strategy {strategy!r}; "
            f"expected {AUTO!r}, {LAZY!r} or {EAGER!r}"
        )


def decide_dangerous(
    pattern_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None,
    strategy: str,
    want_witness: bool,
    budget: Budget | None,
    alphabet_size: int,
    selector: StrategySelector | None = None,
    factor_cache: dict | None = None,
    tracer=NOOP_TRACER,
    span=None,
) -> DangerousOutcome:
    """Decide ``L = ∅`` for one (pattern, update[, schema]) cell.

    The one decision procedure behind per-pair FD checks, per-pair view
    checks and every matrix cell.  ``strategy="auto"`` resolves through
    ``selector`` — a matrix row chunk passes its own so the explored
    fractions of earlier lazy cells steer later choices; per-pair calls
    leave it ``None`` and get a fresh one.  ``budget`` starts one fresh
    meter for this decision; running out yields verdict UNKNOWN with the
    partial statistics, never an exception.  ``span`` (the caller's open
    span) receives the resolved strategy, the verdict and the explored
    or eager size; the caller adds its own identity attributes.
    """
    validate_strategy(strategy)
    if strategy == AUTO:
        if selector is None:
            selector = StrategySelector()
        strategy = selector.choose(
            pattern_rules=len(pattern_automaton.automaton.rules),
            update_rules=len(update_automaton.automaton.rules),
            schema_rules=0 if schema_hedge is None else len(schema_hedge.rules),
            alphabet_size=alphabet_size,
        )
    else:
        selector = None  # fixed strategies neither consult nor feed it
    meter = None if budget is None or budget.unbounded else budget.start()
    witness = exploration = automaton = partial = None
    try:
        if strategy == LAZY:
            explored = explore_dangerous_factors(
                pattern_automaton,
                update_automaton,
                schema_hedge,
                want_witness=want_witness,
                factor_cache=factor_cache,
                meter=meter,
                tracer=tracer,
            )
            empty = explored.empty
            witness = explored.witness
            exploration = explored.stats
        else:
            if meter is not None:
                meter.check_deadline()
            with tracer.span("ic.eager_product"):
                automaton = eager_dangerous_automaton(
                    pattern_automaton, update_automaton, schema_hedge
                )
            if meter is not None:
                meter.check_deadline()
            with tracer.span("ic.eager_emptiness"):
                if want_witness:
                    witness = witness_document(automaton, meter=meter)
                    empty = witness is None
                else:
                    empty = automaton_is_empty_typed(automaton, meter=meter)
        verdict = Verdict.INDEPENDENT if empty else Verdict.POSSIBLY_DEPENDENT
    except BudgetExceeded as signal:
        verdict = Verdict.UNKNOWN
        partial = signal.partial
        witness = exploration = automaton = None
    if selector is not None and exploration is not None:
        selector.observe(exploration)
    outcome = DangerousOutcome(
        verdict, strategy, witness, exploration, partial, automaton
    )
    if span is not None and span.enabled:
        span.set_attribute("strategy", strategy)
        span.set_attribute("verdict", verdict.value)
        if automaton is not None:
            span.set_attribute("automaton_size", outcome.automaton_size)
        if exploration is not None:
            span.set_attribute("explored_rules", exploration.explored_rules)
            span.set_attribute(
                "worst_case_rules", exploration.worst_case_rules
            )
    return outcome


def pair_alphabet_size(
    pattern: RegularTreePattern,
    update_class: UpdateClass,
    schema: Schema | None,
) -> int:
    """Width of the alphabet one pair's factors are built over."""
    alphabet = set(pattern.template.alphabet())
    alphabet |= update_class.pattern.template.alphabet()
    if schema is not None:
        alphabet |= schema.alphabet()
    return len(alphabet)


def check_independence(
    fd: FunctionalDependency,
    update_class: UpdateClass,
    schema: Schema | None = None,
    want_witness: bool = True,
    strategy: str = AUTO,
    budget: Budget | None = None,
    tracer=None,
) -> IndependenceResult:
    """Run the criterion IC on a (FD, update-class[, schema]) triple.

    Emptiness is decided under the XML typing rules (leaf-labeled nodes
    cannot carry children) rather than the classical untyped fixpoint,
    so the verdict quantifies exactly over real documents.  Witness
    construction runs only when the tree is actually wanted.  The
    decision itself is :func:`decide_dangerous`, shared with the view
    criterion and the matrix cells.

    With a ``budget``, every fixpoint charges its work against one
    shared meter; a run that exhausts the budget returns verdict
    UNKNOWN with the partial statistics instead of raising.  With
    ``budget=None`` (the default) no metering code runs at all and the
    verdict is exactly the unbounded one.

    ``tracer`` defaults to the process-wide tracer (a no-op unless one
    was installed, e.g. by the CLI's ``--trace-out``); the analysis is
    wrapped in an ``ic.check`` span with construction, fixpoint and
    product phases nested under it.  Observability never changes the
    verdict: the differential suite pins traced and untraced runs
    bit-for-bit equal.
    """
    if tracer is None:
        tracer = current_tracer()
    started = time.perf_counter()
    with tracer.span("ic.check") as check_span:
        with tracer.span("ic.construct"):
            language = dangerous_language(
                fd, update_class, schema=schema, materialize=False,
                tracer=tracer,
            )
        outcome = decide_dangerous(
            language.fd_automaton,
            language.update_automaton,
            language.schema_automaton,
            strategy,
            want_witness,
            budget,
            pair_alphabet_size(fd.pattern, update_class, schema),
            tracer=tracer,
            span=check_span,
        )
        if check_span.enabled:
            check_span.set_attribute("fd", fd.name)
            check_span.set_attribute("update_class", update_class.name)
            if strategy == AUTO:
                check_span.set_attribute("strategy_requested", AUTO)
            check_span.set_attribute("automaton_size", outcome.automaton_size)
    return IndependenceResult(
        verdict=outcome.verdict,
        fd=fd,
        update_class=update_class,
        schema=schema,
        language=language,
        witness=outcome.witness,
        automaton_size=outcome.automaton_size,
        elapsed_seconds=time.perf_counter() - started,
        strategy=outcome.strategy,
        exploration=outcome.exploration,
        budget=budget,
        partial=outcome.partial,
    )
