"""The dangerous-document language ``L`` (Definition 6).

``L`` contains the schema-valid documents in which some node is
*simultaneously*

* selected by a mapping of the update class ``U``, and
* inside the trace of a mapping of the FD pattern, or inside a subtree
  rooted at the image of a condition/target node of that mapping.

Proposition 2 shows ``L = ∅`` implies independence.  Following the
Proposition 3 sketch, the automaton for ``L`` is assembled as:

1. ``A_FD`` — trace automaton of the FD pattern with region tracking,
   so "state ≠ BOT" characterizes trace-or-region membership;
2. ``A_U`` — trace automaton of the update pattern, whose
   ``img(s_U, ·)`` states mark update-selected nodes;
3. ``B`` — the *flagged product*: states ``(fd, u, flag)`` where the
   flag records that the subtree contains the designated dangerous node.
   A node may *become* designated when its U-state is a selected image
   and its FD-state is not ``BOT``; otherwise the flag is the
   exactly-one-flagged-child disjunction.  ``B`` accepts at
   ``(ACC, ACC, 1)``;
4. ``A = A_S × B`` when a schema is given.

Both ways of deciding ``L = ∅`` share one rule recipe
(:func:`flagged_rules`): :func:`eager_dangerous_automaton` materializes
every rule pair (also the T2 size study's construction), while
:func:`explore_dangerous_factors` (built on :mod:`repro.tautomata.lazy`)
generates product rules only for label-compatible pairs of individually
fireable component rules and explores them with the worklist fixpoint —
same verdicts, a fraction of the work.  Which of the two decides a
given check is settled in one place,
:func:`repro.independence.criterion.decide_dangerous`.
:class:`DangerousLanguage` materializes its eager automata on first
attribute access, so lazy decisions never pay for them.

As in the paper, the construction requires the update class to select a
leaf of its template (otherwise the "the update trace survives the
update" step of Proposition 2 fails) — violations raise
:class:`repro.errors.IndependenceError`.

One honesty note recorded in DESIGN.md: Proposition 2's case (b)
implicitly assumes the performer preserves the label of the updated
node's root (XQuery-Update-style content replacement).  The criterion is
sound for label-preserving updates; the exhaustive study T4 measures
both regimes.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.errors import IndependenceError
from repro.fd.fd import FunctionalDependency
from repro.limits import BudgetMeter
from repro.obs.trace import NOOP_TRACER
from repro.pattern.template import ROOT_POSITION, RegularTreePattern
from repro.schema.automaton import schema_automaton
from repro.schema.dtd import Schema
from repro.tautomata.from_pattern import ACC, PatternAutomaton, trace_automaton
from repro.tautomata.hedge import HedgeAutomaton, Rule, State
from repro.tautomata.horizontal import (
    FlagOnceHorizontal,
    ProductHorizontal,
    ProjectedHorizontal,
)
from repro.tautomata.emptiness import (
    build_witness_tree,
    document_from_witness,
)
from repro.tautomata.hedge import rule_structure_key
from repro.tautomata.lazy import (
    ExplorationStats,
    FactorAnalysis,
    IncrementalProductSession,
    RuleIndex,
    analyze_factor,
    cached_factor,
    explore_product,
    pair_combine,
)
from repro.tautomata.ops import product_automaton
from repro.update.update_class import UpdateClass
from repro.xmlmodel.tree import XMLDocument

#: the accepting state of the flagged product ``B``
DANGEROUS_ACCEPT: State = (ACC, ACC, 1)

#: maximal flagged rules per (fd_rule, u_rule) pair (worst-case account)
FLAGGED_RULES_PER_PAIR = 3


def _fd_component(symbol: State) -> State:
    if not isinstance(symbol, tuple):
        raise TypeError(f"not a product state: {symbol!r}")
    return symbol[0]


def _u_component(symbol: State) -> State:
    if not isinstance(symbol, tuple):
        raise TypeError(f"not a product state: {symbol!r}")
    return symbol[1]


def _flag_component(symbol: State) -> bool:
    if not isinstance(symbol, tuple):
        raise TypeError(f"not a product state: {symbol!r}")
    return bool(symbol[2])


def validate_update_class(update_class: UpdateClass) -> None:
    """Reject update classes outside the Section 5 analysis."""
    if not update_class.selected_nodes_are_template_leaves():
        raise IndependenceError(
            f"update class {update_class.name} selects a non-leaf template "
            f"node; the Section 5 analysis requires updated nodes to be "
            f"leaves of T_U"
        )
    if ROOT_POSITION in update_class.selected_positions:
        raise IndependenceError(
            "an update class cannot select the document root"
        )


def flagged_rules(
    fd_rule: Rule,
    u_rule: Rule,
    selected_images: frozenset[State],
    bot: State,
) -> Iterator[Rule]:
    """The 2-3 flagged product rules of one (fd, u) rule pair.

    Shared by the eager :func:`_flagged_product` and the lazy
    exploration, so both regimes decide the same language rule for rule.
    """
    labels = fd_rule.labels.intersect(u_rule.labels)
    if labels.is_empty():
        return
    base = [
        ProjectedHorizontal(fd_rule.horizontal, _fd_component),
        ProjectedHorizontal(u_rule.horizontal, _u_component),
    ]
    # flag 0: no designated node below
    yield Rule(
        state=(fd_rule.state, u_rule.state, 0),
        labels=labels,
        horizontal=ProductHorizontal(
            base + [FlagOnceHorizontal(0, _flag_component)]
        ),
    )
    # flag 1 via exactly one flagged child
    yield Rule(
        state=(fd_rule.state, u_rule.state, 1),
        labels=labels,
        horizontal=ProductHorizontal(
            base + [FlagOnceHorizontal(1, _flag_component)]
        ),
    )
    # flag 1 by designation: this node is update-selected and on
    # the FD trace or inside a selected-subtree region
    if u_rule.state in selected_images and fd_rule.state != bot:
        yield Rule(
            state=(fd_rule.state, u_rule.state, 1),
            labels=labels,
            horizontal=ProductHorizontal(
                base + [FlagOnceHorizontal(0, _flag_component)]
            ),
        )


def _flagged_combine(
    fd_automaton: PatternAutomaton, update_automaton: PatternAutomaton
):
    selected_images = update_automaton.selected_image_states
    bot = fd_automaton.bot_state

    def combine(fd_rule: Rule, u_rule: Rule) -> Iterator[Rule]:
        return flagged_rules(fd_rule, u_rule, selected_images, bot)

    return combine


def _flagged_product(
    fd_automaton: PatternAutomaton, update_automaton: PatternAutomaton
) -> HedgeAutomaton:
    """The automaton ``B`` for condition (ii) of Definition 6 (eager)."""
    combine = _flagged_combine(fd_automaton, update_automaton)
    rules: list[Rule] = []
    for fd_rule in fd_automaton.automaton.rules:
        for u_rule in update_automaton.automaton.rules:
            rules.extend(combine(fd_rule, u_rule))
    return HedgeAutomaton(
        rules,
        accepting=[DANGEROUS_ACCEPT],
        name="B",
    )


def eager_dangerous_automaton(
    pattern_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None,
    flagged: HedgeAutomaton | None = None,
) -> HedgeAutomaton:
    """The eager ``A``: ``B``, or ``A_S × B`` under a schema.

    ``flagged`` reuses an already built ``B`` instead of rebuilding it.
    """
    if flagged is None:
        flagged = _flagged_product(pattern_automaton, update_automaton)
    if schema_hedge is None:
        return flagged
    return product_automaton(schema_hedge, flagged, name="A_S×B")


def dangerous_factors(
    pattern: RegularTreePattern,
    update_class: UpdateClass,
    schema: Schema | None = None,
    pattern_name: str = "A_FD",
    tracer=None,
) -> tuple[PatternAutomaton, PatternAutomaton, HedgeAutomaton | None]:
    """The three product factors over one shared global alphabet.

    Works for FD patterns and view patterns alike (the dangerous region
    of the view-independence criterion is identical).
    """
    if tracer is None:
        tracer = NOOP_TRACER
    validate_update_class(update_class)
    alphabet = set(pattern.template.alphabet())
    alphabet |= update_class.pattern.template.alphabet()
    if schema is not None:
        alphabet |= schema.alphabet()
    with tracer.span("construct.trace_automaton") as span:
        pattern_automaton = trace_automaton(
            pattern, alphabet, track_regions=True, name=pattern_name
        )
        if span.enabled:
            span.set_attribute("automaton", pattern_name)
            span.set_attribute("rules", len(pattern_automaton.automaton.rules))
    with tracer.span("construct.trace_automaton") as span:
        update_automaton = trace_automaton(
            update_class.pattern, alphabet, track_regions=False, name="A_U"
        )
        if span.enabled:
            span.set_attribute("automaton", "A_U")
            span.set_attribute("rules", len(update_automaton.automaton.rules))
    if schema is None:
        schema_hedge = None
    else:
        with tracer.span("construct.schema_automaton") as span:
            schema_hedge = schema_automaton(schema)
            if span.enabled:
                span.set_attribute("automaton", "A_S")
                span.set_attribute("rules", len(schema_hedge.rules))
    return pattern_automaton, update_automaton, schema_hedge


@dataclasses.dataclass
class DangerousLanguage:
    """The automaton for ``L`` plus its ingredients (for size studies).

    The eager products (``flagged_product`` and the final ``automaton``)
    are materialized on first access, so lazy exploration of the same
    language never constructs them.
    """

    fd: FunctionalDependency
    update_class: UpdateClass
    schema: Schema | None
    fd_automaton: PatternAutomaton
    update_automaton: PatternAutomaton
    schema_automaton: HedgeAutomaton | None = None
    _flagged: HedgeAutomaton | None = dataclasses.field(
        default=None, repr=False
    )
    _final: HedgeAutomaton | None = dataclasses.field(default=None, repr=False)

    @property
    def flagged_product(self) -> HedgeAutomaton:
        """The eager flagged product ``B`` (built on demand)."""
        if self._flagged is None:
            self._flagged = _flagged_product(
                self.fd_automaton, self.update_automaton
            )
        return self._flagged

    @property
    def automaton(self) -> HedgeAutomaton:
        """The eager final ``A`` (``B``, or ``A_S × B`` under a schema)."""
        if self._final is None:
            self._final = eager_dangerous_automaton(
                self.fd_automaton,
                self.update_automaton,
                self.schema_automaton,
                flagged=self.flagged_product,
            )
        return self._final

    def size(self) -> int:
        """Size of the final automaton (tracked against Prop. 3)."""
        return self.automaton.size()


def dangerous_language(
    fd: FunctionalDependency,
    update_class: UpdateClass,
    schema: Schema | None = None,
    materialize: bool = True,
    tracer=None,
) -> DangerousLanguage:
    """Build the automaton recognizing ``L`` (Definition 6).

    With ``materialize=False`` only the factors are constructed; the
    eager products stay virtual until accessed (the lazy criterion path
    never does).
    """
    fd_automaton, update_automaton, schema_hedge = dangerous_factors(
        fd.pattern, update_class, schema, pattern_name="A_FD", tracer=tracer
    )
    language = DangerousLanguage(
        fd=fd,
        update_class=update_class,
        schema=schema,
        fd_automaton=fd_automaton,
        update_automaton=update_automaton,
        schema_automaton=schema_hedge,
    )
    if materialize:
        language.automaton  # force the eager products now
    return language


@dataclasses.dataclass
class DangerousExploration:
    """Verdict of one lazy exploration of ``L``."""

    empty: bool
    witness: XMLDocument | None
    stats: ExplorationStats


def explore_dangerous_factors(
    pattern_automaton: PatternAutomaton,
    update_automaton: PatternAutomaton,
    schema_hedge: HedgeAutomaton | None = None,
    want_witness: bool = False,
    factor_cache: dict | None = None,
    meter: BudgetMeter | None = None,
    tracer=None,
) -> DangerousExploration:
    """On-the-fly emptiness of ``L`` from its factors.

    Runs the flagged product ``B`` lazily; under a schema the fired
    ``B`` rules become the right factor of a second lazy product with
    ``A_S``.  ``factor_cache`` (keyed per factor automaton) lets batch
    drivers share the per-factor fixpoints across many (FD, U) cells.
    A ``meter`` spans the whole exploration (factor fixpoints and both
    product levels), so the caps bound the total work of the verdict;
    :class:`~repro.limits.BudgetExceeded` propagates to the caller.
    A ``tracer`` (the no-op default when omitted) wraps each factor
    fixpoint and product level in its own span.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    fd_factor = cached_factor(
        pattern_automaton.automaton, typed=True, cache=factor_cache,
        meter=meter, tracer=tracer,
    )
    u_factor = cached_factor(
        update_automaton.automaton, typed=True, cache=factor_cache,
        meter=meter, tracer=tracer,
    )
    combine = _flagged_combine(pattern_automaton, update_automaton)
    with_schema = schema_hedge is not None
    with tracer.span("ic.flagged_product") as span:
        flagged = explore_product(
            fd_factor,
            u_factor,
            combine=combine,
            typed=True,
            want_witness=want_witness and not with_schema,
            track_rules=with_schema,
            rules_per_pair=FLAGGED_RULES_PER_PAIR,
            meter=meter,
            tracer=tracer,
        )
        if span.enabled:
            span.set_attribute("explored_rules", flagged.stats.explored_rules)
            span.set_attribute(
                "worst_case_rules", flagged.stats.worst_case_rules
            )
    if not with_schema:
        empty = DANGEROUS_ACCEPT not in flagged.engine.firings
        witness = None
        if want_witness and not empty:
            with tracer.span("ic.witness"):
                witness = document_from_witness(
                    build_witness_tree(
                        flagged.engine.firings, DANGEROUS_ACCEPT
                    )
                )
        return DangerousExploration(
            empty=empty, witness=witness, stats=flagged.stats
        )

    schema_factor = cached_factor(
        schema_hedge, typed=True, cache=factor_cache, meter=meter,
        tracer=tracer,
    )
    flagged_fired = flagged.fired_rules()
    flagged_factor = FactorAnalysis(
        inhabited=flagged.inhabited,
        fireable=flagged_fired,
        index=RuleIndex(flagged_fired),
        rule_count=flagged.stats.worst_case_rules,
    )
    with tracer.span("ic.schema_product") as span:
        final = explore_product(
            schema_factor,
            flagged_factor,
            combine=pair_combine,
            typed=True,
            want_witness=want_witness,
            meter=meter,
            tracer=tracer,
        )
        if span.enabled:
            span.set_attribute("explored_rules", final.stats.explored_rules)
            span.set_attribute("worst_case_rules", final.stats.worst_case_rules)
    accepting = [
        (schema_state, DANGEROUS_ACCEPT)
        for schema_state in sorted(schema_hedge.accepting, key=repr)
    ]
    inhabited_accepting = [
        state for state in accepting if state in final.engine.firings
    ]
    empty = not inhabited_accepting
    witness = None
    if want_witness and not empty:
        with tracer.span("ic.witness"):
            witness = document_from_witness(
                build_witness_tree(
                    final.engine.firings, inhabited_accepting[0]
                )
            )
    return DangerousExploration(
        empty=empty, witness=witness, stats=flagged.stats.merge(final.stats)
    )


class IncrementalDangerousSession:
    """Emptiness of ``L`` for one fixed (update class, schema), re-solved
    across FD-pattern edits from the surviving exploration.

    The cold path (:func:`explore_dangerous_factors`) rebuilds both
    product levels per check.  A session keeps the incremental product
    engines alive: :meth:`recheck` fixpoints only the *new* FD factor
    (cheap), pairs its rules against the old ones with
    :func:`~repro.tautomata.hedge.rule_structure_key` — a small edit
    leaves most trace-automaton rules structurally identical — and
    feeds just the delta through
    :meth:`~repro.tautomata.lazy.IncrementalProductSession.apply_delta`,
    so both the flagged product and the schema product re-solve from
    their surviving frontiers (the schema-level delta is the identity
    diff of the flagged engine's fired product rules, which survive
    retraction as the same objects).  Verdicts are always identical to
    a cold run on the current inputs; witnesses are valid members of
    ``L`` but may differ from the cold run's choice (discovery order),
    which is why the matrix drift path recomputes witness-bearing cells
    cold and sessions serve long-lived in-process re-checks.
    """

    def __init__(
        self,
        pattern_automaton: PatternAutomaton,
        update_automaton: PatternAutomaton,
        schema_hedge: HedgeAutomaton | None = None,
        want_witness: bool = False,
        factor_cache: dict | None = None,
        meter: BudgetMeter | None = None,
        tracer=None,
    ) -> None:
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self.update_automaton = update_automaton
        self.schema_hedge = schema_hedge
        self.want_witness = want_witness
        self.pattern_automaton = pattern_automaton
        self._meter = meter
        self._with_schema = schema_hedge is not None
        self._u_factor = cached_factor(
            update_automaton.automaton, typed=True, cache=factor_cache,
            meter=meter, tracer=self.tracer,
        )
        fd_factor = analyze_factor(
            pattern_automaton.automaton, typed=True, meter=meter,
            tracer=self.tracer,
        )
        # BOT and the selected images are stable across FD rebuilds (the
        # update automaton is fixed; BOT is a module sentinel), so one
        # combine closure serves the whole session
        combine = _flagged_combine(pattern_automaton, update_automaton)
        self._flagged = IncrementalProductSession(
            fd_factor,
            self._u_factor,
            combine=combine,
            typed=True,
            track_rules=self._with_schema,
            rules_per_pair=FLAGGED_RULES_PER_PAIR,
            meter=meter,
            tracer=self.tracer,
        )
        self._final: IncrementalProductSession | None = None
        self._last_fired: tuple[Rule, ...] = ()
        if self._with_schema:
            schema_factor = cached_factor(
                schema_hedge, typed=True, cache=factor_cache, meter=meter,
                tracer=self.tracer,
            )
            self._last_fired = self._flagged.fired_rules()
            self._final = IncrementalProductSession(
                schema_factor,
                FactorAnalysis(
                    inhabited=self._flagged.inhabited,
                    fireable=self._last_fired,
                    index=RuleIndex(self._last_fired),
                    rule_count=self._flagged.stats().worst_case_rules,
                ),
                combine=pair_combine,
                typed=True,
                meter=meter,
                tracer=self.tracer,
            )

    def recheck(
        self, pattern_automaton: PatternAutomaton
    ) -> DangerousExploration:
        """Re-solve emptiness after an FD-pattern edit (rule delta only)."""
        new_factor = analyze_factor(
            pattern_automaton.automaton, typed=True, meter=self._meter,
            tracer=self.tracer,
        )
        old_groups: dict[object, list[Rule]] = {}
        for rule in self._flagged.left_rules():
            old_groups.setdefault(rule_structure_key(rule), []).append(rule)
        new_groups: dict[object, list[Rule]] = {}
        for rule in new_factor.fireable:
            new_groups.setdefault(rule_structure_key(rule), []).append(rule)
        removed: list[Rule] = []
        added: list[Rule] = []
        for key, old_list in old_groups.items():
            removed.extend(old_list[len(new_groups.get(key, ())):])
        for key, new_list in new_groups.items():
            added.extend(new_list[len(old_groups.get(key, ())):])
        self._flagged.apply_delta(
            removed_left=removed,
            added_left=added,
            left_rule_count=new_factor.rule_count,
        )
        self.pattern_automaton = pattern_automaton
        if self._final is not None:
            new_fired = self._flagged.fired_rules()
            new_ids = {id(rule) for rule in new_fired}
            last_ids = {id(rule) for rule in self._last_fired}
            self._final.apply_delta(
                removed_right=[
                    rule
                    for rule in self._last_fired
                    if id(rule) not in new_ids
                ],
                added_right=[
                    rule for rule in new_fired if id(rule) not in last_ids
                ],
                right_rule_count=self._flagged.stats().worst_case_rules,
            )
            self._last_fired = new_fired
        return self.solution()

    def solution(self) -> DangerousExploration:
        """The current emptiness verdict (engines are at fixpoint)."""
        if self._final is None:
            firings = self._flagged.engine.firings
            empty = DANGEROUS_ACCEPT not in firings
            accept: State = DANGEROUS_ACCEPT
            stats = self._flagged.stats()
        else:
            firings = self._final.engine.firings
            accepting = [
                (schema_state, DANGEROUS_ACCEPT)
                for schema_state in sorted(
                    self.schema_hedge.accepting, key=repr
                )
            ]
            inhabited_accepting = [
                state for state in accepting if state in firings
            ]
            empty = not inhabited_accepting
            accept = inhabited_accepting[0] if inhabited_accepting else None
            stats = self._flagged.stats().merge(self._final.stats())
        witness = None
        if self.want_witness and not empty:
            # incremental engines always record parents, so firing
            # words — and from them a witness — are available
            with self.tracer.span("ic.witness"):
                witness = document_from_witness(
                    build_witness_tree(firings, accept)
                )
        return DangerousExploration(empty=empty, witness=witness, stats=stats)
