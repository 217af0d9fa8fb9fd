"""Adaptive strategy selection: pick eager or lazy per independence check.

The T3 bench records that neither fixed strategy dominates: the lazy
on-the-fly exploration wins by an order of magnitude on long chain
patterns (the explored fraction of the product space is tiny), while
the eager materialized construction wins on the schema-width
configurations (0.39x-0.97x for lazy in BENCH_T3) — there the flagged
product is small enough to build outright, and the lazy path pays for
per-rule fireability tracking plus a second on-the-fly product level
against the schema automaton.  The on-the-fly solver literature makes
the same observation: lazy fixpoints pay off exactly when the explored
fraction is small, so an engine that always assumes one regime is
leaving a known factor on the table.

``strategy="auto"`` (the default everywhere since this module landed)
resolves to one of the two fixed strategies *per check* through a
:class:`StrategySelector`, consulted in one place for per-pair FD
checks, per-pair view checks and matrix cells alike —
:func:`repro.independence.criterion.decide_dangerous`:

* a **static cost model** over automaton shape — factor rule counts,
  alphabet width, schema presence — picks the regime the bench data
  says wins for that shape;
* **accumulated** :class:`~repro.tautomata.lazy.ExplorationStats` from
  earlier lazy cells of the *same run* refine the explored-fraction
  estimate (an exponentially weighted moving average), so a matrix run
  whose lazy cells turn out to explore most of their worst case flips
  the remaining schema cells to eager.

Determinism contract: a selector is scoped to one per-pair check
(``decide_dangerous`` makes a fresh one when its caller passes none) or
to one row chunk of a matrix run (the chunk passes its own to every
cell), never shared process-wide, and its decisions are a pure function
of the shapes seen and the stats observed so far in that scope.
Repeating a call therefore repeats its choices exactly — the
differential suites (traced vs untraced, bit-for-bit) rely on it.

Tie-break rules (also documented in DESIGN.md):

* no schema — always lazy.  Every schemaless BENCH_T3 configuration
  has lazy at >= 1x, growing to 15-20x on long chains; eager's only
  recorded wins involve a schema factor.
* schema present — eager while the worst-case *schema-level* product
  (``fd_rules x u_rules x 3 x schema_rules``, the rule count of the
  final ``A_S x B`` the eager path materializes) stays under
  :data:`SCHEMA_EAGER_RULE_LIMIT`; lazy beyond it, unless the observed
  explored fraction says the lazy run would visit most of the product
  anyway.  Calibrated on the T3 schema sweep: eager wins up to a
  schema product of ~3.9k (widths 2-4) and loses from ~6.1k up
  (widths 8-16), so the limit sits between the two families.
  Re-measured after the worklist engine's wake index made both
  strategies faster (2-core host, interleaved medians): eager is
  1.3-1.6x faster at widths 2-4 and ~1.1x at width 6 (4968), the two
  tie at widths 7-8 (5.5k-6.1k) and lazy is 1.4-1.5x faster at width
  16, so the crossover stays between the eager and lazy families and
  the limit is unchanged.
"""

from __future__ import annotations

from repro.tautomata.lazy import ExplorationStats

LAZY = "lazy"
EAGER = "eager"
AUTO = "auto"

#: every strategy an entry point accepts
STRATEGIES = (AUTO, LAZY, EAGER)

#: maximal flagged rules per (fd, u) rule pair — mirrors
#: repro.independence.language.FLAGGED_RULES_PER_PAIR without importing
#: it (language imports would be cyclic through criterion)
_RULES_PER_PAIR = 3

#: with a schema, eager wins while the worst-case A_S x B rule count
#: (fd_rules x u_rules x 3 x schema_rules) stays under this limit
#: (measured on the T3 schema sweep: eager ~2x faster at products of
#: 2.8k-3.9k, 1.2-2x *slower* from 6.1k up, so the limit splits the
#: two measured families at their geometric midpoint; with the wake
#: index eager still wins up to 5.0k and ties from 5.5k, see above)
SCHEMA_EAGER_RULE_LIMIT = 5000

#: observed explored fraction above which lazy is visiting most of the
#: worst case anyway, so the lazy bookkeeping cannot pay for itself
HIGH_EXPLORED_FRACTION = 0.5

#: explored-fraction prior used before any lazy cell has been observed
DEFAULT_EXPLORED_FRACTION = 0.25

#: EWMA weight of the newest observation
OBSERVATION_WEIGHT = 0.5


class StrategySelector:
    """Deterministic per-run eager/lazy arbiter (see module docstring).

    One instance covers one run scope — a single per-pair check, or one
    row chunk of a matrix run.  ``choose`` is consulted
    per cell with the factor shapes; ``observe`` feeds back the
    :class:`ExplorationStats` of each completed lazy cell so later
    choices in the same scope use a measured explored fraction instead
    of the prior.
    """

    __slots__ = ("_fraction",)

    def __init__(self) -> None:
        self._fraction: float | None = None

    @property
    def explored_fraction(self) -> float:
        """Current explored-fraction estimate (prior until observed)."""
        if self._fraction is None:
            return DEFAULT_EXPLORED_FRACTION
        return self._fraction

    def observe(self, stats: ExplorationStats) -> None:
        """Fold one lazy cell's explored fraction into the estimate."""
        if stats.worst_case_rules <= 0:
            return
        fraction = min(1.0, stats.explored_rules / stats.worst_case_rules)
        if self._fraction is None:
            self._fraction = fraction
        else:
            self._fraction = (
                OBSERVATION_WEIGHT * fraction
                + (1.0 - OBSERVATION_WEIGHT) * self._fraction
            )

    def choose(
        self,
        pattern_rules: int,
        update_rules: int,
        schema_rules: int,
        alphabet_size: int,
    ) -> str:
        """Pick ``"lazy"`` or ``"eager"`` for one cell's factor shapes.

        ``schema_rules`` is 0 when the check runs without a schema;
        ``alphabet_size`` is the width of the shared (global) label
        alphabet the trace automata were built over (the rule counts
        already reflect it — trace rules fan out per label group — so
        the current calibration found no residual alphabet term worth
        keeping in the model).
        """
        if schema_rules <= 0:
            return LAZY
        schema_product = (
            pattern_rules * update_rules * _RULES_PER_PAIR * schema_rules
        )
        if schema_product <= SCHEMA_EAGER_RULE_LIMIT:
            return EAGER
        if self.explored_fraction >= HIGH_EXPLORED_FRACTION:
            return EAGER
        return LAZY

