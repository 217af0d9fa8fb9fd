"""Glushkov position automata and one-unambiguity.

The XML specification requires DTD content models to be *deterministic*
(1-unambiguous): while reading a word left to right, the next symbol
must always identify a unique position in the expression.  This is
exactly determinism of the Glushkov position automaton, built here from
the classical first/last/follow sets.

Used by the schema layer's strict mode; also serves as a second,
independently derived automaton construction cross-checked against
Thompson/subset in the property suite (the Brzozowski-derivative
matcher, a third engine, is a test-only oracle in
``tests/regex/derivatives.py``).
"""

from __future__ import annotations

import dataclasses

from repro.errors import RegexError
from repro.regex.ast import (
    AnySymbol,
    Concat,
    Epsilon,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)

# positions are integers assigned to symbol occurrences, left to right
_WILDCARD_MARK = "~"


@dataclasses.dataclass
class GlushkovAutomaton:
    """The position automaton of an expression.

    State 0 is the initial state; states ``1..n`` are the positions.
    ``symbol_of[p]`` is the label of position ``p`` (or the wildcard
    marker), ``first``/``follow`` define the transitions, and a word is
    accepted when it ends in a ``last`` position (or is empty and the
    expression is nullable).
    """

    symbol_of: dict[int, str]
    first: frozenset[int]
    last: frozenset[int]
    follow: dict[int, frozenset[int]]
    nullable: bool

    def accepts(self, word) -> bool:
        """Run the position automaton over a label word."""
        current: set[int] = set()
        started = False
        for label in word:
            candidates: set[int] = set()
            if not started:
                pool: set[int] | frozenset[int] = self.first
            else:
                pool = set()
                for position in current:
                    pool |= self.follow[position]
            for position in pool:
                expected = self.symbol_of[position]
                if expected == _WILDCARD_MARK or expected == label:
                    candidates.add(position)
            if not candidates:
                return False
            current = candidates
            started = True
        if not started:
            return self.nullable
        return bool(current & self.last)

    def is_deterministic(self) -> bool:
        """One-unambiguity: no state has two successors with the same
        symbol (a wildcard clashes with everything)."""

        def ambiguous(positions: frozenset[int] | set[int]) -> bool:
            seen: set[str] = set()
            wildcard = False
            for position in positions:
                symbol = self.symbol_of[position]
                if symbol == _WILDCARD_MARK:
                    if wildcard or seen:
                        return True
                    wildcard = True
                    continue
                if symbol in seen or wildcard:
                    return True
                seen.add(symbol)
            return False

        if ambiguous(self.first):
            return False
        return not any(
            ambiguous(successors) for successors in self.follow.values()
        )


def glushkov(expression: Regex) -> GlushkovAutomaton:
    """Build the position automaton from first/last/follow sets."""
    counter = [0]
    symbol_of: dict[int, str] = {}

    def annotate(node: Regex):
        """Returns (first, last, nullable, follow-updates)."""
        if isinstance(node, Epsilon):
            return frozenset(), frozenset(), True
        if isinstance(node, (Symbol, AnySymbol)):
            counter[0] += 1
            position = counter[0]
            symbol_of[position] = (
                node.label if isinstance(node, Symbol) else _WILDCARD_MARK
            )
            singleton = frozenset({position})
            return singleton, singleton, False
        if isinstance(node, Union):
            firsts: frozenset[int] = frozenset()
            lasts: frozenset[int] = frozenset()
            nullable = False
            for part in node.parts:
                f, l, n = annotate(part)
                firsts |= f
                lasts |= l
                nullable = nullable or n
            return firsts, lasts, nullable
        if isinstance(node, Concat):
            firsts: frozenset[int] = frozenset()
            lasts: frozenset[int] = frozenset()
            nullable = True
            for part in node.parts:
                f, l, n = annotate(part)
                for position in lasts:
                    follow[position] = follow[position] | f
                if nullable:
                    firsts |= f
                if n:
                    lasts |= l
                else:
                    lasts = l
                nullable = nullable and n
            return firsts, lasts, nullable
        if isinstance(node, (Star, Plus)):
            f, l, n = annotate(node.inner)
            for position in l:
                follow[position] = follow[position] | f
            return f, l, True if isinstance(node, Star) else n
        if isinstance(node, Optional):
            f, l, n = annotate(node.inner)
            return f, l, True
        raise RegexError(f"unknown regex node {node!r}")  # pragma: no cover

    class _FollowDict(dict):
        def __missing__(self, key):
            return frozenset()

    follow: dict[int, frozenset[int]] = _FollowDict()
    first, last, nullable = annotate(expression)
    return GlushkovAutomaton(
        symbol_of=symbol_of,
        first=frozenset(first),
        last=frozenset(last),
        follow={p: follow[p] for p in symbol_of},
        nullable=nullable,
    )


def is_one_unambiguous(expression: Regex) -> bool:
    """The XML determinism test for content models."""
    automaton = glushkov(expression)
    return automaton.is_deterministic()
