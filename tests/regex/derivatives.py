"""Brzozowski derivatives: a second, independent regex matcher.

The derivative of a language L by a symbol ``a`` is
``{w : a·w ∈ L}``; a word is in L iff deriving by each of its symbols in
turn ends in a nullable expression.  Derivatives need no automaton at
all, which makes them the ideal cross-check for the NFA/DFA pipeline —
the property suite runs both on random expressions and words.

Derivatives are computed with light algebraic simplification (the
similarity rules of Brzozowski's paper) so repeated derivation does not
grow expressions unboundedly.

Only the test-suite uses this matcher (``test_derivatives.py``), so it
lives under ``tests/`` as an oracle rather than in the installed
package.
"""

from __future__ import annotations

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


class _EmptyLanguage(Regex):
    """The empty language ∅ (needed as a derivative result only)."""

    def nullable(self) -> bool:
        return False

    def _key(self) -> tuple:
        return ("empty",)

    def __str__(self) -> str:
        return "∅"


EMPTY = _EmptyLanguage()
EPSILON = Epsilon()


def _concat(parts: list[Regex]) -> Regex:
    flattened: list[Regex] = []
    for part in parts:
        if isinstance(part, _EmptyLanguage):
            return EMPTY
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, Concat):
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    if not flattened:
        return EPSILON
    if len(flattened) == 1:
        return flattened[0]
    return Concat(flattened)


def _union(parts: list[Regex]) -> Regex:
    seen: dict[tuple, Regex] = {}
    for part in parts:
        if isinstance(part, _EmptyLanguage):
            continue
        if isinstance(part, Union):
            for inner in part.parts:
                seen.setdefault(inner._key(), inner)
        else:
            seen.setdefault(part._key(), part)
    if not seen:
        return EMPTY
    values = list(seen.values())
    if len(values) == 1:
        return values[0]
    return Union(values)


def derivative(expression: Regex, symbol: str) -> Regex:
    """The Brzozowski derivative ``∂_symbol(expression)``."""
    if isinstance(expression, (_EmptyLanguage, Epsilon)):
        return EMPTY
    if isinstance(expression, Symbol):
        return EPSILON if expression.label == symbol else EMPTY
    if isinstance(expression, AnySymbol):
        return EPSILON
    if isinstance(expression, Union):
        return _union([derivative(part, symbol) for part in expression.parts])
    if isinstance(expression, Concat):
        head, tail = expression.parts[0], list(expression.parts[1:])
        first = _concat([derivative(head, symbol)] + tail)
        if head.nullable():
            return _union([first, derivative(_concat(tail), symbol)])
        return first
    if isinstance(expression, Star):
        return _concat([derivative(expression.inner, symbol), expression])
    if isinstance(expression, Plus):
        return _concat(
            [derivative(expression.inner, symbol), Star(expression.inner)]
        )
    if isinstance(expression, Optional):
        return derivative(expression.inner, symbol)
    raise TypeError(f"unknown regex node {expression!r}")  # pragma: no cover


def matches(expression: Regex, word) -> bool:
    """Word membership by repeated derivation."""
    current = expression
    for symbol in word:
        current = derivative(current, symbol)
        if isinstance(current, _EmptyLanguage):
            return False
    return current.nullable()
