"""Product constructions on hedge automata.

The product automaton runs two automata on the same document; its states
are pairs and a pair rule fires when both component rules fire on the
same label with children words accepted componentwise.  Acceptance is
configurable (conjunction by default) so the same construction serves
intersection and the final ``A = A_S × B`` of Proposition 3.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.tautomata.hedge import HedgeAutomaton, Rule, State
from repro.tautomata.horizontal import ProductHorizontal, ProjectedHorizontal


def _first(symbol: State) -> State:
    if not isinstance(symbol, tuple):
        raise TypeError(f"not a product state: {symbol!r}")
    return symbol[0]


def _second(symbol: State) -> State:
    if not isinstance(symbol, tuple):
        raise TypeError(f"not a product state: {symbol!r}")
    return symbol[1]


def product_automaton(
    left: HedgeAutomaton,
    right: HedgeAutomaton,
    accept: Callable[[bool, bool], bool] | None = None,
    name: str | None = None,
) -> HedgeAutomaton:
    """The synchronous product of two hedge automata.

    With the default ``accept`` the product recognizes the intersection
    of the two languages.
    """
    rules: list[Rule] = []
    for left_rule in left.rules:
        for right_rule in right.rules:
            labels = left_rule.labels.intersect(right_rule.labels)
            if labels.is_empty():
                continue
            horizontal = ProductHorizontal(
                [
                    ProjectedHorizontal(left_rule.horizontal, _first),
                    ProjectedHorizontal(right_rule.horizontal, _second),
                ]
            )
            rules.append(
                Rule(
                    state=(left_rule.state, right_rule.state),
                    labels=labels,
                    horizontal=horizontal,
                )
            )

    if accept is None:
        accepting = [
            (a, b) for a in left.accepting for b in right.accepting
        ]
    else:
        left_states = {rule.state for rule in left.rules} | set(left.accepting)
        right_states = {rule.state for rule in right.rules} | set(right.accepting)
        accepting = [
            (a, b)
            for a in left_states
            for b in right_states
            if accept(a in left.accepting, b in right.accepting)
        ]

    return HedgeAutomaton(
        rules,
        accepting,
        name=name or f"({left.name}×{right.name})",
    )
