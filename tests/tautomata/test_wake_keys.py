"""Soundness of ``HorizontalLanguage.wake_keys``.

The worklist engine wakes a search on a new symbol only when the
symbol's projection along the search's key path lies in the key's value
set.  A key that misses a symbol the language can actually step on
would silently drop a firing — and an emptiness run that misses a
firing can certify a dependent (FD, update) pair as independent, the
exact failure Proposition 2 rules out.  The property checked here, for
every horizontal class (nested products included) over sampled
reachable states and symbols:

    ``step(q, s) is not None``  implies  ``project(s, path) in values``.
"""

import os
import random
import subprocess
import sys
from collections import deque

import pytest

from repro.independence.language import _fd_component, dangerous_language
from repro.regex.dfa import compile_regex
from repro.schema.automaton import schema_automaton
from repro.tautomata.horizontal import (
    AllHorizontal,
    DFAHorizontal,
    EmptyWordHorizontal,
    FlagOnceHorizontal,
    HorizontalLanguage,
    ProductHorizontal,
    ProjectedHorizontal,
    MISMATCH,
    ShuffleHorizontal,
    project,
    try_project,
)
from tests.independence.test_lazy_criterion import _random_schema, _random_triple

LABELS = ("a", "b", "c", "d")
REGEXES = ("a b* c?", "(a|b)* c", "a", "a ~*", "b? d*", "(a b)* | c")


def _reachable(horizontal: HorizontalLanguage, symbols, limit=200):
    """Horizontal states reachable over ``symbols`` (capped BFS)."""
    start = horizontal.initial()
    seen = {start}
    queue = deque([start])
    while queue and len(seen) < limit:
        state = queue.popleft()
        for symbol in symbols:
            target = horizontal.step(state, symbol)
            if target is not None and target not in seen:
                seen.add(target)
                queue.append(target)
    return seen


def assert_wake_keys_sound(horizontal: HorizontalLanguage, symbols) -> int:
    """Check the soundness property; return how many live steps it saw."""
    key = horizontal.wake_keys()
    live_steps = 0
    for state in _reachable(horizontal, symbols):
        for symbol in symbols:
            if horizontal.step(state, symbol) is None:
                continue
            live_steps += 1
            if key is not None:
                path, values = key
                assert project(symbol, path) in values, (
                    horizontal, state, symbol, key
                )
    return live_steps


def _first(symbol):
    return symbol[0]


def _second(symbol):
    return symbol[1]


def _flag(symbol):
    return bool(symbol[2])


def _random_leaf(rng: random.Random) -> HorizontalLanguage:
    kind = rng.randrange(4)
    if kind == 0:
        return AllHorizontal(rng.sample(LABELS, rng.randint(0, 3)))
    if kind == 1:
        return ShuffleHorizontal(
            rng.sample(LABELS, rng.randint(0, 2)),
            [
                rng.sample(LABELS, rng.randint(1, 2))
                for _ in range(rng.randint(0, 3))
            ],
        )
    if kind == 2:
        return DFAHorizontal(compile_regex(rng.choice(REGEXES)))
    return EmptyWordHorizontal()


def _random_nested(rng: random.Random, depth: int):
    """A horizontal over ``(label, label-or-triple, flag)`` triples.

    The second coordinate is either a label or, one level down, another
    such triple, so products nest through projections.  Returns the
    horizontal and a sampler of symbols of its shape.
    """
    first = ProjectedHorizontal(_random_leaf(rng), _first)
    if depth > 0 and rng.random() < 0.6:
        inner, inner_symbol = _random_nested(rng, depth - 1)
        second = ProjectedHorizontal(inner, _second)
    else:
        second = ProjectedHorizontal(_random_leaf(rng), _second)

        def inner_symbol(r: random.Random):
            return r.choice(LABELS)

    parts = [first, second]
    if rng.random() < 0.5:
        parts.append(FlagOnceHorizontal(rng.randint(0, 1), _flag))
    rng.shuffle(parts)

    def symbol(r: random.Random):
        return (r.choice(LABELS), inner_symbol(r), r.randint(0, 1))

    return ProductHorizontal(parts), symbol


class TestLeafKeys:
    def test_empty_word_admits_nothing(self):
        assert EmptyWordHorizontal().wake_keys() == ((), frozenset())

    def test_all_admits_its_allowed_set(self):
        assert AllHorizontal({"a", "b"}).wake_keys() == ((), frozenset("ab"))

    def test_shuffle_admits_fillers_and_requirements(self):
        language = ShuffleHorizontal({"f"}, [{"a"}, {"b", "c"}])
        assert language.wake_keys() == ((), frozenset("fabc"))

    def test_dfa_admits_live_transitions_only(self):
        # after 'a', only 'b' keeps the run alive; 'c' never does
        language = DFAHorizontal(compile_regex("a b*", extra_alphabet={"c"}))
        assert language.wake_keys() == ((), frozenset("ab"))

    def test_dfa_with_live_other_edge_has_no_key(self):
        assert DFAHorizontal(compile_regex("a ~*")).wake_keys() is None

    def test_flag_once_has_no_key(self):
        assert FlagOnceHorizontal(1, bool).wake_keys() is None

    def test_unknown_subclass_has_no_key(self):
        class Opaque(AllHorizontal):
            wake_keys = HorizontalLanguage.wake_keys

        assert Opaque({"a"}).wake_keys() is None


class TestCompositeKeys:
    def test_projection_prepends_its_path(self):
        inner = AllHorizontal({"a"})
        outer = ProjectedHorizontal(ProjectedHorizontal(inner, _second), _first)
        assert outer.wake_keys() == ((_first, _second), frozenset("a"))
        assert project((("x", "a"), "y"), (_first, _second)) == "a"

    def test_product_takes_the_most_selective_part(self):
        wide = ProjectedHorizontal(AllHorizontal(set(LABELS)), _first)
        narrow = ProjectedHorizontal(AllHorizontal({"b"}), _second)
        product = ProductHorizontal([wide, FlagOnceHorizontal(0, _flag), narrow])
        assert product.wake_keys() == ((_second,), frozenset("b"))

    def test_product_of_unkeyed_parts_has_no_key(self):
        product = ProductHorizontal(
            [FlagOnceHorizontal(0, _flag), FlagOnceHorizontal(1, _flag)]
        )
        assert product.wake_keys() is None


class TestSoundness:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_leaves(self, seed):
        rng = random.Random(seed)
        assert_wake_keys_sound(_random_leaf(rng), LABELS + ("z",))

    @pytest.mark.parametrize("seed", range(60))
    def test_random_nested_products(self, seed):
        rng = random.Random(seed)
        horizontal, symbol = _random_nested(rng, depth=2)
        symbols = sorted({symbol(rng) for _ in range(80)}, key=repr)
        assert_wake_keys_sound(horizontal, symbols)

    @pytest.mark.parametrize("seed", range(12))
    def test_schema_automaton_rules(self, seed):
        automaton = schema_automaton(_random_schema(random.Random(seed)))
        symbols = sorted(automaton.states(), key=repr)
        for rule in automaton.rules:
            assert_wake_keys_sound(rule.horizontal, symbols)

    @pytest.mark.parametrize("seed", range(24))
    def test_dangerous_language_rules(self, seed):
        """Every factor and product level of a real IC construction."""
        fd, update_class, schema = _random_triple(seed)
        language = dangerous_language(
            fd, update_class, schema=schema, materialize=True
        )
        automata = [
            language.fd_automaton.automaton,
            language.update_automaton.automaton,
            language.flagged_product,
        ]
        if schema is not None:
            automata.append(language.automaton)
        rng = random.Random(seed)
        live = 0
        for automaton in automata:
            symbols = sorted(automaton.states(), key=repr)
            rules = automaton.rules
            for rule in rng.sample(rules, min(len(rules), 40)):
                live += assert_wake_keys_sound(rule.horizontal, symbols)
        assert live > 0  # the sample exercised real steps


# ----------------------------------------------------------------------
# every part's key: the conjunctive guard of a product search
# ----------------------------------------------------------------------


def assert_part_keys_sound(horizontal: HorizontalLanguage, symbols) -> int:
    """``step(q, s) is not None`` implies every part key admits ``s``."""
    keys = horizontal.part_wake_keys()
    live_steps = 0
    for state in _reachable(horizontal, symbols):
        for symbol in symbols:
            if horizontal.step(state, symbol) is None:
                continue
            live_steps += 1
            for path, values in keys:
                assert project(symbol, path) in values, (
                    horizontal, state, symbol, path, values
                )
    return live_steps


class TestPartKeys:
    def test_a_leaf_lists_its_own_key(self):
        language = AllHorizontal({"a"})
        assert language.part_wake_keys() == (language.wake_keys(),)

    def test_an_unkeyed_leaf_lists_nothing(self):
        assert FlagOnceHorizontal(1, _flag).part_wake_keys() == ()
        assert DFAHorizontal(compile_regex("a ~*")).part_wake_keys() == ()

    def test_projection_prefixes_every_key(self):
        inner = ProductHorizontal(
            [
                ProjectedHorizontal(AllHorizontal({"a"}), _first),
                ProjectedHorizontal(AllHorizontal({"b", "c"}), _second),
            ]
        )
        outer = ProjectedHorizontal(inner, _second)
        assert outer.part_wake_keys() == (
            ((_second, _first), frozenset("a")),
            ((_second, _second), frozenset("bc")),
        )

    def test_product_lists_its_parts_in_part_order(self):
        wide = ProjectedHorizontal(AllHorizontal(set(LABELS)), _first)
        narrow = ProjectedHorizontal(AllHorizontal({"b"}), _second)
        product = ProductHorizontal([wide, FlagOnceHorizontal(0, _flag), narrow])
        # the primary key is still the most selective part alone
        assert product.wake_keys() == ((_second,), frozenset("b"))
        assert product.part_wake_keys() == (
            ((_first,), frozenset(LABELS)),
            ((_second,), frozenset("b")),
        )

    def test_nested_products_flatten_depth_first(self):
        inner = ProductHorizontal(
            [
                ProjectedHorizontal(AllHorizontal({"c"}), _first),
                ProjectedHorizontal(EmptyWordHorizontal(), _second),
            ]
        )
        product = ProductHorizontal(
            [
                ProjectedHorizontal(AllHorizontal({"a"}), _first),
                ProjectedHorizontal(inner, _second),
                ProjectedHorizontal(AllHorizontal({"d"}), _second),
            ]
        )
        assert product.part_wake_keys() == (
            ((_first,), frozenset("a")),
            ((_second, _first), frozenset("c")),
            ((_second, _second), frozenset()),
            ((_second,), frozenset("d")),
        )

    def test_the_primary_key_is_one_of_the_part_keys(self):
        for seed in range(30):
            horizontal, _ = _random_nested(random.Random(seed), depth=2)
            key = horizontal.wake_keys()
            assert key is None or key in horizontal.part_wake_keys()


class TestPartKeySoundness:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_nested_products(self, seed):
        rng = random.Random(seed)
        horizontal, symbol = _random_nested(rng, depth=2)
        symbols = sorted({symbol(rng) for _ in range(80)}, key=repr)
        assert_part_keys_sound(horizontal, symbols)

    @pytest.mark.parametrize("seed", range(12))
    def test_schema_automaton_rules(self, seed):
        automaton = schema_automaton(_random_schema(random.Random(seed)))
        symbols = sorted(automaton.states(), key=repr)
        for rule in automaton.rules:
            assert_part_keys_sound(rule.horizontal, symbols)

    @pytest.mark.parametrize("seed", range(24))
    def test_dangerous_language_rules(self, seed):
        fd, update_class, schema = _random_triple(seed)
        language = dangerous_language(
            fd, update_class, schema=schema, materialize=True
        )
        automata = [
            language.fd_automaton.automaton,
            language.update_automaton.automaton,
            language.flagged_product,
        ]
        if schema is not None:
            automata.append(language.automaton)
        rng = random.Random(seed)
        live = 0
        for automaton in automata:
            symbols = sorted(automaton.states(), key=repr)
            rules = automaton.rules
            for rule in rng.sample(rules, min(len(rules), 40)):
                live += assert_part_keys_sound(rule.horizontal, symbols)
        assert live > 0


class TestTryProject:
    def test_a_symbol_of_the_expected_shape_is_projected(self):
        assert try_project(("a", "b"), (_second,)) == "b"

    def test_a_symbol_of_another_shape_is_a_mismatch(self):
        # an FD-component path meets a plain schema state: no part that
        # reads through this projection could step on it
        assert try_project("#text", (_fd_component,)) is MISMATCH
        assert try_project(("x",), (_second,)) is MISMATCH
        assert MISMATCH not in frozenset({"#", ("#", "u", 0)})

    def test_the_mismatch_does_not_depend_on_asserts(self):
        # ``python -O`` strips asserts; "#text"[0] == "#" would then pass
        code = (
            "from repro.independence.language import _fd_component\n"
            "from repro.tautomata.horizontal import MISMATCH, try_project\n"
            "print(try_project('#text', (_fd_component,)) is MISMATCH)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "True"
