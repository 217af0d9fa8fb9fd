"""Unit and property tests for the Brzozowski-derivative matcher."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.regex.ast import (
    AnySymbol,
    Concat,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
)
from repro.regex.dfa import compile_regex
from tests.regex.derivatives import EMPTY, EPSILON, derivative, matches
from repro.regex.parser import parse_regex


class TestDerivative:
    def test_symbol_hit(self):
        assert derivative(Symbol("a"), "a") == EPSILON

    def test_symbol_miss(self):
        assert derivative(Symbol("a"), "b") == EMPTY

    def test_wildcard(self):
        assert derivative(AnySymbol(), "anything") == EPSILON

    def test_concat_consumes_head(self):
        assert derivative(parse_regex("a.b"), "a") == Symbol("b")

    def test_concat_nullable_head(self):
        # (a?.b) by 'b' succeeds through the skipped head
        result = derivative(parse_regex("a?.b"), "b")
        assert result.nullable()

    def test_star_unrolls(self):
        result = derivative(parse_regex("a*"), "a")
        assert matches(result, ())
        assert matches(result, ("a", "a"))

    def test_union_distributes(self):
        result = derivative(parse_regex("a.x|b.y"), "a")
        assert result == Symbol("x")

    def test_empty_absorbs(self):
        assert derivative(EMPTY, "a") == EMPTY


class TestMatches:
    @pytest.mark.parametrize(
        "source,word,expected",
        [
            ("a.b", ("a", "b"), True),
            ("a.b", ("a",), False),
            ("(a|b)*", (), True),
            ("(a|b)*", ("b", "a", "b"), True),
            ("a+", (), False),
            ("a+", ("a", "a", "a"), True),
            ("a?.b", ("b",), True),
            ("~.end", ("whatever", "end"), True),
            ("~.end", ("end",), False),
        ],
    )
    def test_membership(self, source, word, expected):
        assert matches(parse_regex(source), word) is expected


ALPHABET = ("a", "b", "c")


def _regex_strategy() -> st.SearchStrategy[Regex]:
    leaf = st.one_of(
        st.builds(Symbol, st.sampled_from(ALPHABET)),
        st.just(AnySymbol()),
    )

    def extend(inner):
        return st.one_of(
            st.builds(lambda x, y: Concat([x, y]), inner, inner),
            st.builds(lambda x, y: Union([x, y]), inner, inner),
            st.builds(Star, inner),
            st.builds(Plus, inner),
            st.builds(Optional, inner),
        )

    return st.recursive(leaf, extend, max_leaves=6)


_words = st.lists(st.sampled_from(ALPHABET + ("zz",)), max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_regex_strategy(), _words)
def test_derivatives_agree_with_dfa(expression, word):
    """Two unrelated algorithms must agree on every (regex, word) pair."""
    assert matches(expression, word) == compile_regex(expression).accepts(word)


@settings(max_examples=100, deadline=None)
@given(_regex_strategy())
def test_nullability_is_empty_word_membership(expression):
    assert matches(expression, ()) == expression.nullable()


@settings(max_examples=100, deadline=None)
@given(_regex_strategy(), st.sampled_from(ALPHABET), _words)
def test_derivative_characterization(expression, symbol, word):
    """w ∈ ∂_a(r)  iff  a·w ∈ r — the defining property."""
    assert matches(derivative(expression, symbol), word) == matches(
        expression, (symbol,) + word
    )
