"""Horizontal languages: regular constraints on children-state words.

A hedge-automaton rule constrains the word formed by the states of a
node's children.  Rather than materializing one large DFA per rule (the
product constructions of Section 5 would square sizes needlessly), a
horizontal language is a small object implementing a deterministic
automaton protocol:

* ``initial()`` -- start state;
* ``step(state, symbol)`` -- next state, or ``None`` when dead;
* ``accepting(state)`` -- acceptance;
* ``size()`` -- number of states (for the Proposition 3 size study);
* ``wake_keys()`` -- a conservative over-approximation of the symbols
  ``step`` can ever accept, as ``(path, values)``: a symbol can only
  step if projecting it along ``path`` (a tuple of projection callables,
  applied left to right; see :func:`project`) lands in the finite set
  ``values``.  ``None`` means "may read anything".  The worklist engine
  uses it to wake only the searches that can read a new symbol;
* ``part_wake_keys()`` -- the keys of every conjunct at once: a symbol
  can only step if it satisfies each of them.  A product lists its
  parts' keys in part order and a projection prefixes its path, so the
  engine can check every part of a product before stepping it.

Symbols are hedge-automaton states (arbitrary hashable objects).  The
instances cover everything the paper's constructions need: the shuffle
shape ``F* S1 F* S2 ... Sk F*`` of pattern embeddings, content-model DFAs
for schemas, products for product automata, and exactly-one-flag counting
for the Definition 6 intersection condition.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence

from repro.regex.dfa import DFA

HState = Hashable
Symbol = Hashable
#: projections applied left to right to reach the symbol a key tests
Path = tuple[Callable[[Symbol], Symbol], ...]
#: ``(path, values)``: a symbol may step only if its projection is in values
WakeKey = tuple[Path, frozenset]


def project(symbol: Symbol, path: Path) -> Symbol:
    """Apply a wake-key path's projections to a symbol, left to right."""
    for projection in path:
        symbol = projection(symbol)
    return symbol


#: what :func:`try_project` returns for a symbol its path cannot take;
#: a fresh object, so it lies in no key's value set
MISMATCH: Symbol = object()


def try_project(symbol: Symbol, path: Path) -> Symbol:
    """:func:`project`, or :data:`MISMATCH` for a symbol of another shape.

    A symbol of another shape than the path expects -- a projection
    raises ``TypeError`` or ``IndexError`` on it, such as a tuple
    component of a plain label -- satisfies no key on that path: ``step``
    reads a part's symbol through the same projection, so it cannot
    step on that symbol either.
    """
    try:
        return project(symbol, path)
    except (TypeError, IndexError):
        return MISMATCH


class HorizontalLanguage:
    """Protocol base class; see the module docstring."""

    def initial(self) -> HState:
        """The start state of the deterministic horizontal automaton."""
        raise NotImplementedError

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        """Consume one child state; ``None`` means the run is dead."""
        raise NotImplementedError

    def accepting(self, state: HState) -> bool:
        """Is the children word read so far accepted?"""
        raise NotImplementedError

    def size(self) -> int:
        """State count, for the Proposition 3 size accounting."""
        raise NotImplementedError

    def structure_key(self) -> Hashable:
        """A hashable structural fingerprint of the language.

        Two languages with equal keys accept the same words, so rule
        deltas across re-built automata (incremental re-analysis after a
        pattern edit) can match surviving rules structurally instead of
        by object identity.  The base fallback is object identity —
        conservatively distinct, never wrongly equal.
        """
        return ("opaque", id(self))

    def wake_keys(self) -> WakeKey | None:
        """Which symbols can ``step`` ever accept (see module docstring)?

        Soundness contract: whenever ``step(q, s)`` is not ``None`` for
        a reachable state ``q``, ``project(s, path)`` is in ``values``.
        The base fallback, ``None``, admits every symbol — always sound.
        """
        return None

    def part_wake_keys(self) -> tuple[WakeKey, ...]:
        """The wake keys of every conjunct (see module docstring).

        Soundness contract: whenever ``step(q, s)`` is not ``None`` for
        a reachable state ``q``, ``project(s, path)`` is in ``values``
        for *every* returned key.  A language that is not a conjunction
        has one conjunct, itself: its own key, or none when unkeyed.
        """
        key = self.wake_keys()
        return () if key is None else (key,)

    # convenience ------------------------------------------------------

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Run the language on a concrete word of symbols."""
        state: HState | None = self.initial()
        for symbol in word:
            state = self.step(state, symbol)
            if state is None:
                return False
        return self.accepting(state)


class EmptyWordHorizontal(HorizontalLanguage):
    """Only the empty children word (leaf rules)."""

    def structure_key(self) -> Hashable:
        return ("empty-word",)

    def initial(self) -> HState:
        return 0

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        return None

    def wake_keys(self) -> WakeKey | None:
        return ((), frozenset())

    def accepting(self, state: HState) -> bool:
        return True

    def size(self) -> int:
        return 1


class AllHorizontal(HorizontalLanguage):
    """``F*``: every child state must belong to a fixed set."""

    def __init__(self, allowed: frozenset[Symbol] | set[Symbol]) -> None:
        self.allowed = frozenset(allowed)

    def structure_key(self) -> Hashable:
        return ("all", self.allowed)

    def initial(self) -> HState:
        return 0

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        return 0 if symbol in self.allowed else None

    def wake_keys(self) -> WakeKey | None:
        return ((), self.allowed)

    def accepting(self, state: HState) -> bool:
        return True

    def size(self) -> int:
        return 1


class ShuffleHorizontal(HorizontalLanguage):
    """``F* S1 F* S2 ... Sk F*`` with filler set F and requirement sets Si.

    This is the children shape of a pattern-node image: the required
    path-start children appear in order at distinct positions, everything
    else is filler.  The requirement sets may overlap the filler set, so
    the deterministic state is the subset of "requirements consumed so
    far" counts that are still achievable.
    """

    def __init__(
        self,
        fillers: frozenset[Symbol] | set[Symbol],
        requirements: Sequence[frozenset[Symbol] | set[Symbol]],
    ) -> None:
        self.fillers = frozenset(fillers)
        self.requirements = [frozenset(req) for req in requirements]
        # a step needs the symbol as a filler or as some requirement
        self._wake_keys = ((), self.fillers.union(*self.requirements))

    def wake_keys(self) -> WakeKey | None:
        return self._wake_keys

    def structure_key(self) -> Hashable:
        return ("shuffle", self.fillers, tuple(self.requirements))

    def initial(self) -> HState:
        return frozenset({0})

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        assert isinstance(state, frozenset)
        advanced: set[int] = set()
        for consumed in state:
            if symbol in self.fillers:
                advanced.add(consumed)
            if consumed < len(self.requirements) and symbol in self.requirements[consumed]:
                advanced.add(consumed + 1)
        if not advanced:
            return None
        return frozenset(advanced)

    def accepting(self, state: HState) -> bool:
        assert isinstance(state, frozenset)
        return len(self.requirements) in state

    def size(self) -> int:
        return len(self.requirements) + 1


class DFAHorizontal(HorizontalLanguage):
    """A horizontal language backed by an explicit word DFA.

    Used for schema content models, whose symbols are schema states.
    Dead states (those from which acceptance is unreachable) step to
    ``None`` so emptiness searches stay small.
    """

    def __init__(self, dfa: DFA) -> None:
        self.dfa = dfa
        self._live = dfa.live_states()
        self._wake_keys = self._live_labels()

    def _live_labels(self) -> WakeKey | None:
        # a run only ever sits in the start state or a live state;
        # labels outside the alphabet take the OTHER edge, so one live
        # OTHER edge lets every symbol step
        dfa = self.dfa
        sources = self._live | {dfa.start}
        if any(dfa.other[state] in self._live for state in sources):
            return None
        return (
            (),
            frozenset(
                label
                for state in sources
                for label, target in dfa.transitions[state].items()
                if target in self._live
            ),
        )

    def wake_keys(self) -> WakeKey | None:
        """Labels with a live transition out of a state a run can occupy."""
        return self._wake_keys

    def initial(self) -> HState:
        return self.dfa.start

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        target = self.dfa.step(state, symbol)  # type: ignore[arg-type]
        if target not in self._live:
            return None
        return target

    def accepting(self, state: HState) -> bool:
        return state in self.dfa.accepting

    def size(self) -> int:
        return self.dfa.state_count


class ProjectedHorizontal(HorizontalLanguage):
    """Apply a projection to every symbol before a wrapped language.

    In a product automaton the children states are tuples; each component
    automaton's horizontal language reads its own coordinate.
    """

    def __init__(
        self,
        inner: HorizontalLanguage,
        projection: Callable[[Symbol], Symbol],
    ) -> None:
        self.inner = inner
        self.projection = projection

    def structure_key(self) -> Hashable:
        # module-level projections hash stably by identity
        return ("projected", self.inner.structure_key(), self.projection)

    def initial(self) -> HState:
        return self.inner.initial()

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        return self.inner.step(state, self.projection(symbol))

    def wake_keys(self) -> WakeKey | None:
        inner = self.inner.wake_keys()
        if inner is None:
            return None
        path, values = inner
        return ((self.projection,) + path, values)

    def part_wake_keys(self) -> tuple[WakeKey, ...]:
        projection = (self.projection,)
        return tuple(
            (projection + path, values)
            for path, values in self.inner.part_wake_keys()
        )

    def accepting(self, state: HState) -> bool:
        return self.inner.accepting(state)

    def size(self) -> int:
        return self.inner.size()


class ProductHorizontal(HorizontalLanguage):
    """Conjunction of several horizontal languages on the same word."""

    def __init__(self, parts: Sequence[HorizontalLanguage]) -> None:
        self.parts = list(parts)

    def structure_key(self) -> Hashable:
        return ("product", tuple(part.structure_key() for part in self.parts))

    def initial(self) -> HState:
        return tuple(part.initial() for part in self.parts)

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        assert isinstance(state, tuple)
        advanced = []
        for part, sub_state in zip(self.parts, state):
            next_state = part.step(sub_state, symbol)
            if next_state is None:
                return None
            advanced.append(next_state)
        return tuple(advanced)

    def wake_keys(self) -> WakeKey | None:
        # every part must step, so any part's key is sound: take the
        # most selective (fewest admitted values; first on ties)
        best: WakeKey | None = None
        for part in self.parts:
            key = part.wake_keys()
            if key is not None and (best is None or len(key[1]) < len(best[1])):
                best = key
        return best

    def part_wake_keys(self) -> tuple[WakeKey, ...]:
        # a step steps every part, so every part's keys must admit it
        return tuple(key for part in self.parts for key in part.part_wake_keys())

    def accepting(self, state: HState) -> bool:
        assert isinstance(state, tuple)
        return all(
            part.accepting(sub_state)
            for part, sub_state in zip(self.parts, state)
        )

    def size(self) -> int:
        product = 1
        for part in self.parts:
            product *= part.size()
        return product


class FlagOnceHorizontal(HorizontalLanguage):
    """Count flagged children: accepts words with a given flag total.

    ``flag_of`` extracts a boolean from each symbol; the language accepts
    when the number of flagged children equals ``required`` (0 or 1 in
    the Definition 6 construction — the designated node lies in exactly
    one child subtree unless the current node is the designated one).
    """

    def __init__(self, required: int, flag_of: Callable[[Symbol], bool]) -> None:
        self.required = required
        self.flag_of = flag_of

    def structure_key(self) -> Hashable:
        return ("flag-once", self.required, self.flag_of)

    def initial(self) -> HState:
        return 0

    def step(self, state: HState, symbol: Symbol) -> HState | None:
        assert isinstance(state, int)
        count = state + (1 if self.flag_of(symbol) else 0)
        if count > self.required:
            return None
        return count

    def accepting(self, state: HState) -> bool:
        return state == self.required

    def size(self) -> int:
        return self.required + 1
