"""Worklist inhabitation fixpoint with persistent horizontal frontiers.

The seed implementation of emptiness (kept verbatim in
:mod:`repro.tautomata.reference`) recomputed everything per round: a
``while changed`` loop over all rules, each probe re-running a BFS over
the rule's horizontal automaton from scratch against a freshly *sorted*
copy of the inhabited set.  That is O(rounds × rules × BFS) — quadratic
churn that dominates IC wall-clock on chain-shaped patterns.

This module replaces the restart loop with a dependency-tracked
worklist:

* every candidate rule owns a *persistent frontier* — the set of
  horizontal states reachable from the initial state via words over the
  currently-inhabited symbols;
* when a new symbol becomes inhabited it is pushed on a queue; each
  still-active rule that can read it *extends* its frontier (new symbol
  from the old frontier, then closure of the newly reached states under
  the inhabited symbols it can read) instead of recomputing it;
* a rule fires the moment its frontier touches an accepting horizontal
  state; the fired state is enqueued and the rule retires.

Each (rule, horizontal-state, symbol) edge is therefore traversed at
most once over the whole fixpoint.

A new symbol is not offered to every active rule, only to those that can
read it.  Each horizontal language reports a conservative
:meth:`~repro.tautomata.horizontal.HorizontalLanguage.wake_keys`: a
projection path and a finite value set (or ``None``, "may read
anything").  The engine keeps a *wake index* of two maps, ``(path,
value) -> searches`` and ``(path, value) -> inhabited symbols``: a new
symbol is projected along every registered path and wakes the searches
filed under its projections plus the unkeyed ones, and a search's
closure (and its catch-up when it is installed late) iterates only the
inhabited symbols its key admits.  The soundness condition is that
``step(q, s) is not None`` for a reachable ``q`` implies ``project(s,
path) in values``; a skipped search then cannot step on the symbol from
any frontier state, so skipping it changes the step count and nothing
else.  Woken searches are visited in registration order, which makes
firings, firing words and witnesses identical to a scan of every search.

A product horizontal steps only if every part steps, so a search is
filed under its primary key but also carries a *guard*: the keys of its
other parts (:meth:`~repro.tautomata.horizontal.HorizontalLanguage.part_wake_keys`
minus the primary).  A symbol must pass the guard before the search
steps on it -- on a wake-up, in the closure and in the catch-up of a
late install.  The same implication, applied to each part, makes this
sound: ``step(q, s) is not None`` means every part stepped on its
projection of ``s``, so every part's key admits ``s``.  Guards are
interned per engine and cache their verdicts by interned symbol id, and
the projections they test are cached once per path, so each symbol is
projected once per path and judged once per guard.  A guard may meet a
symbol of another shape than its path expects -- a plain schema state
against an FD-component projection that ``step`` never reaches because
an earlier part already returned ``None`` -- and rejects it
(:func:`~repro.tautomata.horizontal.try_project`): ``step`` would read
that part through the same projection, so it cannot step on the symbol
either.  A rejected wake-up still ticks the meter once, with no steps,
so the deadline is read at the same cadence as without guards.

Vertical states — nested product
tuples in the IC pipeline — are interned to dense ints
(:mod:`repro.tautomata.intern`), so inhabitation membership on the hot
path is one bit test in an integer bitmask rather than a tuple-hashing
set probe, and retiring every pending search of a freshly fired state
is a single dict pop on the interned id.  The engine optionally records
parent pointers in the frontier so a firing word — and from it a witness
tree — can be reconstructed without the separate shortest-word search,
and optionally keeps probing rules whose state is already inhabited so
callers learn *per-rule* fireability (the pruning fact the lazy product
construction of :mod:`repro.tautomata.lazy` needs).

Rules may be fed to the engine at any time; a rule added late is caught
up against the already-inhabited symbols first, so eager callers (add
everything, then run) and lazy callers (add candidates as factor pairs
become plausible) share the same machinery.

``incremental=True`` additionally supports *retraction* in the
delete-and-rederive style of incremental Datalog maintenance: the
engine remembers every live rule and, because parent pointers are
forced on, the exact support (firing word) of every derivation.
:meth:`retract_rules` un-derives precisely the states whose recorded
support vanished (seeding with retracted rules' firings, cascading
through firing words), rebuilds only the searches whose frontiers
consumed a now-dead symbol, and re-runs the worklist from the surviving
frontier — a small rule delta re-solves emptiness without rebuilding
the engine.  The surviving derivations are inductively valid (each
recorded word touches only surviving states), so the re-run converges
to exactly the fixpoint a cold engine over the surviving rules reaches.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Sequence
from operator import attrgetter

from repro.limits import BudgetMeter
from repro.tautomata.hedge import LabelSpec, Rule, State
from repro.tautomata.horizontal import (
    HorizontalLanguage,
    Path,
    WakeKey,
    project,
    try_project,
)
from repro.tautomata.intern import InternTable
from repro.xmlmodel.tree import NodeType, label_node_type


def spec_has_element_label(spec: LabelSpec) -> bool:
    """Can the specification match at least one element label?

    Co-finite sets always contain element labels; a finite set must name
    one explicitly.  Under XML typing, a rule whose labels are all
    attribute/text can only ever fire on the empty children word.
    """
    if spec.mode == "not_in":
        return True
    return any(
        label_node_type(label) is NodeType.ELEMENT for label in spec.labels
    )


#: searches are visited in this order, whichever index woke them
_ORDER = attrgetter("order")

#: projected value -> searches (or inhabited symbols) filed under it
_Buckets = dict[Hashable, list]


class _Projections(dict):
    """Interned symbol id -> the symbol projected along one path.

    Shared by every guard key on the path; a symbol the path cannot
    take projects to :data:`~repro.tautomata.horizontal.MISMATCH`.
    """

    __slots__ = ("path", "symbols")

    def __init__(self, path: Path, symbols: InternTable) -> None:
        super().__init__()
        self.path = path
        #: the engine's state intern table, to read a symbol back
        self.symbols = symbols

    def __missing__(self, symbol_id: int) -> Hashable:
        value = self[symbol_id] = try_project(
            self.symbols.object(symbol_id), self.path
        )
        return value


class _Guard(dict):
    """Interned symbol id -> may a search step on the symbol?

    Holds the part keys of a product search besides its primary key, as
    (projections along the key's path, admitted values) pairs; shared by
    every search with the same keys, and decided on first lookup.
    """

    __slots__ = ("tests",)

    def __init__(self, tests: tuple[tuple[_Projections, frozenset], ...]) -> None:
        super().__init__()
        self.tests = tests

    def __missing__(self, symbol_id: int) -> bool:
        verdict = True
        for projections, values in self.tests:
            if projections[symbol_id] not in values:
                verdict = False
                break
        self[symbol_id] = verdict
        return verdict


class _Search:
    """Persistent frontier of one rule's horizontal automaton."""

    __slots__ = ("rule", "key", "guard", "frontier", "parents", "order", "retired")

    def __init__(
        self,
        rule: Rule,
        initial: State,
        key: WakeKey | None,
        guard: _Guard | None,
        record_parents: bool,
    ) -> None:
        self.rule = rule
        #: the horizontal's wake key; ``None`` = woken by every symbol
        self.key = key
        #: the other part keys a symbol must pass before a step
        self.guard = guard
        self.frontier = {initial}
        # h-state -> (previous h-state, symbol); the initial state has no entry
        self.parents: dict | None = {} if record_parents else None
        #: (group rank, install number), set at registration
        self.order: tuple[int, int] = (0, 0)
        #: fired, retired with its state, or dropped by retraction
        self.retired = False

    def retire(self) -> None:
        self.retired = True
        self.frontier = self.parents = None  # index buckets may keep the shell


class InhabitationEngine:
    """Incremental least-fixpoint computation of inhabited states.

    ``typed``
        enforce XML typing: attribute/text-labeled nodes are leaves, so
        rules without an element label only fire on the empty word;
    ``record_parents``
        keep frontier parent pointers so :meth:`firing_word` can
        reconstruct the word each state first fired with (the basis of
        witness-tree extraction in :mod:`repro.tautomata.emptiness`);
    ``track_rules``
        keep probing every rule until it fires itself (instead of
        retiring all rules of a state on first firing), so
        :attr:`fired_rules` is the exact set of individually fireable
        rules;
    ``meter``
        an optional started :class:`~repro.limits.BudgetMeter`: every
        registered rule and newly inhabited state is charged against it
        and every advanced search ticks it once with its step count, so
        a budgeted fixpoint stops with
        :class:`~repro.limits.BudgetExceeded` at the first checkpoint
        past a limit.  ``None`` (the default) adds no bookkeeping to any
        hot path.
    ``incremental``
        keep the live-rule registry and per-derivation support needed by
        :meth:`retract_rules` (forces ``record_parents`` so firing words
        are real support sets).  Off by default: retraction bookkeeping
        costs memory that one-shot fixpoints never need.
    """

    def __init__(
        self,
        typed: bool = False,
        record_parents: bool = False,
        track_rules: bool = False,
        meter: BudgetMeter | None = None,
        incremental: bool = False,
    ) -> None:
        self.typed = typed
        self.record_parents = record_parents or incremental
        self.track_rules = track_rules
        self.meter = meter
        self.incremental = incremental
        #: id(rule) -> rule for every live registered rule (incremental)
        self._live: dict[int, Rule] | None = {} if incremental else None
        #: id(rule) -> firing word, for fired-rule proof invalidation
        self._rule_words: dict[int, tuple[State, ...]] | None = (
            {} if incremental and track_rules else None
        )
        #: state -> (rule, firing word); insertion order = discovery order
        self.firings: dict[State, tuple[Rule, tuple[State, ...]]] = {}
        self.fired_rules: list[Rule] = []
        self.step_attempts = 0
        self.rule_count = 0
        #: worklist rounds completed: symbols propagated by :meth:`run`
        self.rounds = 0
        self._symbols: list[State] = []  # inhabited, in discovery order
        self._rank: dict[State, int] = {}  # symbol -> round it was propagated
        # Vertical states are interned to dense ints; inhabitation
        # membership is then one bit in ``_fired_mask`` instead of a
        # tuple-hashing dict probe per (search, round).  Registered
        # searches are grouped by their interned state id, so when rules
        # are not individually tracked a firing retires the whole group
        # with a single dict pop.
        self._state_ids = InternTable()
        self._fired_mask = 0
        self._active: dict[int, list[_Search]] = {}
        self._installs = 0
        # The wake index, per registered key path: searches by the
        # projected values their keys admit, and inhabited symbols by
        # their projection.  Buckets drop retired searches lazily.
        self._paths: dict[Path, tuple[_Buckets, _Buckets]] = {}
        self._unkeyed: list[_Search] = []
        # Guards interned by their keys, and the symbol projections
        # their keys test, one cache per path
        self._guards: dict[tuple[WakeKey, ...], _Guard] = {}
        self._projections: dict[Path, _Projections] = {}
        self._queue: deque[State] = deque()

    # ------------------------------------------------------------------
    # feeding rules
    # ------------------------------------------------------------------

    def add_rule(self, rule: Rule) -> None:
        """Register a candidate rule (catching up on known symbols)."""
        if rule.labels.is_empty():
            return
        if self._live is not None:
            self._live[id(rule)] = rule
        self._install(rule, charge=True)

    def _install(self, rule: Rule, charge: bool) -> None:
        """Create (or re-create, on retraction rebuild) a rule's search."""
        state_id = self._state_ids.intern(rule.state)
        if not self.track_rules and (self._fired_mask >> state_id) & 1:
            return
        if charge:
            self.rule_count += 1
            if self.meter is not None:
                self.meter.charge_rule()
        horizontal = rule.horizontal
        initial = horizontal.initial()
        if horizontal.accepting(initial):
            # the empty children word is well-typed under any label
            self._fire(rule, ())
            return
        if self.typed and not spec_has_element_label(rule.labels):
            # leaf-only labels cannot carry children: the rule is dead
            return
        key = horizontal.wake_keys()
        search = _Search(
            rule, initial, key, self._guard(horizontal, key), self.record_parents
        )
        if self._symbols:
            symbols = self._admitted_symbols(search.key)
            if symbols:
                guarded = self._guarded(symbols, search.guard)
                if guarded:
                    self._advance(search, guarded, guarded)
                elif self.meter is not None:
                    self.meter.tick(0)
        if not search.retired:
            self._register(search, state_id)

    def _guard(
        self, horizontal: HorizontalLanguage, key: WakeKey | None
    ) -> _Guard | None:
        """The interned guard of the part keys other than ``key``."""
        keys = list(horizontal.part_wake_keys())
        if key in keys:
            keys.remove(key)  # the wake index already checks it
        if not keys:
            return None
        guard_keys = tuple(keys)
        guard = self._guards.get(guard_keys)
        if guard is None:
            tests = []
            for path, values in guard_keys:
                projections = self._projections.get(path)
                if projections is None:
                    projections = _Projections(path, self._state_ids)
                    self._projections[path] = projections
                tests.append((projections, values))
            guard = self._guards[guard_keys] = _Guard(tuple(tests))
        return guard

    def _guarded(
        self, symbols: list[State], guard: _Guard | None
    ) -> list[State]:
        """The symbols (in order) that pass a search's guard."""
        if guard is None:
            return symbols
        intern = self._state_ids.intern
        return [symbol for symbol in symbols if guard[intern(symbol)]]

    def _register(self, search: _Search, state_id: int) -> None:
        """File a live search under its state group and its wake key."""
        self._installs += 1
        group = self._active.setdefault(state_id, [])
        # untracked runs visit state groups in creation order (a group
        # ranks by its first install), then each group in install order
        rank = 0
        if not self.track_rules:
            rank = group[0].order[0] if group else self._installs
        search.order = (rank, self._installs)
        group.append(search)
        if search.key is None:
            self._unkeyed.append(search)
            return
        path, values = search.key
        searches, _ = self._path_index(path)
        for value in values:
            bucket = searches.get(value)
            if bucket is None:
                searches[value] = [search]
            else:
                bucket.append(search)

    def _path_index(self, path: Path) -> tuple[_Buckets, _Buckets]:
        """(searches, inhabited symbols) by projected value along ``path``.

        Made on first use, filing the symbols already inhabited.
        """
        index = self._paths.get(path)
        if index is None:
            symbols: _Buckets = {}
            for symbol in self._symbols:
                symbols.setdefault(project(symbol, path), []).append(symbol)
            index = self._paths[path] = ({}, symbols)
        return index

    def _admitted_symbols(self, key: WakeKey | None) -> list[State]:
        """The inhabited symbols a key admits, in discovery order."""
        if key is None:
            return self._symbols
        path, values = key
        _, table = self._path_index(path)
        if len(values) < len(table):
            groups = [table[value] for value in values if value in table]
        else:
            groups = [
                symbols for value, symbols in table.items() if value in values
            ]
        if len(groups) == 1:
            return groups[0]
        merged = [symbol for symbols in groups for symbol in symbols]
        merged.sort(key=self._rank.__getitem__)
        return merged

    def add_rules(self, rules: Iterable[Rule]) -> None:
        """Register several rules (see :meth:`add_rule`)."""
        for rule in rules:
            self.add_rule(rule)

    # ------------------------------------------------------------------
    # retraction (incremental=True)
    # ------------------------------------------------------------------

    @staticmethod
    def _search_consumed(search: _Search) -> set[State]:
        """The symbols that actually extended a search's frontier."""
        if search.parents is None:
            return set()
        return {symbol for _, symbol in search.parents.values()}

    def retract_rules(self, rules: Iterable[Rule]) -> dict[str, int]:
        """Un-register rules and re-solve the fixpoint (delete-and-rederive).

        Un-derives exactly the states whose recorded support vanished:
        the cascade seeds with states whose firing rule was retracted
        and propagates through firing words (a derivation dies only
        when its own word touches a dead state — surviving derivations
        stay inductively valid).  Searches whose frontiers consumed a
        dead symbol are rebuilt; rules of dead states are re-installed
        from the live registry; then the worklist re-runs from the
        surviving frontier, re-deriving anything still supported.

        Rules are matched by object identity — pass the same ``Rule``
        objects that were added (unknown rules are ignored).  Returns
        delta counters for the ``worklist.delta`` span:
        ``retracted_rules`` / ``undered_states`` / ``rebuilt_searches``
        / ``rederived_states``.
        """
        if self._live is None:
            raise ValueError("retract_rules requires incremental=True")
        self.run()  # retraction reasons over a completed fixpoint
        removed: set[int] = set()
        for rule in rules:
            if self._live.pop(id(rule), None) is not None:
                removed.add(id(rule))
        stats = {
            "retracted_rules": len(removed),
            "undered_states": 0,
            "rebuilt_searches": 0,
            "rederived_states": 0,
        }
        if not removed:
            return stats

        # Overapproximate the damage: a state whose recorded derivation
        # used a retracted rule or a dead state is un-derived; re-run
        # re-derives any that survive through other support (DRed).
        uses: dict[State, list[State]] = {}
        for state, (_, word) in self.firings.items():
            for symbol in frozenset(word):
                uses.setdefault(symbol, []).append(state)
        pending: deque[State] = deque(
            state
            for state, (rule, _) in self.firings.items()
            if id(rule) in removed
        )
        dead: set[State] = set()
        while pending:
            state = pending.popleft()
            if state in dead:
                continue
            dead.add(state)
            pending.extend(uses.get(state, ()))
        stats["undered_states"] = len(dead)

        for state in dead:
            del self.firings[state]
            del self._rank[state]
            self._fired_mask &= ~(1 << self._state_ids.intern(state))
        if dead:
            self._symbols = [
                symbol for symbol in self._symbols if symbol not in dead
            ]
            for _, table in self._paths.values():
                for symbols in table.values():
                    symbols[:] = [s for s in symbols if s not in dead]

        # drop retracted searches, rebuild the ones that consumed a dead
        # symbol, in the order the fixpoint visits them
        stale: list[_Search] = []
        for state_id, group in list(self._active.items()):
            kept = []
            for search in group:
                if search.retired:
                    continue
                if id(search.rule) in removed:
                    search.retire()
                elif dead and self._search_consumed(search) & dead:
                    search.retire()
                    stale.append(search)
                else:
                    kept.append(search)
            if kept:
                self._active[state_id] = kept
            else:
                del self._active[state_id]
        stale.sort(key=_ORDER)
        rebuild = [search.rule for search in stale]
        if self.track_rules:
            # a fired rule's proof dies with its word (or its state: a
            # rebuilt search re-fires it at once, avoiding duplicates)
            kept_fired: list[Rule] = []
            rule_words = self._rule_words or {}
            for rule in self.fired_rules:
                rule_id = id(rule)
                if rule_id in removed:
                    rule_words.pop(rule_id, None)
                    continue
                word = rule_words.get(rule_id, ())
                if dead and (
                    rule.state in dead or not dead.isdisjoint(word)
                ):
                    rule_words.pop(rule_id, None)
                    rebuild.append(rule)
                    continue
                kept_fired.append(rule)
            self.fired_rules = kept_fired
        elif dead:
            # searches of fired states were retired at fire time;
            # their live rules come back from the registry
            for rule in self._live.values():
                if rule.state in dead:
                    rebuild.append(rule)

        stats["rebuilt_searches"] = len(rebuild)
        surviving = len(self.firings)
        for rule in rebuild:
            self._install(rule, charge=False)
        self.run()
        stats["rederived_states"] = len(self.firings) - surviving
        return stats

    # ------------------------------------------------------------------
    # the fixpoint
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Propagate queued symbols until no rule can make progress.

        Each symbol wakes only the searches whose wake key admits it
        (plus the unkeyed ones); a search outside that set cannot step
        on the symbol from any frontier state, so skipping it changes
        nothing but the step count.  Woken searches are visited in
        registration order, exactly as a scan of every search would.
        """
        while self._queue:
            symbol = self._queue.popleft()
            self.rounds += 1
            self._symbols.append(symbol)
            self._rank[symbol] = self.rounds
            buckets = [self._unkeyed]
            for path, (searches, symbols) in self._paths.items():
                value = project(symbol, path)
                admitted = symbols.get(value)
                if admitted is None:
                    symbols[value] = [symbol]
                else:
                    admitted.append(symbol)
                bucket = searches.get(value)
                if bucket:
                    buckets.append(bucket)
            woken: list[_Search] = []
            for bucket in buckets:
                live = [search for search in bucket if not search.retired]
                if len(live) < len(bucket):
                    bucket[:] = live
                woken.extend(live)
            woken.sort(key=_ORDER)
            new_symbol = (symbol,)
            symbol_id = self._state_ids.intern(symbol)
            for search in woken:
                # a firing earlier this round may have retired it
                if search.retired:
                    continue
                guard = search.guard
                if guard is not None and not guard[symbol_id]:
                    # another part cannot read it; tick like a woken
                    # search so the deadline is read at the same cadence
                    if self.meter is not None:
                        self.meter.tick(0)
                    continue
                self._advance(search, new_symbol)

    def _advance(
        self,
        search: _Search,
        new_symbols: Sequence[State],
        closure: Sequence[State] | None = None,
    ) -> None:
        """Extend the frontier with newly available symbols.

        New symbols are tried from every existing frontier state; states
        reached that way are then closed under every inhabited symbol
        the search's wake key admits (``closure``, looked up on demand).
        The frontier stays exactly the set of horizontal states
        reachable over inhabited-symbol words, and each (state, admitted
        symbol) pair is attempted once over the search's lifetime.
        """
        horizontal = search.rule.horizontal
        step = horizontal.step
        accepting = horizontal.accepting
        frontier = search.frontier
        parents = search.parents
        fresh: deque[State] = deque()
        steps = 0
        accepted = None
        for h_state in tuple(frontier):
            for symbol in new_symbols:
                steps += 1
                target = step(h_state, symbol)
                if target is None or target in frontier:
                    continue
                frontier.add(target)
                if parents is not None:
                    parents[target] = (h_state, symbol)
                if accepting(target):
                    accepted = target
                    break
                fresh.append(target)
            if accepted is not None:
                break
        if fresh and accepted is None:
            if closure is None:
                closure = self._guarded(
                    self._admitted_symbols(search.key), search.guard
                )
            while fresh and accepted is None:
                h_state = fresh.popleft()
                for symbol in closure:
                    steps += 1
                    target = step(h_state, symbol)
                    if target is None or target in frontier:
                        continue
                    frontier.add(target)
                    if parents is not None:
                        parents[target] = (h_state, symbol)
                    if accepting(target):
                        accepted = target
                        break
                    fresh.append(target)
        self.step_attempts += steps
        if self.meter is not None:
            self.meter.tick(steps)
        if accepted is not None:
            self._fire_search(search, accepted)

    def _fire_search(self, search: _Search, accepted: State) -> None:
        word: tuple[State, ...] = ()
        if search.parents is not None:
            reversed_word = []
            current = accepted
            while current in search.parents:
                current, symbol = search.parents[current]
                reversed_word.append(symbol)
            word = tuple(reversed(reversed_word))
        search.retire()
        self._fire(search.rule, word)

    def _fire(self, rule: Rule, word: tuple[State, ...]) -> None:
        if self.track_rules:
            self.fired_rules.append(rule)
            if self._rule_words is not None:
                self._rule_words[id(rule)] = word
        if rule.state not in self.firings:
            if self.meter is not None:
                self.meter.charge_state()
            self.firings[rule.state] = (rule, word)
            self._queue.append(rule.state)
            state_id = self._state_ids.intern(rule.state)
            self._fired_mask |= 1 << state_id
            if not self.track_rules:
                # retire the whole group: its other rules prove nothing new
                for search in self._active.pop(state_id, ()):
                    search.retire()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def inhabited(self) -> frozenset[State]:
        """The states proved inhabited so far."""
        return frozenset(self.firings)

    def explored_states(self) -> int:
        """How many states were proved inhabited."""
        return len(self.firings)

    def firing_word(self, state: State) -> tuple[State, ...]:
        """The children word the state first fired with."""
        return self.firings[state][1]
