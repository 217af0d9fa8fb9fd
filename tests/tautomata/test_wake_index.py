"""The engine's wake index against the unindexed engine.

:class:`~repro.tautomata.worklist.InhabitationEngine` wakes a search
only on symbols its horizontal's ``wake_keys()`` admits.  Patching every
``wake_keys`` to return ``None`` ("may read anything") turns the index
off — every search is then woken by every symbol, the scan the engine
replaced — without any switch in the program itself.  Every engine run
of a workload is recorded in both regimes and must agree exactly:

* ``firings`` (state -> rule, word, in insertion order), the fired
  rules, ``rule_count`` and ``explored_states``;
* the verdicts and witness documents the criterion derives from them;

while the indexed run never attempts more horizontal steps.  Workloads:
the 200-seed randomized (FD, update class[, schema]) population of the
lazy/eager/auto suites (whose indexed verdicts must also match the
seed's restart-loop fixpoint in :mod:`repro.tautomata.reference`), the
T3 chain and schema-width shapes, and incremental product sessions
under retract/add deltas.
"""

import random

import pytest

from repro.independence.criterion import EAGER, LAZY, Verdict, check_independence
from repro.independence.language import (
    IncrementalDangerousSession,
    _fd_component,
    dangerous_language,
)
from repro.independence.matrix import check_independence_matrix
from repro.pattern.builder import PatternBuilder
from repro.fd.fd import FunctionalDependency
from repro.schema.dtd import Schema
from repro.tautomata.hedge import LabelSpec, Rule
from repro.tautomata.horizontal import (
    AllHorizontal,
    EmptyWordHorizontal,
    HorizontalLanguage,
    ProductHorizontal,
    ProjectedHorizontal,
    ShuffleHorizontal,
)
from repro.tautomata.lazy import IncrementalProductSession, analyze_factor
from repro.tautomata.reference import typed_inhabited_states_reference
from repro.tautomata.worklist import InhabitationEngine
from repro.update.update_class import UpdateClass
from repro.xmlmodel.serializer import serialize_node
from tests.independence.test_lazy_criterion import _random_triple
from tests.tautomata.test_incremental import _random_automaton, _workload


def _snapshot(engine: InhabitationEngine) -> tuple:
    return (
        [
            (state, rule.state, rule.labels, word)
            for state, (rule, word) in engine.firings.items()
        ],
        [(rule.state, rule.labels) for rule in engine.fired_rules],
        engine.rule_count,
        engine.explored_states(),
    )


def _horizontal_classes():
    pending = [HorizontalLanguage]
    while pending:
        cls = pending.pop()
        yield cls
        pending.extend(cls.__subclasses__())


def _record(monkeypatch, workload, indexed: bool):
    """Run ``workload()``; return (its result, engine snapshots, steps)."""
    snapshots, steps = [], []
    run = InhabitationEngine.run

    def recording_run(engine):
        run(engine)
        snapshots.append(_snapshot(engine))
        steps.append(engine.step_attempts)

    with monkeypatch.context() as patch:
        patch.setattr(InhabitationEngine, "run", recording_run)
        if not indexed:
            for cls in _horizontal_classes():
                if "wake_keys" in vars(cls):
                    patch.setattr(cls, "wake_keys", lambda self: None)
        result = workload()
    return result, snapshots, steps


def assert_index_invisible(monkeypatch, workload):
    result, snapshots, steps = _record(monkeypatch, workload, indexed=True)
    plain_result, plain_snapshots, plain_steps = _record(
        monkeypatch, workload, indexed=False
    )
    assert snapshots, "the workload ran no engine"
    assert result == plain_result
    assert snapshots == plain_snapshots
    assert all(
        mine <= plain for mine, plain in zip(steps, plain_steps, strict=True)
    )
    return result, steps, plain_steps


def _outcome(result) -> tuple:
    witness = None
    if result.witness is not None:
        witness = serialize_node(result.witness.root)
    return result.verdict, witness


def _chain_fd(length: int) -> FunctionalDependency:
    builder = PatternBuilder()
    node = builder.child(builder.root, "c", name="c")
    for index in range(length):
        node = builder.child(node, f"x{index % 3}")
    builder.child(node, "k", name="p1")
    builder.child(node, "v", name="q")
    return FunctionalDependency(builder.pattern("p1", "q"), context="c")


def _chain_update(length: int) -> UpdateClass:
    builder = PatternBuilder()
    node = builder.root
    for index in range(length):
        node = builder.child(node, f"y{index % 3}")
    builder.child(node, "t", name="s")
    return UpdateClass(builder.pattern("s"))


def _wide_schema(width: int) -> Schema:
    return Schema.from_rules(
        "r",
        {
            "r": " ".join(f"l{i}*" for i in range(width)),
            **{f"l{i}": "#text" for i in range(width)},
        },
    )


@pytest.mark.parametrize("seed", range(200))
def test_random_population(monkeypatch, seed):
    fd, update_class, schema = _random_triple(seed)

    def workload():
        return [
            _outcome(
                check_independence(
                    fd, update_class, schema=schema, want_witness=True,
                    strategy=strategy,
                )
            )
            for strategy in (LAZY, EAGER)
        ]

    (lazy, eager), _, _ = assert_index_invisible(monkeypatch, workload)
    # and both agree with the seed's restart-loop fixpoint
    automaton = dangerous_language(fd, update_class, schema=schema).automaton
    inhabited = typed_inhabited_states_reference(automaton)
    reference = (
        Verdict.POSSIBLY_DEPENDENT
        if inhabited & automaton.accepting
        else Verdict.INDEPENDENT
    )
    assert lazy[0] is eager[0] is reference


@pytest.mark.parametrize("strategy", [LAZY, EAGER])
def test_t3_chain_matrix(monkeypatch, strategy):
    lengths = (2, 4, 8)
    fds = [_chain_fd(length) for length in lengths]
    updates = [_chain_update(length) for length in lengths]

    def workload():
        matrix = check_independence_matrix(fds, updates, strategy=strategy)
        return [[cell.verdict for cell in row] for row in matrix.cells]

    _, steps, plain_steps = assert_index_invisible(monkeypatch, workload)
    if strategy == LAZY:
        # the chains are where the index earns its keep
        assert 2 * sum(steps) <= sum(plain_steps)


@pytest.mark.parametrize("width", (2, 4, 16))
@pytest.mark.parametrize("strategy", [LAZY, EAGER])
def test_t3_schema_width(monkeypatch, width, strategy):
    schema = _wide_schema(width)

    def workload():
        return _outcome(
            check_independence(
                _chain_fd(2), _chain_update(2), schema=schema,
                want_witness=True, strategy=strategy,
            )
        )

    assert_index_invisible(monkeypatch, workload)


@pytest.mark.parametrize("seed", range(10))
def test_incremental_product_session(monkeypatch, seed):
    left = analyze_factor(_random_automaton(seed))
    right = analyze_factor(_random_automaton(seed + 100))
    rng = random.Random(seed * 7 + 1)
    removed_left = [rule for rule in left.fireable if rng.random() < 0.4]
    removed_right = [rule for rule in right.fireable if rng.random() < 0.3]

    def workload():
        session = IncrementalProductSession(left, right, track_rules=seed % 2 == 1)
        inhabited = [session.inhabited]
        for delta in (
            {"removed_left": removed_left},
            {"removed_right": removed_right, "added_left": removed_left},
            {"added_right": removed_right},
        ):
            session.apply_delta(**delta)
            inhabited.append(session.inhabited)
        return inhabited

    assert_index_invisible(monkeypatch, workload)


@pytest.mark.parametrize("seed", range(6))
def test_incremental_dangerous_session(monkeypatch, seed):
    automata, update_automaton = _workload(seed, edits=3)

    def workload():
        session = IncrementalDangerousSession(
            automata[0], update_automaton, want_witness=True
        )
        outcomes = [session.solution().empty]
        for automaton in automata[1:] + automata[:1]:
            outcomes.append(session.recheck(automaton).empty)
        return outcomes

    assert_index_invisible(monkeypatch, workload)


# ----------------------------------------------------------------------
# conjunctive guards: every product part's key, not just the primary
# ----------------------------------------------------------------------
#
# A keyed search also carries a guard: the ``part_wake_keys()`` of its
# horizontal besides the primary key it is filed under.  Patching every
# ``part_wake_keys`` to return ``()`` leaves each search its primary key
# and no guard -- the engine before guards.  Both regimes must agree on
# everything but the step count, which the guards never raise.


def assert_guards_invisible(monkeypatch, workload):
    result, snapshots, steps = _record(monkeypatch, workload, indexed=True)
    with monkeypatch.context() as patch:
        for cls in _horizontal_classes():
            if "part_wake_keys" in vars(cls):
                patch.setattr(cls, "part_wake_keys", lambda self: ())
        primary_result, primary_snapshots, primary_steps = _record(
            monkeypatch, workload, indexed=True
        )
    assert snapshots, "the workload ran no engine"
    assert result == primary_result
    assert snapshots == primary_snapshots
    assert all(
        mine <= primary
        for mine, primary in zip(steps, primary_steps, strict=True)
    )
    return result, steps, primary_steps


@pytest.mark.parametrize("seed", range(200))
def test_guarded_random_population(monkeypatch, seed):
    fd, update_class, schema = _random_triple(seed)

    def workload():
        return [
            _outcome(
                check_independence(
                    fd, update_class, schema=schema, want_witness=True,
                    strategy=strategy,
                )
            )
            for strategy in (LAZY, EAGER)
        ]

    assert_guards_invisible(monkeypatch, workload)


@pytest.mark.parametrize("strategy", [LAZY, EAGER])
def test_guarded_t3_chain_matrix(monkeypatch, strategy):
    lengths = (2, 4, 8)
    fds = [_chain_fd(length) for length in lengths]
    updates = [_chain_update(length) for length in lengths]

    def workload():
        matrix = check_independence_matrix(fds, updates, strategy=strategy)
        return [[cell.verdict for cell in row] for row in matrix.cells]

    _, steps, primary_steps = assert_guards_invisible(monkeypatch, workload)
    if strategy == LAZY:
        # flagged-product searches wake on their FD key and most fail
        # the update key: the guards skip those steps
        assert sum(steps) < sum(primary_steps)


@pytest.mark.parametrize("width", (2, 4, 16))
@pytest.mark.parametrize("strategy", [LAZY, EAGER])
def test_guarded_t3_schema_width(monkeypatch, width, strategy):
    schema = _wide_schema(width)

    def workload():
        return _outcome(
            check_independence(
                _chain_fd(2), _chain_update(2), schema=schema,
                want_witness=True, strategy=strategy,
            )
        )

    assert_guards_invisible(monkeypatch, workload)


@pytest.mark.parametrize("seed", range(10))
def test_guarded_incremental_product_session(monkeypatch, seed):
    left = analyze_factor(_random_automaton(seed))
    right = analyze_factor(_random_automaton(seed + 100))
    rng = random.Random(seed * 7 + 1)
    removed_left = [rule for rule in left.fireable if rng.random() < 0.4]
    removed_right = [rule for rule in right.fireable if rng.random() < 0.3]

    def workload():
        session = IncrementalProductSession(left, right, track_rules=seed % 2 == 1)
        inhabited = [session.inhabited]
        for delta in (
            {"removed_left": removed_left},
            {"removed_right": removed_right, "added_left": removed_left},
            {"added_right": removed_right},
        ):
            session.apply_delta(**delta)
            inhabited.append(session.inhabited)
        return inhabited

    assert_guards_invisible(monkeypatch, workload)


@pytest.mark.parametrize("seed", range(6))
def test_guarded_incremental_dangerous_session(monkeypatch, seed):
    automata, update_automaton = _workload(seed, edits=3)

    def workload():
        session = IncrementalDangerousSession(
            automata[0], update_automaton, want_witness=True
        )
        outcomes = [session.solution().empty]
        for automaton in automata[1:] + automata[:1]:
            outcomes.append(session.recheck(automaton).empty)
        return outcomes

    assert_guards_invisible(monkeypatch, workload)


class _TupleRequired(ShuffleHorizontal):
    """Needs one tuple it requires; its key admits a label as well."""

    def step(self, state, symbol):
        if not isinstance(symbol, tuple):
            return None
        return super().step(state, symbol)


def test_guard_rejects_a_symbol_of_another_shape(monkeypatch):
    """A ``#text`` state meets a guard that projects FD components.

    The primary key (the first part's) admits ``#text``, so the label
    wakes the product search.  ``step`` would return ``None`` at the
    first part and never reach the projection, which cannot take a
    label; the guard must reject the label without raising.
    """
    triple = ("f", "u", 0)
    product = ProductHorizontal(
        [
            _TupleRequired(set(), [{"#text", triple}]),
            ProjectedHorizontal(AllHorizontal({"f", "g", "h"}), _fd_component),
        ]
    )
    assert product.wake_keys() == ((), frozenset({"#text", triple}))
    labels = LabelSpec.exactly("a")
    rules = [
        Rule("#text", labels, EmptyWordHorizontal()),
        Rule(triple, labels, EmptyWordHorizontal()),
        Rule("top", labels, product),
    ]

    def workload():
        engine = InhabitationEngine(record_parents=True)
        engine.add_rules(rules)
        engine.run()
        return engine.firing_word("top")

    word, steps, primary_steps = assert_guards_invisible(monkeypatch, workload)
    assert word == (triple,)
    assert steps[-1] < primary_steps[-1]
