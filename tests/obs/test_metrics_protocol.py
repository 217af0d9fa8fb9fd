"""The one metrics protocol equals the adapters it replaced.

``MetricsRegistry().absorb(x).snapshot()`` — one generic adapter over
each type's ``metrics()`` triples — must equal the snapshot the frozen
per-type ``absorb_*`` adapters of :mod:`tests.obs.legacy_metrics`
produce, exactly (names, kinds, values, histogram buckets and float
sums), on every input the pipeline can hand a registry:

* T3 chain matrices under every strategy, budgeted matrices with
  UNKNOWN cells, baseline-spliced and worker-fault matrices;
* single pairs (decided and budget-exhausted) and view results, single
  and in matrices;
* audit reports on healthy and poisoned corpora, aborted and resumed;
* corpus load, check and apply reports;
* the process-global cache, pool and persistence sources.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.audit import AuditOptions, audit_corpus
from repro.fd.fd import FunctionalDependency
from repro.fd.linear import LinearFD, translate_linear_fd
from repro.independence.criterion import check_independence
from repro.independence.matrix import (
    check_independence_matrix,
    check_view_independence_matrix,
)
from repro.independence.pool import pool_metrics
from repro.independence.views import check_view_independence
from repro.limits import Budget, ParseBudget
from repro.obs.metrics import MetricsRegistry
from repro.pattern.builder import PatternBuilder
from repro.persistence.store import persistence_metrics
from repro.regex.cache import cache_metrics
from repro.schema.dtd import Schema
from repro.store import CorpusStore
from repro.update.apply import Update
from repro.update.operations import set_text
from repro.update.update_class import UpdateClass
from repro.workload.library import generate_library
from repro.workload.packages import (
    package_linear_fds,
    package_schema_text,
    write_package_corpus,
    write_poison_corpus,
)
from repro.workload.random_patterns import random_pattern, random_update_class
from repro.xmlmodel.serializer import serialize_document
from repro.xpath.translate import update_class_from_xpath

from tests.independence.test_lazy_criterion import _random_triple
from tests.obs.legacy_metrics import LegacyMetricsRegistry

LABELS = ("a", "b", "c")


def _chain_fd(length: int) -> FunctionalDependency:
    builder = PatternBuilder()
    node = builder.child(builder.root, "c", name="c")
    for index in range(length):
        node = builder.child(node, f"x{index % 3}")
    builder.child(node, "k", name="p1")
    builder.child(node, "v", name="q")
    return FunctionalDependency(
        builder.pattern("p1", "q"), context="c", name=f"fd-chain-{length}"
    )


def _chain_update(length: int) -> UpdateClass:
    builder = PatternBuilder()
    node = builder.root
    for index in range(length):
        node = builder.child(node, f"y{index % 3}")
    builder.child(node, "t", name="s")
    return UpdateClass(builder.pattern("s"), name=f"u-chain-{length}")


def _wide_schema(width: int) -> Schema:
    return Schema.from_rules(
        "r",
        {
            "r": " ".join(f"l{i}*" for i in range(width)),
            **{f"l{i}": "#text" for i in range(width)},
        },
    )


def _assert_equal(legacy_adapter: str, source) -> dict:
    """``absorb(source)`` equals the named legacy adapter on ``source``."""
    legacy = LegacyMetricsRegistry()
    adapter = getattr(legacy, legacy_adapter)
    if hasattr(source, "metrics"):
        adapter(source)
    else:  # a process-global source function: the adapter's default
        adapter()
    snapshot = MetricsRegistry().absorb(source).snapshot()
    assert snapshot == legacy.snapshot()
    return snapshot


# ----------------------------------------------------------------------
# IC matrices, pairs and views
# ----------------------------------------------------------------------

CHAINS = (2, 4, 8)


@pytest.mark.parametrize("strategy", ["lazy", "eager", "auto"])
def test_t3_chain_matrix(strategy):
    matrix = check_independence_matrix(
        [_chain_fd(n) for n in CHAINS],
        [_chain_update(n) for n in CHAINS],
        strategy=strategy,
    )
    snapshot = _assert_equal("absorb_matrix", matrix)
    assert sum(
        value for name, value in snapshot["counters"].items()
        if name.startswith("ic.verdict.")
    ) == len(CHAINS) ** 2


@pytest.mark.parametrize("width", (2, 16))
def test_t3_schema_width_matrix(width):
    matrix = check_independence_matrix(
        [_chain_fd(2)], [_chain_update(2)], schema=_wide_schema(width)
    )
    _assert_equal("absorb_matrix", matrix)


@pytest.mark.parametrize("cap", (1, 4, 16))
def test_budgeted_matrix_with_unknown_cells(cap):
    matrix = check_independence_matrix(
        [_chain_fd(n) for n in CHAINS],
        [_chain_update(n) for n in CHAINS],
        strategy="lazy",
        budget=Budget(max_explored_states=cap, max_explored_rules=cap),
    )
    snapshot = _assert_equal("absorb_matrix", matrix)
    if cap == 1:
        assert matrix.unknown_count()
        assert any(
            name.startswith("ic.unknown.") for name in snapshot["counters"]
        )


def test_spliced_and_faulted_matrix(tmp_path):
    fds = [_chain_fd(n) for n in CHAINS]
    updates = [_chain_update(n) for n in CHAINS]
    baseline = tmp_path / "base"
    check_independence_matrix(fds, updates, checkpoint_dir=baseline)
    drifted = check_independence_matrix(
        [_chain_fd(3), *fds[1:]], updates, baseline_dir=baseline
    )
    assert drifted.spliced_cells
    snapshot = _assert_equal("absorb_matrix", drifted)
    assert "matrix.spliced_cells" in snapshot["counters"]
    faulted = dataclasses.replace(drifted, worker_faults=2)
    snapshot = _assert_equal("absorb_matrix", faulted)
    assert snapshot["counters"]["matrix.worker_faults"] == 2


@pytest.mark.parametrize("seed", range(12))
def test_single_pairs(seed):
    fd, update_class, schema = _random_triple(seed)
    for budget in (None, Budget(max_explored_states=2, max_explored_rules=2)):
        for strategy in ("lazy", "eager"):
            result = check_independence(
                fd, update_class, schema=schema, want_witness=False,
                strategy=strategy, budget=budget,
            )
            _assert_equal("absorb_result", result)


@pytest.mark.parametrize("seed", range(6))
def test_view_results(seed):
    rng = random.Random(seed + 300)
    views = [
        random_pattern(rng, LABELS, node_count=3, max_length=2)
        for _ in range(2)
    ]
    update_classes = [
        random_update_class(rng, LABELS, node_count=2, max_length=2)
        for _ in range(2)
    ]
    for budget in (None, Budget(max_explored_states=1, max_explored_rules=1)):
        for view in views:
            for update_class in update_classes:
                result = check_view_independence(
                    view, update_class, want_witness=False, budget=budget
                )
                _assert_equal("absorb_result", result)
        matrix = check_view_independence_matrix(
            views, update_classes, budget=budget
        )
        _assert_equal("absorb_matrix", matrix)


def test_matrix_cells_and_stats_one_by_one():
    matrix = check_independence_matrix(
        [_chain_fd(2)], [_chain_update(4)], strategy="lazy",
        budget=Budget(max_explored_states=3, max_explored_rules=3),
    )
    for row in matrix.cells:
        for cell in row:
            _assert_equal("absorb_cell", cell)
            if cell.exploration is not None:
                _assert_equal("absorb_exploration", cell.exploration)
            if cell.partial is not None:
                _assert_equal("absorb_partial", cell.partial)


# ----------------------------------------------------------------------
# audit reports
# ----------------------------------------------------------------------


def _audit_options(**overrides) -> AuditOptions:
    options = AuditOptions(
        schema=Schema.parse_text(package_schema_text()),
        fds=tuple(
            translate_linear_fd(LinearFD.parse(text, name=f"fd{i + 1}"))
            for i, text in enumerate(package_linear_fds())
        ),
        update_classes=(
            update_class_from_xpath(
                "/package/parts/part/@contentType", name="u1"
            ),
        ),
        parse_budget=ParseBudget.default(),
    )
    return dataclasses.replace(options, **overrides)


def _poison_paths(tmp_path) -> list[str]:
    return sorted(
        write_poison_corpus(
            tmp_path / "poison", oversized_bytes=4096, bomb_depth=200,
            entity_references=200,
        ).values()
    )


def test_audit_healthy_corpus(tmp_path):
    paths = write_package_corpus(
        tmp_path / "corpus", documents=4, parts=3, violations_every=2
    )
    _assert_equal("absorb_audit", audit_corpus(paths, _audit_options()))


def test_audit_poisoned_corpus(tmp_path):
    guards = ParseBudget(
        max_input_bytes=2048, max_depth=100, max_tokens=100_000,
        max_entity_expansion=4.0,
    )
    report = audit_corpus(
        _poison_paths(tmp_path), _audit_options(parse_budget=guards)
    )
    assert report.finding_counts()
    _assert_equal("absorb_audit", report)
    aborted = audit_corpus(
        _poison_paths(tmp_path),
        _audit_options(parse_budget=guards, max_errors=0),
    )
    assert aborted.aborted
    _assert_equal("absorb_audit", aborted)
    quarantined = dataclasses.replace(report, quarantined=["a.xml", "b.xml"])
    _assert_equal("absorb_audit", quarantined)


def test_audit_resumed_run(tmp_path):
    paths = write_package_corpus(tmp_path / "corpus", documents=3, parts=3)
    checkpoint = str(tmp_path / "ckpt")
    audit_corpus(paths, _audit_options(checkpoint_dir=checkpoint))
    resumed = audit_corpus(
        paths, _audit_options(checkpoint_dir=checkpoint, resume=True)
    )
    assert resumed.restored_documents
    _assert_equal("absorb_audit", resumed)


# ----------------------------------------------------------------------
# corpus store reports
# ----------------------------------------------------------------------

ISBN_TITLE = "(/library, ((book/@isbn) -> book/title))"


def test_corpus_load_check_apply(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for index in range(5):
        document = generate_library(books=2, seed=index, violate_key=index % 2)
        (corpus / f"doc{index}.xml").write_text(
            serialize_document(document), encoding="utf-8"
        )
    (corpus / "broken.xml").write_text("<library><book></library>")
    fd = translate_linear_fd(LinearFD.parse(ISBN_TITLE, name="fd1"))
    with CorpusStore.open(":memory:") as store:
        load = store.load_paths([str(corpus)])
        assert load.errors
        _assert_equal("absorb_corpus_load", load)
        _assert_equal("absorb_corpus_load", store.load_paths([str(corpus)]))
        for budget in (None, Budget(max_explored_states=1)):
            check = store.check_fd_corpus([fd], budget=budget)
            _assert_equal("absorb_corpus_check", check)
        update = Update(
            update_class_from_xpath("/library/book/title", name="u1"),
            set_text("Renamed"),
            name="set1",
        )
        apply = store.apply_guarded_corpus([update], fds=[fd])
        _assert_equal("absorb_corpus_apply", apply)


# ----------------------------------------------------------------------
# process-global sources and the CLI's composite registries
# ----------------------------------------------------------------------


def test_global_sources():
    _assert_equal("absorb_caches", cache_metrics)
    _assert_equal("absorb_pool", pool_metrics)
    _assert_equal("absorb_persistence", persistence_metrics)


def test_cli_composite_registry():
    """``independence --matrix --metrics`` folds three sources at once."""
    matrix = check_independence_matrix(
        [_chain_fd(2), _chain_fd(4)], [_chain_update(2)]
    )
    legacy = LegacyMetricsRegistry()
    legacy.absorb_matrix(matrix)
    legacy.absorb_caches()
    legacy.absorb_pool()
    assert (
        MetricsRegistry().absorb(matrix, cache_metrics, pool_metrics).snapshot()
        == legacy.snapshot()
    )
