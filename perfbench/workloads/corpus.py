"""corpus: bulk load, cold check, refresh and warm check of a library corpus.

One cycle writes the seeded corpus, bulk-loads it into a fresh SQLite
store (one ``load_paths`` call per 250-document subdirectory) and checks the three ``library_fds()`` cold; then closes the store,
rewrites a tenth of the files, reopens, reloads and re-checks (the
refresh) and checks again, answered from persisted state alone (the
warm check, repeated :data:`WARM_CHECKS` times).  The persisted FD-index
state is the program's own cache: its hit ratio goes 0 -> about 0.9 ->
1 across the cold, refresh and warm checks.

Items are documents: throughput is documents over the four phases'
time; latencies are per-document check times over all checks (taken
from the check's per-document callback), so the median is a cache hit
and the 95th percentile a miss.  Every verdict is compared with the
generator's truth.
"""

from __future__ import annotations

import os
from pathlib import Path

from perfbench.common import Cycle, Segments, fresh_dir, ratio
from perfbench.inputs import (
    corpus_parts,
    doc_index,
    rewrite_library_corpus,
    write_library_corpus,
)

DOCUMENTS = 2000
REWRITE_SHARE = 0.10
#: warm checks per cycle: the hit path is short, so it is sampled
#: several times for a steady median
WARM_CHECKS = 5
#: cycles a timed run completes at least (set-up is their median)
MIN_CYCLES = 2


def _timed_check(ctx, store, fds, root, name):
    """Run one corpus check; returns (report, seconds, per-document ms)."""
    segments = Segments(ctx.clock)
    segments.begin()
    with root(name):
        report = store.check_fd_corpus(fds, _after_document=segments.item_done)
    segments.end()
    return report, segments.busy_seconds, segments.latencies_ms


def _timed_load(ctx, store, corpus: Path, root, name):
    """Load the corpus part by part; returns (documents loaded, unchanged,
    errors, seconds)."""
    segments = Segments(ctx.clock)
    loaded = unchanged = errors = 0
    segments.begin()
    for part in corpus_parts(corpus):
        with root(name):
            report = store.load_paths([part])
        loaded += report.loaded
        unchanged += report.unchanged
        errors += report.errors
        segments.add()
    segments.end()
    return loaded, unchanged, errors, segments.busy_seconds


def _verify(report, documents: int, truth: set[int], phase: str, failures: list[str]) -> int:
    """Compare each document's status with the generator's truth."""
    wrong = abs(documents - len(report.documents))
    for check in report.documents:
        expected = "violated" if doc_index(check.name) in truth else "satisfied"
        if check.status != expected:
            wrong += 1
    if wrong:
        failures.append(f"{phase}: {wrong} document verdict(s) differ from the generator")
    return wrong


def _store_bytes(db: Path) -> int:
    return sum(
        os.path.getsize(path)
        for path in (db, Path(f"{db}-wal"), Path(f"{db}-shm"))
        if path.exists()
    )


def cycle(ctx, index: int, root) -> Cycle:
    from repro.store import CorpusStore, SqliteBackend
    from repro.workload.library import library_fds

    documents = max(8, round(DOCUMENTS * ctx.scale))
    fds = library_fds()
    base = fresh_dir(Path(ctx.work_dir) / "corpus")
    corpus = base / "docs"
    corpus.mkdir()
    db = base / "store.db"
    failures: list[str] = []
    wrong = 0

    (truth, xml_bytes), setup = ctx.clock.timed(write_library_corpus, corpus, ctx.seed, documents)

    store = CorpusStore(SqliteBackend(db))
    loaded, _, errors, load_s = _timed_load(ctx, store, corpus, root, "bench.load")
    if loaded != documents or errors:
        failures.append(f"load: {loaded} loaded, {errors} error(s)")
        wrong += max(1, documents - loaded)
    cold, cold_s, cold_ms = _timed_check(ctx, store, fds, root, "bench.cold_check")
    wrong += _verify(cold, documents, truth, "cold check", failures)
    store.close()
    store_bytes = _store_bytes(db)

    (truth, rewritten), rewrite_s = ctx.clock.timed(
        rewrite_library_corpus, corpus, ctx.seed, documents, truth, REWRITE_SHARE
    )
    setup += rewrite_s

    store = CorpusStore(SqliteBackend(db))
    reloaded, unchanged, errors, reload_s = _timed_load(ctx, store, corpus, root, "bench.reload")
    if reloaded != len(rewritten) or unchanged != documents - len(rewritten) or errors:
        failures.append(
            f"refresh load: {reloaded} reloaded, {unchanged} unchanged, {errors} error(s), "
            f"expected {len(rewritten)} rewritten"
        )
        wrong += max(1, abs(reloaded - len(rewritten)))
    refresh, recheck_s, refresh_ms = _timed_check(ctx, store, fds, root, "bench.refresh_check")
    wrong += _verify(refresh, documents, truth, "refresh", failures)
    refresh_verdicts = {check.name: check.verdicts for check in refresh.documents}
    warm_s = 0.0
    warm_ms = []
    for _ in range(WARM_CHECKS):
        warm, seconds, latencies = _timed_check(ctx, store, fds, root, "bench.warm_check")
        warm_s += seconds
        warm_ms += latencies
        wrong += _verify(warm, documents, truth, "warm check", failures)
        drift = sum(
            1 for check in warm.documents if refresh_verdicts.get(check.name) != check.verdicts
        )
        if drift:
            failures.append(f"warm check: {drift} document(s) differ from the refresh verdicts")
            wrong += drift
    store.close()

    pairs = documents * len(fds)
    refresh_s = reload_s + recheck_s
    busy = load_s + cold_s + refresh_s + warm_s
    return Cycle(
        items=documents,
        busy_seconds=busy,
        latencies_ms=cold_ms + refresh_ms + warm_ms,
        setup_seconds=setup,
        # one load outcome and a verdict per check per document
        attempted=(3 + WARM_CHECKS) * documents,
        failures=failures,
        failed=wrong,
        detail={
            "load_docs_per_s": documents / load_s,
            "cold_check_docs_per_s": documents / cold_s,
            "refresh_docs_per_s": documents / refresh_s,
            "warm_check_docs_per_s": WARM_CHECKS * documents / warm_s,
            "store_bytes_per_input_byte": store_bytes / xml_bytes,
        },
        sizes={
            "documents": documents,
            "fds": len(fds),
            "xml_bytes": xml_bytes,
            "store_bytes": store_bytes,
            "rewritten_documents": len(rewritten),
        },
        layers={
            "store.index_hit_ratio.cold": ratio(cold.index_hits, pairs),
            "store.index_hit_ratio.refresh": ratio(refresh.index_hits, pairs),
            "store.index_hit_ratio.warm": ratio(warm.index_hits, pairs),
            "store.sha_skip_ratio": ratio(unchanged, documents),
            "store.doc_fd_pairs_indexed": cold.indexed_documents + refresh.indexed_documents,
            "store.bytes_per_input_byte": store_bytes / xml_bytes,
        },
    )
