"""apply: a guarded price + title batch over a stored library corpus.

One cycle writes the seeded documents and bulk-loads them into a fresh
SQLite store (set-up), then runs ``apply_guarded_corpus`` with a
checkpoint directory under ``library_schema()`` against
``library_fds()``.  Every document is a read-modify-write: decode,
update, FD revalidation of the uncertified pairs, encode, one store
commit and one fsynced journal record.

Expected outcome by construction: the isbn-key violators roll back
(their pre-check fails), every other document commits with the new
price and title.  Items are documents; latencies are per-document
times from the apply's per-document callback.
"""

from __future__ import annotations

from pathlib import Path

from perfbench.common import Cycle, Segments, fresh_dir, ratio
from perfbench.inputs import doc_index, write_library_corpus

DOCUMENTS = 1000
MIN_CYCLES = 2
#: stored documents decoded after the batch to check the new values
SAMPLE = 50
NEW_TITLE = "Revised Edition"


def _new_price(seed: int) -> str:
    return str(10 + seed % 90)


def _updates(seed: int):
    from repro.update import Update
    from repro.update.operations import set_text
    from repro.workload.library import library_update_classes

    classes = library_update_classes()
    return [
        Update(classes["price-updates"], set_text(_new_price(seed))),
        Update(classes["title-updates"], set_text(NEW_TITLE)),
    ]


def _texts(document, label: str) -> list[str]:
    return [node.text_value() for node in document.root.iter_subtree() if node.label == label]


def cycle(ctx, index: int, root) -> Cycle:
    from repro.store import CorpusStore, SqliteBackend
    from repro.workload.library import library_fds, library_schema

    documents = max(8, round(DOCUMENTS * ctx.scale))
    base = fresh_dir(Path(ctx.work_dir) / "apply")
    corpus = base / "docs"
    corpus.mkdir()
    failures: list[str] = []

    def set_up():
        violated, xml_bytes = write_library_corpus(corpus, ctx.seed, documents)
        store = CorpusStore(SqliteBackend(base / "store.db"))
        return violated, xml_bytes, store, store.load_paths([str(corpus)], recursive=True)

    (violated, xml_bytes, store, load), setup = ctx.clock.timed(set_up)
    if load.loaded != documents:
        failures.append(f"set-up load stored {load.loaded} of {documents} documents")

    segments = Segments(ctx.clock)
    segments.begin()
    with root("bench.apply"):
        report = store.apply_guarded_corpus(
            _updates(ctx.seed),
            fds=library_fds(),
            schema=library_schema(),
            checkpoint_dir=str(base / "checkpoint"),
            _after_document=segments.item_done,
        )
    segments.end()
    busy = segments.busy_seconds

    wrong = abs(documents - len(report.documents))
    for record in report.documents:
        if record.committed == (doc_index(record.name) in violated):
            wrong += 1
    if wrong:
        failures.append(f"{wrong} document(s) committed/rolled back against the construction")
    names = sorted(record.name for record in report.documents)
    price = _new_price(ctx.seed)
    step = max(1, len(names) // SAMPLE)
    sampled = names[::step]
    for name in sampled:
        document = store.get_document(name)
        committed = doc_index(name) not in violated
        prices = _texts(document, "price")
        titles = _texts(document, "title")
        if committed and (any(p != price for p in prices) or any(t != NEW_TITLE for t in titles)):
            wrong += 1
            failures.append(f"{name}: stored document lacks the new price/title")
        if not committed and NEW_TITLE in titles:
            wrong += 1
            failures.append(f"{name}: rolled-back document carries the new title")
    store.close()

    return Cycle(
        items=documents,
        busy_seconds=busy,
        latencies_ms=segments.latencies_ms,
        setup_seconds=setup,
        attempted=documents + len(sampled),
        failed=wrong,
        failures=failures,
        detail={
            "apply_docs_per_s": documents / busy,
            "committed": report.committed_count,
            "rolled_back": report.rolled_back_count,
        },
        sizes={"documents": documents, "xml_bytes": xml_bytes, "sampled_documents": len(sampled)},
        layers={
            "apply.checks_skipped_ratio": ratio(
                report.checks_skipped, report.checks_run + report.checks_skipped
            ),
        },
    )
