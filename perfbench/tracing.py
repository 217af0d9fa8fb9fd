"""The traced pass: benchmark-side spans around the program's layers.

:class:`TraceSession` installs a :class:`repro.obs.trace.Tracer` that
keeps spans in memory, so the program's own spans (``matrix.cell``,
``corpus.check``, ...) nest by themselves, and it rebinds the public
functions named in :data:`WRAPPED` at their call sites so each call
opens a span too.  Leaving the session restores every binding.

:func:`layer_table` turns finished spans into per-name call counts and
self time (a span's duration minus its direct children's), folding
names outside :data:`SPAN_LAYERS` into ``other`` and reporting the
root spans' self time as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path

#: (module[:class], attribute, span name).  Module-level names are
#: rebound in the module that calls them; methods on their class.
WRAPPED = (
    ("repro.store.corpus", "discover_corpus", "walker.discover_corpus"),
    ("repro.store.corpus", "parse_document", "xmlmodel.parse_document"),
    ("repro.store.corpus", "encode_document", "store.encode_document"),
    ("repro.store.corpus", "decode_document", "store.decode_document"),
    ("repro.store.corpus", "fingerprint_fd", "store.fingerprint_fd"),
    ("repro.store.fdstate", "fingerprint_fd", "store.fingerprint_fd"),
    ("repro.store.fdstate", "FDIndex", "fd.index_build"),
    ("repro.update.batch", "check_fd", "fd.check_fd"),
    ("repro.store.sqlite:SqliteBackend", "put_document", "store.backend.put_document"),
    ("repro.store.sqlite:SqliteBackend", "commit_chunk", "store.backend.commit_chunk"),
    ("repro.store.sqlite:SqliteBackend", "get_rows", "store.backend.get_rows"),
    ("repro.store.sqlite:SqliteBackend", "get_sha", "store.backend.get_sha"),
    ("repro.store.sqlite:SqliteBackend", "get_index_state", "store.backend.get_index_state"),
    ("repro.store.sqlite:SqliteBackend", "put_index_state", "store.backend.put_index_state"),
    ("repro.store.fdstate:FDIndexState", "from_json_dict", "store.fdstate.from_json_dict"),
    ("repro.store.fdstate:FDIndexState", "from_document", "store.fdstate.from_document"),
    ("repro.update.batch:UpdateBatch", "apply_guarded", "update.apply_guarded"),
    ("repro.persistence.store:CheckpointStore", "record_cell", "persistence.record_cell"),
    ("repro.store.corpus:CorpusStore", "certify_batch", "independence.certify_batch"),
)

#: spans the program opens itself (repro.obs.trace call sites)
PROGRAM_SPANS = (
    "corpus.load",
    "corpus.check",
    "corpus.apply",
    "matrix.run",
    "matrix.construct",
    "matrix.cell",
    "construct.trace_automaton",
    "construct.schema_automaton",
    "product.explore",
    "factor.fixpoint",
    "worklist.delta",
    "ic.explore",
    "ic.flagged_product",
    "ic.schema_product",
    "ic.eager_product",
    "ic.eager_emptiness",
)

#: every span name reported on its own; anything else lands in "other"
SPAN_LAYERS = tuple(dict.fromkeys(name for _, _, name in WRAPPED)) + PROGRAM_SPANS + ("other",)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class TraceSession:
    """Context manager: in-memory tracer installed, layers wrapped."""

    def __init__(self) -> None:
        from repro.obs.trace import InMemorySpanCollector, Tracer

        self.collector = InMemorySpanCollector()
        self.tracer = Tracer(self.collector)
        self._restore: list[tuple[object, str, object]] = []

    def root(self, name: str):
        """A root span for one benchmark phase."""
        return self.tracer.span(name)

    def __enter__(self) -> "TraceSession":
        from repro.obs.trace import install_tracer

        for target, attribute, span_name in WRAPPED:
            owner = _resolve(target)
            original = owner.__dict__[attribute]
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, span_name))
        self._previous = install_tracer(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.obs.trace import install_tracer

        install_tracer(self._previous)
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, original, span_name: str):
        tracer = self.tracer
        if isinstance(original, classmethod):
            function = original.__func__

            @functools.wraps(function)
            def traced_classmethod(cls, *args, **kwargs):
                with tracer.span(span_name):
                    return function(cls, *args, **kwargs)

            return classmethod(traced_classmethod)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                return original(*args, **kwargs)

        return traced

    def records(self) -> list[dict]:
        from repro.obs.trace import span_to_record

        return [span_to_record(span) for span in self.collector.spans]


def layer_table(records: list[dict], root_prefix: str | None = None) -> dict[str, dict[str, float]]:
    """Per-name ``calls`` and ``self_ms`` plus ``unattributed``.

    ``records`` are span records (:func:`repro.obs.trace.span_to_record`
    shape, also what a ``--trace-out`` file holds).  With ``root_prefix``
    only spans under a root span of that name prefix count (the timed
    phases, not the set-up between them).
    """
    if root_prefix is not None:
        parents = {record["span_id"]: record.get("parent_id") for record in records}
        names = {record["span_id"]: record["name"] for record in records}

        def root_of(span_id):
            while parents.get(span_id) is not None:
                span_id = parents[span_id]
            return span_id

        records = [r for r in records if names[root_of(r["span_id"])].startswith(root_prefix)]
    child_ns: dict[int, int] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + record["duration_ns"]
    table = {name: {"calls": 0, "self_ms": 0.0} for name in SPAN_LAYERS}
    table["unattributed"] = {"calls": 0, "self_ms": 0.0}
    for record in records:
        self_ms = (record["duration_ns"] - child_ns.get(record["span_id"], 0)) / 1e6
        if record.get("parent_id") is None:
            name = "unattributed"
        elif record["name"] in table:
            name = record["name"]
        else:
            name = "other"
        table[name]["calls"] += 1
        table[name]["self_ms"] += self_ms
    return table


def write_records(path: Path, records: list[dict]) -> None:
    """Write span records as JSON lines (the trace file of one pass)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
