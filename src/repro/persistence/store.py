"""The checkpoint store: one run directory = manifest + WAL + snapshot.

Layout of a run directory::

    <checkpoint_dir>/
        manifest.json    what the run computes over (atomic write)
        journal.wal      per-cell verdicts, appended + fsynced (WAL)
        snapshot.json    periodic compaction of the journal (atomic)
        complete.json    written once when the matrix committed

The store enforces two policies the rest of the stack relies on:

* **Resume safety** — ``resume=True`` loads the stored manifest and
  refuses (:class:`~repro.errors.ResumeMismatchError`) to splice cells
  unless it matches the current inputs field for field.  A torn journal
  tail is truncated during recovery, never parsed.

* **Persistence failures are non-fatal** — every filesystem operation
  after construction is guarded: on the first ``OSError`` (read-only
  directory, ENOSPC, yanked mount) the store emits a single
  :class:`~repro.persistence.journal.PersistenceWarning` and degrades
  to an in-memory run.  Verdicts are never lost to a persistence
  error; at worst the run is no longer resumable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import warnings
from collections.abc import Iterator
from pathlib import Path

from repro.errors import ResumeMismatchError
from repro.persistence.journal import (
    JournalWriter,
    PersistenceWarning,
    recover_journal,
    scan_journal,
)
from repro.obs.metrics import GAUGE
from repro.obs.trace import NOOP_TRACER
from repro.persistence.manifest import RunManifest
from repro.persistence.snapshot import load_snapshot, write_snapshot

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.wal"
SNAPSHOT_NAME = "snapshot.json"
COMPLETE_NAME = "complete.json"

#: cell records appended between two journal compactions
DEFAULT_SNAPSHOT_EVERY = 64


# ----------------------------------------------------------------------
# degradation-warning dedup (one warning per store, not one per request)
# ----------------------------------------------------------------------
#
# A batch run degrades at most once per store instance, so the old
# "warn in _degrade" policy produced exactly one warning per *run*.  A
# long-lived daemon opens a store per request: with a read-only or full
# disk every request would re-emit the same PersistenceWarning.  The
# registry below dedups by *warn group* — the run directory by default,
# or a caller-supplied group (the daemon passes its checkpoint root so
# all its per-request run dirs share one warning) — and counts what it
# suppressed, surfaced via :func:`persistence_stats` and the
# ``persistence.*`` metrics gauges.

_warned_groups: set[str] = set()
_persistence_stats = {
    # times a store (or store open) degraded to memory-only
    "degraded_events": 0,
    # degradation warnings suppressed by the per-group dedup
    "suppressed_warnings": 0,
}


def persistence_stats() -> dict[str, int]:
    """Snapshot of the degradation counters (daemon health + metrics)."""
    return dict(_persistence_stats)


def persistence_metrics() -> Iterator[tuple[str, str, int]]:
    """Metrics source: the degradation counters as ``persistence.*``
    gauges — ``degraded_events`` (stores that fell back to memory-only)
    and ``suppressed_warnings`` (repeats the per-group dedup swallowed,
    so a daemon with a bad disk warns once and accounts the rest here).
    """
    for key, value in persistence_stats().items():
        yield GAUGE, f"persistence.{key}", value


def reset_persistence_warnings() -> None:
    """Forget which groups warned (tests; a daemon reload could too)."""
    _warned_groups.clear()
    _persistence_stats["degraded_events"] = 0
    _persistence_stats["suppressed_warnings"] = 0


def _warn_degraded(message: str, group: str, stacklevel: int) -> None:
    """Emit one :class:`PersistenceWarning` per group; count the rest."""
    _persistence_stats["degraded_events"] += 1
    if group in _warned_groups:
        _persistence_stats["suppressed_warnings"] += 1
        return
    _warned_groups.add(group)
    warnings.warn(message, PersistenceWarning, stacklevel=stacklevel + 1)


def _write_json_atomic(path: Path, document: dict) -> None:
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="ascii") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)


def _load_json(path: Path) -> dict | None:
    try:
        with open(path, encoding="ascii") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


class CheckpointStore:
    """Durable cell-verdict storage for one matrix run.

    Use :meth:`open`; the constructor assumes the directory is already
    prepared.  All post-construction methods are safe to call after a
    filesystem failure — they no-op once the store has degraded.
    """

    def __init__(
        self,
        directory: Path,
        manifest: RunManifest,
        writer: JournalWriter,
        restored_cells: list[dict],
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        tracer=None,
        warn_group: str | None = None,
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.restored_cells = restored_cells
        self.degraded = False
        self._warn_group = warn_group or str(directory)
        self._tracer = NOOP_TRACER if tracer is None else tracer
        self._writer: JournalWriter | None = writer
        self._snapshot_every = max(1, int(snapshot_every))
        self._appended_since_snapshot = 0
        # all cell records this run knows, keyed for snapshot compaction
        self._cells: dict[tuple[int, int], dict] = {
            (record["row"], record["column"]): record
            for record in restored_cells
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        checkpoint_dir: str | os.PathLike,
        manifest: RunManifest,
        resume: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        tracer=None,
        warn_group: str | None = None,
    ) -> "CheckpointStore | None":
        """Open (or initialize) a run directory.

        Returns ``None`` — after one :class:`PersistenceWarning` — when
        the directory cannot be used at all; the analysis then simply
        runs unjournaled.  :class:`ResumeMismatchError` (different
        inputs behind ``resume=True``) is *not* a persistence failure
        and propagates: silently recomputing everything would hide an
        operator error.  ``tracer`` attaches ``checkpoint.journal`` /
        ``checkpoint.snapshot`` / ``checkpoint.degraded`` events to
        whatever span is current when the store acts.

        ``warn_group`` scopes the degradation-warning dedup: stores
        sharing a group emit at most one :class:`PersistenceWarning`
        per process between two :func:`reset_persistence_warnings`
        calls (suppressed repeats are counted, see
        :func:`persistence_stats`).  The default group is the run
        directory itself, which preserves the one-warning-per-run
        behaviour batch callers always had.
        """
        directory = Path(checkpoint_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            restored: list[dict] = []
            stored_document = _load_json(directory / MANIFEST_NAME)
            if resume and stored_document is not None:
                stored = RunManifest.from_json_dict(stored_document)
                manifest.require_matches(stored)
                restored = cls._load_cells(directory, manifest)
            else:
                # fresh run: drop any previous state before journaling
                for stale in (SNAPSHOT_NAME, COMPLETE_NAME, JOURNAL_NAME):
                    path = directory / stale
                    if path.exists():
                        path.unlink()
            _write_json_atomic(
                directory / MANIFEST_NAME, manifest.to_json_dict()
            )
            (directory / COMPLETE_NAME).unlink(missing_ok=True)
            writer = JournalWriter(directory / JOURNAL_NAME)
        except ResumeMismatchError:
            raise
        except OSError as error:
            _warn_degraded(
                f"checkpointing disabled: cannot use {directory}: {error}; "
                f"continuing in memory (run will not be resumable)",
                warn_group or str(directory),
                stacklevel=3,
            )
            return None
        return cls(
            directory,
            manifest,
            writer,
            restored,
            snapshot_every=snapshot_every,
            tracer=tracer,
            warn_group=warn_group,
        )

    @staticmethod
    def _load_cells(directory: Path, manifest: RunManifest) -> list[dict]:
        """Snapshot cells overlaid with journal cells (journal wins)."""
        return load_run_cells(directory, manifest, _warn_stacklevel=5)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_cell(self, record: dict) -> None:
        """Journal one cell verdict (fsynced); non-fatal on failure."""
        self._cells[(record["row"], record["column"])] = record
        if self.degraded or self._writer is None:
            return
        try:
            self._writer.append(record)
        except OSError as error:
            self._degrade(f"journal append failed: {error}")
            return
        if self._tracer.enabled:
            self._tracer.event(
                "checkpoint.journal",
                {"row": record["row"], "column": record["column"]},
            )
        self._appended_since_snapshot += 1
        if self._appended_since_snapshot >= self._snapshot_every:
            self._compact()

    def _compact(self) -> None:
        """Fold every known cell into a snapshot; truncate the journal."""
        if self.degraded or self._writer is None:
            return
        try:
            write_snapshot(
                self.directory / SNAPSHOT_NAME,
                {
                    "manifest_digest": self.manifest.digest(),
                    "cells": [
                        self._cells[key] for key in sorted(self._cells)
                    ],
                },
            )
            self._writer.truncate()
        except OSError as error:
            self._degrade(f"snapshot failed: {error}")
            return
        if self._tracer.enabled:
            self._tracer.event(
                "checkpoint.snapshot", {"cells": len(self._cells)}
            )
        self._appended_since_snapshot = 0

    def finalize(self, summary: dict) -> None:
        """Mark the run complete (final snapshot + ``complete.json``)."""
        if self.degraded:
            return
        self._compact()
        if self.degraded:
            return
        try:
            _write_json_atomic(
                self.directory / COMPLETE_NAME,
                {"manifest_digest": self.manifest.digest(), **summary},
            )
        except OSError as error:
            self._degrade(f"completion marker failed: {error}")
        self.close()

    def close(self) -> None:
        """Close the journal writer (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def _degrade(self, reason: str) -> None:
        """One warning per warn group, then in-memory for the run."""
        self.degraded = True
        self.close()
        if self._tracer.enabled:
            self._tracer.event("checkpoint.degraded", {"reason": reason})
        _warn_degraded(
            f"checkpointing disabled: {reason}; continuing in memory "
            f"(verdicts are kept, run is no longer resumable)",
            self._warn_group,
            stacklevel=4,
        )


# ----------------------------------------------------------------------
# read-only run-directory loading (resume and drift baselines)
# ----------------------------------------------------------------------


def load_run_manifest(path: str | os.PathLike) -> RunManifest | None:
    """The manifest stored in a run directory, or ``None`` if missing
    or damaged (callers decide whether that is fatal — a drift baseline
    degrades to a full recompute, a resume refuses)."""
    document = _load_json(Path(path) / MANIFEST_NAME)
    if document is None:
        return None
    try:
        return RunManifest.from_json_dict(document)
    except ResumeMismatchError:
        return None


def load_run_cells(
    path: str | os.PathLike,
    manifest: RunManifest,
    _warn_stacklevel: int = 3,
) -> list[dict]:
    """Every cell record a run directory holds, snapshot overlaid with
    journal (journal wins).

    ``manifest`` must be the manifest the directory was written under:
    a snapshot whose ``manifest_digest`` disagrees is ignored (it
    belongs to some other run), and a torn journal tail is truncated
    with a single :class:`PersistenceWarning` — never parsed.
    """
    directory = Path(path)
    merged: dict[tuple[int, int], dict] = {}

    def take(record: object) -> None:
        if (
            isinstance(record, dict)
            and record.get("type") == "cell"
            and isinstance(record.get("row"), int)
            and isinstance(record.get("column"), int)
        ):
            merged[(record["row"], record["column"])] = record

    snapshot = load_snapshot(directory / SNAPSHOT_NAME)
    if snapshot is not None and snapshot.get(
        "manifest_digest"
    ) == manifest.digest():
        for record in snapshot.get("cells", []):
            take(record)
    records, dropped = recover_journal(directory / JOURNAL_NAME)
    if dropped:
        warnings.warn(
            f"journal {directory / JOURNAL_NAME} had {dropped} torn "
            f"trailing byte(s); truncated to the last valid record",
            PersistenceWarning,
            stacklevel=_warn_stacklevel,
        )
    for record in records:
        take(record)
    return list(merged.values())


# ----------------------------------------------------------------------
# run-directory inspection (the ``repro-xml checkpoints`` subcommand)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunDirInfo:
    """Read-only summary of one checkpoint run directory."""

    path: str
    kind: str
    strategy: str
    state: str  # "complete" | "in-progress" | "damaged-manifest"
    rows: int
    columns: int
    recorded_cells: int
    decided_cells: int
    unknown_cells: int
    torn_bytes: int

    def describe(self) -> str:
        """One human-readable line (the ``checkpoints list`` format)."""
        return (
            f"{self.path}: {self.state} {self.kind} "
            f"[{self.rows}x{self.columns}, strategy={self.strategy}] "
            f"{self.recorded_cells} cell record(s) "
            f"({self.decided_cells} decided, {self.unknown_cells} unknown"
            + (f", {self.torn_bytes} torn byte(s)" if self.torn_bytes else "")
            + ")"
        )


def is_run_dir(path: str | os.PathLike) -> bool:
    """True when ``path`` looks like a checkpoint run directory."""
    return (Path(path) / MANIFEST_NAME).is_file()


def iter_run_dirs(path: str | os.PathLike) -> list[Path]:
    """The run directories at ``path``: itself, or its child run dirs."""
    root = Path(path)
    if is_run_dir(root):
        return [root]
    try:
        children = sorted(child for child in root.iterdir() if child.is_dir())
    except OSError:
        return []
    return [child for child in children if is_run_dir(child)]


def inspect_run_dir(path: str | os.PathLike) -> RunDirInfo:
    """Summarize a run directory without modifying it."""
    directory = Path(path)
    document = _load_json(directory / MANIFEST_NAME)
    kind = strategy = "?"
    rows = columns = 0
    state = "damaged-manifest"
    if document is not None:
        try:
            manifest = RunManifest.from_json_dict(document)
        except ResumeMismatchError:
            manifest = None
        if manifest is not None:
            kind = manifest.kind
            strategy = manifest.strategy
            rows = len(manifest.row_names)
            columns = len(manifest.column_names)
            state = (
                "complete"
                if (directory / COMPLETE_NAME).is_file()
                else "in-progress"
            )
    cells: dict[tuple[int, int], dict] = {}
    snapshot = load_snapshot(directory / SNAPSHOT_NAME)
    if snapshot is not None:
        for record in snapshot.get("cells", []):
            if isinstance(record, dict) and record.get("type") == "cell":
                cells[(record.get("row"), record.get("column"))] = record
    records, _, torn = scan_journal(directory / JOURNAL_NAME)
    for record in records:
        if record.get("type") == "cell":
            cells[(record.get("row"), record.get("column"))] = record
    unknown = sum(
        1 for record in cells.values() if record.get("verdict") == "unknown"
    )
    return RunDirInfo(
        path=str(directory),
        kind=kind,
        strategy=strategy,
        state=state,
        rows=rows,
        columns=columns,
        recorded_cells=len(cells),
        decided_cells=len(cells) - unknown,
        unknown_cells=unknown,
        torn_bytes=torn,
    )


def clean_run_dirs(
    path: str | os.PathLike,
    remove_all: bool = False,
    dry_run: bool = False,
) -> tuple[list[str], list[str], list[str]]:
    """Remove stale run directories under ``path``.

    By default only *complete* runs (their verdicts were committed and
    reported; the checkpoint is pure disk weight) and damaged-manifest
    directories are removed; ``remove_all=True`` also removes
    in-progress runs.  ``dry_run=True`` performs no deletion and
    reports what *would* be removed — run dirs double as drift
    baselines (``--baseline``), so deleting them deserves an explicit
    confirmation.  Filesystem trouble is tolerated per directory — the
    function never raises, returning ``(removed, kept, problems)`` path
    lists instead, in the same non-fatal spirit as the journal writer.
    """
    removed: list[str] = []
    kept: list[str] = []
    problems: list[str] = []
    for directory in iter_run_dirs(path):
        try:
            info = inspect_run_dir(directory)
            stale = remove_all or info.state in ("complete", "damaged-manifest")
            if not stale:
                kept.append(str(directory))
                continue
            if not dry_run:
                shutil.rmtree(directory)
            removed.append(str(directory))
        except OSError as error:
            problems.append(f"{directory}: {error}")
    return removed, kept, problems
