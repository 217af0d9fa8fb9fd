"""Every ``--metrics`` / ``--trace-out`` command keeps its metric surface.

``tests/golden/cli_metrics.json`` records, per command, the metric
names ``--metrics`` prints to stderr, the values of the deterministic
counters, and the span names of the ``--trace-out`` trace.  Wall-clock
gauges and histograms, and the process-global cache/pool gauges (whose
values depend on what ran earlier in the process), are pinned by name
only.  Regenerate after an intended change with::

    PYTHONPATH=src python -m tests.test_cli_metrics
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.trace import read_trace
from repro.workload.library import generate_library
from repro.workload.packages import (
    package_linear_fds,
    package_schema_text,
    write_package_corpus,
    write_poison_corpus,
)
from repro.xmlmodel.serializer import serialize_document

GOLDEN = Path(__file__).parent / "golden" / "cli_metrics.json"

ORDERS_FD = "(/orders, ((order/@id) -> order/customer/name))"
ORDERS_TOTAL_FD = "(/orders, ((order/@id) -> order/total))"
ISBN_TITLE = "(/library, ((book/@isbn) -> book/title))"

#: metric rows whose values vary run to run or with process history
_UNPINNED = ("cache.", "pool.")
_UNPINNED_SUFFIXES = ("elapsed_ms", "docs_per_second")


def _independence(*extra):
    return [
        "independence", "--fd", ORDERS_FD,
        "--update-xpath", "/orders/order/status", *extra,
    ]


def _independence_matrix(*extra):
    return [
        "independence", "--matrix",
        "--fd", ORDERS_FD, "--fd", ORDERS_TOTAL_FD,
        "--update-xpath", "/orders/order/status",
        "--update-xpath", "/orders/order/customer/name", *extra,
    ]


def _setup_audit(root: Path, poisoned: bool) -> list[str]:
    schema = root / "package.schema"
    schema.write_text(package_schema_text())
    if poisoned:
        paths = sorted(write_poison_corpus(
            root / "poison", oversized_bytes=4096, bomb_depth=200,
            entity_references=200,
        ).values())
    else:
        paths = write_package_corpus(
            root / "corpus", documents=3, parts=3, violations_every=2
        )
    args = ["audit", *paths, "--schema", str(schema)]
    for fd in package_linear_fds():
        args += ["--fd", fd]
    args += ["--update-xpath", "/package/parts/part/@contentType"]
    if poisoned:
        args += ["--max-input-bytes", "2048", "--max-depth", "100"]
    return args


def _library_corpus(root: Path) -> str:
    corpus = root / "corpus"
    corpus.mkdir()
    for index in range(4):
        document = generate_library(books=2, seed=index, violate_key=index % 2)
        (corpus / f"doc{index:02d}.xml").write_text(
            serialize_document(document), encoding="utf-8"
        )
    return str(corpus)


def _loaded_store(root: Path) -> str:
    db = str(root / "store.db")
    assert main(["corpus", "load", db, _library_corpus(root)]) == 0
    return db


def _command(case: str, root: Path) -> list[str]:
    """The argv of one case (its fixtures written under ``root``)."""
    if case == "independence-single":
        return _independence()
    if case == "independence-matrix":
        return _independence_matrix()
    if case == "audit-healthy":
        return _setup_audit(root, poisoned=False)
    if case == "audit-poisoned":
        return _setup_audit(root, poisoned=True)
    if case == "corpus-load":
        return ["corpus", "load", str(root / "store.db"), _library_corpus(root)]
    if case == "corpus-check-fd":
        return ["corpus", "check-fd", _loaded_store(root), "--fd", ISBN_TITLE]
    if case == "corpus-apply":
        return [
            "corpus", "apply", _loaded_store(root),
            "--set", "/library/book/title=Renamed", "--fd", ISBN_TITLE,
        ]
    if case == "corpus-stats":
        return ["corpus", "stats", _loaded_store(root)]
    raise AssertionError(case)


CASES = (
    "independence-single",
    "independence-matrix",
    "audit-healthy",
    "audit-poisoned",
    "corpus-load",
    "corpus-check-fd",
    "corpus-apply",
    "corpus-stats",
)


def _pinned(name: str) -> bool:
    return not name.startswith(_UNPINNED) and not name.endswith(
        _UNPINNED_SUFFIXES
    )


def _metric_rows(stderr: str) -> dict[str, str]:
    """``name -> rendered value`` of the ``# name  value`` table rows."""
    rows = {}
    for line in stderr.splitlines():
        if not line.startswith("# ") or line.startswith(
            ("# findings written", "# report written", "# cache[")
        ):
            continue
        name, _, value = line[2:].partition("  ")
        rows[name.strip()] = value.strip()
    return rows


def observe(case: str, root: Path, capsys) -> dict:
    """Run one case with ``--metrics --trace-out``; its metric surface."""
    trace = root / "trace.jsonl"
    argv = _command(case, root) + ["--metrics", "--trace-out", str(trace)]
    capsys.readouterr()
    code = main(argv)
    rows = _metric_rows(capsys.readouterr().err)
    return {
        "exit_code": code,
        "names": sorted(rows),
        "values": {
            name: value
            for name, value in sorted(rows.items())
            if _pinned(name) and "count=" not in value
        },
        "spans": sorted({record["name"] for record in read_trace(trace)}),
    }


@pytest.mark.parametrize("case", CASES)
def test_metrics_and_trace_surface_matches_golden(case, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert observe(case, tmp_path, capsys) == expected


if __name__ == "__main__":
    import contextlib
    import io
    import types

    class _Capsys:
        """``capsys.readouterr()`` for a run outside pytest."""

        def __init__(self):
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self):
            captured = types.SimpleNamespace(
                out=self.out.getvalue(), err=self.err.getvalue()
            )
            for stream in (self.out, self.err):
                stream.seek(0)
                stream.truncate()
            return captured

    capsys = _Capsys()
    golden = {}
    with contextlib.redirect_stdout(capsys.out), contextlib.redirect_stderr(
        capsys.err
    ):
        for case in CASES:
            with tempfile.TemporaryDirectory() as scratch:
                golden[case] = observe(case, Path(scratch), capsys)
    GOLDEN.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
