"""The audit finding taxonomy and the per-document / corpus reports.

A corpus audit never throws at a document — it *records*.  Everything
that happens to a document (or to the walk that discovered it) becomes a
:class:`Finding` with a ``kind`` from the closed taxonomy below, so
downstream tooling can bucket outcomes without parsing message strings:

===================  ========  ==============================================
kind                 severity  produced when
===================  ========  ==============================================
``parse-error``      error     the text is malformed (any
                               :class:`~repro.errors.ParseError` that is not
                               a limit refusal), including undecodable bytes
``io-error``         error     the file cannot be read / a directory cannot
                               be scanned
``budget-exhausted`` error     a :class:`~repro.limits.ParseBudget` guard
                               refused the input (size / depth / tokens /
                               entity expansion) or the per-document analysis
                               :class:`~repro.limits.Budget` ran out
``internal-error``   error     any *other* exception escaped the per-document
                               analysis; the path is quarantined
``schema-violation`` warning   the document does not validate against the
                               audit schema
``fd-violation``     warning   a functional dependency is violated, with the
                               witness positions
``dependent-update`` warning   an update class proved (or not disproved)
                               dependent with the FD actually applies to this
                               document
``skipped-file``     notice    a walked file does not carry an audit
                               extension
``symlink-loop``     notice    a directory symlink cycle was detected and
                               not followed twice
``empty-input``      notice    an explicitly given directory contained no
                               auditable file
===================  ========  ==============================================

Severities drive the contract: **error** findings count against
``--max-errors`` and (like warnings) make the audit exit with code 2;
**notice** findings are informational and never affect the exit code.
Positions/snippets are carried over verbatim from the
:class:`~repro.errors.ParseError` machinery.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.errors import ParseError, ParseLimitError
from repro.obs.metrics import COUNTER, GAUGE, OBSERVE

PARSE_ERROR = "parse-error"
IO_ERROR = "io-error"
BUDGET_EXHAUSTED = "budget-exhausted"
INTERNAL_ERROR = "internal-error"
SCHEMA_VIOLATION = "schema-violation"
FD_VIOLATION = "fd-violation"
DEPENDENT_UPDATE = "dependent-update"
SKIPPED_FILE = "skipped-file"
SYMLINK_LOOP = "symlink-loop"
EMPTY_INPUT = "empty-input"

#: findings that count against ``--max-errors`` (the document could not
#: be audited)
ERROR_KINDS = frozenset(
    {PARSE_ERROR, IO_ERROR, BUDGET_EXHAUSTED, INTERNAL_ERROR}
)
#: findings about audited documents (the document was analyzed and
#: something is wrong with it)
WARNING_KINDS = frozenset({SCHEMA_VIOLATION, FD_VIOLATION, DEPENDENT_UPDATE})
#: informational findings that never affect the exit code
NOTICE_KINDS = frozenset({SKIPPED_FILE, SYMLINK_LOOP, EMPTY_INPUT})

ALL_KINDS = ERROR_KINDS | WARNING_KINDS | NOTICE_KINDS

#: document statuses ( :attr:`DocumentReport.status` )
STATUS_OK = "ok"
STATUS_FLAGGED = "flagged"  # warning findings only
STATUS_FAILED = "failed"  # at least one error finding


def severity_of(kind: str) -> str:
    """``error`` / ``warning`` / ``notice`` for a taxonomy kind."""
    if kind in ERROR_KINDS:
        return "error"
    if kind in WARNING_KINDS:
        return "warning"
    return "notice"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One structured audit observation, JSON-ready.

    ``path`` is the (corpus-relative where possible) file the finding
    is about, or ``""`` for corpus-level findings.  ``position`` and
    ``snippet`` come from the :class:`~repro.errors.ParseError`
    machinery when the finding wraps one; ``detail`` carries
    kind-specific structure (the exceeded budget dimension, the FD
    name and witness positions, the risky pair, ...).
    """

    kind: str
    path: str
    message: str
    position: int | None = None
    snippet: str | None = None
    detail: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r}")

    @property
    def severity(self) -> str:
        return severity_of(self.kind)

    @classmethod
    def make(
        cls,
        kind: str,
        path: str,
        message: str,
        position: int | None = None,
        snippet: str | None = None,
        **detail: object,
    ) -> "Finding":
        """The ergonomic constructor (detail as keyword arguments)."""
        return cls(
            kind=kind,
            path=path,
            message=message,
            position=position,
            snippet=snippet,
            detail=tuple(sorted(detail.items())),
        )

    @classmethod
    def from_parse_error(cls, path: str, error: ParseError) -> "Finding":
        """Classify a parser refusal: limit refusals are budget
        findings (the input's *shape* was refused), everything else is
        a parse error (the input's *syntax* is malformed)."""
        if isinstance(error, ParseLimitError):
            return cls.make(
                BUDGET_EXHAUSTED,
                path,
                error.message,
                position=error.position,
                snippet=error.snippet,
                dimension=error.dimension,
                limit=error.limit,
            )
        return cls.make(
            PARSE_ERROR,
            path,
            error.message,
            position=error.position,
            snippet=error.snippet,
        )

    def detail_dict(self) -> dict:
        """The extra key/value context as a plain dict."""
        return dict(self.detail)

    def to_json_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_json_dict`)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "path": self.path,
            "message": self.message,
            "position": self.position,
            "snippet": self.snippet,
            "detail": self.detail_dict(),
        }

    @classmethod
    def from_json_dict(cls, document: dict) -> "Finding":
        return cls(
            kind=document["kind"],
            path=document["path"],
            message=document["message"],
            position=document.get("position"),
            snippet=document.get("snippet"),
            detail=tuple(
                sorted((document.get("detail") or {}).items())
            ),
        )

    def describe(self) -> str:
        """One line for the CLI summary."""
        location = self.path or "<corpus>"
        rendered = f"[{self.kind}] {location}: {self.message}"
        if self.position is not None:
            rendered += f" (at offset {self.position})"
        return rendered


@dataclasses.dataclass
class DocumentReport:
    """Everything the audit learned about one file."""

    path: str
    status: str
    findings: list[Finding]
    elapsed_ms: float = 0.0
    fd_checked: int = 0
    fd_mappings: int = 0
    schema_valid: bool | None = None
    restored: bool = False
    #: None = no corpus store attached; True = the document body came
    #: from the store's cached parse (no re-parse); False = store miss
    store_hit: bool | None = None

    @classmethod
    def from_findings(
        cls, path: str, findings: list[Finding], **extra
    ) -> "DocumentReport":
        """Status derived from the worst finding severity."""
        severities = {finding.severity for finding in findings}
        if "error" in severities:
            status = STATUS_FAILED
        elif "warning" in severities:
            status = STATUS_FLAGGED
        else:
            status = STATUS_OK
        return cls(path=path, status=status, findings=findings, **extra)

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    def to_json_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_json_dict`)."""
        return {
            "path": self.path,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
            "fd_checked": self.fd_checked,
            "fd_mappings": self.fd_mappings,
            "schema_valid": self.schema_valid,
            "store_hit": self.store_hit,
            "findings": [finding.to_json_dict() for finding in self.findings],
        }

    @classmethod
    def from_json_dict(cls, document: dict, restored: bool = False):
        return cls(
            path=document["path"],
            status=document["status"],
            findings=[
                Finding.from_json_dict(finding)
                for finding in document.get("findings", ())
            ],
            elapsed_ms=document.get("elapsed_ms", 0.0),
            fd_checked=document.get("fd_checked", 0),
            fd_mappings=document.get("fd_mappings", 0),
            schema_valid=document.get("schema_valid"),
            restored=restored,
            store_hit=document.get("store_hit"),
        )


@dataclasses.dataclass
class CorpusReport:
    """The outcome of one corpus audit (possibly partial).

    ``aborted`` is True when the ``max_errors`` cap cut the run short;
    the documents audited up to that point are still fully reported
    (the partial-summary contract).  ``quarantined`` lists the paths
    whose analysis raised an unexpected exception — the files an
    operator should pull aside before re-running.
    """

    documents: list[DocumentReport]
    corpus_findings: list[Finding]
    quarantined: list[str]
    aborted: bool = False
    max_errors: int | None = None
    restored_documents: int = 0
    elapsed_seconds: float = 0.0
    independence: dict | None = None
    checkpoint_dir: str | None = None

    def iter_findings(self):
        """Corpus-level findings first, then per-document ones."""
        yield from self.corpus_findings
        for document in self.documents:
            yield from document.findings

    def finding_counts(self) -> dict[str, int]:
        """Occurrences per finding kind across the whole report."""
        counts: dict[str, int] = {}
        for finding in self.iter_findings():
            counts[finding.kind] = counts.get(finding.kind, 0) + 1
        return counts

    def metrics(self) -> Iterator[tuple[str, str, float]]:
        """``audit.*`` metrics (see :mod:`repro.obs.metrics`).

        Counters per finding kind (``audit.findings.<kind>``) plus the
        run-shape counters (documents, restored, quarantined, aborted)
        and a per-document duration histogram (restored documents are
        excluded — their recorded durations belong to the original
        run), so ``--metrics`` covers audit runs exactly like matrix
        runs.
        """
        yield COUNTER, "audit.documents", len(self.documents)
        if self.restored_documents:
            yield COUNTER, "audit.restored_documents", self.restored_documents
        for kind, count in sorted(self.finding_counts().items()):
            yield COUNTER, f"audit.findings.{kind}", count
        if self.quarantined:
            yield COUNTER, "audit.quarantined", len(self.quarantined)
        if self.aborted:
            yield COUNTER, "audit.aborted", 1
        for document in self.documents:
            if not document.restored:
                yield OBSERVE, "audit.document_ms", document.elapsed_ms
        yield GAUGE, "audit.elapsed_ms", self.elapsed_seconds * 1000.0

    @property
    def error_count(self) -> int:
        return sum(
            1 for f in self.iter_findings() if f.severity == "error"
        )

    @property
    def warning_count(self) -> int:
        return sum(
            1 for f in self.iter_findings() if f.severity == "warning"
        )

    @property
    def store_parse_hits(self) -> int:
        """Documents answered from the corpus store's cached parse."""
        return sum(1 for d in self.documents if d.store_hit is True)

    @property
    def store_parse_misses(self) -> int:
        """Documents a store was attached for but had to be re-parsed."""
        return sum(1 for d in self.documents if d.store_hit is False)

    @property
    def clean(self) -> bool:
        """No error or warning findings (notices do not count)."""
        return self.error_count == 0 and self.warning_count == 0

    def exit_code(self) -> int:
        """The CLI contract: 0 clean / 2 findings / 3 aborted at cap."""
        if self.aborted:
            return 3
        return 0 if self.clean else 2

    def to_json_dict(self) -> dict:
        """The full findings report as written by ``--json-out``."""
        return {
            "documents": [doc.to_json_dict() for doc in self.documents],
            "corpus_findings": [
                finding.to_json_dict() for finding in self.corpus_findings
            ],
            "quarantined": list(self.quarantined),
            "aborted": self.aborted,
            "max_errors": self.max_errors,
            "restored_documents": self.restored_documents,
            "elapsed_seconds": self.elapsed_seconds,
            "independence": self.independence,
            "summary": {
                "documents": len(self.documents),
                "errors": self.error_count,
                "warnings": self.warning_count,
                "finding_counts": self.finding_counts(),
                "aborted": self.aborted,
                "exit_code": self.exit_code(),
                "store_parse_hits": self.store_parse_hits,
                "store_parse_misses": self.store_parse_misses,
            },
        }

    def describe(self) -> str:
        """The CLI text rendering: summary line + one line per finding."""
        counts = self.finding_counts()
        rendered = ", ".join(
            f"{count} {kind}" for kind, count in sorted(counts.items())
        )
        status = "ABORTED (max-errors cap)" if self.aborted else (
            "CLEAN" if self.clean else "FINDINGS"
        )
        store_hits = self.store_parse_hits
        lines = [
            f"audit: {status} — {len(self.documents)} document(s)"
            + (f", {self.restored_documents} restored" if self.restored_documents else "")
            + (f", {store_hits} from store" if store_hits else "")
            + (f"; {rendered}" if rendered else "")
        ]
        if self.independence is not None:
            lines.append(
                f"  independence: {self.independence['summary']}"
            )
        for finding in self.iter_findings():
            lines.append(f"  {finding.describe()}")
        if self.quarantined:
            lines.append(
                "quarantined: " + ", ".join(self.quarantined)
            )
        return "\n".join(lines)
