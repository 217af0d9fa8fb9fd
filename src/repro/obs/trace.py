"""Nested-span tracing with a strict zero-overhead disabled path.

The IC pipeline grew fast paths (lazy products, worklist fixpoints),
governance (budgets, UNKNOWN verdicts) and durability (checkpoints,
worker-fault recovery) — but when a matrix run is slow, UNKNOWN, or
retried there was no way to see *why*: the accounting lived in
disconnected objects and nothing was timestamped or exportable.  This
module is the tracing half of :mod:`repro.obs` (the metrics half is
:mod:`repro.obs.metrics`):

* :class:`Span` — one named, monotonic-clocked interval with a parent
  id, free-form attributes and point-in-time events;
* :class:`Tracer` — produces nested spans (the enclosing span on the
  same thread becomes the parent) and hands finished spans to an
  exporter;
* :class:`JsonlSpanExporter` — one JSON object per line, written
  atomically per span and flushed, so a trace file is readable while
  the run is live and is never torn mid-line by a crash;
* :class:`InMemorySpanCollector` — the exporter the test-suite uses;
* :data:`NOOP_TRACER` — the module-level default.  Its ``span()``
  returns one preallocated singleton whose every method is a no-op, so
  instrumented hot paths allocate *nothing* when tracing is disabled —
  the same contract ``budget=None`` gives the meters (PR 3), and pinned
  the same way by a ``tracemalloc`` test.

Code that wants to be traceable checks ``span.enabled`` before
computing attribute values, exactly as budget code checks
``meter is not None``::

    with tracer.span("ic.explore") as span:
        outcome = ...
        if span.enabled:
            span.set_attribute("explored_rules", outcome.stats.explored_rules)

Timestamps are :func:`time.perf_counter_ns` (monotonic) so durations
are trustworthy; ``wall_time`` on the root spans lets reports anchor a
trace in calendar time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    """One named interval: start, duration, attributes, events, parent.

    Spans are context managers; entering does nothing (the clock
    started at construction), exiting ends the span and reports it to
    the tracer.  ``enabled`` is ``True`` on real spans and ``False`` on
    the no-op singleton, so callers can skip attribute computation when
    tracing is off.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_ns",
        "duration_ns",
        "attributes",
        "events",
        "_tracer",
    )

    enabled = True

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int, parent_id: int | None
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: dict = {}
        self.events: list[dict] = []
        self.duration_ns: int | None = None
        self.start_ns = time.perf_counter_ns()

    def set_attribute(self, key: str, value) -> None:
        """Attach one key/value to the span (JSON-serializable values)."""
        self.attributes[key] = value

    def add_event(self, name: str, attributes: dict | None = None) -> None:
        """Record a point-in-time event at the current clock offset."""
        event = {"name": name, "offset_ns": time.perf_counter_ns() - self.start_ns}
        if attributes:
            event["attributes"] = attributes
        self.events.append(event)

    def end(self) -> None:
        """Stop the clock and export (idempotent; second call ignored)."""
        if self.duration_ns is not None:
            return
        self.duration_ns = time.perf_counter_ns() - self.start_ns
        self._tracer._on_end(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self.end()
        return False

    def __repr__(self) -> str:
        state = (
            "open"
            if self.duration_ns is None
            else f"{self.duration_ns / 1e6:.3f} ms"
        )
        return f"<Span {self.name!r} id={self.span_id} {state}>"


class _NoopSpan:
    """The preallocated disabled span: every method is a no-op.

    There is exactly one instance (:data:`NOOP_SPAN`); handing it out
    and calling its methods allocates nothing, which is what lets
    instrumented hot paths run untraced at zero heap cost.
    """

    __slots__ = ()

    enabled = False
    name = ""
    span_id = 0
    parent_id = None
    duration_ns = 0
    start_ns = 0

    def set_attribute(self, key: str, value) -> None:
        pass

    def add_event(self, name: str, attributes: dict | None = None) -> None:
        pass

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _NoopTracer:
    """The module-level default: tracing disabled, zero allocations.

    ``span()`` returns :data:`NOOP_SPAN` and ``event()`` does nothing —
    no object is created on any call, pinned by the ``tracemalloc``
    test in ``tests/obs``.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NoopSpan:
        return NOOP_SPAN

    def record_span(
        self, name: str, duration_ns: int, attributes: dict | None = None
    ) -> _NoopSpan:
        return NOOP_SPAN

    def event(self, name: str, attributes: dict | None = None) -> None:
        pass

    def current(self) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NOOP_TRACER = _NoopTracer()


class Tracer:
    """Produces nested spans and feeds finished ones to an exporter.

    Nesting is per-thread: the innermost span opened (and not yet
    closed) on the current thread is the parent of the next ``span()``
    call.  A span opened on a different thread than its logical parent
    simply starts a new root — watchdog threads must not corrupt the
    main pipeline's stack.  Exporter writes are serialized by a lock.
    """

    enabled = True

    def __init__(self, exporter: "SpanExporter | None" = None) -> None:
        self.exporter = exporter
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str) -> Span:
        """Open a span nested under the current one (if any)."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, name, span_id, parent_id)
        stack.append(span)
        return span

    def record_span(
        self, name: str, duration_ns: int, attributes: dict | None = None
    ) -> Span:
        """Export an already-finished span of known duration.

        For work measured somewhere this tracer could not see — e.g. a
        matrix cell computed inside a pool worker, whose timing comes
        back with the chunk result.  The span is parented under the
        current span of this thread but never pushed on the stack; its
        start is backdated by ``duration_ns`` so it reads as "ended
        just now" on the shared monotonic clock.
        """
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, name, span_id, parent_id)
        duration_ns = int(duration_ns)
        span.start_ns -= duration_ns
        span.duration_ns = duration_ns
        if attributes:
            span.attributes.update(attributes)
        if self.exporter is not None:
            with self._lock:
                self.exporter.export(span)
        return span

    def event(self, name: str, attributes: dict | None = None) -> None:
        """Attach an event to the current span; dropped when none is open."""
        stack = self._stack()
        if stack:
            stack[-1].add_event(name, attributes)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _on_end(self, span: Span) -> None:
        stack = self._stack()
        # tolerate out-of-order ends: pop the span wherever it sits, so
        # a leaked child can never silently re-parent later spans
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index:]
                break
        if self.exporter is not None:
            with self._lock:
                self.exporter.export(span)

    def flush(self) -> None:
        """Flush the exporter (a no-op without one)."""
        if self.exporter is not None:
            with self._lock:
                self.exporter.flush()

    def close(self) -> None:
        """Flush and close the exporter (idempotent)."""
        if self.exporter is not None:
            with self._lock:
                self.exporter.close()


class SpanExporter:
    """Interface finished spans are handed to (see subclasses)."""

    def export(self, span: Span) -> None:
        """Persist one finished span."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output to its destination (optional)."""

    def close(self) -> None:
        """Release resources; no exports may follow (optional)."""


def span_to_record(span: Span) -> dict:
    """The JSON shape of one finished span (one trace-file line)."""
    record = {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_ns": span.start_ns,
        "duration_ns": span.duration_ns,
    }
    if span.attributes:
        record["attributes"] = span.attributes
    if span.events:
        record["events"] = span.events
    return record


class JsonlSpanExporter(SpanExporter):
    """One JSON object per line, one write + flush per span.

    Spans are exported as they *end*, so children precede parents in
    the file and a crashed run leaves every completed span intact —
    each line is written with a single ``write()`` call, which keeps a
    concurrently-read (or crash-truncated) file well-formed line by
    line.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "w", encoding="ascii")
        self._handle.write(
            json.dumps(
                {
                    "type": "trace-start",
                    "wall_time": time.time(),
                    "pid": os.getpid(),
                }
            )
            + "\n"
        )
        self._handle.flush()

    def export(self, span: Span) -> None:
        """Append the span as one JSON line (single write + flush)."""
        line = json.dumps(
            span_to_record(span), sort_keys=True, separators=(",", ":")
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def flush(self) -> None:
        """Flush the underlying file handle."""
        if not self._handle.closed:
            self._handle.flush()

    def close(self) -> None:
        """Close the trace file (write errors are swallowed)."""
        try:
            self._handle.close()
        except OSError:
            pass


class InMemorySpanCollector(SpanExporter):
    """Keeps finished spans in a list (the test-suite exporter)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def export(self, span: Span) -> None:
        """Append the span to :attr:`spans`."""
        self.spans.append(span)

    def by_name(self, name: str) -> list[Span]:
        """The collected spans carrying exactly this name."""
        return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        """Forget every collected span."""
        self.spans.clear()


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL trace file back into its span records.

    Raises ``ValueError`` naming the offending line number when a line
    is not valid JSON — the round-trip/integrity tests and
    ``scripts/trace_report.py`` both rely on this being strict.
    Non-span records (the ``trace-start`` preamble) are skipped.
    """
    records: list[dict] = []
    with open(path, encoding="ascii") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON ({error})"
                ) from None
            if isinstance(record, dict) and record.get("type") == "span":
                records.append(record)
    return records


# ----------------------------------------------------------------------
# the module-level default tracer
# ----------------------------------------------------------------------

_current: Tracer | _NoopTracer = NOOP_TRACER


def current_tracer() -> Tracer | _NoopTracer:
    """The installed tracer (the no-op singleton by default)."""
    return _current


def install_tracer(tracer: Tracer | _NoopTracer | None):
    """Install a process-wide tracer; returns the previous one.

    ``None`` restores the no-op default.  Entry points resolve their
    ``tracer=None`` argument against this, so a CLI-installed tracer
    reaches every layer without explicit plumbing through user code.
    """
    global _current
    previous = _current
    _current = NOOP_TRACER if tracer is None else tracer
    return previous


class installed_tracer:
    """Context manager: install a tracer for the duration of a block."""

    def __init__(self, tracer: Tracer | _NoopTracer | None) -> None:
        self.tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = install_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        install_tracer(self._previous)


@contextmanager
def jsonl_tracing(path: str | os.PathLike | None):
    """Trace the block into a JSONL file at ``path`` (a no-op for none).

    Opens the exporter, installs the tracer process-wide (every layer
    resolves it through :func:`current_tracer`), and on exit — also
    when the block raises — restores the previous tracer and closes
    the file.  Yields the tracer, or ``None`` when ``path`` is empty.
    """
    if not path:
        yield None
        return
    tracer = Tracer(JsonlSpanExporter(path))
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)
        tracer.close()
