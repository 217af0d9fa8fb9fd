"""Counters, gauges, histograms, and the one metrics protocol.

The metrics half of :mod:`repro.obs`.  Every stats, cell and report
type of the pipeline carries one ``metrics()`` method yielding
``(kind, name, value)`` triples, where ``kind`` is ``"counter"``
(increment by ``value``), ``"gauge"`` (set to ``value``) or
``"observe"`` (one histogram sample):

* :class:`~repro.tautomata.lazy.ExplorationStats` and
  :class:`~repro.limits.PartialStats` (explored-work accounting);
* matrix cells and matrices, single-pair and view results;
* the audit :class:`~repro.audit.findings.CorpusReport` and the corpus
  store's load, check and apply reports.

The process-global counters (regex compile cache, warm pool,
persistence degradation) are module-level source functions in their
own modules: :func:`repro.regex.cache.cache_metrics`,
:func:`repro.independence.pool.pool_metrics` and
:func:`repro.persistence.store.persistence_metrics`.  They report
gauges, never counters: the underlying counters are already monotonic
process state, so absorbing them twice must reflect, not double-count.

:class:`MetricsRegistry` holds the three classic instruments —
:class:`Counter` (monotonic), :class:`Gauge` (last value wins),
:class:`Histogram` (fixed bucket upper bounds, plus
count/sum/min/max) — and folds any number of sources in through its
one adapter, ``absorb(*sources)``; ``snapshot()`` renders everything
into a single plain dict.  :func:`format_stats` is the shared human
rendering of explored-work accounting.

The exploration counters map one-to-one onto the Proposition 3 factors
(see DESIGN.md "Observability semantics"): ``ic.worst_case_rules`` is
the ``aU·aFD·|Σ|``-shaped bound the eager construction would pay, and
``ic.explored_rules`` is what the lazy run actually instantiated — the
ratio is the measured saving the T3 experiment reports.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

#: histogram bucket upper bounds for millisecond durations
DEFAULT_MS_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)

#: the three kinds of a ``metrics()`` triple
COUNTER = "counter"
GAUGE = "gauge"
OBSERVE = "observe"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0; monotonicity is the contract)."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last ``set`` wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | int = 0

    def set(self, value: float | int) -> None:
        """Replace the gauge's value."""
        self.value = value


class Histogram:
    """Fixed-bucket distribution: counts per upper bound plus summary.

    ``bounds`` are inclusive upper bounds in increasing order; one
    overflow bucket catches everything above the last bound.  Bucket
    semantics are pinned by the edge tests in ``tests/obs``: a value
    equal to a bound lands in that bound's bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_MS_BUCKETS) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {ordered}"
            )
        self.bounds = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        """Summary plus per-bucket counts, JSON-ready."""
        buckets = {
            f"<={bound:g}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets[f">{self.bounds[-1]:g}"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "mean": None if self.count == 0 else self.total / self.count,
            "buckets": buckets,
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; ``snapshot()`` renders everything into one plain dict
    (the shape ``BENCH_T3.json`` and ``degradation_stats.py`` embed).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_MS_BUCKETS
    ) -> Histogram:
        """The named histogram (created on first use with ``bounds``)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def absorb(self, *sources) -> "MetricsRegistry":
        """Fold each source's ``(kind, name, value)`` triples in.

        A source is an object with a ``metrics()`` method (a stats,
        cell or report object) or a module-level source function
        returning the triples itself.  Returns the registry, so
        ``MetricsRegistry().absorb(x).snapshot()`` reads in one line.
        """
        for source in sources:
            for kind, name, value in getattr(source, "metrics", source)():
                if kind == COUNTER:
                    self.counter(name).inc(value)
                elif kind == GAUGE:
                    self.gauge(name).set(value)
                else:
                    self.histogram(name).observe(value)
        return self

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything in one JSON-ready dict."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }


def verdict_metrics(result) -> Iterator[tuple[str, str, float]]:
    """The metrics of one decided pair, a matrix cell or a per-pair
    result alike: verdict count, duration, explored-work accounting."""
    yield COUNTER, f"ic.verdict.{result.verdict.value}", 1
    yield OBSERVE, "ic.cell_ms", result.elapsed_seconds * 1000.0
    if result.exploration is not None:
        yield from result.exploration.metrics()
    if result.partial is not None:
        yield from result.partial.metrics()


def format_stats(exploration=None, partial=None, automaton_size: int = 0) -> str:
    """The shared one-phrase rendering of an analysis's work accounting.

    Replaces the hand-rolled (and drift-prone) ``size_part`` strings the
    FD and view ``describe()`` methods each assembled on their own.
    """
    if partial is not None:
        return partial.describe()
    if exploration is None:
        return f"|A|={automaton_size}"
    return (
        f"explored {exploration.explored_states} states/"
        f"{exploration.explored_rules} rules "
        f"of <= {exploration.worst_case_rules} worst-case rules"
    )


def format_metrics_table(snapshot: dict) -> str:
    """Render a registry snapshot as an aligned text table (CLI output)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    scalar_rows = [
        (name, f"{value}") for name, value in sorted(counters.items())
    ] + [
        (
            name,
            f"{value:.3f}" if isinstance(value, float) else f"{value}",
        )
        for name, value in sorted(gauges.items())
    ]
    if scalar_rows:
        width = max(len(name) for name, _ in scalar_rows)
        lines.extend(f"{name.ljust(width)}  {value}" for name, value in scalar_rows)
    for name, histogram in sorted(histograms.items()):
        if histogram.get("count", 0):
            lines.append(
                f"{name}  count={histogram['count']} "
                f"sum={histogram['sum']:.3f} min={histogram['min']:.3f} "
                f"max={histogram['max']:.3f} mean={histogram['mean']:.3f}"
            )
        else:
            lines.append(f"{name}  count=0")
    return "\n".join(lines)
