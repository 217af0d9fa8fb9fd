"""Helpers shared by the workloads: the clock, cycles, memory, environment.

An in-process workload is a sequence of *cycles*.  Each cycle sets up
its inputs (timed as set-up, never traced) and then does the measured
work inside root spans opened through ``root(name)``; the timed mode
repeats cycles until the run's seconds are spent, the traced mode runs
a warm-up cycle, one cycle plainly and the same cycle again under the
tracer.  Every time goes through a :class:`Clock`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import time
from pathlib import Path


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1) of a non-empty list."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


#: the reference's time the reported times are scaled to: about its
#: time on an idle core of the 2-core x86-64 VM the bounds were set on
REFERENCE_SECONDS = 0.02
#: a timed stretch is cut and rescaled once it has run this long
SEGMENT_SECONDS = 0.5
_REFERENCE_LOOPS = 20_000
_REFERENCE_TABLE = bytearray(range(256)) * (1 << 15)  # 8 MiB, beyond the core's caches


def _reference_work() -> int:
    """Fixed pure-Python work: dict and string operations plus reads
    scattered over a table larger than the caches."""
    table = _REFERENCE_TABLE
    size = len(table)
    counts: dict = {}
    total = 0
    for index in range(_REFERENCE_LOOPS):
        key = ("k", index % 997)
        counts[key] = counts.get(key, 0) + 1
        total += len(str(index)) + table[(index * 7919 * 64) % size]
    return total


class Clock:
    """Wall time rescaled to a fixed host speed.

    On a shared host the same work can run a quarter slower for
    minutes at a time.  The clock times a fixed pure-Python reference
    right before and right after each timed stretch (outside it) and
    scales the stretch by ``REFERENCE_SECONDS / mean(reference times)``,
    so host drift cancels while a change in what the program does still
    changes the figure.  ``factors`` keeps every scale applied.
    ``segment_seconds`` is how long :class:`Segments` run between two
    references; each reference is the median of ``samples`` runs.
    Traced passes use infinite segments, so no reference runs inside a
    span, and more samples, since one scale covers a whole phase.  With
    ``every_cpu`` the reference runs once on each CPU this process may
    use and their mean counts (for work done in another process, which
    may run on any of them).
    """

    def __init__(self, segment_seconds: float = SEGMENT_SECONDS, samples: int = 1) -> None:
        self.segment_seconds = segment_seconds
        self.samples = samples
        self.every_cpu = False
        self.factors: list[float] = []
        self._last = self._reference()

    def _reference(self) -> float:
        if not self.every_cpu:
            return self._reference_here()
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(self._reference_here())
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.mean(times)

    def _reference_here(self) -> float:
        # collector off: the program's heap size must not change the cost
        gc.disable()
        try:
            times = []
            for _ in range(self.samples):
                started = time.perf_counter()
                _reference_work()
                times.append(time.perf_counter() - started)
            return statistics.median(times)
        finally:
            gc.enable()

    def mark(self) -> None:
        """Measure the reference right before a stretch starts."""
        self._last = self._reference()

    def factor(self) -> float:
        """The scale for the stretch that just ended (measures the reference)."""
        now = self._reference()
        factor = REFERENCE_SECONDS / ((now + self._last) / 2.0)
        self._last = now
        self.factors.append(factor)
        return factor

    def timed(self, function, *args):
        """Run ``function(*args)``; returns (its result, calibrated seconds)."""
        self.mark()
        started = time.perf_counter()
        result = function(*args)
        raw = time.perf_counter() - started
        return result, raw * self.factor()


class Segments:
    """Calibrated per-item latencies over one timed stretch.

    Call :meth:`begin`, then :meth:`add` as items finish (with their raw
    latencies in seconds) or pass :meth:`item_done` as a per-item
    callback, then :meth:`end`.  Once a segment has run the clock's
    ``segment_seconds`` it closes: the clock measures the reference
    (outside the timing) and the segment's latencies and time are
    rescaled.  ``busy_seconds`` is the stretch's calibrated time.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.latencies_ms: list[float] = []
        self.busy_seconds = 0.0
        self._pending: list[float] = []

    def begin(self) -> None:
        self.clock.mark()
        self._started = self._previous = time.perf_counter()

    def item_done(self, *_) -> None:
        """Per-item callback: the item took the time since the previous one."""
        self.add(time.perf_counter() - self._previous)

    def add(self, *latencies: float) -> None:
        self._pending += latencies
        now = time.perf_counter()
        if now - self._started >= self.clock.segment_seconds:
            self._close(now)
            self._started = time.perf_counter()
        self._previous = time.perf_counter()

    def end(self) -> None:
        self._close(time.perf_counter())

    def _close(self, now: float) -> None:
        factor = self.clock.factor()
        self.latencies_ms += [latency * factor * 1000.0 for latency in self._pending]
        self.busy_seconds += (now - self._started) * factor
        self._pending = []


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(seed: int) -> dict:
    """What a result depends on besides the code: machine and versions."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "seed": seed,
        # SQLite's default page cache (cache_size=-2000, i.e. 2000 KiB)
        "sqlite_page_cache_bytes": 2000 * 1024,
        "flush_policy": "store: WAL, synchronous=NORMAL; checkpoint journal: fsync per cell",
    }


def fresh_dir(path: Path) -> Path:
    """Empty ``path`` (creating it) and return it."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def no_root(name: str):
    """The untraced stand-in for ``TraceSession.root``."""
    return contextlib.nullcontext()


@dataclasses.dataclass
class Context:
    """What the runner hands a workload."""

    seed: int
    seconds: float
    work_dir: str
    src_dir: str
    #: input-size factor (1.0 = the benchmark's sizes; smoke tests shrink it)
    scale: float = 1.0
    clock: Clock = dataclasses.field(default_factory=Clock)


@dataclasses.dataclass
class Cycle:
    """One cycle's outcome.

    ``items`` over ``busy_seconds`` is the throughput; ``latencies_ms``
    holds one sample per item; ``attempted`` counts the outputs checked,
    ``failed`` the wrong ones and ``failures`` says what was wrong; ``detail`` holds the
    workload's own named figures, ``sizes`` its input sizes and
    ``layers`` its per-layer counts and ratios.
    """

    items: int
    busy_seconds: float
    latencies_ms: list[float]
    setup_seconds: float
    attempted: int
    failed: int
    failures: list[str]
    detail: dict
    sizes: dict
    layers: dict


@dataclasses.dataclass
class Outcome:
    """A whole run of one workload (one or more cycles)."""

    cycles: list[Cycle]
    peak_rss_mb: float

    @property
    def attempted(self) -> int:
        return sum(cycle.attempted for cycle in self.cycles)

    @property
    def failed(self) -> int:
        return sum(max(cycle.failed, len(cycle.failures)) for cycle in self.cycles)

    @property
    def failures(self) -> list[str]:
        return [failure for cycle in self.cycles for failure in cycle.failures]

    @property
    def busy_seconds(self) -> float:
        return sum(cycle.busy_seconds for cycle in self.cycles)

    def end_to_end(self) -> dict[str, float]:
        latencies = [value for cycle in self.cycles for value in cycle.latencies_ms]
        return {
            "setup_s": statistics.median(c.setup_seconds for c in self.cycles),
            "peak_rss_mb": self.peak_rss_mb,
            "throughput_per_s": sum(c.items for c in self.cycles) / self.busy_seconds,
            "latency_ms_p50": percentile(latencies, 0.50),
            "latency_ms_p95": percentile(latencies, 0.95),
        }

    def detail(self) -> dict[str, float]:
        """Median over cycles of each named figure."""
        keys = self.cycles[0].detail
        return {
            key: statistics.median(cycle.detail[key] for cycle in self.cycles)
            for key in keys
        }
