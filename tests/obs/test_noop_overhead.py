"""The disabled-observability contract: zero heap allocations.

The same guarantee ``budget=None`` gives the meters (no bookkeeping on
any hot path, pinned in ``tests/test_limits.py``), extended to tracing:
with the no-op default tracer installed, every instrumented call site —
``tracer.span``, ``span.set_attribute``, ``tracer.event`` — must
allocate *nothing*.  ``tracemalloc`` attributes allocations to the file
that made them, so the pin filters to ``src/repro/obs/`` and requires
an exact zero.  Metrics have no disabled path to pin: no pipeline code
records into a registry; callers fold finished results in afterwards.
"""

import tracemalloc

from repro.obs import metrics as metrics_module
from repro.obs import trace as trace_module
from repro.obs.trace import NOOP_TRACER, current_tracer

OBS_FILES = (trace_module.__file__, metrics_module.__file__)


def _obs_allocations(before, after) -> int:
    """Net bytes the obs module files allocated between two snapshots."""
    filters = [tracemalloc.Filter(True, path) for path in OBS_FILES]
    diff = after.filter_traces(filters).compare_to(
        before.filter_traces(filters), "filename"
    )
    return sum(stat.size_diff for stat in diff)


def _exercise_noop_tracer(iterations: int) -> None:
    tracer = current_tracer()
    for index in range(iterations):
        with tracer.span("hot.path") as span:
            if span.enabled:  # the call-site idiom: never True here
                span.set_attribute("index", index)
            span.add_event("event")
        tracer.event("loose-event")


class TestNoopZeroAllocation:
    def test_disabled_tracer_allocates_nothing(self):
        assert current_tracer() is NOOP_TRACER
        _exercise_noop_tracer(10)  # warm up caches and bytecode
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            _exercise_noop_tracer(1000)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert _obs_allocations(before, after) == 0

    def test_untraced_analysis_allocates_nothing_in_obs(self):
        """A real IC run with observability disabled never touches the
        obs heap — the pipeline's span/event call sites all route
        through the no-op singletons."""
        from repro.workload.exams import paper_patterns

        figures = paper_patterns()
        from repro.independence.criterion import check_independence

        # warm every cache (regex compilation, automata, bytecode)
        check_independence(
            figures.fd1, figures.update_class, want_witness=False
        )
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            check_independence(
                figures.fd1, figures.update_class, want_witness=False
            )
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert _obs_allocations(before, after) == 0
