"""The pre-protocol metrics adapters, frozen as a test oracle.

Before every stats, cell and report type carried one ``metrics()``
method, :class:`repro.obs.metrics.MetricsRegistry` folded each type in
through its own hand-written ``absorb_*`` adapter.  Those adapters are
kept here verbatim (the same discipline ``tests/xmlmodel/
legacy_parser.py`` follows for the old XML walk) so the differential
suite in ``test_metrics_protocol.py`` can hold the one generic
``absorb(*sources)`` path snapshot-equal to them on every input.

Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


class LegacyMetricsRegistry(MetricsRegistry):
    """The new registry's instruments and snapshot, the old adapters."""

    def absorb_exploration(self, stats) -> None:
        """Fold one :class:`~repro.tautomata.lazy.ExplorationStats` in."""
        self.counter("ic.explored_states").inc(stats.explored_states)
        self.counter("ic.explored_rules").inc(stats.explored_rules)
        self.counter("ic.worst_case_rules").inc(stats.worst_case_rules)
        self.counter("ic.step_attempts").inc(stats.step_attempts)
        if stats.fired_rules is not None:
            self.counter("ic.fired_rules").inc(stats.fired_rules)

    def absorb_partial(self, partial) -> None:
        """Fold one :class:`~repro.limits.PartialStats` (UNKNOWN cell) in."""
        self.counter("ic.partial.explored_states").inc(partial.explored_states)
        self.counter("ic.partial.explored_rules").inc(partial.explored_rules)
        self.counter("ic.partial.step_attempts").inc(partial.step_attempts)
        self.counter(f"ic.unknown.{partial.reason}").inc()

    def absorb_cell(self, cell) -> None:
        """Fold one matrix cell: verdict count, duration, exploration."""
        self.counter(f"ic.verdict.{cell.verdict.value}").inc()
        self.histogram("ic.cell_ms").observe(cell.elapsed_seconds * 1000.0)
        if cell.exploration is not None:
            self.absorb_exploration(cell.exploration)
        if cell.partial is not None:
            self.absorb_partial(cell.partial)

    def absorb_matrix(self, matrix) -> None:
        """Fold a whole :class:`~repro.independence.matrix.IndependenceMatrix`."""
        for row in matrix.cells:
            for cell in row:
                self.absorb_cell(cell)
        if matrix.worker_faults:
            self.counter("matrix.worker_faults").inc(matrix.worker_faults)
        if matrix.spliced_cells:
            # splice accounting only exists for baseline-diffed runs; a
            # cold run stays byte-identical in the metrics snapshot
            self.counter("matrix.spliced_cells").inc(matrix.spliced_cells)
            self.counter("matrix.recomputed_cells").inc(
                matrix.recomputed_cells
            )
        self.gauge("matrix.elapsed_ms").set(matrix.elapsed_seconds * 1000.0)

    def absorb_result(self, result) -> None:
        """Fold one per-pair result (``check_independence`` and views)."""
        self.counter(f"ic.verdict.{result.verdict.value}").inc()
        self.histogram("ic.cell_ms").observe(result.elapsed_seconds * 1000.0)
        if result.exploration is not None:
            self.absorb_exploration(result.exploration)
        if result.partial is not None:
            self.absorb_partial(result.partial)

    def absorb_audit(self, report) -> None:
        """Fold one :class:`~repro.audit.findings.CorpusReport` in.

        Counters per finding kind (``audit.findings.<kind>``) plus the
        run-shape counters (documents, restored, quarantined, aborted)
        and a per-document duration histogram (restored documents are
        excluded — their recorded durations belong to the original
        run), so ``--metrics`` covers audit runs exactly like matrix
        runs.
        """
        self.counter("audit.documents").inc(len(report.documents))
        if report.restored_documents:
            self.counter("audit.restored_documents").inc(
                report.restored_documents
            )
        for kind, count in sorted(report.finding_counts().items()):
            self.counter(f"audit.findings.{kind}").inc(count)
        if report.quarantined:
            self.counter("audit.quarantined").inc(len(report.quarantined))
        if report.aborted:
            self.counter("audit.aborted").inc()
        for document in report.documents:
            if not document.restored:
                self.histogram("audit.document_ms").observe(
                    document.elapsed_ms
                )
        self.gauge("audit.elapsed_ms").set(report.elapsed_seconds * 1000.0)

    def absorb_corpus_load(self, report) -> None:
        """Fold one :class:`~repro.store.corpus.CorpusLoadReport` in."""
        self.counter("corpus.load.documents").inc(report.documents_seen)
        self.counter("corpus.load.loaded").inc(report.loaded)
        self.counter("corpus.load.unchanged").inc(report.unchanged)
        self.counter("corpus.load.errors").inc(report.errors)
        self.counter("corpus.load.chunks").inc(report.chunks_committed)
        self.gauge("corpus.load.docs_per_second").set(report.docs_per_second)
        self.gauge("corpus.load.elapsed_ms").set(
            report.elapsed_seconds * 1000.0
        )

    def absorb_corpus_check(self, report) -> None:
        """Fold one :class:`~repro.store.corpus.CorpusCheckReport` in."""
        self.counter("corpus.check.documents").inc(len(report.documents))
        self.counter("corpus.check.satisfied").inc(report.satisfied_count)
        self.counter("corpus.check.violated").inc(report.violated_count)
        self.counter("corpus.check.unknown").inc(report.unknown_count)
        self.counter("corpus.check.index_hits").inc(report.index_hits)
        self.counter("corpus.check.indexed").inc(report.indexed_documents)
        self.gauge("corpus.check.elapsed_ms").set(
            report.elapsed_seconds * 1000.0
        )

    def absorb_corpus_apply(self, report) -> None:
        """Fold one :class:`~repro.store.corpus.CorpusApplyReport` in."""
        self.counter("corpus.apply.documents").inc(len(report.documents))
        self.counter("corpus.apply.committed").inc(report.committed_count)
        self.counter("corpus.apply.rolled_back").inc(report.rolled_back_count)
        self.counter("corpus.apply.checks_run").inc(report.checks_run)
        self.counter("corpus.apply.checks_skipped").inc(report.checks_skipped)
        self.gauge("corpus.apply.elapsed_ms").set(
            report.elapsed_seconds * 1000.0
        )

    def absorb_caches(self) -> None:
        """Mirror the process-wide regex/DFA cache counters as gauges.

        Gauges, not counters: the underlying counters are already
        monotonic process-global state, so re-absorbing must reflect,
        never double-count.  The names (``cache.<cache>.<counter>``)
        carry exactly the values ``--cache-stats`` prints — the
        regression test in ``tests/obs`` holds the two outputs equal.
        """
        from repro.regex.cache import cache_stats

        for cache_name, counters in cache_stats().items():
            for key, value in counters.items():
                self.gauge(f"cache.{cache_name}.{key}").set(value)

    def absorb_pool(self, stats: dict | None = None) -> None:
        """Mirror the warm-pool/gate counters as gauges.

        Gauges for the same reason as :meth:`absorb_caches`: the pool's
        ``_stats`` dict is monotonic process-global state (pool reuse,
        warm-up cost, spawn-gate decisions, serial fallbacks), so
        re-absorbing must reflect, never double-count.  Pass an
        explicit ``pool_stats()`` snapshot to pin a moment in time.
        """
        if stats is None:
            from repro.independence.pool import pool_stats

            stats = pool_stats()
        for key, value in stats.items():
            self.gauge(f"pool.{key}").set(value)

    def absorb_persistence(self, stats: dict | None = None) -> None:
        """Mirror the persistence degradation counters as gauges.

        ``persistence.degraded_events`` counts every store that fell
        back to memory-only; ``persistence.suppressed_warnings`` counts
        the :class:`PersistenceWarning` repeats the per-group dedup
        swallowed — a long-lived daemon with a bad disk warns once and
        accounts the rest here instead of spamming one warning per
        request.  Gauges (reflect, never double-count), same contract
        as :meth:`absorb_caches` / :meth:`absorb_pool`.
        """
        if stats is None:
            from repro.persistence.store import persistence_stats

            stats = persistence_stats()
        for key, value in stats.items():
            self.gauge(f"persistence.{key}").set(value)
