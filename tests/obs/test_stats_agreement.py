"""``--cache-stats`` and ``--metrics`` must agree on shared counters.

Both flags surface the same process-global cache accounting — one as
``# cache[name]: key=value`` lines, the other as ``cache.name.key``
gauges in the metrics table.  They are produced by independent code
paths (``_print_cache_stats`` vs the ``cache_metrics`` source), so
a drift between them means one surface is lying.  This regression test
runs the CLI once with both flags and cross-checks every shared key.
"""

import re

from repro.cli import main

FD = "(/orders, ((order/@id) -> order/customer/name))"
UPDATE = "/orders/order/status"

_CACHE_LINE = re.compile(r"^# cache\[(?P<name>[^\]]+)\]: (?P<pairs>.+)$")
_METRIC_LINE = re.compile(
    r"^# cache\.(?P<name>[^.]+)\.(?P<key>\S+)\s+(?P<value>\d+)$"
)


def _parse_cache_stats(lines) -> dict[tuple[str, str], int]:
    parsed = {}
    for line in lines:
        match = _CACHE_LINE.match(line)
        if not match:
            continue
        for pair in match.group("pairs").split():
            key, _, value = pair.partition("=")
            parsed[(match.group("name"), key)] = int(value)
    return parsed


def _parse_metric_gauges(lines) -> dict[tuple[str, str], int]:
    parsed = {}
    for line in lines:
        match = _METRIC_LINE.match(line)
        if match:
            parsed[(match.group("name"), match.group("key"))] = int(
                match.group("value")
            )
    return parsed


class TestCacheStatsMetricsAgreement:
    def test_both_surfaces_report_identical_counters(self, capsys):
        exit_code = main(
            [
                "independence",
                "--fd", FD,
                "--update-xpath", UPDATE,
                "--metrics",
                "--cache-stats",
            ]
        )
        assert exit_code in (0, 2)
        lines = capsys.readouterr().err.splitlines()
        cache_view = _parse_cache_stats(lines)
        metrics_view = _parse_metric_gauges(lines)
        assert cache_view, "--cache-stats printed no cache lines"
        assert metrics_view, "--metrics printed no cache gauges"
        # both were sampled in the same command; the metrics snapshot is
        # taken first, so any counter it saw the cache report must match
        shared = set(cache_view) & set(metrics_view)
        assert shared, "the two surfaces share no counters"
        for key in sorted(shared):
            assert metrics_view[key] == cache_view[key], (
                f"{key}: --metrics says {metrics_view[key]}, "
                f"--cache-stats says {cache_view[key]}"
            )
        # and neither surface knows a cache the other does not
        assert {name for name, _ in cache_view} == {
            name for name, _ in metrics_view
        }

    def test_matrix_run_surfaces_agree_too(self, capsys):
        exit_code = main(
            [
                "independence", "--matrix",
                "--fd", FD,
                "--fd", "(/orders, ((order/@id) -> order/total))",
                "--update-xpath", UPDATE,
                "--update-xpath", "/orders/order/total",
                "--metrics",
                "--cache-stats",
            ]
        )
        assert exit_code in (0, 2)
        lines = capsys.readouterr().err.splitlines()
        cache_view = _parse_cache_stats(lines)
        metrics_view = _parse_metric_gauges(lines)
        shared = set(cache_view) & set(metrics_view)
        assert shared
        for key in shared:
            assert metrics_view[key] == cache_view[key]
