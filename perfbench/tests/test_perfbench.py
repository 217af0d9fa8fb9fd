"""The benchmark's own tests: deterministic inputs, smoke runs, declared names.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import inputs, run
from perfbench.common import Context

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
#: input-size factor of the smoke runs
SMOKE = 0.01


def _context(tmp_path, seed=3) -> Context:
    return Context(seed=seed, seconds=0.0, work_dir=str(tmp_path), src_dir=str(run.ROOT / "src"), scale=SMOKE)


def _module(workload):
    import importlib

    return importlib.import_module(f"perfbench.workloads.{run.MODULES[workload]}")


def _tree(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*.xml"))
    }


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    from repro.persistence.manifest import fingerprint_pattern

    trees = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        violated, _ = inputs.write_library_corpus(directory, 7, 30)
        inputs.rewrite_library_corpus(directory, 7, 30, violated, 0.1)
        trees.append(_tree(directory))
    assert trees[0] == trees[1]

    def matrices(seed):
        return [
            (name, [(fd.name, fingerprint_pattern(fd.pattern)) for fd in fds],
             [(u.name, fingerprint_pattern(u.pattern)) for u in updates])
            for name, fds, updates, _ in inputs.ic_round(seed, 2)
        ]

    assert matrices(7) == matrices(7)
    assert matrices(7)[-1] != matrices(8)[-1]
    assert [inputs.serve_request(7, i) for i in range(40)] == [
        inputs.serve_request(7, i) for i in range(40)
    ]


def test_fresh_serve_pairs_never_repeat():
    fresh = [inputs.serve_request(7, i) for i in range(3, 400, 4)]
    assert len(set(fresh)) == len(fresh)
    assert not set(fresh) & set(inputs.hot_pairs(7))


@pytest.mark.parametrize("workload", sorted(run.MODULES))
def test_smoke_run_passes_its_output_checks(workload, tmp_path):
    outcome = run.timed(_module(workload), _context(tmp_path))
    assert outcome.failures == []
    assert outcome.failed == 0 and outcome.attempted > 0
    metrics = outcome.end_to_end()
    assert set(metrics) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", sorted(run.MODULES))
def test_traced_pass_emits_exactly_the_declared_names(workload, tmp_path):
    plain, traced, records = run.traced(_module(workload), _context(tmp_path))
    assert plain.failed == traced.failed == 0
    module = _module(workload)
    root_prefix = None if workload == "serve" else run.ROOT_PREFIX
    values, table = run.layer_metrics(module, plain, traced, records, root_prefix)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.per_layer_units()
    # listed workloads emit exactly the declared names; serve adds its own
    assert set(values) == set(run.per_layer_units(module))
    assert set(declared) <= set(values)
    # self times partition the root spans' time
    roots_ms = sum(
        r["duration_ns"]
        for r in records
        if r.get("parent_id") is None and r["name"].startswith(root_prefix or "")
    ) / 1e6
    assert sum(row["self_ms"] for row in table.values()) == pytest.approx(roots_ms, rel=1e-6)
    assert values["unattributed.ms"] > 0


def test_layer_map_names_every_reported_span():
    from perfbench.tracing import SPAN_LAYERS

    layers = run.LAYERS["layers"]
    assert set(layers) == set(SPAN_LAYERS) | {"unattributed"}
    serve = _module("serve")
    counters = set(run.LAYER_COUNTERS) | set(serve.LAYER_COUNTERS) | {"trace.overhead_ms"}
    assert counters == set(run.LAYERS["counters"])
    listed = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert listed | {"serve"} == set(run.LAYERS["workloads"]) == set(run.MODULES)
    for entry in layers.values():
        assert set(entry["moves"]) | set(entry["no_change_on"]) <= set(run.MODULES)
