"""Self-test of the benchmark: contract shape, tracer, exact counts.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The exact-count test runs every workload on small graphs, once traced
and once untraced: the counts in ``spec.EXACT_COUNTS`` must repeat
exactly, which shows that tracing does not change the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import spec
from tracer import LayerTimes, Tracer, _targets

run.use_source_tree()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        spec.WORKLOADS)
    for table, metrics in (("end_to_end", spec.END_TO_END),
                           ("per_layer", spec.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"])
                  for m in BENCHMARK[table]}
        assert listed == {name: (unit, better) for name, (_, unit, better,
                                                           _) in
                          metrics.items()}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert spec.HELD_OUT_SEED not in range(0, 100)


def test_self_time_subtracts_children():
    spans = [["op", 0, 100, -1, None],
             ["a", 10, 40, 0, None],
             ["b", 15, 25, 1, None],
             ["a", 50, 60, 0, True]]
    lt = LayerTimes(spans)
    assert lt.total_ns == {"op": 100, "a": 40, "b": 10}
    assert lt.self_ns == {"op": 60, "a": 30, "b": 10}
    assert lt.calls["a"] == 2 and lt.notes["a"] == 1
    assert lt.share_of_root("a", "op") == pytest.approx(0.3)


def test_tracer_restores_every_target():
    def current():
        out = []
        for owner, attr, _, _ in _targets():
            if isinstance(owner, dict):
                out.append(owner[attr])
            else:
                out.append(vars(owner).get(attr, "<inherited>"))
        return out

    before = current()
    with Tracer() as tracer:
        from repro import connected_components
        from repro.graph.datasets import DATASETS
        connected_components(DATASETS["Pkc"].build(0.02), "afforest")
        names = {rec[0] for rec in tracer.take()}
        assert {"graph.build", "baselines.afforest"} <= names
        assert current() != before
    after = current()
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_exact_counts_repeat_and_survive_tracing(workload, monkeypatch,
                                                 tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    kwargs = dict(seconds=0, scale=0.05, setup_reps=1)
    traced = run.measure(workload, 3, trace=True, **kwargs)
    plain = run.measure(workload, 3, trace=False, **kwargs)
    assert traced["failed"] == plain["failed"] == 0
    assert traced["exact"] == traced["exact_traced"] == plain["exact"]
    assert plain["exact_repeats"]
    assert set(traced["per_layer"]) == set(spec.PER_LAYER)
    assert set(plain["end_to_end"]) == set(spec.END_TO_END)
    assert all(v > 0 for v in plain["end_to_end"].values())


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp-skewed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
