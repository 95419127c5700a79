"""Smoke test of the e2e benchmark at ``--smoke`` sizes (300 / 2 400 rows).

Runs every workload twice in-process, untraced and traced, with one set-up
and two timed passes each, and holds the benchmark to its own contract: every
name ``BENCHMARK.json`` declares is emitted, finite and tagged with the unit
declared there; every answer checks out; a recovered catalog equals the live
one; the trace wrappers leave nothing behind; a run measures the engine's
default worker count whatever ``REPRO_WORKERS`` says (CI exports 2); and
``compare.py`` fails a comparison that holds a failed run.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DATA_SEED, WORKLOADS, ensure_repro_importable  # noqa: E402

ensure_repro_importable()
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_contract_names_the_workloads_the_benchmark_has():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(workload, trace):
    result, info = run.run_workload(
        workload, seed=1, seconds=0.0, trace=bool(trace), smoke=True, data_seed=DATA_SEED
    )
    assert info["failures"] == []
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert info["passes"] == (1 if trace else 2)

    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(cell["value"]), metric["name"]
        if not trace:
            assert cell["value"] != 0, metric["name"]

    if WORKLOADS[workload].updates:
        assert info["recovery_equal"] is True
    assert tracing.installed_targets() == []


def test_trace_wrappers_restore_the_very_objects_they_replaced():
    def current():
        return [vars(target.holder())[target.attribute] for target in tracing.TARGETS]

    before = current()
    tracer = tracing.Tracer()
    with tracer:
        assert len(tracing.installed_targets()) == len(tracing.TARGETS)
        with pytest.raises(RuntimeError):
            tracer.install()
    assert tracing.installed_targets() == []
    assert all(a is b for a, b in zip(before, current()))


def test_a_run_measures_the_default_worker_count_and_restores_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    result, info = run.run_workload(
        "refine_20k", seed=1, seconds=0.0, trace=True, smoke=True, data_seed=DATA_SEED
    )
    assert info["failures"] == []
    assert result["metrics"]["exec.workers"]["value"] == 1
    assert result["metrics"]["sketchrefine.refine_solve_ms"]["value"] > 0
    assert os.environ["REPRO_WORKERS"] == "2"


def results_file(path, factor=1.0, failed=0):
    """Four runs per workload, every end-to-end metric at 100 to 103, times factor."""
    runs = [
        {
            "workload": w["name"], "seed": seed, "trace": 0, "correct": not failed,
            "failed": failed, "attempted": 100,
            "metrics": {m["name"]: {"value": (100.0 + seed) * factor} for m in CONTRACT["end_to_end"]},
        }
        for w in CONTRACT["workloads"] for seed in range(4)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_fails_on_a_regression_and_on_a_failed_run(tmp_path, capsys):
    parent = results_file(tmp_path / "a.json")
    assert compare.main([parent, results_file(tmp_path / "same.json")]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([parent, results_file(tmp_path / "slow.json", factor=2.0)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([parent, results_file(tmp_path / "failed.json", failed=1)]) == 1
    assert "FAILED RUN" in capsys.readouterr().out
