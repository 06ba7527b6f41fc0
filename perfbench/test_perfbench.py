"""Tests of the benchmark itself, on tiny versions of each workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny_runs(request):
    workload = request.param
    return (
        workload,
        run.measure(workload, 1, 0.0, trace=False, tiny=True),
        run.measure(workload, 1, 0.0, trace=True, tiny=True),
    )


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_same_seed_same_jobs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7, "out") == workloads.generate(name, 7, "out")
        assert workloads.generate(name, 7, "out") != workloads.generate(name, 8, "out")


def test_every_metric_is_emitted_with_its_unit(tiny_runs):
    _, untraced, traced = tiny_runs
    for out, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        result = out["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, out["record"]["failures"]
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == _units(section)
    assert untraced["result"]["metrics"]["pass_frac"]["value"] == 1.0
    assert traced["record"]["absent_layers"] == []


def test_each_workload_bypasses_the_solvers_it_should(tiny_runs):
    workload, _, traced = tiny_runs
    metrics = traced["result"]["metrics"]
    sigma_max = metrics["numerics.largest_singular_value.calls"]["value"]
    sigma_min = metrics["numerics.smallest_singular_value.calls"]["value"]
    assert (sigma_max > 0) == (workload == "bs-norm-scan")
    assert (sigma_min > 0) == (workload == "fd-spectra")


def test_a_planted_wrong_oracle_value_counts_as_failed(monkeypatch):
    exact = oracles.condition_constants

    def planted(name, params):
        table = exact(name, params)
        if name == "hardy":
            table["a"] *= 1.01
        return table

    monkeypatch.setattr(oracles, "condition_constants", planted)
    out = run.measure("hs-conditions", 1, 0.0, trace=False, tiny=True)
    result = out["result"]
    assert result["failed"] == 1 and not result["correct"]
    assert list(out["record"]["failures"]) == ["cc-hardy"]
    assert out["record"]["fail_frac"] == pytest.approx(1 / result["attempted"])
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(1 - 1 / result["attempted"])


def test_reports_that_differ_between_passes_fail():
    jobs = workloads.generate("hs-conditions", 1, "out", tiny=True)[:1]
    job = jobs[0].job_id
    passes = [
        {"errors": {}, "hashes": {job: {f"{job}.json": digest}}} for digest in ("a", "b")
    ]
    assert run._judge(jobs, passes, 1)[job] == ["reports differ between passes"]


def test_missing_package_is_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.WorkerError):
        run.measure("hs-conditions", 1, 0.0, trace=False, tiny=True)


def test_audit_counts_solver_calls():
    out = run.audit("bs-norm-scan", 1, tiny=True)
    audit = out["audit"]
    assert audit["numerics.largest_singular_value.calls"] > 0
    assert audit["numerics.smallest_singular_value.calls"] == 0
    assert 0 <= audit["numerics.largest_singular_value.rtol_misses"] <= audit[
        "numerics.largest_singular_value.calls"
    ]
    assert out["errors"] == {} and out["absent"] == []
