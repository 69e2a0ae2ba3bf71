"""Tests of the benchmark itself, at tiny scale: metric names and units,
seeded inputs, trace accounting, the correctness gates and the refusal to
run without the library sources."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _main(args: list[str]) -> tuple[int, list[str]]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(args + ["--seed", "5", "--seconds", "0", "--scale", "tiny"])
    return code, stdout.getvalue().strip().splitlines()


@pytest.fixture(scope="module")
def smoke_runs():
    """Each workload untraced, then all of them traced, one pass of each kind."""
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "MIN_PASSES", 1)
    patch.setattr(run, "SETUP_SAMPLES", 1)
    try:
        outputs = {w: _main(["--workload", w, "--trace", "0"]) for w in run.WORKLOADS}
        outputs["all"] = _main(["--workload", "all", "--trace", "1"])
    finally:
        patch.undo()
    return outputs


def _check(code: int, lines: list[str], n_workloads: int) -> dict:
    assert code == 0
    provs = [json.loads(ln[len("provenance ") :]) for ln in lines if ln.startswith("provenance ")]
    assert len(provs) == n_workloads
    for prov in provs:
        assert prov["digests_match"] and prov["seed"] == 5
        assert prov["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    return {m: v["unit"] for m, v in result["metrics"].items()}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in tracer.LAYER_METRICS
    ]
    assert all(prediction for *_, prediction in tracer.LAYER_METRICS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(smoke_runs, workload):
    units = _check(*smoke_runs[workload], 1)
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert any(ln.startswith(f"{workload} failed_frac = 0 ratio") for ln in smoke_runs[workload][1])


def test_traced_run_emits_every_layer_metric_per_workload(smoke_runs):
    units = _check(*smoke_runs["all"], len(run.WORKLOADS))
    assert units == {f"{w}/{m['name']}": m["unit"] for w in run.WORKLOADS for m in SPEC["per_layer"]}


def test_changing_the_seed_changes_the_inputs():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 1) == workloads.make_inputs(w, 1)
        assert workloads.make_inputs(w, 1) != workloads.make_inputs(w, 2)


def _timed_pass(workload: str, outdir: Path, spans: tracer.Tracer | None = None) -> float:
    """Wall time of one tiny pass, timed inside the tracer as child.py does."""
    inputs = workloads.make_inputs(workload, 3, "tiny")
    with spans or contextlib.nullcontext():
        t0 = time.perf_counter()
        items = workloads.run_pass(workload, inputs, outdir)
        wall = time.perf_counter() - t0
    assert all(it.ok for it in items)
    return wall


def test_traced_self_times_add_up_to_wall(tmp_path):
    for workload in run.WORKLOADS:
        _timed_pass(workload, tmp_path / "warm")
        plain = _timed_pass(workload, tmp_path / "plain")
        spans = tracer.Tracer()
        wall = _timed_pass(workload, tmp_path / "traced", spans)
        layers = spans.layer_metrics(wall)
        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        roots = sum(end - start for _, start, end, parent in spans.spans if parent < 0)
        assert self_total == pytest.approx(roots, rel=1e-9)
        # what no span covers is the benchmark's own glue between layer calls
        overhead = abs(wall - plain)
        assert 0.0 <= wall - self_total <= max(overhead, 0.1 * wall), (workload, wall, self_total)
        assert layers["experiments.rows"] > 0


def test_nested_calls_stay_visible(tmp_path):
    spans = tracer.Tracer()
    _timed_pass("general-oracles", tmp_path, spans)
    parents = {}
    for name, _, _, parent in spans.spans:
        if parent >= 0:
            parents.setdefault(name, set()).add(spans.spans[parent][0])
    assert "fidelity.agi_exact" in parents["fidelity.process_fidelity"]
    assert "lindblad.liouvillian" in parents["lindblad.dissipator"]
    assert "experiments.run_experiment" in parents["fitting.fit_slope"]
    # installing and removing the tracer leaves the library untouched
    from quditbench import experiments, fidelity

    assert experiments.agi_exact is fidelity.agi_exact
    assert not hasattr(fidelity.agi_exact, "__wrapped__")


@pytest.mark.parametrize(
    "workload, form",
    [("dephasing-dense", "c_qudit_dephasing"), ("general-oracles", "c_general"), ("gate-synthesis", "c_qudit_dephasing")],
)
def test_planted_defect_raises_failed_items(tmp_path, workload, form):
    inputs = workloads.make_inputs(workload, 3, "tiny")
    good = workloads.run_pass(workload, inputs, tmp_path / "good")
    assert all(it.ok for it in good)
    original = workloads.CLOSED_FORMS[form]
    perturbed = dict(workloads.CLOSED_FORMS, **{form: lambda *a: 1.02 * original(*a)})
    bad = workloads.run_pass(workload, inputs, tmp_path / "bad", perturbed)
    assert len(bad) == len(good)
    assert any(not it.ok for it in bad)


def test_a_raising_stage_fails_all_its_items(tmp_path):
    def broken(d):
        raise RuntimeError("planted")

    inputs = workloads.make_inputs("dephasing-dense", 3, "tiny")
    closed = dict(workloads.CLOSED_FORMS, critical_ratio=broken)
    items = workloads.run_pass("dephasing-dense", inputs, tmp_path, closed)
    failed = [it for it in items if not it.ok]
    assert len(failed) == 3 * len(inputs["critical-curve"])
    assert all("planted" in it.error for it in failed)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "gate-synthesis", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=tmp_path, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
