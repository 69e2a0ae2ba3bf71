import csv
import importlib
import json
import math
import types
from dataclasses import replace

import pytest

import quditbench
from quditbench import critical_ratio
from quditbench.cli import build_parser, main
from quditbench.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    default_spec,
    run_experiment,
    write_csv,
    write_summary,
)
from quditbench.platforms import (
    PlatformRecord,
    load_records,
    platform_report,
)

from oracles import dense_agi_curve

GATE_GRID = (1e-5, 1e-3, 9)


def test_spec_validation():
    import numpy as np

    with pytest.raises(ValueError):
        ExperimentSpec("nope", (2,), (0.0, 1e-4, 11))
    with pytest.raises(ValueError):
        ExperimentSpec("slopes-qudit", (2,), (1e-4, 0.0, 11))
    with pytest.raises(ValueError):
        ExperimentSpec("slopes-qudit", (2,), (0.0, 2.0, 11))
    with pytest.raises(ValueError):
        ExperimentSpec("slopes-qudit", (), (0.0, 1e-4, 11))
    with pytest.raises(ValueError):
        ExperimentSpec("gate-dependence", (2,), (1e-5, 1e-3, 9), gates="cue", n_gates=0)
    with pytest.raises(ValueError):
        ExperimentSpec("gate-dependence", (1, 2), (1e-5, 1e-3, 9), gates="cue", n_gates=1)
    for name in EXPERIMENTS:
        with pytest.raises(ValueError, match="seed"):
            replace(default_spec(name), seed=-1)
    # only default_spec used to check the scale, which goes into the summary header
    with pytest.raises(ValueError, match="scale"):
        ExperimentSpec("slopes-qudit", (2,), (0.0, 1e-4, 11), scale="banana")
    with pytest.raises(ValueError, match="repeated dimension"):
        ExperimentSpec("critical-curve", (1, 2, 1), (0.0, 1e-4, 11))
    # dims, grid counts, n_gates and seeds are integers; a bool is not one
    for dims in ((2.5,), (True,), (2, 3.0)):
        with pytest.raises(ValueError, match="invalid dims"):
            ExperimentSpec("slopes-qudit", dims, (0.0, 1e-4, 11))
    for count in (11.0, True):
        with pytest.raises(ValueError, match="grid"):
            ExperimentSpec("slopes-qudit", (2,), (0.0, 1e-4, count))
    with pytest.raises(ValueError, match="n_gates"):
        ExperimentSpec("gate-dependence", (2,), (1e-5, 1e-3, 9), gates="cue", n_gates=1.5)
    for seed in (1.0, False):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec("slopes-qudit", (2,), (0.0, 1e-4, 11), seed=seed)
    spec = ExperimentSpec(
        "gate-dependence", (np.int64(2),), (1e-5, 1e-3, np.int32(9)), n_gates=np.int64(1), seed=np.uint8(4)
    )
    assert spec.grid().size == 9
    # the JSON summary goes to the output path with a .json suffix
    with pytest.raises(ValueError, match="summary"):
        ExperimentSpec("slopes-qudit", (2,), (0.0, 1e-4, 11), output_path="r.json")


def test_run_experiment_rejects_output_paths_that_cannot_take_a_file(tmp_path, monkeypatch):
    # rejected before the experiment runs, not after it when the CSV is written
    monkeypatch.chdir(tmp_path)
    entry = EXPERIMENTS["critical-curve"]
    runs = []

    def counted(spec, workers):
        runs.append(spec)
        return entry.run(spec, workers)

    monkeypatch.setitem(EXPERIMENTS, "critical-curve", replace(entry, run=counted))
    for path in ("", ".", str(tmp_path), str(tmp_path / "missing" / "x.csv")):
        spec = ExperimentSpec("critical-curve", (1,), (0.0, 1e-4, 5), output_path=path)
        with pytest.raises(ValueError, match="is a directory|does not exist"):
            run_experiment(spec)
    assert runs == [] and not any(tmp_path.iterdir())
    run_experiment(ExperimentSpec("critical-curve", (1,), (0.0, 1e-4, 5), output_path="x.csv"))
    assert len(runs) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]


def test_a_summary_path_that_is_a_directory_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    # the .json summary beside the CSV is checked with it, not after the run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.json").mkdir()
    entry = EXPERIMENTS["slopes-qudit"]
    runs = []
    monkeypatch.setitem(EXPERIMENTS, "slopes-qudit", replace(entry, run=lambda spec, workers: runs.append(spec)))
    with pytest.raises(ValueError, match="'r.json' is a directory"):
        run_experiment(ExperimentSpec("slopes-qudit", (2,), (0.0, 1e-4, 11), output_path="r.csv"))
    for out in ("r.csv", "r", str(tmp_path / "r.csv")):
        with pytest.raises(SystemExit) as exc:
            main(["slopes-qudit", "--out", out])
        assert exc.value.code == 2, out
        assert "r.json' is a directory" in capsys.readouterr().err, out
    assert runs == [] and [p.name for p in tmp_path.iterdir()] == ["r.json"]
    # platforms writes no summary: a directory named like one is no obstacle
    assert main(["platforms", "--out", "r.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]


SMALL = (0.0, 1e-4, 11)
EVEN_TO_12, EVEN_TO_22 = (2, 4, 6, 8, 10, 12), (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22)
# (name, scale) -> (dims, gamma_t_grid, gates, n_gates)
DEFAULT_SPECS = {
    ("slopes-qudit", "desk"): (EVEN_TO_12, SMALL, "identity", 0),
    ("slopes-qudit", "paper"): (EVEN_TO_22, SMALL, "identity", 0),
    ("slopes-qubits", "desk"): ((1, 2, 3, 4, 5), SMALL, "identity", 0),
    ("slopes-qubits", "paper"): ((1, 2, 3, 4, 5, 6, 7), SMALL, "identity", 0),
    ("deviation-sweep", "desk"): ((2, 4, 8, 12), (5e-4, 5e-2, 12), "identity", 0),
    ("deviation-sweep", "paper"): (EVEN_TO_22, (5e-4, 5e-2, 12), "identity", 0),
    ("gate-dependence", "desk"): ((2, 3, 4), (1e-5, 1e-3, 9), "cue", 200),
    ("gate-dependence", "paper"): ((2, 3, 4, 5, 6, 7, 8), (1e-5, 1e-3, 9), "cue", 5000),
    ("channels-compare", "desk"): (EVEN_TO_12, SMALL, "identity", 0),
    ("channels-compare", "paper"): (EVEN_TO_22, SMALL, "identity", 0),
    ("critical-curve", "desk"): ((1, 2, 3, 6), SMALL, "identity", 0),
    ("critical-curve", "paper"): ((1, 2, 3, 4, 5, 6), SMALL, "identity", 0),
}


def test_default_specs():
    assert {name for name, _ in DEFAULT_SPECS} == set(EXPERIMENTS)
    for (name, scale), expected in DEFAULT_SPECS.items():
        spec = default_spec(name, scale=scale, seed=3)
        got = (spec.dims, spec.gamma_t_grid, spec.gates, spec.n_gates)
        assert got == expected, (name, scale)
        assert (spec.name, spec.scale, spec.seed) == (name, scale, 3)
        assert spec.output_path is None
    with pytest.raises(ValueError, match="scale"):
        default_spec("slopes-qudit", scale="huge")
    with pytest.raises(ValueError, match="experiment"):
        default_spec("nope")


def test_slopes_qudit_experiment(tmp_path):
    spec = ExperimentSpec(
        "slopes-qudit",
        (2, 4, 6),
        (0.0, 1e-4, 6),
        output_path=str(tmp_path / "out.csv"),
    )
    result = run_experiment(spec)
    assert set(result.fieldnames) >= {"d_or_n", "gamma_t", "agi_exact", "agi_linear_prediction"}
    assert len(result.rows) == 3 * 6
    for key, fit in result.summary["fits"].items():
        assert abs(fit["relative_error"]) < 1e-3, key
        assert fit["one_minus_r2"] < 1e-5
    csv_text = (tmp_path / "out.csv").read_text()
    assert csv_text.splitlines()[0].startswith("channel,d_or_n,gamma_t")
    summary = json.loads((tmp_path / "out.json").read_text())
    assert summary["name"] == "slopes-qudit"


def test_csv_determinism(tmp_path):
    paths = []
    for tag in ("a", "b"):
        spec = ExperimentSpec(
            "slopes-qudit", (2, 4), (0.0, 1e-4, 5), seed=3, output_path=str(tmp_path / f"{tag}.csv")
        )
        run_experiment(spec)
        paths.append(tmp_path / f"{tag}.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_channels_compare_ratios():
    spec = ExperimentSpec("channels-compare", (2, 4, 6), (0.0, 1e-4, 6))
    result = run_experiment(spec)
    fits = result.summary["fits"]
    for d in (2, 4, 6):
        base = fits[f"Jz:{d}"]["slope"]
        assert abs(fits[f"Jx:{d}"]["slope"] / base - 1.0) < 5e-3
        assert abs(fits[f"Jplus:{d}"]["slope"] / base - 2.0) < 1e-2
        assert abs(fits[f"JxJyJz:{d}"]["slope"] / base - 3.0) < 1.5e-2


def test_custom_collapse_channel():
    import numpy as np
    from quditbench import NoiseModel, Operator, agi_curve, c_general, fit_slope

    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = Operator(z)
    grid = np.linspace(0.0, 1e-5, 6)
    fit = fit_slope(grid, agi_curve(NoiseModel.single(1.0, op), grid))
    assert abs(fit.slope_c / c_general(op) - 1.0) < 1e-3


def test_qubit_ensemble_experiment():
    spec = ExperimentSpec("slopes-qubits", (1, 2, 3), (0.0, 1e-4, 6))
    result = run_experiment(spec)
    for key, fit in result.summary["fits"].items():
        assert abs(fit["relative_error"]) < 1e-3
        assert fit["one_minus_r2"] < 1e-7


def test_critical_curve_methods_and_values():
    rows = run_experiment(ExperimentSpec("critical-curve", (1, 2, 6), (0.0, 1e-4, 11))).rows
    by_n = {r["n"]: r for r in rows}
    assert by_n[1]["method"] == "exact" and by_n[6]["method"] == "kraus1"
    for n in (1, 2, 6):
        r = by_n[n]
        assert abs(r["ratio_simulated"] / r["ratio_analytic"] - 1.0) < 0.01
        assert abs(r["ratio_analytic"] - critical_ratio(2**n)) < 1e-12


def test_critical_curve_flags_rows_that_are_not_first_order(tmp_path, capsys):
    # the J_z slope is -1.9% off first order at n = 7 and -0.47% at n = 6
    main(["critical-curve", "--qubits", "6,7", "--out", str(tmp_path / "c.csv")])
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].startswith("warning: n=7:"), warnings
    gaps = json.loads((tmp_path / "c.json").read_text())["first_order_gaps"]
    assert -0.02 < gaps["7"]["qudit"] < -0.018 and -0.005 < gaps["6"]["qudit"] < -0.004, gaps
    result = run_experiment(ExperimentSpec("critical-curve", (1, 2, 3, 6), (0.0, 1e-4, 11)))
    assert set(result.summary["first_order_gaps"]) == {"1", "2", "3", "6"}
    assert not any(line.startswith("warning:") for line in result.lines)
    for row in result.rows:
        gap = result.summary["first_order_gaps"][str(row["n"])]
        assert gap["qudit"] == row["c_qudit"] / quditbench.c_qudit_dephasing(row["d"]) - 1.0
        assert gap["qubits"] == row["c_qubits"] / quditbench.c_qubits_dephasing(row["n"]) - 1.0


def _cli_in_child(args, address_space=None):
    """Run the CLI in a fresh interpreter, optionally under an address-space
    limit set in the child alone; returns (exit code, stdout, peak RSS in MiB)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import resource, sys\n"
        f"if {address_space!r}: resource.setrlimit(resource.RLIMIT_AS, ({address_space!r}, {address_space!r}))\n"
        "from quditbench.cli import main\n"
        f"code = main({list(args)!r})\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(quditbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines[:-1], int(lines[-1]) / 1024 if lines else None


def test_critical_curve_dephasing_builds_no_dense_operator(tmp_path):
    # J_z and the site operators are held as diagonals and the first-order
    # route reads only those: n = 11 peaks where n = 1 does, and n = 14
    # (d = 16384, 4 GiB per dense complex operator) runs under a 3 GB
    # address-space limit
    peaks = {}
    for n in (1, 11):
        code, _, peaks[n] = _cli_in_child(["critical-curve", "--qubits", str(n), "--out", str(tmp_path / f"{n}.csv")])
        assert code == 0
    assert abs(peaks[11] - peaks[1]) <= 10, peaks
    args = ["critical-curve", "--qubits", "14", "--out", str(tmp_path / "14.csv")]
    code, out, _ = _cli_in_child(args, address_space=3 * 10**9)
    assert code == 0
    assert any(line.startswith("warning: n=14: fitted slopes") for line in out), out


def _assert_matches_dense(noise, grid, rtol=1e-10):
    import numpy as np
    from quditbench import agi_curve

    fast, dense = agi_curve(noise, grid), dense_agi_curve(noise, grid)
    nonzero = grid > 0
    assert np.all(fast[~nonzero] == 0.0)
    assert np.abs(fast[nonzero] / dense[nonzero] - 1.0).max() <= rtol, noise.dim


def test_agi_curve_routes_by_noise_structure():
    import numpy as np
    from quditbench import NoiseModel, Operator, agi_curve, c_general, fit_slope
    from quditbench.experiments import collapse_model
    from quditbench.lindblad import MAX_HILBERT_DIM

    grid = np.linspace(0.0, 1e-3, 6)
    for d in (2, 3, 7, 12):
        for kind in ("Jx", "JxJyJz", "Jplus"):
            _assert_matches_dense(collapse_model(kind, d), grid)
    # the dense route (J_+ with J_-: triangular both ways) keeps the
    # dissipator's dimension ceiling; the Hermitian and weighted-shift routes
    # build no generator and run past it, for any exactly Hermitian matrix
    # the caller passes
    big = MAX_HILBERT_DIM + 1
    jp = collapse_model("Jplus", big).terms[0][1]
    with pytest.raises(ValueError, match="dimension ceiling"):
        agi_curve(NoiseModel(((1.0, jp), (0.5, Operator(jp.entries.T)))), grid)
    fine = np.linspace(0.0, 1e-8, 11)
    rng = np.random.default_rng(17)
    a = rng.standard_normal((big, big)) + 1j * rng.standard_normal((big, big))
    for op in (collapse_model("Jx", big).terms[0][1], Operator((a + a.conj().T) / 2), jp):
        curve = agi_curve(NoiseModel.single(1.0, op), fine)
        assert np.all(np.isfinite(curve))
        slope = fit_slope(fine, curve).slope_c
        assert abs(slope / c_general(op) - 1.0) <= 1e-4
    # diagonal noise reads its spectrum off the Schur-multiplier exponents
    jz = collapse_model("Jz", 3)
    assert not np.array_equal(agi_curve(jz, grid), dense_agi_curve(jz, grid))
    _assert_matches_dense(jz, grid)


def test_agi_curve_spectral_path_matches_dense_oracle():
    import numpy as np
    from quditbench import NoiseModel, Operator, spin_plus, spin_xy

    rng = np.random.default_rng(41)
    d = 5
    random_l = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    two_terms = NoiseModel(((0.7, spin_xy(6)[1]), (1.9, spin_plus(6))))
    for noise in (NoiseModel.single(1.0, random_l), two_terms):
        for grid in (np.linspace(0.0, 1e-4, 11), np.linspace(5e-4, 5e-2, 12)):
            _assert_matches_dense(noise, grid)


def test_agi_curve_jplus_equals_triangular_closed_form():
    # J+ has a triangular generator: its spectrum is the dissipator diagonal
    import numpy as np
    from quditbench import agi_curve
    from quditbench.experiments import collapse_model
    from quditbench.lindblad import dissipator

    grid = np.array([1e-9, 1e-6, 1e-4, 1e-3, 5e-2])
    for d in (2, 3, 6, 12, 18):
        noise = collapse_model("Jplus", d)
        diag = np.diag(dissipator(noise))
        assert np.all(diag.imag == 0.0)
        ref = [-math.fsum(math.expm1(gt * v) for v in diag.real) / (d * (d + 1)) for gt in grid]
        assert np.abs(agi_curve(noise, grid) / ref - 1.0).max() <= 1e-13, d


def test_agi_curve_spectral_zero_and_slope():
    import numpy as np
    from quditbench import Operator, agi_curve, c_general, fit_slope, liouvillian
    from quditbench.experiments import collapse_model

    grid = np.linspace(0.0, 1e-4, 11)
    for kind in ("Jx", "Jplus", "JxJyJz"):
        for d in (2, 4, 8, 12):
            noise = collapse_model(kind, d)
            c = c_general(noise.terms[0][1])
            curve = agi_curve(noise, grid)
            assert math.copysign(1.0, curve[0]) == 1.0 and curve[0] == 0.0
            # the fit carries the second-order term, the spectrum's sum is exact
            assert abs(fit_slope(grid, curve).slope_c / c - 1.0) <= 1e-2, (kind, d)
            gen = liouvillian(Operator(np.zeros((d, d))), noise).matrix
            first_order = -np.linalg.eigvals(gen).real.sum() / (d * (d + 1))
            assert abs(first_order / c - 1.0) <= 1e-12, (kind, d)


def test_slopes_qubits_paper_scale():
    import time

    from quditbench import c_qubits_dephasing

    start = time.monotonic()
    result = run_experiment(ExperimentSpec("slopes-qubits", (7, 8), (0.0, 1e-4, 11)))
    elapsed = time.monotonic() - start
    for n in (7, 8):
        fit = result.summary["fits"][f"qubit-ensemble-Sz:{n}"]
        assert abs(fit["slope"] / c_qubits_dephasing(n) - 1.0) < 1e-3, n
    assert elapsed < 10, f"n = 7, 8 took {elapsed:.1f}s"


def test_dephasing_csvs_have_no_negative_zero(tmp_path):
    specs = [
        ExperimentSpec("slopes-qudit", (2, 5), (0.0, 1e-4, 5)),
        ExperimentSpec("slopes-qubits", (1, 3, 7), (0.0, 1e-4, 5)),
        ExperimentSpec("deviation-sweep", (2, 4), (0.0, 5e-2, 5)),
        ExperimentSpec("channels-compare", (2, 3), (0.0, 1e-4, 5)),
        ExperimentSpec("critical-curve", (1, 2, 6), (0.0, 1e-4, 5)),
        ExperimentSpec("gate-dependence", (2, 3), (0.0, 1e-4, 5), n_gates=1),
    ]
    for i, spec in enumerate(specs):
        path = tmp_path / f"{i}.csv"
        run_experiment(replace(spec, output_path=str(path)))
        cells = [c for line in path.read_text().splitlines()[1:] for c in line.split(",")]
        assert "-0.0" not in cells, spec.name


def _cue_gates(dims, n_gates, seed=0, workers=1):
    spec = ExperimentSpec("gate-dependence", dims, GATE_GRID, gates="cue", n_gates=n_gates, seed=seed)
    return run_experiment(spec, workers)


def test_gate_dependence_control_case():
    # H = 0, no pulses: fitted slopes sit within 1e-4 of the closed form
    res = run_experiment(ExperimentSpec("gate-dependence", (2, 3, 4), (0.0, 1e-4, 11)))
    assert len(res.rows) == 3
    for row in res.rows:
        assert abs(row["slope_deviation"]) < 1e-4, row
    assert res.summary["stats"] == {} and res.summary["n_failures"] == 0
    # the control case samples no gate, so its spec needs no gate count
    spec = ExperimentSpec("gate-dependence", (2, 3), (1e-5, 1e-3, 9))
    assert [row["d"] for row in run_experiment(spec).rows] == [2, 3]


def test_gate_dependence_small_pulsed_run():
    res = _cue_gates((2,), n_gates=4, seed=5)
    assert len(res.rows) == 4
    assert res.summary["n_failures"] == 0
    for row in res.rows:
        assert row["grape_converged"]
        assert row["grape_infidelity"] <= 1e-8
        assert abs(row["slope_deviation"]) < 1e-2
    assert "2" in res.summary["stats"]


def test_gate_dependence_flags_failures(monkeypatch):
    # non-converged optimizations must be counted and excluded from stats
    import quditbench.experiments as exp
    from quditbench import GrapeResult, PulseSchedule
    import numpy as np

    def stub(targets, n_slots, total_time, goal_infidelity, seeds, **kw):
        return [
            GrapeResult(PulseSchedule(total_time / n_slots, np.zeros((n_slots, 2 * (t.dim - 1)))), 0.5, False, 1)
            for t in targets
        ]

    monkeypatch.setattr(exp, "grape_optimize_many", stub)
    res = _cue_gates((2,), n_gates=3, seed=0)
    assert res.summary["n_failures"] == 3
    assert all(not row["grape_converged"] for row in res.rows)
    assert res.summary["stats"] == {}


def test_rows_deviation_recomputable():
    spec = ExperimentSpec("slopes-qudit", (4,), (0.0, 1e-4, 6))
    result = run_experiment(spec)
    for row in result.rows:
        if row["agi_linear_prediction"] == 0:
            continue
        recomputed = 1.0 - row["agi_exact"] / row["agi_linear_prediction"]
        assert abs(recomputed - row["relative_deviation"]) < 1e-15


def test_gate_dependence_worker_pool_matches_serial():
    serial = _cue_gates((2,), n_gates=2, seed=13, workers=1)
    pooled = _cue_gates((2,), n_gates=2, seed=13, workers=2)
    assert serial.rows == pooled.rows


def test_gate_dependence_pool_is_capped_at_item_count(monkeypatch):
    import concurrent.futures

    import quditbench.experiments as exp

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            chunks.append(chunksize)
            return map(fn, items)

    chunks = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = _cue_gates((2,), n_gates=2, seed=13)
    _cue_gates((2,), n_gates=2, seed=13, workers=64)
    assert started == [], "two d = 2 gates make one batch, which runs without a pool"
    monkeypatch.setattr(exp, "grape_batch_size", lambda d, n_slots: 1)
    pooled = _cue_gates((2,), n_gates=2, seed=13, workers=64)
    assert started == [2]
    assert chunks == [1], "each started worker gets one of the two batches"
    assert pooled.rows == serial.rows
    _cue_gates((2,), n_gates=1, seed=13, workers=64)
    assert started == [2], "a single batch runs without a pool"


def test_run_experiment_rejects_bad_workers_before_any_work(monkeypatch):
    import concurrent.futures

    import quditbench.experiments as exp

    def reached(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", reached)
    monkeypatch.setattr(exp, "_gate_batch", reached)
    for bad in (0, -3, True, 2.5, "2"):
        with pytest.raises(ValueError, match="workers"):
            _cue_gates((2,), n_gates=2, seed=13, workers=bad)


def test_gate_rows_do_not_depend_on_batches_or_workers(monkeypatch):
    # nine gates per dimension: the default bound splits d = 4 into 8 + 1,
    # and three workers take the batches in a different split
    import quditbench.experiments as exp

    spec = ExperimentSpec("gate-dependence", (2, 3, 4), GATE_GRID, gates="cue", n_gates=9, seed=3)
    reference = exp._gate_rows(spec, workers=1)
    assert exp._gate_rows(spec, workers=3) == reference
    for size in (1, spec.n_gates):
        monkeypatch.setattr(exp, "grape_batch_size", lambda d, n_slots: size)
        for workers in (1, 3):
            assert exp._gate_rows(spec, workers) == reference, (size, workers)


def test_gate_dependence_rows_do_not_depend_on_other_dims():
    alone = _cue_gates((3,), n_gates=2, seed=13)
    for workers in (1, 2):
        both = _cue_gates((2, 3), n_gates=2, seed=13, workers=workers)
        assert [r for r in both.rows if r["d"] == 3] == alone.rows, workers


def test_gate_dependence_via_dispatcher(tmp_path):
    spec = ExperimentSpec(
        "gate-dependence",
        (2,),
        (1e-5, 1e-3, 5),
        gates="cue",
        n_gates=3,
        seed=1,
        output_path=str(tmp_path / "gd.csv"),
    )
    result = run_experiment(spec)
    assert len(result.rows) == 3
    assert result.summary["n_failures"] == 0
    assert "2" in result.summary["stats"]
    header = (tmp_path / "gd.csv").read_text().splitlines()[0]
    assert header == "d,gate_index,slope,one_minus_r2,slope_deviation,grape_infidelity,grape_converged"
    iters = [row["grape_iterations"] for row in result.rows]
    assert all(i >= 1 for i in iters)
    assert result.summary["grape_iterations"] == {"2": {"total": sum(iters), "max": max(iters)}}
    saved = json.loads((tmp_path / "gd.json").read_text())
    assert saved["grape_iterations"] == result.summary["grape_iterations"]


# ---------------------------------------------------------------------------
# platforms
# ---------------------------------------------------------------------------


def test_bundled_records_load():
    records = load_records()
    assert len(records) == 10
    by_label = {r.label: r for r in records}
    photonic = by_label["photonic qudits"]
    assert math.isinf(photonic.t2) and photonic.gate_time is None
    assert photonic.tau == 0.0
    rydberg = by_label["Rydberg-atom qudit"]
    assert rydberg.t2 is None and rydberg.tau is None
    assert "no universal gate set" in rydberg.note


def test_platform_report_verdicts():
    records = load_records()
    reference = next(r for r in records if r.label == "superconducting qubits")
    rows = platform_report(records, reference)
    by_label = {r["label"]: r for r in rows}
    assert by_label["trapped-ion qudits"]["verdict"] == "advantageous"
    assert by_label["Rydberg-atom qudit"]["verdict"] == "insufficient data"
    assert by_label["photonic qudits"]["verdict"] == "advantageous"
    ion = by_label["trapped-ion qudits"]
    assert abs(ion["tau_ratio"] - 6.0) < 1e-12
    assert ion["tau_ratio"] > ion["critical_ratio"]


def test_platform_report_requires_reference_tau():
    records = load_records()
    bad_ref = next(r for r in records if r.tau is None)
    with pytest.raises(ValueError):
        platform_report(records, bad_ref)


def test_platform_record_validation():
    with pytest.raises(ValueError):
        PlatformRecord("x", 1, 1, 1.0, 1.0, "src")
    with pytest.raises(ValueError):
        PlatformRecord("x", 2, 1, -1.0, 1.0, "src")
    # dimensions go through require_dimension; NaN times are rejected
    for d, n in ((2.5, 1), (2, True), (True, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            PlatformRecord("x", d, n, 1.0, 1.0, "src")
    for t2, gate_time in ((float("nan"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="non-negative"):
            PlatformRecord("x", 2, 1, t2, gate_time, "src")
    # a zero T2 would divide by zero in tau; a zero gate time is legal
    for t2 in (0.0, -0.0):
        with pytest.raises(ValueError, match="T2 must be positive"):
            PlatformRecord("x", 2, 1, t2, 1.0, "src")
    assert PlatformRecord("x", 2, 1, 1.0, 0.0, "src").tau == 0.0
    # an unlimited T2 stays legal and gives tau = 0; an unknown one gives None
    assert PlatformRecord("x", 2, 1, float("inf"), 1.0, "src").tau == 0.0
    assert PlatformRecord("x", 2, 1, None, 1.0, "src").tau is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_slopes_qudit(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    assert main(["slopes-qudit", "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".json").exists()
    text = capsys.readouterr().out
    assert "Jz:12" in text


def test_cli_gate_dependence_small(tmp_path, capsys):
    out = tmp_path / "gd.csv"
    code = main(["gate-dependence", "--gates", "2", "--dims", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "d=2" in capsys.readouterr().out


def test_cli_rejects_bad_workers(tmp_path, capsys, monkeypatch):
    bad = {
        ("gate-dependence", "--workers"): ("0", "-3", "two"),
        ("gate-dependence", "--dims"): ("2,x", ",", "0"),
        ("gate-dependence", "--gates"): ("0", "-2", "a"),
        ("critical-curve", "--qubits"): ("0", "a", ""),
    }
    for (command, flag), values in bad.items():
        for value in values:
            with pytest.raises(SystemExit) as exc:
                main([command, flag, value])
            assert exc.value.code == 2, (flag, value)
            assert flag in capsys.readouterr().err, (flag, value)
    # a negative seed parses but SeedSequence refuses it: rejected for every experiment
    for command in EXPERIMENTS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1"])
        assert exc.value.code == 2, command
        assert "seed" in capsys.readouterr().err, command
    # dimension 1 parses but has no CUE gates: rejected before any work starts
    with pytest.raises(SystemExit) as exc:
        main(["gate-dependence", "--gates", "1", "--dims", "1,2"])
    assert exc.value.code == 2
    assert "dimension >= 2" in capsys.readouterr().err
    # repeated dimensions, and an --out in a missing directory, naming a
    # directory ('' is '.') or where the .json summary goes: rejected before
    # any work starts, with one error line and nothing written
    monkeypatch.chdir(tmp_path)
    cases = (
        (["gate-dependence", "--gates", "1", "--dims", "2,2"], "repeated dimension"),
        (["critical-curve", "--qubits", "1,1"], "repeated dimension"),
        (["critical-curve", "--qubits", "1", "--out", str(tmp_path / "missing" / "x.csv")], "does not exist"),
        (["critical-curve", "--qubits", "1", "--out", str(tmp_path)], "is a directory"),
        (["slopes-qudit", "--out", ""], "is a directory"),
        (["slopes-qudit", "--out", str(tmp_path / "r.json")], ".json summary"),
    )
    for args, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("quditbench: error:")]
        assert len(err) == 1 and err[0].startswith(f"quditbench: error: {args[0]}: "), args
        assert message in err[0], args
    assert not any(tmp_path.iterdir())


def test_cli_subcommands_follow_registry():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == [*EXPERIMENTS, "platforms"]


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["critical-curve", "--qubits", "1,2", "--out", str(a), "--seed", "9"])
    main(["critical-curve", "--qubits", "1,2", "--out", str(b), "--seed", "9"])
    assert a.read_bytes() == b.read_bytes()


def test_cli_deviation_sweep(tmp_path, capsys):
    out = tmp_path / "dev.csv"
    assert main(["deviation-sweep", "--out", str(out)]) == 0
    assert out.exists()
    # deviation from linearity grows with gamma_t within each dimension
    rows = out.read_text().splitlines()[1:]
    devs = {}
    for line in rows:
        cells = line.split(",")
        devs.setdefault(int(cells[1]), []).append(float(cells[5]))
    for d, series in devs.items():
        assert series == sorted(series), f"d={d} deviations not monotone"


def test_cli_platforms(tmp_path, capsys):
    out = tmp_path / "platforms.csv"
    assert main(["platforms", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "advantageous" in text
    header, *lines = [line.split(",") for line in out.read_text().splitlines()]
    assert lines
    for cells in lines:
        assert len(cells) == len(header), cells
        row = dict(zip(header, cells))
        for key in ("d", "n", "critical_ratio", "naive_ratio"):
            float(row[key])
        for key in ("tau", "tau_ratio", "max_advantageous_d"):  # empty when unknown
            if row[key]:
                float(row[key])
    for args in (["--reference", "no-such-platform"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["platforms", *args])
        assert exc.value.code == 2, args
    err = capsys.readouterr().err.splitlines()
    assert "quditbench: error: platforms: no platform matches reference 'no-such-platform'" in err


def test_cli_platforms_quotes_cells(tmp_path):
    data = tmp_path / "platforms.txt"
    data.write_text(
        "superconducting qubits | 2 | 2 | 1e-05 | 6e-08 | ref-a |\n"
        "ion qudit, variant B | 3 | 1 | 0.1 | 0.0001 | ref-b | note, with comma\n"
    )
    out = tmp_path / "platforms.csv"
    assert main(["platforms", "--data", str(data), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 11
    assert [len(row) for row in rows] == [11]
    row = dict(zip(header, rows[0]))
    assert (row["label"], row["note"]) == ("ion qudit, variant B", "note, with comma")


def test_cli_platforms_rejects_bad_input(tmp_path, capsys):
    bad_line = tmp_path / "bad.txt"
    bad_line.write_text("a | x | 1 | 1e-05 | 6e-08 | ref |\n")
    nan_line = tmp_path / "nan.txt"
    nan_line.write_text("superconducting qubits | 2 | 1 | nan | 6e-08 | ref |\n")
    zero_t2 = tmp_path / "zero_t2.txt"
    zero_t2.write_text("transmon qutrit | 3 | 1 | 0 | 6e-08 | ref |\n")
    cases = {
        ("--data", str(tmp_path / "missing.txt")): "No such file or directory",
        ("--data", str(bad_line)): "malformed platform line 'a | x | 1",
        ("--reference", "photonic"): "'photonic qudits' must have a known, positive tau",  # tau 0
        ("--reference", "Rydberg-atom qudit"): "must have a known, positive tau",  # tau unknown
        ("--data", str(nan_line)): "malformed platform line 'superconducting qubits | 2 | 1 | nan",
        ("--data", str(zero_t2)): "malformed platform line 'transmon qutrit | 3 | 1 | 0 |",
        ("--out", str(tmp_path / "missing" / "p.csv")): "does not exist",
        ("--out", str(tmp_path)): "is a directory",
    }
    for args, message in cases.items():
        with pytest.raises(SystemExit) as exc:
            main(["platforms", *args])
        assert exc.value.code == 2, args
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("quditbench: error:")]
        assert len(err) == 1, args
        assert err[0].startswith("quditbench: error: platforms: ") and message in err[0], args
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "nan.txt", "zero_t2.txt"]


def test_write_helpers(tmp_path):
    spec = ExperimentSpec("critical-curve", (1,), (0.0, 1e-4, 5))
    result = run_experiment(spec)
    write_csv(result.fieldnames, result.rows, tmp_path / "x.csv")
    write_summary(result, tmp_path / "x.json")
    header = (tmp_path / "x.csv").read_text().splitlines()[0]
    assert header == "n,d,c_qudit,c_qubits,ratio_simulated,ratio_analytic,ratio_naive,method"


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------


def test_package_exports_names_not_submodules():
    for name in quditbench.__all__:
        assert not isinstance(getattr(quditbench, name), types.ModuleType), name
    removed = {
        "fidelity": ("agi_dephasing", "haar_unitary", "state_fidelity"),
        "lindblad": (
            "choi_matrix", "dephasing_exponents", "rk4_propagate", "vec", "unvec", "commutator_superoperator",
            "real_form", "_real_form",
        ),
        "pulses": ("gate_infidelity", "schedule_unitary"),
        "platforms": ("serialize_records",),
        "experiments": ("agi_curve_kraus",),
        "fitting": ("DeviationStats",),
        "analytic": ("c_heterogeneous",),
        "operators": ("embed_site",),
    }
    for module, names in removed.items():
        for name in names:
            assert name not in quditbench.__all__, name
            assert not hasattr(importlib.import_module(f"quditbench.{module}"), name), name
    removed_attributes = {
        quditbench.PulseSchedule: ("to_text", "from_text", "save", "load", "total_time", "n_slots"),
        quditbench.SuperOperator: ("identity",),
        quditbench.DensityMatrix: ("maximally_mixed", "trace"),
        quditbench.KrausSet: ("to_superoperator", "__len__"),
        quditbench.HaarSampler: ("split", "state"),
    }
    for cls, names in removed_attributes.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
