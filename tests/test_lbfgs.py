"""The in-repo L-BFGS against scipy's L-BFGS-B, whose unconstrained path it
follows, and the library against an interpreter without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der

import quditbench
from quditbench import HaarSampler, Operator
from quditbench._lbfgs import lbfgs
from quditbench.pulses import infidelity_and_gradient


def _grape_objective(d):
    # the GRAPE objective of one CUE gate from its gate-dependence starting pulse
    gate_seed, grape_seed = np.random.SeedSequence([1, d, 0]).spawn(2)
    target = Operator(HaarSampler(d, gate_seed).unitary()).entries
    n_slots = 8 * d
    dt = 1.0 / n_slots
    shape = (n_slots, 2 * (d - 1))

    def objective(x):
        infid, grad = infidelity_and_gradient(x.reshape(shape), target, dt)
        return infid, grad.ravel()

    return objective, np.random.default_rng(grape_seed).uniform(-0.1, 0.1, size=shape).ravel() / dt


def _rosen_objective():
    return (lambda x: (rosen(x), rosen_der(x))), np.array([-1.2, 1.0, -0.5, 0.8, 1.3])


def _first_iterates(run, n):
    iterates = []

    def record(x):
        iterates.append(x.copy())
        return len(iterates) == n

    run(record)
    return iterates


@pytest.mark.parametrize("case", ["grape-2", "grape-3", "grape-4", "rosen"])
def test_first_iterates_match_scipy_lbfgsb(case):
    # the GRAPE settings: memory 10, ftol 1e-18, gtol 1e-14, no bounds
    fun, x0 = _rosen_objective() if case == "rosen" else _grape_objective(int(case[-1]))

    def scipy_run(record):
        def callback(xk):
            if record(xk):
                raise StopIteration

        options = {"maxcor": 10, "ftol": 1e-18, "gtol": 1e-14}
        minimize(fun, x0, jac=True, method="L-BFGS-B", callback=callback, options=options)

    ours = _first_iterates(lambda record: lbfgs(fun, x0, lambda x, f: record(x), 500), 10)
    ref = _first_iterates(scipy_run, 10)
    assert len(ours) == len(ref) == 10
    for k, (x, x_ref) in enumerate(zip(ours, ref)):
        assert np.abs(x - x_ref).max() <= 1e-9 * np.abs(x_ref).max(), k


def test_failed_first_search_returns_the_start():
    # a gradient of the wrong sign: every trial along -g rises, the search
    # fails with an empty memory, and the run ends where it began
    calls = []

    def fun(x):
        calls.append(x.copy())
        return rosen(x), -rosen_der(x)

    x0 = np.array([-1.2, 1.0])
    x, f, iterations = lbfgs(fun, x0, lambda x, f: False, 500)
    assert iterations == 0 and np.array_equal(x, x0) and f == rosen(x0)
    # the start and the search's 20 trials, less the trials equal to the
    # point before them, whose values are reused as scipy's wrapper does
    ours, calls[:] = calls[:], []
    options = {"maxcor": 10, "ftol": 1e-18, "gtol": 1e-14}
    minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)
    assert len(ours) == len(calls) < 21
    assert not any(np.array_equal(a, b) for a, b in zip(ours, ours[1:]))


def test_iteration_cap_and_callback_end_the_run():
    fun, x0 = _rosen_objective()
    assert lbfgs(fun, x0, lambda x, f: False, 3)[2] == 3
    seen = []
    x, f, iterations = lbfgs(fun, x0, lambda x, f: seen.append(f) or f < 1.0, 500)
    assert f < 1.0 <= min(seen[:-1]) and iterations == len(seen)


def test_library_runs_without_scipy(tmp_path):
    # a fresh interpreter in which importing scipy fails: the CLI runs one
    # d = 2 gate through GRAPE and the gate channel, and Monte Carlo runs at d = 3
    script = f"""
import sys
sys.modules["scipy"] = None
from quditbench import HaarSampler, agi_monte_carlo, identity, unitary_superoperator
from quditbench.cli import main
assert main(["gate-dependence", "--gates", "1", "--dims", "2", "--out", {str(tmp_path / "g.csv")!r}]) == 0
mean, se = agi_monte_carlo(unitary_superoperator(identity(3)), identity(3), 100, HaarSampler(3, seed=1))
assert abs(mean) < 1e-12
assert not any(name.startswith("scipy.") for name in sys.modules)
"""
    src = str(Path(quditbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "g.csv").read_text().count("\n") == 2
