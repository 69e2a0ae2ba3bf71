"""Acceptance suite: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them live).

Criteria (desk scale):
 1   qudit slope law, even d in 2..12, gamma_t in [0, 1e-4]
 2   multiqubit slope law, n in 1..5
 3   critical ratios 1, 2.5, 7 (simulated) and 227.5 (first-order channel)
 4   channel comparisons J_x / J_+ / J_x+J_y+J_z vs J_z
 5   Haar-average variance Monte Carlo vs closed form
 6   first-order Kraus residual is second order in gamma_t
 7   perturbative series: term-by-term match and truncation exponents
 8   deviation from linearity grows with d and gamma_t
 9   gate-dependence band: 200 CUE gates at d in {2,3,4}
 10  platform report: max advantageous dimension vs tau ratio
 11  GRAPE gradient check and identity convergence
 12  determinism: byte-identical CSV reruns
"""

import os
import time

import numpy as np
import pytest

from quditbench import (
    DensityMatrix,
    HaarSampler,
    NoiseModel,
    Operator,
    agi_exact,
    apply_channel,
    c_general,
    c_qubits_dephasing,
    c_qudit_dephasing,
    fit_slope,
    grape_optimize,
    haar_variance_monte_carlo,
    identity,
    kraus_first_order,
    liouvillian,
    perturbative_expansion,
    propagate,
    relative_deviation,
    spin_plus,
    spin_xy,
    spin_z,
)
from quditbench.channels import expansion_terms
from quditbench.lindblad import SuperOperator
from quditbench.experiments import ExperimentSpec, run_experiment
from quditbench.platforms import load_records
from quditbench.pulses import infidelity_and_gradient

from oracles import dephasing_generator, zero_h


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_qudit_slope_law():
    start = time.monotonic()
    grid = np.linspace(0.0, 1e-4, 11)
    worst_err, worst_r2 = 0.0, 0.0
    for d in (2, 4, 6, 8, 10, 12):
        gen = dephasing_generator(d)
        agis = [agi_exact(propagate(gen, gt), identity(d)) for gt in grid]
        fit = fit_slope(grid, agis)
        err = abs(relative_deviation(fit.slope_c, c_qudit_dephasing(d)))
        worst_err = max(worst_err, err)
        worst_r2 = max(worst_r2, fit.one_minus_r2)
    elapsed = time.monotonic() - start
    ok = worst_err <= 1e-3 and worst_r2 < 1e-5 and elapsed <= 120
    _report(1, ok, f"qudit slopes d<=12: max rel err {worst_err:.2e} (<=1e-3), max 1-R^2 {worst_r2:.2e} (<1e-5), {elapsed:.1f}s")


def test_criterion_02_multiqubit_slope_law():
    start = time.monotonic()
    grid = np.linspace(0.0, 1e-4, 11)
    worst_err, worst_r2 = 0.0, 0.0
    for n in (1, 2, 3, 4, 5):
        gen = liouvillian(zero_h(2**n), NoiseModel.site_dephasing(n))
        agis = [agi_exact(propagate(gen, gt), identity(2**n)) for gt in grid]
        fit = fit_slope(grid, agis)
        err = abs(relative_deviation(fit.slope_c, c_qubits_dephasing(n)))
        worst_err = max(worst_err, err)
        worst_r2 = max(worst_r2, fit.one_minus_r2)
    elapsed = time.monotonic() - start
    ok = worst_err <= 1e-3 and worst_r2 < 1e-7 and elapsed <= 120
    _report(2, ok, f"qubit slopes n<=5: max rel err {worst_err:.2e} (<=1e-3), max 1-R^2 {worst_r2:.2e} (<1e-7), {elapsed:.1f}s")


def test_criterion_03_critical_ratios():
    spec = ExperimentSpec("critical-curve", (1, 2, 3, 6), (0.0, 1e-4, 11))
    rows = {r["n"]: r for r in run_experiment(spec).rows}
    expected = {1: 1.0, 2: 2.5, 3: 7.0, 6: 227.5}
    errs = {n: abs(rows[n]["ratio_simulated"] / expected[n] - 1.0) for n in expected}
    ok = all(e <= 0.01 for e in errs.values()) and rows[6]["method"] == "kraus1"
    detail = ", ".join(f"n={n}: {rows[n]['ratio_simulated']:.4g} ({errs[n]:.2e})" for n in expected)
    _report(3, ok, f"critical ratios within 1%: {detail}")


def test_criterion_04_channel_comparisons():
    spec = ExperimentSpec("channels-compare", (2, 4, 6, 8, 10, 12), (0.0, 1e-4, 11))
    fits = run_experiment(spec).summary["fits"]
    worst = 0.0
    for d in spec.dims:
        base = fits[f"Jz:{d}"]["slope"]
        for kind, factor in (("Jx", 1.0), ("Jplus", 2.0), ("JxJyJz", 3.0)):
            rel = abs(fits[f"{kind}:{d}"]["slope"] / (factor * base) - 1.0)
            worst = max(worst, rel)
    ok = worst <= 5e-3
    _report(4, ok, f"channel slope ratios 1:2:3 vs dephasing, worst rel dev {worst:.2e} (<=0.5%)")


def test_criterion_05_haar_variance_monte_carlo():
    n_samples = 100_000
    worst_sigma = 0.0
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4, 8):
        ops = {
            "Jz": spin_z(d),
            "Jplus": spin_plus(d),
            "random": Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))),
        }
        for name, op in ops.items():
            mean, se = haar_variance_monte_carlo(op, n_samples, HaarSampler(d, seed=d * 100 + len(name)))
            n_sigma = abs(mean - c_general(op)) / se
            worst_sigma = max(worst_sigma, n_sigma)
    ok = worst_sigma <= 3.0
    _report(5, ok, f"Haar-average variance MC (1e5 samples) vs closed form, worst {worst_sigma:.2f} sigma (<=3)")


def test_criterion_06_kraus_residual_order():
    grid = np.logspace(-6, -3, 7)
    slopes = {}
    for d in (2, 4, 8):
        rho = DensityMatrix.pure(HaarSampler(d, seed=d).states(1)[0])
        gen = dephasing_generator(d)
        res = []
        for gt in grid:
            exact = apply_channel(propagate(gen, gt), rho)
            approx = kraus_first_order(spin_z(d), gt).apply(rho)
            res.append(np.abs(exact.entries - approx.entries).max())
        slopes[d] = np.polyfit(np.log(grid), np.log(res), 1)[0]
    ok = all(abs(s - 2.0) <= 0.05 for s in slopes.values())
    detail = ", ".join(f"d={d}: {s:.3f}" for d, s in slopes.items())
    _report(6, ok, f"Kraus-vs-exact residual log-log slopes (2.0 +- 0.05): {detail}")


def test_criterion_07_perturbative_series():
    d = 3
    noise = NoiseModel.single(1.0, spin_z(d))
    rho = DensityMatrix.pure(np.arange(1, d + 1.0))

    # term-by-term: the recursion coefficients, applied as channels, against
    # directly iterated dissipator applications D^k[rho]/k!, for J_z (whose
    # dissipator is diagonal) and J_x
    term_err = 0.0
    for op in (spin_z(d), spin_xy(d)[0]):
        l = op.entries
        ldl = l.conj().T @ l
        terms = expansion_terms(zero_h(d), NoiseModel.single(1.0, op), order=3)
        power = rho.entries.copy()
        for k in range(1, 4):
            power = (l @ power @ l.conj().T - 0.5 * (ldl @ power + power @ ldl)) / k
            applied = apply_channel(SuperOperator(terms[(k, k)]), rho).entries
            term_err = max(term_err, np.abs(applied - power).max())

    # truncation exponents
    gen = dephasing_generator(d)
    grid = np.logspace(-3, -1.2, 7)
    exps = {}
    for order in (1, 2, 3):
        res = []
        for gt in grid:
            exact = apply_channel(propagate(gen, gt), rho)
            approx = perturbative_expansion(rho, zero_h(d), noise, 1.0, gt, order)
            res.append(np.abs(exact.entries - approx.entries).max())
        exps[order] = np.polyfit(np.log(grid), np.log(res), 1)[0]
    ok = term_err < 1e-12 and all(abs(exps[o] - (o + 1)) <= 0.05 for o in exps)
    detail = ", ".join(f"order {o}: exponent {e:.3f}" for o, e in exps.items())
    _report(7, ok, f"series terms match (err {term_err:.1e}) and truncation exponents: {detail}")


def test_criterion_08_deviation_growth():
    def dev(d, gt):
        agi = agi_exact(propagate(dephasing_generator(d), gt), identity(d))
        return relative_deviation(agi, c_qudit_dephasing(d) * gt)

    at_1e2 = {d: dev(d, 1e-2) for d in (4, 8, 12)}
    d8_small = dev(8, 1e-3)
    increasing = at_1e2[4] < at_1e2[8] < at_1e2[12]
    positive = all(v > 0 for v in at_1e2.values())
    ok = increasing and positive and at_1e2[8] > d8_small
    detail = (
        f"dev(gamma_t=1e-2) = {at_1e2[4]:.3f}/{at_1e2[8]:.3f}/{at_1e2[12]:.3f} for d=4/8/12, "
        f"d=8 at 1e-3: {d8_small:.4f}"
    )
    _report(8, ok, detail)


@pytest.fixture(scope="module")
def gate_dependence_run():
    start = time.monotonic()
    spec = ExperimentSpec("gate-dependence", (2, 3, 4), (1e-5, 1e-3, 9), gates="cue", n_gates=200, seed=7)
    # rows depend only on (seed, d, gate index), never on the worker count
    summary = run_experiment(spec, workers=min(2, os.cpu_count() or 1)).summary
    return summary, time.monotonic() - start


def test_criterion_09_gate_dependence_band(gate_dependence_run):
    summary, elapsed = gate_dependence_run
    assert summary["n_failures"] == 0
    stats = summary["stats"]
    worst = max(max(abs(s["min"]), abs(s["max"])) for s in stats.values())
    narrower = stats["4"]["std"] < stats["2"]["std"]
    ok = worst <= 0.01 and narrower and elapsed <= 1800
    detail = (
        f"200 CUE gates: worst |slope deviation| {worst:.2e} (<=1%), "
        f"width d=4 {stats['4']['std']:.2e} < d=2 {stats['2']['std']:.2e}: {narrower}, {elapsed:.0f}s"
    )
    _report(9, ok, detail)


def test_gate_dependence_width_shrinks_with_dimension(gate_dependence_run):
    # distribution widths narrow monotonically from d=2 through d=4
    stats = gate_dependence_run[0]["stats"]
    assert stats["4"]["std"] < stats["3"]["std"] < stats["2"]["std"]


def test_criterion_10_platform_report():
    records = load_records()
    by_label = {r.label: r for r in records}
    reference = by_label["superconducting qubits"]

    # order-of-magnitude figure-of-merit ratios, as the survey table quotes them
    def magnitude(x):
        return 10.0 ** round(np.log10(x))

    ion = by_label["trapped-ion qudits"]
    nuclear = by_label["molecular-magnet nuclear-spin qudit"]
    ratio_ion = magnitude(reference.tau) / magnitude(ion.tau)
    ratio_nuc = magnitude(reference.tau) / magnitude(nuclear.tau)

    from quditbench import max_advantageous_dimension

    cross_ion = max_advantageous_dimension(ratio_ion)
    cross_nuc = max_advantageous_dimension(ratio_nuc)

    # independent analytic crossing: fine scan of the critical curve
    def scan_crossing(ratio):
        ds = np.linspace(2, 100, 2_000_001)
        vals = (ds * ds - 1) / (3 * np.log2(ds))
        return ds[np.searchsorted(vals, ratio)]

    ok = (
        ratio_ion == 10.0
        and ratio_nuc == 100.0
        and abs(cross_ion - 10.0) <= 1.0
        and abs(cross_nuc - 40.0) <= 1.0
        and abs(cross_ion - scan_crossing(10.0)) <= 1.0
        and abs(cross_nuc - scan_crossing(100.0)) <= 1.0
    )
    detail = (
        f"tau ratio 10 -> max advantageous d {cross_ion:.2f} (~10), "
        f"ratio 100 -> {cross_nuc:.2f} (~40)"
    )
    _report(10, ok, detail)


def test_criterion_11_grape_gradient_and_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for d in (2, 3, 4):
        amps = rng.uniform(-2, 2, size=(8, 2 * (d - 1)))
        target = HaarSampler(d, seed=50 + d).unitary()
        dt = 0.125
        _, grad = infidelity_and_gradient(amps, target, dt)
        eps = 1e-6
        fd = np.empty_like(grad)
        for j in range(amps.shape[0]):
            for k in range(amps.shape[1]):
                up, down = amps.copy(), amps.copy()
                up[j, k] += eps
                down[j, k] -= eps
                fp, _ = infidelity_and_gradient(up, target, dt)
                fm, _ = infidelity_and_gradient(down, target, dt)
                fd[j, k] = (fp - fm) / (2 * eps)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    res = grape_optimize(identity(3), n_slots=12, total_time=1.0, goal_infidelity=1e-12, seed=13)
    ok = worst <= 1e-6 and res.infidelity < 1e-10
    _report(11, ok, f"gradient vs FD rel diff {worst:.2e} (<=1e-6); identity infidelity {res.infidelity:.1e} (<1e-10)")


def test_criterion_12_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        spec = ExperimentSpec(
            "slopes-qudit", (2, 4, 6), (0.0, 1e-4, 6), seed=11, output_path=str(tmp_path / f"s{tag}.csv")
        )
        run_experiment(spec)
        outputs.append((tmp_path / f"s{tag}.csv").read_bytes())
    same_slopes = outputs[0] == outputs[1]

    gate_outputs = []
    for tag in ("a", "b"):
        spec = ExperimentSpec(
            "gate-dependence",
            (2,),
            (1e-5, 1e-3, 5),
            gates="cue",
            n_gates=3,
            seed=21,
            output_path=str(tmp_path / f"g{tag}.csv"),
        )
        run_experiment(spec)
        gate_outputs.append((tmp_path / f"g{tag}.csv").read_bytes())
    same_gates = gate_outputs[0] == gate_outputs[1]
    ok = same_slopes and same_gates
    _report(12, ok, f"byte-identical CSV reruns: slopes {same_slopes}, gate-dependence {same_gates}")
