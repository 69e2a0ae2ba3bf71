"""The benchmark's workloads: seeded inputs, one pass through quditbench's
public API, and a correctness check of every work item.

A pass is a closed loop with one caller: each library call starts only when
the previous one has returned, in one process with ``workers=1``.  Every
work item ends as an ``Item``; an item whose stage raised counts as failed.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quditbench import analytic, channels, experiments, fidelity, lindblad
from quditbench.operators import Operator, identity

# Tolerances of the checks, taken from the acceptance criteria where one
# exists: dense slopes within 0.1% of their closed form (criteria 1, 2),
# critical ratios within 1% (criterion 3), gate slopes inside the 1% band
# (criterion 9), Monte Carlo within a few standard errors.  Dimensions beyond
# 12 (critical curve, channels-compare) carry a second-order term of up to
# 0.6% at gamma_t = 1e-4, so their slopes get the 1% tolerance too.
SLOPE_RTOL = 1e-3
RATIO_RTOL = 1e-2
GATE_BAND = 1e-2
MC_SIGMAS = 5.0

SMALL_GRID = (0.0, 1e-4, 11)
GATE_GRID = (1e-5, 1e-3, 9)
COMPARE_KINDS = ("Jz", "Jx", "Jplus", "JxJyJz")

# Everything a check compares against; tests substitute perturbed versions.
CLOSED_FORMS = {
    "c_qudit_dephasing": analytic.c_qudit_dephasing,
    "c_qubits_dephasing": analytic.c_qubits_dephasing,
    "c_general": analytic.c_general,
    "critical_ratio": analytic.critical_ratio,
}


@dataclass(frozen=True)
class Item:
    """One checked work item; ``rel_err`` feeds max_rel_err when set."""

    label: str
    ok: bool
    rel_err: float | None = None
    error: str | None = None


def _rel(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)


def _slope_item(label: str, value: float, reference: float, rtol: float) -> Item:
    err = _rel(value, reference)
    return Item(label, err <= rtol, err)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _dense_inputs(rng, seed: int, scale: str) -> dict:
    full = scale == "full"
    qudits = list(range(2, 13, 2)) if full else [2, 4]
    qubits = list(range(1, 6)) if full else [1, 2]
    curve = list(range(1, 7)) if full else [1, 2]
    # The scans have no random inputs: the seed orders the dimensions and is
    # recorded in every spec, so the work and the errors stay the same.
    return {
        "seed": seed,
        "slopes-qudit": [int(d) for d in rng.permutation(qudits)],
        "slopes-qubits": [int(n) for n in rng.permutation(qubits)],
        "critical-curve": [int(n) for n in rng.permutation(curve)],
    }


def _gate_inputs(rng, seed: int, scale: str) -> dict:
    # The seed picks the CUE gates and the GRAPE starting pulses.
    full = scale == "full"
    return {
        "seed": seed,
        "dims": [2, 3, 4] if full else [2],
        "n_gates": 25 if full else 2,
    }


def _oracle_inputs(rng, seed: int, scale: str) -> dict:
    full = scale == "full"
    dims = [4, 8, 12, 16, 18] if full else [2, 3]
    pairs = [("Jz", 6), ("Jx", 8), ("Jplus", 10), ("JxJyJz", 12)] if full else [("Jz", 2), ("Jx", 3)]
    return {
        "seed": seed,
        "channels-compare": [int(d) for d in rng.permutation(dims)],
        "oracles": [
            {
                "kind": kind,
                "d": d,
                "gamma_t": 1e-3,
                "samples": 20_000 if full else 2_000,
                "mc_seed": int(rng.integers(2**32)),
            }
            for kind, d in pairs
        ],
    }


_INPUTS = {
    "dephasing-dense": _dense_inputs,
    "gate-synthesis": _gate_inputs,
    "general-oracles": _oracle_inputs,
}

WORKLOADS = tuple(_INPUTS)
SCALES = ("full", "tiny")


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """JSON-serialisable inputs of one workload; a pure function of the seed."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    return _INPUTS[workload](np.random.default_rng(seed), seed, scale)


# ---------------------------------------------------------------------------
# Stages: (label, items it yields, thunk)
# ---------------------------------------------------------------------------


def _experiment(name, dims, outdir: Path, seed: int, grid=SMALL_GRID, tag=None, **kw):
    """Run one named experiment; its CSV and JSON land in ``outdir``."""
    path = outdir / f"{tag or name}.csv"
    spec = experiments.ExperimentSpec(name, tuple(dims), grid, seed=seed, output_path=str(path), **kw)
    return experiments.run_experiment(spec, workers=1)


def _dense_stages(inp: dict, outdir: Path, closed: dict):
    seed = inp["seed"]

    def qudit():
        fits = _experiment("slopes-qudit", inp["slopes-qudit"], outdir, seed).summary["fits"]
        return [
            _slope_item(f"Jz:{d}", fits[f"Jz:{d}"]["slope"], closed["c_qudit_dephasing"](d), SLOPE_RTOL)
            for d in inp["slopes-qudit"]
        ]

    def qubits():
        fits = _experiment("slopes-qubits", inp["slopes-qubits"], outdir, seed).summary["fits"]
        return [
            _slope_item(
                f"qubits:{n}",
                fits[f"qubit-ensemble-Sz:{n}"]["slope"],
                closed["c_qubits_dephasing"](n),
                SLOPE_RTOL,
            )
            for n in inp["slopes-qubits"]
        ]

    def curve():
        rows = _experiment("critical-curve", inp["critical-curve"], outdir, seed).rows
        items = []
        for r in rows:
            n, d = r["n"], r["d"]
            items.append(_slope_item(f"curve-qudit:{n}", r["c_qudit"], closed["c_qudit_dephasing"](d), RATIO_RTOL))
            items.append(_slope_item(f"curve-qubits:{n}", r["c_qubits"], closed["c_qubits_dephasing"](n), RATIO_RTOL))
            items.append(_slope_item(f"ratio:{n}", r["ratio_simulated"], closed["critical_ratio"](d), RATIO_RTOL))
        return items

    return [
        ("slopes-qudit", len(inp["slopes-qudit"]), qudit),
        ("slopes-qubits", len(inp["slopes-qubits"]), qubits),
        ("critical-curve", 3 * len(inp["critical-curve"]), curve),
    ]


def _gate_stages(inp: dict, outdir: Path, closed: dict):
    seed, dims = inp["seed"], inp["dims"]

    def control():
        # H = 0 and the identity gate: the pulse-free control of the same
        # experiment, the only part with a closed-form slope.
        rows = _experiment(
            "gate-dependence", dims, outdir, seed, grid=GATE_GRID, n_gates=1, tag="gate-control"
        ).rows
        return [
            _slope_item(f"control:{r['d']}", r["slope"], closed["c_qudit_dephasing"](r["d"]), SLOPE_RTOL)
            for r in rows
        ]

    def cue():
        rows = _experiment(
            "gate-dependence", dims, outdir, seed, grid=GATE_GRID, gates="cue", n_gates=inp["n_gates"]
        ).rows
        # Slope deviations of sampled gates are physics, not error: only the
        # band and convergence are checked.
        return [
            Item(
                f"gate:{r['d']}:{r['gate_index']}",
                bool(r["grape_converged"])
                and _rel(r["slope"], closed["c_qudit_dephasing"](r["d"])) <= GATE_BAND,
            )
            for r in rows
        ]

    return [
        ("gate-control", len(dims), control),
        ("gate-dependence", len(dims) * inp["n_gates"], cue),
    ]


def _oracle_stages(inp: dict, outdir: Path, closed: dict):
    seed, dims = inp["seed"], inp["channels-compare"]

    def compare():
        fits = _experiment("channels-compare", dims, outdir, seed).summary["fits"]
        return [
            _slope_item(
                f"{kind}:{d}",
                fits[f"{kind}:{d}"]["slope"],
                closed["c_general"](experiments.collapse_model(kind, d).terms[0][1]),
                RATIO_RTOL,
            )
            for kind in COMPARE_KINDS
            for d in dims
        ]

    def oracle(o: dict):
        def run():
            kind, d, gt = o["kind"], o["d"], o["gamma_t"]
            noise = experiments.collapse_model(kind, d)
            l = noise.terms[0][1]
            gen = lindblad.liouvillian(Operator(np.zeros((d, d))), noise)
            channel = lindblad.propagate(gen, gt)
            exact = fidelity.agi_exact(channel, identity(d))
            sampler = fidelity.HaarSampler(d, o["mc_seed"])
            mc, se = fidelity.agi_monte_carlo(channel, identity(d), o["samples"], sampler)
            kraus = fidelity.agi_kraus(channels.kraus_first_order(l, gt))
            # First-order Kraus and the exact channel differ at second order
            # in gamma_t L^dag L.
            ldl = np.linalg.norm(l.entries.conj().T @ l.entries, 2)
            return [
                Item(f"mc:{kind}:{d}", abs(mc - exact) <= MC_SIGMAS * se),
                Item(f"kraus:{kind}:{d}", abs(kraus - exact) <= (gt * ldl) ** 2),
            ]

        return run

    return [("channels-compare", len(COMPARE_KINDS) * len(dims), compare)] + [
        (f"oracle:{o['kind']}:{o['d']}", 2, oracle(o)) for o in inp["oracles"]
    ]


_STAGES = {
    "dephasing-dense": _dense_stages,
    "gate-synthesis": _gate_stages,
    "general-oracles": _oracle_stages,
}


def run_pass(workload: str, inputs: dict, outdir: Path, closed: dict = CLOSED_FORMS) -> list[Item]:
    """Run every stage of a workload once; a stage that raises fails all its items."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    items: list[Item] = []
    for label, n_items, stage in _STAGES[workload](inputs, outdir, closed):
        try:
            items.extend(stage())
        except Exception:
            error = traceback.format_exc()
            items.extend(Item(f"{label}[{i}]", False, None, error) for i in range(n_items))
    return items
