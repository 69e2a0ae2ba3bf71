"""Experiment runner: slope scans, deviation sweeps, gate-dependence, critical curve.

Every experiment writes a CSV row table plus a JSON summary and is
deterministic under its seed: work items are generated and merged in sorted
order and floats are serialized with repr, so identical specs give
byte-identical output files.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytic import c_general, c_qubits_dephasing, c_qudit_dephasing, critical_ratio, naive_ratio
from .fidelity import HaarSampler, agi_curve, agi_exact, agi_first_order
from .fitting import FitResult, deviation_stats, fit_slope, relative_deviation
from .operators import NoiseModel, Operator, is_integer, require_dimension, spin_plus, spin_xy, spin_z
from .pulses import grape_batch_size, grape_optimize_many, schedule_to_propagator

# Beyond this Hilbert dimension the critical-curve experiment switches from
# the exact channel to the first-order Kraus channel.  The published ratio
# 227.5 at n = 6 is a first-order quantity: at d = 64 the exact channel's
# slope on the [0, 1e-4] grid is 2.2% off the first-order value, because the
# second-order term is large there.
EXACT_CHANNEL_DIM_LIMIT = 32
# A critical-curve row whose fitted slope is further than this from its
# first-order slope, relative, is not a first-order ratio and is flagged:
# the tolerance acceptance criterion 3 applies to the ratios.
FIRST_ORDER_GAP_TOL = 0.01


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of one named experiment.

    ``dims`` holds qudit dimensions, except for qubit-ensemble experiments
    and the critical curve, where it holds qubit counts n.  Dimensions, the
    grid's point count, ``n_gates`` and ``seed`` are integers.
    """

    name: str
    dims: tuple[int, ...]
    gamma_t_grid: tuple[float, float, int]
    gates: str = "identity"  # "identity" or "cue"
    n_gates: int = 0
    seed: int = 0
    scale: str = "desk"
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        lo, hi, n = self.gamma_t_grid
        if not (0 <= lo < hi <= 1.0) or not is_integer(n) or n < 2:
            raise ValueError(f"invalid gamma_t grid {self.gamma_t_grid}")
        if not self.dims:
            raise ValueError("invalid dims: need at least one")
        for d in self.dims:
            require_dimension(d, "dims entry")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"repeated dimension in dims {self.dims}")
        if self.scale not in ("desk", "paper"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.gates not in ("identity", "cue"):
            raise ValueError(f"unknown gate spec {self.gates!r}")
        if not is_integer(self.n_gates):
            raise ValueError(f"n_gates must be an integer, got {self.n_gates!r}")
        if self.gates == "cue" and self.n_gates < 1:
            raise ValueError("cue gates need n_gates >= 1")
        if self.gates == "cue" and min(self.dims) < 2:
            raise ValueError(f"cue gates need every dimension >= 2, got dims {self.dims}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.output_path is not None and Path(self.output_path).suffix == ".json":
            raise ValueError(f"output path {self.output_path!r} would be overwritten by its .json summary")

    def grid(self) -> np.ndarray:
        lo, hi, n = self.gamma_t_grid
        return np.linspace(lo, hi, n)


def default_spec(name: str, scale: str = "desk", seed: int = 0) -> ExperimentSpec:
    """The registry's spec for ``name``: desk scale keeps runtimes CI-friendly,
    paper scale restores the published parameter ranges."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    entry = EXPERIMENTS[name]
    fields = {**entry.desk, **entry.paper} if scale == "paper" else entry.desk
    return ExperimentSpec(name, seed=seed, scale=scale, **fields)


@functools.cache
def collapse_model(kind: str, d: int) -> NoiseModel:
    """Noise model for a channel kind at unit rate (gamma folded into gamma_t).

    Cached: the model is immutable, and a slope scan asks for it twice (the
    curve and its analytic slope)."""
    if kind == "Jz":
        return NoiseModel.single(1.0, spin_z(d))
    if kind == "Jx":
        return NoiseModel.single(1.0, spin_xy(d)[0])
    if kind == "Jplus":
        return NoiseModel.single(1.0, spin_plus(d))
    if kind == "JxJyJz":
        jx, jy = spin_xy(d)
        l = Operator(jx.entries + jy.entries + spin_z(d).entries)
        return NoiseModel.single(1.0, l)
    if kind == "qubit-ensemble-Sz":
        return NoiseModel.site_dephasing(d)  # here d is the qubit count
    raise ValueError(f"unknown channel kind {kind!r}")


def analytic_slope(kind: str, d: int) -> float:
    if kind == "Jz":
        return c_qudit_dephasing(d)
    if kind == "qubit-ensemble-Sz":
        return c_qubits_dephasing(d)
    noise = collapse_model(kind, d)
    return c_general(noise.terms[0][1])


@dataclass(frozen=True)
class ExperimentResult:
    """Row table, JSON summary and console lines of one experiment run."""

    fieldnames: tuple[str, ...]
    rows: list[dict]
    summary: dict
    lines: tuple[str, ...] = ()


def _fit_to_dict(fit: FitResult) -> dict:
    return {
        "slope": fit.slope_c,
        "one_minus_r2": fit.one_minus_r2,
        "n_points": fit.n_points,
        "gamma_t_min": fit.gamma_t_range[0],
        "gamma_t_max": fit.gamma_t_range[1],
    }


def _slope_scan(spec: ExperimentSpec, channels: tuple[str, ...]) -> ExperimentResult:
    grid = spec.grid()
    rows = []
    fits = {}
    for kind in channels:
        for d in spec.dims:
            noise = collapse_model(kind, d)
            c_th = analytic_slope(kind, d)
            curve = agi_curve(noise, grid)
            fit = fit_slope(grid, curve)
            fits[f"{kind}:{d}"] = {
                **_fit_to_dict(fit),
                "analytic": c_th,
                "relative_error": relative_deviation(fit.slope_c, c_th) if c_th else 0.0,
            }
            for gt, agi in zip(grid, curve):
                linear = c_th * gt
                rows.append(
                    {
                        "channel": kind,
                        "d_or_n": d,
                        "gamma_t": gt,
                        "agi_exact": agi,
                        "agi_linear_prediction": linear,
                        "relative_deviation": relative_deviation(agi, linear) if linear else 0.0,
                    }
                )
    fieldnames = (
        "channel",
        "d_or_n",
        "gamma_t",
        "agi_exact",
        "agi_linear_prediction",
        "relative_deviation",
    )
    lines = tuple(
        f"{key:>24}: slope {fit['slope']:.8g}  analytic {fit['analytic']:.8g}  "
        f"rel.err {fit['relative_error']:+.3e}  1-R^2 {fit['one_minus_r2']:.3e}"
        for key, fit in sorted(fits.items())
    )
    return ExperimentResult(fieldnames, rows, {"fits": fits}, lines)


# ---------------------------------------------------------------------------
# Gate dependence
# ---------------------------------------------------------------------------

GATE_SLOTS_PER_LEVEL = 8  # n_slots = 8 d reaches 1e-8 gate infidelity comfortably
GATE_TOTAL_TIME = 1.0
GATE_GOAL_INFIDELITY = 1e-8


def _gate_row(d, index, grid, agis, infidelity, converged, iterations) -> dict:
    fit = fit_slope(grid, agis)
    return {
        "d": d,
        "gate_index": index,
        "slope": fit.slope_c,
        "one_minus_r2": fit.one_minus_r2,
        "slope_deviation": relative_deviation(fit.slope_c, c_qudit_dephasing(d)),
        "grape_infidelity": infidelity,
        "grape_converged": converged,
        "grape_iterations": iterations,
    }


def _gate_batch(args) -> list[dict]:
    """A batch of CUE gates of one dimension: synthesize their pulses in
    lockstep (``grape_optimize_many``), then fit each gate's AGI slope under
    dephasing.

    The AGI is taken relative to the sampled target gate itself, so the
    residual control error of the synthesized pulse is part of the measured
    deviation (it is bounded by the optimizer goal).  The slope also depends
    on the path the pulse takes, not only on the gate it reaches: two
    converged GRAPE runs for one gate can differ in slope by ~1e-4 relative.
    """
    d, first, seeds, grid = args
    targets = [Operator(HaarSampler(d, gate_seed).unitary()) for gate_seed, _ in seeds]
    results = grape_optimize_many(
        targets,
        n_slots=GATE_SLOTS_PER_LEVEL * d,
        total_time=GATE_TOTAL_TIME,
        goal_infidelity=GATE_GOAL_INFIDELITY,
        seeds=[grape_seed for _, grape_seed in seeds],
    )
    rows = []
    for index, (target, res) in enumerate(zip(targets, results), start=first):
        channels = schedule_to_propagator(res.schedule, collapse_model("Jz", d), grid / GATE_TOTAL_TIME)
        agis = agi_exact(channels, target)
        rows.append(_gate_row(d, index, grid, agis, res.infidelity, res.converged, res.iterations))
    return rows


def _gate_rows(spec: ExperimentSpec, workers: int) -> list[dict]:
    """One row per CUE gate, or with identity gates the control case: H = 0,
    no GRAPE, one row per dimension.

    Each dimension's gates go to the optimizer in batches of
    ``pulses.grape_batch_size``; with ``workers`` > 1 a process pool maps
    the batches.  A gate's row depends neither on its batch nor on the pool.
    """
    grid = spec.grid()
    if spec.gates == "identity":
        return [
            _gate_row(d, 0, grid, agi_curve(collapse_model("Jz", d), grid), 0.0, True, 0)
            for d in sorted(spec.dims)
        ]
    # Each gate's seeds depend only on (seed, d, g), not on the other
    # dimensions in the run.
    batches = []
    for d in sorted(spec.dims):
        seeds = [np.random.SeedSequence([spec.seed, d, g]).spawn(2) for g in range(spec.n_gates)]
        size = grape_batch_size(d, GATE_SLOTS_PER_LEVEL * d)
        batches.extend((d, lo, seeds[lo : lo + size], grid) for lo in range(0, spec.n_gates, size))
    workers = min(workers, len(batches))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~6 ms to import; serial runs skip it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for batch in pool.map(_gate_batch, batches) for row in batch]
    else:
        rows = [row for batch in batches for row in _gate_batch(batch)]
    return sorted(rows, key=lambda r: (r["d"], r["gate_index"]))


def _run_gate_dependence(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    """Distribution of fitted AGI slopes over random CUE gates, per dimension.

    GRAPE non-convergence is counted and flagged per row, never silently
    dropped; only converged gates enter the deviation statistics.
    """
    rows = _gate_rows(spec, workers)
    stats = {}
    for d in sorted(spec.dims):
        devs = [r["slope_deviation"] for r in rows if r["d"] == d and r["grape_converged"]]
        if len(devs) >= 2:
            stats[d] = deviation_stats(devs)
    n_failures = sum(1 for r in rows if not r["grape_converged"])
    fieldnames = (
        "d",
        "gate_index",
        "slope",
        "one_minus_r2",
        "slope_deviation",
        "grape_infidelity",
        "grape_converged",
    )
    iterations: dict[str, list[int]] = {}
    for r in rows:
        iterations.setdefault(str(r["d"]), []).append(r["grape_iterations"])
    summary = {
        "n_failures": n_failures,
        "stats": {str(d): s for d, s in stats.items()},
        "grape_iterations": {
            d: {"total": sum(its), "max": max(its)} for d, its in iterations.items()
        },
    }
    lines = [
        f"d={d}: mean {s['mean']:+.3e}  std {s['std']:.3e}  range [{s['min']:+.3e}, {s['max']:+.3e}]"
        for d, s in sorted(stats.items())
    ]
    if n_failures:
        lines.append(f"warning: {n_failures} gate optimizations did not converge")
    return ExperimentResult(fieldnames, rows, summary, tuple(lines))


# ---------------------------------------------------------------------------
# Critical curve
# ---------------------------------------------------------------------------


def _run_critical_curve(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    """Simulated slope ratio c_qudit / c_qubits per qubit count n (d = 2^n).

    Dimensions beyond ``EXACT_CHANNEL_DIM_LIMIT`` use the first-order Kraus
    channel: the published ratio there (227.5 at n = 6) is the first-order
    one, and the exact slope at d = 64 is 2.2% off it on the [0, 1e-4] grid.
    The ``method`` column records which path produced each row.

    The summary records, per row and system, the gap fitted slope /
    first-order slope - 1.  The first-order slope is
    ``analytic.c_qudit_dephasing`` / ``c_qubits_dephasing`` on both routes:
    it equals the first-order Kraus slope (d s - t) / (d (d+1)) of
    ``fidelity.agi_first_order``.  A row with a gap past
    ``FIRST_ORDER_GAP_TOL`` gets a console warning, since its ratio is then
    not the first-order ratio ``ratio_analytic`` describes.
    """
    grid = spec.grid()
    rows = []
    gaps = {}
    for n in sorted(spec.dims):
        d = 2**n
        method = "exact" if d <= EXACT_CHANNEL_DIM_LIMIT else "kraus1"
        curve = agi_curve if method == "exact" else agi_first_order
        c_d = fit_slope(grid, curve(collapse_model("Jz", d), grid)).slope_c
        c_b = fit_slope(grid, curve(collapse_model("qubit-ensemble-Sz", n), grid)).slope_c
        gaps[str(n)] = {
            "qudit": c_d / c_qudit_dephasing(d) - 1.0,
            "qubits": c_b / c_qubits_dephasing(n) - 1.0,
        }
        rows.append(
            {
                "n": n,
                "d": d,
                "c_qudit": c_d,
                "c_qubits": c_b,
                "ratio_simulated": c_d / c_b,
                "ratio_analytic": critical_ratio(d),
                "ratio_naive": naive_ratio(d),
                "method": method,
            }
        )
    fieldnames = (
        "n",
        "d",
        "c_qudit",
        "c_qubits",
        "ratio_simulated",
        "ratio_analytic",
        "ratio_naive",
        "method",
    )
    summary = {"rows": {str(r["n"]): r["ratio_simulated"] for r in rows}, "first_order_gaps": gaps}
    lines = [
        f"n={r['n']} d={r['d']}: simulated {r['ratio_simulated']:.6g}  "
        f"analytic {r['ratio_analytic']:.6g}  naive {r['ratio_naive']:.6g}  [{r['method']}]"
        for r in rows
    ]
    for n, gap in gaps.items():
        if max(abs(gap["qudit"]), abs(gap["qubits"])) > FIRST_ORDER_GAP_TOL:
            lines.append(
                f"warning: n={n}: fitted slopes {gap['qudit']:+.2%} (qudit) and {gap['qubits']:+.2%} "
                "(qubits) off first order; the simulated ratio is not a first-order ratio"
            )
    return ExperimentResult(fieldnames, rows, summary, tuple(lines))


# ---------------------------------------------------------------------------
# Registry and output writers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """Registry entry: the runner(spec, workers), the spec fields of the desk
    scale and the fields the paper scale overrides."""

    run: Callable[[ExperimentSpec, int], ExperimentResult]
    desk: dict
    paper: dict


_SMALL_GRID = (0.0, 1e-4, 11)

# The CLI builds one subcommand per key, in this order.
EXPERIMENTS: dict[str, Experiment] = {
    "slopes-qudit": Experiment(
        lambda spec, workers: _slope_scan(spec, ("Jz",)),
        desk={"dims": tuple(range(2, 13, 2)), "gamma_t_grid": _SMALL_GRID},
        paper={"dims": tuple(range(2, 23, 2))},
    ),
    "slopes-qubits": Experiment(
        lambda spec, workers: _slope_scan(spec, ("qubit-ensemble-Sz",)),
        desk={"dims": tuple(range(1, 6)), "gamma_t_grid": _SMALL_GRID},
        paper={"dims": tuple(range(1, 8))},
    ),
    "deviation-sweep": Experiment(
        lambda spec, workers: _slope_scan(spec, ("Jz",)),
        desk={"dims": (2, 4, 8, 12), "gamma_t_grid": (5e-4, 5e-2, 12)},
        paper={"dims": tuple(range(2, 23, 2))},
    ),
    "gate-dependence": Experiment(
        _run_gate_dependence,
        desk={"dims": (2, 3, 4), "gamma_t_grid": (1e-5, 1e-3, 9), "gates": "cue", "n_gates": 200},
        paper={"dims": tuple(range(2, 9)), "n_gates": 5000},
    ),
    "channels-compare": Experiment(
        lambda spec, workers: _slope_scan(spec, ("Jz", "Jx", "Jplus", "JxJyJz")),
        desk={"dims": tuple(range(2, 13, 2)), "gamma_t_grid": _SMALL_GRID},
        paper={"dims": tuple(range(2, 23, 2))},
    ),
    "critical-curve": Experiment(
        _run_critical_curve,
        desk={"dims": (1, 2, 3, 6), "gamma_t_grid": _SMALL_GRID},
        paper={"dims": (1, 2, 3, 4, 5, 6)},
    ),
}


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run a named experiment; deterministic under (spec, seed).

    When ``spec.output_path`` is set, the row table goes there as CSV and the
    summary next to it with a .json suffix; if either cannot take a file,
    ``ValueError`` is raised before any work starts, as for a ``workers``
    count that is not an integer >= 1.
    """
    require_dimension(workers, "workers")
    if spec.output_path is not None:
        check_outputs(spec.output_path)
    result = EXPERIMENTS[spec.name].run(spec, workers)
    header = {"name": spec.name, "seed": spec.seed, "scale": spec.scale}
    result = replace(result, summary={**header, **result.summary})
    if spec.output_path is not None:
        path = Path(spec.output_path)
        write_csv(result.fieldnames, result.rows, path)
        write_summary(result, path.with_suffix(".json"))
    return result


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def check_output_path(path) -> None:
    """Reject an output path that cannot take a file: one that names an
    existing directory ('' is '.') or lies in a missing directory."""
    out = os.fspath(path) or "."
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output directory {parent!r} does not exist")
    if os.path.isdir(out):
        raise ValueError(f"output path {out!r} is a directory, not a file")


def check_outputs(path) -> None:
    """``check_output_path`` for a CSV path and for its .json summary."""
    check_output_path(path)
    check_output_path(Path(path).with_suffix(".json"))


def write_csv(fieldnames, rows, path) -> None:
    """Write rows (dicts keyed by fieldnames) as CSV; None is an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_cell(row[k]) for k in fieldnames] for row in rows)


def write_summary(result: ExperimentResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
