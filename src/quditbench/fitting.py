"""Slope extraction AGI = c * gamma_t and deviation statistics.

The model is a line through the origin (a trace-preserving channel has
AGI(0) = 0 exactly).  The least-squares problem is weighted by 1/y^2, i.e.
relative residuals: AGI data spans several decades along a gamma_t grid and
the small-gamma_t points carry the linear-response information the slope is
supposed to capture.  An exact line is recovered exactly, and scaling all
AGI values by s scales the slope by exactly s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import finite_values, nonnegative_values


@dataclass(frozen=True)
class FitResult:
    """Through-origin slope fit summary."""

    slope_c: float
    one_minus_r2: float
    n_points: int
    gamma_t_range: tuple[float, float]


def fit_slope(gamma_t, agi) -> FitResult:
    """Fit agi = c * gamma_t through the origin.

    Points with agi == 0 (the gamma_t = 0 anchor) lie on every such line and
    carry no weight; they still enter the reported 1 - R^2, which is computed
    unweighted against the fitted model.
    """
    x = nonnegative_values(gamma_t, "gamma_t values")
    y = finite_values(agi, "agi values")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("gamma_t and agi must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if np.all(x == x[0]):
        raise ValueError("degenerate fit: all gamma_t values identical")

    live = y != 0.0
    if not np.any(live):
        slope = 0.0
    else:
        w = 1.0 / y[live] ** 2
        slope = float((w * x[live] * y[live]).sum() / (w * x[live] ** 2).sum())

    residual = y - slope * x
    ss_res = float((residual**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        one_minus_r2 = 0.0 if ss_res < 1e-30 else 1.0
    else:
        one_minus_r2 = min(max(ss_res / ss_tot, 0.0), 1.0)
    return FitResult(slope, one_minus_r2, int(x.size), (float(x.min()), float(x.max())))


def relative_deviation(agi_sim: float, agi_th: float) -> float:
    """Relative deviation 1 - agi_sim / agi_th of a simulated value from a
    theoretical one."""
    if agi_th == 0:
        raise ValueError("theoretical value must be nonzero")
    return float(1.0 - agi_sim / agi_th)


# Percentiles deviation_stats reports, for candlestick-style plots.
PERCENTILES = (5, 25, 50, 75, 95)


def deviation_stats(samples) -> dict:
    """Mean, population std, extrema and percentiles of a deviation sample,
    as the JSON-ready dict {"mean", "std", "min", "max", "percentiles":
    {"5": ..., "95": ...}}."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 samples")
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "percentiles": {str(p): float(np.percentile(arr, p)) for p in PERCENTILES},
    }
