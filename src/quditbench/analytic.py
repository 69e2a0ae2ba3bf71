"""Closed-form first-order AGI slopes and the qudit-vs-qubit critical curve.

All functions return the coefficient c in AGI = c * gamma * t (valid to
first order in gamma*t).  ``critical_ratio`` gives the threshold on the
figure-of-merit ratio tau_qubits / tau_qudit above which a single qudit of
dimension d beats log2(d) identically dephasing qubits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .operators import NoiseModel, Operator, is_integer, require_dimension


def c_qudit_dephasing(d: int) -> float:
    """Slope d(d-1)/12 for a single dephasing qudit (collapse J_z): the
    ensemble law of ``c_qudits_dephasing`` at N = 1."""
    return c_qudits_dephasing(d, 1)


@functools.cache
def c_general(collapse: Operator) -> float:
    """Slope (Tr(L^dag L) - |Tr L|^2 / d) / (d + 1) for an arbitrary collapse
    operator; reduces to Tr(L^dag L)/(d+1) for traceless L.  It is also the
    Haar average of ``fidelity.collapse_variance`` over pure states (degree-2
    Weingarten integrals), the fluctuation-dissipation form of the slope.
    Tr(L^dag L) is the O(d^2) sum of |L_ij|^2.

    Cached per operator (operators are immutable): a slope scan and every
    check of it ask for the slope of the same cached collapse model."""
    d = collapse.dim
    l = collapse.entries
    return float((np.vdot(l, l).real - abs(np.trace(l)) ** 2 / d) / (d + 1))


def c_qubits_dephasing(n: int) -> float:
    """Slope n 2^n / (4 (2^n + 1)) for n identically dephasing qubits: the
    ensemble law of ``c_qudits_dephasing`` at d = 2, and 0 for n = 0."""
    if is_integer(n) and n == 0:
        return 0.0
    return c_qudits_dephasing(2, n)


def c_qudits_dephasing(d: int, n_qudits: int) -> float:
    """Slope for an ensemble of N identically dephasing qudits:
    N d^N (d^2 - 1) / (12 (d^N + 1))."""
    require_dimension(d)
    require_dimension(n_qudits, "ensemble size")
    dn = d**n_qudits
    return n_qudits * dn * (d * d - 1) / (12 * (dn + 1))


def c_heterogeneous(noise_per_site: list[NoiseModel]) -> float:
    """Slope coefficient of t for an N-qudit ensemble with per-site noise:

        (d^(N-1) / (d^N + 1)) * sum_k gamma_k (Tr(L_k^dag L_k) - |Tr L_k|^2 / d).

    N is the number of site models and d their common dimension.  Each site
    may carry several (gamma, L) terms; all are summed.  The rates are folded
    in, so the returned value multiplies t (not gamma*t).
    """
    dims = {noise.dim for noise in noise_per_site}
    if len(dims) != 1:
        raise ValueError(f"sites need one common dimension, got {sorted(dims)}")
    (d,) = dims
    n_qudits = len(noise_per_site)
    total = 0.0
    for noise in noise_per_site:
        for gamma, op in noise.terms:
            total += gamma * (d + 1) * c_general(op)
    dn = float(d) ** n_qudits
    return float(dn / d / (dn + 1) * total)


def critical_ratio(d: float) -> float:
    """Critical figure-of-merit ratio (d^2 - 1) / (3 log2 d).

    A single qudit of dimension d = 2^n outperforms n identically dephasing
    qubits only when tau_qubits / tau_qudit exceeds this value.  Real d >= 2
    is accepted (the multiqudit reduction gives the same expression); a
    non-finite d raises.
    """
    if not 1 < d < math.inf:
        raise ValueError(f"critical ratio requires finite d > 1, got {d}")
    return (d * d - 1) / (3 * np.log2(d))


def naive_ratio(d: float) -> float:
    """The intuitive comparator d^2 / log2(d).

    Shares the asymptotic growth of ``critical_ratio`` but overstates the
    requirement at small d (e.g. 21.33 vs the exact 7 at d = 8); reports emit
    both numbers.  A non-finite d raises.
    """
    if not 1 < d < math.inf:
        raise ValueError(f"naive ratio requires finite d > 1, got {d}")
    return d * d / np.log2(d)


# Search bounds of max_advantageous_dimension: the largest dimension it
# looks at, and the relative width at which bisection stops.
ADVANTAGE_D_MAX = 1e6
ADVANTAGE_RTOL = 1e-9


def max_advantageous_dimension(tau_ratio: float) -> float:
    """Largest dimension d with critical_ratio(d) <= tau_ratio, by bisection.

    ``critical_ratio`` is strictly increasing for d >= 2, so the crossing is
    unique.  Returns 2.0 when even d = 2 is not advantageous (ratio < 1).
    A NaN ratio raises.
    """
    if np.isnan(tau_ratio):
        raise ValueError("tau ratio must be a number, got nan")
    if tau_ratio <= 1.0:
        return 2.0
    lo, hi = 2.0, 2.0
    while critical_ratio(hi) < tau_ratio:
        hi *= 2
        if hi > ADVANTAGE_D_MAX:
            raise ValueError(f"no crossing below d_max={ADVANTAGE_D_MAX}")
    while hi - lo > ADVANTAGE_RTOL * max(1.0, lo):
        mid = (lo + hi) / 2
        if critical_ratio(mid) <= tau_ratio:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
