"""One qudit or many qubits?  The critical gate-efficiency curve.

An ensemble of n dephasing qubits spans the same Hilbert space as a single
qudit with d = 2^n, but its average gate infidelity grows only like
n 2^n / (4 (2^n + 1)) per unit gamma*t, against d(d-1)/12 for the qudit.
The qudit therefore needs faster gates (relative to its coherence time) by
the ratio (d^2-1)/(3 log2 d) to break even.
"""

import numpy as np

from quditbench import (
    NoiseModel,
    Operator,
    agi_exact,
    c_qubits_dephasing,
    critical_ratio,
    fit_slope,
    identity,
    liouvillian,
    naive_ratio,
    propagate,
)
from quditbench.experiments import ExperimentSpec, run_experiment

# --- multiqubit slopes ------------------------------------------------------
grid = np.linspace(0.0, 1e-4, 11)
print("identically dephasing qubit ensembles:")
for n in range(1, 6):
    d = 2**n
    generator = liouvillian(Operator(np.zeros((d, d))), NoiseModel.site_dephasing(n))
    agis = [agi_exact(propagate(generator, gt), identity(d)) for gt in grid]
    fit = fit_slope(grid, agis)
    print(f"  n={n} (d={d:2d}): slope {fit.slope_c:.6f}  closed form {c_qubits_dephasing(n):.6f}")

# --- critical figure-of-merit ratios ---------------------------------------
print("\nsimulated vs analytic critical ratios c_qudit / c_qubits:")
for row in run_experiment(ExperimentSpec("critical-curve", (1, 2, 3, 6), (0.0, 1e-4, 11))).rows:
    print(
        f"  n={row['n']} d={row['d']:2d}: simulated {row['ratio_simulated']:8.3f}  "
        f"analytic {row['ratio_analytic']:8.3f}  [{row['method']}]"
    )

print(
    "\nSo an 8-level qudit must be 7x more gate-efficient than three qubits, "
    f"not {naive_ratio(8):.1f}x as the naive d^2/log2(d) scaling suggests; "
    f"at d=64 the requirement reaches {critical_ratio(64):.1f}x."
)
