"""State-dependent infidelity and its Haar average.

For one pure state the first-order infidelity is gamma*t times the variance
of the collapse operator in that state.  Averaging the variance over the
Fubini-Study measure has the closed form Tr(L^dag L)/(d+1) - |Tr L|^2/(d(d+1)),
which is the gate-averaged slope ``c_general``: the state picture recovers it.  Monte Carlo
sampling over Haar-random states confirms both.
"""

import numpy as np

from quditbench import (
    DensityMatrix,
    HaarSampler,
    agi_monte_carlo,
    c_general,
    collapse_variance,
    haar_variance_monte_carlo,
    identity,
    liouvillian,
    propagate,
    spin_z,
    NoiseModel,
    Operator,
)

d = 4
jz = spin_z(d)

print("variance of J_z in a few states (d=4):")
for label, vec in [
    ("stretched |m=3/2>", [1, 0, 0, 0]),
    ("uniform superposition", [1, 1, 1, 1]),
    ("outermost cat", [1, 0, 0, 1]),
]:
    rho = DensityMatrix.pure(np.array(vec, dtype=float))
    print(f"  {label:>22}: {collapse_variance(rho, jz):.4f}")

closed = c_general(jz)
mc, se = haar_variance_monte_carlo(jz, 100_000, HaarSampler(d, seed=1))
print(f"\nHaar average of the variance: closed form {closed:.6f}, Monte Carlo {mc:.6f} +- {se:.1e}")

gt = 1e-4
channel = propagate(liouvillian(Operator(np.zeros((d, d))), NoiseModel.single(1.0, jz)), gt)
mean, sem = agi_monte_carlo(channel, identity(d), 100_000, HaarSampler(d, seed=2))
print(f"\nAGI at gamma*t = {gt:g}: Monte Carlo {mean:.4e} +- {sem:.1e}")
print(f"prediction gamma*t * Haar-averaged variance = {gt * closed:.4e}")
