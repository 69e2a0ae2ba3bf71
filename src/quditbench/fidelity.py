"""Fidelity metrics: average gate infidelity and Haar averages.

The average gate infidelity (AGI) of a channel E attempting a unitary U is
1 - F_bar with F_bar the gate fidelity averaged over Haar-random pure inputs.
Five routes are provided and cross-checked against each other:

* ``agi_kraus``  -- trace formula (d + sum_k |Tr E_k|^2) / (d (d+1)),
* ``agi_first_order`` -- that formula for the first-order Kraus set of a
  noise model, in closed form over a gamma_t grid from two traces per noise
  term, free of the cancellation against |Tr E_0|^2 ~ d^2,
* ``agi_exact``  -- deterministic, via the process fidelity of the dense
  superoperator (general channels, and the oracle for the fast path),
* ``agi_curve`` -- identity gate under a purely dissipative generator, over
  a gamma_t grid from ``lindblad.dissipator_spectrum``, O(d^2) per point
  once the spectrum is known, and free of cancellation,
* ``agi_monte_carlo`` -- direct Haar-measure sampling (independent oracle).
  Each pure input is written by its d^2 real coordinates in an orthonormal
  Hermitian basis, so a block of samples costs one real product with the
  d^2 x d^2 matrix Re(B^dag S_U^dag S B), formed once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lindblad import (
    DensityMatrix,
    SuperOperator,
    dissipator_spectrum,
    hermitian_basis,
    real_coordinates,
    unitary_superoperator,
)
from .operators import PURITY_ATOL, NoiseModel, Operator, nonnegative_values, require_dimension, require_unitary

# Input states per Monte Carlo batch.  Each batch draws its real parts, then
# its imaginary parts, so the chunk fixes the RNG draw order: another value
# gives other samples under the same seed.
MONTE_CARLO_CHUNK = 20_000
# Columns per real product inside a chunk.  It only splits the algebra of
# states already drawn, so it changes no draw and no output bit; it bounds
# the temporaries (r, r @ R and their product: 0.6 MB each at d = 12).  At
# 2 000 they were 2.3 MB each and came as fresh pages every block: the
# benchmark's four 20 000-sample oracles (d = 6, 8, 10, 12) took ~5 000
# minor page faults at 2 000 and ~2 200 at every block from 1 000 down to
# 125, and ran fastest at 500 (0.87 of the time at 2 000; 0.92 at 1 000 and
# 250, 0.97 at 125; one BLAS thread).
MONTE_CARLO_BLOCK = 500


@dataclass(eq=False)
class HaarSampler:
    """Reproducible sampler for the circular unitary ensemble in dimension d.

    ``seed`` is an int or a ``np.random.SeedSequence``; an int n draws the
    same stream as ``SeedSequence(n)``, so spawned child sequences seed
    independent samplers for parallel tasks.
    """

    dim: int
    seed: int | np.random.SeedSequence
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require_dimension(self.dim)
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def unitaries(self, n: int) -> np.ndarray:
        """n Haar-distributed unitaries, shape (n, d, d).

        QR of a complex standard-Gaussian matrix with the R-diagonal phase
        correction (Mezzadri construction).
        """
        d = self.dim
        z = (self._rng.standard_normal((n, d, d)) + 1j * self._rng.standard_normal((n, d, d)))
        z /= np.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.einsum("nii->ni", r)
        return q * (diag / np.abs(diag))[:, None, :]

    def unitary(self) -> np.ndarray:
        return self.unitaries(1)[0]

    def states(self, n: int) -> np.ndarray:
        """n Haar (Fubini-Study) random pure state vectors, shape (n, d).

        A normalized complex standard-Gaussian vector has exactly the
        distribution of the first column of a Haar unitary.
        """
        d = self.dim
        z = self._rng.standard_normal((n, d)) + 1j * self._rng.standard_normal((n, d))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    def state(self) -> np.ndarray:
        return self.states(1)[0]


def collapse_variance(target: DensityMatrix, collapse: Operator) -> float:
    """Variance of a collapse operator in a pure target state:
    <L^dag L> - <L^dag><L>.

    Multiplied by gamma*t this is the first-order infidelity of the target
    state under that collapse operator (a fluctuation-dissipation relation);
    the derivation needs rho*^2 = rho*, so mixed targets are rejected.
    """
    if target.dim != collapse.dim:
        raise ValueError(f"dimension mismatch {target.dim} != {collapse.dim}")
    if target.purity() < 1 - PURITY_ATOL:
        raise ValueError("target state must be pure (purity within 1e-10 of 1)")
    l = collapse.entries
    expect_ldl = np.real(np.trace(target.entries @ l.conj().T @ l))
    expect_l = np.trace(target.entries @ l)
    return float(expect_ldl - abs(expect_l) ** 2)


def haar_variance_monte_carlo(
    collapse: Operator, n_samples: int, sampler: HaarSampler
) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar-averaged collapse variance.

    Returns (mean, standard error of the mean); oracle for the closed form
    ``analytic.c_general``.
    """
    if sampler.dim != collapse.dim:
        raise ValueError("sampler dimension must match the operator")
    require_dimension(n_samples, "sample count")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    psi = sampler.states(n_samples)  # (n, d)
    lpsi = psi @ collapse.entries.T  # row n holds L|psi_n>
    term1 = np.einsum("ni,ni->n", lpsi.conj(), lpsi).real
    term2 = np.abs(np.einsum("ni,ni->n", psi.conj(), lpsi)) ** 2
    samples = term1 - term2
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n_samples))


def agi_kraus(kraus) -> float:
    """Average gate infidelity from Kraus traces:
    1 - (d + sum_k |Tr E_k|^2) / (d (d+1)).
    """
    d = kraus.hilbert_dim
    total = sum(abs(op.trace()) ** 2 for op in kraus.ops)
    return float(1.0 - (d + total) / (d * (d + 1)))


def agi_first_order(noise: NoiseModel, gamma_t_grid) -> np.ndarray:
    """AGI of the identity gate under the first-order Kraus set of ``noise``
    (``channels.kraus_multi``) for every x = gamma_t of a grid:
    E_0 = 1 - (x/2) sum_k gamma_k L_k^dag L_k and E_k = sqrt(gamma_k x) L_k.

    With s = sum_k gamma_k Tr(L_k^dag L_k) and t = sum_k gamma_k |Tr L_k|^2,
    Tr E_0 = d - x s / 2 and sum_{k>0} |Tr E_k|^2 = x t, so the trace formula
    of ``agi_kraus`` is exactly

        AGI(x) = (x (d s - t) - x^2 s^2 / 4) / (d (d + 1)),

    whose first-order term (d s - t) / (d (d + 1)) is the sum of the terms'
    ``analytic.c_general``.  It needs O(d^2) work per noise term, once per
    curve, and it does not subtract |Tr E_0|^2 ~ d^2 from d^2 + d.
    A negative or non-finite gamma_t raises.
    """
    x = nonnegative_values(gamma_t_grid, "gamma_t values")
    d = noise.dim
    s = sum(gamma * np.vdot(op.entries, op.entries).real for gamma, op in noise.terms)
    t = sum(gamma * abs(np.trace(op.entries)) ** 2 for gamma, op in noise.terms)
    # + 0.0 turns a -0.0 at gamma_t = 0 into +0.0
    return (x * (d * s - t) - (x * s) ** 2 / 4) / (d * (d + 1)) + 0.0


def process_fidelity(channel: SuperOperator, target_gate: Operator) -> float:
    """Entanglement/process fidelity Tr(S_U^dag S) / d^2 of a channel
    relative to a target unitary."""
    if channel.hilbert_dim != target_gate.dim:
        raise ValueError("channel and target dimensions differ")
    require_unitary(target_gate)
    d = channel.hilbert_dim
    su = unitary_superoperator(target_gate).matrix
    # Tr(S_U^dag S) = sum_kl conj(S_U[k, l]) S[k, l]: O(d^4) work
    return float(np.vdot(su, channel.matrix).real / d**2)


def agi_exact(channel: SuperOperator, target_gate: Operator) -> float:
    """Deterministic AGI via the process fidelity, using
    F_bar = (d F_p + 1) / (d + 1)."""
    d = channel.hilbert_dim
    fp = process_fidelity(channel, target_gate)
    return float(1.0 - (d * fp + 1.0) / (d + 1.0))


def agi_curve(noise: NoiseModel, gamma_t_grid) -> np.ndarray:
    """AGI of the identity gate under the purely dissipative channel
    exp(gamma_t D), for every gamma_t of a grid, with D the unit-rate
    dissipator of ``noise``.

    The process fidelity is Tr exp(gamma_t D) / d^2 = sum exp(gamma_t z) / d^2
    over the spectrum z of D (``lindblad.dissipator_spectrum``), so with
    F_bar = (d F_p + 1) / (d + 1)

        AGI = -Re sum expm1(gamma_t z) / (d (d + 1)),

    whose first-order term -Re sum z / (d (d + 1)) = -Tr D / (d (d + 1)) is
    ``analytic.c_general``.  expm1 keeps the digits that 1 - F_bar loses at
    small gamma_t; for dephasing every term is non-negative (Re z <= 0).  The
    trace identity holds for defective generators too (J_+, J_+ with J_-),
    and on the ``eigvals`` route sum f(eigenvalues) is backward stable, so
    the eigenvalue scatter of a repeated eigenvalue cancels in the sum.  A negative or non-finite gamma_t
    raises.
    """
    grid = nonnegative_values(gamma_t_grid, "gamma_t values")
    z = dissipator_spectrum(noise)
    d = noise.dim
    sums = np.array([np.expm1(gt * z).real.sum() for gt in grid])
    # 0.0 - x rather than -x: gamma_t = 0 gives +0.0, not -0.0
    return 0.0 - sums / (d * (d + 1))


def process_from_average(agi: float, dim: int) -> float:
    """Convert an average gate infidelity to a process infidelity:
    E_p = (D + 1) * AGI / D."""
    require_dimension(dim)
    if not 0 <= agi <= 1:
        raise ValueError(f"AGI must lie in [0, 1], got {agi}")
    return float((dim + 1) * agi / dim)


def agi_monte_carlo(
    channel: SuperOperator, target_gate: Operator, n_samples: int, sampler: HaarSampler
) -> tuple[float, float]:
    """Monte Carlo AGI over Haar-random pure inputs.

    Each sample is 1 - F(E[rho0], U rho0 U^dag) with rho0 drawn from the
    Fubini-Study measure; returns (mean, standard error of the mean).

    With vec(rho0) = B r, where B is ``lindblad.hermitian_basis`` and r the
    real coordinates of rho0 (``lindblad.real_coordinates``), the fidelity
    is Re vec(rho0)^dag S_U^dag S vec(rho0) = r^T R r with the real matrix
    R = Re(B^dag S_U^dag S B), formed once.  r being real, this holds for
    any superoperator, Hermiticity-preserving or not.
    """
    require_dimension(n_samples, "sample count")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if sampler.dim != channel.hilbert_dim:
        raise ValueError("sampler dimension must match the channel")
    require_unitary(target_gate)
    su = unitary_superoperator(target_gate).matrix
    basis = hermitian_basis(channel.hilbert_dim)
    r_mat = (basis.conj().T @ (su.conj().T @ (channel.matrix @ basis))).real
    samples = np.empty(n_samples)
    done = 0
    while done < n_samples:
        n = min(MONTE_CARLO_CHUNK, n_samples - done)
        psi = sampler.states(n)  # (n, d)
        for start in range(0, n, MONTE_CARLO_BLOCK):
            r = real_coordinates(psi[start : start + MONTE_CARLO_BLOCK])
            fid = np.einsum("nk,nk->n", r @ r_mat, r)
            samples[done + start : done + start + len(r)] = 1.0 - fid
        done += n
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n_samples))
