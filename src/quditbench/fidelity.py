"""Fidelity metrics: average gate infidelity and Haar averages.

The average gate infidelity (AGI) of a channel E attempting a unitary U is
1 - F_bar with F_bar the gate fidelity averaged over Haar-random pure inputs.
Five routes are provided and cross-checked against each other:

* ``agi_kraus``  -- trace formula (d + sum_k |Tr E_k|^2) / (d (d+1)),
* ``agi_first_order`` -- that formula for the first-order Kraus set of a
  noise model, in closed form over a gamma_t grid from two traces per noise
  term, free of the cancellation against |Tr E_0|^2 ~ d^2,
* ``agi_exact``  -- deterministic, via the process fidelity of the real
  superoperator (general channels, and the oracle for the fast path), also
  for a sequence of channels against one target,
* ``agi_curve`` -- identity gate under a purely dissipative generator, over
  a gamma_t grid from ``lindblad.dissipator_spectrum``, O(d^2) per point
  once the spectrum is known, and free of cancellation,
* ``agi_monte_carlo`` -- direct Haar-measure sampling (independent oracle).
  Each input's d^2 real coordinates come straight off its Gaussian draws: a
  block costs one product with S = (M + M^T)/2, M = R_U^T R, formed once
  per call.  Every reader of a sampler's states takes them in the one draw
  order of ``HaarSampler._state_blocks``; an estimator holds the real parts
  of one ``MONTE_CARLO_CHUNK`` (n d reals) and one block's temporaries.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    DensityMatrix,
    SuperOperator,
    dissipator_spectrum,
    real_coordinates,
    unitary_superoperator,
)
from .operators import PURITY_ATOL, NoiseModel, Operator, nonnegative_values, require_dimension, require_unitary

# Input states per chunk of ``HaarSampler._state_blocks``.  A chunk draws its
# real parts, then its imaginary parts, so the chunk fixes the draws of every
# reader: another value gives other states under the same seed.  It holds its
# n x d real parts (1.9 MB at d = 12) until its last block is drawn.
MONTE_CARLO_CHUNK = 20_000
# States per block inside a chunk.  Each block draws its imaginary parts just
# before use, continuing the chunk's stream, so the block changes no draw and
# no output bit.  It bounds every temporary: the block's draws (48 kB each at
# d = 12), their real coordinates r and r S (0.6 MB each).  At 2 000 these
# are 2.3 MB each and come as fresh pages every block: the benchmark's four
# 20 000-sample oracles (d = 6, 8, 10, 12) took ~10 000 minor page faults at
# 2 000, ~2 400 at 1 000 and 700-800 from 500 down to 125, and ran fastest
# at 500 (0.79 of the time at 2 000, 0.99 at 1 000, 0.89 at 125; 250 tied,
# slower in 11 of 20 fresh-process pairs; one BLAS thread).
MONTE_CARLO_BLOCK = 500


@dataclass(eq=False)
class HaarSampler:
    """Reproducible sampler for the circular unitary ensemble in dimension d.

    ``seed`` is an int or a ``np.random.SeedSequence``; an int n draws the
    same stream as ``SeedSequence(n)``, so spawned child sequences seed
    independent samplers for parallel tasks.  The bit generator is seeded
    at the first draw (a seed NumPy rejects raises there), so a sampler
    costs nothing until an estimator reads from it, and the seeding counts
    towards that estimator's time.
    """

    dim: int
    seed: int | np.random.SeedSequence

    def __post_init__(self) -> None:
        require_dimension(self.dim)

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def unitaries(self, n: int) -> np.ndarray:
        """n Haar-distributed unitaries, shape (n, d, d).

        QR of a complex standard-Gaussian matrix with the R-diagonal phase
        correction (Mezzadri construction).
        """
        require_dimension(n, "sample count")
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
        distribution of the first column of a Haar unitary.  The states are
        the normalized rows of the draws of ``_state_blocks``, concatenated.
        """
        require_dimension(n, "sample count")
        return _unit_states(*map(np.concatenate, zip(*self._state_blocks(n, n))))

    def _state_blocks(self, n: int, block: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The draws (p, q) of n states, the normalized rows of p + i q, in
        blocks of at most ``block`` rows that never span two chunks: each
        ``MONTE_CARLO_CHUNK`` of states draws its real parts at once, each
        block its imaginary parts only when the block is requested."""
        for start in range(0, n, MONTE_CARLO_CHUNK):
            real = self._rng.standard_normal((min(MONTE_CARLO_CHUNK, n - start), self.dim))
            for row in range(0, len(real), block):
                part = real[row : row + block]
                yield part, self._rng.standard_normal(part.shape)


def _unit_states(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The rows of p + i q, normalized."""
    z = p + 1j * q
    return z / np.linalg.norm(z, axis=1, keepdims=True)


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
        raise ValueError(f"target state must be pure (purity within {PURITY_ATOL} of 1)")
    l = collapse.entries
    expect_ldl = np.real(np.trace(target.entries @ l.conj().T @ l))
    expect_l = np.trace(target.entries @ l)
    return float(expect_ldl - abs(expect_l) ** 2)


def haar_variance_monte_carlo(
    collapse: Operator, n_samples: int, sampler: HaarSampler
) -> tuple[float, float]:
    """Monte Carlo estimate of the Haar-averaged collapse variance.

    Returns (mean, standard error of the mean); oracle for the closed form
    ``analytic.c_general``.  The samples are those of ``sampler.states``,
    read in blocks of ``MONTE_CARLO_BLOCK``.
    """
    if sampler.dim != collapse.dim:
        raise ValueError("sampler dimension must match the operator")
    require_dimension(n_samples, "sample count")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    lt = collapse.entries.T
    samples = np.empty(n_samples)
    done = 0
    for draws in sampler._state_blocks(n_samples, MONTE_CARLO_BLOCK):
        psi = _unit_states(*draws)
        lpsi = psi @ lt  # row n holds L|psi_n>
        term1 = np.einsum("ni,ni->n", lpsi.conj(), lpsi).real
        term2 = np.abs(np.einsum("ni,ni->n", psi.conj(), lpsi)) ** 2
        samples[done : done + len(psi)] = term1 - term2
        done += len(psi)
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
    curve, O(d) for a diagonal L_k (``Operator.as_diagonal``: no d x d
    matrix for a diagonal-built one), and it does not subtract
    |Tr E_0|^2 ~ d^2 from d^2 + d.
    A negative or non-finite gamma_t raises.
    """
    x = nonnegative_values(gamma_t_grid, "gamma_t values")
    d = noise.dim
    s = t = 0.0
    for gamma, op in noise.terms:
        l = op.as_diagonal()
        l = op.entries if l is None else l
        s += gamma * np.vdot(l, l).real
        t += gamma * abs(op.trace()) ** 2
    # + 0.0 turns a -0.0 at gamma_t = 0 into +0.0
    return (x * (d * s - t) - (x * s) ** 2 / 4) / (d * (d + 1)) + 0.0


def process_fidelity(channel, target_gate: Operator):
    """Entanglement/process fidelity Tr(R_U^T R) / d^2 of a channel R
    relative to a target unitary U, R_U = ``unitary_superoperator(U)``.

    ``channel`` is a ``SuperOperator`` (the result is a float) or a sequence
    of them, such as the channels of one gate over a grid of noise scales
    (``pulses.schedule_to_propagator``): the result is then the array of
    their fidelities, with the target checked and R_U formed once."""
    channels = (channel,) if isinstance(channel, SuperOperator) else tuple(channel)
    d = target_gate.dim
    if any(c.hilbert_dim != d for c in channels):
        raise ValueError("channel and target dimensions differ")
    require_unitary(target_gate)
    ru = unitary_superoperator(target_gate).matrix
    # Tr(R_U^T R) = sum_kl R_U[k, l] R[k, l]: O(d^4) work per channel
    fps = np.array([np.vdot(ru, c.matrix) for c in channels]) / d**2
    return float(fps[0]) if isinstance(channel, SuperOperator) else fps


def agi_exact(channel, target_gate: Operator):
    """Deterministic AGI via the process fidelity, using
    F_bar = (d F_p + 1) / (d + 1); a float for one channel, an array for a
    sequence of them (``process_fidelity``)."""
    d = target_gate.dim
    return 1.0 - (d * process_fidelity(channel, target_gate) + 1.0) / (d + 1.0)


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
    the eigenvalue scatter of a repeated eigenvalue cancels in the sum.
    When no exponent has an imaginary part (dephasing, J_x, J_+), ``expm1``
    runs in real arithmetic, a real d^2 vector per point; complex exponents
    take complex ``expm1``.  Either way each point holds O(d^2), never a
    len(grid) x d^2 table.  A negative or non-finite gamma_t raises.
    """
    grid = nonnegative_values(gamma_t_grid, "gamma_t values")
    z = dissipator_spectrum(noise)
    if not z.imag.any():
        z = z.real
    d = noise.dim
    sums = np.array([np.expm1(gt * z).real.sum() for gt in grid])
    # 0.0 - x rather than -x: gamma_t = 0 gives +0.0, not -0.0
    return 0.0 - sums / (d * (d + 1))


def agi_monte_carlo(
    channel: SuperOperator, target_gate: Operator, n_samples: int, sampler: HaarSampler
) -> tuple[float, float]:
    """Monte Carlo AGI over Haar-random pure inputs.

    Each sample is 1 - F(E[rho0], U rho0 U^dag) with rho0 drawn from the
    Fubini-Study measure; returns (mean, standard error of the mean).

    The inputs are those of ``sampler.states``, psi = (p + i q) / |p + i q|,
    read straight off the draws p and q: with r the real coordinates of
    (p + i q)(p + i q)^dag (``lindblad.real_coordinates``), the fidelity is
    r^T M r / (|p|^2 + |q|^2)^2, M = R_U^T R with R_U the target's
    conjugation channel, and r^T M r = r^T S r with the symmetric part
    S = (M + M^T)/2, formed once and applied to each block as r @ S.
    """
    require_dimension(n_samples, "sample count")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if channel.hilbert_dim != target_gate.dim:
        raise ValueError("channel and target dimensions differ")
    if sampler.dim != channel.hilbert_dim:
        raise ValueError("sampler dimension must match the channel")
    require_unitary(target_gate)
    m = unitary_superoperator(target_gate).matrix.T @ channel.matrix
    sym = m + m.T
    sym *= 0.5
    del m  # the loop keeps no other d^2 x d^2 matrix
    samples = np.empty(n_samples)
    done = 0
    for p, q in sampler._state_blocks(n_samples, MONTE_CARLO_BLOCK):
        r = real_coordinates(p, q)
        norm2 = np.einsum("ni,ni->n", p, p) + np.einsum("ni,ni->n", q, q)
        fid = np.einsum("nk,nk->n", r @ sym, r) / (norm2 * norm2)
        samples[done : done + len(r)] = 1.0 - fid
        done += len(r)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n_samples))
