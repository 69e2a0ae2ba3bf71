"""Exact propagation of the Lindblad master equation as a real superoperator.

The generator of

    drho/dt = -i[H, rho] + sum_k gamma_k (L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho})

preserves Hermiticity, as does every channel built here, so a
``SuperOperator`` holds the real d^2 x d^2 matrix acting on the coordinates
r_ab = Tr(G_ab rho) = Re rho_ab + Im rho_ab (index a d + b) in the
orthonormal Hermitian basis G_ab = ((1 + i) E_ab + (1 - i) E_ba) / 2,
G_aa = E_aa: the coherence-vector form (Alicki & Lendi, LNP 286, 1987).
It is the only layout this module hands out: ``_gksl`` writes each one
(``unitary_superoperator``, ``hamiltonian_generator``, ``dissipator``) by
index arithmetic as the GKSL map X -> K X + X K^dag + sum_j gamma_j L_j X
L_j^dag, Hermiticity preserving for any K, with entry (a d + b, c d + e)

    Re K_ac d_be + d_ac Re K_be + Im K_ae d_bc - d_ae Im K_bc
    + sum_j gamma_j [Re(L_ac conj L_be) + Im(L_ae conj L_bc)]

(d_xy the Kronecker delta).

``dissipator_spectrum`` alone decides, from the operators, how the spectrum
of a purely dissipative generator is found: a closed form or
``eigvals(dissipator)``.  The closed form takes diagonal L_k (read through
``Operator.as_diagonal``, with no d x d matrix for a diagonal-built one),
weighted shifts among them (triangular L_k of one orientation with diagonal
L_k^dag L_k: J_+, J_-), and one non-diagonal L == L^dag after a d x d
``eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    HERMITICITY_ATOL, POSITIVITY_ATOL, TRACE_ATOL, NoiseModel, Operator, freeze_square, frozen_matrix,
    is_diagonal, nonnegative_values,
)

# Dense superoperators above this Hilbert dimension are impractical
# (matrices beyond 16384^2); experiments cap out well below.
MAX_HILBERT_DIM = 128

# expm: the degree of its Taylor polynomial and the coefficients 1/k!.
_TAYLOR_DEGREE = 18
_TAYLOR_COEFFS = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1))
# Its Paterson-Stockmeyer blocks B_j = sum_{i < 4} c_{4j+i} X^i, j = 0..4:
# the X, X^2, X^3 coefficients of each block (c_19 = c_20 = 0), and the
# identity coefficients of B_1..B_4.
_PS_BLOCKS = np.array(
    [[_TAYLOR_COEFFS[4 * j + i] if 4 * j + i <= _TAYLOR_DEGREE else 0.0 for i in (1, 2, 3)] for j in range(5)]
)
_PS_UNITS = np.array(_TAYLOR_COEFFS[4::4])[:, None]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite complex matrix.

    ``check=True`` (the default) enforces the invariants at construction:
    Hermitian within 1e-12, trace 1 within 1e-12, eigenvalues >= -1e-10.
    Channel outputs are built unchecked so that trace drift of approximate
    (e.g. truncated Kraus) channels stays observable.
    """

    entries: np.ndarray
    check: bool = True

    def __post_init__(self) -> None:
        arr = frozen_matrix(self.entries, "density matrix")
        if self.check:
            if np.abs(arr - arr.conj().T).max() > HERMITICITY_ATOL:
                raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_ATOL}")
            if abs(np.trace(arr) - 1.0) > TRACE_ATOL:
                raise ValueError(f"density matrix trace {np.trace(arr)} is not 1 within {TRACE_ATOL}")
            if np.linalg.eigvalsh((arr + arr.conj().T) / 2).min() < -POSITIVITY_ATOL:
                raise ValueError(f"density matrix has eigenvalue below {-POSITIVITY_ATOL}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityMatrix":
        """Projector onto a state vector, normalized here; a zero or non-finite one raises."""
        psi = np.asarray(state, dtype=complex).reshape(-1)
        norm = np.linalg.norm(psi)
        if not 0 < norm < math.inf:
            raise ValueError(f"state vector must be finite and nonzero, got norm {norm}")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Real d^2 x d^2 matrix of a Hermiticity-preserving map on the real
    coordinates of a Hermitian matrix (module docstring)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.matrix):
            raise ValueError("superoperator must be a real matrix in the Hermitian basis")
        arr = freeze_square(np.array(self.matrix, dtype=float, order="C"), "superoperator")
        if math.isqrt(arr.shape[0]) ** 2 != arr.shape[0]:
            raise ValueError(f"superoperator must be a d^2 x d^2 matrix, got {arr.shape}")
        object.__setattr__(self, "matrix", arr)

    @property
    def hilbert_dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])


def _gksl(d: int, k: np.ndarray | None, jumps: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Real form of the GKSL map (module docstring) for the (gamma_j, L_j)
    pairs ``jumps``; no K term for k None, leading axes of k a batch.  K goes
    in through diagonal views of the (..., d, d, d, d) result, each jump as
    two real (d^2, 2) @ (2, d^2) products of its imaginary, then real parts:
    a fused multiply-add BLAS then rounds as NumPy's complex product does.
    Raises above ``MAX_HILBERT_DIM`` before any d^4 allocation."""
    if d > MAX_HILBERT_DIM:
        raise ValueError(f"dimension ceiling exceeded: d={d} > {MAX_HILBERT_DIM}")
    out = np.zeros((*(() if k is None else k.shape[:-2]), d, d, d, d))
    if k is not None:  # the four K terms of the formula, in order
        for spec, part in (
            ("...abcb->...acb", k.real[..., None]),
            ("...abae->...abe", k.real[..., None, :, :]),
            ("...abbe->...abe", k.imag[..., :, None, :]),
            ("...abca->...abc", -k.imag[..., None, :, :]),
        ):
            np.einsum(spec, out)[...] += part
    for gamma, l in jumps:
        parts = np.array([l.imag, l.real, -l.imag]).reshape(3, d * d)
        left = gamma * parts[:2].T
        for right, axes in ((parts[:2], (0, 2, 1, 3)), (parts[1:], (0, 2, 3, 1))):
            out += (left @ right).reshape(d, d, d, d).transpose(axes)
    return out.reshape(*out.shape[:-4], d * d, d * d)


def real_coordinates(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Real coordinates, shape (n, d^2), of the projectors psi psi^dag
    (unnormalized) of the rows psi = p + i q: (p + q) p^T + (q - p) q^T, as
    one batched (n, d, 2) @ (n, 2, d) product read row-major."""
    return (np.stack([p + q, q - p], axis=2) @ np.stack([p, q], axis=1)).reshape(len(p), -1)


def unitary_superoperator(u: Operator) -> SuperOperator:
    """Conjugation channel rho -> U rho U^dag (U need not be unitary): one
    jump U and no K (``_gksl``)."""
    return SuperOperator(_gksl(u.dim, None, [(1.0, u.entries)]))


def hamiltonian_generator(h: np.ndarray) -> np.ndarray:
    """Real form of X -> -i [H, X] for a Hermitian H: K = -i H and no jumps
    (``_gksl``); leading axes of h are a batch."""
    return _gksl(h.shape[-1], -1j * h, [])


def dissipator(noise: NoiseModel) -> np.ndarray:
    """Dissipator part of the generator (rates included) in the real form:
    K = -1/2 sum_j gamma_j L_j^dag L_j and the noise terms as jumps (``_gksl``)."""
    jumps = [(gamma, op.entries) for gamma, op in noise.terms]
    return _gksl(noise.dim, -0.5 * sum(gamma * (l.conj().T @ l) for gamma, l in jumps), jumps)


def dissipator_spectrum(noise: NoiseModel) -> np.ndarray:
    """The d^2 eigenvalues of ``dissipator(noise)``: real when every l^k
    below is real (J_z, site dephasing, J_x, J_+) or ``eigvals`` finds all
    of them real, complex otherwise.

    The closed form: when every L_k = diag(l^k) + (strictly triangular
    part), all triangular in one orientation, has L_k^dag L_k = diag(n^k)
    exactly diagonal, the dissipator is triangular, its spectrum its diagonal

        z_ij = sum_k gamma_k (l_i^k conj(l_j^k) - (n_i^k + n_j^k) / 2),

    evaluated as sum_k gamma_k (-|l_i^k - l_j^k|^2 / 2 + i Im(l_i^k
    conj(l_j^k))) - (e_i + e_j) / 2, e_i = sum_k gamma_k sum_{m != i}
    |L^k_mi|^2, so Re z <= 0 holds exactly, as does z_ii = 0 for diagonal
    L_k (e = 0, the Schur multiplier rho_ij -> rho_ij exp(z_ij t) of
    dephasing); the result is z.T.ravel(), the diagonal of the
    column-stacked dissipator.  The l^k come from ``Operator.as_diagonal``
    (no d x d matrix for a diagonal-built L_k), and e from the entries of
    the L_k that are not diagonal (J_+, J_-, ladder operators, and sums of
    them with diagonal terms), built only when there are some.  A single
    non-diagonal L == L^dag exactly (J_x, J_x + J_y + J_z; ``eigvalsh``
    reads one triangle) has a dissipator unitarily equivalent to that of
    diag(eigvalsh(L)), which takes the closed form.  A matrix both
    triangular and Hermitian is diagonal, so no operator fits two readings.
    The closed form builds no generator and has no dimension ceiling.  Any
    other noise (J_+ with J_-, several non-diagonal terms that are not
    weighted shifts, a nearly Hermitian L) takes one ``eigvals`` of the
    real ``dissipator(noise)``.
    """
    d = noise.dim
    diagonals = [op.as_diagonal() for _, op in noise.terms]
    dense = [(gamma, op.entries) for (gamma, op), l in zip(noise.terms, diagonals) if l is None]
    if len(dense) == len(noise) == 1 and np.array_equal(dense[0][1], dense[0][1].conj().T):
        terms, dense = [(dense[0][0], np.linalg.eigvalsh(dense[0][1]))], []
    elif _is_weighted_shift([l for _, l in dense]):
        terms = [(gamma, np.diag(op.entries) if l is None else l) for (gamma, op), l in zip(noise.terms, diagonals)]
    else:
        return np.linalg.eigvals(dissipator(noise))
    if not any(l.imag.any() for _, l in terms):
        terms = [(gamma, l.real) for gamma, l in terms]
    z = np.zeros((d, d), dtype=np.result_type(*(l for _, l in terms)))
    if dense:
        shift = sum(gamma * _off_diagonal_column_norms(l) for gamma, l in dense)
        z.real = -0.5 * np.add.outer(shift, shift)
    for gamma, l in terms:
        z.real -= 0.5 * gamma * np.abs(l[:, None] - l[None, :]) ** 2
        if np.iscomplexobj(z):
            z.imag += gamma * (np.outer(l.imag, l.real) - np.outer(l.real, l.imag))
    return z.T.reshape(-1)


def _is_weighted_shift(ops: list[np.ndarray]) -> bool:
    """Every matrix triangular in one common orientation, every L^dag L
    diagonal; true for an empty list.

    Both are read off the nonzero pattern, O(d^2): a matrix with at most
    one nonzero per row has columns of disjoint support, so every
    off-diagonal entry of L^dag L is a sum of exact zeros.  Only a matrix
    whose columns overlap takes the O(d^3) product."""
    support = [l != 0 for l in ops]
    upper = not any(np.tril(s, -1).any() for s in support)
    lower = not any(np.triu(s, 1).any() for s in support)
    return (upper or lower) and all(
        s.sum(axis=1).max() <= 1 or is_diagonal(l.conj().T @ l) for l, s in zip(ops, support)
    )


def _off_diagonal_column_norms(entries: np.ndarray) -> np.ndarray:
    """e_i = sum_{m != i} |L_mi|^2."""
    sq = entries.real**2
    sq += entries.imag**2
    np.fill_diagonal(sq, 0.0)
    return sq.sum(axis=0)


def liouvillian(h: Operator, noise: NoiseModel) -> SuperOperator:
    """Generator ``dissipator(noise) + hamiltonian_generator(h)`` of the master
    equation; raises if ``h`` is not Hermitian or dimensions do not match."""
    if np.abs(h.entries - h.entries.conj().T).max() > HERMITICITY_ATOL:
        raise ValueError(f"Hamiltonian must be Hermitian within {HERMITICITY_ATOL}")
    if noise.dim != h.dim:
        raise ValueError(f"noise dimension {noise.dim} != Hamiltonian dimension {h.dim}")
    return SuperOperator(dissipator(noise) + hamiltonian_generator(h.entries))


def propagate(gen: SuperOperator, t: float) -> SuperOperator:
    """Channel exp(L t) for a generator L and time t >= 0.

    A diagonal generator (H = 0 and real diagonal collapse operators, e.g.
    J_z dephasing) is exponentiated entrywise; any other takes one ``expm``.
    """
    nonnegative_values(t, "propagation time")
    m = gen.matrix * t
    if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
        return SuperOperator(np.diag(np.exp(m.diagonal())))
    return SuperOperator(expm(m[None])[0])


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a real (n, k, k) stack by scaling and squaring.

    Each matrix A is halved s times, the fewest that bring its 1-norm to
    <= 1 (exactly), and exp(A / 2^s) is the degree-18 Taylor polynomial,
    squared s times: its dropped terms have 1-norm < 8.7e-18 and
    ||exp(X)||_1 >= e^-1, so the relative truncation is below 2.4e-17, under
    the unit roundoff 1.1e-16.  On pulse slots of 1-norm past ~5, scipy
    1.17's real ``expm`` is up to 100x less accurate than its complex one.

    The polynomial is evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2,
    60 (1973)) in powers of X^4: from X^2, X^3 and X^4, four Horner steps
    over the blocks B_j = sum_{i < 4} X^i / (4j + i)!, j = 0..4, seven
    products in all.  The five blocks come from X, X^2 and X^3 by one
    (5 x 3) coefficient product per matrix, plus their identity terms; the
    identity of B_0 is added after the last Horner step, so the terms of
    order X and higher are summed before the 1.  Every product is taken
    matrix by matrix, and squaring step k squares only the matrices with
    s > k, so no result depends on the rest of the stack.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    mantissa, exponent = np.frexp(norms)
    squarings = np.maximum(exponent - (mantissa == 0.5), 0)
    n, k = a.shape[:2]
    powers = np.empty((n, 3, k, k))
    x, x2, x3 = powers[:, 0], powers[:, 1], powers[:, 2]
    np.ldexp(a, -squarings[:, None, None], out=x)
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    x4 = x2 @ x2
    blocks = _PS_BLOCKS @ powers.reshape(n, 3, k * k)
    del powers, x, x2, x3  # three stacks fewer held through the Horner steps
    blocks[:, 1:, :: k + 1] += _PS_UNITS
    blocks = blocks.reshape(n, 5, k, k)
    out = blocks[:, 4]
    for j in (3, 2, 1, 0):
        out = x4 @ out
        out += blocks[:, j]
    # B_0's identity term last, after the terms of order X and higher
    out.reshape(n, k * k)[:, :: k + 1] += _TAYLOR_COEFFS[0]
    for step in range(squarings.max(initial=0)):
        squared = squarings > step
        part = out[squared]
        out[squared] = part @ part
    return out


def apply_channel(channel: SuperOperator, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state's real coordinates; the output's, r, give
    rho_ab = (r_ab + r_ba) / 2 + i (r_ab - r_ba) / 2, Hermitian by
    construction.  The trace is NOT renormalized: trace drift of approximate
    channels is a signal the tests rely on."""
    if channel.hilbert_dim != rho.dim:
        raise ValueError(
            f"channel dimension {channel.hilbert_dim} != state dimension {rho.dim}"
        )
    d = rho.dim
    r = (channel.matrix @ (rho.entries.real + rho.entries.imag).reshape(-1)).reshape(d, d)
    return DensityMatrix((r + r.T) / 2 + 0.5j * (r - r.T), check=False)
