"""Exact propagation of the Lindblad master equation as a dense superoperator.

Vectorization is column-stacking: vec(X)[i + d*j] = X[i, j], so
vec(A X B) = (B^T kron A) vec(X).  The generator of

    drho/dt = -i[H, rho] + sum_k gamma_k (L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho})

is then L = -i (1 kron H - H^T kron 1) + sum_k gamma_k D_k with
D_k = conj(L_k) kron L_k - 1/2 (1 kron L_k^dag L_k + (L_k^dag L_k)^T kron 1).
Only this module spells out the layout; other modules go through ``vec``,
``commutator_superoperator``, ``unitary_superoperator``, ``dissipator`` and
``hermitian_basis``, the orthonormal Hermitian operator basis in which every
generator and channel above is a real matrix.

``dissipator_spectrum`` alone decides, from the entries, how the spectrum
of a purely dissipative generator is found: entrywise for diagonal L_k, by a
d x d ``eigvalsh`` for one L == L^dag, entrywise again for weighted shifts
(triangular L_k of one orientation with diagonal L_k^dag L_k: J_+, J_-), and
by ``eigvals(dissipator)`` otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .operators import (
    HERMITICITY_ATOL, POSITIVITY_ATOL, TRACE_ATOL, NoiseModel, Operator, frozen_matrix,
    nonnegative_values,
)

# Dense superoperators above this Hilbert dimension are impractical
# (matrices beyond 16384^2); experiments cap out well below.
MAX_HILBERT_DIM = 128


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization; leading axes of a (..., d, d) stack are a batch."""
    return np.swapaxes(mat, -1, -2).reshape(*np.shape(mat)[:-2], -1)


def unvec(v: np.ndarray) -> np.ndarray:
    d = round(np.sqrt(v.size))
    return np.asarray(v).reshape((d, d), order="F")


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
                raise ValueError("density matrix is not Hermitian within 1e-12")
            if abs(np.trace(arr) - 1.0) > TRACE_ATOL:
                raise ValueError(f"density matrix trace {np.trace(arr)} is not 1 within 1e-12")
            if np.linalg.eigvalsh((arr + arr.conj().T) / 2).min() < -POSITIVITY_ATOL:
                raise ValueError("density matrix has eigenvalue below -1e-10")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

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

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d) / d)


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Dense d^2 x d^2 matrix acting on column-stacked density matrices."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = frozen_matrix(self.matrix, "superoperator")
        if math.isqrt(arr.shape[0]) ** 2 != arr.shape[0]:
            raise ValueError(f"superoperator must be a d^2 x d^2 matrix, got {arr.shape}")
        object.__setattr__(self, "matrix", arr)

    @property
    def hilbert_dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    @classmethod
    def identity(cls, d: int) -> "SuperOperator":
        return cls(np.eye(d * d))


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices as the unitary d^2 x d^2
    matrix B whose column k is vec(G_k): G = E_aa, then (E_ab + E_ba)/sqrt2,
    then i(E_ba - E_ab)/sqrt2 for a < b (pairs in ``np.triu_indices``
    order), matching ``real_coordinates``.

    A Hermiticity-preserving superoperator S is real in this basis:
    B^dag S B is the real matrix of its action on the real coordinates of a
    Hermitian matrix (the coherence-vector form).
    """
    a, b = np.triu_indices(d, 1)
    m = len(a)
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    sym, anti = d + np.arange(m), d + m + np.arange(m)
    basis[sym, a, b] = basis[sym, b, a] = 1 / np.sqrt(2)
    basis[anti, b, a] = 1j / np.sqrt(2)
    basis[anti, a, b] = -1j / np.sqrt(2)
    return vec(basis).T


def real_coordinates(psi: np.ndarray) -> np.ndarray:
    """Coordinates Tr(G_k |psi><psi|) in ``hermitian_basis``, shape (n, d^2),
    of n pure states given as the rows of psi: |psi_a|^2,
    sqrt2 Re(conj(psi_a) psi_b), sqrt2 Im(conj(psi_a) psi_b)."""
    a, b = np.triu_indices(psi.shape[1], 1)
    pair = np.sqrt(2) * psi[:, a].conj() * psi[:, b]
    return np.concatenate([np.abs(psi) ** 2, pair.real, pair.imag], axis=1)


def unitary_superoperator(u: Operator) -> SuperOperator:
    """Conjugation channel rho -> U rho U^dag (U need not be unitary)."""
    return SuperOperator(np.kron(u.entries.conj(), u.entries))


def commutator_superoperator(h: np.ndarray) -> np.ndarray:
    """X -> [H, X] as the matrix 1 kron H - H^T kron 1; leading axes of h are a batch."""
    eye = np.eye(h.shape[-1])
    return np.kron(eye, h) - np.kron(np.swapaxes(h, -1, -2), eye)


def dissipator(noise: NoiseModel) -> np.ndarray:
    """Dissipator part of the generator (rates included), as a d^2 x d^2 matrix;
    every dense generator goes through it, so it holds the dimension ceiling."""
    d = noise.dim
    if d > MAX_HILBERT_DIM:
        raise ValueError(f"dimension ceiling exceeded: d={d} > {MAX_HILBERT_DIM}")
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for gamma, op in noise.terms:
        l = op.entries
        ldl = l.conj().T @ l
        out += gamma * (
            np.kron(l.conj(), l)
            - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
        )
    return out


def dissipator_spectrum(noise: NoiseModel) -> np.ndarray:
    """The d^2 eigenvalues of ``dissipator(noise)``.

    Diagonal collapse operators L_k = diag(l^k) make the dissipator diagonal:
    the channel is the Schur multiplier rho_ij -> rho_ij exp(z_ij t) with

        z_ij = sum_k gamma_k (l_i^k conj(l_j^k) - (|l_i^k|^2 + |l_j^k|^2) / 2),

    evaluated as -|l_i - l_j|^2 / 2 + i Im(l_i conj(l_j)), so Re z <= 0 and
    z_ii = 0 hold exactly; the result is vec(z), the dissipator diagonal.  A
    single Hermitian collapse operator L = V diag(l) V^dag gives a dissipator
    unitarily equivalent (by conj(V) kron V) to that of diag(l), so the same
    expression runs on one d x d ``eigvalsh`` (J_x, J_x + J_y + J_z);
    ``eigvalsh`` reads one triangle, so this needs L == L^dag exactly.
    Weighted shifts (J_+, J_-, ladder operators, and sums of them with
    diagonal terms) are triangular L_k, all in one orientation, with
    L_k^dag L_k = diag(n^k) exactly diagonal: the dissipator is then
    triangular and its spectrum its diagonal, the same expression with
    |l_i^k|^2 replaced by the squared column norm n_i^k: z_ij gains
    -(e_i + e_j) / 2, with e_i = sum_k gamma_k sum_{m != i} |L^k_mi|^2.
    These three routes build no generator and have no dimension ceiling.
    Any other noise (J_+ with J_-, several non-diagonal terms, a nearly
    Hermitian L) takes one ``eigvals`` of ``dissipator(noise)``.
    """
    d = noise.dim
    gamma, op = noise.terms[0]
    z = np.zeros((d, d), dtype=complex)
    if all(_is_diagonal(op.entries) for _, op in noise.terms):
        terms = [(gamma, np.diag(op.entries)) for gamma, op in noise.terms]
    elif len(noise) == 1 and np.array_equal(op.entries, op.entries.conj().T):
        terms = [(gamma, np.linalg.eigvalsh(op.entries).astype(complex))]
    elif _is_weighted_shift(noise):
        terms = [(gamma, np.diag(op.entries)) for gamma, op in noise.terms]
        e = sum(gamma * _off_diagonal_column_norms(op.entries) for gamma, op in noise.terms)
        z.real = -0.5 * np.add.outer(e, e)
    else:
        return np.linalg.eigvals(dissipator(noise))
    for gamma, l in terms:
        z.real -= 0.5 * gamma * np.abs(l[:, None] - l[None, :]) ** 2
        z.imag += gamma * (np.outer(l.imag, l.real) - np.outer(l.real, l.imag))
    return vec(z)


def _is_diagonal(entries: np.ndarray) -> bool:
    return np.count_nonzero(entries - np.diag(np.diag(entries))) == 0


def _is_weighted_shift(noise: NoiseModel) -> bool:
    """Every L_k triangular in one common orientation, every L_k^dag L_k diagonal."""
    ops = [op.entries for _, op in noise.terms]
    upper = not any(np.tril(l, -1).any() for l in ops)
    lower = not any(np.triu(l, 1).any() for l in ops)
    return (upper or lower) and all(_is_diagonal(l.conj().T @ l) for l in ops)


def _off_diagonal_column_norms(entries: np.ndarray) -> np.ndarray:
    """e_i = sum_{m != i} |L_mi|^2, exactly 0 for a diagonal L."""
    off = entries - np.diag(np.diag(entries))
    return (off.real**2 + off.imag**2).sum(axis=0)


def liouvillian(h: Operator, noise: NoiseModel) -> SuperOperator:
    """Generator of the master equation for Hamiltonian ``h`` and a noise model.

    Raises if ``h`` is not Hermitian or dimensions do not match.  The dissipator
    is built first, so its dimension ceiling fires before any d^4 allocation.
    """
    d = h.dim
    if np.abs(h.entries - h.entries.conj().T).max() > HERMITICITY_ATOL:
        raise ValueError("Hamiltonian must be Hermitian within 1e-12")
    if noise.dim != d:
        raise ValueError(f"noise dimension {noise.dim} != Hamiltonian dimension {d}")
    diss = dissipator(noise)
    return SuperOperator(-1j * commutator_superoperator(h.entries) + diss)


def propagate(gen: SuperOperator, t: float) -> SuperOperator:
    """Channel exp(L t) for a generator L and time t >= 0.

    scipy's scaling-and-squaring expm (Al-Mohy & Higham 2009) exponentiates
    a diagonal generator (e.g. pure dephasing with H = 0) entrywise itself.
    """
    nonnegative_values(t, "propagation time")
    return SuperOperator(expm(gen.matrix * t))


def apply_channel(channel: SuperOperator, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to a state.

    The result is Hermitized by (A + A^dag)/2 to absorb roundoff.  The trace
    is NOT renormalized: trace drift of approximate channels is a signal the
    tests rely on.
    """
    if channel.hilbert_dim != rho.dim:
        raise ValueError(
            f"channel dimension {channel.hilbert_dim} != state dimension {rho.dim}"
        )
    out = unvec(channel.matrix @ vec(rho.entries))
    out = (out + out.conj().T) / 2
    return DensityMatrix(out, check=False)
