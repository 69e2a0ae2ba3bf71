"""Operator algebra for d-level systems: spin matrices, site embeddings, noise models.

Conventions: hbar = 1 throughout.  J_z carries the descending diagonal
(d-1)/2, (d-3)/2, ..., -(d-1)/2, so a qubit has S_z eigenvalues +-1/2
(Tr S_z^2 = 1/2); rescaling to Pauli normalization (+-1) would rescale
every decay rate gamma by a factor 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Tolerance of the Hermiticity checks on states, Hamiltonians and controls;
# derived identities are checked at 1e-10 (double precision, d <= 256).
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12  # density matrices, at construction
POSITIVITY_ATOL = 1e-10  # density matrices, at construction
UNITARITY_ATOL = 1e-10
PURITY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex square matrix; its structure (diagonal, Hermitian) is
    read off the entries by whoever needs it, not claimed by the caller.
    Instances are immutable (the entry array is frozen); they can be
    shared freely across concurrent tasks.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator entries must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("invalid dimension: operator must be at least 1x1")
        if not np.isfinite(arr).all():
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_unitary(self) -> bool:
        defect = self.entries.conj().T @ self.entries - np.eye(self.dim)
        return bool(np.abs(defect).max() <= UNITARITY_ATOL)


@functools.cache
def identity(d: int) -> Operator:
    """Identity operator on a d-level system (cached: operators are immutable)."""
    if d < 1:
        raise ValueError("invalid dimension: d must be >= 1")
    return Operator(np.eye(d))


def spin_z(d: int) -> Operator:
    """J_z for a d-level system: diag((d-1)/2, (d-3)/2, ..., -(d-1)/2).

    Traceless and Hermitian, with Tr(J_z^2) = d(d^2-1)/12.
    """
    if d < 1:
        raise ValueError("invalid dimension: d must be >= 1")
    m = (d - 1) / 2 - np.arange(d)
    return Operator(np.diag(m.astype(complex)))


def _spin_raising(d: int) -> np.ndarray:
    # Basis ordered by descending m = j, j-1, ..., -j with j = (d-1)/2;
    # (J_+)[k-1, k] = sqrt(j(j+1) - m(m+1)) for m = j - k.
    j = (d - 1) / 2
    m = j - np.arange(1, d)
    return np.diag(np.sqrt(j * (j + 1) - m * (m + 1)).astype(complex), k=1)


def spin_xy(d: int) -> tuple[Operator, Operator]:
    """Standard angular-momentum pair (J_x, J_y) for spin j = (d-1)/2.

    Both are Hermitian and traceless and satisfy [J_x, J_y] = i J_z.
    """
    if d < 1:
        raise ValueError("invalid dimension: d must be >= 1")
    jp = _spin_raising(d)
    jm = jp.conj().T
    jx = Operator((jp + jm) / 2)
    jy = Operator((jp - jm) / (2j))
    return jx, jy


def spin_plus(d: int) -> Operator:
    """Raising operator J_+ = J_x + i J_y (the ladder matrix)."""
    if d < 1:
        raise ValueError("invalid dimension: d must be >= 1")
    return Operator(_spin_raising(d))


def embed_site(op: Operator, site: int, n_sites: int) -> Operator:
    """Embed a single-site operator into an n-site tensor product.

    ``site`` is 1-based; identities act on every other site, so the
    result has dimension op.dim ** n_sites and site=1 is the leftmost
    tensor factor.
    """
    if n_sites < 1:
        raise ValueError("invalid dimension: n_sites must be >= 1")
    if not 1 <= site <= n_sites:
        raise IndexError(f"site {site} out of range 1..{n_sites}")
    d = op.dim
    left = np.eye(d ** (site - 1))
    right = np.eye(d ** (n_sites - site))
    out = np.kron(np.kron(left, op.entries), right)
    return Operator(out)


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Markovian noise: a list of (decay rate gamma, collapse operator L) pairs.

    There is at least one term, all rates are finite and non-negative (units
    1/time) and all collapse operators share one Hilbert-space dimension.
    """

    terms: tuple[tuple[float, Operator], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(g), op) for g, op in self.terms)
        if not terms:
            raise ValueError("noise model needs at least one (rate, operator) term")
        dims = {op.dim for _, op in terms}
        if len(dims) > 1:
            raise ValueError(f"collapse operators have mixed dimensions {sorted(dims)}")
        for g, _ in terms:
            if not 0 <= g < math.inf:
                raise ValueError(f"decay rate must be finite and non-negative, got {g}")
        object.__setattr__(self, "terms", terms)

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def __len__(self) -> int:
        return len(self.terms)

    @classmethod
    def single(cls, gamma: float, op: Operator) -> "NoiseModel":
        return cls(((gamma, op),))

    @classmethod
    def site_dephasing(cls, n_sites: int) -> "NoiseModel":
        """Unit-rate per-qubit dephasing: L_k = 1 x ... x S_z^(k) x ... x 1."""
        sz = spin_z(2)
        return cls(tuple((1.0, embed_site(sz, k, n_sites)) for k in range(1, n_sites + 1)))
