"""d-level spin matrices, noise models (site dephasing included), and the shared tolerances and input checks.

Conventions: hbar = 1 throughout.  J_z carries the descending diagonal
(d-1)/2, (d-3)/2, ..., -(d-1)/2, so a qubit has S_z eigenvalues +-1/2
(Tr S_z^2 = 1/2); rescaling to Pauli normalization (+-1) would rescale
every decay rate gamma by a factor 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Tolerance of the Hermiticity checks on states, Hamiltonians and controls;
# derived identities are checked at 1e-10 (double precision, d <= 256).
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12  # density matrices, at construction
POSITIVITY_ATOL = 1e-10  # density matrices, at construction
UNITARITY_ATOL = 1e-10
PURITY_ATOL = 1e-10


def is_integer(value) -> bool:
    """Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_dimension(value, name: str = "dimension") -> None:
    """Raise unless ``value`` is an integer >= 1 (see ``is_integer``)."""
    if not (is_integer(value) and value >= 1):
        raise ValueError(f"invalid {name}: must be an integer >= 1, got {value!r}")


def frozen_matrix(entries, what: str) -> np.ndarray:
    """Read-only complex copy of ``entries``, which must form a finite,
    non-empty square matrix (``freeze_square``)."""
    return freeze_square(np.array(entries, dtype=complex), what)


def freeze_square(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` made read-only; raises unless a finite, non-empty square matrix."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.setflags(write=False)
    return arr


def finite_values(values, what: str) -> np.ndarray:
    """``values`` as a float array; raises unless every entry is finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite, got {arr}")
    return arr


def nonnegative_values(values, what: str) -> np.ndarray:
    """``values`` (times, rates, gamma_t grids) as a float array; raises
    unless every entry is finite and >= 0."""
    arr = np.asarray(values, dtype=float)
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise ValueError(f"{what} must be finite and non-negative, got {arr}")
    return arr


def is_diagonal(entries: np.ndarray) -> bool:
    """Every off-diagonal entry is exactly zero, counted with no d x d temporary."""
    return np.count_nonzero(entries) == np.count_nonzero(entries.diagonal())


def require_unitary(gate: Operator) -> None:
    """Raise unless ``gate`` is unitary within ``UNITARITY_ATOL``."""
    defect = gate.entries.conj().T @ gate.entries - np.eye(gate.dim)
    if np.abs(defect).max() > UNITARITY_ATOL:
        raise ValueError(f"target gate must be unitary within {UNITARITY_ATOL}")


class Operator:
    """Complex square matrix, immutable, so instances can be shared freely
    across concurrent tasks.

    ``Operator(entries)`` holds a frozen copy of the entries; whether it is
    diagonal or Hermitian is read off them by whoever needs it, never
    claimed by the caller.  ``Operator.from_diagonal(values)`` holds only the
    frozen length-d diagonal: ``entries`` then builds the d x d matrix
    afresh on each request, while ``as_diagonal`` and ``trace`` read the
    diagonal, so the dephasing routes (``lindblad.dissipator_spectrum``,
    ``fidelity.agi_first_order``) never allocate d^2 for it.  Either form of
    one diagonal matrix gives those routes the same bits.
    """

    __slots__ = ("_entries", "_diagonal")

    def __init__(self, entries) -> None:
        self._entries = frozen_matrix(entries, "operator")
        self._diagonal = None

    @classmethod
    def from_diagonal(cls, values) -> "Operator":
        """The diagonal operator diag(values) for a finite, non-empty vector."""
        diagonal = np.array(values, dtype=complex)
        if diagonal.ndim != 1 or diagonal.size == 0:
            raise ValueError(f"diagonal must be a non-empty vector, got shape {diagonal.shape}")
        if not np.isfinite(diagonal).all():
            raise ValueError("diagonal entries must be finite")
        diagonal.setflags(write=False)
        op = cls.__new__(cls)
        op._entries = None
        op._diagonal = diagonal
        return op

    @property
    def entries(self) -> np.ndarray:
        if self._entries is not None:
            return self._entries
        out = np.diag(self._diagonal)
        out.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return len(self._diagonal) if self._entries is None else self._entries.shape[0]

    def as_diagonal(self) -> np.ndarray | None:
        """The length-d diagonal if the operator is diagonal, else None:
        held by a diagonal-built operator, read off the entries otherwise."""
        if self._entries is None:
            return self._diagonal
        return np.diag(self._entries) if is_diagonal(self._entries) else None

    def trace(self) -> complex:
        if self._entries is None:
            return complex(self._diagonal.sum())
        return complex(np.trace(self._entries))


@functools.cache
def identity(d: int) -> Operator:
    """Identity operator on a d-level system (cached: operators are immutable)."""
    require_dimension(d)
    return Operator(np.eye(d))


def spin_z(d: int) -> Operator:
    """J_z for a d-level system: diag((d-1)/2, (d-3)/2, ..., -(d-1)/2),
    built from that vector (``Operator.from_diagonal``), so it holds d
    numbers, not d^2.

    Traceless and Hermitian, with Tr(J_z^2) = d(d^2-1)/12.
    """
    require_dimension(d)
    return Operator.from_diagonal((d - 1) / 2 - np.arange(d))


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
    require_dimension(d)
    jp = _spin_raising(d)
    jm = jp.conj().T
    jx = Operator((jp + jm) / 2)
    jy = Operator((jp - jm) / (2j))
    return jx, jy


def spin_plus(d: int) -> Operator:
    """Raising operator J_+ = J_x + i J_y (the ladder matrix)."""
    require_dimension(d)
    return Operator(_spin_raising(d))


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Markovian noise: a list of (decay rate gamma, collapse operator L) pairs.

    There is at least one term, all rates are finite and non-negative (units
    1/time) and all collapse operators share one Hilbert-space dimension.
    """

    terms: tuple[tuple[float, Operator], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("noise model needs at least one (rate, operator) term")
        rates = nonnegative_values([g for g, _ in self.terms], "decay rates")
        dims = {op.dim for _, op in self.terms}
        if len(dims) > 1:
            raise ValueError(f"collapse operators have mixed dimensions {sorted(dims)}")
        terms = tuple((float(g), op) for g, (_, op) in zip(rates, self.terms))
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
        """Unit-rate per-qubit dephasing: L_k = 1 x ... x S_z^(k) x ... x 1.

        Each L_k is built from its diagonal, O(2^n): basis state i of the
        n-qubit register has qubit k (k = 1 leftmost) in bit n - k of i, so
        entry i of L_k is entry (i >> (n - k)) & 1 of diag(S_z).
        """
        if not is_integer(n_sites):
            raise ValueError(f"n_sites must be an integer, got {n_sites!r}")
        sz = spin_z(2).as_diagonal()
        index = np.arange(2**n_sites)
        sites = range(1, n_sites + 1)
        return cls(tuple((1.0, Operator.from_diagonal(sz[(index >> (n_sites - k)) & 1])) for k in sites))
