"""First-order Kraus channels and the perturbative density-matrix expansion.

The truncated Kraus pair for a single collapse operator L at dimensionless
noise strength x = gamma*t is

    E_0 = 1 - (x/2) L^dag L,    E_1 = sqrt(x) L,

which reproduces the exact Lindblad channel up to O(x^2).  Completeness
fails at exactly (x^2/4) (L^dag L)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import DensityMatrix, SuperOperator, apply_channel, dissipator, hamiltonian_generator
from .operators import NoiseModel, Operator, is_integer, nonnegative_values


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators E_0 ... E_K of a channel rho -> sum_k E_k rho E_k^dag.

    For the first-order set of ``kraus_multi(noise, t)``,
    sum_k E_k^dag E_k = 1 + (t^2/4) (sum_k gamma_k L_k^dag L_k)^2 exactly.
    """

    ops: tuple[Operator, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("Kraus set must contain at least one operator")
        for op in self.ops:
            if op.dim != self.hilbert_dim:
                raise ValueError(
                    f"Kraus operator dimension {op.dim} != {self.hilbert_dim}"
                )

    @property
    def hilbert_dim(self) -> int:
        return self.ops[0].dim

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.dim != self.hilbert_dim:
            raise ValueError(f"state dimension {rho.dim} != {self.hilbert_dim}")
        out = np.zeros_like(rho.entries)
        for op in self.ops:
            out = out + op.entries @ rho.entries @ op.entries.conj().T
        out = (out + out.conj().T) / 2
        return DensityMatrix(out, check=False)

    def completeness_defect(self) -> np.ndarray:
        """sum_k E_k^dag E_k - 1."""
        acc = -np.eye(self.hilbert_dim, dtype=complex)
        for op in self.ops:
            acc = acc + op.entries.conj().T @ op.entries
        return acc


def kraus_first_order(collapse: Operator, gamma_t: float) -> KrausSet:
    """First-order Kraus pair for one collapse operator at strength gamma_t."""
    return kraus_multi(NoiseModel.single(1.0, collapse), gamma_t)


def kraus_multi(noise: NoiseModel, t: float) -> KrausSet:
    """First-order Kraus set for several collapse terms over time t.

    Supports heterogeneous rates: E_0 = 1 - sum_k (gamma_k t / 2) L_k^dag L_k
    and E_k = sqrt(gamma_k t) L_k, one per noise term.
    """
    nonnegative_values(t, "time")
    d = noise.dim
    e0 = np.eye(d, dtype=complex)
    tail = []
    for gamma, op in noise.terms:
        l = op.entries
        e0 = e0 - (gamma * t / 2) * (l.conj().T @ l)
        if gamma * t > 0:
            tail.append(Operator(np.sqrt(gamma * t) * l))
    return KrausSet((Operator(e0), *tail))


def expansion_terms(
    h: Operator, noise: NoiseModel, order: int
) -> dict[tuple[int, int], np.ndarray]:
    """Real superoperator coefficients Phi_lk of the series rho* + sum rho_lk gamma^l t^k.

    The recursion is closed: rho_lk depends on time only through the
    noiseless state rho*(t), whose derivative is -i[H, rho*], so every
    time derivative becomes a commutator substitution.  With G = -i[H, .]
    (``hamiltonian_generator``) and D the dissipator:

        Phi_11 = D
        Phi_l1 = 0                                        for l >= 2
        k Phi_1k = G Phi_1(k-1) - Phi_1(k-1) G            for k >= 2
        k Phi_lk = G Phi_l(k-1) - Phi_l(k-1) G + D Phi_(l-1)(k-1)

    For H = 0 this collapses to Phi_kk = D^k / k! (all mixed terms vanish).
    Returns {(l, k): matrix} for 1 <= l <= k <= order.
    """
    if not (is_integer(order) and order in (1, 2, 3)):
        raise ValueError(f"unsupported expansion order {order!r}; must be 1, 2 or 3")
    d = h.dim
    if noise.dim != d:
        raise ValueError(f"noise dimension {noise.dim} != Hamiltonian dimension {d}")
    diss = dissipator(noise)
    gen = hamiltonian_generator(h.entries)
    zero = np.zeros((d * d, d * d))
    terms: dict[tuple[int, int], np.ndarray] = {(1, 1): diss}
    for k in range(2, order + 1):
        for l in range(1, k + 1):
            prev_t = terms.get((l, k - 1), zero)
            val = gen @ prev_t - prev_t @ gen
            if l >= 2:
                val = val + diss @ terms.get((l - 1, k - 1), zero)
            terms[(l, k)] = val / k
    return terms


def perturbative_expansion(
    rho_star: DensityMatrix,
    h: Operator,
    noise: NoiseModel,
    gamma: float,
    t: float,
    order: int,
) -> DensityMatrix:
    """Series approximation of the noisy state around the noiseless target.

    ``rho_star`` is the noiseless solution at time t; the master equation is
    drho/dt = -i[H, rho] + gamma * (dissipator of ``noise``), i.e. ``gamma``
    is the global expansion strength multiplying the (possibly weighted)
    noise terms.  All monomials gamma^l t^k with k <= order are retained in
    the channel 1 + sum gamma^l t^k Phi_lk, applied by ``apply_channel``.
    """
    nonnegative_values(gamma, "expansion strength")
    nonnegative_values(t, "time")
    if rho_star.dim != h.dim:
        raise ValueError(f"state dimension {rho_star.dim} != Hamiltonian dimension {h.dim}")
    series = np.eye(h.dim**2)
    for (l, k), phi in expansion_terms(h, noise, order).items():
        series += (gamma**l) * (t**k) * phi
    return apply_channel(SuperOperator(series), rho_star)
