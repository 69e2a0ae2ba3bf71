"""Reference implementations that the tests compare the library against.

Each one computes its result by a route of its own (fixed-step RK4, the
Uhlmann formula, one ``expm`` or ``expm_frechet`` per pulse slot, complex
column-stacked generators written here by ``np.kron`` and taken to the
library's real form by the dense Hermitian basis, a Kraus set summed as
conjugation superoperators, a long-double gate channel, dense site operators
by ``np.kron``, ...), so agreement with the library is evidence that both
are right.  Nothing in ``quditbench`` calls them, and they build no
generator with it, except the helpers at the end, which the test modules
share: ``zero_h``, the J_z dephasing generator and channel, and
``dense_agi_curve``, the library's dense route that every fast route of it
is compared with.
"""

import numpy as np
from scipy.linalg import expm, expm_frechet

from quditbench.fidelity import agi_exact
from quditbench.lindblad import DensityMatrix, SuperOperator, liouvillian, propagate
from quditbench.operators import PURITY_ATOL, NoiseModel, Operator, identity, is_integer, require_dimension, spin_z
from quditbench.pulses import ladder_controls

# rk4_propagate takes steps h with ||L|| h <= this bound.
RK4_STEP_BOUND = 0.01
# Loose sanity bounds on fidelity inputs: near-trace-preserving channel
# outputs must pass, garbage must not.
STATE_HERMITICITY_ATOL = 1e-10
STATE_TRACE_ATOL = 1e-6
STATE_POSITIVITY_ATOL = 1e-6


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, vec(X)[i + d j] = X[i, j], so that
    vec(A X B) = (B^T kron A) vec(X); leading axes of a (..., d, d) stack are
    a batch."""
    return np.swapaxes(mat, -1, -2).reshape(*np.shape(mat)[:-2], -1)


def unvec(v: np.ndarray) -> np.ndarray:
    """The d x d matrix whose column-stacked vector is ``v``."""
    d = round(np.sqrt(v.size))
    return np.asarray(v).reshape((d, d), order="F")


def commutator(h: np.ndarray) -> np.ndarray:
    """X -> [H, X] column-stacked, 1 kron H - H^T kron 1; leading axes of h
    are a batch."""
    eye = np.eye(h.shape[-1])
    return np.kron(eye, h) - np.kron(np.swapaxes(h, -1, -2), eye)


def column_stacked_dissipator(noise, dtype=complex) -> np.ndarray:
    """sum_k gamma_k (conj(L_k) kron L_k - (1 kron K_k + K_k^T kron 1) / 2),
    K_k = L_k^dag L_k, column-stacked, computed in ``dtype``."""
    eye = np.eye(noise.dim, dtype=dtype)
    out = 0
    for gamma, op in noise.terms:
        l = op.entries.astype(dtype)
        ldl = l.conj().T @ l
        out = out + gamma * (np.kron(l.conj(), l) - (np.kron(eye, ldl) + np.kron(ldl.T, eye)) / 2)
    return out


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices as the unitary d^2 x d^2
    matrix B whose column a d + b is vec(G_ab), G_ab = ((1 + i) E_ab +
    (1 - i) E_ba) / 2 (column-stacked): G_aa = E_aa, and each pair G_ab,
    G_ba is (E_ab + E_ba)/sqrt2, i(E_ba - E_ab)/sqrt2 rotated by 45 degrees."""
    e = np.eye(d * d).reshape(d, d, d, d)  # e[a, b] = E_ab
    return vec(((1 + 1j) * e + (1 - 1j) * e.transpose(1, 0, 2, 3)).reshape(d * d, d, d) / 2).T


def real_superoperator(s: np.ndarray) -> SuperOperator:
    """The library's form B^dag S B of a Hermiticity-preserving column-stacked
    superoperator S, by two dense products with ``hermitian_basis``; raises
    if B^dag S B is not real to rounding, i.e. S does not preserve
    Hermiticity."""
    b = hermitian_basis(round(np.sqrt(s.shape[0])))
    m = b.conj().T @ s @ b
    if np.abs(m.imag).max() > 1e-12 * max(1.0, np.abs(m).max()):
        raise ValueError("superoperator does not preserve Hermiticity")
    return SuperOperator(m.real)


def column_stacked(channel: SuperOperator) -> np.ndarray:
    """The column-stacked matrix B R B^dag of a real superoperator R."""
    b = hermitian_basis(channel.hilbert_dim)
    return b @ channel.matrix @ b.conj().T


def expm_propagate(h: Operator, noise, t: float) -> SuperOperator:
    """Channel exp(G t) from scipy's complex ``expm`` of the column-stacked
    generator G = -i [H, .] + dissipator(noise); reference for the library's
    real ``liouvillian`` and ``propagate``."""
    gen = -1j * commutator(h.entries) + column_stacked_dissipator(noise)
    return real_superoperator(expm(gen * t))


def embed_site(op: Operator, site: int, n_sites: int) -> Operator:
    """Dense single-site operator embedded into an n-site tensor product by
    ``np.kron``; reference for the diagonals ``NoiseModel.site_dephasing``
    builds.

    ``site`` is 1-based; identities act on every other site, so the
    result has dimension op.dim ** n_sites and site=1 is the leftmost
    tensor factor.
    """
    require_dimension(n_sites, "n_sites")
    if not is_integer(site):
        raise ValueError(f"site must be an integer, got {site!r}")
    if not 1 <= site <= n_sites:
        raise IndexError(f"site {site} out of range 1..{n_sites}")
    d = op.dim
    left = np.eye(d ** (site - 1))
    right = np.eye(d ** (n_sites - site))
    return Operator(np.kron(np.kron(left, op.entries), right))


def rk4_propagate(gen: SuperOperator, t: float) -> SuperOperator:
    """Fixed-step RK4 integration of dS/dt = L S; cross-check oracle for propagate.

    The step h is chosen so that ||L|| h <= ``RK4_STEP_BOUND``.
    """
    if t < 0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    m = gen.matrix
    norm = np.linalg.norm(m, ord=2)
    n_steps = max(1, int(np.ceil(norm * t / RK4_STEP_BOUND)))
    h = t / n_steps
    s = np.eye(m.shape[0])
    for _ in range(n_steps):
        k1 = m @ s
        k2 = m @ (s + 0.5 * h * k1)
        k3 = m @ (s + 0.5 * h * k2)
        k4 = m @ (s + h * k3)
        s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return SuperOperator(s)


def kraus_superoperator(kraus) -> SuperOperator:
    """Superoperator of a Kraus set: sum_k conj(E_k) kron E_k in the
    column-stacked layout, taken to the real form."""
    return real_superoperator(sum(np.kron(op.entries.conj(), op.entries) for op in kraus.ops))


def choi_matrix(channel: SuperOperator) -> np.ndarray:
    """Choi matrix (id x channel applied to the unnormalized maximally
    entangled state); eigenvalues >= 0 iff the channel is completely positive.
    """
    d = channel.hilbert_dim
    s4 = column_stacked(channel).reshape(d, d, d, d)  # [b, a, d, c] for S[(ab),(cd)]
    return np.transpose(s4, (3, 1, 2, 0)).reshape(d * d, d * d)


def _check_state(rho: DensityMatrix, name: str) -> None:
    arr = rho.entries
    if np.abs(arr - arr.conj().T).max() > STATE_HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(arr) - 1.0) > STATE_TRACE_ATOL:
        raise ValueError(f"{name} has trace {np.trace(arr):.8f}, expected 1")
    if np.linalg.eigvalsh(arr).min() < -STATE_POSITIVITY_ATOL:
        raise ValueError(f"{name} is not positive semidefinite")


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def state_fidelity(rho: DensityMatrix, target: DensityMatrix) -> float:
    """Fidelity of ``rho`` against ``target``.

    Pure targets (purity >= 1 - 1e-10) use the fast form Tr(rho target);
    mixed targets fall back to the Uhlmann formula
    [Tr sqrt(sqrt(rho) target sqrt(rho))]^2.
    """
    if rho.dim != target.dim:
        raise ValueError(f"dimension mismatch {rho.dim} != {target.dim}")
    _check_state(rho, "rho")
    _check_state(target, "target")
    if target.purity() >= 1 - PURITY_ATOL:
        return float(np.real(np.trace(rho.entries @ target.entries)))
    s = _psd_sqrt((rho.entries + rho.entries.conj().T) / 2)
    inner = _psd_sqrt(s @ target.entries @ s)
    return float(np.real(np.trace(inner)) ** 2)


def gate_infidelity(u: np.ndarray, target: np.ndarray) -> float:
    """Phase-insensitive gate infidelity 1 - |Tr(V^dag U)|^2 / d^2."""
    d = u.shape[0]
    return float(1.0 - abs(np.trace(target.conj().T @ u)) ** 2 / d**2)


def schedule_unitary(schedule) -> Operator:
    """Noiseless composed propagator of a pulse schedule (slot 1 acts first;
    2(d-1) ladder controls on a d-level qudit), as one ``expm(-i H_j dt)``
    per slot rather than the library's batched eigendecomposition."""
    d = schedule.n_controls // 2 + 1
    u = np.eye(d, dtype=complex)
    for h in np.tensordot(schedule.amplitudes, ladder_controls(d), axes=(1, 0)):
        u = expm(-1j * schedule.slot_duration * h) @ u
    return Operator(u)


def gradient_per_slot(amps, target, dt) -> np.ndarray:
    """Gradient of the gate infidelity 1 - |Tr(T^dag U)/d|^2 of the schedule
    U = X_n ... X_1, X_j = expm(-i dt H_j), with respect to every amplitude
    u_jk: (-2/d) Re(conj(overlap) Tr(T^dag S_j L_jk P_j)) with the sequential
    prefix P_j = X_{j-1} ... X_1, suffix S_j = X_n ... X_{j+1} and the Frechet
    derivative L_jk of expm at -i dt H_j in the direction -i dt H_k, one
    ``expm_frechet`` per slot and control rather than the library's batched
    spectral divided differences."""
    d = target.shape[0]
    controls = ladder_controls(d)
    hs = np.tensordot(amps, controls, axes=(1, 0))
    xs = [expm(-1j * dt * h) for h in hs]
    prefix = [np.eye(d, dtype=complex)]
    for x in xs[:-1]:
        prefix.append(x @ prefix[-1])
    suffix = [np.eye(d, dtype=complex)]
    for x in xs[:0:-1]:
        suffix.insert(0, suffix[0] @ x)
    overlap = np.trace(target.conj().T @ xs[-1] @ prefix[-1]) / d
    grad = np.empty(amps.shape)
    for j, h in enumerate(hs):
        for k, control in enumerate(controls):
            frechet = expm_frechet(-1j * dt * h, -1j * dt * control, compute_expm=False)
            tr = np.trace(target.conj().T @ suffix[j] @ frechet @ prefix[j])
            grad[j, k] = (-2.0 / d) * np.real(np.conj(overlap) * tr)
    return grad


def complex_schedule_channel(schedule, noise) -> SuperOperator:
    """Channel of a pulse schedule under one noise model from the complex
    slot generators -i [H_j, .] + dissipator(noise): one complex ``expm``
    stack and one complex ordered product (slot 1 first), taken to the real
    form at the end, rather than the library's real product over a grid of
    rate scales."""
    d = noise.dim
    hs = np.tensordot(schedule.amplitudes, ladder_controls(d), axes=(1, 0))
    gens = -1j * commutator(hs) + column_stacked_dissipator(noise)
    total = np.eye(d * d, dtype=complex)
    for slot in expm(gens * schedule.slot_duration):
        total = slot @ total
    return real_superoperator(total)


# long_double_gate_agis: the degree of its Taylor series.
LONG_DOUBLE_TAYLOR_DEGREE = 29


def long_double_gate_agis(schedule, noise, scales, target: Operator) -> np.ndarray:
    """AGI of a schedule's channel against a target unitary for each noise
    rate scale s, in numpy long double throughout, as a reference for the
    float64 gate route (``schedule_to_propagator`` then ``agi_exact``).

    The slot generators B^dag (-i [H_j, .] + s dissipator(noise)) B dt are
    formed from the float64 inputs in long double; each one is halved until
    its 1-norm is at most 1/2, exponentiated by its Taylor series of degree
    ``LONG_DOUBLE_TAYLOR_DEGREE`` (truncation below 1e-38) and squared back;
    the slots are multiplied in order, and the AGI is 1 - (d F_p + 1) /
    (d + 1) with F_p = Tr(R_U^T R) / d^2.  numpy multiplies long-double
    matrices in its own loops, not BLAS.  Where long double is float64 this
    is no more precise than the route it checks.
    """
    ld, cld = np.longdouble, np.clongdouble
    d = noise.dim
    b = hermitian_basis(d).astype(cld)
    bdag = b.conj().T
    diss = column_stacked_dissipator(noise, cld)
    hs = np.tensordot(schedule.amplitudes.astype(ld), ladder_controls(d).astype(cld), axes=(1, 0))
    dt = ld(schedule.slot_duration)
    drift = (bdag @ (-1j * commutator(hs)) @ b).real * dt
    unit = (bdag @ diss @ b).real * dt
    u = target.entries.astype(cld)
    ru = (bdag @ np.kron(u.conj(), u) @ b).real
    agis = []
    for s in np.asarray(scales, dtype=float).astype(ld):
        a = drift + s * unit
        squarings = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1).astype(float))[1] + 1, 0)
        x = a / np.ldexp(ld(1), squarings)[:, None, None]
        slots = np.broadcast_to(np.eye(d * d, dtype=ld), x.shape)
        for k in range(LONG_DOUBLE_TAYLOR_DEGREE, 0, -1):
            slots = np.eye(d * d, dtype=ld) + (x @ slots) / ld(k)
        for step in range(squarings.max(initial=0)):
            squared = squarings > step
            slots[squared] = slots[squared] @ slots[squared]
        total = np.eye(d * d, dtype=ld)
        for slot in slots:
            total = slot @ total
        fp = (ru * total).sum() / ld(d * d)
        agis.append(1 - (d * fp + 1) / ld(d + 1))
    return np.array(agis, dtype=ld)


def zero_h(d):
    return Operator(np.zeros((d, d)))


def dephasing_generator(d, gamma=1.0):
    return liouvillian(zero_h(d), NoiseModel.single(gamma, spin_z(d)))


def dephasing_channel(d, gamma_t):
    return propagate(dephasing_generator(d), gamma_t)


def dense_agi_curve(noise, grid):
    """The dense oracle: one expm of the generator per point, then agi_exact."""
    d = noise.dim
    gen = liouvillian(zero_h(d), noise)
    return np.array([agi_exact(propagate(gen, gt), identity(d)) for gt in grid])
