"""Reference implementations that the tests compare the library against.

Each one computes its result by a route of its own (fixed-step RK4, the
Uhlmann formula, one ``expm`` or ``expm_frechet`` per pulse slot, complex
slot generators, a Kraus set summed as conjugation superoperators, ...), so
agreement with the library is evidence that both are right.  Nothing in
``quditbench`` calls them.
"""

import numpy as np
from scipy.linalg import expm, expm_frechet

from quditbench.lindblad import DensityMatrix, SuperOperator, commutator_superoperator, dissipator
from quditbench.operators import PURITY_ATOL, Operator
from quditbench.pulses import ladder_controls

# rk4_propagate takes steps h with ||L|| h <= this bound.
RK4_STEP_BOUND = 0.01
# Loose sanity bounds on fidelity inputs: near-trace-preserving channel
# outputs must pass, garbage must not.
STATE_HERMITICITY_ATOL = 1e-10
STATE_TRACE_ATOL = 1e-6
STATE_POSITIVITY_ATOL = 1e-6


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
    s = np.eye(m.shape[0], dtype=complex)
    for _ in range(n_steps):
        k1 = m @ s
        k2 = m @ (s + 0.5 * h * k1)
        k3 = m @ (s + 0.5 * h * k2)
        k4 = m @ (s + h * k3)
        s = s + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return SuperOperator(s)


def kraus_superoperator(kraus) -> SuperOperator:
    """Superoperator sum_k conj(E_k) kron E_k of a Kraus set, in the
    column-stacked layout of ``lindblad``."""
    return SuperOperator(sum(np.kron(op.entries.conj(), op.entries) for op in kraus.ops))


def choi_matrix(channel: SuperOperator) -> np.ndarray:
    """Choi matrix (id x channel applied to the unnormalized maximally
    entangled state); eigenvalues >= 0 iff the channel is completely positive.
    """
    d = channel.hilbert_dim
    s4 = channel.matrix.reshape(d, d, d, d)  # [b, a, d, c] for S[(ab),(cd)]
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
    stack and one complex ordered product (slot 1 first), rather than the
    library's real Hermitian-basis product over a grid of rate scales."""
    d = noise.dim
    hs = np.tensordot(schedule.amplitudes, ladder_controls(d), axes=(1, 0))
    gens = -1j * commutator_superoperator(hs) + dissipator(noise)
    total = np.eye(d * d, dtype=complex)
    for slot in expm(gens * schedule.slot_duration):
        total = slot @ total
    return SuperOperator(total)
