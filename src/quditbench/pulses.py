"""GRAPE synthesis of piecewise-constant control pulses on ladder-coupled qudits.

The controls, ``ladder_controls(d)``, couple adjacent levels only: for
every transition k <-> k+1 there is a pair of Hermitian controls
|k><k+1| + |k+1><k| and i(|k><k+1| - |k+1><k|), i.e. 2(d-1) controls in
total.  The drift vanishes (interaction frame), so a slot Hamiltonian is
H_j = sum_k u_jk H_k.  No function takes the controls as an argument: each
derives them from the dimension of its target gate or noise model.

The GRAPE objective is the gate infidelity with its exact gradient
(Khaneja et al., J. Magn. Reson. 172, 296 (2005)), computed for all slots
at once with no loop over them.  Slot propagators exp(-i H_j dt) come from
the eigendecomposition of the Hermitian H_j; their prefix products from a
doubling scan of ceil(log2 n) batched products; each suffix from the gate
itself, X_n ... X_{j+1} = U P_j^dag; and the derivatives from the
Daleckii-Krein divided differences of exp(-i dt x), in the closed sinc form
that holds at every eigenvalue gap, so there is no degeneracy threshold.

The noisy channel of a schedule, for a whole grid of noise-rate scales at
once, is per scale one real exponential stack over the slots
(``lindblad.expm``) and their ordered real product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .lindblad import SuperOperator, commutator_superoperator, dissipator, expm, real_form
from .operators import (
    NoiseModel, Operator, finite_values, nonnegative_values, require_dimension, require_unitary,
)

# grape_optimize: L-BFGS-B runs per target (the first plus restarts) and the
# iteration cap of each run.
GRAPE_RUNS = 3
GRAPE_MAX_ITERS = 500


@functools.cache
def ladder_controls(d: int) -> np.ndarray:
    """The 2(d-1) ladder controls of a d-level qudit as one read-only
    (2(d-1), d, d) stack: one pair per adjacent-level transition.

    Cached, so the GRAPE kernel looks it up on every call; sharing is safe
    because the array is read-only."""
    require_dimension(d)
    if d < 2:
        raise ValueError("ladder controls need d >= 2")
    stack = np.zeros((2 * (d - 1), d, d), dtype=complex)
    for k in range(d - 1):
        stack[2 * k, k, k + 1] = stack[2 * k, k + 1, k] = 1.0
        stack[2 * k + 1, k, k + 1] = 1j
        stack[2 * k + 1, k + 1, k] = -1j
    stack.setflags(write=False)
    return stack


@functools.cache
def _real_controls(d: int) -> np.ndarray:
    """The generators -i [H_k, .] of ``ladder_controls(d)`` as one read-only
    stack of ``lindblad.real_form`` matrices, cached alike."""
    stack = real_form(-1j * commutator_superoperator(ladder_controls(d)))
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Piecewise-constant control amplitudes: one row per slot, one column
    per control."""

    slot_duration: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(finite_values(self.amplitudes, "amplitudes"))
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("amplitudes must be a (n_slots, n_controls) matrix")
        if not (np.isfinite(self.slot_duration) and self.slot_duration > 0):
            raise ValueError("slot duration must be positive and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "slot_duration", float(self.slot_duration))

    @property
    def n_controls(self) -> int:
        return self.amplitudes.shape[1]


def infidelity_and_gradient(
    amps: np.ndarray, target: np.ndarray, dt: float
) -> tuple[float, np.ndarray]:
    """Gate infidelity 1 - |Tr(T^dag U)/d|^2 of the composed schedule
    U = X_n ... X_1 against the target T, and its exact gradient with
    respect to every amplitude (Khaneja et al., J. Magn. Reson. 172, 296
    (2005)), as a fixed number of batched operations over the slots.

    Each slot unitary is X_j = V_j diag(h_j^2) V_j^dag with the half-phases
    h_j = exp(-i dt w_j / 2) over the spectrum w_j of H_j.  The inclusive
    prefixes P_j = X_j ... X_1 come from a doubling scan (ceil(log2 n)
    batched products) and each suffix from the gate, X_n ... X_{j+1} =
    U P_j^dag.  The divided differences of exp(-i dt x) are
    -i dt h_a h_b sinc(dt (w_a - w_b) / 2 pi), exact at every eigenvalue
    gap, degenerate ones included.
    """
    d = target.shape[0]
    controls = ladder_controls(d)
    n_slots, n_controls = amps.shape
    hs = (amps @ controls.reshape(n_controls, d * d)).reshape(n_slots, d, d)
    w, v = np.linalg.eigh(hs)
    vdag = v.conj().transpose(0, 2, 1)
    half = np.exp(-0.5j * dt * w)

    prefix = (v * (half * half)[:, None, :]) @ vdag
    shift = 1
    while shift < n_slots:
        prefix[shift:] = prefix[shift:] @ prefix[:-shift]
        shift *= 2
    tdag_u = target.conj().T @ prefix[-1]
    overlap = np.trace(tdag_u) / d
    infid = 1.0 - abs(overlap) ** 2

    # d infid / d u_jk = (-2/d) Re(conj(overlap) Tr(G_j H_k)) with
    # G_j = V_j (M_j * lam_j) V_j^dag, M_j = (V_j^dag P_{j-1}) T^dag U (P_j^dag V_j)
    # (P_0 = 1) and lam_j the symmetric divided differences over the spectrum
    # of H_j; Tr(G_j H_k) for all j, k is one (n, d^2) @ (d^2, n_controls) product.
    before = np.empty_like(vdag)
    before[0] = vdag[0]
    before[1:] = vdag[1:] @ prefix[:-1]
    after = prefix.conj().transpose(0, 2, 1) @ v
    lam = (-1j * dt) * half[:, :, None] * half[:, None, :] * np.sinc(
        (0.5 / np.pi) * dt * (w[:, :, None] - w[:, None, :])
    )
    g = v @ (before @ tdag_u @ after * lam) @ vdag
    tr = g.reshape(n_slots, d * d) @ controls.transpose(0, 2, 1).reshape(n_controls, d * d).T
    grad = (-2.0 / d) * np.real(np.conj(overlap) * tr)
    return float(infid), grad


@dataclass(frozen=True, eq=False)
class GrapeResult:
    schedule: PulseSchedule
    infidelity: float
    converged: bool
    iterations: int


def grape_optimize(
    target: Operator,
    n_slots: int,
    total_time: float,
    goal_infidelity: float = 1e-6,
    seed: int = 0,
) -> GrapeResult:
    """Optimize piecewise-constant amplitudes so the composed propagator
    matches the target gate.

    Quasi-Newton (L-BFGS-B) ascent on the gate fidelity with exact
    gradients; amplitudes start small and random, [-0.1, 0.1]/slot_duration,
    seeded.  Stops once ``goal_infidelity`` is reached; otherwise restarts
    from fresh random amplitudes, ``GRAPE_RUNS`` runs in all, and returns the
    best run with ``converged=False``.
    """
    require_dimension(n_slots, "n_slots")
    if not (np.isfinite(total_time) and total_time > 0):
        raise ValueError("total_time must be positive and finite")
    if not (np.isfinite(goal_infidelity) and goal_infidelity > 0):
        raise ValueError("goal_infidelity must be positive and finite")
    require_unitary(target)

    dt = total_time / n_slots
    tgt = target.entries
    rng = np.random.default_rng(seed)
    shape = (n_slots, len(ladder_controls(target.dim)))

    best_amps = None
    best_inf = np.inf
    total_iters = 0
    for _ in range(GRAPE_RUNS):
        x0 = rng.uniform(-0.1, 0.1, size=shape) / dt

        last = {"inf": np.inf}

        def objective(xflat):
            infid, grad = infidelity_and_gradient(xflat.reshape(shape), tgt, dt)
            last["inf"] = infid
            return infid, grad.ravel()

        def callback(_xk):
            if last["inf"] <= goal_infidelity:
                raise StopIteration

        res = minimize(
            objective,
            x0.ravel(),
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={"maxiter": GRAPE_MAX_ITERS, "ftol": 1e-18, "gtol": 1e-14},
        )
        total_iters += int(res.nit)
        infid = float(res.fun)
        if infid < best_inf:
            best_inf = infid
            best_amps = res.x.reshape(shape).copy()
        if best_inf <= goal_infidelity:
            break

    schedule = PulseSchedule(dt, best_amps)
    return GrapeResult(schedule, float(best_inf), bool(best_inf <= goal_infidelity), total_iters)


def schedule_to_propagator(
    schedule: PulseSchedule, noise: NoiseModel, scales
) -> list[SuperOperator]:
    """Channels realized by a schedule under Lindblad noise, one for each
    entry s of ``scales``, with every rate of ``noise`` multiplied by s.

    Each slot contributes exp((-i [H_j, .] + s dissipator) dt); the ordered
    product runs slot 1 first.  With s = 0 this is conjugation by the
    schedule unitary, up to rounding.

    In the real form of ``lindblad`` the control generators C_k of
    -i [H_k, .] are formed once per d (``_real_controls``) and the
    dissipator D once per call; each scale s runs one ``lindblad.expm``
    stack of the slot generators (sum_k u_jk C_k + s D) dt and multiplies
    the slots in order.  A channel depends only on its own scale.
    """
    d = noise.dim
    ladder = ladder_controls(d)
    if schedule.n_controls != len(ladder):
        raise ValueError(f"schedule has {schedule.n_controls} controls; a d = {d} qudit has {len(ladder)}")
    scales = nonnegative_values(scales, "scales")
    if scales.ndim != 1 or scales.size < 1:
        raise ValueError(f"scales must be a nonempty 1-d sequence, got shape {scales.shape}")
    dt = schedule.slot_duration
    drift = np.tensordot(schedule.amplitudes, _real_controls(d), axes=(1, 0)) * dt
    unit = real_form(dissipator(noise)) * dt
    channels = []
    for s in scales:
        total = np.eye(d * d)
        for slot in expm(drift + s * unit):
            total = slot @ total
        channels.append(SuperOperator(total))
    return channels

