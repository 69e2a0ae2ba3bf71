"""GRAPE synthesis of piecewise-constant control pulses on ladder-coupled qudits.

The control basis couples adjacent levels only: for every transition
k <-> k+1 there is a pair of Hermitian controls |k><k+1| + |k+1><k| and
i(|k><k+1| - |k+1><k|), i.e. 2(d-1) controls in total.  The drift vanishes
(interaction frame), so a slot Hamiltonian is H_j = sum_k u_jk H_k.

Slot propagators exp(-i H_j dt) and their exact derivatives come from the
eigendecomposition of the Hermitian H_j (Daleckii-Krein divided differences),
so the reported gradient matches finite differences to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .lindblad import SuperOperator, commutator_superoperator, dissipator
from .operators import HERMITICITY_ATOL, NoiseModel, Operator

_DEGENERACY_EPS = 1e-12

# grape_optimize: L-BFGS-B runs per target (the first plus restarts) and the
# iteration cap of each run.
GRAPE_RUNS = 3
GRAPE_MAX_ITERS = 500


@dataclass(frozen=True, eq=False)
class ControlBasis:
    """Hermitian control Hamiltonians for one qudit (no drift), held as one
    read-only (n_controls, d, d) stack."""

    controls: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.controls, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"controls must be a nonempty (n, d, d) stack, got shape {arr.shape}")
        if np.abs(arr - arr.conj().transpose(0, 2, 1)).max() > HERMITICITY_ATOL:
            raise ValueError("controls must be Hermitian")
        arr.setflags(write=False)
        object.__setattr__(self, "controls", arr)

    @property
    def dim(self) -> int:
        return self.controls.shape[1]

    @property
    def n_controls(self) -> int:
        return self.controls.shape[0]

    @classmethod
    def ladder(cls, d: int) -> "ControlBasis":
        """One control pair per adjacent-level transition."""
        if d < 2:
            raise ValueError("ladder basis needs d >= 2")
        stack = np.zeros((2 * (d - 1), d, d), dtype=complex)
        for k in range(d - 1):
            stack[2 * k, k, k + 1] = stack[2 * k, k + 1, k] = 1.0
            stack[2 * k + 1, k, k + 1] = 1j
            stack[2 * k + 1, k + 1, k] = -1j
        return cls(stack)


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Piecewise-constant control amplitudes: one row per slot, one column
    per control."""

    slot_duration: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("amplitudes must be a (n_slots, n_controls) matrix")
        if not np.isfinite(arr).all():
            raise ValueError("amplitudes must be finite")
        if not (np.isfinite(self.slot_duration) and self.slot_duration > 0):
            raise ValueError("slot duration must be positive and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "slot_duration", float(self.slot_duration))

    @property
    def n_slots(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_controls(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def total_time(self) -> float:
        return self.slot_duration * self.n_slots

    def to_text(self) -> str:
        """Serialize to the documented text format.

        Line 1: ``slots controls slot_duration`` (duration as repr, so the
        round trip is exact); then one whitespace-separated amplitude row
        per slot.
        """
        lines = [f"{self.n_slots} {self.n_controls} {self.slot_duration!r}"]
        for row in self.amplitudes:
            lines.append(" ".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PulseSchedule":
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValueError("schedule text has no header line")
        n_slots, n_controls, duration = lines[0].split()
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
        amps = np.array(rows, dtype=float)
        if amps.shape != (int(n_slots), int(n_controls)):
            raise ValueError("schedule text header does not match the amplitude rows")
        return cls(float(duration), amps)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "PulseSchedule":
        with open(path) as fh:
            return cls.from_text(fh.read())


def _slot_unitaries(amps: np.ndarray, h_stack: np.ndarray, dt: float):
    """Batched exp(-i H_j dt) via eigendecomposition of the Hermitian slots."""
    hs = np.tensordot(amps, h_stack, axes=(1, 0))
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * dt * w)
    xs = (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return xs, w, v, phases


def infidelity_and_gradient(
    amps: np.ndarray, basis: ControlBasis, target: np.ndarray, dt: float
) -> tuple[float, np.ndarray]:
    """Gate infidelity of the composed schedule and its exact gradient
    with respect to every amplitude."""
    h_stack = basis.controls
    n_slots = amps.shape[0]
    d = basis.dim
    xs, w, v, phases = _slot_unitaries(amps, h_stack, dt)

    prefix = np.empty((n_slots + 1, d, d), dtype=complex)
    prefix[0] = np.eye(d)
    for j in range(n_slots):
        prefix[j + 1] = xs[j] @ prefix[j]
    suffix = np.empty((n_slots, d, d), dtype=complex)
    suffix[n_slots - 1] = np.eye(d)
    for j in range(n_slots - 2, -1, -1):
        suffix[j] = suffix[j + 1] @ xs[j + 1]

    overlap = np.trace(target.conj().T @ prefix[n_slots]) / d
    infid = 1.0 - abs(overlap) ** 2

    # Divided differences of exp(-i x dt) over each slot spectrum.
    dw = w[:, :, None] - w[:, None, :]
    num = phases[:, :, None] - phases[:, None, :]
    degenerate = np.abs(dw) < _DEGENERACY_EPS
    lam = np.where(
        degenerate,
        -1j * dt * np.broadcast_to(phases[:, :, None], dw.shape),
        num / np.where(degenerate, 1.0, dw),
    )

    # d infid / d u_jk = (-2/d) Re(conj(overlap) Tr(G_j H_k)) with
    # G_j = V_j (V_j^dag W_j V_j * lam_j^T) V_j^dag, W_j = prefix_j T^dag suffix_j,
    # V_j the slot eigenvectors and T the target; one batched product covers
    # every slot.
    vdag = v.conj().transpose(0, 2, 1)
    wmat = prefix[:-1] @ target.conj().T @ suffix
    g = v @ (vdag @ wmat @ v * lam.transpose(0, 2, 1)) @ vdag
    tr = np.einsum("jba,kab->jk", g, h_stack)
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
    basis: ControlBasis,
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
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    if goal_infidelity <= 0:
        raise ValueError("goal_infidelity must be positive")
    if target.dim != basis.dim:
        raise ValueError("target dimension does not match control basis")
    if not target.is_unitary():
        raise ValueError("target gate must be unitary within 1e-10")

    dt = total_time / n_slots
    tgt = target.entries
    rng = np.random.default_rng(seed)
    shape = (n_slots, basis.n_controls)

    best_amps = None
    best_inf = np.inf
    total_iters = 0
    for _ in range(GRAPE_RUNS):
        x0 = rng.uniform(-0.1, 0.1, size=shape) / dt

        last = {"inf": np.inf}

        def objective(xflat):
            infid, grad = infidelity_and_gradient(
                xflat.reshape(shape), basis, tgt, dt
            )
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
    schedule: PulseSchedule, basis: ControlBasis, noise: NoiseModel
) -> SuperOperator:
    """Channel realized by a schedule under Lindblad noise.

    Each slot contributes exp((-i [H_j, .] + dissipator) dt); the ordered
    product runs slot 1 first.  With all rates zero this is conjugation by
    the schedule unitary, up to rounding.
    """
    if schedule.n_controls != basis.n_controls:
        raise ValueError("schedule controls do not match the basis")
    d = basis.dim
    if noise.dim != d:
        raise ValueError("noise dimension does not match the basis")
    hs = np.tensordot(schedule.amplitudes, basis.controls, axes=(1, 0))
    gens = -1j * commutator_superoperator(hs) + dissipator(noise)
    slots = expm(gens * schedule.slot_duration)
    total = np.eye(d * d, dtype=complex)
    for s in slots:
        total = s @ total
    return SuperOperator(total)
