"""GRAPE synthesis of piecewise-constant control pulses on ladder-coupled qudits.

The controls, ``ladder_controls(d)``, couple adjacent levels only: for
every transition k <-> k+1 there is a pair of Hermitian controls
|k><k+1| + |k+1><k| and i(|k><k+1| - |k+1><k|), i.e. 2(d-1) controls in
total.  The drift vanishes (interaction frame), so a slot Hamiltonian is
H_j = sum_k u_jk H_k.  No function takes the controls as an argument: each
derives them from the dimension of its target gate or noise model.

The GRAPE objective is the gate infidelity with its exact gradient
(Khaneja et al., J. Magn. Reson. 172, 296 (2005)), computed for all slots
at once with no loop over them.  A diagonal phase gauge makes each slot
Hamiltonian a real symmetric tridiagonal with zero diagonal, whose
eigenpairs come from one batched real SVD of its even/odd bidiagonal block
(Golub & Kahan, SIAM J. Numer. Anal. B 2, 205 (1965)); slot propagators
exp(-i H_j dt) follow from them, their prefix products from a doubling scan
of ceil(log2 n) batched products, each suffix from the gate itself,
X_n ... X_{j+1} = U P_j^dag, and the derivatives from the Daleckii-Krein
divided differences of exp(-i dt x), in the closed sinc form that holds at
every eigenvalue gap, so there is no degeneracy threshold.  The gradient
with respect to the ladder controls needs only the first off-diagonals of
each slot's G_j, read as row dot-products, so G_j is never formed.  The
objective takes leading batch axes, and ``grape_optimize_many`` runs the
L-BFGS of many targets of one dimension in lockstep, one batched objective
call per round: small-d GRAPE costs per call, not per flop, and each
target's result is the same bit for bit as its own ``grape_optimize``.

The objective multiplies complex d x d slot matrices in their real form:
the 2d x 2d real matrix with the block [[Re a, -Im a], [Im a, Re a]] in
place of each entry a.  Products and adjoints carry over, R(AB) = R(A) R(B)
and R(A^dag) = R(A)^T, and NumPy multiplies a stack of real 2d x 2d
matrices several times faster than the complex d x d ones at d <= 4.  Read
as complex numbers, rows 2r and 2r + 1 of R(A) are conj(A)[r] and
i conj(A)[r], so R(A) is written from conj(A) and read back from its even
rows, and a real matrix Q acts on it from the left as one product with its
(d, 4d) reshape.

The noisy channel of a schedule, for a whole grid of noise-rate scales at
once, exponentiates the real (scale, slot) generators by ``lindblad.expm``
in stacks of at most ``STACK_BYTES`` and multiplies each scale's
slots in order, batched over the scales.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lbfgs import lbfgs_steps
from .lindblad import SuperOperator, dissipator, expm, hamiltonian_generator
from .operators import (
    NoiseModel, Operator, finite_values, nonnegative_values, require_dimension, require_unitary,
)

# grape_optimize: L-BFGS runs per target (the first plus restarts) and the
# iteration cap of each run.
GRAPE_RUNS = 3
GRAPE_MAX_ITERS = 500

# The most bytes of one stack of matrices: of the slot generators
# schedule_to_propagator hands to lindblad.expm, of the complex slot
# matrices of a grape_optimize_many batch (grape_batch_size), and of the
# real slot matrices of one run of slots in infidelity_and_gradient.  Stacks
# this small stay in cache and in reused heap memory (a 2 MiB stack of one
# scale's slots at d = 8 faults in fresh pages on every call), yet at
# d <= 3 hold every scale of a gate's grid, so the per-call overhead is paid
# once per stack rather than once per scale.  Batches of GRAPE targets past
# it pass glibc's 128 KiB mmap threshold at d = 4 and raise the peak RSS; in
# real form a batch holds up to twice as many bytes, so the objective takes
# the slots of a batch of 8 d slots per gate in two runs.
STACK_BYTES = 64 * 1024


@functools.cache
def ladder_controls(d: int) -> np.ndarray:
    """The 2(d-1) ladder controls of a d-level qudit as one read-only
    (2(d-1), d, d) stack: one pair per adjacent-level transition.

    Cached, so every caller shares one stack: ``_real_controls``,
    ``grape_optimize_many`` and ``schedule_to_propagator``; sharing is safe
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
    """The real generators -i [H_k, .] of ``ladder_controls(d)`` as one
    read-only stack (``lindblad.hamiltonian_generator``), cached alike."""
    stack = hamiltonian_generator(ladder_controls(d))
    stack.setflags(write=False)
    return stack


@functools.cache
def _gauge_tables(d: int) -> tuple[np.ndarray, ...]:
    """The fixed arrays of ``infidelity_and_gradient`` at dimension d, cached
    and read-only alike.

    ``rows``, ``cols``: where |H[k, k+1]| sits in the ceil(d/2) x floor(d/2)
    even/odd bidiagonal block, row (k+1)//2, column k//2.  ``mix``: the real
    d x d matrix whose first ceil(d/2) rows take the SVD factor Y (on the
    even levels) and whose last floor(d/2) rows take Z (on the odd levels)
    to the eigenvectors (y_i, z_i) / sqrt(2), (y_i, -z_i) / sqrt(2) and,
    for odd d, (y_last, 0).  ``spread``: the singular values s to the
    matching eigenvalues, s @ spread = (s, -s, 0 for odd d).  ``pair``: the
    factors (1, i) of the two rows of a real-form row pair, read as complex.
    ``identity``: the real form of the d x d identity as (d, 2, d) complex
    numbers.  ``pick``: the (2d, 2) matrix that sums the real and the
    imaginary parts of a row of real pairs separately."""
    rows = np.array([(k + 1) // 2 for k in range(d - 1)])
    cols = np.array([k // 2 for k in range(d - 1)])
    even, odd = (d + 1) // 2, d // 2
    i = np.arange(odd)
    mix = np.zeros((d, d))
    mix[i, i] = mix[i, odd + i] = mix[even + i, i] = np.sqrt(0.5)
    mix[even + i, odd + i] = -np.sqrt(0.5)
    if d % 2:
        mix[odd, d - 1] = 1.0
    spread = np.zeros((odd, d))
    spread[i, i] = 1.0
    spread[i, odd + i] = -1.0
    pair = np.array([1.0, 1j])
    identity = np.eye(d)[:, None, :] * pair[:, None]
    pick = np.tile(np.eye(2), (d, 1))
    tables = (rows, cols, mix, spread, pair, identity, pick)
    for arr in tables:
        arr.setflags(write=False)
    return tables


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

    Leading batch axes of ``amps`` (..., n_slots, 2(d-1)) and ``target``
    (..., d, d) broadcast: the infidelities are then an array of the batch
    shape, and each schedule's value and gradient equal its own 2-D call's
    bit for bit, whatever else is in the batch.  A 2-D call returns a float.

    Each slot unitary is X_j = V_j diag(h_j^2) V_j^dag with the half-phases
    h_j = exp(-i dt w_j / 2) over the spectrum w_j of H_j.  The eigenpairs
    come from the gauge H_j = Phi_j T_j Phi_j^dag: Phi_j is diagonal with
    phases theta_{k+1} = theta_k - arg H_j[k, k+1], and T_j is real
    symmetric tridiagonal with zero diagonal and off-diagonals
    |H_j[k, k+1]|.  Such a matrix is a Golub-Kahan matrix (SIAM J. Numer.
    Anal. B 2, 205 (1965)): in even/odd order it is [[0, B], [B^T, 0]] with
    B the ceil(d/2) x floor(d/2) lower bidiagonal of its off-diagonals, so
    one batched real SVD B = Y S Z^T gives w = (s, -s, 0 for odd d) with
    eigenvectors (y, +-z) / sqrt(2) and the null vector (y_last, 0), and
    V_j = Phi_j Q_j.  The inclusive prefixes P_j = X_j ... X_1 come from a
    doubling scan (ceil(log2 n) batched products) and each suffix from the
    gate, X_n ... X_{j+1} = U P_j^dag.  The divided differences of
    exp(-i dt x) are -i dt h_a h_b sin(y) / y with y = dt (w_a - w_b) / 2
    (1 at y = 0), exact at every eigenvalue gap, degenerate ones included.

    Every complex slot matrix that enters a product is held in its real
    form (module docstring), so each batched product is one real matmul,
    and the real Q_j and Q_j^T act on a real form as one product with its
    (d, 4d) reshape.  Tr(G_j H_k) needs only G_j[k, k+1] and G_j[k+1, k]
    for the ladder controls: they are rows of W = Q_j (M_j * lam_j) dotted
    with rows of Q_j, times the gauge phases, so G_j is never formed.

    Raises ``ValueError`` unless ``amps`` has 2(d-1) columns and a slot axis.
    """
    d = target.shape[-1]
    if amps.ndim < 2 or amps.shape[-1] != 2 * (d - 1):
        raise ValueError(
            f"amps must have 2(d-1) = {2 * (d - 1)} columns for a d = {d} target, got shape {amps.shape}"
        )
    if target.shape[:-2] != amps.shape[:-2]:
        amps = np.broadcast_to(amps, (*np.broadcast_shapes(amps.shape[:-2], target.shape[:-2]), *amps.shape[-2:]))
    batch, n_slots = amps.shape[:-2], amps.shape[-2]
    even, odd = (d + 1) // 2, d // 2
    rows, cols, mix, spread, pair, identity, pick = _gauge_tables(d)
    z = np.ascontiguousarray(amps, dtype=float).view(complex)  # H_j[k, k+1]
    modulus = np.abs(z)
    unit = np.ones_like(z)  # exp(i arg H_j[k, k+1]), 1 where H_j[k, k+1] = 0
    np.divide(
        z.view(float).reshape(*z.shape, 2),
        modulus[..., None],
        out=unit.view(float).reshape(*z.shape, 2),
        where=modulus[..., None] > 0.0,
    )
    phase = np.ones((*batch, n_slots, d), dtype=complex)  # Phi_j[k] = prod_{l < k} conj(unit[l])
    np.cumprod(unit.conj(), axis=-1, out=phase[..., 1:])
    bidiagonal = np.zeros((*batch, n_slots, even, odd))
    bidiagonal[..., rows, cols] = modulus
    y, s, zt = np.linalg.svd(bidiagonal)
    q = np.empty((*batch, n_slots, d, d))
    np.matmul(y, mix[:even], out=q[..., 0::2, :])
    np.matmul(zt.swapaxes(-1, -2), mix[even:], out=q[..., 1::2, :])
    q2 = np.repeat(q, 2, axis=-1)  # each entry of Q_j twice, against real pairs
    qt = np.ascontiguousarray(q.swapaxes(-1, -2))
    w = (0.5 * dt) * (s @ spread)  # dt w_j / 2
    half = np.exp(-1j * w)
    conj_half = half.conj()
    # slots run in groups of at most STACK_BYTES of real slot matrices, so a
    # call's working set stays near that of the same call in complex form
    run = max(1, STACK_BYTES // (32 * d * d * math.prod(batch)))
    runs = [slice(lo, min(lo + run, n_slots)) for lo in range(0, n_slots, run)]

    # The scan runs over Phi_{j+1}^dag X_j Phi_j = Phi_{j+1}^dag Phi_j Q_j
    # h_j^2 Q_j^T with Phi_{n+1} = 1, the first times Phi_1^dag, so slot j of
    # the prefix stack is Phi_{j+1}^dag P_j (P_0 = 1) and slot n is U.  The
    # conjugate of a factor is Q_j times conj(h_j^2) Q_j^T read as real pairs,
    # times its row phases: the even rows of the real form, and i times them
    # the odd rows.
    step = np.empty((*batch, n_slots + 1, d), dtype=complex)  # conj(Phi_{j+1}^dag Phi_j)
    step[..., 0, :] = phase[..., 0, :]
    np.multiply(phase[..., 1:, :], phase[..., :-1, :].conj(), out=step[..., 1:-1, :])
    step[..., -1, :] = phase[..., -1, :].conj()
    prefix = np.empty((*batch, n_slots + 1, d, 2, d), dtype=complex)
    np.multiply(identity, step[..., 0, :, None, None], out=prefix[..., 0, :, :, :])
    turn = conj_half * conj_half
    for c in runs:
        right = qt[..., c, :, :] * turn[..., c, :, None]
        factor = (q[..., c, :, :] @ right.view(float)).view(complex)
        del right
        factor *= step[..., c.start + 1 : c.stop + 1, :, None]
        out = prefix[..., c.start + 1 : c.stop + 1, :, :, :]
        out[..., 0, :] = factor
        np.multiply(factor, 1j, out=out[..., 1, :])
        del factor, out
    del step, turn
    ri = prefix.view(float).reshape(*batch, n_slots + 1, 2 * d, 2 * d)
    ri[..., 1, :, :] = ri[..., 1, :, :] @ ri[..., 0, :, :]
    spare = np.empty_like(ri)
    spare[..., 0, :, :] = ri[..., 0, :, :]
    shift = 1
    while shift < n_slots:
        # slots up to 2 shift are final after this step; the spare stack
        # already holds those up to shift / 2
        np.matmul(ri[..., shift + 1 :, :, :], ri[..., 1:-shift, :, :], out=spare[..., shift + 1 :, :, :])
        spare[..., shift // 2 + 1 : shift + 1, :, :] = ri[..., shift // 2 + 1 : shift + 1, :, :]
        ri, spare = spare, ri
        shift *= 2
    del spare
    prefix = ri.reshape(*batch, n_slots + 1, d, 4 * d)
    tdag = np.multiply(target.swapaxes(-1, -2)[..., :, None, :], pair[:, None], order="C").view(float)
    tdag_u = tdag.reshape(*tdag.shape[:-3], 2 * d, 2 * d) @ ri[..., -1, :, :]
    # the even rows of a real form, read as complex, are the conjugate; np.trace
    # and Python's scalar abs: an einsum trace and numpy's vectorized complex
    # abs each round some overlaps differently
    overlap = np.trace(tdag_u.view(complex)[..., 0::2, :], axis1=-2, axis2=-1).conj() / d
    infid = np.reshape([1.0 - abs(o) ** 2 for o in np.ravel(overlap)], np.shape(overlap))

    # d infid / d u_jk = (-2/d) Re(conj(overlap) Tr(G_j H_k)) with
    # G_j = V_j (M_j * lam_j) V_j^dag, M_j = R_j T^dag U R_j^dag,
    # R_j = V_j^dag P_{j-1} = Q_j^T Phi_j^dag P_{j-1}, that is Q_j^T times slot
    # j - 1 of the stack, and lam_j = h_a conj(h_b) sin(y) / y; the -i dt goes
    # into the final scalar.  With E = M_j * lam_j,
    # G_j[a, b] = Phi_j[a] conj(Phi_j[b]) (Q_j E Q_j^T)[a, b], and
    # Phi_j[k] conj(Phi_j[k+1]) = exp(i arg H_j[k, k+1]).  read holds, per
    # slot, conj(Q_j E Q_j^T)[k, k+1] for every k, then [k+1, k], as real pairs.
    read = np.empty((*batch, n_slots, 2 * d - 2, 2))
    tdag_u = tdag_u[..., None, :, :]
    for c in runs:
        gap = w[..., c, :, None] - w[..., c, None, :]
        sinc = np.ones_like(gap)
        np.divide(np.sin(gap), gap, out=sinc, where=gap != 0.0)
        clam = conj_half[..., c, :, None] * half[..., c, None, :] * sinc  # conj(lam_j)
        del gap, sinc
        before = (qt[..., c, :, :] @ prefix[..., c, :, :]).reshape(*batch, -1, 2 * d, 2 * d)
        after = np.ascontiguousarray(before.swapaxes(-1, -2))
        m = before[..., 0::2, :] @ tdag_u
        del before
        m = m @ after
        del after
        m.view(complex)[...] *= clam
        del clam
        w_conj = q[..., c, :, :] @ m  # conj(W) as real pairs
        del m
        dots = np.empty((*w_conj.shape[:-2], 2, d - 1, 2 * d))
        np.multiply(w_conj[..., :-1, :], q2[..., c, 1:, :], out=dots[..., 0, :, :])
        np.multiply(w_conj[..., 1:, :], q2[..., c, :-1, :], out=dots[..., 1, :, :])
        del w_conj
        np.matmul(dots.reshape(*dots.shape[:-3], 2 * d - 2, 2 * d), pick, out=read[..., c, :, :])
        del dots
    del prefix, ri
    # g = conj((2i dt / d) conj(overlap) G_j[k, k+1]), then the same of
    # G_j[k+1, k]: the control pair of transition k takes Re(up + down) and
    # Im(down - up)
    g = read.view(complex)[..., 0]
    g *= np.concatenate([unit.conj(), unit], axis=-1)
    g *= ((-2j * dt / d) * overlap)[..., None, None]
    grad = np.empty((*batch, n_slots, d - 1, 2))
    np.add(g[..., : d - 1].real, g[..., d - 1 :].real, out=grad[..., 0])
    np.subtract(g[..., d - 1 :].imag, g[..., : d - 1].imag, out=grad[..., 1])
    grad = grad.reshape(*batch, n_slots, 2 * (d - 1))
    return (infid if infid.ndim else float(infid)), grad


@dataclass(frozen=True, eq=False)
class GrapeResult:
    schedule: PulseSchedule
    infidelity: float
    converged: bool
    iterations: int


def grape_batch_size(d: int, n_slots: int) -> int:
    """How many targets of dimension d ``grape_optimize_many`` should run in
    one batch: as many as keep the complex (targets, n_slots, d, d) stack of
    slot matrices within ``STACK_BYTES``, and at least one.  The objective
    holds them as 128 KiB of real slot matrices at d <= 5 and takes them in
    runs of slots of at most ``STACK_BYTES``."""
    return max(1, STACK_BYTES // (16 * n_slots * d * d))


def grape_optimize(
    target: Operator,
    n_slots: int,
    total_time: float,
    goal_infidelity: float = 1e-6,
    seed: int = 0,
) -> GrapeResult:
    """Optimize piecewise-constant amplitudes so the composed propagator
    matches the target gate.

    Quasi-Newton descent on the gate infidelity with exact gradients
    (``_lbfgs.lbfgs_steps``, the unconstrained path of L-BFGS-B); amplitudes
    start small and random, [-0.1, 0.1]/slot_duration, seeded.  Stops once
    ``goal_infidelity`` is reached; otherwise restarts from fresh random
    amplitudes, ``GRAPE_RUNS`` runs in all, and returns the best run with
    ``converged=False``.  The one-target call of ``grape_optimize_many``.
    """
    return grape_optimize_many([target], n_slots, total_time, goal_infidelity, [seed])[0]


def grape_optimize_many(targets, n_slots, total_time, goal_infidelity, seeds) -> list[GrapeResult]:
    """``grape_optimize`` for each of ``targets``, all of one dimension, with
    the matching entry of ``seeds``, run in lockstep.

    Each target's runs are one generator over ``_lbfgs.lbfgs_steps``; every
    round stacks the points the unfinished targets wait on into one batched
    ``infidelity_and_gradient`` call and sends each target its own slice.
    Since a batched call equals each target's own call bit for bit, every
    result equals that target's ``grape_optimize`` result.  The batch's
    arrays grow with the number of targets: ``grape_batch_size`` gives a
    count that keeps them small.
    """
    require_dimension(n_slots, "n_slots")
    if not (np.isfinite(total_time) and total_time > 0):
        raise ValueError("total_time must be positive and finite")
    if not (np.isfinite(goal_infidelity) and goal_infidelity > 0):
        raise ValueError("goal_infidelity must be positive and finite")
    targets, seeds = list(targets), list(seeds)
    if len(seeds) != len(targets):
        raise ValueError(f"{len(targets)} targets need as many seeds, got {len(seeds)}")
    for target in targets:
        require_unitary(target)
    if len({target.dim for target in targets}) > 1:
        raise ValueError("targets must share one dimension")
    if not targets:
        return []

    dt = total_time / n_slots
    tgt = np.stack([target.entries for target in targets])
    shape = (n_slots, len(ladder_controls(targets[0].dim)))
    runs = [_grape_runs(shape, dt, goal_infidelity, seed) for seed in seeds]
    points = [next(run) for run in runs]
    results = [None] * len(runs)
    pending = list(range(len(runs)))
    while pending:
        amps = np.stack([points[i] for i in pending]).reshape(len(pending), *shape)
        infid, grad = infidelity_and_gradient(amps, tgt[pending], dt)
        waiting = []
        for k, i in enumerate(pending):
            try:
                points[i] = runs[i].send((infid[k], grad[k].ravel()))
                waiting.append(i)
            except StopIteration as done:
                results[i] = done.value
        pending = waiting
    return results


def _grape_runs(shape, dt, goal_infidelity, seed):
    """One target's GRAPE runs as a generator of the flat amplitude vectors
    to evaluate, sent (infidelity, flat gradient) back: up to ``GRAPE_RUNS``
    L-BFGS runs from seeded random starts, until one reaches the goal.
    Returns the ``GrapeResult`` of the best run."""
    rng = np.random.default_rng(seed)
    best_amps = None
    best_inf = np.inf
    total_iters = 0
    for _ in range(GRAPE_RUNS):
        x0 = rng.uniform(-0.1, 0.1, size=shape) / dt
        x, infid, iterations = yield from lbfgs_steps(
            x0.ravel(), lambda _x, f: f <= goal_infidelity, GRAPE_MAX_ITERS
        )
        total_iters += iterations
        if infid < best_inf:
            best_inf = infid
            best_amps = x.reshape(shape)
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
    dissipator D once per call.  The (scale, slot) generators
    (sum_k u_jk C_k + s D) dt are exponentiated by ``lindblad.expm`` in
    stacks of at most ``STACK_BYTES``, each a run of consecutive
    slots for a group of scales: as many scales as fit, all of them unless a
    matrix is large, and as many slots as then fit.  Each scale's
    slots are multiplied in slot order, one product per slot batched over
    the scales of a group.  Exponentials and products are taken matrix by
    matrix, so a channel depends only on its own scale, not on the other
    scales or how they are grouped.
    """
    d = noise.dim
    ladder = ladder_controls(d)
    if schedule.n_controls != len(ladder):
        raise ValueError(f"schedule has {schedule.n_controls} controls; a d = {d} qudit has {len(ladder)}")
    scales = nonnegative_values(scales, "scales")
    if scales.ndim != 1 or scales.size < 1:
        raise ValueError(f"scales must be a nonempty 1-d sequence, got shape {scales.shape}")
    dt = schedule.slot_duration
    amps = schedule.amplitudes
    controls = _real_controls(d)
    unit = dissipator(noise) * dt
    n_slots, k = len(amps), d * d
    per_stack = max(1, STACK_BYTES // (8 * k * k))
    rows = min(scales.size, per_stack)
    run = max(1, per_stack // rows)
    groups = range(0, scales.size, rows)
    totals = [np.eye(k)] * len(groups)
    for start in range(0, n_slots, run):
        drift = np.tensordot(amps[start : start + run], controls, axes=(1, 0)) * dt
        for g, lo in enumerate(groups):
            gens = drift + scales[lo : lo + rows, None, None, None] * unit
            for slot in np.swapaxes(expm(gens.reshape(-1, k, k)).reshape(gens.shape), 0, 1):
                totals[g] = slot @ totals[g]
    return [SuperOperator(m) for total in totals for m in total]
