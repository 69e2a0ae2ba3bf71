from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from quditbench import (
    HaarSampler,
    NoiseModel,
    Operator,
    PulseSchedule,
    agi_exact,
    fit_slope,
    grape_optimize,
    identity,
    ladder_controls,
    liouvillian,
    propagate,
    schedule_to_propagator,
    spin_plus,
    spin_xy,
    spin_z,
    unitary_superoperator,
)
from quditbench import experiments, pulses
from quditbench.experiments import default_spec
from quditbench.lindblad import expm as real_expm
from quditbench.pulses import infidelity_and_gradient

from oracles import (
    complex_schedule_channel, gate_infidelity, gradient_per_slot, long_double_gate_agis, schedule_unitary,
)


def test_ladder_basis_structure():
    for d in (2, 3, 5):
        controls = ladder_controls(d)
        assert controls.shape == (2 * (d - 1), d, d)
        assert ladder_controls(d) is controls
        for op in controls:
            assert np.abs(op - op.conj().T).max() < 1e-15
            assert abs(np.trace(op)) < 1e-15
        with pytest.raises(ValueError):
            controls[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ladder_controls(1)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4):
        n_controls = 2 * (d - 1)
        amps = rng.uniform(-2, 2, size=(8, n_controls))
        target = HaarSampler(d, seed=d).unitary()
        dt = 0.125
        _, grad = infidelity_and_gradient(amps, target, dt)
        eps = 1e-6
        fd = np.empty_like(grad)
        for j in range(amps.shape[0]):
            for k in range(amps.shape[1]):
                up, down = amps.copy(), amps.copy()
                up[j, k] += eps
                down[j, k] -= eps
                fp, _ = infidelity_and_gradient(up, target, dt)
                fm, _ = infidelity_and_gradient(down, target, dt)
                fd[j, k] = (fp - fm) / (2 * eps)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-6, (d, rel)


def test_gradient_matches_per_slot_reference():
    # slot counts that are not powers of two end the doubling scan part-way;
    # odd d gives the bidiagonal block a null vector
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5, 6, 7, 8):
        n_controls = 2 * (d - 1)
        for n_slots in (1, 2, 3, 5, 4 * d):
            amps = rng.uniform(-2, 2, size=(n_slots, n_controls))
            amps[0, 2 * (d // 2 - 1) : 2 * (d // 2)] = 0.0  # one transition off: the ladder splits
            if n_slots > 1:
                amps[1] = 0.0  # H_j = 0: every eigenvalue pair is degenerate
            target = HaarSampler(d, seed=10 + d).unitary()
            dt = 1.0 / n_slots
            _, grad = infidelity_and_gradient(amps, target, dt)
            ref = gradient_per_slot(amps, target, dt)
            assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref), (d, n_slots)


def test_gradient_is_exact_at_near_degenerate_spectra():
    # one slot with tiny amplitudes has eigenvalue gaps of the same size,
    # where a difference quotient of phases cancels almost every digit
    # (slot 3), and so has one with a transition switched off (slot 4),
    # whose gauge phase is taken over a zero modulus
    rng = np.random.default_rng(33)
    for d in (2, 3, 4, 6, 7, 8):
        n_controls = 2 * (d - 1)
        target = HaarSampler(d, seed=20 + d).unitary()
        for scale in (1e-9, 1e-10, 1e-11):
            amps = rng.uniform(-2, 2, size=(4 * d, n_controls))
            amps[2] = scale * rng.uniform(-1, 1, size=n_controls)
            amps[3] = scale * rng.uniform(-1, 1, size=n_controls)
            amps[3, -2:] = 0.0
            dt = 1.0 / amps.shape[0]
            _, grad = infidelity_and_gradient(amps, target, dt)
            ref = gradient_per_slot(amps, target, dt)
            for j in (2, 3):
                err = np.linalg.norm(grad[j] - ref[j]) / np.linalg.norm(ref[j])
                assert err <= 1e-13, (d, scale, j, err)


def test_infidelity_composes_slot_one_first():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4, 5, 6, 7, 8):
        n_controls = 2 * (d - 1)
        target = HaarSampler(d, seed=30 + d).unitary()
        for n_slots in (1, 3, 5, 8 * d):
            amps = rng.uniform(-2, 2, size=(n_slots, n_controls))
            amps[-1, :2] = 0.0  # the first transition off
            schedule = PulseSchedule(1.0 / n_slots, amps)
            infid, _ = infidelity_and_gradient(schedule.amplitudes, target, schedule.slot_duration)
            exact = gate_infidelity(schedule_unitary(schedule).entries, target)
            assert abs(infid - exact) <= 1e-14, (d, n_slots)


def test_infidelity_and_gradient_rejects_wrong_control_count():
    target = HaarSampler(3, seed=1).unitary()
    for amps in (np.zeros((4, 3)), np.zeros((4, 5)), np.zeros(4), np.zeros((4, 2, 2))):
        with pytest.raises(ValueError, match="2\\(d-1\\) = 4 columns"):
            infidelity_and_gradient(amps, target, 0.25)


def test_grape_identity_gate():
    res = grape_optimize(identity(3), n_slots=12, total_time=1.0, goal_infidelity=1e-12, seed=1)
    assert res.converged
    assert res.infidelity < 1e-10
    u = schedule_unitary(res.schedule)
    assert gate_infidelity(u.entries, np.eye(3)) < 1e-10


def test_grape_x_gate():
    target = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
    res = grape_optimize(target, n_slots=10, total_time=1.0, goal_infidelity=1e-8, seed=2)
    assert res.converged and res.infidelity <= 1e-8


def test_grape_cue_gate_regression():
    # empirical convergence baseline: d=4 CUE gate, 64 slots, within 500 iters
    target = Operator(HaarSampler(4, seed=42).unitary())
    res = grape_optimize(target, n_slots=64, total_time=1.0, goal_infidelity=1e-6, seed=7)
    assert res.converged
    assert res.infidelity <= 1e-6
    assert res.iterations <= 500


def test_grape_unreachable_target_keeps_the_best_of_three_runs(monkeypatch):
    # two slots cannot reach a CUE gate at d = 3: every run ends unconverged
    runs = []
    real_steps = pulses.lbfgs_steps

    def recording_steps(*args):
        runs.append((yield from real_steps(*args)))  # (x, f, iterations)
        return runs[-1]

    monkeypatch.setattr(pulses, "lbfgs_steps", recording_steps)
    target = Operator(HaarSampler(3, seed=5).unitary())
    res = grape_optimize(target, n_slots=2, total_time=1.0, goal_infidelity=1e-300)
    assert len(runs) == 3
    assert res.converged is False
    assert res.infidelity == min(float(f) for _, f, _ in runs)
    assert res.iterations == sum(iterations for _, _, iterations in runs)


def test_batched_objective_equals_each_solo_call():
    # a schedule's value and gradient do not depend on the batch it is in;
    # from d = 6 on one gate's slot stack alone fills a grape_batch_size
    # batch, and from d = 4 on at 8d slots a batch of 7 takes its slots in
    # more runs than one gate does
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5, 6, 7, 8):
        for n_slots in (1, 5, 8 * d):
            amps = rng.uniform(-3, 3, size=(7, n_slots, 2 * (d - 1)))
            targets = np.stack([HaarSampler(d, seed=10 * d + k).unitary() for k in range(7)])
            solo = [infidelity_and_gradient(a, t, 0.3) for a, t in zip(amps, targets)]
            assert all(isinstance(f, float) for f, _ in solo)
            for size in (1, 3, 7):
                for lo in range(0, 7, size):
                    infid, grad = infidelity_and_gradient(amps[lo : lo + size], targets[lo : lo + size], 0.3)
                    assert infid.shape == (len(grad),) and grad.shape[1:] == amps.shape[1:]
                    for k, (f, g) in enumerate(solo[lo : lo + size]):
                        assert infid[k] == f and np.array_equal(grad[k], g), (d, n_slots, size, lo + k)


def test_grape_optimize_many_equals_solo_runs():
    # at d = 3 with two slots the identity converges within a few iterations
    # while the CUE gates run all three restarts unconverged, so the batch
    # shrinks as targets finish
    targets = [identity(3), *(Operator(HaarSampler(3, seed=s).unitary()) for s in (5, 6)), identity(3)]
    seeds = [0, 1, 2, 3]
    many = pulses.grape_optimize_many(targets, 2, 1.0, 1e-8, seeds)
    assert [res.converged for res in many] == [True, False, False, True]
    for target, seed, res in zip(targets, seeds, many):
        solo = grape_optimize(target, n_slots=2, total_time=1.0, goal_infidelity=1e-8, seed=seed)
        assert np.array_equal(res.schedule.amplitudes, solo.schedule.amplitudes)
        assert res.schedule.slot_duration == solo.schedule.slot_duration
        assert (res.infidelity, res.converged, res.iterations) == (solo.infidelity, solo.converged, solo.iterations)
    assert pulses.grape_optimize_many([], 2, 1.0, 1e-8, []) == []
    with pytest.raises(ValueError, match="seeds"):
        pulses.grape_optimize_many(targets, 2, 1.0, 1e-8, seeds[:3])
    with pytest.raises(ValueError, match="one dimension"):
        pulses.grape_optimize_many([identity(2), identity(3)], 2, 1.0, 1e-8, [0, 1])


def test_grape_batch_size_keeps_the_slot_stack_within_the_bound():
    # at the gate-dependence slot count 8 d: 64 / 18 / 8 / 4 / 2 / 1 gates
    sizes = [pulses.grape_batch_size(d, 8 * d) for d in (2, 3, 4, 5, 6, 8)]
    assert sizes == [64, 18, 8, 4, 2, 1]
    for d, size in zip((2, 3, 4, 5, 6), sizes):
        assert 16 * size * 8 * d**3 <= pulses.STACK_BYTES < 16 * (size + 1) * 8 * d**3


def test_grape_validation():
    for n_slots in (0, 2.5):
        with pytest.raises(ValueError, match="n_slots"):
            grape_optimize(identity(2), n_slots=n_slots, total_time=1.0)
    with pytest.raises(ValueError):
        grape_optimize(Operator(np.diag([1.0, 0.3])), n_slots=4, total_time=1.0)
    with pytest.raises(ValueError):
        grape_optimize(identity(2), n_slots=4, total_time=1.0, goal_infidelity=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="total_time"):
            grape_optimize(identity(2), n_slots=4, total_time=bad)
        with pytest.raises(ValueError, match="goal_infidelity"):
            grape_optimize(identity(2), n_slots=4, total_time=1.0, goal_infidelity=bad)


def test_schedule_scoring_consistency():
    # the optimizer's own score is reproduced by the noiseless propagator
    d = 3
    target = Operator(HaarSampler(d, seed=5).unitary())
    res = grape_optimize(target, n_slots=24, total_time=1.0, goal_infidelity=1e-8, seed=3)
    u = schedule_unitary(res.schedule)
    assert abs(gate_infidelity(u.entries, target.entries) - res.infidelity) < 1e-10
    noise = NoiseModel.single(1.0, spin_z(d))
    (super_noiseless,) = schedule_to_propagator(res.schedule, noise, [0.0])
    assert np.abs(super_noiseless.matrix - unitary_superoperator(u).matrix).max() < 1e-10


def test_schedule_propagator_trivial_cases():
    d = 3
    n_controls = 2 * (d - 1)
    zero = PulseSchedule(0.25, np.zeros((4, n_controls)))
    noise = NoiseModel.single(0.4, spin_z(d))
    noiseless, with_noise = schedule_to_propagator(zero, noise, [0.0, 1.0])
    assert np.abs(noiseless.matrix - np.eye(d * d)).max() < 1e-14
    reference = propagate(liouvillian(Operator(np.zeros((d, d))), noise), 1.0)
    assert np.abs(with_noise.matrix - reference.matrix).max() < 1e-12


def test_schedule_propagator_validation():
    d = 2
    n_controls = 2 * (d - 1)
    sched = PulseSchedule(0.25, np.zeros((4, n_controls)))
    noise = NoiseModel.single(1.0, spin_z(d))
    for scales in ([], [[0.1]], [-0.1], [np.nan], [np.inf]):
        with pytest.raises(ValueError):
            schedule_to_propagator(sched, noise, scales)
    with pytest.raises(ValueError):
        schedule_to_propagator(sched, NoiseModel.single(1.0, spin_z(3)), [0.1])
    with pytest.raises(ValueError):
        schedule_to_propagator(PulseSchedule(0.25, np.zeros((4, 1))), noise, [0.1])


def test_schedule_propagator_matches_slot_products(monkeypatch):
    # the real product against the complex column-stacked one of
    # complex_schedule_channel, at small slot norms (3d slots,
    # |u| dt <= 0.33) and at the |u| dt ~ 15 that synthesized pulses reach
    # (8d slots, as in gate-dependence); the largest entrywise gaps measured
    # here were 2.7e-15 and 2.1e-14 (scipy's real expm gave up to 2.6e-13 on
    # the second).  Each call runs at three stack sizes: the default, 4 KiB,
    # which splits every schedule but the 6-slot one across stacks, and one
    # generator per stack.
    rng = np.random.default_rng(22)
    scales = (0.0, 1e-4, 0.1, 1.0, 3.0)
    stack_sizes = (pulses.STACK_BYTES, 4096, 1)
    for d in (2, 3, 4, 5):
        n_controls = 2 * (d - 1)
        small = rng.uniform(-2, 2, size=(3 * d, n_controls))
        small[0] = 0.0
        large = rng.uniform(-15, 15, size=(8 * d, n_controls)) * 8 * d
        models = {
            "Jz": NoiseModel.single(1.0, spin_z(d)),
            "Jx": NoiseModel.single(1.0, spin_xy(d)[0]),
            "J+": NoiseModel.single(1.0, spin_plus(d)),
            "0.3 Jz + 0.1 J+": NoiseModel(((0.3, spin_z(d)), (0.1, spin_plus(d)))),
        }
        for amps in (small, large):
            sched = PulseSchedule(1.0 / amps.shape[0], amps)
            for name, noise in models.items():
                expected = [
                    complex_schedule_channel(
                        sched, NoiseModel(tuple((s * gamma, op) for gamma, op in noise.terms))
                    ).matrix
                    for s in scales
                ]
                for stack_bytes in stack_sizes:
                    monkeypatch.setattr(pulses, "STACK_BYTES", stack_bytes)
                    channels = schedule_to_propagator(sched, noise, scales)
                    assert len(channels) == len(scales)
                    for s, got, want in zip(scales, channels, expected):
                        assert np.abs(got.matrix - want).max() <= 1e-13, (d, name, s, stack_bytes)


def test_real_expm_matches_complex_expm():
    # no squaring up to 1-norm 1 and up to 6 squarings past it, with both
    # sides of the halving edges 1, 2 and 8, on generic and on antisymmetric
    # (orthogonal-exponential) matrices; the largest gap measured, relative
    # to the largest entry of the exponential, was 5.1e-15
    rng = np.random.default_rng(0)
    for n in (4, 9, 16):
        for antisymmetric in (False, True):
            for norm in (0.0, 1e-3, 0.1, 0.5, 1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 5.0, 8.0 + 1e-9, 20.0, 50.0):
                a = rng.standard_normal((8, n, n))
                if antisymmetric:
                    a = a - np.swapaxes(a, 1, 2)
                elif norm > 20.0:
                    continue
                a *= norm / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
                expected = expm(a.astype(complex)).real
                got = real_expm(a)
                gap = np.abs(got - expected).max(axis=(1, 2)) / np.abs(expected).max(axis=(1, 2))
                assert gap.max() <= 2e-14, (n, antisymmetric, norm, gap.max())
    # each matrix of a stack that mixes squaring counts comes out as it does
    # on its own
    a = rng.standard_normal((6, 9, 9)) * np.array([1e-4, 0.05, 0.3, 1.0, 4.0, 30.0])[:, None, None]
    stacked = real_expm(a)
    for i in range(len(a)):
        assert np.array_equal(stacked[i], real_expm(a[i : i + 1])[0]), i


def test_large_norm_gate_agi_matches_exact():
    # the gate-dependence pulse with the largest slot norms at desk scale
    # (seed 4, d = 3, gate 40: |u| dt up to 15; the next, d = 3 gate 198,
    # reaches 8.1): its noiseless AGI against the AGI of the exactly composed
    # unitary, and its channels over the grid against the complex route;
    # measured 2.2e-15 and 2.2e-14 (scipy's real expm gave 8e-13 and 2e-12)
    d = 3
    gate_seed, grape_seed = np.random.SeedSequence([4, d, 40]).spawn(2)
    target = Operator(HaarSampler(d, gate_seed).unitary())
    res = grape_optimize(
        target,
        n_slots=experiments.GATE_SLOTS_PER_LEVEL * d,
        total_time=experiments.GATE_TOTAL_TIME,
        goal_infidelity=experiments.GATE_GOAL_INFIDELITY,
        seed=grape_seed,
    )
    sched = res.schedule
    assert np.abs(sched.amplitudes).max() * sched.slot_duration > 10
    w, v = np.linalg.eigh(np.tensordot(sched.amplitudes, ladder_controls(d), axes=(1, 0)))
    u = np.eye(d, dtype=complex)
    for x in (v * np.exp(-1j * sched.slot_duration * w)[:, None, :]) @ v.conj().transpose(0, 2, 1):
        u = x @ u
    f_pro = abs(np.trace(target.entries.conj().T @ u)) ** 2 / d**2
    exact = 1.0 - (d * f_pro + 1.0) / (d + 1.0)
    grid = np.geomspace(1e-5, 1e-3, 9)
    noise = NoiseModel.single(1.0, spin_z(d))
    noiseless, *channels = schedule_to_propagator(sched, noise, np.concatenate([[0.0], grid]))
    assert abs(agi_exact(noiseless, target) - exact) <= 2e-14
    for gt, got in zip(grid, channels):
        expected = complex_schedule_channel(sched, NoiseModel.single(gt, spin_z(d)))
        assert np.abs(got.matrix - expected.matrix).max() <= 1e-13, gt


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="long double is float64 on this platform, so the reference is no more precise than the route",
)
def test_gate_agis_match_long_double_reference():
    # the gate-dependence work item's AGIs and slope against the long-double
    # channel of the same pulse, on the desk grid; the float64 error is the
    # cancellation in 1 - F_bar at AGI ~ 1e-6: measured at most 8.6e-11
    # pointwise and 8.3e-12 on the slope (x86-64 80-bit long double)
    grid = experiments.default_spec("gate-dependence").grid()
    for d in (2, 3, 4):
        for g in range(2):
            gate_seed, grape_seed = np.random.SeedSequence([4, d, g]).spawn(2)
            target = Operator(HaarSampler(d, gate_seed).unitary())
            res = grape_optimize(
                target,
                n_slots=experiments.GATE_SLOTS_PER_LEVEL * d,
                total_time=experiments.GATE_TOTAL_TIME,
                goal_infidelity=experiments.GATE_GOAL_INFIDELITY,
                seed=grape_seed,
            )
            noise = experiments.collapse_model("Jz", d)
            scales = grid / experiments.GATE_TOTAL_TIME
            got = np.array([agi_exact(c, target) for c in schedule_to_propagator(res.schedule, noise, scales)])
            ref = long_double_gate_agis(res.schedule, noise, scales, target).astype(float)
            assert np.abs(got / ref - 1.0).max() <= 3e-10, (d, g)
            slope, ref_slope = (fit_slope(grid, agis).slope_c for agis in (got, ref))
            assert abs(slope / ref_slope - 1.0) <= 3e-11, (d, g)


def test_schedule_propagator_scales_are_independent(monkeypatch):
    # entry i of a multi-scale call is the one-scale call at scales[i], at
    # the default stack size and at sizes that hold all four scales with
    # the schedule split into two runs or into single slots, two scales per
    # stack, and one matrix per stack
    rng = np.random.default_rng(3)
    scales = (0.0, 1e-5, 0.5, 2.0)
    default = pulses.STACK_BYTES
    for d in (2, 3, 4):
        n_controls = 2 * (d - 1)
        sched = PulseSchedule(0.1, rng.uniform(-2, 2, size=(3 * d, n_controls)))
        noise = NoiseModel(((0.3, spin_z(d)), (0.1, spin_plus(d))))
        for stack_bytes in (default, *(n * 8 * d**4 for n in (4 * 3 * d - 1, 6, 3, 1))):
            monkeypatch.setattr(pulses, "STACK_BYTES", stack_bytes)
            for s, many in zip(scales, schedule_to_propagator(sched, noise, scales)):
                (one,) = schedule_to_propagator(sched, noise, [s])
                assert np.abs(many.matrix - one.matrix).max() <= 1e-15, (d, s, stack_bytes)


def test_gate_rows_match_the_complex_route(monkeypatch):
    # the gate-dependence work item's AGIs against one complex channel per
    # grid point, the route the work item took before the real product
    seen = []

    def recording_grape(targets, **kwargs):
        results = pulses.grape_optimize_many(targets, **kwargs)
        seen.extend(zip(targets, results))
        return results

    agis = []

    def recording_agi(channels, target):
        out = agi_exact(channels, target)
        agis.extend(out)
        return out

    monkeypatch.setattr(experiments, "grape_optimize_many", recording_grape)
    monkeypatch.setattr(experiments, "agi_exact", recording_agi)
    spec = replace(default_spec("gate-dependence", seed=7), dims=(2, 3, 4), gates="cue", n_gates=2)
    grid = spec.grid()
    rows = experiments._gate_rows(spec, workers=1)
    assert len(rows) == len(seen) == 6 and len(agis) == 6 * len(grid)
    worst = 0.0
    for k, (target, res) in enumerate(seen):
        d = target.dim
        expected = [
            agi_exact(
                complex_schedule_channel(
                    res.schedule, NoiseModel.single(gt / experiments.GATE_TOTAL_TIME, spin_z(d))
                ),
                target,
            )
            for gt in grid
        ]
        got = agis[k * len(grid) : (k + 1) * len(grid)]
        worst = max(worst, np.abs(np.subtract(got, expected)).max())
    assert worst <= 2e-15, worst


def test_schedule_propagator_agi_sanity():
    # a synthesized gate under weak dephasing lands near the universal slope
    d = 2
    target = Operator(HaarSampler(d, seed=8).unitary())
    res = grape_optimize(target, n_slots=16, total_time=1.0, goal_infidelity=1e-8, seed=4)
    gt = 1e-4
    (chan,) = schedule_to_propagator(res.schedule, NoiseModel.single(1.0, spin_z(d)), [gt])
    agi = agi_exact(chan, target)
    assert abs(agi - gt / 6) / (gt / 6) < 0.02


def test_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule(0.0, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PulseSchedule(0.1, np.zeros(4))
    with pytest.raises(ValueError):
        PulseSchedule(float("nan"), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PulseSchedule(float("inf"), np.zeros((4, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        amps = np.zeros((4, 2))
        amps[2, 1] = bad
        with pytest.raises(ValueError):
            PulseSchedule(0.1, amps)
