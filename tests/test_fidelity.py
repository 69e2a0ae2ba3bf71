import math
from fractions import Fraction

import numpy as np
import pytest

from quditbench import (
    DensityMatrix,
    HaarSampler,
    NoiseModel,
    Operator,
    agi_curve,
    agi_exact,
    agi_first_order,
    agi_kraus,
    agi_monte_carlo,
    c_general,
    collapse_variance,
    dissipator_spectrum,
    haar_variance_monte_carlo,
    identity,
    kraus_first_order,
    kraus_multi,
    liouvillian,
    process_fidelity,
    process_from_average,
    propagate,
    spin_plus,
    spin_xy,
    spin_z,
    unitary_superoperator,
)
from quditbench.fitting import fit_slope
from quditbench.lindblad import SuperOperator

from oracles import state_fidelity


def zero_h(d):
    return Operator(np.zeros((d, d)))


def dephasing_channel(d, gamma_t):
    return propagate(liouvillian(zero_h(d), NoiseModel.single(1.0, spin_z(d))), gamma_t)


# ---------------------------------------------------------------------------
# state fidelity
# ---------------------------------------------------------------------------


def test_state_fidelity_pure_cases():
    psi = DensityMatrix.pure(np.array([1.0, 1.0]))
    assert abs(state_fidelity(psi, psi) - 1.0) < 1e-12
    mixed = DensityMatrix.maximally_mixed(4)
    target = DensityMatrix.pure(np.array([1, 0, 0, 0.0]))
    assert abs(state_fidelity(mixed, target) - 0.25) < 1e-12
    up = DensityMatrix.pure(np.array([1.0, 0.0]))
    down = DensityMatrix.pure(np.array([0.0, 1.0]))
    assert abs(state_fidelity(up, down)) < 1e-12


def test_state_fidelity_uhlmann_commuting_oracle():
    # for commuting states the Uhlmann fidelity is the classical
    # Bhattacharyya overlap (sum_i sqrt(p_i q_i))^2
    p, q = 0.7, 0.4
    rho = DensityMatrix(np.diag([p, 1 - p]))
    sigma = DensityMatrix(np.diag([q, 1 - q]))
    expected = (np.sqrt(p * q) + np.sqrt((1 - p) * (1 - q))) ** 2
    assert abs(state_fidelity(rho, sigma) - expected) < 1e-12


def test_state_fidelity_rejects_garbage():
    good = DensityMatrix.maximally_mixed(2)
    bad = DensityMatrix(np.diag([3.0, -2.0]) + 0j, check=False)
    with pytest.raises(ValueError):
        state_fidelity(bad, good)


# ---------------------------------------------------------------------------
# collapse variance (fluctuation-dissipation)
# ---------------------------------------------------------------------------


def test_collapse_variance_eigenstate_is_zero():
    state = DensityMatrix.pure(np.array([0, 1, 0.0]))
    assert abs(collapse_variance(state, spin_z(3))) < 1e-14


def test_collapse_variance_plus_state():
    plus = DensityMatrix.pure(np.array([1.0, 1.0]))
    assert abs(collapse_variance(plus, spin_z(2)) - 0.25) < 1e-14


def test_collapse_variance_requires_pure_state():
    with pytest.raises(ValueError):
        collapse_variance(DensityMatrix.maximally_mixed(2), spin_z(2))


def test_collapse_variance_predicts_state_infidelity():
    # 1 - F(E[rho*], rho*) = gamma t * variance + O((gamma t)^2)
    d, gt = 3, 1e-6
    rho = DensityMatrix.pure(np.array([0.2, 1.0, -0.7j]))
    out = propagate(liouvillian(zero_h(d), NoiseModel.single(1.0, spin_z(d))), gt)
    from quditbench import apply_channel

    infid = 1.0 - state_fidelity(apply_channel(out, rho), rho)
    assert abs(infid - gt * collapse_variance(rho, spin_z(d))) < 1e-10


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def test_haar_unitary_is_unitary_and_deterministic():
    s1 = HaarSampler(5, seed=42)
    s2 = HaarSampler(5, seed=42)
    u1, u2 = s1.unitary(), s2.unitary()
    assert np.abs(u1 - u2).max() == 0.0
    assert np.abs(u1.conj().T @ u1 - np.eye(5)).max() < 1e-10
    assert np.abs(HaarSampler(5, seed=43).unitary() - u1).max() > 1e-3
    # an int seed and SeedSequence(seed) draw one stream; gate-dependence seeds with spawned sequences
    from_int, from_seq = HaarSampler(5, seed=42), HaarSampler(5, seed=np.random.SeedSequence(42))
    assert np.array_equal(from_int.unitary(), from_seq.unitary())
    assert np.array_equal(from_int.states(7), from_seq.states(7))
    # a non-integer dimension fails at construction, not at the first draw
    with pytest.raises(ValueError, match="integer"):
        HaarSampler(2.5, 0)


def test_haar_moments():
    # E|U_00|^2 = 1/d and E|Tr U|^2 = 1 over the circular unitary ensemble
    n = 100_000
    for d in (2, 4):
        us = HaarSampler(d, seed=1).unitaries(n)
        m00 = np.abs(us[:, 0, 0]) ** 2
        se = m00.std(ddof=1) / np.sqrt(n)
        assert abs(m00.mean() - 1 / d) < 3 * se
        tr2 = np.abs(np.einsum("nii->n", us)) ** 2
        se = tr2.std(ddof=1) / np.sqrt(n)
        assert abs(tr2.mean() - 1.0) < 3 * se


def test_haar_states_normalized():
    psi = HaarSampler(6, seed=0).states(100)
    assert np.abs(np.linalg.norm(psi, axis=1) - 1).max() < 1e-12


# ---------------------------------------------------------------------------
# Haar-averaged variance (Weingarten closed form)
# ---------------------------------------------------------------------------


def test_haar_average_variance_closed_forms():
    # the Haar-averaged collapse variance is the slope c_general.
    # J_z at d=2: Tr(J_z^2)/3 = 1/6; the identity averages to zero
    assert abs(c_general(spin_z(2)) - 1 / 6) < 1e-14
    assert abs(c_general(identity(5))) < 1e-14
    # traceless L: Tr(L^dag L)/(d+1)
    for d in (3, 6):
        jp = spin_plus(d)
        tr = np.real(np.trace(jp.entries.conj().T @ jp.entries))
        assert abs(c_general(jp) - tr / (d + 1)) < 1e-12


def test_haar_average_variance_monte_carlo_oracle():
    rng = np.random.default_rng(8)
    for d in (2, 4):
        l = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        mean, se = haar_variance_monte_carlo(l, 100_000, HaarSampler(d, seed=d))
        assert abs(mean - c_general(l)) < 3 * se


# ---------------------------------------------------------------------------
# AGI: Kraus route
# ---------------------------------------------------------------------------


def test_agi_kraus_identity_channel():
    ks = kraus_first_order(spin_z(4), 0.0)
    assert agi_kraus(ks) == 0.0


def test_agi_kraus_matches_general_slope_algebra():
    # the Kraus-trace AGI equals gamma t * c_general(L) minus the known
    # quadratic correction (gamma t)^2 Tr(L^dag L)^2 / (4 d (d+1)), exactly
    rng = np.random.default_rng(21)
    gt = 1e-3
    for d in (2, 3, 5):
        l = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        got = agi_kraus(kraus_first_order(l, gt))
        tr_ldl = np.real(np.trace(l.entries.conj().T @ l.entries))
        expected = gt * c_general(l) - gt**2 * tr_ldl**2 / (4 * d * (d + 1))
        assert abs(got - expected) < 1e-14 * max(1.0, abs(expected))


def test_agi_kraus_dephasing_first_order():
    gt = 1e-6
    for d in (2, 5, 9):
        agi = agi_kraus(kraus_first_order(spin_z(d), gt))
        assert abs(agi - gt * d * (d - 1) / 12) < 2 * gt**2 * d**4


def test_agi_kraus_qubit_ensemble_first_order():
    gt = 1e-6
    for n in (1, 2, 4):
        agi = agi_kraus(kraus_multi(NoiseModel.site_dephasing(n), gt))
        expected = gt / 4 * n * 2**n / (2**n + 1)
        assert abs(agi - expected) < 2 * gt**2 * (n * 2**n) ** 2


def _first_order_agi_rational(noise, x):
    """AGI of the first-order Kraus set by the trace formula
    1 - (d + sum_k |Tr E_k|^2) / (d (d+1)) in exact rationals, on the same
    float rates, entries and gamma_t: Tr E_0 = d - (x/2) sum_k gamma_k
    sum_ij |L_ij|^2 and |Tr E_k|^2 = gamma_k x |Tr L_k|^2."""
    d = noise.dim
    x = Fraction(float(x))
    tr_e0 = Fraction(d)
    tail = Fraction(0)
    for gamma, op in noise.terms:
        l = op.entries
        norm2 = sum(Fraction(float(v.real)) ** 2 + Fraction(float(v.imag)) ** 2 for v in l[np.nonzero(l)])
        tr_e0 -= x / 2 * Fraction(gamma) * norm2
        diag = l.diagonal()
        re = sum(Fraction(float(v.real)) for v in diag)
        im = sum(Fraction(float(v.imag)) for v in diag)
        tail += Fraction(gamma) * x * (re * re + im * im)
    return 1 - (d + tr_e0 * tr_e0 + tail) / (d * (d + 1))


def test_agi_first_order_matches_exact_rationals_and_kraus():
    grid = np.linspace(0.0, 1e-4, 11)
    rng = np.random.default_rng(3)
    generic = Operator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    models = {
        "sites n=6": NoiseModel.site_dephasing(6),
        "sites n=3": NoiseModel.site_dephasing(3),
        "Jz d=64": NoiseModel.single(1.0, spin_z(64)),
        # not traceless and not Hermitian, with two rates: t = sum gamma |Tr L|^2 > 0
        "mixed d=4": NoiseModel(((0.7, generic), (1.3, spin_plus(4)))),
    }
    for name, noise in models.items():
        got = agi_first_order(noise, grid)
        assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0, name
        for x, value in zip(grid[1:], got[1:]):
            exact = _first_order_agi_rational(noise, x)
            assert abs(Fraction(float(value)) / exact - 1) <= 1e-15, (name, x)
            assert abs(value / agi_kraus(kraus_multi(noise, x)) - 1.0) <= 1e-9, (name, x)


# ---------------------------------------------------------------------------
# AGI: exact (process-fidelity) route
# ---------------------------------------------------------------------------


def test_agi_exact_identity_channel():
    assert abs(agi_exact(SuperOperator.identity(3), identity(3))) < 1e-14


def test_agi_exact_requires_unitary_target():
    with pytest.raises(ValueError):
        agi_exact(SuperOperator.identity(2), Operator(np.diag([1.0, 0.5])))


def test_agi_exact_matches_agi_kraus_on_first_order_channel():
    gt = 1e-4
    for d in (2, 4):
        ks = kraus_first_order(spin_z(d), gt)
        a = agi_exact(ks.to_superoperator(), identity(d))
        b = agi_kraus(ks)
        assert abs(a - b) < 1e-13


def test_agi_exact_dephasing_near_linear():
    # at gamma t = 0.01 the exact qubit AGI sits within 0.5% of gamma t / 6
    gt = 0.01
    agi = agi_exact(dephasing_channel(2, gt), identity(2))
    assert abs(agi - gt / 6) / (gt / 6) < 5e-3


def test_agi_basis_invariance():
    # conjugating channel and target by a fixed unitary leaves the AGI alone
    d, gt = 3, 1e-3
    chan = dephasing_channel(d, gt)
    u_target = HaarSampler(d, seed=2).unitary()
    r = HaarSampler(d, seed=3).unitary()
    s_r = unitary_superoperator(Operator(r)).matrix
    s_rdag = unitary_superoperator(Operator(r.conj().T)).matrix
    rotated = SuperOperator(s_rdag @ chan.matrix @ s_r)
    a = agi_exact(SuperOperator(unitary_superoperator(Operator(u_target)).matrix @ chan.matrix), Operator(u_target))
    b = agi_exact(
        SuperOperator(
            unitary_superoperator(Operator(r.conj().T @ u_target @ r)).matrix @ rotated.matrix
        ),
        Operator(r.conj().T @ u_target @ r),
    )
    assert abs(a - b) < 1e-10


def test_agi_additivity_over_orthogonal_collapse_operators():
    # for trace-orthogonal traceless collapse operators the first-order AGIs add
    d = 4
    jx, jy = spin_xy(d)
    jz = spin_z(d)
    triple = NoiseModel(((1.0, jx), (1.0, jy), (1.0, jz)))
    grid = np.linspace(0, 1e-5, 6)
    gen = liouvillian(zero_h(d), triple)
    combined = fit_slope(grid, [agi_exact(propagate(gen, gt), identity(d)) for gt in grid])
    total = sum(c_general(op) for op in (jx, jy, jz))
    assert abs(combined.slope_c - total) / total < 1e-4


def test_gate_independence_of_instantaneous_unitaries():
    # slope is identical for dissipation followed by any instantaneous gate
    d, grid = 3, np.linspace(0, 1e-5, 5)
    gen = liouvillian(zero_h(d), NoiseModel.single(1.0, spin_z(d)))
    sampler = HaarSampler(d, seed=9)
    slopes = []
    for _ in range(20):
        u = Operator(sampler.unitary())
        su = unitary_superoperator(u).matrix
        agis = [agi_exact(SuperOperator(su @ propagate(gen, gt).matrix), u) for gt in grid]
        slopes.append(fit_slope(grid, agis).slope_c)
    slopes = np.array(slopes)
    assert (slopes.max() - slopes.min()) / slopes.mean() < 1e-6


# ---------------------------------------------------------------------------
# AGI: Monte Carlo route
# ---------------------------------------------------------------------------


def test_agi_monte_carlo_noiseless():
    d = 3
    u = Operator(HaarSampler(d, seed=4).unitary())
    mean, se = agi_monte_carlo(unitary_superoperator(u), u, 1000, HaarSampler(d, seed=5))
    assert abs(mean) < 1e-10


def test_agi_monte_carlo_dephasing_qubit():
    gt = 1e-4
    mean, se = agi_monte_carlo(dephasing_channel(2, gt), identity(2), 100_000, HaarSampler(2, seed=6))
    assert abs(mean - gt / 6) < 3 * se


def test_agi_monte_carlo_cross_checks_exact():
    d, gt = 4, 1e-3
    chan = dephasing_channel(d, gt)
    mean, se = agi_monte_carlo(chan, identity(d), 100_000, HaarSampler(d, seed=7))
    assert abs(mean - agi_exact(chan, identity(d))) < 3 * se


def _agi_monte_carlo_two_products(channel, target_gate, n_samples, sampler):
    """Reference: Re <S_U v, S v> per sample, v = vec(|psi><psi|), drawn in
    the same chunks as agi_monte_carlo."""
    from quditbench.fidelity import MONTE_CARLO_CHUNK
    from quditbench.lindblad import vec

    su = unitary_superoperator(target_gate).matrix
    samples = []
    for done in range(0, n_samples, MONTE_CARLO_CHUNK):
        psi = sampler.states(min(MONTE_CARLO_CHUNK, n_samples - done))
        vecs = vec(psi[:, :, None] * psi.conj()[:, None, :]).T
        fid = np.einsum("kn,kn->n", (su @ vecs).conj(), channel.matrix @ vecs).real
        samples.append(1.0 - fid)
    samples = np.concatenate(samples)
    return samples.mean(), samples.std(ddof=1) / np.sqrt(n_samples)


def test_agi_monte_carlo_matches_two_product_reference():
    from quditbench.experiments import collapse_model
    from quditbench.fidelity import MONTE_CARLO_BLOCK, MONTE_CARLO_CHUNK

    d = 3
    n = MONTE_CARLO_CHUNK + MONTE_CARLO_BLOCK + 1  # crosses a chunk and a block boundary
    # complex channel entries and a complex target catch a sign slip in the
    # imaginary coordinates; a generic complex matrix pins the Re(R) reduction
    jxyz = propagate(liouvillian(zero_h(d), collapse_model("JxJyJz", d)), 1e-2)
    rng = np.random.default_rng(12)
    generic = SuperOperator(rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d)))
    target = Operator(HaarSampler(d, seed=13).unitary())
    for channel in (jxyz, generic):
        for gate in (target, identity(d)):
            mean, se = agi_monte_carlo(channel, gate, n, HaarSampler(d, seed=14))
            ref_mean, ref_se = _agi_monte_carlo_two_products(channel, gate, n, HaarSampler(d, seed=14))
            assert abs(mean / ref_mean - 1.0) <= 1e-12
            assert abs(se / ref_se - 1.0) <= 1e-12


def test_agi_monte_carlo_does_not_depend_on_the_block(monkeypatch):
    import quditbench.fidelity as fidelity
    from quditbench.experiments import collapse_model

    d = 12
    channel = propagate(liouvillian(zero_h(d), collapse_model("JxJyJz", d)), 1e-3)
    n = fidelity.MONTE_CARLO_CHUNK + 1_003  # crosses a chunk and ragged blocks
    results = []
    for block in (7, fidelity.MONTE_CARLO_BLOCK, 2_000):
        monkeypatch.setattr(fidelity, "MONTE_CARLO_BLOCK", block)
        results.append(agi_monte_carlo(channel, identity(d), n, HaarSampler(d, seed=15)))
    for mean, se in results[1:]:
        assert abs(mean / results[0][0] - 1.0) <= 1e-15
        assert abs(se / results[0][1] - 1.0) <= 1e-15


def test_agi_monte_carlo_validation():
    with pytest.raises(ValueError):
        agi_monte_carlo(SuperOperator.identity(2), identity(2), 1, HaarSampler(2, seed=0))
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError, match="sample count"):
            agi_monte_carlo(SuperOperator.identity(2), identity(2), bad, HaarSampler(2, seed=0))
        with pytest.raises(ValueError, match="sample count"):
            haar_variance_monte_carlo(identity(2), bad, HaarSampler(2, seed=0))
    with pytest.raises(ValueError):
        agi_monte_carlo(SuperOperator.identity(2), Operator(np.diag([1.0, 2.0])), 10, HaarSampler(2, seed=0))


# ---------------------------------------------------------------------------
# process fidelity conversion
# ---------------------------------------------------------------------------


def test_process_from_average_closed_forms():
    gt = 1e-5
    for d in (2, 3, 8):
        agi = gt / 12 * d * (d - 1)
        assert abs(process_from_average(agi, d) - gt / 12 * (d * d - 1)) < 1e-18
    for n in (1, 2, 5):
        dim = 2**n
        agi = gt / 4 * n * dim / (dim + 1)
        assert abs(process_from_average(agi, dim) - gt / 4 * n) < 1e-18
    assert process_from_average(0.0, 7) == 0.0
    with pytest.raises(ValueError):
        process_from_average(0.1, 0)


def _dense_agis(noise, grid):
    d = noise.dim
    gen = liouvillian(zero_h(d), noise)
    return np.array([agi_exact(propagate(gen, gt), identity(d)) for gt in grid])


def _random_diagonal(rng, d):
    return Operator(np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)))


def test_process_fidelity_matches_trace_form():
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        kraus = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3)]
        s = sum(np.kron(k.conj(), k) for k in kraus) / (3 * d)
        gate = Operator(HaarSampler(d, seed=d).unitary())
        su = unitary_superoperator(gate).matrix
        old = np.real(np.trace(su.conj().T @ s)) / d**2
        new = process_fidelity(SuperOperator(s), gate)
        assert abs(new - old) <= 1e-13 * max(1.0, abs(old))


def test_agi_dephasing_matches_dense_oracle():
    rng = np.random.default_rng(31)
    grid = np.array([0.0, 1e-4, 1e-3, 1e-2])
    models = [NoiseModel.single(1.0, spin_z(d)) for d in range(2, 13)]
    models += [NoiseModel.site_dephasing(n) for n in range(1, 6)]
    models.append(NoiseModel.single(1.0, _random_diagonal(rng, 5)))
    unequal = ((0.4, spin_z(6)), (1.3, _random_diagonal(rng, 6)), (2.5, Operator(np.diag(np.arange(6.0)))))
    models.append(NoiseModel(unequal))
    for noise in models:
        fast = agi_curve(noise, grid)
        dense = _dense_agis(noise, grid)
        assert fast[0] == 0.0
        assert np.abs(fast[1:] / dense[1:] - 1.0).max() <= 1e-10


def test_agi_dephasing_matches_expm1_reference():
    # real exponents: math.expm1 per entry, exactly summed by math.fsum
    for noise in (NoiseModel.single(1.0, spin_z(7)), NoiseModel.site_dephasing(3)):
        z = dissipator_spectrum(noise)
        d = noise.dim
        for gt in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2):
            ref = -math.fsum(math.expm1(gt * v) for v in z.real) / (d * (d + 1))
            assert abs(agi_curve(noise, [gt])[0] / ref - 1.0) <= 1e-14


def test_agi_dephasing_matches_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(37)
    d = 4
    noise = NoiseModel.single(1.0, _random_diagonal(rng, d))
    z = dissipator_spectrum(noise)
    with mpmath.workdps(40):
        for gt in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2):
            ref = -sum(mpmath.re(mpmath.expm1(gt * mpmath.mpc(v))) for v in z) / (d * (d + 1))
            assert abs(agi_curve(noise, [gt])[0] / float(ref) - 1.0) <= 1e-14


def test_agi_curves_reject_negative_and_non_finite_gamma_t():
    noise = NoiseModel.single(1.0, spin_z(3))
    for curve in (agi_curve, agi_first_order):
        for bad in (-1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                curve(noise, [0.0, bad])


def test_agi_dephasing_zero_is_positive_zero():
    curve = agi_curve(NoiseModel.single(1.0, spin_z(3)), [0.0])
    assert math.copysign(1.0, curve[0]) == 1.0
