import numpy as np
import pytest

from quditbench import (
    DensityMatrix,
    NoiseModel,
    Operator,
    apply_channel,
    kraus_first_order,
    kraus_multi,
    liouvillian,
    perturbative_expansion,
    propagate,
    spin_xy,
    spin_z,
)
from quditbench.channels import KrausSet, expansion_terms
from quditbench.lindblad import SuperOperator

from oracles import embed_site, kraus_superoperator, zero_h


def random_collapse(d, seed):
    rng = np.random.default_rng(seed)
    return Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def test_kraus_first_order_forms():
    with pytest.raises(ValueError):
        kraus_first_order(spin_z(2), -1e-3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="time"):
            kraus_first_order(spin_z(2), bad)
        with pytest.raises(ValueError, match="time"):
            kraus_multi(NoiseModel.single(1.0, spin_z(2)), bad)
    assert len(kraus_first_order(spin_z(2), 0.0).ops) == 1
    gt = 1e-3
    for d in (2, 5):
        ks = kraus_first_order(spin_z(d), gt)
        l = spin_z(d).entries
        assert np.abs(ks.ops[0].entries - (np.eye(d) - gt / 2 * l @ l)).max() < 1e-15
        assert np.abs(ks.ops[1].entries - np.sqrt(gt) * l).max() < 1e-15
        assert ks.hilbert_dim == d
    with pytest.raises(ValueError):
        KrausSet((spin_z(2), spin_z(3)))
    with pytest.raises(ValueError):
        KrausSet(())


def test_kraus_trace_for_dephasing():
    # Tr(E_0) = d - (gamma t / 24) d (d^2 - 1) for L = J_z
    gt = 2e-4
    for d in (2, 3, 8, 13):
        ks = kraus_first_order(spin_z(d), gt)
        expected = d - gt / 24 * d * (d * d - 1)
        assert abs(ks.ops[0].trace() - expected) < 1e-12
        assert abs(ks.ops[1].trace()) < 1e-14


def test_completeness_defect_exact():
    # sum E^dag E - 1 = (gamma t)^2 (L^dag L)^2 / 4 exactly for the single-L set
    gt = 3e-3
    for seed, d in ((0, 2), (1, 4)):
        l = random_collapse(d, seed)
        ks = kraus_first_order(l, gt)
        ldl = l.entries.conj().T @ l.entries
        assert np.abs(ks.completeness_defect() - gt**2 * ldl @ ldl / 4).max() < 1e-12
        bound = 3 * gt**2 * np.linalg.norm(ldl, 2) ** 2
        assert np.abs(ks.completeness_defect()).max() <= bound


def test_kraus_matches_exact_channel():
    # applying the first-order set reproduces exact propagation to O((gamma t)^2)
    gt = 1e-4
    rho = DensityMatrix.pure(np.array([1.0, 1.0]))
    ks = kraus_first_order(spin_z(2), gt)
    exact = apply_channel(propagate(liouvillian(zero_h(2), NoiseModel.single(1.0, spin_z(2))), gt), rho)
    assert np.abs(ks.apply(rho).entries - exact.entries).max() < 1e-8


def test_kraus_residual_is_second_order():
    # log-log slope of ||kraus - exact|| vs gamma_t is 2
    d = 4
    rho = DensityMatrix.pure(np.ones(d))
    noise = NoiseModel.single(1.0, spin_z(d))
    gen = liouvillian(zero_h(d), noise)
    grid = np.logspace(-6, -3, 7)
    res = []
    for gt in grid:
        exact = apply_channel(propagate(gen, gt), rho)
        approx = kraus_first_order(spin_z(d), gt).apply(rho)
        res.append(np.abs(exact.entries - approx.entries).max())
    slope = np.polyfit(np.log(grid), np.log(res), 1)[0]
    assert abs(slope - 2.0) < 0.05


def test_kraus_multi_reduction_and_traces():
    gt = 1e-3
    single = kraus_multi(NoiseModel.single(1.0, spin_z(3)), gt)
    pair = kraus_first_order(spin_z(3), gt)
    for a, b in zip(single.ops, pair.ops):
        assert np.abs(a.entries - b.entries).max() < 1e-15
    # two dephasing qubits: Tr(E_0) = 4 (1 - 2 gamma t / 8) = 4 - gamma t
    ks = kraus_multi(NoiseModel.site_dephasing(2), gt)
    assert len(ks.ops) == 3
    assert abs(ks.ops[0].trace() - (4 - gt)) < 1e-13
    assert abs(abs(ks.ops[0].trace()) ** 2 - (16 - 8 * gt + gt * gt)) < 1e-12


def test_kraus_superoperator_agrees_with_apply():
    gt = 1e-3
    terms = NoiseModel.site_dephasing(2).terms
    ks = kraus_multi(NoiseModel(tuple((0.7, op) for _, op in terms)), gt)
    rho = DensityMatrix.pure(np.arange(1, 5.0))
    via_super = apply_channel(kraus_superoperator(ks), rho)
    assert np.abs(via_super.entries - ks.apply(rho).entries).max() < 1e-14


def test_heterogeneous_rates_match_haar_oracle():
    # two dephasing qubits with gamma_1 = 2 gamma_2: the Kraus-channel AGI
    # agrees with a direct Haar-measure Monte Carlo estimate
    from quditbench import (
        HaarSampler,
        agi_kraus,
        agi_monte_carlo,
        c_qubits_dephasing,
        identity,
    )

    g2, t = 0.5, 1e-3
    sz = spin_z(2)
    l1, l2 = embed_site(sz, 1, 2), embed_site(sz, 2, 2)
    noise = NoiseModel(((2 * g2, l1), (g2, l2)))
    ks = kraus_multi(noise, t)
    mean, se = agi_monte_carlo(kraus_superoperator(ks), identity(4), 50_000, HaarSampler(4, seed=77))
    assert abs(mean - agi_kraus(ks)) < 3 * se
    # and both sit on the heterogeneous first-order line: each site adds its
    # rate times its share c_qubits_dephasing(2) / 2 of the unit-rate pair's slope
    linear = t * (2 * g2 + g2) * c_qubits_dephasing(2) / 2
    assert abs(agi_kraus(ks) - linear) < 5 * (max(2 * g2, g2) * t) ** 2


def test_expansion_rho_l1_vanishes():
    # gamma^l t coefficients vanish for l >= 2
    d = 3
    h = spin_xy(d)[0]
    noise = NoiseModel.single(1.0, spin_z(d))
    terms = expansion_terms(h, noise, order=3)
    assert (2, 1) not in terms and (3, 1) not in terms
    assert np.abs(terms[(1, 1)]).max() > 0


def test_expansion_first_order_is_perturbation_matrix():
    # order 1, H=0: rho* - gamma t M with M = {L^dag L, rho*}/2 - L rho* L^dag
    d = 3
    l = spin_z(d).entries
    rho = DensityMatrix.pure(np.ones(d))
    gamma, t = 0.3, 1e-3
    m = 0.5 * (l @ l @ rho.entries + rho.entries @ l @ l) - l @ rho.entries @ l.conj().T
    out = perturbative_expansion(rho, zero_h(d), NoiseModel.single(1.0, spin_z(d)), gamma, t, 1)
    assert np.abs(out.entries - (rho.entries - gamma * t * m)).max() < 1e-15


def test_expansion_matches_taylor_series_for_h_zero():
    # with H = 0 the recursion must produce D^k / k! term by term, applied as
    # a channel: J_z has a diagonal dissipator, J_x does not
    d = 3
    rho = DensityMatrix.pure(np.arange(1, d + 1.0))
    for op in (spin_z(d), spin_xy(d)[0]):
        terms = expansion_terms(zero_h(d), NoiseModel.single(1.0, op), order=3)
        l = op.entries
        ldl = l.conj().T @ l
        power = rho.entries.copy()
        for k in range(1, 4):
            power = (l @ power @ l.conj().T - 0.5 * (ldl @ power + power @ ldl)) / k
            applied = apply_channel(SuperOperator(terms[(k, k)]), rho).entries
            assert np.abs(applied - power).max() < 1e-13
            for l_idx in range(1, k):
                assert np.abs(terms[(l_idx, k)]).max() < 1e-15


def test_expansion_truncation_exponent():
    # residual of the order-n expansion scales as (gamma t)^(n+1); H = 0
    d = 3
    noise = NoiseModel.single(1.0, spin_z(d))
    gen = liouvillian(zero_h(d), noise)
    rho = DensityMatrix.pure(np.ones(d))
    grid = np.logspace(-3, -1.2, 7)
    for order in (1, 2, 3):
        res = []
        for gt in grid:
            exact = apply_channel(propagate(gen, gt), rho)
            approx = perturbative_expansion(rho, zero_h(d), noise, 1.0, gt, order)
            res.append(np.abs(exact.entries - approx.entries).max())
        slope = np.polyfit(np.log(grid), np.log(res), 1)[0]
        assert abs(slope - (order + 1)) < 0.05, (order, slope)


def test_expansion_with_hamiltonian_residual_order():
    # d=2, H = J_x, gamma fixed, t scaled: every dropped monomial carries
    # t^(order+1), so the residual after order 2 falls off as t^3
    d = 2
    h = spin_xy(d)[0]
    noise = NoiseModel.single(1.0, spin_z(d))
    rho0 = DensityMatrix.pure(np.array([1.0, 0.5 + 0.2j]))
    gamma = 0.05
    times = np.logspace(-3, -1.5, 6)
    res = []
    from scipy.linalg import expm

    for t in times:
        gen = liouvillian(h, NoiseModel(((gamma, spin_z(d)),)))
        exact = apply_channel(propagate(gen, t), rho0)
        u = expm(-1j * h.entries * t)
        rho_star = DensityMatrix(u @ rho0.entries @ u.conj().T)
        approx = perturbative_expansion(rho_star, h, noise, gamma, t, 2)
        res.append(np.abs(exact.entries - approx.entries).max())
    slope = np.polyfit(np.log(times), np.log(res), 1)[0]
    assert abs(slope - 3.0) < 0.1, slope


def test_expansion_rejects_unsupported_order():
    d = 2
    rho = DensityMatrix(np.eye(d) / d)
    noise = NoiseModel.single(1.0, spin_z(d))
    with pytest.raises(ValueError):
        perturbative_expansion(rho, zero_h(d), noise, 1.0, 1e-3, 4)
    # an order is the integer 1, 2 or 3: True and 2.0 are not orders
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="order"):
            perturbative_expansion(rho, zero_h(d), noise, 1.0, 1e-3, bad)
        with pytest.raises(ValueError, match="order"):
            expansion_terms(zero_h(d), noise, bad)
    # the noise model must act on the Hamiltonian's space, at orders 1 and 2
    rho3 = DensityMatrix(np.eye(3) / 3)
    for order in (1, 2):
        with pytest.raises(ValueError, match="noise dimension 4 != Hamiltonian dimension 3"):
            perturbative_expansion(rho3, zero_h(3), NoiseModel.single(1.0, spin_z(4)), 1.0, 1e-3, order)
        with pytest.raises(ValueError, match="noise dimension 4 != Hamiltonian dimension 3"):
            expansion_terms(zero_h(3), NoiseModel.single(1.0, spin_z(4)), order)
    # rates and times are finite and non-negative
    for bad in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="time"):
            perturbative_expansion(rho, zero_h(d), noise, 1.0, bad, 1)
        with pytest.raises(ValueError, match="strength"):
            perturbative_expansion(rho, zero_h(d), noise, bad, 1e-3, 1)
