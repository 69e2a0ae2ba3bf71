import numpy as np
import pytest

from quditbench import (
    DensityMatrix,
    NoiseModel,
    Operator,
    apply_channel,
    dissipator_spectrum,
    liouvillian,
    propagate,
    spin_plus,
    spin_xy,
    spin_z,
    unitary_superoperator,
)
from quditbench.lindblad import (
    SuperOperator,
    commutator_superoperator,
    dissipator,
    hermitian_basis,
    real_coordinates,
    unvec,
    vec,
)
from quditbench.pulses import ladder_controls

from oracles import choi_matrix, rk4_propagate


def zero_h(d):
    return Operator(np.zeros((d, d)))


def dephasing_generator(d, gamma=1.0):
    return liouvillian(zero_h(d), NoiseModel.single(gamma, spin_z(d)))


def test_vec_roundtrip_column_stacking():
    m = np.arange(9).reshape(3, 3).astype(complex)
    v = vec(m)
    assert v[1] == m[1, 0]  # column-stacking: fast index runs down columns
    assert np.array_equal(unvec(v), m)
    a, b, x = (np.random.default_rng(i).standard_normal((3, 3)) for i in range(3))
    assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b))
    stack = np.random.default_rng(3).standard_normal((3, 3, 3))
    vs = vec(stack)
    assert vs.shape == (3, 9)
    for k in range(3):
        assert np.array_equal(vs[k], vec(stack[k]))


def test_commutator_superoperator_batched():
    rng = np.random.default_rng(4)
    d = 3
    hs = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    batched = commutator_superoperator(hs)
    assert batched.shape == (4, d * d, d * d)
    for k, h in enumerate(hs):
        assert np.array_equal(batched[k], commutator_superoperator(h))
        assert np.allclose(batched[k] @ vec(x), vec(h @ x - x @ h), atol=1e-13)


def test_hermitian_basis_is_unitary_and_hermitian():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5, 8):
        b = hermitian_basis(d)
        assert b.shape == (d * d, d * d)
        assert np.abs(b.conj().T @ b - np.eye(d * d)).max() <= 1e-15
        for k in range(d * d):
            g = unvec(b[:, k])
            assert np.array_equal(g, g.conj().T), (d, k)
        # the real coordinates of a pure state are its coordinates in B
        psi = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        r = real_coordinates(psi)
        assert np.isrealobj(r) and r.shape == (4, d * d)
        rhos = vec(np.einsum("na,nb->nab", psi, psi.conj()))
        assert np.abs(r @ b.T - rhos).max() <= 1e-14, d


def test_generators_are_real_in_the_hermitian_basis():
    # -i[H, .] and every dissipator preserve Hermiticity, so B^dag G B is
    # real: the imaginary parts are rounding only
    for d in (2, 3, 4, 5):
        b = hermitian_basis(d)
        ad = -1j * commutator_superoperator(ladder_controls(d))
        assert np.abs((b.conj().T @ ad @ b).imag).max() <= 1e-15, d
        for noise in (
            NoiseModel.single(1.0, spin_z(d)),
            NoiseModel.single(1.0, spin_xy(d)[0]),
            NoiseModel.single(1.0, spin_plus(d)),
            NoiseModel(((0.3, spin_z(d)), (0.1, spin_plus(d)))),
        ):
            assert np.abs((b.conj().T @ dissipator(noise) @ b).imag).max() <= 1e-15, d


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0.2], [0.1, 0.4]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityMatrix.pure(np.array([1.0, 1.0]))
    assert abs(rho.purity() - 1.0) < 1e-12
    # NaN passes every comparison, so finiteness is checked on its own
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix([[np.nan, 0], [0, 1]])
    for state in ([np.nan, 1], [0, 0]):
        with pytest.raises(ValueError, match="finite and nonzero"):
            DensityMatrix.pure(state)


def test_liouvillian_trivial():
    gen = liouvillian(zero_h(3), NoiseModel.single(0.0, spin_z(3)))
    assert np.abs(gen.matrix).max() == 0.0


def test_liouvillian_validation():
    with pytest.raises(ValueError):
        liouvillian(Operator(np.array([[0, 1], [0, 0]])), NoiseModel.single(0.0, spin_z(2)))
    with pytest.raises(ValueError):
        liouvillian(zero_h(2), NoiseModel.single(1.0, spin_z(3)))


def test_qubit_dephasing_rate():
    # off-diagonal decays at gamma/2, i.e. 1/T2 = gamma/2
    gamma, t = 0.8, 1.3
    ch = propagate(liouvillian(zero_h(2), NoiseModel.single(gamma, spin_z(2))), t)
    rho = DensityMatrix.pure(np.array([1.0, 1.0]))
    out = apply_channel(ch, rho)
    ratio = out.entries[0, 1] / rho.entries[0, 1]
    assert abs(ratio - np.exp(-gamma * t / 2)) < 1e-12


def test_qutrit_coherence_rate():
    # rate is (gamma/2)(m - m')^2; outermost coherence of d=3 decays at 2 gamma
    gamma, t = 0.5, 0.7
    ch = propagate(liouvillian(zero_h(3), NoiseModel.single(gamma, spin_z(3))), t)
    rho = DensityMatrix.pure(np.ones(3))
    out = apply_channel(ch, rho)
    ratio = out.entries[0, 2] / rho.entries[0, 2]
    assert abs(ratio - np.exp(-2 * gamma * t)) < 1e-12


def test_propagate_identity_and_errors():
    gen = dephasing_generator(3)
    assert np.allclose(propagate(gen, 0.0).matrix, np.eye(9))
    with pytest.raises(ValueError):
        propagate(gen, -0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            propagate(gen, bad)
    # a diagonal generator is exponentiated entrywise inside scipy's expm, bit for bit
    from scipy.linalg import expm

    diagonal = [dephasing_generator(d) for d in (2, 6, 12)]
    diagonal += [liouvillian(zero_h(2**n), NoiseModel.site_dephasing(n)) for n in (3, 5)]
    for gen in diagonal:
        for t in (0.0, 1e-4, 0.3):
            got = propagate(gen, t).matrix
            assert np.array_equal(got, expm(gen.matrix * t))
            assert np.array_equal(got, np.diag(np.exp(np.diag(gen.matrix) * t)))


def test_propagate_dephasing_qubit():
    ch = propagate(dephasing_generator(2), 0.1)
    rho = DensityMatrix.pure(np.array([1.0, 1.0]))
    out = apply_channel(ch, rho)
    assert abs(abs(out.entries[0, 1] / rho.entries[0, 1]) - np.exp(-0.05)) < 1e-12


def test_propagate_matches_dissipator_series():
    # exp(D t)[rho] = sum_k (t D)^k [rho] / k! with H = 0
    d, gamma_t = 3, 1e-2
    noise = NoiseModel.single(1.0, spin_z(d))
    rho = DensityMatrix.pure(np.arange(1, d + 1).astype(float))
    exact = apply_channel(propagate(liouvillian(zero_h(d), noise), gamma_t), rho)

    def diss(mat):
        l = spin_z(d).entries
        ldl = l.conj().T @ l
        return l @ mat @ l.conj().T - 0.5 * (ldl @ mat + mat @ ldl)

    acc = rho.entries.copy()
    term = rho.entries.copy()
    for k in range(1, 12):
        term = diss(term) * gamma_t / k
        acc = acc + term
    assert np.abs(exact.entries - acc).max() < 1e-14


def test_semigroup_property():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = Operator((h + h.conj().T) / 2)
        l = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        gen = liouvillian(h, NoiseModel.single(0.3, l))
        t1, t2 = 0.37, 0.22
        lhs = propagate(gen, t1 + t2).matrix
        rhs = propagate(gen, t1).matrix @ propagate(gen, t2).matrix
        assert np.linalg.norm(lhs - rhs, 2) < 1e-9


def test_noiseless_propagation_is_unitary_conjugation():
    rng = np.random.default_rng(3)
    d = 3
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = Operator((h + h.conj().T) / 2)
    t = 0.8
    from scipy.linalg import expm

    u = Operator(expm(-1j * h.entries * t))
    lhs = propagate(liouvillian(h, NoiseModel.single(0.0, spin_z(d))), t).matrix
    assert np.abs(lhs - unitary_superoperator(u).matrix).max() < 1e-9


def test_trace_preservation_and_complete_positivity():
    rng = np.random.default_rng(11)
    d = 3
    l = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gen = liouvillian(zero_h(d), NoiseModel.single(0.5, l))
    ch = propagate(gen, 0.9)
    for _ in range(5):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = DensityMatrix(z @ z.conj().T / np.trace(z @ z.conj().T))
        out = apply_channel(ch, rho)
        assert abs(out.trace() - 1.0) < 1e-9
    eigs = np.linalg.eigvalsh(choi_matrix(ch))
    assert eigs.min() > -1e-9


def test_choi_of_identity_channel():
    d = 3
    omega = np.eye(d).reshape(-1)  # |Omega> = sum_c |c,c| in the (c,a) layout
    choi = choi_matrix(SuperOperator.identity(d))
    assert np.abs(choi - np.outer(omega, omega)).max() < 1e-12


def test_rk4_cross_check():
    rng = np.random.default_rng(19)
    d = 3
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = Operator((h + h.conj().T) / 2)
    l = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    gen = liouvillian(h, NoiseModel.single(0.4, l))
    a = propagate(gen, 0.6).matrix
    b = rk4_propagate(gen, 0.6).matrix
    assert np.abs(a - b).max() < 1e-8


def test_apply_channel_basics():
    d = 3
    rho = DensityMatrix.pure(np.arange(1, d + 1).astype(float))
    assert np.abs(apply_channel(SuperOperator.identity(d), rho).entries - rho.entries).max() < 1e-15
    rng = np.random.default_rng(2)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    u = Operator(q)
    out = apply_channel(unitary_superoperator(u), rho)
    assert np.abs(out.entries - q @ rho.entries @ q.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        apply_channel(SuperOperator.identity(2), rho)
    assert SuperOperator(np.zeros((16, 16))).hilbert_dim == 4
    for shape in ((4,), (4, 9), (8, 8), (0, 0), (2, 4, 4)):
        with pytest.raises(ValueError):
            SuperOperator(np.zeros(shape))
    with pytest.raises(ValueError, match="finite"):
        SuperOperator(np.full((4, 4), np.nan))


def test_maximally_mixed_is_fixed_point_of_hermitian_dissipator():
    # L = J_x + J_y + J_z is Hermitian, so 1/d is a fixed point
    d = 4
    jx, jy = spin_xy(d)
    l = Operator(jx.entries + jy.entries + spin_z(d).entries)
    ch = propagate(liouvillian(zero_h(d), NoiseModel.single(1.0, l)), 0.5)
    rho = DensityMatrix.maximally_mixed(d)
    out = apply_channel(ch, rho)
    assert np.abs(out.entries - rho.entries).max() < 1e-12


def test_first_order_agreement():
    # || rho(t) - (rho* - gamma t M) || = O((gamma t)^2)
    d = 4
    jz = spin_z(d)
    rho = DensityMatrix.pure(np.ones(d))
    gen = dephasing_generator(d)
    l = jz.entries
    ldl = l.conj().T @ l
    m = 0.5 * (ldl @ rho.entries + rho.entries @ ldl) - l @ rho.entries @ l.conj().T
    for gt in (1e-5, 1e-6):
        out = apply_channel(propagate(gen, gt), rho)
        residual = np.abs(out.entries - (rho.entries - gt * m)).max()
        assert residual < 10 * gt**2 * np.linalg.norm(l, 2) ** 4


def jplus_jminus(d):
    """J_+ and J_- as two terms: triangular in opposite orientations, so
    ``dissipator_spectrum`` takes its dense route."""
    jp = spin_plus(d)
    return NoiseModel(((1.0, jp), (0.5, Operator(jp.entries.conj().T))))


def test_dimension_ceiling():
    with pytest.raises(ValueError, match="dimension ceiling exceeded"):
        liouvillian(zero_h(129), NoiseModel.single(0.0, spin_z(129)))
    # every dense generator goes through dissipator, which holds the ceiling
    jplus = NoiseModel.single(1.0, spin_plus(129))
    for build in (dissipator, lambda noise: liouvillian(zero_h(129), noise)):
        with pytest.raises(ValueError, match="dimension ceiling exceeded"):
            build(jplus)
    with pytest.raises(ValueError, match="dimension ceiling exceeded"):
        dissipator_spectrum(jplus_jminus(129))


def test_dissipator_spectrum_of_diagonal_noise_is_the_dissipator_diagonal():
    rng = np.random.default_rng(5)
    d = 4
    l = Operator(np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)))
    noise = NoiseModel(((0.3, spin_z(d)), (1.7, l)))
    z = dissipator_spectrum(noise)
    diss = dissipator(noise)
    assert np.count_nonzero(diss - np.diag(np.diag(diss))) == 0
    assert np.abs(z - np.diag(diss)).max() < 1e-14
    assert np.all(z.real <= 0) and np.all(unvec(z).diagonal() == 0)


def test_dissipator_spectrum_routes_by_noise_structure():
    rng = np.random.default_rng(23)
    for d in (2, 3, 7, 12):
        jx, jy = spin_xy(d)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = (a + a.conj().T) / 2
        # one exactly Hermitian collapse operator, read off its entries: the
        # diagonal closed form on its eigvalsh
        for op in (
            jx,
            Operator(jx.entries),
            Operator(jx.entries + jy.entries + spin_z(d).entries),
            Operator(herm),
        ):
            eig = Operator(np.diag(np.linalg.eigvalsh(op.entries)))
            closed = dissipator_spectrum(NoiseModel.single(0.6, eig))
            assert np.array_equal(dissipator_spectrum(NoiseModel.single(0.6, op)), closed)
        # anything else, Hermitian to 1e-14 included: one eigvals of the
        # dissipator, equal to that of the generator with a zero Hamiltonian
        near = herm.copy()
        near[0, 1] += 1e-14
        for noise in (
            NoiseModel.single(0.6, Operator(near)),
            NoiseModel(((1.0, spin_z(d)), (0.1, jy))),
            NoiseModel(((0.7, jy), (1.9, spin_plus(d)))),
        ):
            dense = np.linalg.eigvals(liouvillian(zero_h(d), noise).matrix)
            assert np.array_equal(dissipator_spectrum(noise), dense)


def _spectrum_and_dense_calls(noise, monkeypatch):
    """dissipator_spectrum(noise) and how often it built the dense dissipator."""
    import quditbench.lindblad as lindblad

    calls = []
    monkeypatch.setattr(lindblad, "dissipator", lambda noise: calls.append(noise) or dissipator(noise))
    return dissipator_spectrum(noise), len(calls)


def test_dissipator_spectrum_of_weighted_shifts_is_the_dissipator_diagonal(monkeypatch):
    # triangular L_k in one orientation with L_k^dag L_k diagonal: the
    # dissipator is triangular, its spectrum its diagonal, built entrywise
    rng = np.random.default_rng(29)
    for d in (2, 3, 7, 12):
        jp = spin_plus(d)
        jm = Operator(jp.entries.conj().T)
        weights = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        phases = Operator(np.diag(np.exp(1j * rng.standard_normal(d))))
        for noise in (
            NoiseModel.single(1.0, jp),
            NoiseModel.single(0.4, jm),
            NoiseModel(((0.3, spin_z(d)), (0.1, jp))),
            NoiseModel(((1.3, Operator(np.diag(weights, k=-1))), (0.2, phases))),
        ):
            z, dense_calls = _spectrum_and_dense_calls(noise, monkeypatch)
            assert dense_calls == 0
            diss = dissipator(noise)
            eig = np.linalg.eigvals(diss)
            scale = np.abs(eig).max()
            assert np.abs(z - np.diag(diss)).max() <= 1e-14 * scale, d
            assert np.abs(np.sort(z) - np.sort(eig)).max() <= 1e-14 * scale, d
            assert np.all(z.real <= 0)
        # mixed orientations, or columns that are not orthogonal: dense
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        upper = np.triu(a, 1 if d > 2 else 0)  # strictly upper where d allows
        for noise in (jplus_jminus(d), NoiseModel.single(1.0, Operator(upper))):
            z, dense_calls = _spectrum_and_dense_calls(noise, monkeypatch)
            assert dense_calls == 1
            assert np.array_equal(z, np.linalg.eigvals(dissipator(noise)))


def test_weighted_shift_spectrum_runs_past_the_ceiling():
    import tracemalloc

    d = 129  # MAX_HILBERT_DIM + 1: one d^2 x d^2 complex array is 4.4 GB
    tracemalloc.start()
    try:
        z = dissipator_spectrum(NoiseModel.single(1.0, spin_plus(d)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.shape == (d * d,) and np.all(z.real <= 0)
    assert peak < 16 * d * d * 16  # a few d x d arrays, nothing of size d^4


def test_library_operators_are_exactly_hermitian():
    # dissipator_spectrum takes its eigvalsh route on exact equality L == L^dag
    from quditbench import identity
    from quditbench.experiments import collapse_model

    for d in range(1, 65):
        for op in (identity(d), spin_z(d), *spin_xy(d), collapse_model("JxJyJz", d).terms[0][1]):
            assert np.array_equal(op.entries, op.entries.conj().T), d
    # the dense route keeps the generator's dimension ceiling
    with pytest.raises(ValueError, match="dimension ceiling"):
        dissipator_spectrum(jplus_jminus(129))
