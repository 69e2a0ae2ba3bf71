import numpy as np
import pytest

from oracles import embed_site
from quditbench import NoiseModel, Operator, identity, spin_plus, spin_xy, spin_z


def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    for bad in (np.nan, np.inf, 1j * np.inf):
        with pytest.raises(ValueError, match="finite"):
            Operator([[bad, 0], [0, 1]])
    op = Operator(np.array([[0, 1], [1, 0]]))
    assert op.dim == 2
    # entries are frozen after construction
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_spin_z_qubit():
    assert np.allclose(spin_z(2).entries, np.diag([0.5, -0.5]))


def test_diagonal_built_operator_holds_its_diagonal():
    rng = np.random.default_rng(11)
    for v in (np.arange(3.0) - 1, rng.standard_normal(5) + 1j * rng.standard_normal(5), [2]):
        op = Operator.from_diagonal(v)
        assert np.array_equal(op.as_diagonal(), v) and op.as_diagonal().dtype == complex
        assert op.dim == len(op.as_diagonal())
        # the dense matrix is built on request, complex and frozen like any other
        assert np.array_equal(op.entries, np.diag(v)) and op.entries.dtype == complex
        with pytest.raises(ValueError):
            op.entries[0, 0] = 1.0
        with pytest.raises(ValueError):
            op.as_diagonal()[0] = 1.0
        assert op.trace() == Operator(np.diag(v)).trace()
    # J_z is built from its diagonal, with the entries of diag(m) as before
    for d in (1, 2, 5, 12):
        m = (d - 1) / 2 - np.arange(d)
        assert np.array_equal(spin_z(d).entries, np.diag(m.astype(complex)))
    for bad in (np.zeros((2, 2)), [], 3.0):
        with pytest.raises(ValueError, match="non-empty vector"):
            Operator.from_diagonal(bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Operator.from_diagonal([1.0, bad])


def test_dense_operators_read_their_diagonal_off_the_entries():
    v = np.array([1.0, -2.0 + 1j, 0.5])
    assert np.array_equal(Operator(np.diag(v)).as_diagonal(), v)
    off = np.diag(v)
    off[0, 2] = 1e-300
    assert Operator(off).as_diagonal() is None
    assert spin_xy(3)[0].as_diagonal() is None


def test_spin_z_invalid_dimension():
    with pytest.raises(ValueError):
        spin_z(0)
    # a dimension is an integer: 2.5 does not round to 3, and a bool is not one
    for build in (spin_z, spin_xy, spin_plus):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                build(bad)


def test_spin_z_trace_identities():
    # traceless, and Tr(J_z^2) = d(d^2-1)/12 for every d
    for d in range(1, 25):
        jz = spin_z(d)
        assert abs(jz.trace()) < 1e-12
        tr2 = np.real(np.trace(jz.entries @ jz.entries))
        expected = d * (d * d - 1) / 12
        assert abs(tr2 - expected) <= 1e-10 * max(1.0, expected)
    # d=4 by direct sum: 9/4 + 1/4 + 1/4 + 9/4 = 5
    assert abs(np.real(np.trace(spin_z(4).entries @ spin_z(4).entries)) - 5.0) < 1e-12


def test_spin_xy_qubit():
    jx, jy = spin_xy(2)
    assert np.allclose(jx.entries, [[0, 0.5], [0.5, 0]])
    assert np.allclose(jy.entries, [[0, -0.5j], [0.5j, 0]])


def test_spin_commutation_relations():
    for d in (2, 3, 4, 7, 12):
        jx, jy = spin_xy(d)
        jz = spin_z(d)
        comm = jx.entries @ jy.entries - jy.entries @ jx.entries
        assert np.abs(comm - 1j * jz.entries).max() < 1e-10
        assert abs(np.trace(jx.entries)) < 1e-12
        assert abs(np.trace(jy.entries)) < 1e-12
        # rotational symmetry: Tr(J_x^2) = Tr(J_z^2)
        assert abs(
            np.trace(jx.entries @ jx.entries) - np.trace(jz.entries @ jz.entries)
        ) < 1e-10


def test_ladder_matrix_element():
    # <j,1| J_+ |j,0> = sqrt(j(j+1)) = sqrt(2) for d=3
    jp = spin_plus(3)
    assert abs(jp.entries[0, 1] - np.sqrt(2)) < 1e-12
    jx, jy = spin_xy(3)
    assert np.abs(jp.entries - (jx.entries + 1j * jy.entries)).max() < 1e-12


def test_embed_site_basics():
    sz = spin_z(2)
    assert np.allclose(embed_site(sz, 1, 1).entries, sz.entries)
    two = embed_site(sz, 2, 2)
    assert np.allclose(two.entries, np.kron(np.eye(2), sz.entries))
    assert embed_site(sz, 2, 5).dim == 2**5
    with pytest.raises(IndexError):
        embed_site(sz, 3, 2)
    with pytest.raises(IndexError):
        embed_site(sz, 0, 2)
    # a site is an integer: 1.5 is not one, and a bool is not site 1
    for bad in (1.5, True, 2.0):
        with pytest.raises(ValueError, match="site"):
            embed_site(sz, bad, 2)


def test_embedded_collapse_operators():
    sz = spin_z(2)
    for n in (2, 3, 4):
        ops = [embed_site(sz, k, n) for k in range(1, n + 1)]
        for j, lj in enumerate(ops):
            # Tr(L_k^dag L_k) = Tr(S_z^2) 2^(n-1) = 2^n / 4
            tr = np.real(np.trace(lj.entries.conj().T @ lj.entries))
            assert abs(tr - 2**n / 4) < 1e-12
            for k, lk in enumerate(ops):
                if j == k:
                    continue
                comm = lj.entries @ lk.entries - lk.entries @ lj.entries
                assert np.abs(comm).max() < 1e-12
                # embedded traceless operators are trace-orthogonal
                assert abs(np.trace(lj.entries.conj().T @ lk.entries)) < 1e-12


def test_site_dephasing_matches_the_kron_embedding():
    # each L_k is built from its diagonal; the dense np.kron embedding of
    # S_z is the reference, bit for bit
    sz = spin_z(2)
    for n in range(1, 6):
        terms = NoiseModel.site_dephasing(n).terms
        assert len(terms) == n
        for k, (rate, op) in enumerate(terms):
            assert rate == 1.0
            assert np.array_equal(op.entries, embed_site(sz, k + 1, n).entries), (n, k)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(((-0.5, spin_z(2)),))
    with pytest.raises(ValueError):
        NoiseModel(((1.0, spin_z(2)), (1.0, spin_z(3))))
    # a NaN or infinite rate, or no term at all, gives no usable curve
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            NoiseModel.single(rate, spin_z(2))
    with pytest.raises(ValueError, match="at least one"):
        NoiseModel(())
    with pytest.raises(ValueError, match="at least one"):
        NoiseModel.site_dephasing(0)
    # a site count is an integer: True is not one site, 2.0 is not two
    for bad in (True, 2.0, 1.5):
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            NoiseModel.site_dephasing(bad)
    nm = NoiseModel.site_dephasing(3)
    assert len(nm) == 3 and nm.dim == 8


def test_identity():
    assert np.allclose(identity(3).entries, np.eye(3))
    with pytest.raises(ValueError):
        identity(0)
