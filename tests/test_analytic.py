from fractions import Fraction

import numpy as np
import pytest

from quditbench import (
    NoiseModel,
    Operator,
    agi_first_order,
    c_general,
    c_qubits_dephasing,
    c_qudit_dephasing,
    c_qudits_dephasing,
    critical_ratio,
    max_advantageous_dimension,
    naive_ratio,
    spin_plus,
    spin_xy,
    spin_z,
)


def test_c_qudit_dephasing_values():
    assert c_qudit_dephasing(1) == 0.0
    assert abs(c_qudit_dephasing(2) - 1 / 6) < 1e-15
    assert abs(c_qudit_dephasing(22) - 38.5) < 1e-12
    with pytest.raises(ValueError):
        c_qudit_dephasing(0)
    for bad in (2.5, float("nan")):
        with pytest.raises(ValueError, match="integer"):
            c_qudit_dephasing(bad)


def test_c_general_reductions():
    for d in (2, 5, 9):
        assert abs(c_general(spin_z(d)) - c_qudit_dephasing(d)) < 1e-12
        assert abs(c_general(spin_plus(d)) - 2 * c_qudit_dephasing(d)) < 1e-11
    # identity channel has zero first-order infidelity
    assert abs(c_general(Operator(np.eye(4)))) < 1e-15
    # bit-flip direction matches pure dephasing
    jx, _ = spin_xy(7)
    assert abs(c_general(jx) - c_qudit_dephasing(7)) < 1e-11


def test_first_order_reads_build_no_matrix():
    import tracemalloc

    # J_z holds its d numbers and J_+ its matrix: neither read builds a d x d
    # array (J_z's matrix is 16 MiB at d = 2^10; checking J_+ for a diagonal
    # by subtracting it took two 4 MiB temporaries at d = 2^9)
    x = 1e-9
    for op, ratio in ((spin_z(2**10), 1), (spin_plus(2**9), 2)):
        tracemalloc.start()
        try:
            slope = c_general(op)
            curve = agi_first_order(NoiseModel.single(1.0, op), [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, (op.dim, peak)
        assert abs(slope - ratio * c_qudit_dephasing(op.dim)) <= 1e-14 * slope
        # the second-order term is x Tr(L^dag L) / (4 d) of the first, < 3e-5 here
        assert abs(curve[0] / (x * slope) - 1.0) <= 3e-5


def test_c_qubits_dephasing_values():
    assert c_qubits_dephasing(0) == 0.0
    assert abs(c_qubits_dephasing(1) - 1 / 6) < 1e-15
    assert abs(c_qubits_dephasing(3) - 2 / 3) < 1e-15


def test_c_qudits_dephasing_reductions():
    for d in (2, 3, 7):
        assert abs(c_qudits_dephasing(d, 1) - c_qudit_dephasing(d)) < 1e-12
    assert abs(c_qudits_dephasing(3, 2) - 1.2) < 1e-12
    # exact rational identity: N qubits == ensemble of N d=2 qudits
    for n in range(1, 11):
        lhs = Fraction(n * 2**n * 3, 12 * (2**n + 1))
        rhs = Fraction(n * 2**n, 4 * (2**n + 1))
        assert lhs == rhs
        assert abs(c_qudits_dephasing(2, n) - c_qubits_dephasing(n)) < 1e-13


def test_c_general_additivity_over_orthogonal_parts():
    # trace-orthogonal traceless parts contribute additively
    for d in (3, 6):
        jx, jy = spin_xy(d)
        combined = Operator(jx.entries + jy.entries)
        assert abs(c_general(combined) - (c_general(jx) + c_general(jy))) < 1e-11


def test_critical_ratio_table():
    assert abs(critical_ratio(2) - 1.0) < 1e-12
    assert abs(critical_ratio(4) - 2.5) < 1e-12
    assert abs(critical_ratio(8) - 7.0) < 1e-12
    assert abs(critical_ratio(64) - 227.5) < 1e-12
    for bad in (1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            critical_ratio(bad)


def test_critical_ratio_equals_slope_ratio():
    for n in range(1, 7):
        d = 2**n
        ratio = c_qudit_dephasing(d) / c_qubits_dephasing(n)
        assert abs(critical_ratio(d) - ratio) < 1e-10 * ratio


def test_naive_ratio_flagged_difference():
    # the intuitive d^2/log2 d comparator disagrees with the exact curve
    assert abs(naive_ratio(8) - 64 / 3) < 1e-12
    assert naive_ratio(8) > critical_ratio(8)
    for bad in (1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            naive_ratio(bad)


def test_critical_ratio_asymptotics():
    d = 2.0**20
    assert abs(critical_ratio(d) / (d * d / (3 * np.log2(d))) - 1.0) < 1e-10


def test_max_advantageous_dimension():
    assert max_advantageous_dimension(1.0) == 2.0
    for ratio in (2.5, 7.0, 227.5):
        d = max_advantageous_dimension(ratio)
        assert abs(critical_ratio(d) - ratio) < 1e-6
    # a platform 10x more gate-efficient supports d up to ~10; 100x up to ~40
    assert abs(max_advantageous_dimension(10.0) - 10.0) < 1.0
    assert abs(max_advantageous_dimension(100.0) - 40.0) < 1.0
    # critical_ratio(1e6) ~ 1.7e10, so this ratio has no crossing in range
    with pytest.raises(ValueError, match="no crossing"):
        max_advantageous_dimension(1e11)
    with pytest.raises(ValueError):
        max_advantageous_dimension(float("nan"))
