import numpy as np
import pytest

from quditbench import c_qudit_dephasing, deviation_stats, fit_slope, relative_deviation


def test_exact_line():
    x = np.linspace(0, 1e-4, 11)
    fit = fit_slope(x, 0.5 * x)
    assert abs(fit.slope_c - 0.5) < 1e-15
    assert fit.one_minus_r2 == 0.0
    assert fit.n_points == 11
    assert fit.gamma_t_range == (0.0, 1e-4)


def test_scale_equivariance():
    x = np.linspace(0, 1e-3, 9)
    y = 0.3 * x + 2e-2 * x**2
    c1 = fit_slope(x, y).slope_c
    # power-of-two scalings are exact in IEEE arithmetic
    assert fit_slope(x, 2.0**20 * y).slope_c == 2.0**20 * c1
    c2 = fit_slope(x, 1e6 * y).slope_c
    assert abs(c2 - 1e6 * c1) <= 1e-12 * abs(c2)


def test_recovers_analytic_slope_exactly():
    x = np.linspace(0, 1e-4, 11)
    for d in (2, 8, 22):
        c = c_qudit_dephasing(d)
        fit = fit_slope(x, c * x)
        assert abs(fit.slope_c - c) <= 1e-12 * c


def test_fit_quality_on_exact_dephasing_curves():
    # fit quality on exact-channel data: 1-R^2 < 1e-5 up to d = 22
    from quditbench import NoiseModel, Operator, agi_exact, identity, liouvillian, propagate, spin_z

    x = np.linspace(0, 1e-4, 11)
    for d in (8, 16, 22):
        gen = liouvillian(Operator(np.zeros((d, d))), NoiseModel.single(1.0, spin_z(d)))
        agis = [agi_exact(propagate(gen, gt), identity(d)) for gt in x]
        assert fit_slope(x, agis).one_minus_r2 < 1e-5


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_slope([1e-4], [1e-5])
    with pytest.raises(ValueError):
        fit_slope([1e-4, 1e-4, 1e-4], [1e-5, 2e-5, 3e-5])
    with pytest.raises(ValueError):
        fit_slope([-1e-4, 1e-4], [1e-5, 1e-5])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_slope([0.0, 1e-4, bad], [0.0, 1e-5, 2e-5])
        with pytest.raises(ValueError, match="finite"):
            fit_slope([0.0, 1e-4, 2e-4], [0.0, 1e-5, bad])


def test_relative_deviation():
    assert relative_deviation(1.0, 1.0) == 0.0
    assert abs(relative_deviation(0.9, 1.0) - 0.1) < 1e-15
    with pytest.raises(ValueError):
        relative_deviation(1.0, 0.0)


def test_deviation_stats_constant():
    stats = deviation_stats([0.3, 0.3, 0.3])
    assert stats["std"] == 0.0 and stats["mean"] == 0.3


def test_deviation_stats_hand_computed():
    # [1,2,3,4,10]: mean 4, population variance (9+4+1+0+36)/5 = 10
    stats = deviation_stats([1, 2, 3, 4, 10])
    assert abs(stats["mean"] - 4.0) < 1e-15
    assert abs(stats["std"] - np.sqrt(10)) < 1e-15
    assert stats["min"] == 1.0 and stats["max"] == 10.0
    assert list(stats["percentiles"]) == ["5", "25", "50", "75", "95"]
    assert stats["percentiles"]["50"] == 3.0


def test_deviation_stats_rejects_tiny_input():
    with pytest.raises(ValueError):
        deviation_stats([0.1])
