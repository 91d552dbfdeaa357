"""Penalty primitive and gap function tests."""

import numpy as np
import pytest

from pdsg.auglag import penalty, penalty_mean, primal_subgradient
from pdsg.errors import DimensionError
from reference_forms import lagrangian_gap


def test_penalty_all_zero():
    out = penalty(0.0, 0.0, 1.0)
    assert out.value == 0.0 and out.du == 0.0 and out.dv == 0.0


def test_penalty_first_branch():
    out = penalty(1.0, 1.0, 2.0)
    assert out.value == pytest.approx(2.0)
    assert out.du == pytest.approx(3.0)
    assert out.dv == pytest.approx(1.0)


def test_penalty_second_branch():
    out = penalty(-1.0, 1.0, 2.0)
    assert out.value == pytest.approx(-0.25)
    assert out.du == 0.0
    assert out.dv == pytest.approx(-0.5)


def test_penalty_rejects_bad_args():
    with pytest.raises(ValueError):
        penalty(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        penalty(1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        penalty(np.inf, 0.0, 1.0)
    with pytest.raises(ValueError):
        penalty(0.0, np.nan, 1.0)


def test_penalty_continuous_across_switch():
    rng = np.random.default_rng(0)
    for _ in range(500):
        u = rng.normal() * 3
        beta = rng.uniform(0.1, 5.0)
        v = -beta * u
        first = u * v + 0.5 * beta * u * u
        second = -v * v / (2 * beta)
        scale = max(abs(first), abs(second), 1e-300)
        assert abs(first - second) <= 1e-12 * scale
        out = penalty(u, v, beta)
        assert out.value == pytest.approx(first, rel=1e-12, abs=1e-15)


def test_penalty_partials_match_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    checked = 0
    while checked < 1000:
        u = rng.normal() * 2
        v = rng.normal() * 2
        beta = rng.uniform(0.2, 4.0)
        if abs(beta * u + v) < 10 * h:  # stay away from the kink
            continue
        du_fd = (penalty(u + h, v, beta).value - penalty(u - h, v, beta).value) / (2 * h)
        dv_fd = (penalty(u, v + h, beta).value - penalty(u, v - h, beta).value) / (2 * h)
        out = penalty(u, v, beta)
        assert abs(out.du - du_fd) < 1e-5
        assert abs(out.dv - dv_fd) < 1e-5
        checked += 1


def test_penalty_convex_in_u_concave_in_v():
    rng = np.random.default_rng(2)
    for _ in range(400):
        u1, u2, v, v1, v2, u = rng.normal(size=6) * 3
        beta = rng.uniform(0.1, 5.0)
        t = rng.uniform(0.01, 0.99)
        mid_u = penalty(t * u1 + (1 - t) * u2, v, beta).value
        assert mid_u <= t * penalty(u1, v, beta).value + (1 - t) * penalty(u2, v, beta).value + 1e-12
        mid_v = penalty(u, t * v1 + (1 - t) * v2, beta).value
        assert mid_v >= t * penalty(u, v1, beta).value + (1 - t) * penalty(u, v2, beta).value - 1e-12


def test_penalty_mean_examples():
    assert penalty_mean([0.0, 0.0], [0.0, 0.0], 1.0) == 0.0
    assert penalty_mean([1.0, -1.0], [1.0, 1.0], 2.0) == pytest.approx(0.875)


def test_penalty_mean_nonpositive_when_feasible():
    rng = np.random.default_rng(3)
    for _ in range(500):
        m = rng.integers(1, 12)
        fvals = -np.abs(rng.normal(size=m))
        z = np.abs(rng.normal(size=m))
        beta = rng.uniform(1e-3, 10.0)
        assert penalty_mean(fvals, z, beta) <= 1e-15


def test_penalty_mean_dimension_error():
    with pytest.raises(DimensionError):
        penalty_mean([1.0, 2.0], [1.0], 1.0)


def test_primal_subgradient_examples():
    zero = primal_subgradient(np.zeros(3), 0.0, np.array([1.0, 2.0, 3.0]), 0.0, 1.0)
    assert np.array_equal(zero, np.zeros(3))

    out = primal_subgradient(np.array([1.0, 0.0]), 1.0, np.array([0.0, 2.0]), 1.0, 2.0)
    assert np.allclose(out, [1.0, 6.0])

    out = primal_subgradient(np.array([1.0, 1.0]), -5.0, np.array([9.0, 9.0]), 1.0, 0.1)
    assert np.allclose(out, [5.5, 5.5])


def test_primal_subgradient_dimension_error():
    with pytest.raises(DimensionError):
        primal_subgradient(np.zeros(2), 0.0, np.zeros(3), 0.0, 1.0)


def test_lagrangian_gap_examples():
    assert lagrangian_gap(1.0, 1.0, [0.0, 0.0], [3.0, 4.0]) == 0.0
    assert lagrangian_gap(2.0, 1.0, [1.0, -1.0], [2.0, 4.0]) == pytest.approx(0.0)


def test_lagrangian_gap_dimension_error():
    with pytest.raises(DimensionError):
        lagrangian_gap(0.0, 0.0, [1.0], [1.0, 2.0])
