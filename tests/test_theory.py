"""Dual-bound and rate-envelope constant tests."""

import math

import pytest

from pdsg.errors import BoundInfeasibleError
from pdsg.theory import (
    BoundInputs,
    dual_bound,
    dual_constant,
    rate_envelope,
)


def _inputs(**kw):
    base = dict(
        alpha=1.0,
        rho=1.0,
        m=200,
        F=1.0,
        G=1.0,
        sigma=0.0,
        dist0=1.0,
        zstar_norm=1.0,
        ones_plus_zstar_norm=2.0,
        mu=0.0,
    )
    base.update(kw)
    return BoundInputs(**base)


def test_dual_bound_zero_inputs():
    b = _inputs(F=0.0, G=0.0, sigma=0.0, dist0=0.0, zstar_norm=0.0, ones_plus_zstar_norm=0.0)
    assert dual_constant("fixed_horizon", b, K=100) == 0.0
    assert dual_bound("fixed_horizon", b, K=100) == 0.0


def test_dual_bound_hand_arithmetic():
    b = _inputs()
    c1 = dual_constant("fixed_horizon", b, K=100)
    assert c1 == pytest.approx(2.0 + 4.0 + 32.0 + 0.32)
    assert dual_bound("fixed_horizon", b, K=100) == pytest.approx(38.32 / (1 - 32.0 / 200.0))
    assert abs(dual_bound("fixed_horizon", b, K=100) - 45.62) < 0.01


def test_dual_bound_monotone_in_noise_terms():
    base = dual_bound("fixed_horizon", _inputs(), K=100)
    assert dual_bound("fixed_horizon", _inputs(sigma=1.0), K=100) > base
    assert dual_bound("fixed_horizon", _inputs(F=2.0), K=100) > base
    assert dual_bound("fixed_horizon", _inputs(dist0=2.0), K=100) > base
    assert dual_bound("fixed_horizon", _inputs(zstar_norm=2.0), K=100) > base


def test_dual_bound_requires_product_condition():
    bad = _inputs(G=10.0)  # alpha*rho = 1 >= 200/3200
    with pytest.raises(BoundInfeasibleError):
        dual_bound("fixed_horizon", bad, K=100)
    with pytest.raises(BoundInfeasibleError):
        dual_bound("anytime", _inputs(G=2.0))  # 1 >= 200/272


def test_fixed_horizon_scales_as_inverse_sqrt_k():
    # with F = 0 the internal 1/K terms vanish and the envelope is exactly
    # proportional to 1/sqrt(K)
    b = _inputs(F=0.0)
    e1 = rate_envelope("fixed_horizon", b, K=400)
    e2 = rate_envelope("fixed_horizon", b, K=1600)
    assert e2.obj == pytest.approx(e1.obj / 2.0, rel=1e-12)
    assert e2.infeas == pytest.approx(e1.infeas / 2.0, rel=1e-12)


def test_anytime_prefactor_value():
    # zero out every term of the rate constant so the envelope exposes the
    # prefactor log(K+1)/(2 (sqrt(K+2) - sqrt(2))) times the dual-norm term
    b = _inputs(F=0.0, G=0.0, sigma=0.0, dist0=0.0, zstar_norm=1.0, rho=4.5)
    env = rate_envelope("anytime", b, K=10)
    pre = math.log(11.0) / (2.0 * (math.sqrt(12.0) - math.sqrt(2.0)))
    assert abs(pre - 0.585) < 0.001
    # with rho = 4.5 the dual-norm coefficient 9/(2 rho) is exactly one
    assert env.obj == pytest.approx(pre, rel=1e-12)


def test_envelopes_positive_and_decreasing_in_k():
    b = _inputs(mu=1.0)
    for kind in ("fixed_horizon", "anytime", "strongly_convex"):
        prev = None
        for K in (2, 4, 16, 64, 256, 4096):
            env = rate_envelope(kind, b, K)
            assert env.obj > 0 and env.infeas > 0
            if prev is not None:
                assert env.obj < prev.obj
                assert env.infeas < prev.infeas
            prev = env


def test_strongly_convex_last_iterate_bound():
    b = _inputs(mu=2.0, alpha=0.5)
    env = rate_envelope("strongly_convex", b, K=1000)
    assert env.last_iterate is not None and env.last_iterate > 0
    assert rate_envelope("fixed_horizon", b, K=1000).last_iterate is None
    # matches the display 2 alpha log(K+1)/(K+1) (phi + |z*|^2 / (2 rho))
    from pdsg.theory import rate_constant

    phi = rate_constant("strongly_convex", b, 1000)
    want = 2 * 0.5 * math.log(1001.0) / 1001.0 * (phi + 1.0 / 2.0)
    assert env.last_iterate == pytest.approx(want, rel=1e-12)
