import math
import warnings

import numpy as np
import pytest

from ezmerton import (
    Market,
    Preferences,
    RegimeKind,
    ValueSign,
    classify_regime,
    numeraire_shift,
    transformed_aggregator,
    transformed_consumption,
)
from ezmerton.closed_form import optimal_consumption_rate
from ezmerton.errors import DomainError, InvalidParameters
from ezmerton.preferences import transformed_aggregator_grid


def test_derived_parameters(prefs):
    assert prefs.theta == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert prefs.rho == pytest.approx(-0.5, rel=1e-15)
    # theta = 1/(1-rho) and the exponent identity hold to machine precision
    assert prefs.theta * (1.0 - prefs.rho) == pytest.approx(1.0, abs=1e-14)
    assert (1.0 - prefs.S) + prefs.rho * (1.0 - prefs.R) == pytest.approx(
        1.0 - prefs.R, abs=1e-14
    )


def test_regime_classification():
    contractive = classify_regime(Preferences(b=1, delta=0.03, R=2.0, S=2.5))
    assert contractive.kind is RegimeKind.CONTRACTIVE
    assert contractive.solver_supported

    crra = classify_regime(Preferences(b=1, delta=0.03, R=2.0, S=2.0))
    assert crra.kind is RegimeKind.CRRA
    assert crra.solver_supported
    assert Preferences(b=1, delta=0.03, R=2.0, S=2.0).theta == 1.0

    neg = classify_regime(Preferences(b=1, delta=0.03, R=2.0, S=0.5))
    assert neg.kind is RegimeKind.THETA_NEGATIVE
    assert not neg.solver_supported
    assert Preferences(b=1, delta=0.03, R=2.0, S=0.5).theta == pytest.approx(-2.0)

    above = classify_regime(Preferences(b=1, delta=0.03, R=3.0, S=2.0))
    assert above.kind is RegimeKind.THETA_ABOVE_ONE
    assert not above.solver_supported


@pytest.mark.parametrize(
    "kwargs",
    [
        {"b": 0.0, "delta": 0.0, "R": 2.0, "S": 2.5},
        {"b": -1.0, "delta": 0.0, "R": 2.0, "S": 2.5},
        {"b": 1.0, "delta": 0.0, "R": 1.0, "S": 2.5},
        {"b": 1.0, "delta": 0.0, "R": 0.0, "S": 2.5},
        {"b": 1.0, "delta": 0.0, "R": 2.0, "S": 1.0},
        {"b": 1.0, "delta": 0.0, "R": 2.0, "S": -0.5},
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(InvalidParameters):
        Preferences(**kwargs)


def test_value_sign():
    assert Preferences(b=1, delta=0, R=0.5, S=0.25).value_sign is ValueSign.NON_NEGATIVE
    assert Preferences(b=1, delta=0, R=2.0, S=2.5).value_sign is ValueSign.NON_POSITIVE


def test_market_sharpe(market):
    assert market.sharpe == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(InvalidParameters):
        Market(r=0.02, mu=0.07, sigma=0.0)


def aggregator(prefs, t, c, v):
    """The discounted aggregator b e^{-delta t} c^{1-S}/(1-S) ((1-R)v)^rho,
    evaluated as the kernel u w^rho of the transformed driver u = U(t, c) and
    w = (1-R)v, scaled back by 1/(1-R)."""
    u = transformed_consumption(prefs, t, c)
    return transformed_aggregator(u, (1.0 - prefs.R) * v, prefs.rho) / (1.0 - prefs.R)


class TestAggregator:
    def test_reference_point(self, prefs):
        # b e^{-delta*0} * 1/(1-S) * ((1-R)(-1))^rho = (1/-1.5) * 1 = -2/3
        g = aggregator(prefs, t=0.0, c=1.0, v=-1.0)
        assert g == pytest.approx(-2.0 / 3.0, rel=1e-12)

    def test_linear_in_scale(self, prefs):
        doubled = Preferences(b=2.0, delta=prefs.delta, R=prefs.R, S=prefs.S)
        g1 = aggregator(prefs, 0.7, 1.3, -0.4)
        g2 = aggregator(doubled, 0.7, 1.3, -0.4)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-12)

    def test_homogeneity(self, prefs):
        # g(t, a c, a^{1-R} v) = a^{1-R} g(t, c, v)
        a = 4.0
        base = aggregator(prefs, 0.0, 1.0, -1.0)
        scaled = aggregator(prefs, 0.0, a * 1.0, a ** (1 - prefs.R) * -1.0)
        assert scaled == pytest.approx(a ** (1 - prefs.R) * base, rel=1e-12)
        assert scaled == pytest.approx(-2.0 / 3.0 * 0.25, rel=1e-12)

    def test_homogeneity_randomised(self, prefs, rng):
        for _ in range(50):
            a = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(0.1, 5.0))
            v = -float(rng.uniform(0.1, 5.0))
            t = float(rng.uniform(0.0, 10.0))
            lhs = aggregator(prefs, t, a * c, a ** (1 - prefs.R) * v)
            rhs = a ** (1 - prefs.R) * aggregator(prefs, t, c, v)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_sign_domain_enforced(self, prefs):
        with pytest.raises(DomainError):
            aggregator(prefs, 0.0, 1.0, 1.0)  # R > 1 needs v <= 0


class TestTransformedAggregator:
    def test_interior(self):
        assert transformed_aggregator(2.0, 4.0, -0.5) == pytest.approx(1.0)

    def test_boundary_table(self):
        rho = -0.5
        assert transformed_aggregator(3.0, math.inf, rho) == 0.0
        assert transformed_aggregator(0.0, 7.0, rho) == 0.0
        assert transformed_aggregator(5.0, 0.0, rho) == math.inf
        assert transformed_aggregator(math.inf, 0.3, rho) == math.inf
        assert transformed_aggregator(0.0, 0.0, rho) == 0.0
        assert transformed_aggregator(math.inf, math.inf, rho) == math.inf

    def test_continuity_in_w(self):
        # For fixed u, the kernel is continuous on [0, inf]:
        # approaching w = 0 it blows up to the boundary value inf, and
        # approaching w = inf it decays to the boundary value 0.
        rho = -0.5
        u = 3.0
        small = [transformed_aggregator(u, w, rho) for w in (1e-8, 1e-12, 1e-16)]
        assert all(a < b for a, b in zip(small, small[1:]))
        assert small[-1] > 1e7
        large = [transformed_aggregator(u, w, rho) for w in (1e8, 1e12, 1e16)]
        assert all(a > b for a, b in zip(large, large[1:]))
        assert large[-1] < 1e-7

    def test_rejects_negative_and_positive_rho(self):
        with pytest.raises(DomainError):
            transformed_aggregator(-1.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            transformed_aggregator(1.0, 1.0, 0.5)

    def test_grid_matches_scalar(self, rng):
        rho = -0.7
        u = np.concatenate([rng.uniform(0.0, 5.0, 20), [0.0, np.inf, 2.0, 0.0]])
        w = np.concatenate([rng.uniform(0.0, 5.0, 20), [0.0, 1.0, np.inf, np.inf]])
        grid = transformed_aggregator_grid(u, w, rho)
        for ui, wi, gi in zip(u, w, grid):
            expected = transformed_aggregator(float(ui), float(wi), rho)
            if ui in (0.0, math.inf) or wi in (0.0, math.inf):
                assert gi == expected  # boundary conventions are exact
            else:
                assert gi == pytest.approx(expected, rel=1e-14)

    def test_rho_zero_is_additive(self):
        assert transformed_aggregator(3.0, 0.123, 0.0) == 3.0
        assert transformed_aggregator(3.0, math.inf, 0.0) == 3.0


class TestCoordinateTransform:
    def test_u_reference_point(self):
        p = Preferences(b=1.0, delta=0.0, R=2.0, S=2.5)
        U = transformed_consumption(p, 0.0, 1.0)
        assert U == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_zero_consumption_boundary(self, prefs):
        assert transformed_consumption(prefs, 0.0, 0.0) == math.inf  # S > 1
        p_low = Preferences(b=1, delta=0.0, R=0.5, S=0.25)
        assert transformed_consumption(p_low, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("c", [math.nan, [1.0, math.nan, 0.0]])
    def test_nan_consumption_rejected(self, prefs, c):
        # NaN compares false both ways, so it once took the C = 0 boundary.
        with pytest.raises(DomainError):
            transformed_consumption(prefs, 0.0, c)

    def test_overflow_is_inf_without_a_warning(self, prefs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transformed_consumption(prefs, 0.0, 1e-300) == math.inf
            assert transformed_consumption(prefs, -1e5, 1.0) == math.inf  # e^{-delta t}


class TestDiscountTransform:
    def test_matches_proportional_coefficient(self, prefs, market, policy):
        # Removing the discount from the closed-form proportional value gives
        # a time-constant coefficient.
        from ezmerton.closed_form import proportional_utility

        times = np.array([0.0, 1.0, 2.5, 7.0])
        vals = np.array([
            proportional_utility(prefs, market, policy.strategy, 1.0, t)
            for t in times
        ])
        upcounted = vals * np.exp(prefs.delta * prefs.theta * times)
        np.testing.assert_allclose(upcounted, upcounted[0], rtol=1e-12)


class TestNumeraireShift:
    def test_identity_at_zero(self, prefs, market):
        p2, m2 = numeraire_shift(prefs, market, 0.0)
        assert (p2.b, p2.delta, p2.R, p2.S) == (prefs.b, prefs.delta, prefs.R, prefs.S)
        assert (m2.r, m2.mu, m2.sigma) == (market.r, market.mu, market.sigma)

    def test_kills_discounting(self, prefs, market):
        chi = prefs.delta / (1.0 - prefs.S)
        assert chi == pytest.approx(-0.02, rel=1e-14)
        p2, m2 = numeraire_shift(prefs, market, chi)
        assert p2.delta == pytest.approx(0.0, abs=1e-16)
        assert m2.r == pytest.approx(0.04, rel=1e-14)
        assert m2.mu == pytest.approx(0.09, rel=1e-14)
        assert m2.sigma == market.sigma
        assert m2.sharpe == pytest.approx(market.sharpe, rel=1e-14)

    def test_eta_invariant_over_random_chi(self, prefs, market, rng):
        eta0 = optimal_consumption_rate(prefs, market).eta
        for chi in rng.uniform(-0.5, 0.5, 25):
            p2, m2 = numeraire_shift(prefs, market, float(chi))
            eta2 = optimal_consumption_rate(p2, m2).eta
            assert eta2 == pytest.approx(eta0, rel=1e-12)

    def test_regime_invariant(self, prefs, market, rng):
        for chi in rng.uniform(-0.5, 0.5, 10):
            p2, _ = numeraire_shift(prefs, market, float(chi))
            assert classify_regime(p2).kind is classify_regime(prefs).kind
