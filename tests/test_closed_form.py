import math

import numpy as np
import pytest
from scipy import integrate

from ezmerton import Market, Preferences
from ezmerton.closed_form import (
    PiecewiseExponentialStream,
    ProportionalStrategy,
    candidate_policy,
    crra_bubble_quantities,
    decay_rate,
    deterministic_utility,
    difference_form_roots,
    exponential_stream_utility,
    max_transversal_consumption,
    optimal_consumption_rate,
    proportional_utility,
    proportional_value_coefficient,
)
from ezmerton.errors import (
    DegenerateDenominator,
    DivergentIntegral,
    IllPosed,
    InvalidParameters,
    NotEvaluable,
    UnsupportedRegime,
)
from ezmerton.preferences import numeraire_shift


class TestDecayRate:
    def test_candidate_reference(self, prefs, market, policy):
        # At the candidate policy, H_{delta*theta}(pi_hat, eta) = theta*eta.
        H = decay_rate(prefs.delta * prefs.theta, prefs, market, policy.strategy)
        assert H == pytest.approx(prefs.theta * policy.eta, rel=1e-12)
        assert H == pytest.approx(0.022250, abs=1e-12)

    def test_all_terms_cancel(self, prefs, market):
        strat = ProportionalStrategy(pi=0.0, xi=market.r)
        assert decay_rate(0.0, prefs, market, strat) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self, prefs, market):
        # 0.04 + (R-1)(r + lam*sigma*pi - xi - pi^2 sigma^2 R/2)
        strat = ProportionalStrategy(pi=0.5, xi=0.05)
        expected = 0.04 + 1.0 * (0.02 + 0.25 * 0.2 * 0.5 - 0.05 - 0.25 * 0.04 * 1.0)
        assert expected == pytest.approx(0.025, abs=1e-15)
        assert decay_rate(0.04, prefs, market, strat) == pytest.approx(expected, rel=1e-13)

    def test_additive_in_nu(self, prefs, market, rng):
        for _ in range(30):
            strat = ProportionalStrategy(pi=float(rng.uniform(-1, 2)),
                                         xi=float(rng.uniform(0.01, 0.2)))
            nu = float(rng.uniform(-0.1, 0.1))
            c = float(rng.uniform(-0.05, 0.05))
            assert decay_rate(nu + c, prefs, market, strat) == pytest.approx(
                decay_rate(nu, prefs, market, strat) + c, rel=1e-12, abs=1e-15
            )


class TestEta:
    def test_reference_scenario(self, prefs, market):
        rep = optimal_consumption_rate(prefs, market)
        assert rep.eta == pytest.approx(0.033375, rel=1e-12)
        assert rep.well_posed
        # impatience decomposition: eta = phi/S + ((S-1)/S) lam^2/(2R)
        recombined = rep.phi / prefs.S + (prefs.S - 1.0) / prefs.S * 0.25**2 / 4.0
        assert rep.eta == pytest.approx(recombined, rel=1e-12)

    def test_crra_rate(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.0)
        rep = optimal_consumption_rate(p, market)
        # additive-utility rate delta/R - (1-R)/R (r + lam^2/(2R))
        eta_a = 0.03 / 2.0 + 0.5 * (0.02 + 0.25**2 / 4.0)
        assert eta_a == pytest.approx(0.0328125, abs=1e-15)
        assert rep.eta == pytest.approx(eta_a, rel=1e-12)

    def test_ill_posed_scenario(self, market):
        p = Preferences(b=1.0, delta=0.05, R=0.5, S=0.25)
        rep = optimal_consumption_rate(p, market)
        assert rep.eta == pytest.approx(-0.0475, rel=1e-12)
        assert not rep.well_posed


class TestCandidatePolicy:
    def test_reference_scenario(self, prefs, market, policy):
        assert policy.pi_hat == pytest.approx(0.625, rel=1e-13)
        assert policy.eta == pytest.approx(0.033375, rel=1e-13)
        # independent recompute of the value: b^theta eta^{-theta S}/(1-R)
        expected = 1.0 * 0.033375 ** (-(2.0 / 3.0) * 2.5) / (1.0 - 2.0)
        assert expected == pytest.approx(-289.044388700143, rel=1e-12)
        assert policy.value(1.0) == pytest.approx(expected, rel=1e-12)
        # pi_hat * sigma * R = sharpe
        assert policy.pi_hat * market.sigma * prefs.R == pytest.approx(
            market.sharpe, rel=1e-13
        )

    def test_zero_sharpe(self, prefs):
        flat = Market(r=0.02, mu=0.02, sigma=0.2)
        pol = candidate_policy(prefs, flat)
        assert pol.pi_hat == 0.0

    def test_errors(self, market):
        with pytest.raises(IllPosed):
            candidate_policy(Preferences(b=1, delta=0.05, R=0.5, S=0.25), market)
        with pytest.raises(UnsupportedRegime):
            candidate_policy(Preferences(b=1, delta=0.03, R=2.0, S=0.5), market)

    def test_maximal_among_proportional(self, prefs, market, policy, rng):
        best = policy.value(1.0)
        for _ in range(300):
            strat = ProportionalStrategy(pi=float(rng.uniform(-0.5, 1.5)),
                                         xi=float(rng.uniform(0.005, 0.1)))
            try:
                v = proportional_utility(prefs, market, strat, 1.0, 0.0)
            except NotEvaluable:
                continue
            assert v <= best + 1e-12 * abs(best)


class TestProportionalUtility:
    def test_coincides_with_candidate(self, prefs, market, policy):
        v = proportional_utility(prefs, market, policy.strategy, 1.0, 0.0)
        assert v == pytest.approx(policy.value(1.0), rel=1e-12)

    def test_not_evaluable_when_rate_nonpositive(self, prefs, market):
        strat = ProportionalStrategy(pi=0.625, xi=0.5)  # consume far too much
        assert decay_rate(prefs.delta * prefs.theta, prefs, market, strat) <= 0
        with pytest.raises(NotEvaluable):
            proportional_utility(prefs, market, strat, 1.0, 0.0)

    def test_time_decay(self, prefs, market, policy):
        v0 = proportional_utility(prefs, market, policy.strategy, 1.0, 0.0)
        v10 = proportional_utility(prefs, market, policy.strategy, 1.0, 10.0)
        assert v10 == pytest.approx(math.exp(-0.2) * v0, rel=1e-12)


class TestDeterministicUtility:
    def test_constant_stream_reference(self, prefs):
        # c = 1: V(0) = -(1/delta)^theta
        v = exponential_stream_utility(prefs, a=1.0, gamma=0.0, t=0.0)
        assert v == pytest.approx(-((1.0 / 0.03) ** (2.0 / 3.0)), rel=1e-12)
        assert v == pytest.approx(-10.357441686512862, rel=1e-12)
        quad = deterministic_utility(
            prefs, PiecewiseExponentialStream.exponential(1.0, 0.0), 0.0
        )
        assert quad == pytest.approx(v, rel=1e-8)

    def test_zero_stream_low_curvature(self):
        p = Preferences(b=1.0, delta=0.05, R=0.5, S=0.25)
        v = deterministic_utility(
            p, PiecewiseExponentialStream.exponential(0.0, 0.0), 0.0
        )
        assert v == 0.0

    def test_quadrature_matches_closed_form(self, prefs, rng):
        checked = 0
        while checked < 50:
            a = float(rng.uniform(0.1, 5.0))
            gamma = float(rng.uniform(-0.015, 0.2))
            if prefs.delta + gamma * (1.0 - prefs.S) <= 1e-3:
                continue
            t = float(rng.uniform(0.0, 3.0))
            quad = deterministic_utility(
                prefs, PiecewiseExponentialStream.exponential(a, gamma), t
            )
            exact = exponential_stream_utility(prefs, a, gamma, t)
            assert quad == pytest.approx(exact, rel=1e-6)
            checked += 1

    def test_crra_specialisation_matches_direct_quadrature(self):
        p = Preferences(b=1.0, delta=0.04, R=2.0, S=2.0)
        stream = PiecewiseExponentialStream.two_level(0.7, 1.4, 2.0)
        v = deterministic_utility(p, stream, 0.0)
        T = 400.0
        direct, _ = integrate.quad(
            lambda s: math.exp(-p.delta * s)
            * stream.value_at(s) ** (1.0 - p.R) / (1.0 - p.R),
            0.0, T, limit=400,
        )
        direct += math.exp(-p.delta * T) / p.delta * 1.4 ** (1.0 - p.R) / (1.0 - p.R)
        assert v == pytest.approx(direct, rel=1e-7)

    def test_divergent_tail_rejected(self):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)
        # delta + gamma(1-S) = 0.03 - 0.03 = 0 for gamma = 0.02: diverges
        with pytest.raises(DivergentIntegral):
            deterministic_utility(
                p, PiecewiseExponentialStream.exponential(1.0, 0.02), 0.0
            )
        with pytest.raises(DivergentIntegral):
            exponential_stream_utility(p, 1.0, 0.02, 0.0)

    @pytest.mark.parametrize("p", [
        Preferences(b=1.0, delta=0.03, R=2.0, S=2.5),
        Preferences(b=1.0, delta=0.03, R=0.5, S=0.8),
    ], ids=["R>1", "R<1"])
    def test_negative_level_rejected(self, p):
        # As a stream amplitude: a negative level gave a real utility at
        # R = 2 and a complex one at R = 1/2.
        with pytest.raises(InvalidParameters, match="non-negative"):
            PiecewiseExponentialStream.exponential(-1.0, 0.0)
        with pytest.raises(InvalidParameters, match="non-negative"):
            exponential_stream_utility(p, -1.0, 0.0, 0.0)


class TestDeterministicUtilityExact:
    """The per-segment sum against independent references, at tolerances
    near rounding."""

    @pytest.mark.parametrize("p", [
        Preferences(b=1.0, delta=0.03, R=2.0, S=2.5),
        Preferences(b=1.5, delta=0.05, R=0.5, S=0.4),
    ], ids=["S>1", "S<1"])
    def test_exponential_streams_match_closed_form(self, p, rng):
        checked = 0
        while checked < 50:
            a = float(rng.uniform(0.1, 5.0))
            gamma = float(rng.uniform(-0.05, 0.2))
            if p.delta + gamma * (1.0 - p.S) <= 1e-3:
                continue
            t = float(rng.uniform(0.0, 3.0))
            v = deterministic_utility(p, PiecewiseExponentialStream.exponential(a, gamma), t)
            assert v == pytest.approx(exponential_stream_utility(p, a, gamma, t), rel=1e-13)
            checked += 1

    @staticmethod
    def quad_oracle(p, stream, t):
        """(b I(t))^theta / (1-R) with I(t) by quadrature between breakpoints."""
        def integrand(s):
            c = stream.value_at(s)
            # in logs: far out c^(1-S) alone overflows for S > 1
            return math.exp(-p.delta * s + (1.0 - p.S) * math.log(c)) if c > 0.0 else 0.0

        knots = [t, *(b for b in stream.breakpoints if b > t), math.inf]
        total = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13,
                                   limit=200)[0]
                    for lo, hi in zip(knots, knots[1:]))
        return (p.b * total) ** p.theta / (1.0 - p.R)

    @pytest.mark.parametrize("prefs_args, stream_args, t", [
        # three segments, from t = 0
        ((1.0, 0.03, 2.0, 2.5), ((0.0, 1.5, 4.0), (0.8, 1.2, 0.6), (0.05, -0.02, 0.01)), 0.0),
        # t inside the middle segment
        ((1.0, 0.03, 2.0, 2.5), ((0.0, 1.5, 4.0), (0.8, 1.2, 0.6), (0.05, -0.02, 0.01)), 2.3),
        # t past the last breakpoint
        ((1.0, 0.03, 2.0, 2.5), ((0.0, 1.5, 4.0), (0.8, 1.2, 0.6), (0.05, -0.02, 0.01)), 6.5),
        # a zero-amplitude segment, S < 1
        ((1.0, 0.05, 0.5, 0.4), ((0.0, 2.0, 3.0), (1.0, 0.0, 2.0), (0.02, 0.0, 0.03)), 0.5),
        # a finite segment with delta + g(1-S) = 0 (g = 0.02)
        ((1.0, 0.03, 2.0, 2.5), ((0.0, 2.0), (1.3, 0.9), (0.02, 0.0)), 0.0),
        # a finite segment with delta + g(1-S) = 1e-9: no cancellation
        ((1.0, 0.03, 2.0, 2.5), ((0.0, 2.0), (1.3, 0.9), (0.02 - 1e-9 / 1.5, 0.0)), 0.0),
    ], ids=["three-segments", "t-in-middle", "t-past-last", "zero-segment-S<1",
            "zero-rate-segment", "near-zero-rate-segment"])
    def test_multi_segment_streams_match_quadrature(self, prefs_args, stream_args, t):
        p = Preferences(*prefs_args)
        stream = PiecewiseExponentialStream(*stream_args)
        v = deterministic_utility(p, stream, t)
        assert v == pytest.approx(self.quad_oracle(p, stream, t), rel=1e-10)


def finite_root(report):
    """The value of the root labelled "finite"."""
    return next(root.value for root in report.roots if root.label == "finite")


class TestDifferenceFormRoots:
    def test_contractive_reference(self, prefs, market, policy):
        report = difference_form_roots(prefs, market, policy.strategy)
        H = decay_rate(prefs.delta * prefs.theta, prefs, market, policy.strategy)
        oracle = (prefs.b * prefs.theta / H) ** prefs.theta
        assert finite_root(report) == pytest.approx(oracle, rel=1e-13)
        assert finite_root(report) == pytest.approx(9.6469, rel=1e-4)
        assert len(report.roots) == 1

    def test_contractive_no_root_when_rate_negative(self, prefs, market):
        strat = ProportionalStrategy(pi=0.625, xi=0.5)
        report = difference_form_roots(prefs, market, strat)
        assert report.roots == ()

    def test_theta_above_one(self, market):
        p = Preferences(b=1.0, delta=0.03, R=3.0, S=2.0)  # theta = 2
        assert p.theta == pytest.approx(2.0)
        # pick xi large enough that H <= 0
        bad = ProportionalStrategy(pi=0.1, xi=0.5)
        assert decay_rate(p.delta * p.theta, p, market, bad) <= 0
        labels = {r.label for r in difference_form_roots(p, market, bad).roots}
        assert labels == {"zero"}
        good = ProportionalStrategy(pi=0.1, xi=0.02)
        report = difference_form_roots(p, market, good)
        labels = {r.label for r in report.roots}
        assert labels == {"zero", "finite", "infinite"}

    def test_theta_negative(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=0.5)  # theta = -2
        strat = ProportionalStrategy(pi=0.625, xi=0.2)
        H = decay_rate(p.delta * p.theta, p, market, strat)
        assert H < 0.0
        report = difference_form_roots(p, market, strat)
        labels = {r.label for r in report.roots}
        assert labels == {"zero", "finite", "infinite"}
        oracle = (p.b * abs(p.theta) / abs(H)) ** p.theta
        assert finite_root(report) == pytest.approx(oracle, rel=1e-13)
        # with H >= 0 only the zero root remains
        mild = ProportionalStrategy(pi=0.625, xi=0.01)
        if decay_rate(p.delta * p.theta, p, market, mild) > 0:
            assert {r.label for r in difference_form_roots(p, market, mild).roots} == {"zero"}

    def test_consistency_with_proportional_coefficient(self, prefs, market, rng):
        # B xi^{1-R}/(1-R) equals the proportional value coefficient.
        for _ in range(25):
            strat = ProportionalStrategy(pi=float(rng.uniform(0.0, 1.2)),
                                         xi=float(rng.uniform(0.01, 0.08)))
            if decay_rate(prefs.delta * prefs.theta, prefs, market, strat) <= 0:
                continue
            B = finite_root(difference_form_roots(prefs, market, strat))
            coef = proportional_value_coefficient(prefs, market, strat)
            assert B * strat.xi ** (1.0 - prefs.R) / (1.0 - prefs.R) == pytest.approx(
                coef, rel=1e-10
            )


class TestMaxTransversalConsumption:
    def test_reference_value(self, market):
        # r + lam^2/(2R) + nu/(R-1) = 0.02 + 0.015625 + 0.04
        assert max_transversal_consumption(0.04, market, 2.0) == pytest.approx(
            0.075625, rel=1e-13
        )

    def test_positive_part(self, market):
        assert max_transversal_consumption(-0.2, market, 2.0) == 0.0

    def test_monotone_in_nu(self, market):
        nus = np.linspace(-0.05, 0.1, 31)
        vals = [max_transversal_consumption(float(nu), market, 2.0) for nu in nus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_r_below_one_unbounded(self, market):
        assert max_transversal_consumption(0.04, market, 0.5) == math.inf

    def test_r_one_rejected(self, market):
        with pytest.raises(InvalidParameters):
            max_transversal_consumption(0.04, market, 1.0)

    def test_threshold_separates_grid(self, market):
        # Below the threshold some pi gives H_nu > 0; above, none does.
        from ezmerton.closed_form import _H

        nu, R = 0.04, 2.0
        xi_max = max_transversal_consumption(nu, market, R)
        pis = np.linspace(-3.0, 3.0, 12001)
        for xi in (xi_max - 0.002, xi_max - 1e-4):
            H = _H(nu, market.r, market.sharpe, market.sigma, R, pis, xi)
            assert H.max() > 0.0
        for xi in (xi_max + 1e-4, xi_max + 0.002, xi_max + 0.05):
            H = _H(nu, market.r, market.sharpe, market.sigma, R, pis, xi)
            assert H.max() <= 0.0


class TestCrraBubbles:
    def test_engineered_bubble(self, market):
        # xi chosen so H_delta(pi_hat, xi) = -eps with eps = 0.01
        delta, R, eps = 0.03, 2.0, 0.01
        eta_a = delta / R + (R - 1.0) / R * (market.r + market.sharpe**2 / (2 * R))
        xi_eps = (eps + R * eta_a) / (R - 1.0)
        assert xi_eps == pytest.approx(0.075625, rel=1e-13)
        report = crra_bubble_quantities(delta, R, market, xi_eps, nu=delta + 0.02)
        assert report.V0 == pytest.approx(1.0 / (xi_eps * eps), rel=1e-12)
        assert report.V0 == pytest.approx(1322.3140495867776, rel=1e-12)
        assert report.flag.is_bubble
        assert report.flag.value_sign == 1
        assert report.flag.aggregator_sign == -1
        assert report.transversality_ok

    def test_no_bubble_on_evaluable_side(self, market):
        report = crra_bubble_quantities(0.03, 2.0, market, xi=0.03, nu=0.03)
        assert report.V0 < 0.0  # sign of 1/(1-R)
        assert not report.flag.is_bubble

    def test_sign_flips_at_rate_root(self, market):
        # V0 changes sign exactly as xi crosses R*eta_a/(R-1).
        delta, R = 0.03, 2.0
        eta_a = delta / R + (R - 1.0) / R * (market.r + market.sharpe**2 / (2 * R))
        xi_root = R * eta_a / (R - 1.0)
        below = crra_bubble_quantities(delta, R, market, xi_root - 1e-6, delta)
        above = crra_bubble_quantities(delta, R, market, xi_root + 1e-6, delta)
        assert below.V0 < 0.0 < above.V0
        assert not below.flag.is_bubble and above.flag.is_bubble

    def test_degenerate_denominator(self, market):
        delta, R = 0.03, 2.0
        eta_a = delta / R + (R - 1.0) / R * (market.r + market.sharpe**2 / (2 * R))
        with pytest.raises(DegenerateDenominator):
            crra_bubble_quantities(delta, R, market, R * eta_a / (R - 1.0), delta)


class TestNumeraireInvariance:
    def test_value_coefficient_invariant(self, prefs, market, policy, rng):
        for chi in rng.uniform(-0.5, 0.5, 20):
            p2, m2 = numeraire_shift(prefs, market, float(chi))
            pol2 = candidate_policy(p2, m2)
            assert pol2.pi_hat == pytest.approx(policy.pi_hat, rel=1e-12)
            assert pol2.eta == pytest.approx(policy.eta, rel=1e-12)
            assert pol2.value_coefficient == pytest.approx(
                policy.value_coefficient, rel=1e-12
            )
