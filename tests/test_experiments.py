import math

import numpy as np
import pytest
from scipy import integrate

from ezmerton import Preferences
from ezmerton.closed_form import (
    ProportionalStrategy,
    optimal_consumption_rate,
    proportional_utility,
)
from ezmerton.errors import (
    ExperimentError,
    InvalidParameters,
    NotEvaluable,
    UnsupportedRegime,
    WellPosed,
)
from ezmerton.experiments import (
    aversion_demos,
    crra_counterexample,
    crra_oscillating_paths,
    ezsdu_counterexample,
    ezsdu_oscillating_paths,
    policy_grid_search,
    transversality_sweep,
    verification_check,
    wellposed_divergence,
)
from ezmerton.experiments import _oscillating_blocks


def assert_grows_linearly(report):
    """Both parts grow by slope * 10 on every step of the horizons 10, 20, ...:
    each step adds the same five pairs of unit blocks."""
    for partials, slope in ((report.positive_part_partials, report.positive_slope),
                            (report.negative_part_partials, report.negative_slope)):
        np.testing.assert_allclose(np.diff(partials), 10.0 * slope, rtol=1e-12)


class TestCrraCounterexample:
    def test_difference_path_reference_points(self):
        _, v_delta = crra_oscillating_paths(0.03, 2.0)
        assert v_delta(0.0) == pytest.approx(-1.0, rel=1e-14)
        assert v_delta(1.5) == pytest.approx(-math.exp(-0.015), rel=1e-12)
        assert v_delta(1.5) == pytest.approx(-0.98511, abs=5e-6)

    def test_quadrature_value_and_divergent_parts(self):
        report = crra_counterexample(0.03, 2.0, list(range(10, 101, 10)))
        assert report.discounted_value_at_0 == pytest.approx(-1.0, abs=1e-3)
        assert report.positive_slope > 0.0
        assert report.negative_slope > 0.0
        assert_grows_linearly(report)
        # partial sequences are nondecreasing in T
        assert all(b >= a for a, b in zip(report.positive_part_partials,
                                          report.positive_part_partials[1:]))
        assert all(b >= a for a, b in zip(report.negative_part_partials,
                                          report.negative_part_partials[1:]))

    def test_discounted_partials_cauchy(self):
        report = crra_counterexample(0.03, 2.0, list(range(10, 101, 10)))
        tail_gap = abs(report.discounted_partials[-1] - report.discounted_partials[-2])
        head_gap = abs(report.discounted_partials[1] - report.discounted_partials[0])
        assert tail_gap < head_gap  # Cauchy in T

    @pytest.mark.parametrize("T_grid, match", [
        ([1, 2, 3, 1, 2, 3, 1, 2], "largest horizon"),  # the tail closure reads 4 blocks
        ([4] * 8, "two distinct horizons"),             # no slope to fit
    ])
    def test_degenerate_horizon_grids_rejected(self, prefs, T_grid, match):
        with pytest.raises(InvalidParameters, match=match):
            crra_counterexample(0.03, 2.0, T_grid)
        with pytest.raises(InvalidParameters, match=match):
            ezsdu_counterexample(prefs, T_grid)


class TestBlockIntegralOracle:
    """The closed-form unit-block integrals against quadrature of the
    pointwise paths, block by block."""

    N_BLOCKS = 12

    def quad_blocks(self, fn):
        return np.array([integrate.quad(fn, j, j + 1.0, epsrel=1e-13, limit=100)[0]
                         for j in range(self.N_BLOCKS)])

    @pytest.mark.parametrize("delta", [0.03, 0.5, 3.0])
    @pytest.mark.parametrize("R, S", [(0.5, 0.5), (2.0, 2.0), (0.5, 0.25), (2.0, 2.5)],
                             ids=["crra-R<1", "crra-R>1", "ezsdu-R<1", "ezsdu-R>1"])
    def test_blocks_match_quadrature(self, delta, R, S):
        if R == S:  # additive utility, theta = 1
            theta = 1.0
            u_of_c, v_delta = crra_oscillating_paths(delta, R)

            def g(s):
                return u_of_c(s) - delta * v_delta(s)

            def disc(s):
                return math.exp(-delta * s) * u_of_c(s)
        else:
            prefs = Preferences(b=1.0, delta=delta, R=R, S=S)
            theta = prefs.theta
            assert 0.0 < theta < 1.0
            flow, v_delta, disc = ezsdu_oscillating_paths(prefs)

            def g(s):
                return flow(s) * ((1.0 - R) * v_delta(s)) ** prefs.rho - delta * theta * v_delta(s)

        blocks = _oscillating_blocks(delta, theta, 1.0 / (1.0 - R), self.N_BLOCKS)
        oracles = (lambda s: max(g(s), 0.0), lambda s: max(-g(s), 0.0), disc)
        for got, fn in zip(blocks, oracles):
            np.testing.assert_allclose(got, self.quad_blocks(fn), rtol=1e-12, atol=0.0)


class TestEzsduCounterexample:
    def test_time_zero_value(self, prefs):
        _, v_delta, _ = ezsdu_oscillating_paths(prefs)
        assert v_delta(0.0) == pytest.approx(1.0 / (1.0 - prefs.R), rel=1e-14)

    def test_divergent_parts(self, prefs):
        report = ezsdu_counterexample(prefs, list(range(10, 101, 10)))
        assert report.positive_slope > 0.0 and report.negative_slope > 0.0
        assert_grows_linearly(report)

    def test_positive_slope_matches_quadrature_oracle(self, prefs):
        # positive part comes from the no-consumption blocks, where the
        # integrand is -delta*theta*v_delta = delta*theta*|v_delta|
        report = ezsdu_counterexample(prefs, list(range(10, 101, 10)))
        _, v_delta, _ = ezsdu_oscillating_paths(prefs)
        per_period, _ = integrate.quad(
            lambda s: prefs.delta * prefs.theta * abs(v_delta(s)), 0.0, 1.0
        )
        theoretical = per_period / 2.0  # one consumption-free block per 2 units
        assert report.positive_slope == pytest.approx(theoretical, rel=0.05)

    def test_discounted_integral_converges(self):
        # with a faster discount the [0,100] and [0,200] partials agree to 1e-6
        p = Preferences(b=1.0, delta=0.25, R=2.0, S=2.5)
        report = ezsdu_counterexample(p, list(range(20, 201, 20)))
        v100 = report.discounted_partials[4]
        v200 = report.discounted_partials[9]
        assert v200 == pytest.approx(v100, rel=1e-6)

    def test_regime_guard(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=0.5)
        with pytest.raises(UnsupportedRegime):
            ezsdu_counterexample(p, list(range(10, 101, 10)))


class TestTransversalitySweep:
    def test_matched_nu_has_no_bubbles(self, market):
        cells = transversality_sweep(0.03, 2.0, market, nu=0.03,
                                     xi_grid=np.linspace(0.005, 0.2, 80))
        assert len(cells) > 0
        assert not any(c.bubble.is_bubble for c in cells)
        # consistency: transversality_ok iff H_nu > 0
        for c in cells:
            assert c.transversality_ok == (c.H_nu_value > 0.0)

    def test_inflated_nu_admits_engineered_bubble(self, market):
        delta, R = 0.03, 2.0
        xi_eps = 0.075625
        cells = transversality_sweep(delta, R, market, nu=delta + 0.02,
                                     xi_grid=[0.03, xi_eps, 0.12])
        by_xi = {round(c.xi, 6): c for c in cells}
        cell = by_xi[xi_eps]
        assert cell.bubble.is_bubble
        assert cell.transversality_ok
        assert not cell.evaluable
        assert cell.K_or_B / (1.0 - R) == pytest.approx(1322.3140495867776, rel=1e-12)
        assert by_xi[0.03].evaluable and not by_xi[0.03].bubble.is_bubble

    def test_deflated_nu_excludes_candidate(self, market):
        # delta small enough that eta_a exceeds the transversal ceiling for
        # nu = delta - 0.02: the candidate cell fails transversality.
        delta, R = 0.003, 2.0
        nu = delta - 0.02
        eta_a = optimal_consumption_rate(
            Preferences(b=1.0, delta=delta, R=R, S=R), market
        ).eta
        from ezmerton.closed_form import max_transversal_consumption

        assert eta_a > max_transversal_consumption(nu, market, R)
        cells = transversality_sweep(delta, R, market, nu=nu, xi_grid=[eta_a])
        assert cells[0].evaluable
        assert not cells[0].transversality_ok

    def test_bubble_implies_transversal_and_nonevaluable(self, market, rng):
        for nu in (0.01, 0.03, 0.05, 0.08):
            cells = transversality_sweep(0.03, 2.0, market, nu=nu,
                                         xi_grid=rng.uniform(0.005, 0.3, 60))
            for c in cells:
                if c.bubble.is_bubble:
                    assert c.transversality_ok
                    assert not c.evaluable  # bubbles need H_delta < 0


class TestPolicyGridSearch:
    def test_argmax_matches_candidate(self, prefs, market, policy):
        report = policy_grid_search(
            prefs, market,
            pi_grid=np.arange(0.0, 1.5, 1e-3),
            xi_grid=np.arange(1e-3, 0.2, 1e-3),
        )
        assert abs(report.argmax_pi - policy.pi_hat) <= 1e-3 + 1e-12
        assert abs(report.argmax_xi - policy.eta) <= 1e-3 + 1e-12
        assert report.max_value == pytest.approx(policy.value(1.0), rel=5e-3)
        assert report.max_value <= policy.value(1.0) + 1e-12

    def test_masked_cells_have_nonpositive_rate(self, prefs, market):
        report = policy_grid_search(
            prefs, market,
            pi_grid=np.linspace(0.0, 1.4, 30),
            xi_grid=np.linspace(0.01, 0.19, 30),
        )
        assert report.not_evaluable.any()
        assert np.isnan(report.values[report.not_evaluable]).all()

    def test_ill_posed_rejected(self, market):
        p = Preferences(b=1.0, delta=0.05, R=0.5, S=0.25)
        with pytest.raises(Exception):
            policy_grid_search(p, market, [0.1], [0.01])

    def test_every_cell_matches_proportional_utility(self, prefs, market):
        report = policy_grid_search(
            prefs, market,
            pi_grid=np.linspace(0.0, 1.4, 30),
            xi_grid=np.linspace(0.01, 0.19, 30),
        )
        assert report.not_evaluable.any() and not report.not_evaluable.all()
        for (i, j), value in np.ndenumerate(report.values):
            strat = ProportionalStrategy(report.pi_grid[i], report.xi_grid[j])
            if report.not_evaluable[i, j]:
                assert math.isnan(value)
                with pytest.raises(NotEvaluable):
                    proportional_utility(prefs, market, strat, 1.0, 0.0)
            else:
                assert value == pytest.approx(
                    proportional_utility(prefs, market, strat, 1.0, 0.0), rel=1e-14)


class TestAversionDemos:
    def test_risk_gap(self, prefs):
        report = aversion_demos(prefs)
        assert report.expected_y_power == pytest.approx(4.0 / 3.0, rel=1e-12)
        # E[Y^{1-R}]/(1-R) <= (E[Y])^{1-R}/(1-R) scaled by the same factor
        assert report.risk_risky_value <= report.risk_certain_value
        assert report.risk_gap > 0.0
        base = (prefs.b / prefs.delta) ** prefs.theta
        assert report.risk_risky_value == pytest.approx(
            base * (4.0 / 3.0) / (1.0 - prefs.R), rel=1e-10
        )

    def test_degenerate_y_has_zero_gap(self, prefs):
        report = aversion_demos(prefs, y_values=(1.0, 1.0))
        assert report.risk_gap == pytest.approx(0.0, abs=1e-12)

    def test_temporal_gap(self, prefs):
        report = aversion_demos(prefs)
        assert report.temporal_gap > 0.0
        assert report.temporal_stream_value <= report.temporal_average_value


class TestWellposedDivergence:
    def test_low_curvature_explodes(self, market):
        p = Preferences(b=1.0, delta=0.05, R=0.5, S=0.25)
        assert optimal_consumption_rate(p, market).eta == pytest.approx(-0.0475, rel=1e-12)
        report = wellposed_divergence(p, market)
        assert report.branch == "supremum_explodes"
        assert report.verdict == "diverges_to_plus_inf"
        assert max(report.values) > 1e6
        # values increase as xi approaches the degeneracy point
        assert all(b >= a for a, b in zip(report.values, report.values[1:]))

    def test_high_curvature_bound_collapses(self, market):
        p = Preferences(b=1.0, delta=-0.1, R=2.0, S=2.5)
        eta = optimal_consumption_rate(p, market).eta
        assert eta < 0.0
        report = wellposed_divergence(p, market)
        assert report.branch == "bound_collapses"
        assert report.verdict == "diverges_to_minus_inf"
        # strictly decreasing and matching n^{theta S} b^theta x^{1-R}/(1-R)
        assert all(b < a for a, b in zip(report.values, report.values[1:]))
        for n, v in zip(report.probe, report.values):
            expected = n ** (p.theta * p.S) * p.b**p.theta / (1.0 - p.R)
            assert v == pytest.approx(expected, rel=1e-10)

    def test_well_posed_guard(self, prefs, market):
        with pytest.raises(WellPosed):
            wellposed_divergence(prefs, market)

    def test_empty_probe_offsets_rejected(self, market):
        p = Preferences(b=1.0, delta=0.05, R=0.5, S=0.25)
        with pytest.raises(InvalidParameters, match="probe_offsets"):
            wellposed_divergence(p, market, probe_offsets=[])

    def test_no_levels_rejected(self, market):
        p = Preferences(b=1.0, delta=-0.1, R=2.0, S=2.5)
        with pytest.raises(InvalidParameters, match="n_levels"):
            wellposed_divergence(p, market, n_levels=0)

    def test_levels_beyond_float_range_rejected(self, market):
        # n doubles per level: 1100 levels would take 1/n out of the floats.
        p = Preferences(b=1.0, delta=-0.1, R=2.0, S=2.5)
        with pytest.raises(InvalidParameters, match="n_levels"):
            wellposed_divergence(p, market, n_levels=1100)


class TestVerificationCheck:
    def test_identities_and_supersolutions(self, prefs, market):
        report = verification_check(prefs, market, epsilon=0.1,
                                    n_strategies=3, seed=99, n_samples=2000,
                                    dt=0.01, n_steps=150)
        assert report.max_A1 <= 1e-12
        assert report.max_A2 <= 1e-12
        assert report.max_abs_A3 <= 1e-10
        opt = report.at_optimum
        assert abs(opt.A1) <= 1e-10 and abs(opt.A2) <= 1e-10 and abs(opt.A3) <= 1e-10
        for verdict in report.strategy_verdicts:
            assert verdict["classification"] in ("supersolution", "solution")

    @pytest.mark.parametrize("epsilon", [1e200, 1e308])
    def test_non_finite_identities_raise(self, prefs, market, epsilon):
        # The powers of the perturbed wealth overflow.  This once raised
        # OverflowError at the optimum after numpy's RuntimeWarnings, which
        # the suite turns into errors.
        with pytest.raises(ExperimentError, match="not finite"):
            verification_check(prefs, market, epsilon=epsilon, n_strategies=1,
                               seed=0, n_samples=10)

