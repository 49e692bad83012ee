import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import binom

from ezmerton.closed_form import ProportionalStrategy, decay_rate
from ezmerton.errors import (
    DimensionMismatch,
    InvalidParameters,
    InvalidStep,
    NotEvaluable,
)
from ezmerton.lattice import (
    AdaptedGrid,
    TailClosure,
    build_lattice,
    consumption_grid,
    mc_drift_check,
    step_expectation,
    transformed_consumption_grid,
    unconditional_expectation,
)
from ezmerton.preferences import transformed_consumption


class TestBuildLattice:
    def test_riskless_growth(self, market):
        lat = build_lattice(market, ProportionalStrategy(pi=0.0, xi=1e-12),
                            dt=0.1, n_steps=20, x0=1.0)
        for k, w in enumerate(lat.wealth.values):
            np.testing.assert_allclose(w, math.exp(market.r * k * 0.1), rtol=1e-9)

    def test_single_node(self, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.1, n_steps=0, x0=2.0)
        assert len(lat.wealth.values) == 1
        assert lat.wealth.values[0][0] == 2.0

    def test_packed_wealth_matches_per_step_formula(self, market, policy):
        # Reference: the per-step construction, compared bit for bit.
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=60, x0=1.5)
        sqdt = math.sqrt(lat.dt)
        for k, w in enumerate(lat.wealth.values):
            j = np.arange(k + 1)
            ref = lat.x0 * np.exp(lat.log_drift * k * lat.dt
                                  + lat.log_vol * sqdt * (2.0 * j - k))
            np.testing.assert_array_equal(w, ref)

    def test_invalid_step(self, market, policy):
        with pytest.raises(InvalidStep):
            build_lattice(market, policy.strategy, dt=0.0, n_steps=10)
        with pytest.raises(InvalidParameters):
            build_lattice(market, policy.strategy, dt=0.1, n_steps=-1)
        with pytest.raises(InvalidParameters):
            build_lattice(market, policy.strategy, dt=0.1, n_steps=10, x0=0.0)

    def test_moment_matching(self, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=5)
        m = (market.r + policy.pi_hat * (market.mu - market.r) - policy.eta
             - policy.pi_hat**2 * market.sigma**2 / 2.0)
        s = policy.pi_hat * market.sigma
        # the two step-1 nodes, each reached with probability 1/2
        log_dn, log_up = np.log(lat.wealth.values[1] / lat.x0)
        mean = 0.5 * log_up + 0.5 * log_dn
        var = (0.5 * log_up**2 + 0.5 * log_dn**2) - mean**2
        assert abs(mean - m * 0.01) <= 1e-12
        assert abs(var - s**2 * 0.01) <= 1e-12

    def test_recombination(self, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.05, n_steps=30)
        down, up = lat.wealth.values[1] / lat.x0
        for k in (1, 7, 30):
            j = np.arange(k + 1)
            direct = lat.x0 * up**j * down ** (k - j)
            np.testing.assert_allclose(lat.wealth.values[k], direct, rtol=1e-11)
        assert all(np.all(w > 0.0) for w in lat.wealth.values)

    def test_mc_oracle_for_one_step_moments(self, market, policy):
        # Sample moments of simulated log X_1 match the lattice one-step
        # moments scaled across 100 steps, within 3 standard errors.
        dt, n = 0.01, 100
        lat = build_lattice(market, policy.strategy, dt=dt, n_steps=n)
        rng = np.random.Generator(np.random.Philox(7))
        n_paths = 100_000
        m, s = lat.log_drift, lat.log_vol
        log_x1 = (m * 1.0 + s * np.sqrt(1.0) * rng.standard_normal(n_paths))
        log_dn, log_up = np.log(lat.wealth.values[1] / lat.x0)
        lat_mean = n * (0.5 * log_up + 0.5 * log_dn)
        lat_var = n * 0.25 * (log_up - log_dn)**2
        se_mean = log_x1.std(ddof=1) / math.sqrt(n_paths)
        assert abs(log_x1.mean() - lat_mean) <= 3 * se_mean
        sample_var = log_x1.var(ddof=1)
        se_var = sample_var * math.sqrt(2.0 / (n_paths - 1))
        assert abs(sample_var - lat_var) <= 3 * se_var


class TestStepExpectation:
    def test_constant(self, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=10)
        out = step_expectation(lat, np.full(6, 3.25))
        np.testing.assert_array_equal(out, np.full(5, 3.25))

    def test_linearity_exact(self, market, policy, rng):
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=10)
        f = rng.uniform(-1.0, 1.0, 8)
        g = rng.uniform(-1.0, 1.0, 8)
        a, b = 2.5, -1.25
        lhs = step_expectation(lat, a * f + b * g)
        rhs = a * step_expectation(lat, f) + b * step_expectation(lat, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-15, atol=1e-30)

    def test_wealth_drift_identity(self, market, policy):
        # Lattice-exact identity: E_k[X_{k+1}] = e^{m dt} cosh(s sqrt(dt)) X_k,
        # which matches the continuous drift e^{(r + pi(mu-r) - xi) dt} up to
        # the O(s^4 dt^2) moment defect of the binomial.
        dt = 0.01
        lat = build_lattice(market, policy.strategy, dt=dt, n_steps=10)
        k = 5
        out = step_expectation(lat, lat.wealth.values[k + 1])
        exact = (math.exp(lat.log_drift * dt)
                 * math.cosh(lat.log_vol * math.sqrt(dt)) * lat.wealth.values[k])
        np.testing.assert_allclose(out, exact, rtol=1e-12)
        continuous = math.exp(
            (market.r + policy.pi_hat * (market.mu - market.r) - policy.eta) * dt
        ) * lat.wealth.values[k]
        np.testing.assert_allclose(out, continuous, rtol=1e-8)

    def test_dimension_mismatch(self, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=4)
        with pytest.raises(DimensionMismatch):
            step_expectation(lat, np.ones(9))
        with pytest.raises(DimensionMismatch):
            step_expectation(lat, np.ones(1))

    def test_tower_property_long_horizon(self, market, policy):
        # Iterating the one-step expectation 1000 times agrees with the
        # k-step binomial expectation taken directly.
        lat = build_lattice(market, policy.strategy, dt=0.005, n_steps=1000)
        terminal = np.log(lat.wealth.values[-1])  # a bounded payoff
        vals = terminal
        for _ in range(1000):
            vals = step_expectation(lat, vals)
        direct = float(
            binom.pmf(np.arange(1001), 1000, 0.5) @ terminal
        )
        assert vals[0] == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestAdaptedGrid:
    def test_shape_check(self, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=3)
        good = lat.wealth
        good.check_shape(lat)
        bad = AdaptedGrid([np.ones(1), np.ones(2)])
        with pytest.raises(DimensionMismatch):
            bad.check_shape(lat)

    @pytest.mark.parametrize("layers", [
        [np.ones(1), np.ones(3)],             # ragged: step 1 holds 3 nodes
        [np.ones(2)],                         # step 0 holds 2 nodes
        [np.ones(1), np.ones((1, 2))],        # a two-dimensional layer
    ])
    def test_misshaped_layers_rejected(self, layers):
        with pytest.raises(DimensionMismatch):
            AdaptedGrid(layers)

    def test_packed_array_must_be_triangular(self):
        with pytest.raises(DimensionMismatch):
            AdaptedGrid.from_packed(np.ones(5))
        with pytest.raises(DimensionMismatch):
            AdaptedGrid.from_packed(np.ones((2, 3)))

    def test_packed_layout_and_views(self):
        grid = AdaptedGrid([np.array([1.0]), np.array([2.0, 3.0]),
                            np.array([4.0, 5.0, 6.0])])
        np.testing.assert_array_equal(grid.data, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert grid.n_steps == 2
        assert grid.data[AdaptedGrid.span(1, 2)].tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert [AdaptedGrid.node(i) for i in range(6)] == [
            (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        grid.values[2][1] = -5.0  # views write through to the packed array
        assert grid.data[4] == -5.0

    def test_transversality_witness(self, prefs, market, policy):
        # E[e^{-delta*theta*t_k} X_k^{1-R}] decays geometrically at e^{-H dt}
        # per step, H = 0.022250, within 0.1% per step.
        dt = 0.01
        lat = build_lattice(market, policy.strategy, dt=dt, n_steps=200)
        grid = AdaptedGrid([
            math.exp(-prefs.delta * prefs.theta * k * dt) * w ** (1.0 - prefs.R)
            for k, w in enumerate(lat.wealth.values)
        ])
        trace = unconditional_expectation(lat, grid)
        H = decay_rate(prefs.delta * prefs.theta, prefs, market, policy.strategy)
        assert H == pytest.approx(0.022250, abs=1e-12)
        ratios = trace[1:] / trace[:-1]
        np.testing.assert_allclose(ratios, math.exp(-H * dt), rtol=1e-3)


class TestPackedReductions:
    def test_unconditional_expectation_matches_binomial_pmf(self, market, policy, rng):
        lat = build_lattice(market, policy.strategy, dt=0.005, n_steps=1000)
        grid = AdaptedGrid([rng.uniform(0.5, 2.0, k + 1) for k in range(1001)])
        ref = [binom.pmf(np.arange(k + 1), k, 0.5) @ v
               for k, v in enumerate(grid.values)]
        np.testing.assert_allclose(unconditional_expectation(lat, grid), ref,
                                   rtol=1e-12)

    def test_unconditional_expectation_matches_exact_forward_propagation(
            self, market, policy, rng):
        # Reference: Pascal's rule c_{k+1}[j] = c_k[j-1] + c_k[j] in exact
        # integers, one step at a time, and E_k = sum_j c_k[j] v[j] / 2^k.
        # With integer node values and n = 40 every product and partial sum
        # is exact in floating point too, so the match is bit for bit.
        n = 40
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=n)
        layers = [rng.integers(-50, 51, k + 1) for k in range(n + 1)]
        grid = AdaptedGrid(layers)
        coeffs, ref = [1], []
        for k, v in enumerate(layers):
            ref.append(sum(c * int(x) for c, x in zip(coeffs, v)) / 2**k)
            coeffs = [a + b for a, b in zip([0] + coeffs, coeffs + [0])]
        np.testing.assert_array_equal(unconditional_expectation(lat, grid), ref)

    def test_transformed_consumption_grid_matches_per_step(self, prefs, market, policy):
        # Reference: one transformed_consumption call per step, bit for bit.
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=80)
        C = consumption_grid(lat)
        C.values[3][1] = 0.0  # the C = 0 boundary maps to U = inf for S > 1
        U = transformed_consumption_grid(prefs, lat, C)
        for k, c in enumerate(C.values):
            ref = np.asarray(transformed_consumption(prefs, k * lat.dt, c), dtype=float)
            np.testing.assert_array_equal(U.values[k], ref)
        assert U.values[3][1] == math.inf

    def test_import_leaves_scipy_stats_out(self, subprocess_env):
        code = ("import sys, ezmerton, ezmerton.cli; print('scipy.stats' in sys.modules); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=subprocess_env).stdout
        stats_loaded, scipy_modules = out.splitlines()
        assert stats_loaded == "False"
        assert scipy_modules == "[]"


class TestTailClosure:
    def test_zero(self):
        tail = TailClosure.zero()
        assert tail.mode == "zero"
        assert tail.strategy is None

    def test_proportional_requires_positive_rate(self, prefs, market, policy):
        tail = TailClosure.proportional(policy.strategy, prefs, market)
        assert tail.decay_rate == pytest.approx(0.02225, rel=1e-10)
        with pytest.raises(NotEvaluable):
            TailClosure.proportional(ProportionalStrategy(pi=0.625, xi=0.5),
                                     prefs, market)


class TestMcDriftCheck:
    def test_candidate_slope(self, prefs, market, policy):
        report = mc_drift_check(market, policy.strategy,
                                nu=prefs.delta * prefs.theta, R=prefs.R,
                                n_paths=20_000, horizon=5.0, seed=11)
        H = decay_rate(prefs.delta * prefs.theta, prefs, market, policy.strategy)
        assert report.within(-H, n_se=3.0)

    def test_nu_shift_is_exact(self, prefs, market, policy):
        a = mc_drift_check(market, policy.strategy, nu=0.02, R=2.0,
                           n_paths=5_000, horizon=5.0, seed=3)
        b = mc_drift_check(market, policy.strategy, nu=0.03, R=2.0,
                           n_paths=5_000, horizon=5.0, seed=3)
        assert b.slope - a.slope == pytest.approx(-0.01, abs=1e-12)

    def test_deterministic_strategy(self, market):
        # pi = 0, xi -> 0: slope is exactly -(R-1) r with zero noise.
        strat = ProportionalStrategy(pi=0.0, xi=1e-15)
        report = mc_drift_check(market, strat, nu=0.0, R=2.0,
                                n_paths=2_000, horizon=5.0, seed=5)
        assert report.slope == pytest.approx(-0.02, abs=1e-9)
        assert report.stderr <= 1e-12

    def test_reproducible(self, market, policy):
        a = mc_drift_check(market, policy.strategy, nu=0.02, R=2.0,
                           n_paths=5_000, horizon=3.0, seed=42)
        b = mc_drift_check(market, policy.strategy, nu=0.02, R=2.0,
                           n_paths=5_000, horizon=3.0, seed=42)
        assert a.slope == b.slope and a.stderr == b.stderr

    def test_path_floor(self, market, policy):
        with pytest.raises(InvalidParameters):
            mc_drift_check(market, policy.strategy, nu=0.0, R=2.0,
                           n_paths=100, horizon=1.0, seed=1)
