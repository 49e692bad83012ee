import math

import numpy as np
import pytest

from ezmerton import Preferences
from ezmerton.closed_form import (
    ProportionalStrategy,
    candidate_policy,
    decay_rate,
    proportional_value_coefficient,
)
from ezmerton.errors import (
    MissingLambda,
    NotConverged,
    NotInClass,
    PreconditionFailed,
    SignDomainViolation,
    UnsupportedRegime,
)
from ezmerton.lattice import (
    AdaptedGrid,
    TailClosure,
    build_lattice,
    consumption_grid,
    transformed_consumption_grid,
)
from ezmerton.lattice import step_expectation
from ezmerton.preferences import transformed_aggregator_grid
from ezmerton.solver import (
    _hitting_defect,
    _pair_defects,
    apply_recursion,
    check_solution,
    compare,
    generalized_utility,
    order_check,
    picard_solve,
    reference_integral,
)


def closed_w_grid(prefs, market, lat, strat):
    """Closed-form fixed point W = (1-R) V on the lattice nodes."""
    coef = proportional_value_coefficient(prefs, market, strat)
    return AdaptedGrid([
        (1.0 - prefs.R) * coef
        * math.exp(-prefs.delta * prefs.theta * k * lat.dt)
        * w ** (1.0 - prefs.R)
        for k, w in enumerate(lat.node_wealth)
    ])


@pytest.fixture(scope="module")
def setup(prefs, market, policy):
    lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=150)
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    return lat, tail, U


class TestOrderCheck:
    def test_constructed_decay_rate(self, prefs, market):
        # Strategy engineered so H_{delta*theta} = 0.05 exactly; the
        # transformed consumption then has ratio Lambda^theta / I ~ 0.05.
        strat = ProportionalStrategy(pi=0.625, xi=0.005625)
        H = decay_rate(prefs.delta * prefs.theta, prefs, market, strat)
        assert H == pytest.approx(0.05, abs=1e-15)
        lat = build_lattice(market, strat, dt=0.01, n_steps=100)
        tail = TailClosure.proportional(strat, prefs, market)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        cert = order_check(prefs, U, lat, tail)
        assert cert.k_lower == pytest.approx(0.05, rel=1e-4)
        assert cert.K_upper == pytest.approx(0.05, rel=1e-4)

    def test_candidate_ratio(self, prefs, market, policy, setup):
        lat, tail, U = setup
        cert = order_check(prefs, U, lat, tail)
        target = decay_rate(prefs.delta * prefs.theta, prefs, market,
                            policy.strategy)
        assert target == pytest.approx(prefs.theta * policy.eta, rel=1e-12)
        assert cert.k_lower == pytest.approx(target, rel=1e-4)
        assert cert.K_upper == pytest.approx(target, rel=1e-4)

    def test_growing_reference_rejected(self, prefs, market):
        strat = ProportionalStrategy(pi=0.625, xi=0.2)  # H < 0, E[U^theta] grows
        assert decay_rate(prefs.delta * prefs.theta, prefs, market, strat) < 0
        lat = build_lattice(market, strat, dt=0.02, n_steps=80)
        with pytest.raises(NotInClass):
            order_check(prefs, transformed_consumption_grid(prefs, lat, consumption_grid(lat)),
                        lat, TailClosure.zero())

    def test_nonpositive_target_rejected(self, prefs, market, policy, setup):
        lat, tail, U = setup
        zeroed = U.copy()
        zeroed.values[3][0] = 0.0
        with pytest.raises(NotInClass):
            order_check(prefs, zeroed, lat, tail)


class TestApplyRecursion:
    def test_zero_driver_gives_zero(self, prefs, setup):
        lat, tail, U = setup
        zeros = AdaptedGrid([np.zeros(k + 1) for k in range(lat.n_steps + 1)])
        out = apply_recursion(prefs, zeros, zeros, lat, tail)
        assert all(np.all(v == 0.0) for v in out.values)

    def test_closed_form_is_near_fixed_point(self, prefs, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=300)
        tail = TailClosure.proportional(policy.strategy, prefs, market)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        W = closed_w_grid(prefs, market, lat, policy.strategy)
        FW = apply_recursion(prefs, U, W, lat, tail)
        for a, b in zip(FW.values, W.values):
            np.testing.assert_allclose(a, b, rtol=5e-3)

    def test_antitone_in_w(self, prefs, market, setup, rng):
        lat, tail, U = setup
        W = closed_w_grid(prefs, market, lat, lat.strategy)
        bump = AdaptedGrid([
            v * (1.0 + 0.2 * rng.uniform(0.0, 1.0, v.shape)) for v in W.values
        ])
        lo = apply_recursion(prefs, U, W, lat, tail)
        hi = apply_recursion(prefs, U, bump, lat, tail)
        # W <= bump nodewise, rho < 0 => F(W) >= F(bump) nodewise
        for a, b in zip(lo.values, hi.values):
            assert np.all(a >= b - 1e-14 * np.abs(a))

    def test_missing_lambda(self, prefs, setup):
        lat, tail, U = setup
        with pytest.raises(MissingLambda):
            apply_recursion(prefs, U, U, lat, tail, epsilon=0.5)


class TestPicardSolve:
    def test_converges_to_closed_form(self, prefs, market, policy, setup):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail)
        assert report.converged
        assert report.residual <= 1e-8
        v0 = report.utility_at_zero(prefs)
        assert v0 == pytest.approx(policy.value(1.0), rel=1e-3)
        assert report.branch == "direct"

    def test_contraction_ratios_bounded(self, prefs, setup):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail)
        assert all(r <= abs(prefs.rho) + 0.05 for r in report.contraction_ratios[1:])

    def test_uniqueness_from_two_guesses(self, prefs, setup):
        lat, tail, U = setup
        lam_theta = [v**prefs.theta for v in U.values]
        tol = 1e-8
        lo = picard_solve(prefs, U, lat, tail, tol=tol,
                          initial_guess=AdaptedGrid([0.1 * v for v in lam_theta]))
        hi = picard_solve(prefs, U, lat, tail, tol=tol,
                          initial_guess=AdaptedGrid([10.0 * v for v in lam_theta]))
        worst = max(
            float(np.max(np.abs(np.log(a) - np.log(b))))
            for a, b in zip(lo.solution.values, hi.solution.values)
        )
        assert worst <= 2.0 * tol

    def test_epsilon_monotone(self, prefs, setup):
        lat, tail, U = setup
        w0 = picard_solve(prefs, U, lat, tail).solution
        w1 = picard_solve(prefs, U, lat, tail, epsilon=0.5, Lambda=U).solution
        w2 = picard_solve(prefs, U, lat, tail, epsilon=1.0, Lambda=U).solution
        for a, b in zip(w0.values, w1.values):
            assert np.all(b >= a * (1.0 - 1e-12))
        for a, b in zip(w1.values, w2.values):
            assert np.all(b >= a * (1.0 - 1e-12))

    def test_chi_splitting_branch(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=3.0)
        assert p.rho == pytest.approx(-1.0)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.02, n_steps=150)
        tail = TailClosure.proportional(pol.strategy, p, market)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail)
        assert report.branch == "chi_split"
        assert report.chi == pytest.approx(0.5)
        assert report.converged
        assert report.utility_at_zero(p) == pytest.approx(pol.value(1.0), rel=1e-2)

    def test_chi_split_at_rho_minus_three_halves(self, market):
        # rho = -1.5 used to pick chi = -0.5 - rho = 1, which turned the stop
        # test step <= tol*(1 - chi) into step <= 0 and never converged.
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=3.5)
        assert p.rho == pytest.approx(-1.5)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=100)
        tail = TailClosure.proportional(pol.strategy, p, market)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail)
        assert report.converged and report.branch == "chi_split"
        assert 0.0 < report.chi < 1.0
        assert report.utility_at_zero(p) == pytest.approx(pol.value(1.0), rel=1e-4)

    def test_crra_branch(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.0)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.02, n_steps=150)
        tail = TailClosure.proportional(pol.strategy, p, market)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail)
        assert report.branch == "additive"
        assert report.iterations == 1
        assert report.utility_at_zero(p) == pytest.approx(pol.value(1.0), rel=1e-3)

    def test_default_guess_is_the_reference_integral(self, prefs, setup):
        # The default solve takes I^Lambda from the order certificate instead
        # of computing it a second time; the result must not move.
        lat, tail, U = setup
        default = picard_solve(prefs, U, lat, tail)
        guessed = picard_solve(prefs, U, lat, tail,
                               initial_guess=reference_integral(prefs, U, lat, tail))
        np.testing.assert_array_equal(default.solution.data, guessed.solution.data)
        assert default.trace == guessed.trace
        assert default.residual == guessed.residual

    def test_unsupported_regime(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=0.5)
        strat = ProportionalStrategy(pi=0.1, xi=0.05)
        lat = build_lattice(market, strat, dt=0.05, n_steps=20)
        with pytest.raises(UnsupportedRegime):
            picard_solve(p, transformed_consumption_grid(p, lat, consumption_grid(lat)), lat,
                         TailClosure.zero())

    def test_order_precondition_enforced(self, prefs, setup):
        lat, tail, U = setup
        holey = U.copy()
        holey.values[5][2] = 0.0
        with pytest.raises(PreconditionFailed):
            picard_solve(prefs, holey, lat, tail, Lambda=U)
        # the epsilon-perturbed branch only needs the upper bound
        report = picard_solve(prefs, holey, lat, tail, epsilon=0.1, Lambda=U)
        assert report.converged

    def test_not_converged(self, prefs, setup):
        lat, tail, U = setup
        lam_theta = AdaptedGrid([100.0 * v**prefs.theta for v in U.values])
        with pytest.raises(NotConverged):
            picard_solve(prefs, U, lat, tail, tol=1e-14, max_iter=2,
                         initial_guess=lam_theta)


def per_step_backward(lat, f, tail_values, last_step_rectangle):
    """Reference sweep: one `step_expectation` call per step on a list of layers."""
    dt, n = lat.dt, lat.n_steps
    out = [None] * (n + 1)
    out[n] = np.asarray(tail_values, dtype=float)
    for k in range(n - 1, -1, -1):
        if k == n - 1 and last_step_rectangle:
            out[k] = step_expectation(lat, out[k + 1]) + dt * f[k]
        else:
            out[k] = (step_expectation(lat, out[k + 1] + 0.5 * dt * f[k + 1])
                      + 0.5 * dt * f[k])
    return out


class TestPackedSweepMatchesPerStepReference:
    """The packed trapezoid step against the per-step loop, bit for bit."""

    @pytest.fixture()
    def grids(self, prefs, market, policy, rng):
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=60)
        U = AdaptedGrid([rng.uniform(0.5, 2.0, k + 1) for k in range(61)])
        W = AdaptedGrid([rng.uniform(0.5, 2.0, k + 1) for k in range(61)])
        f = [u * w**prefs.rho for u, w in zip(U.values, W.values)]
        return lat, U, W, f

    def test_apply_recursion_proportional_tail(self, prefs, market, policy, grids):
        lat, U, W, f = grids
        tail = TailClosure.proportional(policy.strategy, prefs, market)
        tail_values = np.power(U.values[-1], prefs.theta) / tail.decay_rate**prefs.theta
        ref = per_step_backward(lat, f, tail_values, last_step_rectangle=False)
        out = apply_recursion(prefs, U, W, lat, tail)
        for a, b in zip(out.values, ref):
            np.testing.assert_array_equal(a, b)

    def test_apply_recursion_zero_tail_rectangle_step(self, prefs, grids):
        lat, U, W, f = grids
        ref = per_step_backward(lat, f, np.zeros(61), last_step_rectangle=True)
        out = apply_recursion(prefs, U, W, lat, TailClosure.zero())
        for a, b in zip(out.values, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("gap", [1, 5, 25, 60])
    def test_pair_defects(self, grids, gap):
        lat, _, W, f = grids
        V, dt = W.values, lat.dt
        ref = []
        for k in range(lat.n_steps - gap + 1):
            acc = V[k + gap]
            for m in range(k + gap - 1, k - 1, -1):
                acc = step_expectation(lat, acc + 0.5 * dt * f[m + 1]) + 0.5 * dt * f[m]
            ref.append(V[k] - acc)
        half = 0.5 * dt * np.concatenate(f)
        np.testing.assert_array_equal(_pair_defects(lat, W.data, half, gap),
                                      np.concatenate(ref))

    @staticmethod
    def per_band_hitting(lat, V, f, band):
        dt = lat.dt
        acc = V[lat.n_steps]
        for k in range(lat.n_steps - 1, -1, -1):
            logw = np.log(lat.node_wealth[k] / lat.x0) - lat.log_drift * k * dt
            interior = step_expectation(lat, acc + 0.5 * dt * f[k + 1]) + 0.5 * dt * f[k]
            acc = np.where(np.abs(logw) >= band, V[k], interior)
        return V[0] - acc

    def test_hitting_defect(self, grids):
        lat, _, W, f = grids
        band = lat.log_vol * math.sqrt(lat.horizon)
        half = 0.5 * lat.dt * np.concatenate(f)
        np.testing.assert_array_equal(_hitting_defect(lat, W.data, half, band),
                                      self.per_band_hitting(lat, W.values, f, band))

    def test_hitting_defect_two_bands_share_one_sweep(self, grids):
        # The bands check_solution uses: one row per band, each equal to the
        # per-band loop.
        lat, _, W, f = grids
        bands = np.array([1.0, 2.0]) * lat.log_vol * math.sqrt(lat.horizon)
        half = 0.5 * lat.dt * np.concatenate(f)
        rows = _hitting_defect(lat, W.data, half, bands)
        assert rows.shape == (2, 1)
        for row, band in zip(rows, bands):
            np.testing.assert_array_equal(row, self.per_band_hitting(lat, W.values, f, band))

    def test_kernel_fast_path_matches_boundary_path(self, prefs, grids):
        # Interior inputs take the one-pass branch; a single boundary node
        # sends the same values through the masked branch.
        _, U, W, _ = grids
        fast = transformed_aggregator_grid(U.data, W.data, prefs.rho)
        u = np.append(U.data, 0.0)
        masked = transformed_aggregator_grid(u, np.append(W.data, 1.0), prefs.rho)
        np.testing.assert_array_equal(fast, masked[:-1])


class TestCheckSolution:
    def test_fixed_point_is_solution(self, prefs, setup):
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        report = check_solution(W, U, lat, prefs, tol=1e-6, space="W")
        assert report.classification == "solution"
        assert report.trace_ok

    def test_scaling_gives_one_sided(self, prefs, setup):
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        up = check_solution(W.scaled(1.2), U, lat, prefs, tol=1e-6, space="W")
        assert up.classification == "supersolution"
        down = check_solution(W.scaled(0.8), U, lat, prefs, tol=1e-6, space="W")
        assert down.classification == "subsolution"

    def test_v_space_solution(self, prefs, market, setup):
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        V = AdaptedGrid([w / (1.0 - prefs.R) for w in W.values])
        C = consumption_grid(lat)
        report = check_solution(V, C, lat, prefs, tol=1e-6, space="V")
        assert report.classification == "solution"

    def test_v_space_scaling_flips_sides(self, prefs, setup):
        # In V-space with R > 1, inflating |V| makes a subsolution.
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        V = AdaptedGrid([w / (1.0 - prefs.R) for w in W.values])
        C = consumption_grid(lat)
        report = check_solution(V.scaled(1.2), C, lat, prefs, tol=1e-6, space="V")
        assert report.classification == "subsolution"

    def test_sign_domain_violation(self, prefs, setup):
        lat, tail, U = setup
        bad = AdaptedGrid([-np.ones(k + 1) for k in range(lat.n_steps + 1)])
        with pytest.raises(SignDomainViolation):
            check_solution(bad, U, lat, prefs, tol=1e-6, space="W")

    def test_comparison_of_scaled_pair(self, prefs, setup):
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        verdict = compare(W.scaled(0.8), W.scaled(1.2))
        assert verdict.ordered
        assert compare(W, W).ordered
        broken = W.scaled(1.2)
        broken.values[2][1] = 0.5 * W.values[2][1]
        verdict = compare(W, broken)
        assert not verdict.ordered
        assert verdict.violations[0][0] == 2

    def test_randomised_comparison_pairs(self, prefs, setup, rng):
        # Monotone step-scalings keep the one-sided defects one-sided; the
        # comparison theorem then orders every pair.
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        n = lat.n_steps + 1
        for _ in range(20):
            down = np.sort(rng.uniform(0.5, 0.95, n))          # nondecreasing
            up = np.sort(rng.uniform(1.05, 1.5, n))[::-1]      # nonincreasing
            sub = W.scaled(down)
            sup = W.scaled(up)
            assert check_solution(sub, U, lat, prefs, 1e-6, "W").classification == "subsolution"
            assert check_solution(sup, U, lat, prefs, 1e-6, "W").classification == "supersolution"
            assert compare(sub, sup).ordered


class TestGeneralizedUtility:
    def test_requires_candidate_lattice(self, prefs, market):
        strat = ProportionalStrategy(pi=0.3, xi=0.02)
        lat = build_lattice(market, strat, dt=0.05, n_steps=20)
        tail = TailClosure.proportional(strat, prefs, market)
        C = consumption_grid(lat)
        with pytest.raises(PreconditionFailed):
            generalized_utility(C, prefs, market, lat, tail, n_max=2)

    def test_candidate_stream_constant_in_n(self, prefs, market, policy, setup):
        lat, tail, _ = setup
        C = consumption_grid(lat)
        report = generalized_utility(C, prefs, market, lat, tail, n_max=8)
        assert report.classification == "finite"
        assert report.sequence_converged
        for v in report.values:
            assert v == pytest.approx(report.values[0], rel=1e-12)
        assert report.limit == pytest.approx(policy.value(1.0), rel=1e-3)

    def test_zero_stream_homogeneity(self, prefs, market, setup):
        lat, tail, _ = setup
        zero = AdaptedGrid([np.zeros(k + 1) for k in range(lat.n_steps + 1)])
        report = generalized_utility(zero, prefs, market, lat, tail, n_max=8)
        base = report.values[0]
        for n, v in zip(report.ns, report.values):
            assert v == pytest.approx(n ** (prefs.R - 1.0) * base, rel=1e-10)
        # nonincreasing for R > 1
        assert all(b <= a for a, b in zip(report.values, report.values[1:]))

    def test_unsupported_regime(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.0)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=20)
        tail = TailClosure.proportional(pol.strategy, p, market)
        C = consumption_grid(lat)
        with pytest.raises(UnsupportedRegime):
            generalized_utility(C, p, market, lat, tail, n_max=2)


class TestReportSerialisation:
    def test_solve_report_json_and_trace_csv(self, prefs, setup, tmp_path):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail)
        payload = report.to_json_dict()
        assert payload["converged"] is True
        assert payload["w0"] == pytest.approx(report.solution.values[0][0])
        path = tmp_path / "trace.csv"
        report.trace_to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,sup_norm_step,ratio"
        assert len(lines) == report.iterations + 1

    def test_residual_report_json(self, prefs, setup):
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        payload = check_solution(W, U, lat, prefs, 1e-6, "W").to_json_dict()
        assert payload["classification"] == "solution"
        assert "pairs_gap_1" in payload["family_bounds"]

    def test_generalized_report_json(self, prefs, market, setup):
        lat, tail, _ = setup
        C = consumption_grid(lat)
        report = generalized_utility(C, prefs, market, lat, tail, n_max=2)
        payload = report.to_json_dict()
        assert payload["classification"] == "finite"
        assert payload["ns"] == [1, 2]


class TestZeroTail:
    def test_zero_tail_is_one_sided_bound(self, prefs, market, setup):
        # Dropping the tail under-counts W, i.e. over-counts V when R > 1:
        # the zero-mode solve bounds the proportional-tail solve from one side.
        lat, tail, U = setup
        prop = picard_solve(prefs, U, lat, tail).solution
        zero_report = picard_solve(prefs, U, lat, TailClosure.zero())
        assert zero_report.converged
        for a, b in zip(zero_report.solution.values, prop.values):
            assert np.all(a <= b * (1.0 + 1e-12))
        # contraction ratios stay below |rho| + 0.05 here too
        assert all(r <= abs(prefs.rho) + 0.05
                   for r in zero_report.contraction_ratios[1:])

    def test_zero_tail_residual_is_finite(self, prefs, market, policy):
        # The clamp lifts the terminal zeros of W to e^-700 while F(W) keeps
        # them at 0; the residual covers steps 0..n-1, which the iteration
        # solves, so it stays finite and within the tolerance.
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=100)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        report = picard_solve(prefs, U, lat, TailClosure.zero(), tol=1e-8)
        assert report.clamp_events > 0
        assert math.isfinite(report.residual)
        assert report.residual <= 1e-8
