import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezmerton import Market, Preferences
from ezmerton import solver as solver_module
from ezmerton.closed_form import (
    ProportionalStrategy,
    candidate_policy,
    decay_rate,
    proportional_value_coefficient,
)
from ezmerton.errors import (
    EzmertonError,
    IllPosed,
    InvalidParameters,
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
    _first_block_weights,
    build_lattice,
    consumption_grid,
    transformed_consumption_grid,
)
from ezmerton.lattice import step_expectation, unconditional_expectation
from ezmerton.preferences import transformed_aggregator_grid
from ezmerton.solver import (
    _epsilon_term,
    _hitting_defect,
    _hitting_walks,
    _pair_defects,
    _reach_masses,
    _slope,
    _strang_sweep,
    _tail_solution,
    _within_pairs,
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
        for k, w in enumerate(lat.wealth.values)
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


def assert_operator_reaches_the_solve(p, U, lat, tail, tol):
    """Iterate F = `apply_recursion` from 0.1 and 10 times U^theta until a
    step is at most tol (1 - |rho|), so each limit is within tol of F's
    fixed point W*.  F contracts with constant |rho| in log space, so the
    step ratios after the first stay below |rho| + 0.05.  The solve is not
    W*: by the same contraction it lies within residual/(1 - |rho|) of it,
    residual = |log F(W) - log W|.  So both limits lie within the sum of
    the two of `picard_solve`'s grid over steps 0..n-1, and within 2 tol of
    each other.
    """
    before_terminal = slice(0, AdaptedGrid.span(lat.n_steps).start)
    report = picard_solve(p, U, lat, tail)
    log_solution = np.log(report.solution.data[before_terminal])
    limits = []
    for scale in (0.1, 10.0):
        W = AdaptedGrid.from_packed(scale * U.data**p.theta)
        steps = []
        while not steps or steps[-1] > tol * (1.0 - abs(p.rho)):
            FW = apply_recursion(p, U, W, lat, tail)
            steps.append(float(np.max(np.abs(np.log(FW.data[before_terminal])
                                             - np.log(W.data[before_terminal])))))
            W = FW
            assert len(steps) <= 200
        ratios = [b / a for a, b in zip(steps, steps[1:])][1:]
        assert ratios and max(ratios) <= abs(p.rho) + 0.05
        limits.append(np.log(W.data[before_terminal]))
        assert (np.max(np.abs(limits[-1] - log_solution))
                <= tol + report.residual / (1.0 - abs(p.rho)))
    assert np.max(np.abs(limits[0] - limits[1])) <= 2.0 * tol


class TestPicardSolve:
    def test_converges_to_closed_form(self, prefs, market, policy, setup):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail)
        assert report.converged
        v0 = report.utility_at_zero(prefs)
        assert v0 == pytest.approx(policy.value(1.0), rel=1e-3)

    def test_residual_is_the_schemes_second_order_gap(self, prefs, market, policy):
        # The sweep and the trapezoid operator are both first-order schemes
        # that agree to second order in dt on a smooth driver, so their gap
        # falls about fourfold when dt halves: 1.4e-8 at n = 100.
        gaps = []
        for n in (100, 200, 400):
            lat = build_lattice(market, policy.strategy, dt=5.0 / n, n_steps=n)
            U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
            tail = TailClosure.proportional(policy.strategy, prefs, market)
            gaps.append(picard_solve(prefs, U, lat, tail).residual)
        assert 1e-9 < gaps[0] < 2e-8
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_contraction_ratios_bounded(self, prefs, setup):
        lat, tail, U = setup
        assert_operator_reaches_the_solve(prefs, U, lat, tail, tol=1e-8)

    def test_uniqueness_from_two_guesses(self, prefs, setup):
        # the same two starts at a tighter tol
        lat, tail, U = setup
        assert_operator_reaches_the_solve(prefs, U, lat, tail, tol=1e-11)

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
        assert report.converged
        assert report.utility_at_zero(p) == pytest.approx(pol.value(1.0), rel=1e-2)

    def test_chi_split_at_rho_minus_three_halves(self, market):
        # rho = -1.5 once stalled the split iteration that an iterative layer
        # solve, and then the explicit sweep, replaced.
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=3.5)
        assert p.rho == pytest.approx(-1.5)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=100)
        tail = TailClosure.proportional(pol.strategy, p, market)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail)
        assert report.converged
        assert report.utility_at_zero(p) == pytest.approx(pol.value(1.0), rel=1e-4)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    def test_crra_branch(self, market, tail_mode):
        # rho = 0 (theta = 1): the powers drop out and the sweep is the
        # trapezoid step term for term.  Under the proportional tail that is
        # the trapezoid operator's fixed point, which F(W) gives for any W
        # since F does not depend on W there; a zero tail starts the sum from
        # W_n = 0, where the operator sets an exact last layer.
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.0)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.02, n_steps=150)
        tail = candidate_tail(p, pol, market, tail_mode)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail)
        if tail_mode == "proportional":
            want = apply_recursion(p, U, U.scaled(7.0), lat, tail).data
            assert report.utility_at_zero(p) == pytest.approx(pol.value(1.0), rel=1e-3)
        else:
            want = np.concatenate(per_step_backward(lat, U.values, np.zeros(151)))
        np.testing.assert_allclose(report.solution.data, want, rtol=1e-14, atol=0.0)

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

    def test_wealth_overflow_fails_the_order_check(self):
        # pi_hat = 410 here: the top nodes' wealth overflows exp, and C = xi X
        # overflows a multiply.  The grids hold inf without a numpy warning
        # (which the suite's filter would raise), and U = C^{1-S} = 0 there
        # fails the order check with its documented error.
        p = Preferences(b=1.0, delta=0.03, R=1.89, S=9.25)
        mkt = Market(r=0.02, mu=0.2, sigma=0.023)
        pol = candidate_policy(p, mkt)
        lat = build_lattice(mkt, pol.strategy, dt=0.32, n_steps=200)
        C = consumption_grid(lat)
        assert np.isinf(lat.wealth.data).any() and np.isinf(C.data).any()
        U = transformed_consumption_grid(p, lat, C)
        with pytest.raises(PreconditionFailed, match="strictly positive and finite"):
            picard_solve(p, U, lat, TailClosure.proportional(pol.strategy, p, mkt))


def per_step_backward(lat, f, tail_values, last_layer=None):
    """Reference sweep: one `step_expectation` call per step on a list of
    layers; last_layer, when given, sets step n-1 (a zero tail's exact layer)."""
    dt, n = lat.dt, lat.n_steps
    out = [None] * (n + 1)
    out[n] = np.asarray(tail_values, dtype=float)
    for k in range(n - 1, -1, -1):
        if k == n - 1 and last_layer is not None:
            out[k] = last_layer
        else:
            out[k] = (step_expectation(lat, out[k + 1] + 0.5 * dt * f[k + 1])
                      + 0.5 * dt * f[k])
    return out


def per_definition_pair_defects(lat, V, f, gap):
    """Packed V_k - E_k[V_{k+gap} + trapezoid(f)] for every start step k, by
    its definition: gap backward trapezoid steps from each start step."""
    dt = lat.dt
    ref = []
    for k in range(lat.n_steps - gap + 1):
        acc = V[k + gap]
        for m in range(k + gap - 1, k - 1, -1):
            acc = step_expectation(lat, acc + 0.5 * dt * f[m + 1]) + 0.5 * dt * f[m]
        ref.append(V[k] - acc)
    return np.concatenate(ref)


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
        ref = per_step_backward(lat, f, tail_values)
        out = apply_recursion(prefs, U, W, lat, tail)
        for a, b in zip(out.values, ref):
            np.testing.assert_array_equal(a, b)

    def test_apply_recursion_zero_tail_rectangle_step(self, prefs, grids):
        # The zero tail's last step is the exact frozen-driver layer
        # (u_{n-1} dt/theta)^theta, not a rectangle of the kernel.
        lat, U, W, f = grids
        exact = np.power(U.values[-2] * lat.dt / prefs.theta, prefs.theta)
        ref = per_step_backward(lat, f, np.zeros(61), last_layer=exact)
        out = apply_recursion(prefs, U, W, lat, TailClosure.zero())
        for a, b in zip(out.values, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("gap", [1, 5, 25, 60])
    def test_pair_defects(self, grids, gap):
        # Gap 1 is the one-step defect, bit for bit; the chain sums the
        # other gaps in another order than their definition, so they agree
        # to rounding.
        lat, _, W, f = grids
        half = 0.5 * lat.dt * np.concatenate(f)
        gaps = (1, 5, 25, 60)
        chain = dict(zip(gaps, _pair_defects(lat, W.data, half, gaps)))
        ref = per_definition_pair_defects(lat, W.values, f, gap)
        if gap == 1:
            np.testing.assert_array_equal(chain[gap], ref)
        else:
            np.testing.assert_allclose(chain[gap], ref, rtol=0,
                                       atol=1e-13 * np.max(np.abs(W.data)))

    @staticmethod
    def per_band_hitting(lat, V, f, mult):
        """The stopped expectation by its definition: a backward loop that
        stops at the nodes with (2j - k)^2 >= mult^2 n."""
        dt, n = lat.dt, lat.n_steps
        acc = V[n]
        for k in range(n - 1, -1, -1):
            d = 2 * np.arange(k + 1) - k
            interior = step_expectation(lat, acc + 0.5 * dt * f[k + 1]) + 0.5 * dt * f[k]
            acc = np.where(d * d >= mult**2 * n, V[k], interior)
        return V[0] - acc

    def test_hitting_defect(self, grids):
        lat, _, W, f = grids
        half = 0.5 * lat.dt * np.concatenate(f)
        np.testing.assert_allclose(_hitting_defect(lat, W.data, half, [1.0]),
                                   self.per_band_hitting(lat, W.values, f, 1.0),
                                   rtol=1e-12, atol=0.0)

    def test_hitting_defect_two_bands_share_one_sweep(self, grids):
        # The bands check_solution uses: one value per band, each equal to
        # the per-band loop.
        lat, _, W, f = grids
        half = 0.5 * lat.dt * np.concatenate(f)
        rows = _hitting_defect(lat, W.data, half, [1.0, 2.0])
        assert rows.shape == (2,)
        for row, mult in zip(rows, [1.0, 2.0]):
            np.testing.assert_allclose(row, self.per_band_hitting(lat, W.values, f, mult),
                                       rtol=1e-12, atol=0.0)

    def test_kernel_fast_path_matches_boundary_path(self, prefs, grids):
        # Interior inputs take the one-pass branch; a single boundary node
        # sends the same values through the masked branch.
        _, U, W, _ = grids
        fast = transformed_aggregator_grid(U.data, W.data, prefs.rho)
        u = np.append(U.data, 0.0)
        masked = transformed_aggregator_grid(u, np.append(W.data, 1.0), prefs.rho)
        np.testing.assert_array_equal(fast, masked[:-1])


class TestHittingMasses:
    """The killed walk's reach masses and the exact stopping rule."""

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 49, 50])
    def test_masses_are_killed_path_counts(self, n):
        # Up to step 50 a mass is a path count over 2^k, which a float holds
        # exactly, so the forward propagation must give it bit for bit.
        mults = [1.0, 2.0]
        r = _reach_masses(n, np.square(mults) * n)
        c = r.shape[-1] // 2
        for b, mult in enumerate(mults):
            counts = {0: 1}  # paths reaching d = 2j - k at step k, not stopped before
            for k in range(n + 1):
                expected = np.zeros(r.shape[-1])
                for d, count in counts.items():
                    expected[c + d] = count / 2**k
                np.testing.assert_array_equal(r[k, b], expected)
                ahead: dict[int, int] = {}
                for d, count in counts.items():
                    if d * d < mult**2 * n:
                        for e in (d - 1, d + 1):
                            ahead[e] = ahead.get(e, 0) + count
                counts = ahead

    def test_node_on_the_band_stops(self, market, policy):
        # n = 100: the nodes (10, 0) and (10, 10) have |2j - k| = sqrt(n),
        # so the 1-sigma walk stops there and the 2-sigma walk goes on.
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=100)
        V, half = np.zeros(AdaptedGrid.span(100).stop), np.zeros(AdaptedGrid.span(100).stop)
        V[[AdaptedGrid.span(10).start, AdaptedGrid.span(10).stop - 1]] = 1.0
        assert _hitting_defect(lat, V, half, [1.0, 2.0]).tolist() == [-2.0**-9, 0.0]

    @pytest.mark.parametrize("n", [100, 200])
    def test_matches_exact_rule_loop(self, market, policy, rng, n):
        # n = 60 is TestPackedSweepMatchesPerStepReference's; n = 100 puts
        # nodes on both bands, and n = 200 is the verification lattice.
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=n)
        V = AdaptedGrid([rng.uniform(0.5, 2.0, k + 1) for k in range(n + 1)])
        f = [rng.uniform(0.5, 2.0, k + 1) for k in range(n + 1)]
        half = 0.5 * lat.dt * np.concatenate(f)
        for row, mult in zip(_hitting_defect(lat, V.data, half, [1.0, 2.0]), [1.0, 2.0]):
            np.testing.assert_allclose(
                row, TestPackedSweepMatchesPerStepReference.per_band_hitting(
                    lat, V.values, f, mult), rtol=1e-12, atol=0.0)


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
        # One node outside the domain is enough: W is non-negative, and V
        # lies in (1-R)*[0, inf), non-positive for R > 1 and non-negative
        # for R < 1.
        lat, tail, U = setup
        C = consumption_grid(lat)
        low_R = Preferences(b=1.0, delta=0.03, R=0.5, S=0.25)
        for p, companion, space, inside in ((prefs, U, "W", 1.0),
                                            (prefs, C, "V", -1.0),
                                            (low_R, C, "V", 1.0)):
            bad = np.full(U.data.size, inside)
            bad[7] = -inside
            with pytest.raises(SignDomainViolation):
                check_solution(AdaptedGrid.from_packed(bad), companion, lat, p,
                               tol=1e-6, space=space)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_node_is_rejected(self, prefs, setup, bad):
        # A NaN node would otherwise pass the sign check and give defect_min
        # = inf and defect_max = -inf; the message names the node.
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        for grid, companion, space in ((W, U, "W"),
                                       (W.scaled(1.0 / (1.0 - prefs.R)),
                                        consumption_grid(lat), "V")):
            grid = grid.copy()
            grid.values[40][3] = bad
            with pytest.raises(SignDomainViolation, match=r"node \(40, 3\)"):
                check_solution(grid, companion, lat, prefs, tol=1e-6, space=space)

    def test_zero_grid_lies_in_both_sign_domains(self, prefs, setup):
        lat, tail, U = setup
        zero = AdaptedGrid.from_packed(np.zeros(U.data.size))
        check_solution(zero, U, lat, prefs, tol=1e-6, space="W")  # non-negative
        check_solution(zero, consumption_grid(lat), lat, prefs, tol=1e-6,
                       space="V")  # non-positive for R > 1

    def test_infinite_aggregator_gives_infinite_hitting_bounds(self, prefs, setup):
        # W = 0 makes the kernel u * 0^rho infinite wherever u > 0, and C = 0
        # on the lowest node of every step sets u = inf there (S > 1): every
        # stopped expectation is infinite, and no node a band's walk never
        # reaches may turn it into NaN through 0 * inf.
        lat, tail, _ = setup
        C = consumption_grid(lat)
        steps = np.arange(lat.n_steps + 1)
        C.data[steps * (steps + 1) // 2] = 0.0
        U = transformed_consumption_grid(prefs, lat, C)
        assert np.isinf(U.data).any()
        zero = AdaptedGrid.from_packed(np.zeros(U.data.size))
        report = check_solution(zero, U, lat, prefs, tol=1e-6, space="W")
        for band in ("1sigma", "2sigma"):
            assert report.family_bounds[f"hitting_band_{band}"] == (-math.inf, -math.inf)

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


class TestPairDefectChain:
    """check_solution's step-pair families, which one chain derives from the
    one-step defects, against their definition."""

    @staticmethod
    def assert_pair_bounds(report, lat, W, U, rho, gaps):
        assert [k for k in report.family_bounds if k.startswith("pairs_")] == [
            f"pairs_gap_{gap}" for gap in gaps]
        f = AdaptedGrid.from_packed(transformed_aggregator_grid(U.data, W.data, rho)).values
        for gap in gaps:
            ref = per_definition_pair_defects(lat, W.values, f, gap)
            bounds = report.family_bounds[f"pairs_gap_{gap}"]
            if gap == 1:
                assert bounds == (float(ref.min()), float(ref.max()))
            else:
                np.testing.assert_allclose(bounds, (ref.min(), ref.max()), rtol=0,
                                           atol=1e-13 * W.sup_abs())

    def test_infinite_driver_keeps_minus_inf_bounds_and_verdict(self, prefs, setup):
        # C = 0 on three nodes of step 20 sets u = inf there (S > 1): every
        # start step whose pairs reach them reads -inf, with no NaN on the
        # way, and the verdict stays subsolution.
        lat, tail, _ = setup
        C = consumption_grid(lat)
        W = picard_solve(prefs, transformed_consumption_grid(prefs, lat, C), lat,
                         tail).solution
        C.values[20][:3] = 0.0
        U = transformed_consumption_grid(prefs, lat, C)
        report = check_solution(W, U, lat, prefs, 1e-6, "W")
        assert report.classification == "subsolution"
        assert report.defect_min == -math.inf
        for gap in (1, 5, 25):
            low, high = report.family_bounds[f"pairs_gap_{gap}"]
            assert low == -math.inf and math.isfinite(high)
        self.assert_pair_bounds(report, lat, W, U, prefs.rho, (1, 5, 25))

    @pytest.mark.parametrize("n, gaps", [(1, (1,)), (4, (1,)), (5, (1, 5)),
                                         (24, (1, 5)), (25, (1, 5, 25))])
    def test_gaps_beyond_n_are_skipped(self, prefs, market, policy, rng, n, gaps):
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=n)
        U = AdaptedGrid([rng.uniform(0.5, 2.0, k + 1) for k in range(n + 1)])
        W = AdaptedGrid([rng.uniform(0.5, 2.0, k + 1) for k in range(n + 1)])
        report = check_solution(W, U, lat, prefs, 1e-6, "W")
        self.assert_pair_bounds(report, lat, W, U, prefs.rho, gaps)


class TestCheckSolutionCaches:
    """What check_solution builds once per lattice size: the hitting walks,
    the mask of the node pairs within a step and the first block of
    binomial weights."""

    def test_cold_and_warm_calls_agree_bit_for_bit(self, prefs, setup):
        lat, tail, U = setup
        W = picard_solve(prefs, U, lat, tail).solution
        C = consumption_grid(lat)
        cases = [(W, U, "W"), (W.scaled(0.8), U, "W"), (W.scaled(1.2), U, "W"),
                 (W.scaled(1.0 / (1.0 - prefs.R)), C, "V")]
        cold = []
        for grid, companion, space in cases:
            _hitting_walks.cache_clear()
            _within_pairs.cache_clear()
            _first_block_weights.cache_clear()
            cold.append(check_solution(grid, companion, lat, prefs, 1e-6, space))
        hits = _hitting_walks.cache_info().hits
        warm = [check_solution(grid, companion, lat, prefs, 1e-6, space)
                for grid, companion, space in cases]
        assert _hitting_walks.cache_info().hits == hits + len(cases)
        assert [repr(r.to_json_dict()) for r in warm] == [repr(r.to_json_dict())
                                                          for r in cold]

    def test_walk_cache_keeps_four_keys(self):
        _hitting_walks.cache_clear()
        for n in range(1, 11):
            _hitting_walks(n, (1.0, 2.0))
        assert _hitting_walks.cache_info().currsize == 4

    def test_pair_mask_cache_keeps_four_keys(self):
        _within_pairs.cache_clear()
        for n in range(1, 11):
            _within_pairs(n)
        assert _within_pairs.cache_info().currsize == 4

    def test_cached_arrays_are_read_only(self):
        weights = _first_block_weights()
        assert weights.size == 255 * 256 // 2
        with pytest.raises(ValueError):
            weights[0] = 2.0
        for walk in _hitting_walks(150, (1.0, 2.0)):
            for array in walk:
                with pytest.raises(ValueError):
                    array[0] = array[0]
        with pytest.raises(ValueError):
            _within_pairs(150)[0] = True


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
        # The levels, solved in one batch, are those of single solves bit for bit.
        c_hat = candidate_policy(prefs, market).eta * lat.wealth.data
        singles = [picard_solve(prefs, transformed_consumption_grid(
                       prefs, lat, AdaptedGrid.from_packed(np.maximum(zero.data, c_hat / n))),
                       lat, tail, enforce_order=False).utility_at_zero(prefs)
                   for n in report.ns]
        assert report.values == singles

    def test_unsupported_regime(self, market):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.0)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=20)
        tail = TailClosure.proportional(pol.strategy, p, market)
        C = consumption_grid(lat)
        with pytest.raises(UnsupportedRegime):
            generalized_utility(C, p, market, lat, tail, n_max=2)


class TestReportSerialisation:
    def test_solve_report_json(self, prefs, setup):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail)
        payload = report.to_json_dict()
        assert payload["converged"] is True
        assert payload["w0"] == pytest.approx(report.solution.values[0][0])

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


class TestResidualOnRead:
    """The residual sweep runs when the report is asked for it, once."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counted = []
        real = solver_module._residual

        def residual(*args):
            counted.append(args)
            return real(*args)
        monkeypatch.setattr(solver_module, "_residual", residual)
        return counted

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    def test_picard_solve_sweeps_on_first_read_only(self, prefs, setup, calls, epsilon):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail, epsilon=epsilon,
                              Lambda=U if epsilon else None)
        assert calls == []
        first = report.residual
        assert report.residual == first < 1e-7
        assert len(calls) == 1
        assert report.to_json_dict()["residual"] == first and len(calls) == 1

    def test_generalized_utility_never_sweeps(self, prefs, market, setup, calls):
        lat, tail, _ = setup
        report = generalized_utility(consumption_grid(lat), prefs, market, lat, tail,
                                     n_max=8)
        assert report.ns == [1, 2, 4, 8]
        assert calls == []


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

    @pytest.mark.parametrize("n", [100, 400])
    def test_zero_tail_residual_is_finite(self, prefs, market, policy, n):
        # W's terminal zeros would read as an infinite log defect; the
        # residual covers the layers below the operator's tail closure, so it
        # stays finite.  There W behaves like (T - t)^theta: the sweep is
        # exact for a frozen driver and the trapezoid operator is not, so
        # their gap is the operator's own error next to the horizon, about
        # 7e-3 at rho = -1/2 whatever dt.  clamp_events counts only swept
        # nodes, and none of them is clamped here.
        lat = build_lattice(market, policy.strategy, dt=2.0 / n, n_steps=n)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        report = picard_solve(prefs, U, lat, TailClosure.zero())
        assert report.clamp_events == 0
        assert 5e-3 < report.residual < 1e-2


class TestSlope:
    """The closed-form least-squares slope of the order check and of
    check_solution's trace fit, against the slope in exact rational
    arithmetic and against np.polyfit."""

    @staticmethod
    def exact_slope(t, y):
        t, y = [Fraction(v) for v in t], [Fraction(v) for v in y]
        t_bar, y_bar = sum(t) / len(t), sum(y) / len(y)
        return float(sum((a - t_bar) * (b - y_bar) for a, b in zip(t, y))
                     / sum((a - t_bar) ** 2 for a in t))

    @pytest.mark.parametrize("n", [1, 2, 60, 150])
    def test_matches_exact_slope_and_polyfit(self, prefs, market, policy, n):
        # The log traces lie near 3-6 and fall by about 5e-4 a step, so on
        # two or three nodes polyfit's own error reaches 2.4e-12, relative.
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=n)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        W = closed_w_grid(prefs, market, lat, policy.strategy)
        late = min((n + 1) // 2, n - 1)  # check_solution's later half
        for grid in (U, AdaptedGrid.from_packed(np.power(U.data, prefs.theta)), W):
            y = np.log(unconditional_expectation(lat, grid))
            for t, z in ((lat.times, y), (lat.times[late:], y[late:])):
                slope = _slope(t, z)
                assert slope == pytest.approx(self.exact_slope(t, z), rel=1e-15, abs=0)
                assert slope == pytest.approx(np.polyfit(t, z, 1)[0], rel=1e-11, abs=0)


class TestOneNodeLattice:
    """n_steps = 0 has a single time, so no decay rate or trace slope exists."""

    def test_one_node_raises_before_any_fit(self, prefs, market, policy):
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=0)
        tail = TailClosure.proportional(policy.strategy, prefs, market)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        with pytest.raises(InvalidParameters):
            order_check(prefs, U, lat, tail)
        with pytest.raises(InvalidParameters):
            check_solution(AdaptedGrid([[1.0]]), U, lat, prefs, 1e-6, "W")
        with pytest.raises(PreconditionFailed):
            picard_solve(prefs, U, lat, tail)

    def test_two_nodes_fit_the_trace_slope_through_both_times(self, prefs, market,
                                                              policy):
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=1)
        tail = TailClosure.proportional(policy.strategy, prefs, market)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        W = picard_solve(prefs, U, lat, tail).solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RankWarning included
            report = check_solution(W, U, lat, prefs, 1e-6, "W")
        assert math.isfinite(report.trace_slope)


def candidate_tail(p, pol, market, tail_mode):
    return (TailClosure.proportional(pol.strategy, p, market)
            if tail_mode == "proportional" else TailClosure.zero())


def solve_candidate(market, R, S, dt, n, tail_mode="proportional", delta=0.03):
    p = Preferences(b=1.0, delta=delta, R=R, S=S)
    pol = candidate_policy(p, market)
    lat = build_lattice(market, pol.strategy, dt=dt, n_steps=n)
    tail = candidate_tail(p, pol, market, tail_mode)
    U = transformed_consumption_grid(p, lat, consumption_grid(lat))
    return p, pol, lat, picard_solve(p, U, lat, tail)


def step_loop(p, lat, u, top, eps=None):
    """W on every step by the explicit step's definition, one layer at a
    time: with h = dt/2 and Z = W^(1/theta),

        Y = (Z_{k+1} + h u_{k+1}/theta)^theta,
        Z_k = E_k[Y]^(1/theta) + h u_k/theta,   W_k = Z_k^theta,

    from the terminal layer top, with `step_expectation` for E_k.  eps, the
    per-step layers of eps Lambda^theta, adds a quarter step dt/4 eps
    Lambda^theta on each side of each half step.  No clamp."""
    theta, h, n = p.theta, 0.5 * lat.dt, lat.n_steps

    def half(w, k):
        e = 0.0 if eps is None else 0.25 * lat.dt * eps[k]
        return ((w + e) ** (1.0 / theta) + h * u[k] / theta) ** theta + e

    W = [None] * (n + 1)
    W[n] = np.asarray(top, dtype=float)
    for k in range(n - 1, -1, -1):
        W[k] = half(step_expectation(lat, half(W[k + 1], k + 1)), k)
    return np.concatenate(W)


def assert_matches_step_loop(p, U, lat, tail, report, epsilon=0.0, Lambda=None):
    """The sweep's W against `step_loop` on every node, which sums the same
    terms in another order; rounding accumulates over the layers, so 1e-12
    relative."""
    eps = None if not epsilon else [epsilon * v**p.theta for v in Lambda.values]
    top = solver_module._terminal_layer(p, lat, tail, U.data,
                                        _epsilon_term(p, epsilon, Lambda))
    want = step_loop(p, lat, U.values, top, eps)
    np.testing.assert_allclose(report.solution.data, want, rtol=1e-12, atol=0.0)


def oracle_a(p, market, strategy, u0, horizon):
    """Oracle A: W_0 of the zero tail on a proportional stream.  The
    recursion reduces to a Bernoulli equation, so W_0(T) =
    W_inf (1 - e^(-H T/theta))^theta, with H the strategy's decay rate and
    W_inf = (u_0/H)^theta the infinite-horizon value."""
    H = decay_rate(p.delta * p.theta, p, market, strategy)
    return (u0 / H) ** p.theta * (-math.expm1(-H * horizon / p.theta)) ** p.theta


class TestStrangSweep:
    """The explicit backward sweep, for every rho <= 0, against its
    definition, the closed form and the trapezoid fixed point."""

    #: (R, S) -> V_0 of the trapezoid operator's fixed point, from the nested
    #: chi-split iteration and the iterative layer solve that followed it, at
    #: dt 0.05, n = 100 (rho = -1, -1.25, -1.5, -2, -3, -6).
    SPLIT_VALUES = {
        (2.0, 3.0): -161.28252130022221,
        (3.0, 5.5): -2567.794782722806,
        (2.0, 3.5): -113.66015290913178,
        (2.0, 4.0): -90.01449505235195,
        (2.0, 5.0): -67.25492658201907,
        (2.0, 8.0): -46.24122610764744,
    }

    @pytest.mark.parametrize("R, S", list(SPLIT_VALUES))
    def test_matches_the_split_iteration(self, market, R, S):
        # The sweep is not the trapezoid fixed point, but the two first-order
        # schemes agree to second order: within 1e-7 here, against an error
        # of 5e-6 to the closed form.
        p, pol, _, report = solve_candidate(market, R, S, 0.05, 100)
        assert report.converged and report.iterations == 1
        v0 = report.utility_at_zero(p)
        assert v0 == pytest.approx(self.SPLIT_VALUES[(R, S)], rel=1e-7)
        assert v0 == pytest.approx(pol.value(1.0), rel=1e-4)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    @pytest.mark.parametrize("rho", [0.0, -0.2, -0.5, -0.9, -1.0, -1.5, -3.0, -6.0,
                                     -16.0])
    def test_matches_the_step_definition(self, market, rho, tail_mode):
        p, pol, lat, report = solve_candidate(market, 2.0, 2.0 - rho, 0.05, 40, tail_mode)
        assert p.rho == pytest.approx(rho)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        assert report.clamp_events == 0
        assert_matches_step_loop(p, U, lat, candidate_tail(p, pol, market, tail_mode),
                                 report)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    def test_matches_the_step_definition_under_an_epsilon_term(self, market, tail_mode):
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=3.5)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = candidate_tail(p, pol, market, tail_mode)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        lam = U.scaled(np.linspace(2.0, 1.0, lat.n_steps + 1))
        report = picard_solve(p, U, lat, tail, epsilon=0.5, Lambda=lam)
        assert_matches_step_loop(p, U, lat, tail, report, epsilon=0.5, Lambda=lam)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    def test_matches_the_step_definition_over_zero_consumption_nodes(self, market,
                                                                     tail_mode):
        # R, S < 1 (rho = -1.5): C = 0 gives u = 0, where a half step leaves
        # W as it is.
        p = Preferences(b=1.0, delta=0.1, R=0.8, S=0.5)
        assert p.rho == pytest.approx(-1.5)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = candidate_tail(p, pol, market, tail_mode)
        C = consumption_grid(lat).copy()
        for k in range(5, 36, 3):
            C.values[k][1::3] = 0.0
        U = transformed_consumption_grid(p, lat, C)
        assert np.count_nonzero(U.data == 0.0) > 50
        lam = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail, Lambda=lam, enforce_order=False)
        assert report.clamp_events == 0
        assert_matches_step_loop(p, U, lat, tail, report)

    def test_zero_continuation_takes_the_exact_half_step(self, market):
        # u = 0 on part of the terminal step under a proportional tail: the
        # closure sets W_T = 0 there, so nodes of step n-1 above two such
        # nodes see E[Y] = 0 and take the exact half step from 0,
        # W = (h u/theta)^theta.  No numpy warning escapes (the suite turns
        # them into errors).
        p = Preferences(b=1.0, delta=0.1, R=0.8, S=0.5)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = TailClosure.proportional(pol.strategy, p, market)
        C = consumption_grid(lat).copy()
        C.values[40][:20] = 0.0
        U = transformed_consumption_grid(p, lat, C)
        lam = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail, Lambda=lam, enforce_order=False)
        assert report.clamp_events == 0
        exact = (0.5 * lat.dt * U.values[39][:19] / p.theta) ** p.theta
        np.testing.assert_allclose(report.solution.values[39][:19], exact, rtol=1e-14)

    @pytest.mark.parametrize("R, S, zeroed", [
        (2.0, 3.5, {20: slice(0, 3)}),
        (0.8, 0.5, {40: slice(0, 20), 39: slice(0, 5)}),
    ], ids=["u-inf", "u-zero-block"])
    def test_clamp_holds_infinite_and_zero_nodes(self, market, R, S, zeroed):
        # C = 0 gives u = inf for S > 1, where W = inf is stored at e^700,
        # and u = 0 for S < 1, where W = 0 above a zero block is stored at
        # e^-700.  clamp_events counts exactly the swept nodes held at an
        # end, every other node is the step's, and the residual, which
        # compares W with the clamped F(W), stays finite.
        p = Preferences(b=1.0, delta=0.1 if R < 1.0 else 0.03, R=R, S=S)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = TailClosure.proportional(pol.strategy, p, market)
        C = consumption_grid(lat).copy()
        for k, nodes in zeroed.items():
            C.values[k][nodes] = 0.0
        U = transformed_consumption_grid(p, lat, C)
        lam = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail, Lambda=lam, enforce_order=False)
        swept = report.solution.data[:AdaptedGrid.span(lat.n_steps).start]
        held = (swept == math.exp(-700.0)) | (swept == math.exp(700.0))
        assert report.clamp_events == np.count_nonzero(held) > 0
        with np.errstate(over="ignore"):
            loop = step_loop(p, lat, U.values, report.solution.values[-1])
        free = np.isfinite(loop[:swept.size]) & (loop[:swept.size] > 0.0)
        np.testing.assert_allclose(swept[free], loop[:swept.size][free], rtol=1e-12)
        assert not (held & free).any()
        assert math.isfinite(report.residual)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    @pytest.mark.parametrize("k0", [1, 20, 38])
    @pytest.mark.parametrize("scale", [1e-6, 1e4, 1e8, 1e12])
    @pytest.mark.parametrize("S", [2.5, 3.5, 5.0, 8.0],
                             ids=["rho-0.5", "rho-1.5", "rho-3", "rho-6"])
    def test_solves_under_a_rescaled_layer(self, market, S, scale, k0, tail_mode):
        # U rescaled on one step, down or far up: the step has no scale of
        # its own, so the sweep still follows its definition.
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=S)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = candidate_tail(p, pol, market, tail_mode)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        scaled = U.copy()
        scaled.values[k0][:] *= scale
        report = picard_solve(p, scaled, lat, tail, Lambda=U)
        assert report.clamp_events == 0
        assert_matches_step_loop(p, scaled, lat, tail, report)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    def test_regime_sweep(self, market, tail_mode):
        # theta in (0, 1) on an (R, S) grid down to rho = -8, R on both sides
        # of 1.  A point either solves or raises a documented error, and the
        # only one seen is an ill-posed candidate (eta <= 0).
        solved = ill_posed = 0
        for R in (0.8, 0.9, 2.0, 5.0):
            for rho in (-0.5, -1.0, -1.5, -3.0, -6.0, -8.0):
                S = R + rho * (1.0 - R)
                if S <= 0.0:
                    continue
                for delta in (0.03, 0.1):
                    try:
                        p, _, lat, report = solve_candidate(market, R, S, 0.05, 40,
                                                            tail_mode, delta)
                    except IllPosed:
                        ill_posed += 1
                        continue
                    except EzmertonError as exc:  # documented, but not expected here
                        pytest.fail(f"(R, S, delta) = ({R}, {S}, {delta}): {exc!r}")
                    swept = report.solution.data[:AdaptedGrid.span(lat.n_steps).start]
                    assert report.clamp_events == 0
                    assert swept.min() > 0.0 and swept.max() < math.inf
                    solved += 1
        assert (solved, ill_posed) == (41, 3)

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    @pytest.mark.parametrize("rho", [-0.25, -1.5, -17.0])
    def test_monotone_in_the_driver(self, market, rng, rho, tail_mode):
        # Each piece of the step is increasing or an average with positive
        # weights, so U <= U' nodewise gives W <= W' nodewise, for any rho.
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=2.0 - rho)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = candidate_tail(p, pol, market, tail_mode)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        W = picard_solve(p, U, lat, tail, enforce_order=False).solution.data
        for _ in range(5):
            bump = np.where(rng.uniform(size=U.data.size) < 0.3,
                            rng.uniform(0.0, 2.0, U.data.size), 0.0)
            bigger = AdaptedGrid.from_packed(U.data * (1.0 + bump))
            W_up = picard_solve(p, bigger, lat, tail, enforce_order=False).solution.data
            assert np.all(W <= W_up)
            assert np.any(W < W_up)


class TestBatchedSweep:
    """One `_strang_sweep` over K drivers side by side (an array of shape
    (nodes, K)) against K single `picard_solve`s: each row's W, bit for
    bit."""

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    @pytest.mark.parametrize("S", [2.0, 2.5, 3.5, 5.0],
                             ids=["rho0", "rho-0.5", "rho-1.5", "rho-3"])
    def test_rows_match_single_solves(self, market, S, tail_mode):
        # Rows far apart in scale: the candidate's U, U at 1e-3 and 1e-14,
        # U scaled up 1e8 on one step, and zero consumption on three nodes
        # (u = inf for S > 1, which the clamp holds).
        p = Preferences(b=1.0, delta=0.03, R=2.0, S=S)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = candidate_tail(p, pol, market, tail_mode)
        C = consumption_grid(lat)
        U = transformed_consumption_grid(p, lat, C)
        spiked = U.copy()
        spiked.values[20][:] *= 1e8
        holes = C.copy()
        holes.values[20][:3] = 0.0
        rows = [U.data, 1e-3 * U.data, 1e-14 * U.data, spiked.data,
                transformed_consumption_grid(p, lat, holes).data]
        singles = [picard_solve(p, AdaptedGrid.from_packed(u), lat, tail,
                                enforce_order=False) for u in rows]
        assert [s.clamp_events > 0 for s in singles] == [False] * 4 + [True]
        batch = np.stack(rows, axis=1)
        W = np.empty(batch.shape)
        w0 = _strang_sweep(p, lat, tail, batch, None, out=W)
        assert w0.tobytes() == W[:1].tobytes()
        for r, single in enumerate(singles):
            assert W[:, r].tobytes() == single.solution.data.tobytes(), r


class TestZeroTailAccuracy:
    """The zero tail against a closed form that does not pass through it.

    With C = xi X and W_t = w(t) X_t^{1-R}, the truncated recursion on [0, T]
    reduces to a deterministic one under delta' = delta - kappa (1 - rho),
    kappa = (1-R)(m + (1-R) s^2/2) with the lattice's log drift m and log
    volatility s, whose solution is W_0 = (b xi^{1-S} int_0^T e^{-delta' s} ds)^theta.
    """

    @pytest.mark.parametrize("dt", [0.01, 0.005])
    @pytest.mark.parametrize("S", [2.5, 3.5, 8.0], ids=["rho-0.5", "rho-1.5", "rho-6"])
    def test_first_order_error(self, market, S, dt):
        p, pol, lat, report = solve_candidate(market, 2.0, S, dt, round(1.0 / dt),
                                              tail_mode="zero")
        m, s = lat.log_drift, lat.log_vol
        kappa = (1.0 - p.R) * (m + (1.0 - p.R) * s**2 / 2.0)
        rate = p.delta - kappa * (1.0 - p.rho)
        integral = -math.expm1(-rate * lat.horizon) / rate
        exact = (p.b * pol.strategy.xi ** (1.0 - p.S) * integral) ** p.theta
        assert report.converged
        assert abs(report.solution.data[0] / exact - 1.0) <= 0.04 * dt

    #: (R, S, delta) on both sides of R = 1: rho = -0.5, -3, -0.5 and -1.5.
    ORACLE_A_POINTS = [(2.0, 2.5, 0.03), (2.0, 5.0, 0.03), (0.9, 0.85, 0.1),
                       (0.8, 0.5, 0.1)]

    @pytest.mark.parametrize("n, bound", [(100, 5e-6), (2000, 3e-7)])
    @pytest.mark.parametrize("R, S, delta", ORACLE_A_POINTS)
    def test_oracle_a_at_horizon_five(self, market, R, S, delta, n, bound):
        # W ~ (T - t)^theta next to the horizon, where the sweep's half steps
        # are exact for a frozen driver: what is left is the binomial's own
        # first-order error (2.3e-6 at n = 100 at the reference point).  A
        # trapezoid step there read 2.2e-4.
        p, pol, lat, report = solve_candidate(market, R, S, 5.0 / n, n, "zero", delta)
        u0 = transformed_consumption_grid(p, lat, consumption_grid(lat)).data[0]
        exact = oracle_a(p, market, pol.strategy, u0, lat.horizon)
        assert abs(report.solution.data[0] / exact - 1.0) <= bound


def oracle_c_coefficient(H, rho, epsilon):
    """w_epsilon, the one root of H w = w^rho + epsilon (oracle C), by
    bisection: H w - w^rho - epsilon is increasing for rho <= 0."""
    lo, hi = 0.0, 1.0
    while H * hi - hi**rho - epsilon < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid > 0.0 and H * mid - mid**rho - epsilon < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_c_error(p, market, epsilon, n, horizon):
    """Relative error of the lattice W_0 under Lambda = U against oracle C,
    W^epsilon = w_epsilon U^theta, with the lattice's dt."""
    pol = candidate_policy(p, market)
    lat = build_lattice(market, pol.strategy, dt=horizon / n, n_steps=n)
    tail = TailClosure.proportional(pol.strategy, p, market)
    U = transformed_consumption_grid(p, lat, consumption_grid(lat))
    report = picard_solve(p, U, lat, tail, epsilon=epsilon, Lambda=U)
    exact = oracle_c_coefficient(tail.decay_rate, p.rho, epsilon) * U.data[0] ** p.theta
    return report.solution.data[0] / exact - 1.0, lat.dt


class TestEpsilonTail:
    """The epsilon-perturbed proportional stream against oracle C.

    With Lambda = U the perturbed utility is W^epsilon = w_epsilon U^theta,
    H w_epsilon = w_epsilon^rho + epsilon: U^theta and W scale alike, since
    theta (1 - rho) = 1.  The tail closes on that fixed point, so the lattice
    misses it only by its first-order discretisation error.
    """

    #: (R, S, delta) on both sides of R = 1
    POINTS = [(2.0, 2.5, 0.03), (0.5, 0.25, 0.1), (2.0, 5.0, 0.03)]

    @pytest.mark.parametrize("epsilon", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("R, S, delta", POINTS)
    def test_tail_layer_is_the_fixed_point(self, market, R, S, delta, epsilon):
        p = Preferences(b=1.0, delta=delta, R=R, S=S)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=0.05, n_steps=40)
        tail = TailClosure.proportional(pol.strategy, p, market)
        U = transformed_consumption_grid(p, lat, consumption_grid(lat))
        eps_term = solver_module._epsilon_term(p, epsilon, U)
        w_T = _tail_solution(p, lat, tail, U.data, eps_term)
        u_T = U.data[AdaptedGrid.span(lat.n_steps)]
        w = oracle_c_coefficient(tail.decay_rate, p.rho, epsilon)
        np.testing.assert_allclose(w_T, w * u_T**p.theta, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("epsilon", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("R, S, delta", POINTS)
    def test_first_order_error(self, market, R, S, delta, epsilon):
        p = Preferences(b=1.0, delta=delta, R=R, S=S)
        for n in (100, 200):
            err, dt = oracle_c_error(p, market, epsilon, n, horizon=5.0)
            assert abs(err) <= 0.01 * dt, (n, err)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(R=st.one_of(st.floats(0.5, 0.9), st.floats(1.1, 5.0)),
           share=st.floats(0.0, 1.0), epsilon=st.floats(0.0, 2.0))
    def test_first_order_error_property(self, market, R, share, epsilon):
        # theta in [max(0.15, 1.1 - R), 1] and S = 1 - (1 - R)/theta: every
        # point is supported and well posed at delta 0.1 (R < 1) or 0.03.
        low = max(0.15, 1.1 - R)
        theta = low + share * (1.0 - low)
        p = Preferences(b=1.0, delta=0.1 if R < 1.0 else 0.03, R=R,
                        S=1.0 - (1.0 - R) / theta)
        for n in (40, 80):
            err, dt = oracle_c_error(p, market, epsilon, n, horizon=2.0)
            assert abs(err) <= 0.01 * dt, (n, err)


class TestStopLevelNearMinusOne:
    """rho just above -1, where a stop test on the step of a contraction
    iteration, tol*(1 - |rho|), fell below the float64 spacing of the logs
    and stalled the direct loop that the sweep replaced."""

    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    def test_rho_just_above_minus_one_solves(self, market, tail_mode):
        # rho = -1 + 1e-11 lands on the rho = -1 solve, and on the closed
        # form or oracle A at the lattice's accuracy.
        p, pol, lat, report = solve_candidate(market, 2.0, 2.99999999999, 0.05, 100,
                                              tail_mode)
        assert -1.0 < p.rho < -1.0 + 1e-10
        p1, _, _, at_minus_one = solve_candidate(market, 2.0, 3.0, 0.05, 100, tail_mode)
        v0 = report.utility_at_zero(p)
        assert v0 == pytest.approx(at_minus_one.utility_at_zero(p1), rel=1e-9)
        if tail_mode == "proportional":
            assert v0 == pytest.approx(pol.value(1.0), rel=1e-5)
        else:
            u0 = transformed_consumption_grid(p, lat, consumption_grid(lat)).data[0]
            exact = oracle_a(p, market, pol.strategy, u0, lat.horizon)
            assert report.solution.data[0] == pytest.approx(exact, rel=5e-6)


class TestBitIdenticalShortcuts:
    @pytest.mark.parametrize("tail_mode", ["proportional", "zero"])
    def test_order_check_shares_lambda_theta_with_its_reference(self, prefs, market,
                                                                policy, tail_mode):
        lat = build_lattice(market, policy.strategy, dt=0.02, n_steps=60)
        tail = candidate_tail(prefs, policy, market, tail_mode)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        lam_theta = [v**prefs.theta for v in U.values]
        n = lat.n_steps
        if tail_mode == "zero":
            want = per_step_backward(lat, lam_theta, np.zeros(n + 1),
                                     last_layer=lat.dt * lam_theta[n - 1])
        else:
            want = per_step_backward(lat, lam_theta, lam_theta[n] / tail.decay_rate)
        np.testing.assert_array_equal(reference_integral(prefs, U, lat, tail).data,
                                      np.concatenate(want))
        # the order check divides the same Lambda^theta into the same I^Lambda
        ratios = np.concatenate(lam_theta[:n]) / np.concatenate(want[:n])
        cert = order_check(prefs, U, lat, tail)
        assert (cert.k_lower, cert.K_upper) == (ratios.min(), ratios.max())


class TestBenchmarkReadSurface:
    """What the benchmark harness (perfbench/) reads of a solve: the import
    checks of test_exports.py do not see a dropped attribute, which would
    break the benchmark while the rest of the suite stays green."""

    def test_reports_carry_what_the_benchmark_reads(self, prefs, market, policy, setup):
        lat, tail, U = setup
        report = picard_solve(prefs, U, lat, tail)  # positional, as the workloads call it
        assert report.converged is True
        assert (report.iterations, report.chi) == (1, 0.0)
        assert report.clamp_events == 0 and math.isfinite(report.residual)
        assert isinstance(report.solution, AdaptedGrid)
        assert report.utility_at_zero(prefs) == pytest.approx(policy.value(1.0), rel=1e-3)
        assert set(report.to_json_dict()) >= {"converged", "iterations", "chi",
                                               "residual", "clamp_events"}
        zero = AdaptedGrid([np.zeros(k + 1) for k in range(lat.n_steps + 1)])
        gen = generalized_utility(zero, prefs, market, lat, tail, n_max=4)
        assert (gen.ns, len(gen.values)) == ([1, 2, 4], 3)
        assert gen.classification == "finite"
        checked = check_solution(report.solution, U, lat, prefs, 1e-6, "W")
        assert checked.classification == "solution"
        verdict = compare(report.solution.scaled(0.9), report.solution)
        assert verdict.ordered and verdict.violations == []
        assert issubclass(NotConverged, EzmertonError)
        assert issubclass(PreconditionFailed, EzmertonError)
