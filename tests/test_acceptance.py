"""Acceptance suite: one test per criterion, at the stated tolerances.

Reference scenario throughout: b=1, delta=0.03, R=2, S=2.5 (theta=2/3,
rho=-1/2) in the market r=0.02, mu=0.07, sigma=0.2 (sharpe=0.25).

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; with -s each test also prints its measured numbers.
"""

import time

import numpy as np
import pytest

from ezmerton import (
    AdaptedGrid,
    Market,
    Preferences,
    TailClosure,
    build_lattice,
    candidate_policy,
    consumption_grid,
    decay_rate,
    mc_drift_check,
    numeraire_shift,
    transformed_consumption_grid,
)
from ezmerton.closed_form import crra_bubble_quantities
from ezmerton.experiments import (
    crra_counterexample,
    policy_grid_search,
    transversality_sweep,
    verification_check,
    wellposed_divergence,
)
from ezmerton.solver import (
    apply_recursion,
    check_solution,
    compare,
    generalized_utility,
    picard_solve,
)

PREFS = Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)
MARKET = Market(r=0.02, mu=0.07, sigma=0.2)

# Frozen from the closed forms, recomputed independently in criterion 1:
#   eta   = (1/S)(delta + (S-1) r + (S-1) sharpe^2 / (2R))
#   V(1)  = b^theta eta^{-theta S} / (1-R)
ETA_EXPECTED = 0.033375
VHAT1_EXPECTED = -289.044388700143
H_CANDIDATE = 0.022250


@pytest.fixture(scope="module")
def candidate_setup():
    policy = candidate_policy(PREFS, MARKET)
    lat = build_lattice(MARKET, policy.strategy, dt=0.01, n_steps=500)
    tail = TailClosure.proportional(policy.strategy, PREFS, MARKET)
    U = transformed_consumption_grid(PREFS, lat, consumption_grid(lat))
    return policy, lat, tail, U


@pytest.fixture(scope="module")
def candidate_solution(candidate_setup):
    policy, lat, tail, U = candidate_setup
    return picard_solve(PREFS, U, lat, tail)


def test_c01_candidate_policy_closed_form():
    # Independent recompute from the formulas, then compare at 1e-10 relative.
    lam = (MARKET.mu - MARKET.r) / MARKET.sigma
    eta = (PREFS.delta + (PREFS.S - 1) * MARKET.r
           + (PREFS.S - 1) * lam**2 / (2 * PREFS.R)) / PREFS.S
    vhat1 = PREFS.b**PREFS.theta * eta ** (-PREFS.theta * PREFS.S) / (1 - PREFS.R)
    assert eta == pytest.approx(ETA_EXPECTED, rel=1e-12)
    assert vhat1 == pytest.approx(VHAT1_EXPECTED, rel=1e-12)

    policy = candidate_policy(PREFS, MARKET)
    assert policy.pi_hat == pytest.approx(0.625, rel=1e-10)
    assert policy.eta == pytest.approx(eta, rel=1e-10)
    assert policy.value(1.0) == pytest.approx(vhat1, rel=1e-10)

    start = time.perf_counter()
    n_calls = 200
    for _ in range(n_calls):
        candidate_policy(PREFS, MARKET)
    per_call = (time.perf_counter() - start) / n_calls
    assert per_call < 1e-3
    print(f"\n[criterion 1] pi_hat=0.625 eta={policy.eta:.6f} "
          f"V(1)={policy.value(1.0):.6f} ({per_call * 1e6:.1f} us/call)")


def test_c02_solver_matches_closed_form(candidate_setup, candidate_solution):
    policy, lat, tail, U = candidate_setup
    start = time.perf_counter()
    report = picard_solve(PREFS, U, lat, tail)
    elapsed = time.perf_counter() - start
    v0 = report.utility_at_zero(PREFS)
    assert report.converged
    assert v0 == pytest.approx(policy.value(1.0), rel=0.01)
    assert elapsed < 10.0
    # One Newton step certifies every layer (iterating T itself takes two).
    assert report.iterations <= 2
    print(f"\n[criterion 2] lattice V0={v0:.4f} closed={policy.value(1.0):.4f} "
          f"rel={abs(v0 / policy.value(1.0) - 1):.2e} in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def operator_iterates(candidate_setup, candidate_solution):
    """Iterate F = `apply_recursion` from 0.1 and 10 times U^theta until a
    step is at most tol (1 - |rho|), tol = 1e-8, so each limit lies within
    tol of the fixed point.

    Returns one (log-space sup gap of the limit to the solve's grid, step
    ratios after the first) per start, both over steps 0..n-1.
    """
    _, lat, tail, U = candidate_setup
    solved = slice(0, AdaptedGrid.span(lat.n_steps).start)
    log_solution = np.log(candidate_solution.solution.data[solved])
    out = []
    for scale in (0.1, 10.0):
        W = AdaptedGrid.from_packed(scale * U.data**PREFS.theta)
        steps = []
        while not steps or steps[-1] > 1e-8 * (1.0 - abs(PREFS.rho)):
            FW = apply_recursion(PREFS, U, W, lat, tail)
            steps.append(float(np.max(np.abs(np.log(FW.data[solved])
                                             - np.log(W.data[solved])))))
            W = FW
            assert len(steps) <= 200
        gap = float(np.max(np.abs(np.log(W.data[solved]) - log_solution)))
        out.append((gap, [b / a for a, b in zip(steps, steps[1:])][1:]))
    return out


def test_c03_contraction_rates(operator_iterates):
    # (a) post-burn-in log-space ratios of the operator at rho = -1/2 stay
    # below 0.55 from either start, and both limits land on the solve's grid
    ratios = [r for _, rates in operator_iterates for r in rates]
    assert all(gap <= 2e-8 for gap, _ in operator_iterates)
    assert ratios, "need at least two recorded steps"
    assert max(ratios) <= abs(PREFS.rho) + 0.05

    # (b) at rho = -1, with no a-priori contraction constant, the solve still
    # converges to its closed form within 1%
    p2 = Preferences(b=1.0, delta=0.03, R=2.0, S=3.0)
    assert p2.rho == pytest.approx(-1.0)
    pol2 = candidate_policy(p2, MARKET)
    lat2 = build_lattice(MARKET, pol2.strategy, dt=0.01, n_steps=500)
    tail2 = TailClosure.proportional(pol2.strategy, p2, MARKET)
    U2 = transformed_consumption_grid(p2, lat2, consumption_grid(lat2))
    report = picard_solve(p2, U2, lat2, tail2)
    assert report.converged and report.trace[-1][1] <= 1e-8
    v0 = report.utility_at_zero(p2)
    assert v0 == pytest.approx(pol2.value(1.0), rel=0.01)
    print(f"\n[criterion 3] max ratio={max(ratios):.4f} <= 0.55; "
          f"rho = -1 V0={v0:.4f} vs {pol2.value(1.0):.4f}")


def test_c04_uniqueness_from_two_initial_guesses(operator_iterates):
    # The operator iterated from 0.1 and 10 times U^theta reaches the solve's
    # grid from both sides, with step ratios below |rho| + 0.05.
    tol = 1e-8
    assert all(r <= abs(PREFS.rho) + 0.05 for _, rates in operator_iterates for r in rates)
    worst = max(gap for gap, _ in operator_iterates)
    assert worst <= 2.0 * tol
    print(f"\n[criterion 4] nodewise log gap {worst:.2e} <= {2 * tol:.0e}")


def test_c05_counterexample_quadrature():
    start = time.perf_counter()
    report = crra_counterexample(0.03, 2.0, list(range(10, 101, 10)))
    elapsed = time.perf_counter() - start
    assert report.discounted_value_at_0 == pytest.approx(-1.0, abs=1e-3)
    assert report.positive_slope > 0.0 and report.negative_slope > 0.0
    # Each step of 10 in T adds the same five pairs of unit blocks.
    for partials, slope in ((report.positive_part_partials, report.positive_slope),
                            (report.negative_part_partials, report.negative_slope)):
        np.testing.assert_allclose(np.diff(partials), 10.0 * slope, rtol=1e-12)
    assert elapsed < 1.0
    print(f"\n[criterion 5] V(0)={report.discounted_value_at_0:.6f}; slopes "
          f"+{report.positive_slope:.4f} / +{report.negative_slope:.4f} "
          f"in {elapsed:.2f}s")


def test_c06_bubble_demo():
    delta, R, eps = 0.03, 2.0, 0.01
    xi_eps = 0.075625
    report = crra_bubble_quantities(delta, R, MARKET, xi_eps, nu=delta + 0.02)
    assert report.V0 == pytest.approx(1322.3, abs=0.1)
    assert report.flag.is_bubble
    assert report.flag.value_sign == -report.flag.aggregator_sign
    assert report.transversality_ok

    cells = transversality_sweep(delta, R, MARKET, nu=delta,
                                 xi_grid=np.linspace(0.005, 0.25, 200))
    assert not any(c.bubble.is_bubble for c in cells)
    print(f"\n[criterion 6] V0(xi_eps)={report.V0:.4f}, bubble admitted; "
          f"matched-nu sweep has 0 bubbles in {len(cells)} cells")


def test_c07_comparison_property():
    policy = candidate_policy(PREFS, MARKET)
    lat = build_lattice(MARKET, policy.strategy, dt=0.02, n_steps=100)
    tail = TailClosure.proportional(policy.strategy, PREFS, MARKET)
    U = transformed_consumption_grid(PREFS, lat, consumption_grid(lat))
    W = picard_solve(PREFS, U, lat, tail).solution
    rng = np.random.default_rng(77)
    n = lat.n_steps + 1
    violations = 0
    for _ in range(200):
        down = np.sort(rng.uniform(0.5, 0.95, n))       # nondecreasing scaling
        up = np.sort(rng.uniform(1.05, 1.5, n))[::-1]   # nonincreasing scaling
        sub = W.scaled(down)
        sup = W.scaled(up)
        assert check_solution(sub, U, lat, PREFS, 1e-6, "W").classification == "subsolution"
        assert check_solution(sup, U, lat, PREFS, 1e-6, "W").classification == "supersolution"
        verdict = compare(sub, sup)
        violations += len(verdict.violations)
    assert violations == 0
    print("\n[criterion 7] 200 randomized sub/supersolution pairs: 0 violations")


def test_c08_generalized_utility_zero_stream(candidate_setup):
    policy, lat, tail, _ = candidate_setup
    zero = AdaptedGrid([np.zeros(k + 1) for k in range(lat.n_steps + 1)])
    report = generalized_utility(zero, PREFS, MARKET, lat, tail, n_max=8192)
    base = report.values[0]
    # homogeneity: V^n = n^{R-1} V^1 at 1e-10 relative; the base solve agrees
    # with the closed form at the lattice tolerance of criterion 2
    for n, v in zip(report.ns, report.values):
        assert v == pytest.approx(n ** (PREFS.R - 1.0) * base, rel=1e-10)
    assert base == pytest.approx(policy.value(1.0), rel=0.01)
    assert report.classification == "diverges_to_minus_inf"
    assert abs(report.values[-1]) > report.threshold == 1e6
    print(f"\n[criterion 8] V^n = n^(R-1) * {base:.4f}, "
          f"last={report.values[-1]:.3e} -> {report.classification}")


def test_c09_monte_carlo_drift():
    policy = candidate_policy(PREFS, MARKET)
    H = decay_rate(PREFS.delta * PREFS.theta, PREFS, MARKET, policy.strategy)
    assert H == pytest.approx(H_CANDIDATE, abs=1e-12)
    start = time.perf_counter()
    report = mc_drift_check(MARKET, policy.strategy,
                            nu=PREFS.delta * PREFS.theta, R=PREFS.R,
                            n_paths=100_000, horizon=5.0, seed=20240817)
    elapsed = time.perf_counter() - start
    assert report.within(-H, n_se=3.0)
    assert elapsed < 30.0
    print(f"\n[criterion 9] slope={report.slope:.6f} target={-H:.6f} "
          f"se={report.stderr:.2e} in {elapsed:.2f}s")


def test_c10_numeraire_invariance():
    chi = PREFS.delta / (1.0 - PREFS.S)
    p2, m2 = numeraire_shift(PREFS, MARKET, chi)
    assert p2.delta == pytest.approx(0.0, abs=1e-15)
    pol1 = candidate_policy(PREFS, MARKET)
    pol2 = candidate_policy(p2, m2)
    assert pol2.pi_hat == pytest.approx(pol1.pi_hat, rel=1e-12)
    assert pol2.eta == pytest.approx(pol1.eta, rel=1e-12)
    assert pol2.value(1.0) == pytest.approx(pol1.value(1.0), rel=1e-12)

    pi_grid = np.arange(0.0, 1.5, 2.5e-3)
    xi_grid = np.arange(2.5e-3, 0.2, 2.5e-3)
    g1 = policy_grid_search(PREFS, MARKET, pi_grid, xi_grid)
    g2 = policy_grid_search(p2, m2, pi_grid, xi_grid)
    assert g1.argmax_pi == g2.argmax_pi and g1.argmax_xi == g2.argmax_xi
    assert g2.max_value == pytest.approx(g1.max_value, rel=1e-12)
    print(f"\n[criterion 10] eta/pi_hat/V invariant at 1e-12; argmax cell "
          f"({g1.argmax_pi:.4f}, {g1.argmax_xi:.4f}) unchanged")


def test_c11_perturbed_optimality_trio():
    report = verification_check(PREFS, MARKET, epsilon=0.1, n_strategies=20,
                                seed=4242, n_samples=10_000, dt=0.01,
                                n_steps=200)
    assert report.n_samples == 10_000
    assert report.max_A1 <= 1e-12
    assert report.max_A2 <= 1e-12
    assert report.max_abs_A3 <= 1e-10
    opt = report.at_optimum
    assert abs(opt.A1) <= 1e-10
    assert abs(opt.A2) <= 1e-10
    assert abs(opt.A3) <= 1e-10
    for verdict in report.strategy_verdicts:
        assert verdict["classification"] in ("supersolution", "solution")
    print(f"\n[criterion 11] max A1={report.max_A1:.2e} max A2={report.max_A2:.2e} "
          f"max|A3|={report.max_abs_A3:.2e}; "
          f"{len(report.strategy_verdicts)} strategies all supersolutions")


def test_c12_ill_posedness_probes():
    # R < 1: the supremum over proportional strategies explodes past 1e6.
    p_low = Preferences(b=1.0, delta=0.05, R=0.5, S=0.25)
    low = wellposed_divergence(p_low, MARKET)
    assert low.verdict == "diverges_to_plus_inf"
    assert max(low.values) > 1e6

    # R > 1: the accounting-unit shift produces a strictly decreasing bound
    # sequence equal to n^{theta S} b^theta x^{1-R}/(1-R).
    p_high = Preferences(b=1.0, delta=-0.1, R=2.0, S=2.5)
    high = wellposed_divergence(p_high, MARKET)
    assert high.verdict == "diverges_to_minus_inf"
    assert all(b < a for a, b in zip(high.values, high.values[1:]))
    for n, v in zip(high.probe, high.values):
        expected = n ** (p_high.theta * p_high.S) * p_high.b**p_high.theta / (1.0 - p_high.R)
        assert v == pytest.approx(expected, rel=1e-10)
    print(f"\n[criterion 12] R<1 probe max={max(low.values):.3e}; "
          f"R>1 bounds reach {high.values[-1]:.3e}")
