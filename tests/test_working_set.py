"""Working-set bounds of the large allocations, and bit-identity with the
plain formulas they replace.

The Monte Carlo drift check holds one block of draws and one block of paths,
whatever the number of paths.  The lattice build holds nothing of grid size:
the lattice stores no wealth grid, and each read of `Lattice.wealth` forms
one in its output one block of steps at a time, so `consumption_grid` holds
its output plus one block, and so does the consumption transform.
`unconditional_expectation` holds nothing of grid size, `order_check` one
grid (Lambda^theta, whose reference integral it takes a block at a time),
`check_solution` at most nine grids, and its caches (the hitting walks,
the mask of the node pairs within a step and one block of binomial weights)
less than one once it returns, `picard_solve` only its solution W plus one
block, and the first read of a solve's residual one block, so the CLI's
`picard_solve` entry holds at most two grids plus one block (C and U while U
is built; U and W while it solves).
`generalized_utility` holds one chunk of its stacked truncation levels' U,
of whose W its sweep keeps one layer, plus three grids and a block, and
less than the one `picard_solve` a level that it replaced once a level
fills a chunk.  Peaks are
read with tracemalloc, which sees numpy's buffers.  The oracles below are
the one-shot formulas: the whole draw at once with a `concatenate` and the
column means of all its paths, the wealth exponent over the full grid, the
masked `np.where` consumption transform, the binomial weights over the full
grid, the order ratios over the full grid and the log gap of the whole F(W).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ezmerton import cli
from ezmerton.closed_form import ProportionalStrategy
from ezmerton.errors import DomainError, ExperimentError
from ezmerton.closed_form import candidate_policy
from ezmerton.lattice import (
    _BLOCK_NODES,
    _DRIFT_BLOCK_PATHS,
    _first_block_weights,
    AdaptedGrid,
    TailClosure,
    build_lattice,
    consumption_grid,
    mc_drift_check,
    transformed_consumption_grid,
    unconditional_expectation,
)
from ezmerton.preferences import Preferences, transformed_aggregator_grid
from ezmerton.solver import (
    _BATCH_NODES,
    _epsilon_term,
    _hitting_walks,
    _residual,
    _tail_solution,
    _within_pairs,
    apply_recursion,
    check_solution,
    generalized_utility,
    order_check,
    picard_solve,
    reference_integral,
)

#: Bytes of bookkeeping allowed on top of the array bounds (report objects,
#: a generator, per-layer traces).
SLACK = 1 << 20


def peak_bytes(fn):
    """(result, peak bytes allocated while fn runs, beyond what it started with)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def held_bytes(fn):
    """Bytes that stay allocated once fn has run and its result is dropped,
    beyond what it started with: what a cache inside fn keeps."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def grid_bytes(n_steps: int) -> int:
    return (n_steps + 1) * (n_steps + 2) // 2 * 8


#: Bytes of the block of whole steps that the streamed passes work in.
BLOCK_BYTES = _BLOCK_NODES * 8


def drift_oracle(market, strat, nu, R, n_paths, horizon, seed, n_times=21,
                 n_batches=50):
    """(slope, stderr, log means) from the whole draw at once."""
    m = (market.r + strat.pi * (market.mu - market.r) - strat.xi
         - strat.pi**2 * market.sigma**2 / 2.0)
    s = abs(strat.pi) * market.sigma
    times = np.linspace(0.0, horizon, n_times)
    dts = np.diff(times)
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((n_paths, n_times - 1))
    log_x = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(m * dts + s * np.sqrt(dts) * z, axis=1)],
        axis=1)
    with np.errstate(over="ignore"):
        y = np.exp((1.0 - R) * log_x)

    def fit_slope(values):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            logmean = np.log(values.mean(axis=0)) - nu * times
        if not np.isfinite(logmean).all():
            raise ExperimentError(f"log means over horizon {horizon} are not finite")
        return float(np.polyfit(times, logmean, 1)[0])

    slope = fit_slope(y)
    batch = max(n_paths // n_batches, 1)
    slopes = [fit_slope(y[i * batch:(i + 1) * batch]) for i in range(n_batches)
              if len(y[i * batch:(i + 1) * batch]) > 0]
    stderr = float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
    return slope, stderr, np.log(y.mean(axis=0)) - nu * times


def wealth_oracle(lat):
    """Wealth from the exponent over the full packed grid."""
    k = AdaptedGrid.per_node(np.arange(lat.n_steps + 1))
    j = np.arange(k.size) - k * (k + 1) // 2
    return lat.x0 * np.exp(lat.log_drift * k * lat.dt
                           + lat.log_vol * math.sqrt(lat.dt) * (2.0 * j - k))


def consumption_oracle(prefs, lat, c):
    """U from per-node times and the masked np.where transform."""
    scale = prefs.b * prefs.theta * np.exp(-prefs.delta * AdaptedGrid.per_node(lat.times))
    power = np.where(c > 0.0, np.power(np.where(c > 0.0, c, 1.0), 1.0 - prefs.S),
                     np.inf if prefs.S > 1.0 else 0.0)
    return scale * power


STRATEGIES = [ProportionalStrategy(pi=0.625, xi=0.033375),
              ProportionalStrategy(pi=1.3, xi=0.01)]
#: Path counts around the draw block: below one block, either side of one,
#: exactly two and a partial third.
PATH_COUNTS = [1000, _DRIFT_BLOCK_PATHS - 1, _DRIFT_BLOCK_PATHS + 1,
               2 * _DRIFT_BLOCK_PATHS, 2 * _DRIFT_BLOCK_PATHS + 17]
#: (horizon, n_times, n_batches)
DRIFT_SETTINGS = [(5.0, 21, 50), (1.0, 7, 10), (30.0, 40, 33)]


class TestDriftCheck:
    @pytest.mark.parametrize("setting", DRIFT_SETTINGS, ids=["default", "short", "long"])
    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    @pytest.mark.parametrize("R", [0.5, 2.0, 5.0])
    def test_matches_single_draw(self, market, R, n_paths, setting):
        horizon, n_times, n_batches = setting
        seed = n_paths % 97 + int(10 * R)
        strat = STRATEGIES[n_paths % 2]
        report = mc_drift_check(market, strat, 0.05, R, n_paths, horizon, seed,
                                n_times=n_times, n_batches=n_batches)
        slope, stderr, log_means = drift_oracle(market, strat, 0.05, R, n_paths,
                                                horizon, seed, n_times, n_batches)
        assert (report.slope, report.stderr) == (slope, stderr)
        np.testing.assert_array_equal(report.log_means, log_means)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_matches_single_draw_at_cli_default(self, market, policy, seed):
        report = mc_drift_check(market, policy.strategy, 0.02, 2.0, 100_000, 5.0, seed)
        slope, stderr, log_means = drift_oracle(market, policy.strategy, 0.02, 2.0,
                                                100_000, 5.0, seed)
        assert (report.slope, report.stderr) == (slope, stderr)
        np.testing.assert_array_equal(report.log_means, log_means)

    def test_overflow_raises_like_single_draw(self, market):
        strat = ProportionalStrategy(pi=3.0, xi=0.01)
        with pytest.raises(ExperimentError) as streamed:
            mc_drift_check(market, strat, 0.05, 5.0, 1000, 1e4, 1)
        with pytest.raises(ExperimentError) as oracle:
            drift_oracle(market, strat, 0.05, 5.0, 1000, 1e4, 1)
        assert str(streamed.value) == str(oracle.value)

    def test_holds_two_blocks(self, market, policy):
        n_times = 21
        mc_drift_check(market, policy.strategy, 0.02, 2.0, 1000, 5.0, 0)  # warm up imports
        block = (_DRIFT_BLOCK_PATHS + 1) * n_times * 8
        for n_paths in (60_000, 240_000):  # the bound does not grow with the paths
            _, peak = peak_bytes(lambda: mc_drift_check(
                market, policy.strategy, 0.02, 2.0, n_paths, 5.0, 3, n_times=n_times))
            assert peak <= 2 * block + SLACK, n_paths


#: Lattice sizes of one, two, four and 63 blocks of whole steps.
LATTICE_SIZES = [0, 1, 100, 333, 500, 2000]
#: (R, S): S above and below 1, theta of either sign of 1 - S
CONSUMPTION_PREFS = [(2.0, 2.5), (0.5, 0.25), (2.0, 0.5), (0.7, 1.8)]


class TestLatticeGrids:
    @pytest.mark.parametrize("x0", [1.0, 2.5])
    @pytest.mark.parametrize("n", LATTICE_SIZES)
    def test_wealth_matches_full_grid_exponent(self, market, n, x0):
        for strat in STRATEGIES + [ProportionalStrategy(pi=-1.3, xi=0.2)]:
            lat = build_lattice(market, strat, dt=0.0037, n_steps=n, x0=x0)
            np.testing.assert_array_equal(lat.wealth.data, wealth_oracle(lat))

    @pytest.mark.parametrize("R, S", CONSUMPTION_PREFS)
    @pytest.mark.parametrize("n", LATTICE_SIZES)
    def test_consumption_matches_masked_transform(self, market, policy, n, R, S):
        prefs = Preferences(b=1.3, delta=0.03, R=R, S=S)
        lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=n, x0=2.5)
        C = consumption_grid(lat)
        if n > 1:  # C = 0 nodes take the boundary value
            C.data[[1, 4 % C.data.size]] = 0.0
        U = transformed_consumption_grid(prefs, lat, C)
        np.testing.assert_array_equal(U.data, consumption_oracle(prefs, lat, C.data))
        C.data[-1] = math.nan  # a NaN node is not a boundary value
        with pytest.raises(DomainError):
            transformed_consumption_grid(prefs, lat, C)

    def test_build_holds_no_grid(self, market, policy):
        for n in (1000, 2000):  # the bound does not grow with the lattice
            _, peak = peak_bytes(lambda: build_lattice(market, policy.strategy, 5.0 / n, n))
            assert peak <= SLACK, n

    def test_consumption_grid_holds_one_grid_and_a_block(self, market, policy):
        n = 1000
        lat = build_lattice(market, policy.strategy, 0.005, n)
        _, peak = peak_bytes(lambda: consumption_grid(lat))
        assert peak <= grid_bytes(n) + BLOCK_BYTES + SLACK

    def test_consumption_transform_holds_one_grid_and_a_block(self, prefs, market,
                                                              policy):
        n = 1000
        lat = build_lattice(market, policy.strategy, 0.005, n)
        C = consumption_grid(lat)
        _, peak = peak_bytes(lambda: transformed_consumption_grid(prefs, lat, C))
        assert peak <= grid_bytes(n) + BLOCK_BYTES + SLACK


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_picard_solve_holds_one_grid(prefs, market, policy, epsilon):
    n = 1000
    lat = build_lattice(market, policy.strategy, 0.005, n)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    _, peak = peak_bytes(lambda: picard_solve(prefs, U, lat, tail, epsilon=epsilon,
                                              Lambda=U if epsilon else None))
    assert peak <= grid_bytes(n) + SLACK


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_first_residual_read_holds_one_block(prefs, market, policy, epsilon):
    n = 1000
    lat = build_lattice(market, policy.strategy, 0.005, n)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    report = picard_solve(prefs, U, lat, tail, epsilon=epsilon,
                          Lambda=U if epsilon else None)
    residual, peak = peak_bytes(lambda: report.residual)
    assert residual <= 1e-8
    assert peak <= BLOCK_BYTES + SLACK


@pytest.mark.parametrize("tail_mode", ["zero", "proportional"])
def test_order_check_holds_one_grid(prefs, market, policy, tail_mode):
    # Lambda^theta, and one block of I^Lambda at a time
    n = 1000
    lat = build_lattice(market, policy.strategy, 0.005, n)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    tail = (TailClosure.zero() if tail_mode == "zero"
            else TailClosure.proportional(policy.strategy, prefs, market))
    _, peak = peak_bytes(lambda: order_check(prefs, U, lat, tail))
    assert peak <= grid_bytes(n) + SLACK


def test_check_solution_holds_nine_grids(prefs, market, policy):
    # The hitting families' reach masses fill a strip of O(sqrt(n)) nodes
    # per step: O(n sqrt(n)) values against a grid's O(n^2).
    for n in (200, 1000):
        lat = build_lattice(market, policy.strategy, 5.0 / n, n)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        W = picard_solve(prefs, U, lat, TailClosure.proportional(policy.strategy, prefs,
                                                                 market)).solution
        _hitting_walks.cache_clear()  # the bound holds while the caches fill
        _within_pairs.cache_clear()
        _first_block_weights.cache_clear()
        report, peak = peak_bytes(lambda: check_solution(W, U, lat, prefs, 1e-6, "W"))
        assert report.classification == "solution"
        assert peak <= 9 * grid_bytes(n) + SLACK, n


def test_check_solution_caches_hold_less_than_a_grid(prefs, market, policy):
    # The hitting walks keep the reached strip, O(n sqrt(n)) values, and the
    # binomial weights one block, whatever n: at n = 1000 the strip holds
    # about 95 000 nodes and a grid 501 501.
    n = 1000
    lat = build_lattice(market, policy.strategy, 5.0 / n, n)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    W = picard_solve(prefs, U, lat, TailClosure.proportional(policy.strategy, prefs,
                                                             market)).solution
    _hitting_walks.cache_clear()
    _within_pairs.cache_clear()
    _first_block_weights.cache_clear()
    held = held_bytes(lambda: check_solution(W, U, lat, prefs, 1e-6, "W"))
    assert BLOCK_BYTES < held < grid_bytes(n)


def test_unconditional_expectation_holds_no_grid(prefs, market, policy):
    for n in (1000, 2000):  # the bound does not grow with the lattice
        lat = build_lattice(market, policy.strategy, 5.0 / n, n)
        U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
        _, peak = peak_bytes(lambda: unconditional_expectation(lat, U))
        assert peak <= SLACK, n


def test_cli_picard_solve_holds_two_grids(tmp_path):
    n = 1000
    scn = cli.parse_scenario({
        "id": "ws",
        "preferences": {"b": 1.0, "delta": 0.03, "R": 2.0, "S": 2.5},
        "market": {"r": 0.02, "mu": 0.07, "sigma": 0.2},
        "lattice": {"dt": 0.005, "n_steps": n},
        "experiment": {"name": "picard_solve", "params": {}},
    })
    _, peak = peak_bytes(lambda: cli.run_scenario(scn, tmp_path, quiet=True))
    summary = json.loads((tmp_path / "picard_solve_ws.json").read_text())["summary"]
    assert summary["converged"]
    assert peak <= 2 * grid_bytes(n) + BLOCK_BYTES + SLACK


def test_generalized_utility_holds_two_chunks(prefs, market, policy):
    # At n = 546 a chunk of `_BATCH_NODES` driver values holds 6 truncation
    # levels, so the 14 levels are solved in batches of 6, 6 and 2.  A batch
    # holds its U chunk, C-hat and one layer of each level's W; while it is
    # built, the chunk of U, C-hat, a level's truncated C and its U.  A
    # chunk is freed before the next one is built.
    n = 546
    lat = build_lattice(market, policy.strategy, 5.0 / n, n)
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    C = consumption_grid(lat)
    per_chunk = _BATCH_NODES // C.data.size
    assert per_chunk == 6
    report, peak = peak_bytes(lambda: generalized_utility(C, prefs, market, lat, tail,
                                                          n_max=8192))
    assert len(report.ns) == 14
    assert peak <= 2 * per_chunk * grid_bytes(n) + 2 * grid_bytes(n) + BLOCK_BYTES + SLACK


def test_generalized_utility_keeps_one_layer_of_each_level(prefs, market, policy):
    # At n = 400 a chunk holds 13 levels.  The sweep keeps one layer of each
    # level's W, not the whole grid, so the peak is that of building the
    # chunk: its 13 grids of U, C-hat, one level's truncated C and its U,
    # and a block.  A sweep that stored each level's W read 28.7 grids.
    n = 400
    lat = build_lattice(market, policy.strategy, 5.0 / n, n)
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    C = consumption_grid(lat)
    assert _BATCH_NODES // C.data.size == 13
    report, peak = peak_bytes(lambda: generalized_utility(C, prefs, market, lat, tail,
                                                          n_max=8192))
    assert len(report.ns) == 14
    assert peak <= 17 * grid_bytes(n)


#: tracemalloc peak of `generalized_utility` in the test below, measured on
#: the per-level loop that the batched solve replaced: one `picard_solve` a
#: level, whose report (its U and W) lived until the next level's replaced
#: it.  The least of three readings (25.58-25.70 MB), about 6.1 grids.
PER_LEVEL_PEAK_BYTES = 25_583_624


def test_generalized_utility_holds_no_more_than_per_level_solves(prefs, market, policy):
    # At n = 1024 a level fills a chunk (its grid is over half of
    # `_BATCH_NODES`), so each level is a batch of one, solved as a single
    # driver, and the loop holds less than the per-level solves did.
    n = 1024
    lat = build_lattice(market, policy.strategy, 5.0 / n, n)
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    C = consumption_grid(lat)
    assert _BATCH_NODES // C.data.size == 1
    report, peak = peak_bytes(lambda: generalized_utility(C, prefs, market, lat, tail,
                                                          n_max=2))
    assert report.ns == [1, 2]
    assert peak <= PER_LEVEL_PEAK_BYTES


def weights_oracle(lat, grid):
    """E[grid at step k] from the binomial weights over the full grid."""
    weights = np.empty_like(grid.data)
    weights[0] = 1.0
    for k in range(lat.n_steps):
        start = k * (k + 1) // 2
        prev = weights[start:start + k + 1]
        nxt = weights[start + k + 1:start + 2 * k + 3]
        np.add(prev[1:], prev[:-1], out=nxt[1:-1])
        nxt[0], nxt[-1] = prev[0], prev[-1]
        nxt *= 0.5
    weights *= grid.data
    steps = np.arange(lat.n_steps + 1)
    return np.add.reduceat(weights, steps * (steps + 1) // 2)


def backward_oracle(lat, f, top):
    """The whole-grid backward trapezoid sweep, in place in f, below the
    closure layers top, which it then copies over f's top layers."""
    m = lat.n_steps - 1 if top.size > lat.n_steps + 1 else lat.n_steps
    layer = AdaptedGrid.span(m)
    half = f[:layer.stop]
    half *= 0.5 * lat.dt
    carry = top[:m + 1] + half[layer]
    f[layer.start:] = top[:f.size - layer.start]
    for k in range(m - 1, -1, -1):
        half_k = half[AdaptedGrid.span(k)]
        g = 0.5 * (carry[1:k + 2] + carry[:k + 1]) + half_k
        carry[:k + 1] = g + half_k
        half_k[...] = g
    return f


def order_oracle(prefs, target, lat, tail):
    """(k_lower, K_upper, I^Lambda) from the ratios over the full grid."""
    n = lat.n_steps
    lam_theta = np.power(target.data, prefs.theta)
    if tail.mode == "zero":
        top = np.concatenate([lat.dt * lam_theta[AdaptedGrid.span(n - 1)], np.zeros(n + 1)])
    else:
        top = lam_theta[AdaptedGrid.span(n)] / tail.decay_rate
    ref = backward_oracle(lat, lam_theta.copy(), top)
    before_terminal = AdaptedGrid.span(n).start
    ratios = lam_theta[:before_terminal] / ref[:before_terminal]
    return float(np.min(ratios)), float(np.max(ratios)), ref


def operator_oracle(prefs, U, W, lat, tail, epsilon, Lambda):
    """(F(W) below the closure layers, the index where they start), from the
    kernel over the whole grid at once."""
    eps_term = _epsilon_term(prefs, epsilon, Lambda)
    top = _tail_solution(prefs, lat, tail, U.data, eps_term)
    m = lat.n_steps - 1 if top.size > lat.n_steps + 1 else lat.n_steps
    below = slice(0, AdaptedGrid.span(m).stop)
    f = transformed_aggregator_grid(U.data[below], W.data[below], prefs.rho)
    if epsilon:
        f += epsilon * np.power(Lambda.data[below], prefs.theta)
    return backward_oracle(lat, f, top), AdaptedGrid.span(m).start


def residual_oracle(prefs, U, W, lat, tail, epsilon, Lambda):
    """sup |log F(W) - log W| below the closure, from the whole F(W) at once."""
    fw, solved = operator_oracle(prefs, U, W, lat, tail, epsilon, Lambda)
    f = np.clip(fw[:solved], math.exp(-700.0), math.exp(700.0))
    with np.errstate(invalid="ignore"):
        gap = float(np.max(np.abs(np.log(f) - np.log(W.data[:solved])), initial=0.0))
    return math.inf if math.isnan(gap) else gap


#: Lattice sizes that span two and sixteen blocks of whole steps.
MULTI_BLOCK_SIZES = [300, 1000]
#: (R, S) with R above and below 1
STREAM_PREFS = [(2.0, 2.5), (0.5, 0.25)]


def stream_setup(market, R, S, n, tail_mode):
    prefs = Preferences(b=1.0, delta=0.1 if R < 1.0 else 0.03, R=R, S=S)
    pol = candidate_policy(prefs, market)
    lat = build_lattice(market, pol.strategy, 5.0 / n, n)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    tail = (TailClosure.zero() if tail_mode == "zero"
            else TailClosure.proportional(pol.strategy, prefs, market))
    return prefs, lat, U, tail


#: Lattice sizes at the edge of the first block of whole steps, whose
#: binomial weights are cached: it ends at step 254, so 254 fills it, 255
#: and 256 reach one and two steps past it, and 600 spans six blocks.
FIRST_BLOCK_EDGE_SIZES = [254, 255, 256, 600]


class TestStreamedPasses:
    @pytest.mark.parametrize("n", FIRST_BLOCK_EDGE_SIZES + MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("R, S", STREAM_PREFS)
    def test_unconditional_expectation_matches_full_weights(self, market, R, S, n):
        _, lat, U, _ = stream_setup(market, R, S, n, "proportional")
        np.testing.assert_array_equal(unconditional_expectation(lat, U),
                                      weights_oracle(lat, U))

    @pytest.mark.parametrize("tail_mode", ["zero", "proportional"])
    @pytest.mark.parametrize("n", MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("R, S", STREAM_PREFS)
    def test_certificate_matches_one_shot_order_check(self, market, R, S, n, tail_mode):
        prefs, lat, U, tail = stream_setup(market, R, S, n, tail_mode)
        cert = order_check(prefs, U, lat, tail)
        k_lower, K_upper, ref = order_oracle(prefs, U, lat, tail)
        assert (cert.k_lower, cert.K_upper) == (k_lower, K_upper)
        np.testing.assert_array_equal(reference_integral(prefs, U, lat, tail).data, ref)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    @pytest.mark.parametrize("tail_mode", ["zero", "proportional"])
    @pytest.mark.parametrize("n", MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("R, S", STREAM_PREFS)
    def test_residual_matches_whole_operator(self, market, R, S, n, tail_mode, epsilon):
        prefs, lat, U, tail = stream_setup(market, R, S, n, tail_mode)
        Lambda = U if epsilon else None
        report = picard_solve(prefs, U, lat, tail, epsilon=epsilon, Lambda=Lambda)
        assert report.residual == residual_oracle(prefs, U, report.solution, lat, tail,
                                                  epsilon, Lambda)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    @pytest.mark.parametrize("tail_mode", ["zero", "proportional"])
    @pytest.mark.parametrize("n", MULTI_BLOCK_SIZES)
    def test_operator_matches_whole_grid_sweep(self, market, n, tail_mode, epsilon):
        prefs, lat, U, tail = stream_setup(market, 2.0, 2.5, n, tail_mode)
        W = U.scaled(7.0)
        fw, _ = operator_oracle(prefs, U, W, lat, tail, epsilon, U)
        np.testing.assert_array_equal(
            apply_recursion(prefs, U, W, lat, tail, epsilon, U).data[:fw.size], fw)

    @pytest.mark.parametrize("n", [40] + MULTI_BLOCK_SIZES)
    @pytest.mark.parametrize("R, S, zeroed", [
        (2.0, 3.5, lambda n: {n // 2: slice(0, 3)}),
        (0.8, 0.5, lambda n: {n: slice(0, 20), n - 1: slice(0, 5)}),
    ], ids=["u-inf", "u-zero-block"])
    def test_clamped_residual_matches_whole_operator(self, market, R, S, zeroed, n):
        # The cases of test_residual_measures_the_clamped_operator: C = 0 on
        # three nodes of the middle step, or on a block at the horizon.
        p = Preferences(b=1.0, delta=0.1 if R < 1.0 else 0.03, R=R, S=S)
        pol = candidate_policy(p, market)
        lat = build_lattice(market, pol.strategy, dt=2.0 / n, n_steps=n)
        tail = TailClosure.proportional(pol.strategy, p, market)
        C = consumption_grid(lat).copy()
        for k, nodes in zeroed(n).items():
            C.values[k][nodes] = 0.0
        U = transformed_consumption_grid(p, lat, C)
        lam = transformed_consumption_grid(p, lat, consumption_grid(lat))
        report = picard_solve(p, U, lat, tail, Lambda=lam, enforce_order=False)
        assert report.clamp_events > 0
        assert report.residual == residual_oracle(p, U, report.solution, lat, tail,
                                                  0.0, None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("tail_mode", ["zero", "proportional"])
    def test_nonfinite_gap_reads_as_inf(self, market, tail_mode, bad):
        # A NaN, inf or zero node of W in a lower block: its log gap is NaN
        # or inf, which the streamed residual reads as inf like the oracle.
        n = 1000
        prefs, lat, U, tail = stream_setup(market, 2.0, 2.5, n, tail_mode)
        W = picard_solve(prefs, U, lat, tail).solution.copy()
        W.values[n // 4][3] = bad
        top = _tail_solution(prefs, lat, tail, U.data, None)
        with np.errstate(all="ignore"):
            gap = _residual(lat, U.data, W.data, prefs.rho, None, top)
            assert gap == residual_oracle(prefs, U, W, lat, tail, 0.0, None) == math.inf
