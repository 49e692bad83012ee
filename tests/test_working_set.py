"""Working-set bounds of the large allocations, and bit-identity with the
plain formulas they replace.

The Monte Carlo drift check holds one block of draws and one block of paths,
whatever the number of paths; the lattice build and the consumption
transform hold at most three grids, output included; `picard_solve` at most
two beyond its inputs (the solution W and one scratch grid), and so the
CLI's `picard_solve` entry at most four (wealth, U, W and the scratch grid;
wealth, C and the transform's two while U is built).  Peaks are read with
tracemalloc, which sees numpy's buffers.  The oracles below are the one-shot
formulas: the whole draw at once with a `concatenate` and the column means
of all its paths, the wealth exponent over the full grid and the masked
`np.where` consumption transform.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ezmerton import cli
from ezmerton.closed_form import ProportionalStrategy
from ezmerton.errors import DomainError, ExperimentError
from ezmerton.lattice import (
    _DRIFT_BLOCK_PATHS,
    AdaptedGrid,
    TailClosure,
    build_lattice,
    consumption_grid,
    mc_drift_check,
    transformed_consumption_grid,
)
from ezmerton.preferences import Preferences
from ezmerton.solver import picard_solve

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


def grid_bytes(n_steps: int) -> int:
    return (n_steps + 1) * (n_steps + 2) // 2 * 8


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

    def test_build_holds_three_grids(self, market, policy):
        n = 1000
        _, peak = peak_bytes(lambda: build_lattice(market, policy.strategy, 0.005, n))
        assert peak <= 3 * grid_bytes(n) + SLACK

    def test_consumption_transform_holds_three_grids(self, prefs, market, policy):
        n = 1000
        lat = build_lattice(market, policy.strategy, 0.005, n)
        C = consumption_grid(lat)
        _, peak = peak_bytes(lambda: transformed_consumption_grid(prefs, lat, C))
        assert peak <= 3 * grid_bytes(n) + SLACK


def test_picard_solve_holds_two_grids(prefs, market, policy):
    n = 1000
    lat = build_lattice(market, policy.strategy, 0.005, n)
    U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))
    tail = TailClosure.proportional(policy.strategy, prefs, market)
    _, peak = peak_bytes(lambda: picard_solve(prefs, U, lat, tail))
    assert peak <= 2 * grid_bytes(n) + SLACK


def test_cli_picard_solve_holds_four_grids(tmp_path):
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
    assert peak <= 4 * grid_bytes(n) + SLACK
