"""Recombining binomial lattice for wealth under constant-proportional strategies.

One step of log-wealth under the strategy (pi, xi) is normal with mean m*dt and
variance s^2*dt, where

    m = r + pi*(mu - r) - xi - pi^2 sigma^2 / 2,      s = |pi| * sigma.

The lattice matches both moments exactly with equal probabilities:

    p_up = 1/2,   up = exp(m dt + s sqrt(dt)),   down = exp(m dt - s sqrt(dt)),

so there is no O(dt) drift bias to pollute fixed-point accuracy.  Wealth
recombines: the node (k, j) with j up-moves has wealth
x0 * exp(m k dt + s sqrt(dt) (2j - k)).

Every sweep over the lattice relies on p_up = 1/2: a one-step expectation is
the neighbour mean ½(next[j+1] + next[j]), which rounds exactly like
p next[j+1] + (1-p) next[j] because halving is exact away from subnormals.
`Lattice` rejects any other p_up.

`AdaptedGrid` stores one value per node and is the discrete stand-in for an
adapted process (consumption, utility, reference processes).  Its storage is
one flat array in packed triangular layout: the k+1 nodes of step k sit at
offsets k(k+1)/2 .. k(k+1)/2 + k, so a contiguous range of steps is one
contiguous slice (`AdaptedGrid.span`).  `grid.values` is the list of per-step
views into that array, and a grid can still be built from such a list.
Nodewise work (kernels, clamps, sign checks, ratios) is one numpy call over
the packed array instead of one call per step.

Conditional expectations are exact one-step averages; the unconditional
distribution of step k is binomial(k, 1/2), propagated forward from step 0.
`mc_drift_check` provides an independent Monte Carlo oracle for the decay
rate of e^{-nu t} X_t^{1-R}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .closed_form import ProportionalStrategy
from .errors import (DimensionMismatch, ExperimentError, InvalidParameters,
                     InvalidStep, NotEvaluable)
from .preferences import Market, Preferences, ValueSign, transformed_consumption

__all__ = [
    "Lattice",
    "AdaptedGrid",
    "TailClosure",
    "build_lattice",
    "candidate_lattice",
    "step_expectation",
    "unconditional_expectation",
    "consumption_grid",
    "transformed_consumption_grid",
    "wealth_grid",
    "mc_drift_check",
    "DriftCheckReport",
]


class AdaptedGrid:
    """One value per lattice node, packed step by step into one flat array.

    `data[k(k+1)/2 + j]` is the value at node (k, j), j = number of up-moves.
    `values[k]` is a view of step k into `data`, so writes through `values`
    change the grid.  sign_domain, when set, is enforced by `validate_sign`.

    Raises
    ------
    DimensionMismatch
        If layer k of `values` does not hold exactly k+1 numbers.
    """

    def __init__(self, values, sign_domain: ValueSign | None = None):
        layers = [np.asarray(v, dtype=float) for v in values]
        for k, v in enumerate(layers):
            if v.shape != (k + 1,):
                raise DimensionMismatch(
                    f"layer {k} must hold {k + 1} values, got shape {v.shape}"
                )
        self._set(np.concatenate(layers) if layers else np.empty(0), sign_domain)

    @classmethod
    def from_packed(cls, data: np.ndarray,
                    sign_domain: ValueSign | None = None) -> "AdaptedGrid":
        """Wrap a packed array (not copied) as a grid.

        Raises
        ------
        DimensionMismatch
            If data is not one-dimensional with a triangular number of entries.
        """
        grid = cls.__new__(cls)
        grid._set(np.asarray(data, dtype=float), sign_domain)
        return grid

    def _set(self, data: np.ndarray, sign_domain: ValueSign | None) -> None:
        n = (math.isqrt(8 * data.size + 1) - 3) // 2
        if data.ndim != 1 or (n + 1) * (n + 2) // 2 != data.size:
            raise DimensionMismatch(
                f"packed grid needs a triangular number of values, got shape {data.shape}"
            )
        self.data = data
        self.n_steps = n
        self.sign_domain = sign_domain
        self._views: list[np.ndarray] | None = None

    @staticmethod
    def span(lo: int, hi: int | None = None) -> slice:
        """Slice of the packed steps lo..hi (inclusive; hi defaults to lo)."""
        hi = lo if hi is None else hi
        return slice(lo * (lo + 1) // 2, (hi + 1) * (hi + 2) // 2)

    @staticmethod
    def node(index: int) -> tuple[int, int]:
        """(step, node) coordinates of a packed index."""
        k = (math.isqrt(8 * index + 1) - 1) // 2
        return k, index - k * (k + 1) // 2

    @staticmethod
    def per_node(per_step) -> np.ndarray:
        """Packed array repeating per_step[k] over the k+1 nodes of step k."""
        per_step = np.asarray(per_step)
        return np.repeat(per_step, np.arange(1, len(per_step) + 1))

    @property
    def values(self) -> list[np.ndarray]:
        if self._views is None:
            self._views = [self.data[self.span(k)] for k in range(self.n_steps + 1)]
        return self._views

    def check_shape(self, lat: Lattice) -> None:
        if self.n_steps != lat.n_steps:
            raise DimensionMismatch("grid shape does not match lattice")

    def validate_sign(self) -> bool:
        if self.sign_domain is ValueSign.NON_NEGATIVE:
            return not np.any(self.data < 0.0)
        if self.sign_domain is ValueSign.NON_POSITIVE:
            return not np.any(self.data > 0.0)
        return True

    def copy(self) -> "AdaptedGrid":
        return AdaptedGrid.from_packed(self.data.copy(), self.sign_domain)

    def scaled(self, factor) -> "AdaptedGrid":
        """Nodewise scaling; factor may be a scalar or a per-step sequence."""
        factors = np.broadcast_to(np.asarray(factor, dtype=float), (self.n_steps + 1,))
        return AdaptedGrid.from_packed(self.per_node(factors) * self.data,
                                       self.sign_domain)

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

    def to_csv(self, path) -> None:
        """Write rows (step, node, value)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "node", "value"])
            for k, vals in enumerate(self.values):
                for j, v in enumerate(vals):
                    writer.writerow([k, j, format(float(v), ".17g")])


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial wealth lattice (immutable after build).

    Raises
    ------
    InvalidParameters
        If p_up is not 1/2, which every sweep over the lattice assumes.
    """

    dt: float
    n_steps: int
    x0: float
    up: float
    down: float
    p_up: float
    wealth: AdaptedGrid
    log_drift: float   # m, per unit time
    log_vol: float     # s, per sqrt(unit time)
    market: Market
    strategy: ProportionalStrategy

    def __post_init__(self):
        if self.p_up != 0.5:
            raise InvalidParameters(
                f"the lattice sweeps assume p_up = 1/2, got {self.p_up}"
            )

    @property
    def node_wealth(self) -> list[np.ndarray]:
        """Wealth at each step, as views into the packed `wealth` grid."""
        return self.wealth.values

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt


def build_lattice(market: Market, strat: ProportionalStrategy, dt: float,
                  n_steps: int, x0: float = 1.0) -> Lattice:
    """Build the moment-matched binomial lattice for (market, strategy).

    Raises
    ------
    InvalidStep
        If dt <= 0.
    InvalidParameters
        If n_steps < 0 or x0 <= 0.
    """
    if not (dt > 0.0):
        raise InvalidStep(f"dt must be positive, got {dt}")
    if n_steps < 0:
        raise InvalidParameters(f"n_steps must be >= 0, got {n_steps}")
    if not (x0 > 0.0):
        raise InvalidParameters(f"x0 must be positive, got {x0}")
    m = (market.r + strat.pi * (market.mu - market.r) - strat.xi
         - strat.pi**2 * market.sigma**2 / 2.0)
    s = abs(strat.pi) * market.sigma
    sqdt = math.sqrt(dt)
    up = math.exp(m * dt + s * sqdt)
    down = math.exp(m * dt - s * sqdt)
    k = AdaptedGrid.per_node(np.arange(n_steps + 1))  # step of each packed node
    j = np.arange(k.size) - k * (k + 1) // 2          # its number of up-moves
    wealth = x0 * np.exp(m * k * dt + s * sqdt * (2.0 * j - k))
    return Lattice(
        dt=dt, n_steps=n_steps, x0=x0, up=up, down=down, p_up=0.5,
        wealth=AdaptedGrid.from_packed(wealth), log_drift=m, log_vol=s,
        market=market, strategy=strat,
    )


def candidate_lattice(prefs: Preferences, market: Market, dt: float,
                      n_steps: int, x0: float = 1.0) -> Lattice:
    """Lattice bound to the candidate optimal strategy (pi_hat, eta)."""
    policy = closed_form.candidate_policy(prefs, market)
    return build_lattice(market, policy.strategy, dt, n_steps, x0)


def step_expectation(lat: Lattice, values_next: np.ndarray) -> np.ndarray:
    """One-step conditional expectation: maps step-(k+1) values to step k.

    E[. | node (k, j)] = p_up * next[j+1] + (1 - p_up) * next[j].
    """
    values_next = np.asarray(values_next, dtype=float)
    n = len(values_next)
    if values_next.ndim != 1 or n < 2 or n > lat.n_steps + 1:
        raise DimensionMismatch(
            f"expected a step layer of length 2..{lat.n_steps + 1}, got {n}"
        )
    return lat.p_up * values_next[1:] + (1.0 - lat.p_up) * values_next[:-1]


def unconditional_expectation(lat: Lattice, grid: AdaptedGrid) -> np.ndarray:
    """E[grid at step k] for every k.

    The binomial(k, 1/2) node weights are propagated forward one step at a
    time, weights_{k+1}[j] = ½(weights_k[j-1] + weights_k[j]) with the missing
    neighbour of either end taken as 0, and then summed against the grid step
    by step in one call.
    """
    grid.check_shape(lat)
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


def wealth_grid(lat: Lattice) -> AdaptedGrid:
    return lat.wealth.copy()


def consumption_grid(lat: Lattice) -> AdaptedGrid:
    """On-lattice consumption C = xi * X under the bound strategy."""
    return AdaptedGrid.from_packed(lat.strategy.xi * lat.wealth.data,
                                   sign_domain=ValueSign.NON_NEGATIVE)


def transformed_consumption_grid(prefs: Preferences, lat: Lattice,
                                 C: AdaptedGrid) -> AdaptedGrid:
    """U = b*theta*e^{-delta t} C^{1-S} at every node of the lattice.

    One vectorised `transformed_consumption` call over the packed nodes, each
    at its own step's time.

    Raises
    ------
    DimensionMismatch
        If C does not live on the lattice.
    """
    C.check_shape(lat)
    return AdaptedGrid.from_packed(
        transformed_consumption(prefs, AdaptedGrid.per_node(lat.times), C.data)
    )


@dataclass(frozen=True)
class TailClosure:
    """Closure rule for the infinite-horizon tail beyond the lattice horizon.

    mode "zero" drops the tail, which produces a one-sided bound (the
    subsolution side when utility values are non-negative, the supersolution
    side when they are non-positive).  mode "proportional" continues with a
    constant-proportional strategy whose decay rate H_{delta*theta} must be
    positive; the rate is resolved and stored at construction.
    """

    mode: str
    strategy: ProportionalStrategy | None = None
    decay_rate: float | None = None

    @classmethod
    def zero(cls) -> "TailClosure":
        return cls(mode="zero")

    @classmethod
    def proportional(cls, strategy: ProportionalStrategy, prefs: Preferences,
                     market: Market) -> "TailClosure":
        rate = closed_form.decay_rate(prefs.delta * prefs.theta, prefs, market, strategy)
        if rate <= 0.0:
            raise NotEvaluable(
                f"proportional tail requires H_deltatheta > 0, got {rate}"
            )
        return cls(mode="proportional", strategy=strategy, decay_rate=rate)


@dataclass(frozen=True)
class DriftCheckReport:
    """Regression estimate of the decay rate of log E[e^{-nu t} X_t^{1-R}]."""

    slope: float
    stderr: float
    n_paths: int
    times: np.ndarray
    log_means: np.ndarray

    def within(self, target: float, n_se: float = 3.0, floor: float = 1e-12) -> bool:
        return abs(self.slope - target) <= max(n_se * self.stderr, floor)


def mc_drift_check(market: Market, strat: ProportionalStrategy, nu: float,
                   R: float, n_paths: int, horizon: float, seed: int,
                   n_times: int = 21, n_batches: int = 50) -> DriftCheckReport:
    """Monte Carlo slope of log-mean e^{-nu t} X_t^{1-R} against t.

    Wealth is simulated from the exact GBM solution (no discretisation error),
    with a counter-based Philox generator keyed by the seed so results are
    reproducible and independent of scheduling.  The standard error comes from
    slopes over independent path batches.

    The slope estimates -H_nu(pi, xi).

    Raises
    ------
    ExperimentError
        If the squared times underflow to 0 (a tiny horizon) or a log mean
        is not finite (X_t^{1-R} overflows over a long horizon).
    """
    if n_paths < 1000:
        raise InvalidParameters("n_paths must be at least 1000")
    m = (market.r + strat.pi * (market.mu - market.r) - strat.xi
         - strat.pi**2 * market.sigma**2 / 2.0)
    s = abs(strat.pi) * market.sigma
    times = np.linspace(0.0, horizon, n_times)
    if not np.dot(times, times) > 0.0:  # polyfit scales by this norm
        raise ExperimentError(f"horizon {horizon} is too short to fit a slope")
    dts = np.diff(times)
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((n_paths, n_times - 1))
    log_x = np.concatenate(
        [np.zeros((n_paths, 1)),
         np.cumsum(m * dts + s * np.sqrt(dts) * z, axis=1)],
        axis=1,
    )
    # Over a long horizon X_t^{1-R} overflows; fit_slope reports the
    # non-finite log means as an ExperimentError, not as numpy warnings.
    with np.errstate(over="ignore"):
        y = np.exp((1.0 - R) * log_x)  # X_t^{1-R} with x0 = 1

    def fit_slope(values: np.ndarray) -> float:
        # values: (paths, times); slope of log mean(e^{-nu t} y) on t
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            logmean = np.log(values.mean(axis=0)) - nu * times
        if not np.isfinite(logmean).all():
            raise ExperimentError(f"log means over horizon {horizon} are not finite")
        coeffs = np.polyfit(times, logmean, 1)
        return float(coeffs[0])

    slope = fit_slope(y)
    batch = max(n_paths // n_batches, 1)
    batch_slopes = [
        fit_slope(y[i * batch:(i + 1) * batch])
        for i in range(n_batches)
        if len(y[i * batch:(i + 1) * batch]) > 0
    ]
    stderr = float(np.std(batch_slopes, ddof=1) / math.sqrt(len(batch_slopes)))
    logmean = np.log(y.mean(axis=0)) - nu * times
    return DriftCheckReport(slope=slope, stderr=stderr, n_paths=n_paths,
                            times=times, log_means=logmean)
