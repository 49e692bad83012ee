"""Recombining binomial lattice for wealth under constant-proportional strategies.

One step of log-wealth under the strategy (pi, xi) is normal with mean m*dt and
variance s^2*dt, where

    m = r + pi*(mu - r) - xi - pi^2 sigma^2 / 2,      s = |pi| * sigma.

The lattice matches both moments exactly with equal probabilities: each
step moves log-wealth by m dt + s sqrt(dt) or m dt - s sqrt(dt), each with
probability 1/2, so there is no O(dt) drift bias to pollute fixed-point
accuracy.  Wealth recombines: the node (k, j) with j up-moves has wealth
x0 * exp(m k dt + s sqrt(dt) (2j - k)).  A `Lattice` stores only dt, the
number of steps, x0, (m, s) and the strategy; `Lattice.wealth` forms the
wealth grid on each read, so a caller that needs it twice holds it.

Every sweep over the lattice relies on the probability 1/2: a one-step
expectation is the neighbour mean ½(next[j+1] + next[j]), which rounds
exactly like ½next[j+1] + ½next[j] because halving is exact away from
subnormals.

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
The weights of steps 0..254, one block of 256 KB, do not depend on the
lattice: `unconditional_expectation` forms them on its first call and keeps
them, read-only, for every later one, so the cache never grows past that
block.
`mc_drift_check` provides an independent Monte Carlo oracle for the decay
rate of e^{-nu t} X_t^{1-R}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .closed_form import ProportionalStrategy
from .errors import (DimensionMismatch, ExperimentError, InvalidParameters,
                     InvalidStep, NotEvaluable)
from .preferences import Market, Preferences, transformed_consumption

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
    "mc_drift_check",
    "DriftCheckReport",
]


class AdaptedGrid:
    """One value per lattice node, packed step by step into one flat array.

    `data[k(k+1)/2 + j]` is the value at node (k, j), j = number of up-moves.
    `values[k]` is a view of step k into `data`, so writes through `values`
    change the grid.  A grid carries no sign domain: `solver.check_solution`
    checks the one its space implies.

    Raises
    ------
    DimensionMismatch
        If layer k of `values` does not hold exactly k+1 numbers.
    """

    def __init__(self, values):
        layers = [np.asarray(v, dtype=float) for v in values]
        for k, v in enumerate(layers):
            if v.shape != (k + 1,):
                raise DimensionMismatch(
                    f"layer {k} must hold {k + 1} values, got shape {v.shape}"
                )
        self._set(np.concatenate(layers) if layers else np.empty(0))

    @classmethod
    def from_packed(cls, data: np.ndarray) -> "AdaptedGrid":
        """Wrap a packed array (not copied) as a grid.

        Raises
        ------
        DimensionMismatch
            If data is not one-dimensional with a triangular number of entries.
        """
        grid = cls.__new__(cls)
        grid._set(np.asarray(data, dtype=float))
        return grid

    def _set(self, data: np.ndarray) -> None:
        n = (math.isqrt(8 * data.size + 1) - 3) // 2
        if data.ndim != 1 or (n + 1) * (n + 2) // 2 != data.size:
            raise DimensionMismatch(
                f"packed grid needs a triangular number of values, got shape {data.shape}"
            )
        self.data = data
        self.n_steps = n
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

    def copy(self) -> "AdaptedGrid":
        return AdaptedGrid.from_packed(self.data.copy())

    def scaled(self, factor) -> "AdaptedGrid":
        """Nodewise scaling; factor may be a scalar or a per-step sequence."""
        factors = np.broadcast_to(np.asarray(factor, dtype=float), (self.n_steps + 1,))
        return AdaptedGrid.from_packed(self.per_node(factors) * self.data)

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.data)))


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial wealth lattice (immutable after build), with
    up-move probability 1/2.

    The lattice stores no grid: `wealth` is formed on each read, so a caller
    that reads it twice should hold it.
    """

    dt: float
    n_steps: int
    x0: float
    log_drift: float   # m, per unit time
    log_vol: float     # s, per sqrt(unit time)
    strategy: ProportionalStrategy

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def wealth(self) -> AdaptedGrid:
        """Node wealth x0 * exp(m k dt + s sqrt(dt) (2j - k)), a new grid.

        The exponent is built in the output one block of whole steps at a
        time, with the block's steps k and one block of scratch.  Packed
        index i = k(k+1)/2 + j gives 2j - k = 2i - k(k+2), exact in floating
        point.  Wealth beyond the float range is inf, without a numpy
        warning: the solver's order check rejects it.
        """
        out = np.empty(AdaptedGrid.span(self.n_steps).stop)
        scale = self.log_vol * math.sqrt(self.dt)
        for lo, hi in _step_blocks(0, self.n_steps):
            block = AdaptedGrid.span(lo, hi)
            logw = out[block]
            k = np.repeat(np.arange(lo, hi + 1, dtype=float), np.arange(lo + 1, hi + 2))
            logw[...] = np.arange(block.start, block.stop, dtype=float)
            logw *= 2.0
            scratch = k + 2.0
            scratch *= k
            logw -= scratch
            logw *= scale
            np.multiply(k, self.log_drift, out=scratch)
            scratch *= self.dt
            logw += scratch
            with np.errstate(over="ignore"):  # inf wealth fails the order check
                np.exp(logw, out=logw)
                logw *= self.x0
        return AdaptedGrid.from_packed(out)


def _log_moments(market: Market, strat: ProportionalStrategy) -> tuple[float, float]:
    """(m, s): drift per unit time and volatility of log-wealth under strat."""
    m = (market.r + strat.pi * (market.mu - market.r) - strat.xi
         - strat.pi**2 * market.sigma**2 / 2.0)
    return m, abs(strat.pi) * market.sigma


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
    m, s = _log_moments(market, strat)
    return Lattice(dt=dt, n_steps=n_steps, x0=x0, log_drift=m, log_vol=s,
                   strategy=strat)


def candidate_lattice(prefs: Preferences, market: Market, dt: float,
                      n_steps: int, x0: float = 1.0) -> Lattice:
    """Lattice bound to the candidate optimal strategy (pi_hat, eta)."""
    policy = closed_form.candidate_policy(prefs, market)
    return build_lattice(market, policy.strategy, dt, n_steps, x0)


def step_expectation(lat: Lattice, values_next: np.ndarray) -> np.ndarray:
    """One-step conditional expectation: maps step-(k+1) values to step k.

    E[. | node (k, j)] = ½ next[j+1] + ½ next[j].
    """
    values_next = np.asarray(values_next, dtype=float)
    n = len(values_next)
    if values_next.ndim != 1 or n < 2 or n > lat.n_steps + 1:
        raise DimensionMismatch(
            f"expected a step layer of length 2..{lat.n_steps + 1}, got {n}"
        )
    return 0.5 * values_next[1:] + 0.5 * values_next[:-1]


#: Nodes per block of whole steps (256 KB of float64) in the passes that
#: stream over a grid: `Lattice.wealth`, `unconditional_expectation`, the
#: consumption transform and the solver's order check and residual.
_BLOCK_NODES = 1 << 15


def _block_last(lo: int) -> int:
    """Last step of the block of whole steps from lo: at most `_BLOCK_NODES`
    nodes, or else the single step lo."""
    # steps 0..j-1 hold j(j+1)/2 nodes, at most those before lo plus a block
    j = (math.isqrt(8 * (lo * (lo + 1) // 2 + _BLOCK_NODES) + 1) - 1) // 2
    return max(j - 1, lo)


def _step_blocks(first: int, last: int) -> list[tuple[int, int]]:
    """(lo, hi) runs of whole steps covering first..last in order, each of at
    most `_BLOCK_NODES` nodes or else a single step."""
    blocks = []
    lo = first
    while lo <= last:
        hi = min(_block_last(lo), last)
        blocks.append((lo, hi))
        lo = hi + 1
    return blocks


def _propagate_weights(w: np.ndarray, lo: int, hi: int, offset: int,
                       prev: np.ndarray | None) -> None:
    """Write the binomial(k, 1/2) weights of steps lo..hi into w, whose first
    value sits at packed index offset, from prev, the weights of step lo-1
    (None when lo = 0).

    weights_{k+1}[j] = ½(weights_k[j-1] + weights_k[j]), with the missing
    neighbour of either end taken as 0, one step at a time.
    """
    for k in range(lo, hi + 1):
        start = k * (k + 1) // 2 - offset
        nxt = w[start:start + k + 1]
        if k == 0:
            nxt[0] = 1.0
        else:
            np.add(prev[1:], prev[:-1], out=nxt[1:-1])
            nxt[0], nxt[-1] = prev[0], prev[-1]
            nxt *= 0.5
        prev = nxt


@functools.cache
def _first_block_weights() -> np.ndarray:
    """The binomial weights of the first block of whole steps, 0..254 (32 640
    nodes, 256 KB), packed and read-only.

    They do not depend on the lattice, so they are propagated once, on the
    first call, by `_propagate_weights`, and held for the life of the
    process: one block, whatever the lattices seen.
    """
    last = _block_last(0)
    w = np.empty(AdaptedGrid.span(last).stop)
    _propagate_weights(w, 0, last, 0, None)
    w.flags.writeable = False
    return w


def unconditional_expectation(lat: Lattice, grid: AdaptedGrid) -> np.ndarray:
    """E[grid at step k] for every k.

    The binomial(k, 1/2) node weights are taken one block of steps at a time
    and each block is multiplied into one block buffer and summed against the
    grid step by step in one call.  The first block's weights (steps 0..254)
    do not depend on the lattice: they are read from `_first_block_weights`,
    formed once per process.  Each later block propagates its weights forward
    from the step before it, which waits in a buffer of one layer, as
    `_propagate_weights` does.  So nothing of the grid's size is allocated,
    and the cache holds one block.
    """
    grid.check_shape(lat)
    n = lat.n_steps
    out = np.empty(n + 1)
    weights = np.empty(max(_BLOCK_NODES, n + 1))
    last = np.empty(n + 1)
    for lo, hi in _step_blocks(0, n):
        block = AdaptedGrid.span(lo, hi)
        size = block.stop - block.start
        if lo == 0:
            base = _first_block_weights()[:size]
        else:
            base = weights[:size]
            _propagate_weights(base, lo, hi, block.start, prev)
        prev = last[:hi + 1]  # the block's last step, read by the next block
        prev[...] = base[size - hi - 1:]
        w = np.multiply(base, grid.data[block], out=weights[:size])
        steps = np.arange(lo, hi + 1)
        out[lo:hi + 1] = np.add.reduceat(w, steps * (steps + 1) // 2 - block.start)
    return out


def consumption_grid(lat: Lattice) -> AdaptedGrid:
    """On-lattice consumption C = xi * X under the bound strategy, scaled in
    place in the one grid that reading the wealth forms.

    Wealth, and so C, that overflows is inf without a numpy warning, as in
    `Lattice.wealth`: the solver's order check rejects the grid it gives
    with its documented error.
    """
    C = lat.wealth
    with np.errstate(over="ignore"):
        C.data *= lat.strategy.xi
    return C


def transformed_consumption_grid(prefs: Preferences, lat: Lattice,
                                 C: AdaptedGrid) -> AdaptedGrid:
    """U = b*theta*e^{-delta t} C^{1-S} at every node of the lattice.

    One vectorised `transformed_consumption` call per block of whole steps,
    written into the output, with the discount factor taken once per step and
    repeated over its nodes.  Beyond the output the transform holds one
    block's temporaries.

    Raises
    ------
    DimensionMismatch
        If C does not live on the lattice.
    """
    C.check_shape(lat)
    out = np.empty_like(C.data)
    times = lat.times
    for lo, hi in _step_blocks(0, lat.n_steps):
        block = AdaptedGrid.span(lo, hi)
        out[block] = transformed_consumption(prefs, times[lo:hi + 1], C.data[block],
                                             repeats=np.arange(lo + 1, hi + 2))
    return AdaptedGrid.from_packed(out)


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


#: Paths per block in `mc_drift_check`; at 20 steps a block of draws is
#: 1.3 MB and a block of paths (21 times, plus a row of running sums) 1.4 MB.
_DRIFT_BLOCK_PATHS = 8192


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
    reproducible and independent of scheduling.  The normals come in blocks of
    paths from that one Philox stream, which continues path by path, so they
    are the numbers of a single (n_paths, n_times - 1) draw.  Each block turns
    into log-wealth increments in place, and its `cumsum` goes into one
    (block + 1, n_times) buffer, exponentiated there.  Blocks end at batch
    boundaries, and each is added into the running column sums of all paths
    and of its batch, which wait in row 0 of the buffer: numpy sums axis 0
    row by row, so these are the sums, and the means, of the whole path
    array.  The working set is one block of draws and one of paths, whatever
    n_paths is.  The standard error comes from slopes over independent path
    batches.

    The slope estimates -H_nu(pi, xi).

    Raises
    ------
    ExperimentError
        If the squared times underflow to 0 (a tiny horizon) or a log mean
        is not finite (X_t^{1-R} overflows over a long horizon).
    """
    if n_paths < 1000:
        raise InvalidParameters("n_paths must be at least 1000")
    m, s = _log_moments(market, strat)
    times = np.linspace(0.0, horizon, n_times)
    if not np.dot(times, times) > 0.0:  # polyfit scales by this norm
        raise ExperimentError(f"horizon {horizon} is too short to fit a slope")
    dts = np.diff(times)
    drift, vol = m * dts, s * np.sqrt(dts)
    batch = max(n_paths // n_batches, 1)
    n_full = max(min(n_batches, n_paths // batch), 0)  # the non-empty batches, all full
    batched = n_full * batch
    rng = np.random.Generator(np.random.Philox(seed))
    rows = min(n_paths, _DRIFT_BLOCK_PATHS)
    z = np.empty((rows, n_times - 1))
    # Row 0 carries a running column sum into each reduction; rows 1.. hold
    # one block of X_t^{1-R} paths, which all start at 1 (x0 = 1).
    buf = np.empty((rows + 1, n_times))
    buf[1:, 0] = 1.0
    total = np.zeros(n_times)
    batch_sums = np.zeros((n_full, n_times))
    start = 0
    # Over a long horizon X_t^{1-R} and its sums overflow; log_means reports
    # the non-finite log means as an ExperimentError, not as numpy warnings.
    with np.errstate(over="ignore"):
        while start < n_paths:
            stop = (start // batch + 1) * batch if start < batched else n_paths
            stop = min(stop, start + rows)
            draws = z[:stop - start]
            rng.standard_normal(out=draws)
            np.multiply(draws, vol, out=draws)
            np.add(draws, drift, out=draws)
            y = buf[1:stop - start + 1, 1:]
            np.cumsum(draws, axis=1, out=y)
            np.multiply(y, 1.0 - R, out=y)
            np.exp(y, out=y)
            block = buf[:stop - start + 1]
            sums = [total] if start >= batched else [batch_sums[start // batch], total]
            for acc in sums:  # acc + the block's rows, added row by row
                block[0] = acc
                np.add.reduce(block, axis=0, out=acc)
            start = stop

    def log_means(sums: np.ndarray, count: int) -> np.ndarray:
        # log mean(e^{-nu t} X_t^{1-R}); sums / count is numpy's mean
        with np.errstate(divide="ignore", invalid="ignore"):
            logmean = np.log(sums / count) - nu * times
        if not np.isfinite(logmean).all():
            raise ExperimentError(f"log means over horizon {horizon} are not finite")
        return logmean

    def fit_slope(logmean: np.ndarray) -> float:
        return float(np.polyfit(times, logmean, 1)[0])

    logmean = log_means(total, n_paths)
    slope = fit_slope(logmean)
    batch_slopes = [fit_slope(log_means(sums, batch)) for sums in batch_sums]
    stderr = float(np.std(batch_slopes, ddof=1) / math.sqrt(len(batch_slopes)))
    return DriftCheckReport(slope=slope, stderr=stderr, n_paths=n_paths,
                            times=times, log_means=logmean)
