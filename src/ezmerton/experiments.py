"""Scripted experiments: counterexamples, sweeps, policy search, verification.

Each experiment returns a report dataclass with `rows()` (CSV-ready dicts) and
`summary()` (JSON-ready dict); the CLI serialises them uniformly.  The names
under which they run, and their parameters, live in the CLI's registry.

The oscillating-consumption counterexamples use the on/off stream supported on
the odd unit intervals A^c, A = union of [2n, 2n+1): the discounted-form value
is a convergent one-signed integral, while the difference-form integrand has
positive and negative parts that both grow linearly in the horizon, so the
difference form assigns no value at all.  Both integrands are exponentials on
each unit block, so their block integrals are taken in closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import closed_form, solver
from .closed_form import (
    BubbleFlag,
    ProportionalStrategy,
    crra_bubble_quantities,
    candidate_policy,
    deterministic_utility,
    exponential_stream_utility,
    optimal_consumption_rate,
    PiecewiseExponentialStream,
)
from .errors import (
    DegenerateDenominator,
    ExperimentError,
    IllPosed,
    InvalidParameters,
    UnsupportedRegime,
    WellPosed,
)
from .lattice import AdaptedGrid, build_lattice
from .preferences import Market, Preferences, numeraire_shift

__all__ = [
    "CounterexampleReport",
    "SweepCell",
    "GridSearchReport",
    "AversionReport",
    "DivergenceReport",
    "HJBSample",
    "VerificationReport",
    "crra_counterexample",
    "ezsdu_counterexample",
    "crra_oscillating_paths",
    "ezsdu_oscillating_paths",
    "transversality_sweep",
    "policy_grid_search",
    "aversion_demos",
    "wellposed_divergence",
    "verification_check",
]

#: Desk-scale proxy for +/- infinity (shared with the solver module).
DIVERGENCE_THRESHOLD = solver.DIVERGENCE_THRESHOLD

#: Most truncation levels of `wellposed_divergence`: n doubles per level, and
#: 1/n leaves the float range after 1024 levels.
MAX_DIVERGENCE_LEVELS = 1000

#: Relative tolerance of the supersolution falsifier in `verification_check`.
_CHECK_TOL = 1e-5


def _frac(t: np.ndarray) -> np.ndarray:
    return t - np.floor(t)


def _in_consumption_blocks(t: np.ndarray) -> np.ndarray:
    """True on A^c = union of [2n+1, 2n+2), where consumption is on."""
    return np.floor(t).astype(int) % 2 == 1


def crra_oscillating_paths(delta: float, R: float):
    """Integrand and difference-form path of the additive counterexample.

    Returns (u_of_c, v_delta): u_of_c(t) = c(t)^{1-R}/(1-R) is the utility
    flow 2 delta/(1-R) e^{delta(ceil(t)-t)} on A^c and zero on A, and
    v_delta(t) = e^{delta*frac(t)} / (1-R) on A, e^{-delta*frac(t)} / (1-R)
    on A^c.
    """
    if delta <= 0.0:
        raise InvalidParameters("the counterexample needs delta > 0")

    def u_of_c(t):
        t = np.asarray(t, dtype=float)
        on = _in_consumption_blocks(t)
        out = np.where(
            on, 2.0 * delta / (1.0 - R) * np.exp(delta * (np.ceil(t) - t)), 0.0
        )
        return float(out) if out.ndim == 0 else out

    def v_delta(t):
        t = np.asarray(t, dtype=float)
        sign = np.where(_in_consumption_blocks(t), -1.0, 1.0)
        out = np.exp(delta * _frac(t) * sign) / (1.0 - R)
        return float(out) if out.ndim == 0 else out

    return u_of_c, v_delta


def ezsdu_oscillating_paths(prefs: Preferences):
    """Recursive-utility analogue of `crra_oscillating_paths`.

    Returns (flow, v_delta, discounted_integrand): flow(t) is
    b c(t)^{1-S}/(1-S) = 2 delta/(1-S) e^{delta(ceil(t)-t)} on A^c;
    v_delta(t) = exp(delta*theta*frac(t)*(+1 on A, -1 on A^c)) / (1-R); and
    discounted_integrand(t) is the one-signed discounted aggregator evaluated
    along V(t) = e^{-delta*theta*t} v_delta(t).
    """
    delta, R, S = prefs.delta, prefs.R, prefs.S
    theta, rho = prefs.theta, prefs.rho
    if delta <= 0.0:
        raise InvalidParameters("the counterexample needs delta > 0")

    def flow(t):
        t = np.asarray(t, dtype=float)
        on = _in_consumption_blocks(t)
        out = np.where(
            on, 2.0 * delta / (1.0 - S) * np.exp(delta * (np.ceil(t) - t)), 0.0
        )
        return float(out) if out.ndim == 0 else out

    def v_delta(t):
        t = np.asarray(t, dtype=float)
        sign = np.where(_in_consumption_blocks(t), -1.0, 1.0)
        out = np.exp(delta * theta * _frac(t) * sign) / (1.0 - R)
        return float(out) if out.ndim == 0 else out

    def discounted_integrand(t):
        t = np.asarray(t, dtype=float)
        w = np.exp(-delta * theta * t) * ((1.0 - R) * v_delta(t))
        out = np.exp(-delta * t) * flow(t) * np.power(w, rho)
        return float(out) if out.ndim == 0 else out

    return flow, v_delta, discounted_integrand


@dataclass
class CounterexampleReport:
    """Partial integrals of the difference-form integrand and the
    (convergent) discounted value."""

    discounted_value_at_0: float
    T_grid: list[float]
    positive_part_partials: list[float]
    negative_part_partials: list[float]
    positive_slope: float
    negative_slope: float
    discounted_partials: list[float]

    def rows(self):
        return [
            {
                "T": T,
                "positive_part": p,
                "negative_part": n,
                "discounted_partial": d,
            }
            for T, p, n, d in zip(
                self.T_grid, self.positive_part_partials,
                self.negative_part_partials, self.discounted_partials,
            )
        ]

    def summary(self):
        return {
            "discounted_value_at_0": self.discounted_value_at_0,
            "positive_slope": self.positive_slope,
            "negative_slope": self.negative_slope,
        }


def _slope(x: list[float], y: list[float]) -> float:
    """OLS slope of y on x."""
    return float(np.polyfit(np.asarray(x, dtype=float), np.asarray(y, dtype=float), 1)[0])


def _oscillating_blocks(delta: float, theta: float, kappa: float, n_blocks: int):
    """Exact integrals over each unit block [j, j+1], j = 0..n_blocks-1.

    Returns the block integrals (positive part, negative part, discounted) of
    the on/off stream, with kappa = 1/(1-R) and theta = 1 for the additive
    case.  With f = t - j every integrand is a constant times e^{lambda f},
    because 1 + theta*rho = theta:

    - on (j odd): the difference-form integrand is
      delta theta kappa (2e^delta - 1) e^{-delta theta f}, the discounted one
      2 delta theta kappa e^{delta(1 - theta j)} e^{-2 delta theta f};
    - off (j even): the difference-form integrand is
      -delta theta kappa e^{delta theta f}, the discounted one is zero.
    """
    j = np.arange(n_blocks)
    on = j % 2 == 1
    diff = np.where(on, kappa * (2.0 * math.exp(delta) - 1.0) * -math.expm1(-delta * theta),
                    -kappa * math.expm1(delta * theta))
    disc = np.where(on, kappa * -math.expm1(-2.0 * delta * theta)
                    * np.exp(delta * (1.0 - theta * j)), 0.0)
    # The difference-form integrand keeps one sign on each block (the sign of
    # kappa on the on blocks, the opposite one off), so its positive and
    # negative parts integrate to max(+-I, 0) block by block.
    return np.maximum(diff, 0.0), np.maximum(-diff, 0.0), disc


def _oscillating_report(pos_blocks: np.ndarray, neg_blocks: np.ndarray,
                        disc_blocks: np.ndarray, T_grid: list[float]) -> CounterexampleReport:
    """Partial integrals at the horizons T_grid from the unit-block integrals."""
    pos_cum = np.concatenate([[0.0], np.cumsum(pos_blocks)])
    neg_cum = np.concatenate([[0.0], np.cumsum(neg_blocks)])
    disc_cum = np.concatenate([[0.0], np.cumsum(disc_blocks)])

    pos_partials = [float(pos_cum[int(T)]) for T in T_grid]
    neg_partials = [float(neg_cum[int(T)]) for T in T_grid]
    disc_partials = [float(disc_cum[int(T)]) for T in T_grid]

    # Geometric closure of the one-signed discounted integral beyond T_max.
    b1, b2 = disc_blocks[-4] + disc_blocks[-3], disc_blocks[-2] + disc_blocks[-1]
    total = float(disc_cum[-1])
    if b1 != 0.0:
        ratio = b2 / b1
        if 0.0 < ratio < 1.0:
            total += b2 * ratio / (1.0 - ratio)

    return CounterexampleReport(
        discounted_value_at_0=total,
        T_grid=T_grid,
        positive_part_partials=pos_partials,
        negative_part_partials=neg_partials,
        positive_slope=_slope(T_grid, pos_partials),
        negative_slope=_slope(T_grid, neg_partials),
        discounted_partials=disc_partials,
    )


def _counterexample(delta: float, theta: float, R: float, T_grid) -> CounterexampleReport:
    """The on/off counterexample at theta (1 for additive utility)."""
    if delta <= 0.0:
        raise InvalidParameters("the counterexample needs delta > 0")
    T_grid = [float(T) for T in T_grid]
    if len(T_grid) < 8:
        raise InvalidParameters("need at least 8 horizons for the slope fit")
    if any(T != int(T) or T <= 0 for T in T_grid):
        raise InvalidParameters("horizons must be positive integers")
    if len(set(T_grid)) < 2:
        raise InvalidParameters("the slope fit needs at least two distinct horizons")
    if max(T_grid) < 4:
        raise InvalidParameters(
            "the tail closure needs a largest horizon of at least 4 unit blocks")
    blocks = _oscillating_blocks(delta, theta, 1.0 / (1.0 - R), int(max(T_grid)))
    return _oscillating_report(*blocks, T_grid)


def crra_counterexample(delta: float, R: float, T_grid) -> CounterexampleReport:
    """Additive-utility stream that the difference form cannot evaluate.

    The discounted value integral converges (its closed-form block integrals
    sum to the time-0 value 1/(1-R)); the positive and negative parts of the
    difference-form integrand both grow linearly in the horizon.
    """
    return _counterexample(delta, 1.0, R, T_grid)


def ezsdu_counterexample(prefs: Preferences, T_grid) -> CounterexampleReport:
    """Recursive-utility analogue of `crra_counterexample` (theta in (0,1))."""
    if not (0.0 < prefs.theta < 1.0):
        raise UnsupportedRegime("counterexample stated for theta in (0, 1)")
    return _counterexample(prefs.delta, prefs.theta, prefs.R, T_grid)


# ---------------------------------------------------------------------------
# Transversality sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepCell:
    """One consumption fraction in the additive-utility transversality sweep.

    bubble.is_bubble records an *admitted* bubble: the sign anomaly
    (value opposite to the utility flow) together with the transversality
    condition H_nu > 0; solutions failing transversality are excluded from
    the admissible set, so they cannot be admitted as bubbles.
    """

    pi: float
    xi: float
    nu: float
    H_nu_value: float
    transversality_ok: bool
    K_or_B: float
    bubble: BubbleFlag
    evaluable: bool

    def as_row(self):
        return {
            "pi": self.pi,
            "xi": self.xi,
            "nu": self.nu,
            "H_nu": self.H_nu_value,
            "transversality_ok": self.transversality_ok,
            "K": self.K_or_B,
            "is_bubble": self.bubble.is_bubble,
            "evaluable": self.evaluable,
        }


def transversality_sweep(delta: float, R: float, market: Market, nu: float,
                         xi_grid) -> list[SweepCell]:
    """Sweep consumption fractions at pi_hat under a nu-transversality rule.

    For each xi: the decay rate H_nu(pi_hat, xi), the transversality flag,
    the additive-utility coefficient K(xi), the evaluability flag
    H_delta(pi_hat, xi) > 0, and the admitted-bubble flag.
    """
    cells = []
    for xi in xi_grid:
        xi = float(xi)
        try:
            q = crra_bubble_quantities(delta, R, market, xi, nu)
        except DegenerateDenominator:
            continue  # xi sits exactly on the root of H_delta
        admitted = q.flag.is_bubble and q.transversality_ok
        cells.append(SweepCell(
            pi=market.sharpe / (market.sigma * R), xi=xi, nu=nu, H_nu_value=q.H_nu,
            transversality_ok=q.transversality_ok,
            K_or_B=q.K,
            bubble=BubbleFlag(is_bubble=admitted,
                              value_sign=q.flag.value_sign,
                              aggregator_sign=q.flag.aggregator_sign),
            evaluable=q.H_delta > 0.0,
        ))
    return cells


# ---------------------------------------------------------------------------
# Policy grid search
# ---------------------------------------------------------------------------

@dataclass
class GridSearchReport:
    pi_grid: np.ndarray
    xi_grid: np.ndarray
    values: np.ndarray          # (len(pi_grid), len(xi_grid)), nan where masked
    not_evaluable: np.ndarray   # boolean mask, True where H <= 0
    argmax_pi: float
    argmax_xi: float
    max_value: float

    def rows(self):
        for i, pi in enumerate(self.pi_grid):
            for j, xi in enumerate(self.xi_grid):
                yield {
                    "pi": float(pi),
                    "xi": float(xi),
                    "value": float(self.values[i, j]),
                    "evaluable": bool(~self.not_evaluable[i, j]),
                }

    def summary(self):
        return {
            "argmax_pi": self.argmax_pi,
            "argmax_xi": self.argmax_xi,
            "max_value": self.max_value,
            "masked_cells": int(self.not_evaluable.sum()),
            "total_cells": int(self.not_evaluable.size),
        }


def policy_grid_search(prefs: Preferences, market: Market, pi_grid,
                       xi_grid) -> GridSearchReport:
    """Brute-force argmax of the proportional-strategy value at unit wealth.

    Cells with H_{delta*theta} <= 0 are masked as not evaluable.  Serves as
    the independent oracle for `candidate_policy`.

    Raises
    ------
    UnsupportedRegime
        Unless theta is in (0, 1).
    IllPosed
        If eta <= 0.
    """
    if not (0.0 < prefs.theta < 1.0):
        raise UnsupportedRegime("grid search stated for theta in (0, 1)")
    if not optimal_consumption_rate(prefs, market).well_posed:
        raise IllPosed("eta <= 0")
    pi_arr = np.asarray(pi_grid, dtype=float)
    xi_arr = np.asarray(xi_grid, dtype=float)
    if np.any(xi_arr <= 0.0):
        raise InvalidParameters("xi grid must be strictly positive")
    P, X = np.meshgrid(pi_arr, xi_arr, indexing="ij")
    H = closed_form._H(prefs.delta * prefs.theta, market.r, market.sharpe,
                       market.sigma, prefs.R, P, X)
    masked = H <= 0.0
    values = np.full(H.shape, np.nan)
    ok = ~masked
    values[ok] = (
        (prefs.b * prefs.theta * X[ok] ** (1.0 - prefs.S) / H[ok]) ** prefs.theta
        / (1.0 - prefs.R)
    )
    if not ok.any():
        raise ExperimentError("every grid cell is non-evaluable")
    flat = np.where(ok, values, -np.inf)
    i, j = np.unravel_index(np.argmax(flat), flat.shape)
    return GridSearchReport(
        pi_grid=pi_arr, xi_grid=xi_arr, values=values, not_evaluable=masked,
        argmax_pi=float(pi_arr[i]), argmax_xi=float(xi_arr[j]),
        max_value=float(values[i, j]),
    )


# ---------------------------------------------------------------------------
# Risk / temporal aversion demos
# ---------------------------------------------------------------------------

@dataclass
class AversionReport:
    """Two Jensen gaps: across states (risk) and across time (temporal)."""

    expected_y_power: float
    risk_risky_value: float
    risk_certain_value: float
    risk_gap: float
    temporal_stream_value: float
    temporal_average_value: float
    temporal_gap: float

    def rows(self):
        return [
            {"demo": "risk", "lhs": self.risk_risky_value,
             "rhs": self.risk_certain_value, "gap": self.risk_gap},
            {"demo": "temporal", "lhs": self.temporal_stream_value,
             "rhs": self.temporal_average_value, "gap": self.temporal_gap},
        ]

    def summary(self):
        return {
            "risk_gap": self.risk_gap,
            "temporal_gap": self.temporal_gap,
            "expected_y_power": self.expected_y_power,
        }


def aversion_demos(prefs: Preferences,
                   y_values: tuple[float, float] = (0.5, 1.5),
                   temporal_levels: tuple[float, float] = (0.5, 1.5),
                   temporal_switch_time: float = 1.0) -> AversionReport:
    """Show that R prices risk across states and S variation across time.

    Risk demo: an equiprobable two-point wealth-of-consumption level Y with no
    time variation is worth no more than its mean level; the gap is governed
    by R.  Temporal demo: a two-level deterministic stream is worth no more
    than its discount-weighted average level; the gap is governed by S.
    Both gaps are reported as (certain - risky) >= 0.  Both demos are pure
    preference statements, so no market enters.

    Raises
    ------
    UnsupportedRegime
        If theta <= 0 or delta <= 0 (the undiscounted levels need delta > 0).
    InvalidParameters
        If a level in y_values or temporal_levels is negative.
    """
    if prefs.theta <= 0.0 or prefs.delta <= 0.0:
        raise UnsupportedRegime("demos need theta > 0 and delta > 0")
    y1, y2 = y_values
    j_y = 0.5 * (exponential_stream_utility(prefs, y1, 0.0, 0.0)
                 + exponential_stream_utility(prefs, y2, 0.0, 0.0))
    ey = 0.5 * (y1 + y2)
    j_mean = exponential_stream_utility(prefs, ey, 0.0, 0.0)
    ey_power = 0.5 * (y1 ** (1.0 - prefs.R) + y2 ** (1.0 - prefs.R))

    c1, c2 = temporal_levels
    t0 = temporal_switch_time
    stream = PiecewiseExponentialStream.two_level(c1, c2, t0)
    avg = c1 * (1.0 - math.exp(-prefs.delta * t0)) + c2 * math.exp(-prefs.delta * t0)
    j_stream = deterministic_utility(prefs, stream, 0.0)
    j_avg = exponential_stream_utility(prefs, avg, 0.0, 0.0)
    return AversionReport(
        expected_y_power=ey_power,
        risk_risky_value=j_y,
        risk_certain_value=j_mean,
        risk_gap=j_mean - j_y,
        temporal_stream_value=j_stream,
        temporal_average_value=j_avg,
        temporal_gap=j_avg - j_stream,
    )


# ---------------------------------------------------------------------------
# Ill-posedness probes
# ---------------------------------------------------------------------------

@dataclass
class DivergenceReport:
    branch: str                       # "supremum_explodes" (R<1) or "bound_collapses" (R>1)
    probe: list[float]                # xi values or truncation levels n
    values: list[float]
    verdict: str                      # "diverges_to_plus_inf" | "diverges_to_minus_inf"
    threshold: float

    def rows(self):
        key = "xi" if self.branch == "supremum_explodes" else "n"
        return [{key: p, "value": v} for p, v in zip(self.probe, self.values)]

    def summary(self):
        return {"branch": self.branch, "verdict": self.verdict,
                "threshold": self.threshold, "last_value": self.values[-1]}


def wellposed_divergence(prefs: Preferences, market: Market,
                         probe_offsets=None, n_levels: int = 13) -> DivergenceReport:
    """Demonstrate that eta <= 0 makes the value supremum infinite.

    R < 1: evaluate proportional strategies with xi decreasing towards
    -eta*S/(1-S), where H_{delta*theta} vanishes; the values exceed every
    threshold, so the supremum is +inf.  R > 1: shift the accounting unit by
    alpha_n so the shifted problem has eta_n = 1/n, and report the resulting
    upper-bound sequence n^{theta*S} b^theta x^{1-R}/(1-R), which decreases
    to -inf.

    Raises
    ------
    InvalidParameters
        If probe_offsets is empty or n_levels is not an integer in
        [1, MAX_DIVERGENCE_LEVELS].
    WellPosed
        If eta > 0 (nothing to demonstrate).
    """
    if probe_offsets is not None and len(probe_offsets) == 0:
        raise InvalidParameters("probe_offsets must not be empty")
    if not (isinstance(n_levels, numbers.Integral)
            and 1 <= n_levels <= MAX_DIVERGENCE_LEVELS):
        raise InvalidParameters(
            f"n_levels must be an integer in [1, {MAX_DIVERGENCE_LEVELS}], got {n_levels!r}"
        )
    report = optimal_consumption_rate(prefs, market)
    if report.well_posed:
        raise WellPosed(f"eta = {report.eta} > 0; the problem is well-posed")
    if not (0.0 < prefs.theta < 1.0):
        raise UnsupportedRegime("the probe is stated for theta in (0, 1)")
    eta = report.eta
    if prefs.R < 1.0:
        pi_hat = market.sharpe / (market.sigma * prefs.R)
        xi_star = -eta * prefs.S / (1.0 - prefs.S)
        offsets = (probe_offsets if probe_offsets is not None
                   else [10.0 ** (-k) for k in range(1, 13)])
        xis, values = [], []
        for off in offsets:
            xi = xi_star + float(off)
            strat = ProportionalStrategy(pi=pi_hat, xi=xi)
            values.append(closed_form.proportional_utility(
                prefs, market, strat, 1.0, 0.0))
            xis.append(xi)
        if max(values) <= DIVERGENCE_THRESHOLD:
            raise ExperimentError("probe did not cross the divergence threshold")
        return DivergenceReport(
            branch="supremum_explodes", probe=xis, values=values,
            verdict="diverges_to_plus_inf", threshold=DIVERGENCE_THRESHOLD,
        )
    # R > 1: accounting-unit shift r_n = r + alpha_n with eta_n = 1/n.
    ns, bounds = [], []
    n = 1
    for _ in range(n_levels):
        alpha = prefs.S / (prefs.S - 1.0) * (1.0 / n - eta)
        shifted = Market(r=market.r + alpha, mu=market.mu + alpha,
                         sigma=market.sigma)
        eta_n = optimal_consumption_rate(prefs, shifted).eta
        if abs(eta_n - 1.0 / n) > 1e-9 * (1.0 + 1.0 / n):
            raise ExperimentError("shift construction failed to land eta_n = 1/n")
        bounds.append(candidate_policy(prefs, shifted).value(1.0))
        ns.append(n)
        n *= 2
    if bounds[-1] >= -DIVERGENCE_THRESHOLD:
        raise ExperimentError("bound sequence did not cross the threshold")
    return DivergenceReport(
        branch="bound_collapses", probe=[float(n) for n in ns], values=bounds,
        verdict="diverges_to_minus_inf", threshold=DIVERGENCE_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# Verification of the candidate policy
# ---------------------------------------------------------------------------

@dataclass
class HJBSample:
    x: float
    y: float
    c: float
    pi: float
    A1: float
    A2: float
    A3: float


@dataclass
class VerificationReport:
    """Perturbed dynamic-programming identities and lattice supersolution checks.

    A1 (consumption part) and A2 (investment part) are <= 0 with equality at
    c = eta*x and pi = lambda/(sigma R); A3 vanishes identically.  The checks
    run in the shifted accounting units with delta = 0.
    """

    n_samples: int
    max_A1: float
    max_A2: float
    max_abs_A3: float
    at_optimum: HJBSample
    worst_samples: list[HJBSample]
    strategy_verdicts: list[dict]

    def rows(self):
        out = [{"kind": "optimum", "x": self.at_optimum.x, "y": self.at_optimum.y,
                "c": self.at_optimum.c, "pi": self.at_optimum.pi,
                "A1": self.at_optimum.A1, "A2": self.at_optimum.A2,
                "A3": self.at_optimum.A3}]
        for s in self.worst_samples:
            out.append({"kind": "worst", "x": s.x, "y": s.y, "c": s.c,
                        "pi": s.pi, "A1": s.A1, "A2": s.A2, "A3": s.A3})
        for v in self.strategy_verdicts:
            out.append({"kind": "strategy", **v})
        return out

    def summary(self):
        return {
            "n_samples": self.n_samples,
            "max_A1": self.max_A1,
            "max_A2": self.max_A2,
            "max_abs_A3": self.max_abs_A3,
            "supersolution_count": sum(
                1 for v in self.strategy_verdicts
                if v["classification"] in ("supersolution", "solution")
            ),
            "strategy_count": len(self.strategy_verdicts),
        }


def verification_check(prefs: Preferences, market: Market, epsilon: float,
                       n_strategies: int, seed: int, n_samples: int = 10_000,
                       dt: float = 0.01, n_steps: int = 200) -> VerificationReport:
    """Check the candidate value function against perturbed optimality identities.

    Works in the shifted accounting units where delta = 0.  Samples random
    (x, y, c, pi) points for the three identities, then builds random
    constant-proportional lattice strategies and verifies that the perturbed
    candidate value V(X + eps*Y) passes the supersolution falsifier (at
    relative tolerance `_CHECK_TOL`) for the consumption C + eta*eps*Y.

    Raises
    ------
    UnsupportedRegime / IllPosed
        Propagated from the candidate policy when theta or eta disqualify.
    ExperimentError
        If an identity value is not finite (an epsilon so large that the
        perturbed wealth's powers overflow), or the Sharpe ratio is not
        positive.
    """
    if epsilon <= 0.0:
        raise InvalidParameters("epsilon must be positive")
    chi = prefs.delta / (1.0 - prefs.S)
    prefs0, market0 = numeraire_shift(prefs, market, chi)
    policy = candidate_policy(prefs0, market0)
    eta = policy.eta
    lam, sig, r0 = market0.sharpe, market0.sigma, market0.r
    R, S, b, rho = prefs0.R, prefs0.S, prefs0.b, prefs0.rho
    Kc = b**prefs0.theta * eta ** (-prefs0.theta * S)

    def vp(z):
        return Kc * z ** (-R)

    def vpp(z):
        return -R * Kc * z ** (-R - 1.0)

    def vhat(z):
        return Kc * z ** (1.0 - R) / (1.0 - R)

    def A1(c, x, y):
        z = x + epsilon * y
        ce = c + eta * epsilon * y
        return (b * ce ** (1.0 - S) / (1.0 - S) * ((1.0 - R) * vhat(z)) ** rho
                - vp(z) * (ce + eta * S / (1.0 - S) * z))

    def A2(pi, x, y):
        z = x + epsilon * y
        return (vp(z) * (x * pi * sig * lam + lam**2 / R * epsilon * y)
                + 0.5 * vpp(z) * (pi * sig * x + lam / R * epsilon * y) ** 2
                + lam**2 / 2.0 * vp(z) ** 2 / vpp(z))

    def A3(x, y):
        z = x + epsilon * y
        return (z * r0 * vp(z) - lam**2 / 2.0 * vp(z) ** 2 / vpp(z)
                + eta * S / (1.0 - S) * z * vp(z))

    rng = np.random.Generator(np.random.Philox(seed))
    x = np.exp(rng.uniform(math.log(0.2), math.log(5.0), n_samples))
    y = np.exp(rng.uniform(math.log(0.2), math.log(5.0), n_samples))
    c = rng.uniform(0.0, 3.0 * eta * x)
    pi = rng.uniform(-1.0, 2.0, n_samples)
    c0, pi0 = eta, lam / (sig * R)  # the optimum at x = y = 1
    # in numpy floats, where an overflow reads inf instead of raising
    with np.errstate(all="ignore"):
        a1, a2, a3 = A1(c, x, y), A2(pi, x, y), A3(x, y)
        one = np.float64(1.0)
        opt = [float(A1(c0, one, one)), float(A2(pi0, one, one)), float(A3(one, one))]
    if not all(np.isfinite(a).all() for a in (a1, a2, a3, opt)):
        raise ExperimentError(
            f"an optimality identity is not finite at epsilon = {epsilon}")
    order1 = np.argsort(a1)[::-1][:5]
    worst = [
        HJBSample(x=float(x[i]), y=float(y[i]), c=float(c[i]), pi=float(pi[i]),
                  A1=float(a1[i]), A2=float(a2[i]), A3=float(a3[i]))
        for i in order1
    ]
    at_opt = HJBSample(x=1.0, y=1.0, c=c0, pi=pi0, A1=opt[0], A2=opt[1], A3=opt[2])

    if market0.sharpe <= 0.0:
        raise ExperimentError(
            "strategy checks assume a positive Sharpe ratio so the candidate "
            "and test strategies load on shocks with the same sign"
        )
    verdicts = []
    # Y is the candidate's own wealth on the same recombining nodes (both
    # strategies load on one shock with the same sign).
    y = build_lattice(market0, policy.strategy, dt, n_steps, x0=1.0).wealth.data
    for _ in range(n_strategies):
        pi_s = float(rng.uniform(0.05, 1.5))
        xi_s = float(rng.uniform(0.005, 0.1))
        strat = ProportionalStrategy(pi=pi_s, xi=xi_s)
        lat = build_lattice(market0, strat, dt, n_steps, x0=1.0)
        x = lat.wealth.data
        report = solver.check_solution(
            AdaptedGrid.from_packed(vhat(x + epsilon * y)),
            AdaptedGrid.from_packed(xi_s * x + eta * epsilon * y), lat, prefs0,
            tol=_CHECK_TOL, space="V",
        )
        verdicts.append({
            "pi": pi_s, "xi": xi_s,
            "classification": report.classification,
            "defect_min": report.defect_min,
            "defect_max": report.defect_max,
        })
    return VerificationReport(
        n_samples=n_samples,
        max_A1=float(np.max(a1)),
        max_A2=float(np.max(a2)),
        max_abs_A3=float(np.max(np.abs(a3))),
        at_optimum=at_opt,
        worst_samples=worst,
        strategy_verdicts=verdicts,
    )
