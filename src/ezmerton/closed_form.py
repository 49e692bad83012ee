"""Closed-form quantities for constant-proportional strategies.

For the strategy that keeps a fraction pi of wealth in the risky asset and
consumes at rate xi*X, wealth is a geometric Brownian motion and everything of
interest is explicit.  The central rate is

    H_nu(pi, xi) = nu + (R - 1) * (r + lambda*sigma*pi - xi - pi^2 sigma^2 R / 2),

the decay rate of E[e^{-nu t} X_t^{1-R}]: the expectation behaves like
e^{-H_nu t}, so positivity of H governs both evaluability of the utility
recursion (nu = delta*theta) and transversality conditions (general nu).

When H = H_{delta*theta}(pi, xi) > 0 the strategy's utility process is

    V_t = e^{-delta*theta*t} (b*theta*xi^{1-S} / H)^theta X_t^{1-R} / (1-R),

and maximising the t = 0 value over (pi, xi) gives the candidate policy

    pi_hat = lambda / (sigma R),
    eta    = (1/S) (delta + (S-1) r + (S-1) lambda^2 / (2R)),

with value b^theta eta^{-theta S} x^{1-R} / (1-R).  eta > 0 is the
well-posedness condition.

The module also provides deterministic-stream utilities (piecewise-exponential
consumption, integrated exactly as a sum of closed-form segment integrals), the
difference-form coefficient roots, and the additive-utility (CRRA) bubble
quantities used by the transversality diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDenominator,
    DivergentIntegral,
    IllPosed,
    InvalidParameters,
    NotEvaluable,
    UnsupportedRegime,
)
from .preferences import Market, Preferences

__all__ = [
    "ProportionalStrategy",
    "CandidatePolicy",
    "EtaReport",
    "RootReport",
    "LabeledRoot",
    "BubbleFlag",
    "CrraBubbleReport",
    "PiecewiseExponentialStream",
    "decay_rate",
    "optimal_consumption_rate",
    "candidate_policy",
    "proportional_utility",
    "proportional_value_coefficient",
    "deterministic_utility",
    "exponential_stream_utility",
    "difference_form_roots",
    "max_transversal_consumption",
    "crra_bubble_quantities",
]


@dataclass(frozen=True)
class ProportionalStrategy:
    """Constant fractions: pi of wealth in the risky asset, xi consumed."""

    pi: float
    xi: float

    def __post_init__(self):
        if not (self.xi > 0.0):
            raise InvalidParameters(f"consumption fraction xi must be > 0, got {self.xi}")


def _H(nu: float, r: float, sharpe: float, sigma: float, R: float,
       pi, xi):
    return nu + (R - 1.0) * (r + sharpe * sigma * pi - xi - pi**2 * sigma**2 * R / 2.0)


def decay_rate(nu: float, prefs: Preferences, market: Market,
               strat: ProportionalStrategy) -> float:
    """H_nu(pi, xi): decay rate of E[e^{-nu t} X_t^{1-R}] under the strategy.

    Additive in nu: decay_rate(nu + c) = decay_rate(nu) + c exactly.
    """
    return _H(nu, market.r, market.sharpe, market.sigma, prefs.R,
              strat.pi, strat.xi)


@dataclass(frozen=True)
class EtaReport:
    """Candidate optimal consumption fraction with its decomposition.

    eta = phi/S + ((S-1)/S) * lambda^2/(2R), where phi = delta + r(S-1) is the
    impatience rate.  well_posed is the eta > 0 flag.
    """

    eta: float
    phi: float
    well_posed: bool


def optimal_consumption_rate(prefs: Preferences, market: Market) -> EtaReport:
    """Candidate optimal consumption fraction eta and impatience rate phi."""
    lam = market.sharpe
    eta = (prefs.delta + (prefs.S - 1.0) * market.r
           + (prefs.S - 1.0) * lam**2 / (2.0 * prefs.R)) / prefs.S
    phi = prefs.delta + market.r * (prefs.S - 1.0)
    return EtaReport(eta=eta, phi=phi, well_posed=eta > 0.0)


@dataclass(frozen=True)
class CandidatePolicy:
    """Optimal constant-proportional policy and its value coefficient.

    value_coefficient = b^theta eta^{-theta S} / (1-R), so the candidate value
    of initial wealth x is value_coefficient * x^{1-R} (wealth_exponent = 1-R).
    """

    pi_hat: float
    eta: float
    value_coefficient: float
    phi: float
    wealth_exponent: float

    def value(self, x: float) -> float:
        """Candidate value of initial wealth x."""
        return self.value_coefficient * x**self.wealth_exponent

    @property
    def strategy(self) -> ProportionalStrategy:
        return ProportionalStrategy(pi=self.pi_hat, xi=self.eta)


def candidate_policy(prefs: Preferences, market: Market) -> CandidatePolicy:
    """Candidate optimal policy pi_hat = lambda/(sigma R), xi = eta.

    Raises
    ------
    UnsupportedRegime
        If theta <= 0 (no infinite-horizon utility process exists).
    IllPosed
        If eta <= 0.
    """
    if prefs.theta <= 0.0:
        raise UnsupportedRegime(
            f"candidate policy requires theta > 0, got theta={prefs.theta}"
        )
    report = optimal_consumption_rate(prefs, market)
    if not report.well_posed:
        raise IllPosed(f"eta = {report.eta} <= 0: problem is ill-posed")
    pi_hat = market.sharpe / (market.sigma * prefs.R)
    coef = prefs.b**prefs.theta * report.eta ** (-prefs.theta * prefs.S) / (1.0 - prefs.R)
    return CandidatePolicy(
        pi_hat=pi_hat,
        eta=report.eta,
        value_coefficient=coef,
        phi=report.phi,
        wealth_exponent=1.0 - prefs.R,
    )


def proportional_value_coefficient(prefs: Preferences, market: Market,
                                   strat: ProportionalStrategy) -> float:
    """Coefficient A(pi, xi)/(1-R) = (b theta xi^{1-S}/H)^theta / (1-R).

    The strategy's utility process is e^{-delta*theta*t} * coef * X_t^{1-R}.

    Raises
    ------
    NotEvaluable
        If H_{delta*theta}(pi, xi) <= 0, in which case the defining integral
        diverges and no utility process of this form exists.
    """
    H = decay_rate(prefs.delta * prefs.theta, prefs, market, strat)
    if H <= 0.0:
        raise NotEvaluable(
            f"H_deltatheta(pi={strat.pi}, xi={strat.xi}) = {H} <= 0"
        )
    A = (prefs.b * prefs.theta * strat.xi ** (1.0 - prefs.S) / H) ** prefs.theta
    return A / (1.0 - prefs.R)


def proportional_utility(prefs: Preferences, market: Market,
                         strat: ProportionalStrategy, x: float, t: float) -> float:
    """Utility process of a constant-proportional strategy at wealth x, time t."""
    coef = proportional_value_coefficient(prefs, market, strat)
    return math.exp(-prefs.delta * prefs.theta * t) * coef * x ** (1.0 - prefs.R)


# ---------------------------------------------------------------------------
# Deterministic consumption streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseExponentialStream:
    """Deterministic consumption stream, exponential on each segment.

    On [t_i, t_{i+1}) the stream is c(t) = a_i * e^{-g_i * t} (absolute time);
    the final segment extends to infinity.  This family covers every
    deterministic example in the package and keeps the integrability tail
    checkable in closed form.

    Parameters
    ----------
    breakpoints : tuple of segment start times, first must be 0.0
    amplitudes : tuple a_i >= 0
    rates : tuple g_i
    """

    breakpoints: tuple[float, ...]
    amplitudes: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.amplitudes) or len(self.amplitudes) != len(self.rates):
            raise InvalidParameters("segment arrays must have equal length")
        if not self.breakpoints or self.breakpoints[0] != 0.0:
            raise InvalidParameters("first breakpoint must be t = 0")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise InvalidParameters("breakpoints must be strictly increasing")
        if any(a < 0.0 for a in self.amplitudes):
            raise InvalidParameters("amplitudes must be non-negative")

    @classmethod
    def exponential(cls, a: float, gamma: float) -> "PiecewiseExponentialStream":
        """Single-segment stream c(t) = a e^{-gamma t}."""
        return cls(breakpoints=(0.0,), amplitudes=(a,), rates=(gamma,))

    @classmethod
    def two_level(cls, c_early: float, c_late: float,
                  t_switch: float) -> "PiecewiseExponentialStream":
        """Constant c_early on [0, t_switch), constant c_late afterwards."""
        return cls(breakpoints=(0.0, t_switch),
                   amplitudes=(c_early, c_late), rates=(0.0, 0.0))

    def value_at(self, t):
        """Evaluate c(t) (vectorised)."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, t_arr, side="right") - 1
        idx = np.clip(idx, 0, len(self.breakpoints) - 1)
        a = np.asarray(self.amplitudes)[idx]
        g = np.asarray(self.rates)[idx]
        out = a * np.exp(-g * t_arr)
        return float(out) if out.ndim == 0 else out


def _segment_power_integral(a: float, g: float, kappa_rate: float,
                            lo: float, hi: float, one_minus_S: float) -> float:
    """integral_lo^hi e^{-delta s} (a e^{-g s})^{1-S} ds, closed form.

    kappa_rate = delta + g*(1-S) is the combined decay rate.
    """
    if a == 0.0:
        return 0.0
    amp = a**one_minus_S
    if kappa_rate == 0.0:
        return amp * ((hi - lo) if math.isfinite(hi) else math.inf)
    if math.isinf(hi):
        if kappa_rate <= 0.0:
            return math.inf
        return amp * math.exp(-kappa_rate * lo) / kappa_rate
    # expm1 keeps the difference of exponentials accurate when kappa_rate * (hi - lo)
    # is small
    return -amp * math.exp(-kappa_rate * lo) * math.expm1(-kappa_rate * (hi - lo)) / kappa_rate


def _stream_tail_rate(prefs: Preferences, stream: PiecewiseExponentialStream) -> float:
    return prefs.delta + stream.rates[-1] * (1.0 - prefs.S)


def deterministic_utility(prefs: Preferences, stream: PiecewiseExponentialStream,
                          t: float) -> float:
    """Utility of a deterministic stream: (b * I(t))^theta / (1-R), where
    I(t) = integral_t^inf e^{-delta s} c(s)^{1-S} ds.

    No quadrature: the integrand is one exponential on each segment, so I(t)
    is the sum of the closed-form segment integrals, each segment clipped to
    [t, inf).

    Raises
    ------
    DivergentIntegral
        If the final-segment rate delta + g*(1-S) is <= 0 (tail test fails),
        or the stream is identically zero with S > 1.
    """
    tail_rate = _stream_tail_rate(prefs, stream)
    if stream.amplitudes[-1] > 0.0 and tail_rate <= 0.0:
        raise DivergentIntegral(
            f"tail rate delta + g(1-S) = {tail_rate} <= 0: integral diverges"
        )
    if prefs.S > 1.0 and any(
        a == 0.0 for a in stream.amplitudes
    ):
        raise DivergentIntegral("zero-consumption segment with S > 1 is not evaluable")

    one_minus_S = 1.0 - prefs.S
    # the first segment reaches back before 0, as in `value_at`
    starts = (-math.inf, *stream.breakpoints[1:])
    ends = (*stream.breakpoints[1:], math.inf)
    total = 0.0
    for start, end, a, g in zip(starts, ends, stream.amplitudes, stream.rates):
        if end > t:
            total += _segment_power_integral(
                a, g, prefs.delta + g * one_minus_S, max(start, t), end, one_minus_S)
    if total == 0.0:
        return 0.0
    return (prefs.b * total) ** prefs.theta / (1.0 - prefs.R)


def exponential_stream_utility(prefs: Preferences, a: float, gamma: float,
                               t: float) -> float:
    """Closed form for c(s) = a e^{-gamma s}:

    V(t) = e^{-(delta + gamma(1-S)) theta t} (b/(delta + gamma(1-S)))^theta
           * a^{1-R}/(1-R).

    Serves as the oracle for `deterministic_utility` on single-segment
    streams: it applies the exponent theta to each factor separately instead
    of integrating a segment.

    Raises
    ------
    InvalidParameters
        If a < 0, as for a `PiecewiseExponentialStream` amplitude.
    DivergentIntegral
        If delta + gamma(1-S) <= 0, or a = 0 with S > 1.
    """
    if a < 0.0:
        raise InvalidParameters(f"amplitude a must be non-negative, got {a}")
    if a == 0.0:
        if prefs.S > 1.0:
            raise DivergentIntegral("zero stream is not evaluable for S > 1")
        return 0.0
    kappa = prefs.delta + gamma * (1.0 - prefs.S)
    if kappa <= 0.0:
        raise DivergentIntegral(f"delta + gamma(1-S) = {kappa} <= 0")
    return (
        math.exp(-kappa * prefs.theta * t)
        * (prefs.b / kappa) ** prefs.theta
        * a ** (1.0 - prefs.R)
        / (1.0 - prefs.R)
    )


# ---------------------------------------------------------------------------
# Difference-form coefficient roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledRoot:
    """One non-negative extended-real root of B*H = b*theta*B^rho."""

    value: float
    label: str  # "zero" | "finite" | "infinite"


@dataclass(frozen=True)
class RootReport:
    roots: tuple[LabeledRoot, ...]


def difference_form_roots(prefs: Preferences, market: Market,
                          strat: ProportionalStrategy) -> RootReport:
    """Non-negative extended-real solutions B of B*H_{delta*theta} = b*theta*B^rho.

    A solution B gives a time-homogeneous difference-form utility process
    B xi^{1-R} X_t^{1-R}/(1-R).  The case analysis depends on theta:

    - theta in (0, 1]: a (unique, finite) root exists iff H > 0.
    - theta > 1: B = 0 always solves; a finite root and B = inf exist iff H > 0.
    - theta < 0: B = 0 always solves; a finite root and B = inf exist iff H < 0.
    """
    H = decay_rate(prefs.delta * prefs.theta, prefs, market, strat)
    theta = prefs.theta
    roots: list[LabeledRoot] = []
    if 0.0 < theta <= 1.0:
        if H > 0.0:
            roots.append(LabeledRoot((prefs.b * theta / H) ** theta, "finite"))
    elif theta > 1.0:
        roots.append(LabeledRoot(0.0, "zero"))
        if H > 0.0:
            roots.append(LabeledRoot((prefs.b * theta / H) ** theta, "finite"))
            roots.append(LabeledRoot(math.inf, "infinite"))
    else:
        roots.append(LabeledRoot(0.0, "zero"))
        if H < 0.0:
            roots.append(
                LabeledRoot((prefs.b * abs(theta) / abs(H)) ** theta, "finite")
            )
            roots.append(LabeledRoot(math.inf, "infinite"))
    return RootReport(roots=tuple(roots))


# ---------------------------------------------------------------------------
# CRRA bubble quantities
# ---------------------------------------------------------------------------

def max_transversal_consumption(nu: float, market: Market, R: float) -> float:
    """Largest xi for which some pi satisfies H_nu(pi, xi) > 0.

    Maximising H_nu over pi at pi_hat = lambda/(sigma R) gives the threshold

        (r + lambda^2/(2R) + nu/(R-1))_+        for R > 1;

    for R < 1 the quadratic in pi is unbounded above, so every xi admits a
    transversal pi and the supremum is infinite.  R = 1 is rejected.
    """
    if R == 1.0:
        raise InvalidParameters("R = 1 is outside the supported parameter range")
    if R < 1.0:
        return math.inf
    value = market.r + market.sharpe**2 / (2.0 * R) + nu / (R - 1.0)
    return max(value, 0.0)


@dataclass(frozen=True)
class BubbleFlag:
    """Sign diagnosis: a bubble is a value process of opposite sign to its
    aggregator (both nonzero)."""

    is_bubble: bool
    value_sign: int
    aggregator_sign: int


@dataclass(frozen=True)
class CrraBubbleReport:
    K: float
    V0: float
    flag: BubbleFlag
    transversality_ok: bool
    H_delta: float  # decay rates at (pi_hat, xi)
    H_nu: float


def crra_bubble_quantities(delta: float, R: float, market: Market,
                           xi: float, nu: float) -> CrraBubbleReport:
    """Additive-utility (CRRA) coefficient K(xi) = xi^{1-R}/H_delta(pi_hat, xi)
    and the time-0 value V0 = K(xi)/(1-R) at unit wealth.

    The bubble flag is set when V0 and the CRRA integrand c^{1-R}/(1-R) have
    opposite signs, i.e. exactly when H_delta(pi_hat, xi) < 0.  The separate
    transversality flag records H_nu(pi_hat, xi) > 0 for the supplied nu.

    Raises
    ------
    InvalidParameters
        If R = 1 or xi <= 0.
    DegenerateDenominator
        If H_delta(pi_hat, xi) = 0.
    """
    if R == 1.0:
        raise InvalidParameters("R = 1 is outside the supported parameter range")
    if not (xi > 0.0):
        raise InvalidParameters(f"consumption fraction xi must be > 0, got {xi}")
    pi_hat = market.sharpe / (market.sigma * R)
    H_delta = _H(delta, market.r, market.sharpe, market.sigma, R, pi_hat, xi)
    scale = abs(delta) + abs(R - 1.0) * (abs(market.r)
                                         + market.sharpe**2 / (2.0 * R) + xi)
    if abs(H_delta) <= 1e-13 * max(scale, 1e-12):
        raise DegenerateDenominator("H_delta(pi_hat, xi) = 0")
    K = xi ** (1.0 - R) / H_delta
    V0 = K / (1.0 - R)
    integrand_sign = 1 if R < 1.0 else -1
    value_sign = int(math.copysign(1.0, V0)) if V0 != 0.0 else 0
    is_bubble = value_sign != 0 and value_sign != integrand_sign
    H_nu = _H(nu, market.r, market.sharpe, market.sigma, R, pi_hat, xi)
    return CrraBubbleReport(
        K=K,
        V0=V0,
        flag=BubbleFlag(is_bubble=is_bubble, value_sign=value_sign,
                        aggregator_sign=integrand_sign),
        transversality_ok=H_nu > 0.0,
        H_delta=H_delta,
        H_nu=H_nu,
    )
