"""Epstein-Zin recursive preferences and the Black-Scholes-Merton market.

An agent with Epstein-Zin stochastic differential utility is described by the
parameter vector (b, delta, R, S):

    b     > 0   scale (no effect on preferences, kept for unit conventions)
    delta       subjective discount rate (any sign; accounting units may flip it)
    R     > 0   relative risk aversion, R != 1
    S     > 0   elasticity of intertemporal complementarity, S != 1

with derived quantities

    theta = (1 - R) / (1 - S),        rho = (S - R) / (1 - R) = (theta - 1) / theta.

The utility process V associated with a consumption stream C solves

    V_t = E_t[ integral_t^inf  b e^{-delta s} C_s^{1-S} / (1-S) * ((1-R) V_s)^rho  ds ],

so utility values live in the half-line (1-R)*[0, inf): non-negative for R < 1,
non-positive for R > 1.  The aggregator keeps one sign, which is what makes the
infinite-horizon recursion well-behaved.  The sign-indefinite difference form
b c^{1-S}/(1-S) ((1-R)v)^rho - delta*theta*v enters only the counterexample
diagnostics (`closed_form.difference_form_roots` and the `experiments`
counterexamples), which integrate it in closed form.

The coordinate change W = (1-R) V, U = b*theta*e^{-delta t} C^{1-S} turns the
recursion into W_t = E_t[ integral u w^rho ], with u, w >= 0.  The two-argument
kernel u * w^rho, extended to [0, inf]^2 with the conventions 0^rho = inf and
inf^rho = 0 (rho < 0), is `transformed_aggregator`; the solver module iterates
it on a lattice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameters

__all__ = [
    "Preferences",
    "Market",
    "Regime",
    "RegimeKind",
    "ValueSign",
    "classify_regime",
    "transformed_aggregator",
    "transformed_aggregator_grid",
    "transformed_consumption",
    "numeraire_shift",
]


class RegimeKind(enum.Enum):
    """Parameter regimes, classified by theta = (1-R)/(1-S)."""

    CRRA = "crra"                       # R == S, theta == 1: additive utility
    CONTRACTIVE = "contractive"         # theta in (0, 1): unique utility process
    THETA_ABOVE_ONE = "theta_above_one" # theta > 1: uniqueness fails
    THETA_NEGATIVE = "theta_negative"   # theta < 0: no infinite-horizon solution


class ValueSign(enum.Enum):
    """Sign domain (1-R)*[0, inf) of utility values."""

    NON_NEGATIVE = "non_negative"  # R < 1
    NON_POSITIVE = "non_positive"  # R > 1


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    solver_supported: bool


@dataclass(frozen=True)
class Preferences:
    """Epstein-Zin preference parameters with derived theta and rho.

    theta and rho are derived from (R, S) at construction; they are not
    arguments, so they cannot disagree with (R, S).

    Raises
    ------
    InvalidParameters
        If b <= 0, R <= 0, S <= 0, R == 1 or S == 1.
    """

    b: float
    delta: float
    R: float
    S: float
    theta: float = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self):
        if not (self.b > 0.0):
            raise InvalidParameters(f"scale b must be positive, got {self.b}")
        for name, val in (("R", self.R), ("S", self.S)):
            if not (val > 0.0) or val == 1.0:
                raise InvalidParameters(
                    f"{name} must lie in (0,1) or (1,inf), got {val}"
                )
        object.__setattr__(self, "theta", (1.0 - self.R) / (1.0 - self.S))
        object.__setattr__(self, "rho", (self.S - self.R) / (1.0 - self.R))
        residual = (1.0 - self.S) + self.rho * (1.0 - self.R) - (1.0 - self.R)
        if abs(residual) > 1e-10 * max(1.0, abs(1.0 - self.R)):
            raise InvalidParameters("exponent identity 1-S+rho(1-R)=1-R violated")

    @property
    def value_sign(self) -> ValueSign:
        return ValueSign.NON_NEGATIVE if self.R < 1.0 else ValueSign.NON_POSITIVE


@dataclass(frozen=True)
class Market:
    """Constant-parameter Black-Scholes-Merton market.

    r is the risk-free rate, mu the risky drift, sigma > 0 the volatility;
    sharpe = (mu - r)/sigma is derived.
    """

    r: float
    mu: float
    sigma: float
    sharpe: float = field(init=False)

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise InvalidParameters(f"sigma must be positive, got {self.sigma}")
        object.__setattr__(self, "sharpe", (self.mu - self.r) / self.sigma)


def classify_regime(prefs: Preferences) -> Regime:
    """Classify the preference regime by theta.

    R == S is reported as CRRA rather than rejected, so additive-utility
    oracles share the same type surface.  Only CRRA and the contractive
    regime theta in (0, 1) are supported by the fixed-point solver; for
    theta > 1 the utility process is not unique and for theta < 0 no
    infinite-horizon utility process exists, so both are flagged
    solver_supported=False.
    """
    theta = prefs.theta
    if prefs.R == prefs.S:
        return Regime(RegimeKind.CRRA, True)
    if 0.0 < theta < 1.0:
        return Regime(RegimeKind.CONTRACTIVE, True)
    if theta > 1.0:
        return Regime(RegimeKind.THETA_ABOVE_ONE, False)
    return Regime(RegimeKind.THETA_NEGATIVE, False)


def transformed_aggregator(u: float, w: float, rho: float) -> float:
    """Kernel u * w^rho on [0, inf]^2 with explicit boundary conventions.

    For rho < 0 the conventions are 0^rho = inf and inf^rho = 0, and

        u * w^rho            for (u, w) in (0, inf) x (0, inf),
        w^rho                for u in (0, inf), w in {0, inf},
        u                    for u in {0, inf}, any w,

    which makes the kernel continuous in w for every fixed u.  The branches
    are selected explicitly (never by IEEE arithmetic on inf), so the
    boundary values are exact.  rho = 0 degenerates to the additive case and
    returns u for every w.
    """
    if rho > 0.0:
        raise DomainError(f"kernel defined for rho <= 0, got {rho}")
    if u < 0.0 or w < 0.0 or math.isnan(u) or math.isnan(w):
        raise DomainError(f"arguments must lie in [0, inf], got u={u}, w={w}")
    if rho == 0.0 or u == 0.0 or math.isinf(u):
        return u
    if w == 0.0:
        return math.inf
    if math.isinf(w):
        return 0.0
    return u * w**rho


def transformed_aggregator_grid(
    u: np.ndarray, w: np.ndarray, rho: float
) -> np.ndarray:
    """Vectorised `transformed_aggregator` over numpy arrays.

    When every u and w lies in (0, inf) the kernel is u * w^rho throughout,
    computed in one pass; otherwise the boundary branches are selected by
    masks.
    """
    if rho > 0.0:
        raise DomainError(f"kernel defined for rho <= 0, got {rho}")
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(u.shape, w.shape)
    if (rho != 0.0 and u.size and w.size
            and 0.0 < u.min() and u.max() < math.inf
            and 0.0 < w.min() and w.max() < math.inf):
        out = np.broadcast_to(w, shape) ** rho
        out *= u
        return out
    if np.any(u < 0.0) or np.any(w < 0.0):
        raise DomainError("arguments must lie in [0, inf]")
    if rho == 0.0:
        return np.broadcast_to(u, shape).copy()
    out = np.empty(shape, dtype=float)
    u_b = np.broadcast_to(u, out.shape)
    w_b = np.broadcast_to(w, out.shape)
    u_edge = (u_b == 0.0) | np.isinf(u_b)
    w_zero = ~u_edge & (w_b == 0.0)
    w_inf = ~u_edge & np.isinf(w_b)
    interior = ~(u_edge | w_zero | w_inf)
    out[u_edge] = u_b[u_edge]
    out[w_zero] = np.inf
    out[w_inf] = 0.0
    out[interior] = u_b[interior] * w_b[interior] ** rho
    return out


def transformed_consumption(prefs: Preferences, t, c, repeats=None):
    """U = b*theta*e^{-delta t} * C^{1-S}, with U = inf when C = 0 and S > 1.

    Accepts scalars or arrays; the boundary C = 0 is handled explicitly so no
    IEEE division warnings leak out.  A power, discount factor or product
    beyond the float range is inf, and the U = inf of a zero consumption times
    a discount factor that underflows to 0 is NaN, both without a warning: the
    solver's order check rejects either as a documented error.  With repeats,
    t holds one time per run
    of repeats[i] consecutive entries of c (the steps of a packed lattice
    grid), so e^{-delta t} is taken once per run.  At most two arrays of c's
    size are live at a time, plus boolean masks and the repeated scale;
    `lattice.transformed_consumption_grid` passes one block of steps at a
    time, so a lattice grid costs its output plus one block.

    Raises
    ------
    DomainError
        If a consumption is negative or NaN.
    """
    t_arr = np.asarray(t, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    if np.any(~(c_arr >= 0.0)):
        raise DomainError("consumption must be non-negative")
    positive = c_arr > 0.0
    base = np.where(positive, c_arr, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # A fresh output, not base in place: with the in-place power, filling
        # a 2000-step grid one step at a time left glibc's heap fragmented,
        # and the solve that followed peaked 12 MB (11%) higher in resident
        # memory.
        out = np.power(base, 1.0 - prefs.S, out=np.empty_like(base))
        del base
        out[~positive] = np.inf if prefs.S > 1.0 else 0.0
        scale = prefs.b * prefs.theta * np.exp(-prefs.delta * t_arr)
        if repeats is not None:
            scale = np.repeat(scale, repeats)
        if out.shape == np.broadcast_shapes(out.shape, scale.shape):
            out *= scale
        else:
            out = scale * out
    if out.ndim == 0:
        return float(out)
    return out


def numeraire_shift(
    prefs: Preferences, market: Market, chi: float
) -> tuple[Preferences, Market]:
    """Re-unit consumption at rate chi: delta' = delta - chi(1-S), r' = r - chi,
    mu' = mu - chi; sigma, the Sharpe ratio, R, S and b are unchanged.

    chi = delta/(1-S) yields delta' = 0, which removes the aggregator's
    explicit time dependence.  The candidate policy and its value are
    invariant under any chi.
    """
    new_prefs = Preferences(
        b=prefs.b,
        delta=prefs.delta - chi * (1.0 - prefs.S),
        R=prefs.R,
        S=prefs.S,
    )
    new_market = Market(r=market.r - chi, mu=market.mu - chi, sigma=market.sigma)
    return new_prefs, new_market
