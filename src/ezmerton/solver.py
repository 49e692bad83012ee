"""Fixed-point solver for the utility recursion on the lattice.

Everything here works in the transformed coordinates W = (1-R)V >= 0,
U = b*theta*e^{-delta t} C^{1-S} >= 0, where the recursion reads

    W_t = E_t[ integral_t^inf u(s) W_s^rho ds ]          (rho = (theta-1)/theta).

One application of the right-hand side on the lattice is `apply_recursion`:
the kernel over the whole packed grid in one call, a tail closure beyond the
horizon, and a backward sweep of the trapezoid step

    G_k = E_k[ G_{k+1} + dt/2 f_{k+1} ] + dt/2 f_k.

That step is written once (`_trapezoid_step`), over any contiguous range of
packed steps: the operator, `reference_integral` and the hitting-time
defects sweep it one step at a time, since each step needs the next, while
a gap-g pair-defect family advances every start step at once in g calls.
A sequential sweep works in place: the carry a = G_{k+1} + dt/2 f_{k+1} sits
in one scratch buffer of n+1 values, and the step writes ½(a[1:] + a[:-1])
+ dt/2 f_k into the output layer, so a step is four numpy calls and
allocates nothing.  The neighbour mean is the exact one-step expectation
because the lattice has p_up = ½.
`picard_solve` iterates the operator; its initial guess I^Lambda is the one
the order certificate already computed.  Measured in the log of the ratio to a
reference process Lambda^theta, the iteration is a sup-norm contraction with
constant |rho| when rho is in (-1, 0); for rho <= -1 the update is split as
w^rho = w^{-chi} * w^{rho+chi} and solved as a nested iteration whose outer
loop contracts with constant chi.

Preconditions are expressed through order certificates: the reference Lambda
must satisfy Lambda^theta comparable to I^Lambda_t = E_t[integral Lambda^theta]
(self-similarity), and the driver U must be comparable to Lambda (or bounded
above by it when an epsilon-perturbation is used).

`check_solution` is a residual falsifier for the sub/supersolution
inequalities over a sampled family of step pairs and hitting times, and
`generalized_utility` evaluates arbitrary consumption grids by monotone
truncation against the candidate optimal stream.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import closed_form
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    MissingLambda,
    NotConverged,
    NotInClass,
    PreconditionFailed,
    SignDomainViolation,
    UnsupportedRegime,
)
from .lattice import (
    AdaptedGrid,
    Lattice,
    TailClosure,
    transformed_consumption_grid,
    unconditional_expectation,
)
from .preferences import (
    Market,
    Preferences,
    ValueSign,
    classify_regime,
    transformed_aggregator_grid,
)

__all__ = [
    "OrderCertificate",
    "SolveReport",
    "ResidualReport",
    "ComparisonVerdict",
    "GeneralizedUtilityReport",
    "DIVERGENCE_THRESHOLD",
    "reference_integral",
    "order_check",
    "apply_recursion",
    "picard_solve",
    "generalized_utility",
    "check_solution",
    "compare",
]

#: Desk-scale proxy for +/- infinity in divergence classifications.
DIVERGENCE_THRESHOLD = 1e6

_LOG_CLAMP = 700.0
_RATIO_GUARD = 1e12


# ---------------------------------------------------------------------------
# The backward trapezoid step
# ---------------------------------------------------------------------------

def _trapezoid_step(a: np.ndarray, half_k: np.ndarray, out: np.ndarray | None = None,
                    straddles: np.ndarray | None = None) -> np.ndarray:
    """E_k[a] + half_k with a = G_{k+1} + half_{k+1}, written into out if given.

    The lattice has p_up = 1/2, so E_k[a] is the neighbour mean
    ½(a[j+1] + a[j]); it rounds exactly like ½a[j+1] + ½a[j], since halving is
    exact away from subnormals.  Leading axes of a are batch axes.  a may hold
    a contiguous range of packed steps: averaging across it also pairs the
    last node of each step with the first of the next, and the indices of
    those pairs are passed as `straddles` and dropped (into a new array).  A
    single step into out is three numpy calls and allocates nothing.
    """
    if straddles is None:
        out = np.add(a[..., 1:], a[..., :-1], out=out)
    else:
        out = np.delete(a[..., 1:] + a[..., :-1], straddles, axis=-1)
    out *= 0.5
    out += half_k
    return out


def _backward_accumulate(lat: Lattice, f: np.ndarray, tail_values: np.ndarray,
                         last_step_rectangle: bool) -> np.ndarray:
    """G_k = E_k[ sum of trapezoid slices of f + tail ], one backward sweep.

    f is the packed integrand and is overwritten (scaled to dt/2 * f).  With a
    zero tail the terminal layer of f would inject the w = 0 boundary
    convention (an infinite kernel value) into the last half-slice, so that
    step uses a left rectangle instead.  The carry a = G_{k+1} + half_{k+1}
    lives in one scratch buffer of n+1 values.
    """
    n = lat.n_steps
    out = np.empty_like(f)
    terminal = AdaptedGrid.span(n)
    out[terminal] = tail_values
    half = f
    if last_step_rectangle and n > 0:
        _trapezoid_step(out[terminal], lat.dt * f[AdaptedGrid.span(n - 1)],
                        out[AdaptedGrid.span(n - 1)])
        n -= 1
    half *= 0.5 * lat.dt
    top = AdaptedGrid.span(n)
    carry = np.add(out[top], half[top])
    for k in range(n - 1, -1, -1):
        start = k * (k + 1) // 2
        half_k = half[start:start + k + 1]
        g = _trapezoid_step(carry[:k + 2], half_k, out[start:start + k + 1])
        np.add(g, half_k, out=carry[:k + 1])
    return out


def _tail_reference(lat: Lattice, tail: TailClosure,
                    lam_theta_terminal: np.ndarray) -> np.ndarray:
    """Tail of I^Lambda: Lambda_T^theta / H under proportional continuation."""
    if tail.mode == "zero":
        return np.zeros_like(lam_theta_terminal)
    return lam_theta_terminal / tail.decay_rate


def _tail_solution(prefs: Preferences, lat: Lattice, tail: TailClosure,
                   u_terminal: np.ndarray, lam_theta_terminal: np.ndarray,
                   epsilon: float) -> np.ndarray:
    """Tail of the W-recursion under the closure.

    Under proportional continuation the fixed point beyond the horizon is the
    strategy's own: W_T = U_T^theta / H^theta, plus the epsilon term's tail
    epsilon * Lambda_T^theta / H.
    """
    if tail.mode == "zero":
        return np.zeros_like(u_terminal)
    w_tail = np.power(u_terminal, prefs.theta) / tail.decay_rate**prefs.theta
    if epsilon > 0.0:
        w_tail = w_tail + epsilon * lam_theta_terminal / tail.decay_rate
    return w_tail


def reference_integral(prefs: Preferences, target: AdaptedGrid, lat: Lattice,
                       tail: TailClosure) -> AdaptedGrid:
    """I^Lambda: backward cumulative expectation of Lambda^theta plus tail."""
    target.check_shape(lat)
    lam_theta = np.power(target.data, prefs.theta)
    tail_vals = _tail_reference(lat, tail, lam_theta[AdaptedGrid.span(lat.n_steps)])
    vals = _backward_accumulate(lat, lam_theta, tail_vals,
                                last_step_rectangle=tail.mode == "zero")
    return AdaptedGrid.from_packed(vals, sign_domain=ValueSign.NON_NEGATIVE)


# ---------------------------------------------------------------------------
# Order certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderCertificate:
    """Nodewise bounds k_lower * reference <= target^theta <= K_upper * reference.

    target is the reference process Lambda, reference is I^Lambda; the bounds
    are taken over steps 0..n-1 (the terminal layer is excluded because the
    truncation dominates it).
    """

    k_lower: float
    K_upper: float
    target: AdaptedGrid
    reference: AdaptedGrid


def order_check(prefs: Preferences, target: AdaptedGrid, lat: Lattice,
                tail: TailClosure) -> OrderCertificate:
    """Self-similarity test: is target^theta of the same order as I^target?

    Raises
    ------
    NotInClass
        If target is not strictly positive, if the fitted decay rate of
        E[target^theta] is non-negative (the defining integral diverges when
        the grid is extended), or if the nodewise ratio leaves (0, guard).
    """
    target.check_shape(lat)
    if np.any(~(target.data > 0.0)) or np.any(np.isinf(target.data)):
        raise NotInClass("reference process must be strictly positive and finite")
    lam_theta = AdaptedGrid.from_packed(np.power(target.data, prefs.theta))
    trace = unconditional_expectation(lat, lam_theta)
    slope = float(np.polyfit(lat.times, np.log(trace), 1)[0])
    if slope >= -1e-12:
        raise NotInClass(
            f"E[target^theta] decays at rate {-slope:.3e} <= 0; "
            "the defining integral diverges beyond any horizon"
        )
    ref = reference_integral(prefs, target, lat, tail)
    before_terminal = slice(0, AdaptedGrid.span(lat.n_steps).start)
    ratios = lam_theta.data[before_terminal] / ref.data[before_terminal]
    k_lower = float(np.min(ratios))
    K_upper = float(np.max(ratios))
    if not (0.0 < k_lower <= K_upper < _RATIO_GUARD):
        raise NotInClass(
            f"order ratio outside (0, {_RATIO_GUARD:g}): [{k_lower}, {K_upper}]"
        )
    return OrderCertificate(k_lower=k_lower, K_upper=K_upper,
                            target=target, reference=ref)


def _order_ratio_bounds(U: AdaptedGrid, Lambda: AdaptedGrid) -> tuple[float, float]:
    with np.errstate(divide="ignore", invalid="ignore"):
        r = U.data / Lambda.data
    return float(np.min(r)), float(np.max(r))


# ---------------------------------------------------------------------------
# The recursion operator
# ---------------------------------------------------------------------------

def apply_recursion(prefs: Preferences, U: AdaptedGrid, W: AdaptedGrid,
                    lat: Lattice, tail: TailClosure, epsilon: float = 0.0,
                    Lambda: AdaptedGrid | None = None) -> AdaptedGrid:
    """One application of W |-> E[ integral (u w^rho + eps Lambda^theta) ].

    Raises
    ------
    MissingLambda
        If epsilon > 0 and no reference grid was supplied.
    DimensionMismatch
        If any grid does not live on the lattice.
    """
    U.check_shape(lat)
    W.check_shape(lat)
    if epsilon < 0.0:
        raise InvalidParameters("epsilon must be >= 0")
    if epsilon > 0.0 and Lambda is None:
        raise MissingLambda("epsilon > 0 requires a reference grid Lambda")
    if Lambda is not None:
        Lambda.check_shape(lat)
        lam_theta = np.power(Lambda.data, prefs.theta)
    else:
        lam_theta = None
    terminal = AdaptedGrid.span(lat.n_steps)
    tail_vals = _tail_solution(
        prefs, lat, tail, U.data[terminal],
        (lam_theta if lam_theta is not None else U.data)[terminal],
        epsilon,
    )
    eps_term = epsilon * lam_theta if epsilon > 0.0 else None
    return _operator(lat, U.data, W, prefs.rho, eps_term, tail_vals,
                     last_rect=tail.mode == "zero")


def _operator(lat: Lattice, u: np.ndarray, W: AdaptedGrid, rho: float,
              eps_term: np.ndarray | None, tail_vals: np.ndarray,
              last_rect: bool) -> AdaptedGrid:
    """Backward(u * W^rho + eps_term) with the given tail: the packed kernel,
    then one backward sweep."""
    f = transformed_aggregator_grid(u, W.data, rho)
    if eps_term is not None:
        f += eps_term
    return AdaptedGrid.from_packed(_backward_accumulate(lat, f, tail_vals, last_rect),
                                   sign_domain=ValueSign.NON_NEGATIVE)


def _log(a: np.ndarray) -> np.ndarray:
    """Nodewise log of a packed array (log 0 = -inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(a)


def _residual(lat: Lattice, FW: AdaptedGrid, W: AdaptedGrid) -> float:
    """sup |log F(W) - log W| over steps 0..n-1.

    The tail closure sets the terminal layer and the iteration does not solve
    it: with a zero tail the clamp lifts W's terminal zeros to e^-700 while
    F(W) keeps them at 0, which would read as an infinite defect.
    """
    before_terminal = slice(0, AdaptedGrid.span(lat.n_steps).start)
    a, b = FW.data[before_terminal], W.data[before_terminal]
    return _log_gap(a, b, _log(a), _log(b))


def _log_gap(a: np.ndarray, b: np.ndarray, log_a: np.ndarray,
             log_b: np.ndarray) -> float:
    """sup over nodes of |log a - log b| from the logs of both arrays, with
    equal nodes (0/0, inf/inf) counting as equal; log_b is overwritten."""
    with np.errstate(invalid="ignore"):
        d = np.subtract(log_a, log_b, out=log_b)
    d[a == b] = 0.0
    if np.isnan(d).any():
        return math.inf
    return float(np.max(np.abs(d, out=d), initial=0.0))


def _clamped(W: AdaptedGrid) -> tuple[AdaptedGrid, int]:
    """Clip W into [e^-700, e^700] in place; returns (W, clipped node count)."""
    lo, hi = math.exp(-_LOG_CLAMP), math.exp(_LOG_CLAMP)
    v = W.data
    events = int(np.count_nonzero(v < lo)) + int(np.count_nonzero(v > hi))
    if events:
        np.clip(v, lo, hi, out=v)
    return W, events


@dataclass
class SolveReport:
    """Result of a Picard solve, with per-iteration diagnostics.

    residual is the sup-norm log-space defect |log F(W*) - log W*| of the
    returned solution under one more operator application.
    """

    solution: AdaptedGrid
    iterations: int
    contraction_ratios: list[float]
    converged: bool
    residual: float
    trace: list[tuple[int, float, float]]
    branch: str
    chi: float | None
    clamp_events: int

    def utility_at_zero(self, prefs: Preferences) -> float:
        """Time-0 utility V_0 = W_0 / (1-R)."""
        return float(self.solution.data[0]) / (1.0 - prefs.R)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "branch": self.branch,
            "chi": self.chi,
            "clamp_events": self.clamp_events,
            "contraction_ratios": self.contraction_ratios,
            "w0": float(self.solution.data[0]),
        }

    def trace_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "sup_norm_step", "ratio"])
            for it, step, ratio in self.trace:
                writer.writerow([it, format(step, ".17g"), format(ratio, ".17g")])


def _solve_exponent(prefs: Preferences, u: np.ndarray,
                    rho: float, W0: AdaptedGrid, lat: Lattice,
                    tail_vals: np.ndarray, last_rect: bool,
                    eps_term: np.ndarray | None,
                    tol: float, max_iter: int):
    """Solve W = Backward(u * W^rho_eff + eps_term) for any rho < 0.

    Direct contraction iteration for rho in (-1, 0); for rho <= -1 the kernel
    is split as w^rho = w^{-chi} w^{rho+chi} and the inner problem (in the
    last factor) is solved to higher accuracy inside an outer loop that
    contracts with constant chi, which is kept strictly inside (0, 1) so the
    stopping rule tol*(1 - chi) stays positive.  u is the packed driver.
    Returns (W, trace, converged, clamp_events, chi).
    """
    # One loop for both branches: advance(W) returns (next iterate, clamp
    # events, ok), and the stopping rule uses the contraction constant.
    if rho > -1.0:
        chi, contraction = None, abs(rho)

        def advance(W):
            W_new, ev = _clamped(
                _operator(lat, u, W, rho, eps_term, tail_vals, last_rect))
            return W_new, ev, True
    else:
        # chi-splitting: w^rho = w^{-chi} * w^{rho+chi} with rho+chi in (-1, 0)
        # when reachable in one split, else recurse.  -0.5 - rho lands the
        # inner exponent at -0.5 (chi = 0.5 for rho = -1); the cap keeps chi < 1.
        chi = min(-0.5 - rho, 0.99)
        contraction = chi

        def advance(W):
            with np.errstate(divide="ignore"):
                u_eff = u * np.power(W.data, -chi)
            Z, _, inner_ok, ev, _ = _solve_exponent(
                prefs, u_eff, rho + chi, W, lat, tail_vals, last_rect,
                eps_term, 0.1 * tol, max_iter,
            )
            return Z, ev, inner_ok

    clamp_total = 0
    trace: list[tuple[int, float, float]] = []
    # Each iterate's log is taken once: it serves its step and the next.
    W, log_W = W0, _log(W0.data)
    prev_step = math.nan
    for it in range(1, max_iter + 1):
        W_new, ev, ok = advance(W)
        clamp_total += ev
        if not ok:  # raised after the count, so the frame's clamp_total holds it
            raise NotConverged("inner solve of the split iteration failed")
        log_new = _log(W_new.data)
        step = _log_gap(W_new.data, W.data, log_new, log_W)
        ratio = step / prev_step if prev_step and math.isfinite(prev_step) and prev_step > 0 else math.nan
        trace.append((it, step, ratio))
        W, log_W = W_new, log_new
        if step <= tol * (1.0 - contraction):
            return W, trace, True, clamp_total, chi
        prev_step = step
    return W, trace, False, clamp_total, chi


def picard_solve(prefs: Preferences, U: AdaptedGrid, lat: Lattice,
                 tail: TailClosure, epsilon: float = 0.0,
                 Lambda: AdaptedGrid | None = None, tol: float = 1e-8,
                 max_iter: int = 200, initial_guess: AdaptedGrid | None = None,
                 enforce_order: bool = True) -> SolveReport:
    """Fixed point of the utility recursion for the transformed driver U.

    Lambda defaults to U itself.  The initial guess is I^Lambda, which has the
    right order by construction.  Convergence is declared when the log-space
    sup-norm step falls below tol*(1 - contraction constant), so the returned
    grid is within tol of the fixed point in that metric.

    Raises
    ------
    UnsupportedRegime
        Outside the CRRA and contractive (theta in (0,1]) regimes.
    PreconditionFailed
        If enforce_order is set and U is not of the same order as Lambda
        (for epsilon = 0) or not bounded above by a multiple of Lambda
        (for epsilon > 0).
    NotConverged
        If max_iter is exhausted.
    """
    regime = classify_regime(prefs)
    if not regime.solver_supported:
        raise UnsupportedRegime(
            f"solver supports theta in (0, 1]; regime is {regime.kind.value}"
        )
    U.check_shape(lat)
    if epsilon > 0.0 and Lambda is None:
        raise MissingLambda("epsilon > 0 requires a reference grid Lambda")
    lam_grid = Lambda if Lambda is not None else U
    lam_grid.check_shape(lat)

    reference = None
    if enforce_order:
        try:
            reference = order_check(prefs, lam_grid, lat, tail).reference
        except NotInClass as exc:
            raise PreconditionFailed(f"reference grid fails order check: {exc}") from exc
        lo, hi = _order_ratio_bounds(U, lam_grid)
        if epsilon == 0.0 and not (0.0 < lo <= hi < math.inf):
            raise PreconditionFailed(
                f"U not of the same order as Lambda: ratio range [{lo}, {hi}]"
            )
        if epsilon > 0.0 and not (0.0 <= lo <= hi < math.inf):
            raise PreconditionFailed(
                f"U not bounded by a multiple of Lambda: ratio range [{lo}, {hi}]"
            )

    eps_term = epsilon * np.power(lam_grid.data, prefs.theta) if epsilon > 0.0 else None
    last_rect = tail.mode == "zero"
    terminal = AdaptedGrid.span(lat.n_steps)
    tail_vals = _tail_solution(prefs, lat, tail, U.data[terminal],
                               np.power(lam_grid.data[terminal], prefs.theta), epsilon)

    if initial_guess is not None:
        initial_guess.check_shape(lat)
        W0 = initial_guess.copy()
    elif reference is not None:  # the order certificate already holds I^Lambda
        W0 = reference
    else:
        W0 = reference_integral(prefs, lam_grid, lat, tail)

    if prefs.rho == 0.0:
        # Additive utility: the operator does not depend on W.
        W = apply_recursion(prefs, U, W0, lat, tail, epsilon, lam_grid)
        residual = _residual(
            lat, apply_recursion(prefs, U, W, lat, tail, epsilon, lam_grid), W)
        return SolveReport(solution=W, iterations=1, contraction_ratios=[],
                           converged=True, residual=residual,
                           trace=[(1, residual, math.nan)], branch="additive",
                           chi=None, clamp_events=0)

    W, trace, converged, clamp_events, chi = _solve_exponent(
        prefs, U.data, prefs.rho, W0, lat, tail_vals, last_rect,
        eps_term, tol, max_iter,
    )
    if not converged:
        raise NotConverged(
            f"no convergence after {max_iter} iterations "
            f"(last step {trace[-1][1]:.3e})"
        )
    residual = _residual(
        lat, apply_recursion(prefs, U, W, lat, tail, epsilon, lam_grid), W)
    ratios = [r for (_, _, r) in trace if math.isfinite(r)]
    return SolveReport(
        solution=W, iterations=len(trace), contraction_ratios=ratios,
        converged=converged, residual=residual, trace=trace,
        branch="direct" if chi is None else "chi_split", chi=chi,
        clamp_events=clamp_events,
    )


# ---------------------------------------------------------------------------
# Generalized utility by monotone truncation
# ---------------------------------------------------------------------------

@dataclass
class GeneralizedUtilityReport:
    """Monotone truncation levels n, their time-0 values, and the limit call."""

    ns: list[int]
    values: list[float]
    classification: str  # "finite" | "diverges_to_plus_inf" | "diverges_to_minus_inf"
    limit: float | None
    threshold: float
    sequence_converged: bool

    def to_json_dict(self) -> dict:
        return {
            "ns": self.ns,
            "values": self.values,
            "classification": self.classification,
            "limit": self.limit,
            "threshold": self.threshold,
            "sequence_converged": self.sequence_converged,
        }


def generalized_utility(C_grid: AdaptedGrid, prefs: Preferences, market: Market,
                        lat: Lattice, tail: TailClosure, n_max: int,
                        tol: float = 1e-8) -> GeneralizedUtilityReport:
    """Evaluate an arbitrary consumption grid by monotone truncation.

    The truncated streams are C^n = C /\\ n*Chat for R < 1 (an increasing
    sequence) and C^n = C \\/ Chat/n for R > 1 (a decreasing one), where
    Chat = eta * X is the candidate optimal consumption read off the lattice.
    Each truncation is solved with `picard_solve`; the time-0 values form a
    monotone sequence whose limit is classified as finite or divergent at the
    desk-scale threshold 1e6.

    The lattice must be bound to the candidate strategy, since Chat is taken
    from its node wealth.

    Raises
    ------
    UnsupportedRegime
        Unless theta lies in (0, 1).
    PreconditionFailed
        If the lattice strategy is not the candidate policy.
    """
    if not (0.0 < prefs.theta < 1.0):
        raise UnsupportedRegime("generalized utility requires theta in (0, 1)")
    C_grid.check_shape(lat)
    if n_max < 1:
        raise InvalidParameters("n_max must be >= 1")
    policy = closed_form.candidate_policy(prefs, market)
    if (abs(lat.strategy.pi - policy.pi_hat) > 1e-9 * max(1.0, abs(policy.pi_hat))
            or abs(lat.strategy.xi - policy.eta) > 1e-9 * max(1.0, policy.eta)):
        raise PreconditionFailed(
            "lattice must be built under the candidate strategy "
            f"(pi={policy.pi_hat}, xi={policy.eta})"
        )
    c_hat = AdaptedGrid.from_packed(policy.eta * lat.wealth.data)
    u_hat = None  # the candidate's own driver, built on first need
    ns = [1]
    while ns[-1] < n_max:
        ns.append(min(2 * ns[-1], n_max))

    values: list[float] = []
    for n in ns:
        if prefs.R < 1.0:
            c_n = np.minimum(C_grid.data, n * c_hat.data)
        else:
            c_n = np.maximum(C_grid.data, c_hat.data / n)
        u_n = transformed_consumption_grid(prefs, lat, AdaptedGrid.from_packed(c_n))
        if np.all(np.isfinite(u_n.data)) and np.all(u_n.data > 0.0):
            lam = u_n
        else:
            if u_hat is None:
                u_hat = transformed_consumption_grid(prefs, lat, c_hat)
            lam = u_hat
        report = picard_solve(prefs, u_n, lat, tail, epsilon=0.0, Lambda=lam,
                              tol=tol, enforce_order=False)
        values.append(report.utility_at_zero(prefs))

    last = values[-1]
    if abs(last) > DIVERGENCE_THRESHOLD:
        cls = "diverges_to_plus_inf" if last > 0 else "diverges_to_minus_inf"
        return GeneralizedUtilityReport(ns, values, cls, None,
                                        DIVERGENCE_THRESHOLD, False)
    cauchy = len(values) < 2 or (
        abs(values[-1] - values[-2]) <= 1e-6 * (1.0 + abs(values[-1]))
    )
    return GeneralizedUtilityReport(ns, values, "finite", last,
                                    DIVERGENCE_THRESHOLD, cauchy)


# ---------------------------------------------------------------------------
# Sub/supersolution residual checks
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    """Falsifier verdict for the sub/supersolution inequalities.

    defects collect V_k - E_k[V_k' + integral of the aggregator] over the
    sampled family; positive defects are evidence for a supersolution,
    negative for a subsolution.  The check samples deterministic step pairs
    and wealth-band hitting times; it can refute, not prove.
    """

    classification: str  # "solution" | "subsolution" | "supersolution" | "neither"
    defect_min: float
    defect_max: float
    tol_abs: float
    family_bounds: dict[str, tuple[float, float]]
    worst_negative: tuple[str, int, int] | None
    worst_positive: tuple[str, int, int] | None
    terminal_expectation_trace: np.ndarray
    trace_ok: bool
    trace_slope: float

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "defect_min": self.defect_min,
            "defect_max": self.defect_max,
            "tol_abs": self.tol_abs,
            "family_bounds": {k: list(v) for k, v in self.family_bounds.items()},
            "trace_ok": self.trace_ok,
            "trace_slope": self.trace_slope,
        }


def _aggregator_values(grid: AdaptedGrid, companion: AdaptedGrid,
                       lat: Lattice, prefs: Preferences, space: str) -> np.ndarray:
    """Packed aggregator values along the grid, in the requested space."""
    if space == "W":
        return transformed_aggregator_grid(companion.data, grid.data, prefs.rho)
    u = transformed_consumption_grid(prefs, lat, companion).data
    w = (1.0 - prefs.R) * grid.data
    return transformed_aggregator_grid(u, w, prefs.rho) / (1.0 - prefs.R)


def _pair_defects(lat: Lattice, V: np.ndarray, half: np.ndarray,
                  gap: int) -> np.ndarray:
    """Packed defects V_k - E_k[V_{k+gap} + trapezoid(f)] for every start k.

    All start steps advance together: gap trapezoid steps over the packed
    range of steps, with half = dt/2 * f.
    """
    n = lat.n_steps
    acc = V[AdaptedGrid.span(gap, n)]
    for lo in range(gap - 1, -1, -1):
        hi = n - gap + lo
        straddles = np.cumsum(np.arange(lo + 2, hi + 2)) - 1 if hi > lo else None
        acc = _trapezoid_step(acc + half[AdaptedGrid.span(lo + 1, hi + 1)],
                              half[AdaptedGrid.span(lo, hi)], straddles=straddles)
    return V[AdaptedGrid.span(0, n - gap)] - acc


def _hitting_defect(lat: Lattice, V: np.ndarray, half: np.ndarray,
                    band) -> np.ndarray:
    """Defect at step 0 for the first exit of log-wealth from +/- band.

    band may be an array of bands: they share one backward sweep, and the
    result has one row per band.  The sweep keeps the stopped value G_k and
    the carry G_k + half_k in two scratch buffers with one row per band.
    """
    n = lat.n_steps
    steps = AdaptedGrid.per_node(np.arange(n + 1))
    logw = np.log(lat.wealth.data / lat.x0) - lat.log_drift * steps * lat.dt
    stopped = np.abs(logw) >= np.asarray(band)[..., None]
    shape = stopped.shape[:-1] + (n + 1,)
    top = AdaptedGrid.span(n)
    acc = np.broadcast_to(V[top], shape)
    carry = np.add(acc, half[top])
    scratch = np.empty(shape)
    for k in range(n - 1, -1, -1):
        start, stop = k * (k + 1) // 2, (k + 1) * (k + 2) // 2
        half_k = half[start:stop]
        acc = _trapezoid_step(carry[..., :k + 2], half_k, scratch[..., :k + 1])
        np.copyto(acc, V[start:stop], where=stopped[..., start:stop])
        np.add(acc, half_k, out=carry[..., :k + 1])
    return V[:1] - acc


def check_solution(grid: AdaptedGrid, companion: AdaptedGrid, lat: Lattice,
                   prefs: Preferences, tol: float,
                   space: str = "W") -> ResidualReport:
    """Classify a grid as sub/supersolution/solution by sampled residuals.

    space "W": grid is a non-negative transformed utility W and companion the
    transformed consumption U.  space "V": grid is a utility process in the
    preference sign domain and companion the consumption grid C.

    The tolerance is relative: defects are compared against tol * sup|grid|.

    Raises
    ------
    SignDomainViolation
        If the grid leaves its sign domain.
    """
    grid.check_shape(lat)
    companion.check_shape(lat)
    if space not in ("W", "V"):
        raise InvalidParameters(f"space must be 'W' or 'V', got {space!r}")
    domain = ValueSign.NON_NEGATIVE if space == "W" else prefs.value_sign
    probe = AdaptedGrid.from_packed(grid.data, sign_domain=domain)
    if not probe.validate_sign():
        raise SignDomainViolation(f"grid leaves its {domain.value} domain")

    half = _aggregator_values(grid, companion, lat, prefs, space)
    half *= 0.5 * lat.dt
    V = grid.data
    families: list[tuple[str, np.ndarray]] = []
    for gap in (1, 5, 25):
        if gap <= lat.n_steps:
            families.append((f"pairs_gap_{gap}", _pair_defects(lat, V, half, gap)))
    sigma_T = lat.log_vol * math.sqrt(max(lat.horizon, lat.dt))
    if sigma_T > 0.0:
        mults = (1.0, 2.0)
        defects = _hitting_defect(lat, V, half, np.array(mults) * sigma_T)
        families += [(f"hitting_band_{mult:g}sigma", d)
                     for mult, d in zip(mults, defects)]
    family_bounds: dict[str, tuple[float, float]] = {}
    defect_min, defect_max = math.inf, -math.inf
    worst_neg = worst_pos = None
    for label, d in families:
        imin, imax = int(np.argmin(d)), int(np.argmax(d))
        family_bounds[label] = (float(d[imin]), float(d[imax]))
        if d[imin] < defect_min:
            defect_min = float(d[imin])
            worst_neg = (label, *AdaptedGrid.node(imin))
        if d[imax] > defect_max:
            defect_max = float(d[imax])
            worst_pos = (label, *AdaptedGrid.node(imax))

    trace = unconditional_expectation(lat, grid)
    abs_trace = np.abs(trace) + 1e-300
    half = len(trace) // 2
    trace_slope = float(np.polyfit(lat.times[half:], np.log(abs_trace[half:]), 1)[0])
    exploding = (trace_slope > 1e-9
                 and abs_trace[-1] > 10.0 * max(abs_trace[0], 1e-12))
    trace_ok = not exploding

    scale = max(grid.sup_abs(), 1e-12)
    tol_abs = tol * scale
    sub_ineq = defect_max <= tol_abs
    sup_ineq = defect_min >= -tol_abs
    if domain is ValueSign.NON_NEGATIVE:
        sub_ok = sub_ineq and trace_ok
        sup_ok = sup_ineq
    else:
        sub_ok = sub_ineq
        sup_ok = sup_ineq and trace_ok
    if sub_ok and sup_ok:
        classification = "solution"
    elif sup_ok:
        classification = "supersolution"
    elif sub_ok:
        classification = "subsolution"
    else:
        classification = "neither"
    return ResidualReport(
        classification=classification,
        defect_min=defect_min,
        defect_max=defect_max,
        tol_abs=tol_abs,
        family_bounds=family_bounds,
        worst_negative=worst_neg,
        worst_positive=worst_pos,
        terminal_expectation_trace=trace,
        trace_ok=trace_ok,
        trace_slope=trace_slope,
    )


@dataclass
class ComparisonVerdict:
    ordered: bool
    violations: list[tuple[int, int, float, float]]


def compare(v_sub: AdaptedGrid, v_super: AdaptedGrid,
            max_violations: int = 20) -> ComparisonVerdict:
    """Nodewise ordering verdict: is v_sub <= v_super everywhere?

    Violations are reported with their (step, node) coordinates.

    Raises
    ------
    DimensionMismatch
        If the grids have different shapes.
    """
    if v_sub.n_steps != v_super.n_steps:
        raise DimensionMismatch("grids must share a lattice")
    a, b = v_sub.data, v_super.data
    bad = np.flatnonzero(a > b)[: max(0, max_violations)]
    violations = [(*AdaptedGrid.node(int(i)), float(a[i]), float(b[i])) for i in bad]
    return ComparisonVerdict(ordered=len(violations) == 0, violations=violations)
