"""Fixed-point solver for the utility recursion on the lattice.

Everything here works in the transformed coordinates W = (1-R)V >= 0,
U = b*theta*e^{-delta t} C^{1-S} >= 0, where the recursion reads

    W_t = E_t[ integral_t^inf u(s) W_s^rho ds ]          (rho = (theta-1)/theta).

One application of the right-hand side on the lattice is `apply_recursion`:
the kernel over the whole packed grid in one call, a tail closure beyond the
horizon, and a backward sweep of the trapezoid step

    G_k = E_k[ G_{k+1} + dt/2 f_{k+1} ] + dt/2 f_k.

That step is written once (`_trapezoid_step`), over any contiguous range of
packed steps: the operator, `reference_integral`, the order check and a
solve's residual sweep it one step at a time, since each step needs the
next, while the pair-defect families take it once, for every start step at
once: the one-step defects d_1 give every gap, since by the tower property
the trapezoid sums telescope and the gap-g family is
R_g(k) = d_1(k) + E_k[R_{g-1}(k+1)], so one chain of neighbour means, which
masks out the pairs that straddle two steps, yields each gap on its way.
The sequential sweep is written once too (`_backward_blocks`): it takes the
integrand one block of whole steps at a time, the carry
a = G_{k+1} + dt/2 f_{k+1} sits in one scratch buffer of n+1 values, and the
step writes ½(a[1:] + a[:-1]) + dt/2 f_k into a second one, so a step is a
few numpy calls and allocates nothing; G_k is copied over f_k, so G
accumulates in the integrand's own buffer, the whole grid for the operator
and `reference_integral`, one block for the order check's ratios and for the
residual, which a `SolveReport` forms when it is first read.  The neighbour
mean is the exact one-step expectation because the lattice moves up with
probability ½.
`picard_solve` does not iterate that operator.  With the driver frozen,
W' = -u W^rho is a Bernoulli equation, linear in Z = W^(1/theta) because
1/theta - 1 + rho = 0: Z' = -u/theta.  So half a step of length h = dt/2
is exact, and around the one-step expectation it gives the explicit step
(Strang's symmetric splitting; G. Strang, SIAM J. Numer. Anal. 5, 1968)

    Y = (Z_{k+1} + h u_{k+1}/theta)^theta,   Z_k = E_k[Y]^(1/theta) + h u_k/theta,
    W_k = Z_k^theta,

from W_n = U_n^theta / H^theta (proportional tail) or W_n = 0 (zero tail).
`_strang_sweep` takes it once per layer, from the horizon down: no fixed
point, no iteration and no stop rule.  It carries Z (two powers a layer, in
place on O(n) scratch) and forms W = Z^theta, clamped into [e^-700, e^700],
in one call after it.  Each piece is an increasing map or an average with
positive weights, so the step is monotone for every rho <= 0, and at rho = 0
(theta = 1) it is the trapezoid step term for term.  An epsilon term
eps Lambda^theta does not depend on W, so it adds a quarter step
dt/4 eps Lambda^theta on each side of each Bernoulli half step.  The solve
is not the fixed point of the trapezoid operator: a report's residual
measures how far the two first-order schemes disagree.

The sweep takes K drivers at once, too: side by side in an array of shape
(nodes, K), the batch axis after the nodes, so that a layer of every driver
is still one slice and each numpy call serves every driver.
`generalized_utility` solves its truncation levels, which share one lattice,
this way: stacked in chunks of at most `_BATCH_NODES` values, one sweep a
chunk, of which it keeps only W_0.

Preconditions are expressed through order certificates: the reference Lambda
must satisfy Lambda^theta comparable to I^Lambda_t = E_t[integral Lambda^theta]
(self-similarity), and the driver U must be comparable to Lambda (or bounded
above by it when an epsilon-perturbation is used).

`check_solution` is a residual falsifier for the sub/supersolution
inequalities over a sampled family of step pairs and hitting times (summed
forward over the nodes a killed walk reaches), and `generalized_utility`
evaluates arbitrary consumption grids by monotone truncation against the
candidate optimal stream.  What the hitting families read of the walk (the
reached nodes, their masses and where the walk stops) depends only on the
lattice size n and the band multiples, so `_hitting_walks` keeps it for the
last four (n, multiples) keys: repeated checks on one lattice skip the walk.
An entry is a strip of O(sqrt(n)) nodes per step, O(n^1.5) values against a
grid's O(n^2), and the fixed maxsize bounds how many are held.  The mask of
the node pairs within a step that the pair-defect chain reads depends on n
alone too, and `_within_pairs` keeps it for the last four n, one byte a node.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from . import closed_form
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    MissingLambda,
    NotInClass,
    PreconditionFailed,
    SignDomainViolation,
    UnsupportedRegime,
)
from .lattice import (
    _step_blocks,
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
#: Most violations `compare` reports.
_MAX_VIOLATIONS = 20

_LOG_CLAMP = 700.0
_CLAMP_LO, _CLAMP_HI = math.exp(-_LOG_CLAMP), math.exp(_LOG_CLAMP)
_RATIO_GUARD = 1e12
#: 0-d operand for the ufunc calls of the trapezoid step and the pair-defect
#: chain: a Python float operand is converted anew on every call, which
#: costs a small layer about a third of the call.
_HALF = np.array(0.5)
_HALF.flags.writeable = False


# ---------------------------------------------------------------------------
# The backward trapezoid step
# ---------------------------------------------------------------------------

def _trapezoid_step(a: np.ndarray, half_k: np.ndarray | None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """E_k[a] + half_k with a = G_{k+1} + half_{k+1}, written into out if given;
    E_k[a] alone if half_k is None.

    The lattice moves up with probability 1/2, so E_k[a] is the neighbour mean
    ½(a[j+1] + a[j]); it rounds exactly like ½a[j+1] + ½a[j], since halving is
    exact away from subnormals.  Axes after the first are batch axes.  A
    single step into out is three numpy calls and allocates nothing.
    """
    out = np.add(a[1:], a[:-1], out=out)
    np.multiply(out, _HALF, out=out)
    if half_k is not None:
        np.add(out, half_k, out=out)
    return out


#: A packed array formed on demand for a slice of nodes: an integrand, or
#: the epsilon term (see `_epsilon_term`).
_SliceFn = Callable[[slice], np.ndarray]


def _closure_start(lat: Lattice, top: np.ndarray) -> int:
    """Lowest step of the closure layers top: n, or n-1 for a zero tail."""
    return lat.n_steps - 1 if len(top) > lat.n_steps + 1 else lat.n_steps


def _backward_blocks(lat: Lattice, top: np.ndarray, integrand: _SliceFn):
    """G_k = E_k[ sum of trapezoid slices of f + G_m ], one backward sweep
    from the closure layers down, one block of whole steps at a time.

    top holds the packed layers m..n that the tail closure sets (see
    `_closure_start`).  integrand(s) gives the packed integrand f on the
    steps of the slice s as a writable array: a view of the caller's grid or
    a new block.  The sweep scales it to half = dt/2 f in place, overwrites
    it with G and yields (s, G on s), for blocks from step m-1 down to step
    0; a yielded block is the caller's.  The carry a = G_{k+1} + half_{k+1}
    and one step of G live in two buffers of one layer, so the sweep holds
    nothing of grid size.
    """
    m = _closure_start(lat, top)
    half = 0.5 * lat.dt
    f_m = integrand(AdaptedGrid.span(m))
    np.multiply(f_m, half, out=f_m)
    carry = np.add(top[:m + 1], f_m)
    g = np.empty(m)
    for lo, hi in reversed(_step_blocks(0, m - 1)):
        block = AdaptedGrid.span(lo, hi)
        f = integrand(block)
        np.multiply(f, half, out=f)
        for k in range(hi, lo - 1, -1):
            start = k * (k + 1) // 2 - block.start
            half_k = f[start:start + k + 1]
            g_k = _trapezoid_step(carry[:k + 2], half_k, g[:k + 1])
            np.add(g_k, half_k, out=carry[:k + 1])
            half_k[...] = g_k
        yield block, f


def _backward_accumulate(lat: Lattice, f: np.ndarray, top: np.ndarray) -> np.ndarray:
    """`_backward_blocks` in place in f, the packed integrand on steps 0..m or
    on the whole lattice: f is returned holding G on steps 0..m-1 and the
    closure layers as far as f reaches."""
    for _ in _backward_blocks(lat, top, f.__getitem__):
        pass
    layer = AdaptedGrid.span(_closure_start(lat, top))
    f[layer.start:] = top[:f.size - layer.start]
    return f


def _epsilon_term(prefs: Preferences, epsilon: float,
                  Lambda: AdaptedGrid | None) -> _SliceFn | None:
    """The epsilon term epsilon * Lambda^theta, formed on demand slice by
    slice so that no grid of it is held; None unless epsilon > 0."""
    if not epsilon > 0.0:
        return None
    lam = Lambda.data

    def term(nodes: slice) -> np.ndarray:
        e = np.power(lam[nodes], prefs.theta)
        return np.multiply(e, epsilon, out=e)
    return term


#: Most Newton steps of the epsilon tail's root; it stops once no node
#: moves, after a handful.
_TAIL_NEWTON_STEPS = 64


def _tail_root(a: np.ndarray, c: np.ndarray, rho: float) -> np.ndarray:
    """The root of W = a + c W^rho at each node, for a, c >= 0 and rho <= 0.

    The root lies in [s, 2s] with s = max(a, c^theta), theta = 1/(1 - rho):
    below c^theta the right side exceeds W, and c s^rho <= c^theta <= s.
    g(W) = W - a - c W^rho is increasing and concave, so Newton's steps from
    W = s, where g <= 0, rise to the root without passing it; a step that
    rounding makes negative is not taken, so the loop ends once no node
    moves.  A node with s = 0 or s = inf is its own root, W = s.
    """
    s = np.maximum(a, np.power(c, 1.0 / (1.0 - rho)))
    inner = (0.0 < s) & (s < math.inf)
    a, c, w = a[inner], c[inner], s[inner]
    for _ in range(_TAIL_NEWTON_STEPS):
        t = c * np.power(w, rho)
        step = np.maximum((a + t - w) / (1.0 - rho * t / w), 0.0)
        moved = w + step
        if np.array_equal(moved, w):
            break
        w = moved
    s[inner] = w
    return s


def _terminal_layer(prefs: Preferences, lat: Lattice, tail: TailClosure,
                    u: np.ndarray, eps_term: _SliceFn | None) -> np.ndarray:
    """W_T, the layer the tail closure sets at the horizon.

    A zero tail gives W_T = 0.  Under proportional continuation the fixed
    point beyond the horizon is the strategy's own: W_T = U_T^theta / H^theta.
    With an epsilon term, and Lambda continuing like U, it is the root of

        W = epsilon Lambda_T^theta / H + (U_T / H) W^rho,

    which `_tail_root` finds node by node to rounding: with Lambda = U it is
    w U_T^theta, H w = w^rho + epsilon.  u may carry a batch axis after the
    nodes (see `_strang_sweep`); the layer comes back with it, one column a
    row.  The epsilon term has no batch axis.
    """
    terminal = AdaptedGrid.span(lat.n_steps)
    if tail.mode == "zero":
        return np.zeros((lat.n_steps + 1,) + u.shape[1:])
    if eps_term is None:
        return np.power(u[terminal], prefs.theta) / tail.decay_rate**prefs.theta
    return _tail_root(eps_term(terminal) / tail.decay_rate,
                      u[terminal] / tail.decay_rate, prefs.rho)


def _tail_solution(prefs: Preferences, lat: Lattice, tail: TailClosure,
                   u: np.ndarray, eps_term: _SliceFn | None) -> np.ndarray:
    """Layers of the trapezoid operator that the tail closure sets: the
    terminal layer (`_terminal_layer`) and, for a zero tail, below it the
    exact frozen-driver layer W_{n-1} = (u_{n-1} dt/theta)^theta, to which
    the epsilon term adds its left rectangle dt * epsilon * Lambda_{n-1}^theta.
    """
    top = _terminal_layer(prefs, lat, tail, u, eps_term)
    if tail.mode == "zero":
        last = AdaptedGrid.span(lat.n_steps - 1)  # empty when n = 0
        w_last = np.power(u[last] * lat.dt / prefs.theta, prefs.theta)
        if eps_term is not None:
            w_last += lat.dt * eps_term(last)
        top = np.concatenate([w_last, top])
    return top


def reference_integral(prefs: Preferences, target: AdaptedGrid, lat: Lattice,
                       tail: TailClosure) -> AdaptedGrid:
    """I^Lambda: backward cumulative expectation of Lambda^theta plus tail.

    Proportional continuation sets Lambda_T^theta / H at T.  A zero tail sets
    0 at T and the last step's left rectangle dt * Lambda_{n-1}^theta, exact
    for an integrand frozen over the step.
    """
    target.check_shape(lat)
    lam_theta = np.power(target.data, prefs.theta)
    return AdaptedGrid.from_packed(
        _backward_accumulate(lat, lam_theta, _reference_top(lam_theta, lat, tail)))


def _reference_top(lam_theta: np.ndarray, lat: Lattice, tail: TailClosure) -> np.ndarray:
    """The closure layers of I^Lambda, from the packed Lambda^theta."""
    n = lat.n_steps
    if tail.mode == "zero":
        return np.concatenate([lat.dt * lam_theta[AdaptedGrid.span(n - 1)], np.zeros(n + 1)])
    return lam_theta[AdaptedGrid.span(n)] / tail.decay_rate


# ---------------------------------------------------------------------------
# Order certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderCertificate:
    """Nodewise bounds k_lower * I^Lambda <= Lambda^theta <= K_upper * I^Lambda.

    Lambda is the checked reference process and I^Lambda its
    `reference_integral`; the bounds are taken over steps 0..n-1 (the
    terminal layer is excluded because the truncation dominates it).
    """

    k_lower: float
    K_upper: float


def _slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on t, two points at least: the closed form
    sum((t - mean t)(y - mean y)) / sum((t - mean t)^2), which agrees with
    `np.polyfit(t, y, 1)[0]` up to rounding at a fraction of its cost."""
    tc = t - t.mean()
    return float(tc @ (y - y.mean()) / (tc @ tc))


def order_check(prefs: Preferences, target: AdaptedGrid, lat: Lattice,
                tail: TailClosure) -> OrderCertificate:
    """Self-similarity test: is target^theta of the same order as I^target?

    target^theta is raised to its power once and held as the one grid of the
    check.  The reference sweep takes copies of it a block at a time, and
    each block of I^target it yields is overwritten with the ratio
    target^theta / I^target, so the check holds one grid plus one block and
    never all of I^target (`reference_integral` returns that).

    Raises
    ------
    InvalidParameters
        If the lattice has a single node (n_steps = 0): no decay rate can be
        fitted to one time.
    NotInClass
        If target is not strictly positive, if the fitted decay rate of
        E[target^theta] is non-negative (the defining integral diverges when
        the grid is extended), or if the nodewise ratio leaves (0, guard).
    """
    target.check_shape(lat)
    if lat.n_steps < 1:
        raise InvalidParameters("order check needs a lattice of at least one step")
    if not (target.data.min() > 0.0 and target.data.max() < math.inf):
        raise NotInClass("reference process must be strictly positive and finite")
    lam_theta = np.power(target.data, prefs.theta)
    trace = unconditional_expectation(lat, AdaptedGrid.from_packed(lam_theta))
    slope = _slope(lat.times, np.log(trace))
    if slope >= -1e-12:
        raise NotInClass(
            f"E[target^theta] decays at rate {-slope:.3e} <= 0; "
            "the defining integral diverges beyond any horizon"
        )
    top = _reference_top(lam_theta, lat, tail)

    def ratios():
        for block, ref in _backward_blocks(lat, top, lambda s: lam_theta[s].copy()):
            yield np.divide(lam_theta[block], ref, out=ref)
        m = _closure_start(lat, top)
        if m < lat.n_steps:  # a zero tail: I^Lambda on step n-1 is top's
            layer = AdaptedGrid.span(m)
            yield lam_theta[layer] / top[:m + 1]

    k_lower, K_upper = _running_bounds(ratios())
    if not (0.0 < k_lower <= K_upper < _RATIO_GUARD):
        raise NotInClass(
            f"order ratio outside (0, {_RATIO_GUARD:g}): [{k_lower}, {K_upper}]"
        )
    return OrderCertificate(k_lower=k_lower, K_upper=K_upper)


def _running_bounds(blocks) -> tuple[float, float]:
    """(min, max) over the arrays of blocks; a NaN in any block makes both
    NaN, as in one reduction over all of them."""
    smallest, largest = math.inf, -math.inf
    for v in blocks:
        smallest, largest = np.minimum(smallest, v.min()), np.maximum(largest, v.max())
    return float(smallest), float(largest)


def _order_ratio_bounds(U: AdaptedGrid, Lambda: AdaptedGrid) -> tuple[float, float]:
    blocks = (AdaptedGrid.span(lo, hi) for lo, hi in _step_blocks(0, U.n_steps))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _running_bounds(U.data[b] / Lambda.data[b] for b in blocks)


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
    eps_term = _epsilon_term(prefs, epsilon, Lambda)
    top = _tail_solution(prefs, lat, tail, U.data, eps_term)
    # F(W) on steps 0..m: the kernel there, then one backward sweep in place,
    # which leaves the closure's layer m on top.
    below = slice(0, AdaptedGrid.span(_closure_start(lat, top)).stop)
    fw = _backward_accumulate(
        lat, _kernel_integrand(U.data, W.data, prefs.rho, eps_term)(below), top)
    if fw.size < W.data.size:  # a zero tail: fw ends at step n-1, top holds n-1 and n
        fw = np.concatenate([fw, top[lat.n_steps:]])
    return AdaptedGrid.from_packed(fw)


def _kernel_integrand(u: np.ndarray, w: np.ndarray, rho: float,
                      eps_term: _SliceFn | None) -> _SliceFn:
    """The integrand of F(w), u * w^rho + eps_term, as a new array on a
    packed slice."""
    def integrand(nodes: slice) -> np.ndarray:
        f = transformed_aggregator_grid(u[nodes], w[nodes], rho)
        if eps_term is not None:
            f += eps_term(nodes)
        return f
    return integrand


def _residual(lat: Lattice, u: np.ndarray, W: np.ndarray, rho: float,
              eps_term: _SliceFn | None, top: np.ndarray) -> float:
    """sup |log F(W) - log W| over the layers below the tail closure top,
    with F(W) clipped into [e^-700, e^700].

    The solve clamps its W into that range too: where F(W) leaves it
    (inf where u = inf, 0 above a block of zero consumption) the solve
    stores an end of the clamp.  F(W) is formed and compared one block of
    steps at a time in one backward sweep, so the check holds nothing of
    grid size; NaN reads as inf.
    """
    gap = 0.0
    for block, f in _backward_blocks(lat, top, _kernel_integrand(u, W, rho, eps_term)):
        np.clip(f, _CLAMP_LO, _CLAMP_HI, out=f)
        np.log(f, out=f)
        f -= np.log(W[block])
        block_gap = float(np.max(np.abs(f, out=f)))
        gap = max(gap, math.inf if math.isnan(block_gap) else block_gap)
    return gap


@dataclass
class SolveReport:
    """Result of a lattice solve.

    solution is W on every node, and clamp_events counts the nodes below
    the horizon that the solve holds at an end of [e^-700, e^700] (see
    `_strang_sweep`).  residual is the sup-norm log-space gap
    |log F(W) - log W| between the solution and one application of the
    trapezoid operator F (`apply_recursion`), over the layers below the
    operator's tail closure and with F(W) clipped into the clamp's range
    (see `_residual`).  The solve is not F's fixed point, so the residual
    is the disagreement of two first-order schemes, not a tolerance: it
    falls like dt^2 on a smooth driver (1.4e-8 at n = 100 and 5.4e-10 at
    n = 500 at the reference point), and stays near 7e-3 next to a zero
    tail's horizon, where W ~ (T - t)^theta and the trapezoid step, unlike
    the sweep's, is not exact.  It is formed on its first read, in one more backward
    sweep, and kept: until then the report keeps the solve's U and Lambda
    alive and reads them, and the solution, as they are at that read; the
    read drops them.

    converged (always True), iterations (1: the solve is one backward pass)
    and chi (0.0: nothing is iterated, so there is no contraction ratio) say
    nothing about a solve; they stay for the readers of the CLI summary and
    of the benchmark until those are renamed.
    """

    solution: AdaptedGrid
    clamp_events: int
    #: The residual's other operands (prefs, lat, tail, u, eps_term) until
    #: it is read, then None.
    _operands: tuple | None = field(default=None, repr=False, compare=False)
    converged: ClassVar[bool] = True
    iterations: ClassVar[int] = 1
    chi: ClassVar[float] = 0.0

    @cached_property
    def residual(self) -> float:
        prefs, lat, tail, u, eps_term = self._operands
        top = _tail_solution(prefs, lat, tail, u, eps_term)
        gap = _residual(lat, u, self.solution.data, prefs.rho, eps_term, top)
        self._operands = None
        return gap

    def utility_at_zero(self, prefs: Preferences) -> float:
        """Time-0 utility V_0 = W_0 / (1-R)."""
        return float(self.solution.data[0]) / (1.0 - prefs.R)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "chi": self.chi,
            "clamp_events": self.clamp_events,
            "w0": float(self.solution.data[0]),
        }


def _strang_sweep(prefs: Preferences, lat: Lattice, tail: TailClosure, u: np.ndarray,
                  eps_term: _SliceFn | None, out: np.ndarray | None = None) -> np.ndarray:
    """W by one explicit backward sweep; returns W_0, and writes every
    layer into out if it is given.

    The sweep carries Z = W^(1/theta), in which a half step adds
    c_k = h u_k/theta: from the terminal layer W_n (`_terminal_layer`) down,

        Y = (Z_{k+1} + c_{k+1})^theta,   Z_k = E_k[Y]^(1/theta) + c_k,

    two powers a layer.  Z_k goes into out (or one layer buffer), and after
    the sweep one call forms W = Z^theta on steps 0..n-1.  An epsilon term
    e = dt/4 eps Lambda^theta adds a quarter step on each side of each half
    step, in W: W_k = ((E_k[Y] + e)^(1/theta) + c_k)^theta + e goes into out,
    and Y starts from (W_k + e)^(1/theta).

    W is then clamped into [e^-700, e^700]: a node with u = inf (C = 0 and
    S > 1) gives W = inf, and one with u = 0 above a block of W = 0 gives 0.
    Y comes from the unclamped carry, so the clamp holds the whole cone
    above an infinite node.

    The batch axis.  u is one packed driver, or K of them side by side in an
    array of shape (nodes, K): column r is row r of the batch.  A layer is
    still the slice of its nodes and every operation is elementwise, so each
    numpy call steps layer k of every row, and a row's W is that of its
    single sweep.  The epsilon term has no batch axis.

    Beyond u and out the sweep holds O(n): one layer each of Y, c, Z and
    the epsilon term, and it allocates nothing else a layer.
    """
    n, theta, h = lat.n_steps, prefs.theta, 0.5 * lat.dt
    w = _terminal_layer(prefs, lat, tail, u, eps_term)
    if out is not None:
        out[AdaptedGrid.span(n)] = w
    if n == 0:
        return w
    y, c, z = np.empty((3, n + 1) + u.shape[1:])
    # 0-d operands, as for _HALF: a Python float is converted on every call
    th, inv_th, c_per_u = np.array(theta), np.array(1.0 / theta), np.array(h / theta)
    x = w if eps_term is not None else np.power(w, inv_th)  # the carry at step n
    with np.errstate(over="ignore"):  # E_k[Y]^(1/theta) of a large Y
        for k in range(n, -1, -1):
            nodes = AdaptedGrid.span(k)
            y_k = y[:k + 1]
            c_k = np.multiply(u[nodes], c_per_u, out=c[:k + 1])
            e = None if eps_term is None else eps_term(nodes) * (0.5 * h)
            if k < n:
                x = z[:k + 1] if out is None else out[nodes]
                np.add(y[1:k + 2], y_k, out=x)
                x *= _HALF
                if e is not None:
                    x += e
                x **= inv_th
                x += c_k
            if e is not None:  # W_k into x, and (W_k + e)^(1/theta) into y_k
                if k < n:
                    x **= th
                    x += e
                x = np.add(x, e, out=y_k)
                x **= inv_th
            np.add(x, c_k, out=y_k)
            y_k **= th
            if e is not None:
                y_k += e
        w = z[:1] if out is None else out[:AdaptedGrid.span(n).start]
        if eps_term is None:
            w **= th
    np.maximum(w, _CLAMP_LO, out=w)
    return np.minimum(w, _CLAMP_HI, out=w)[:1]


def picard_solve(prefs: Preferences, U: AdaptedGrid, lat: Lattice,
                 tail: TailClosure, epsilon: float = 0.0,
                 Lambda: AdaptedGrid | None = None,
                 enforce_order: bool = True) -> SolveReport:
    """The utility recursion's W on the lattice for the transformed driver U.

    Lambda defaults to U itself; it sets the epsilon term and the order
    certificate.  For every supported rho <= 0 one explicit backward sweep
    takes each layer in a step that is exact for a frozen driver (see
    `_strang_sweep`): no fixed point is iterated, so nothing can fail to
    converge.  The name is kept from the solver's Picard days.

    Raises
    ------
    UnsupportedRegime
        Outside the CRRA and contractive (theta in (0,1]) regimes.
    PreconditionFailed
        If enforce_order is set and the order check fails (a one-node lattice
        included), or U is not of the same order as Lambda (for epsilon = 0)
        or not bounded above by a multiple of Lambda (for epsilon > 0).
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

    if enforce_order:
        try:
            order_check(prefs, lam_grid, lat, tail)
        except (NotInClass, InvalidParameters) as exc:
            raise PreconditionFailed(f"reference grid fails order check: {exc}") from exc
        # The order check has found Lambda strictly positive and finite, so
        # U / U is 1 at every node.
        lo, hi = (1.0, 1.0) if lam_grid is U else _order_ratio_bounds(U, lam_grid)
        if epsilon == 0.0 and not (0.0 < lo <= hi < math.inf):
            raise PreconditionFailed(
                f"U not of the same order as Lambda: ratio range [{lo}, {hi}]"
            )
        if epsilon > 0.0 and not (0.0 <= lo <= hi < math.inf):
            raise PreconditionFailed(
                f"U not bounded by a multiple of Lambda: ratio range [{lo}, {hi}]"
            )

    eps_term = _epsilon_term(prefs, epsilon, lam_grid)
    W = np.empty(U.data.shape)
    _strang_sweep(prefs, lat, tail, U.data, eps_term, out=W)
    swept = W[:AdaptedGrid.span(lat.n_steps).start]
    clamp_events = (int(np.count_nonzero(swept == _CLAMP_LO))
                    + int(np.count_nonzero(swept == _CLAMP_HI)))
    return SolveReport(solution=AdaptedGrid.from_packed(W), clamp_events=clamp_events,
                       _operands=(prefs, lat, tail, U.data, eps_term))


# ---------------------------------------------------------------------------
# Generalized utility by monotone truncation
# ---------------------------------------------------------------------------

#: Most driver values one batched sweep of `generalized_utility` stacks: a
#: chunk of U, 8 MB, and one truncation level at least.
_BATCH_NODES = 1 << 20


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
                        lat: Lattice, tail: TailClosure,
                        n_max: int) -> GeneralizedUtilityReport:
    """Evaluate an arbitrary consumption grid by monotone truncation.

    The truncated streams are C^n = C /\\ n*Chat for R < 1 (an increasing
    sequence) and C^n = C \\/ Chat/n for R > 1 (a decreasing one), where
    Chat = eta * X is the candidate optimal consumption read off the lattice.
    The truncations share one lattice, so they are solved together: their
    drivers are stacked, at most `_BATCH_NODES` values to a chunk (one level
    at least), and each chunk is one batched `_strang_sweep`, whose rows are
    `picard_solve`'s W_0 bit for bit (without the order check).  The sweep
    keeps one layer, not each level's whole W.  The time-0 values form a
    monotone sequence whose limit is classified as finite or divergent at
    the desk-scale threshold 1e6.

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
    c_hat = policy.eta * lat.wealth.data
    ns = [1]
    while ns[-1] < n_max:
        ns.append(min(2 * ns[-1], n_max))

    def driver(n: int) -> np.ndarray:
        """The packed U of truncation level n."""
        if prefs.R < 1.0:
            c_n = np.minimum(C_grid.data, n * c_hat)
        else:
            c_n = np.maximum(C_grid.data, c_hat / n)
        return transformed_consumption_grid(prefs, lat, AdaptedGrid.from_packed(c_n)).data

    nodes = c_hat.size
    per_chunk = max(1, _BATCH_NODES // nodes)
    values: list[float] = []
    for first in range(0, len(ns), per_chunk):
        levels = ns[first:first + per_chunk]
        if len(levels) == 1:
            u = driver(levels[0])
        else:
            u = np.empty((nodes, len(levels)))
            for r, n in enumerate(levels):
                u[:, r] = driver(n)
        w0 = _strang_sweep(prefs, lat, tail, u, None)
        values += [float(w) / (1.0 - prefs.R) for w in w0.ravel()]
        del u  # freed before the next chunk is built

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


@lru_cache(maxsize=4)
def _within_pairs(n: int) -> np.ndarray:
    """Read-only mask of the packed node pairs (i, i+1) that lie on one
    step, over steps 0..n."""
    within = np.diff(AdaptedGrid.per_node(np.arange(n + 1))) == 0
    within.flags.writeable = False
    return within


def _pair_defects(n: int, V: np.ndarray, half: np.ndarray,
                  gaps: tuple[int, ...]) -> list[np.ndarray]:
    """Packed defects V_k - E_k[V_{k+g} + trapezoid(f)] for every start k,
    one array per gap g of the increasing gaps (each in 1..n), with
    half = dt/2 * f, read on steps 0..n.

    The one-step defects d_1(k) = V_k - (E_k[V_{k+1} + half_{k+1}] + half_k)
    give every gap: by the tower property the trapezoid sums telescope, so
    the gap-g defect is the sum over i < g of E_k[d_1(k+i)], that is
    R_g(k) = d_1(k) + E_k[R_{g-1}(k+1)].  One chain of neighbour means over
    the packed range of steps advances every start step at once, and the
    mask of the pairs within a step, kept per n, drops the pairs that
    straddle two steps.  A chain step is four numpy calls: the pair sums,
    the drop, then halving and adding d_1 in place (halving is exact away
    from subnormals, so halving after the drop rounds as before it).  Each
    array is let go once read, so beside d_1 and the families kept the
    chain holds two arrays of about a grid at most.
    """
    within = _within_pairs(n)
    ahead = AdaptedGrid.span(1, n)
    acc = _trapezoid_step(V[ahead] + half[ahead], None)[within[ahead.start:ahead.stop - 1]]
    acc += half[:acc.size]
    d1 = r = V[:acc.size] - acc
    del acc
    families = []
    for gap in range(1, gaps[-1] + 1):
        if gap > 1:  # R_gap on steps 0..n-gap from R_{gap-1} on steps 0..n-gap+1
            pairs = np.add(r[2:], r[1:-1])
            del r
            r = pairs[within[1:pairs.size + 1]]
            del pairs
            r *= _HALF
            r += d1[:r.size]
        if gap in gaps:
            families.append(r)
    return families


def _reach_masses(n: int, bounds: np.ndarray) -> np.ndarray:
    """r[k, b, c + d], the chance that the walk d = 2j - k from 0 reaches
    (k, d), stopped at step n or at its first d^2 >= bounds[b] (reached too).

    It stays within |d| <= L + 1, L^2 < bound <= (L + 1)^2, so the strip
    |d| <= c = L + 2 of the widest band holds it, with end columns at 0, and
    a step is one product with ½ on the nodes that go on and one shifted add.
    """
    c = math.isqrt(math.ceil(bounds.max()) - 1) + 2
    d = np.arange(-c, c + 1)
    half_alive = np.where(d * d < bounds[:, None], 0.5, 0.0)
    r = np.zeros((n + 1, bounds.size, 2 * c + 1))
    r[0, :, c] = 1.0
    moving = np.empty_like(half_alive)
    for k in range(n):
        np.multiply(r[k], half_alive, out=moving)
        np.add(moving[:, :-2], moving[:, 2:], out=r[k + 1, :, 1:-1])
    return r


@lru_cache(maxsize=4)
def _hitting_walks(n: int, mults: tuple[float, ...]) -> tuple:
    """For each band multiple: (packed indices of the nodes the killed walk
    reaches, their `_reach_masses`, the stop mask), as read-only arrays.

    The walk stops at step n or once d^2 >= mult^2 n, so all three depend
    on n and the multiples alone.  The reached nodes sit in a strip of
    O(sqrt(n)) nodes per step: O(n^1.5) values against a grid's O(n^2).
    """
    bounds = np.square(np.asarray(mults, dtype=float)) * n
    r = _reach_masses(n, bounds)
    walks = []
    for b, bound in enumerate(bounds):
        k, p = np.nonzero(r[:, b])  # the reached nodes, step by step
        d = p - r.shape[-1] // 2
        walk = (k * (k + 1) // 2 + (k + d) // 2, r[k, b, p], (d * d >= bound) | (k == n))
        for a in walk:
            a.flags.writeable = False
        walks.append(walk)
    return tuple(walks)


def _hitting_defect(n: int, V: np.ndarray, half: np.ndarray,
                    mults) -> np.ndarray:
    """Defects at step 0 for the first exit of log-wealth from the bands
    +/- mult * s sqrt(n dt), one per multiple in mults.

    Log-wealth lies (2j - k) s sqrt(dt) from its drift, so the walk
    d = 2j - k stops at step n or once d^2 >= mult^2 n, exactly.  The stopped
    expectation E[V_tau + trapezoid(f) up to tau] sums over the nodes it
    reaches, by their `_reach_masses`: V where it stops, half = dt/2 f where
    it goes on and, past step 0, half for the step in.  Unreached nodes are
    left out, so an infinite f there gives no 0 * inf.  The reached nodes,
    their masses and the stop mask depend only on n and mults, so
    `_hitting_walks` keeps them for the last few (n, mults) asked for.
    """
    walks = _hitting_walks(n, tuple(float(m) for m in mults))
    g = np.empty(len(walks))
    for b, (nodes, mass, stops) in enumerate(walks):
        h = half[nodes]
        g[b] = mass @ np.where(stops, V[nodes], h) + mass[1:] @ h[1:]
    return V[0] - g


def check_solution(grid: AdaptedGrid, companion: AdaptedGrid, lat: Lattice,
                   prefs: Preferences, tol: float,
                   space: str = "W") -> ResidualReport:
    """Classify a grid as sub/supersolution/solution by sampled residuals.

    space "W": grid is a non-negative transformed utility W and companion the
    transformed consumption U.  space "V": grid is a utility process in the
    preference sign domain and companion the consumption grid C.

    The families are step pairs at gaps 1, 5 and 25 (those at most n) and,
    for s > 0, the first exits of log-wealth from the 1- and 2-sigma bands,
    where a node with |2j - k| on a band stops.  The step-pair families come
    from the one-step defects: by the tower property the gap-g defect is the
    sum of the expected one-step defects along the g steps, so one chain of
    24 neighbour means gives gaps 5 and 25 on its way (see `_pair_defects`).
    A zero terminal layer (a zero tail's) makes u 0^rho infinite for rho < 0:
    for n > 1 the families then leave step n out, as on a lattice of n-1 steps.
    The tolerance is relative: defects are compared against tol * sup|grid|.

    Raises
    ------
    InvalidParameters
        If the lattice has a single node (n_steps = 0): no trace slope can be
        fitted to one time.
    SignDomainViolation
        If the grid leaves its sign domain or holds a NaN or infinite node.
        Only the grid is checked: a companion U may be inf where C = 0 and
        S > 1.
    """
    grid.check_shape(lat)
    companion.check_shape(lat)
    if lat.n_steps < 1:
        raise InvalidParameters("check_solution needs a lattice of at least one step")
    if space not in ("W", "V"):
        raise InvalidParameters(f"space must be 'W' or 'V', got {space!r}")
    # One min and one max decide NaN (which both propagate), +-inf and the
    # sign domain, and give sup|grid| for the tolerance.
    lo, hi = float(grid.data.min()), float(grid.data.max())
    if not (-math.inf < lo and hi < math.inf):
        i = int(np.argmin(np.isfinite(grid.data)))
        k, j = AdaptedGrid.node(i)
        raise SignDomainViolation(f"grid holds {grid.data[i]} at node ({k}, {j})")
    domain = ValueSign.NON_NEGATIVE if space == "W" else prefs.value_sign
    if (lo < 0.0) if domain is ValueSign.NON_NEGATIVE else (hi > 0.0):
        raise SignDomainViolation(f"grid leaves its {domain.value} domain")

    half = _aggregator_values(grid, companion, lat, prefs, space)
    half *= 0.5 * lat.dt
    V = grid.data
    n = lat.n_steps
    if n > 1 and prefs.rho < 0.0 and not V[AdaptedGrid.span(n)].any():
        n -= 1
    gaps = tuple(gap for gap in (1, 5, 25) if gap <= n)
    families = [(f"pairs_gap_{gap}", d)
                for gap, d in zip(gaps, _pair_defects(n, V, half, gaps))]
    if lat.log_vol > 0.0:
        mults = (1.0, 2.0)
        families += [(f"hitting_band_{mult:g}sigma", d)
                     for mult, d in zip(mults, _hitting_defect(n, V, half, mults))]
    family_bounds = {label: (float(d.min()), float(d.max())) for label, d in families}
    lows, highs = zip(*family_bounds.values())
    # a running min/max from +-inf: a NaN family bound is passed over
    defect_min, defect_max = min(math.inf, *lows), max(-math.inf, *highs)

    trace = unconditional_expectation(lat, grid)
    abs_trace = np.abs(trace) + 1e-300
    late = min(len(trace) // 2, len(trace) - 2)  # the later half, two times at least
    trace_slope = _slope(lat.times[late:], np.log(abs_trace[late:]))
    trace_ok = not (trace_slope > 1e-9  # exploding
                    and abs_trace[-1] > 10.0 * max(abs_trace[0], 1e-12))

    tol_abs = tol * max(-lo, hi, 1e-12)
    nonneg = domain is ValueSign.NON_NEGATIVE
    sub_ok = defect_max <= tol_abs and (trace_ok or not nonneg)
    sup_ok = defect_min >= -tol_abs and (trace_ok or nonneg)
    classification = ("solution" if sub_ok and sup_ok else "supersolution" if sup_ok
                      else "subsolution" if sub_ok else "neither")
    return ResidualReport(
        classification=classification,
        defect_min=defect_min,
        defect_max=defect_max,
        tol_abs=tol_abs,
        family_bounds=family_bounds,
        trace_ok=trace_ok,
        trace_slope=trace_slope,
    )


@dataclass
class ComparisonVerdict:
    ordered: bool
    violations: list[tuple[int, int, float, float]]


def compare(v_sub: AdaptedGrid, v_super: AdaptedGrid) -> ComparisonVerdict:
    """Nodewise ordering verdict: is v_sub <= v_super everywhere?

    The first `_MAX_VIOLATIONS` violations are reported with their
    (step, node) coordinates.

    Raises
    ------
    DimensionMismatch
        If the grids have different shapes.
    """
    if v_sub.n_steps != v_super.n_steps:
        raise DimensionMismatch("grids must share a lattice")
    a, b = v_sub.data, v_super.data
    bad = np.flatnonzero(a > b)[:_MAX_VIOLATIONS]
    violations = [(*AdaptedGrid.node(int(i)), float(a[i]), float(b[i])) for i in bad]
    return ComparisonVerdict(ordered=len(violations) == 0, violations=violations)
