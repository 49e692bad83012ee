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
`picard_solve` finds the fixed point W = F(W) of that operator.  Measured in
the log of the ratio to a reference process Lambda^theta, F contracts in the
sup-norm with constant |rho| when rho is in (-1, 0), so the fixed point is
unique; for rho <= -1 no constant below 1 is known.  The solver does not
iterate F.  It uses that the trapezoid step is implicit only in its own
layer: W_k = A_k + e_k + c_k W_k^rho, with c = dt/2 u, e = dt/2 eps
Lambda^theta and A_k = E_k[W_{k+1} + c_{k+1} W_{k+1}^rho + e_{k+1}].  For
every rho <= 0 the scalar map T(W) = A + e + c W^rho is antitone, so each
node has one root, and any W and T(W) bracket it.  `_layer_solve` solves
each layer in a single backward sweep by Newton's method from below, in the
unknown W/s with s = max(A + e, c^theta), whose root lies in [1, 2] however
large or small the layer's values are.  It stops each layer once its bracket
is narrow enough, and adds the layer widths up into a certified bound on the
distance to the lattice fixed point.  At rho = 0 (additive utility) T does
not depend on W, and the first Newton step is exact.  A zero tail solves its
last step exactly, W_{n-1} = (u_{n-1} dt/theta)^theta
(W' = -u W^rho with the driver frozen and W(T) = 0), and the kernel is not
evaluated on the layers a tail closure sets.

The layer solve takes K drivers at once, too: side by side in an array of
shape (nodes, K), the batch axis after the nodes, so that a layer of every
driver is still one slice and one numpy call.  Its only reductions run over
a layer's nodes and give one value per row, so each row decides for itself
its scaling branch, when its Newton steps stop (a stopped row is frozen
while the others step on), whether it fails and which of its nodes the
clamp moves; every node then goes through exactly the elementwise
operations of its row's single solve, and a row's W, trace and clamp events
are those of `picard_solve` on its driver, bit for bit.  `picard_solve` is
the case K = 1, a 1-D driver, whose Newton steps keep Python floats.
`generalized_utility` solves its truncation levels, which share one lattice,
this way: stacked in chunks of at most `_BATCH_NODES` values, one backward
sweep a chunk.

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
#: 0-d operands for the ufunc calls made once per lattice layer: a Python
#: float operand is converted anew on every call, which costs a small layer
#: about a third of the call.
_HALF, _ONE = np.array(0.5), np.array(1.0)
_HALF.flags.writeable = _ONE.flags.writeable = False


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


#: Scalar steps of the epsilon tail's Newton solve; it stops once its width
#: stops shrinking, after a handful.
_TAIL_NEWTON_STEPS = 64


def _over_rows(eps_term: _SliceFn | None, u: np.ndarray) -> _SliceFn | None:
    """eps_term with its values made columns, to broadcast over the rows of a
    batched driver u (see `_layer_solve`); as it is for a single driver."""
    if eps_term is None or u.ndim == 1:
        return eps_term
    return lambda nodes: eps_term(nodes)[:, None]


def _tail_solution(prefs: Preferences, lat: Lattice, tail: TailClosure,
                   u: np.ndarray, eps_term: _SliceFn | None) -> np.ndarray:
    """Layers of the W-recursion that the tail closure sets.

    Under proportional continuation the fixed point beyond the horizon is the
    strategy's own: W_T = U_T^theta / H^theta.  With an epsilon term, and
    Lambda continuing like U, it is the root of

        W = epsilon Lambda_T^theta / H + (U_T / H) W^rho,

    which `_newton_layer` solves node by node to rounding: with Lambda = U it
    is w U_T^theta, H w = w^rho + epsilon.  A zero tail gives W_T = 0 and the
    exact frozen-driver layer W_{n-1} = (u_{n-1} dt/theta)^theta; the epsilon
    term adds its left rectangle dt * epsilon * Lambda_{n-1}^theta there.

    u may carry a batch axis after the nodes (see `_layer_solve`); the
    layers come back with it, one column a row.
    """
    n = lat.n_steps
    eps_term = _over_rows(eps_term, u)
    if tail.mode == "zero":
        last = AdaptedGrid.span(n - 1)  # empty when n = 0
        w_last = np.power(u[last] * lat.dt / prefs.theta, prefs.theta)
        if eps_term is not None:
            w_last += lat.dt * eps_term(last)
        return np.concatenate([w_last, np.zeros((n + 1,) + u.shape[1:])])
    terminal = AdaptedGrid.span(n)
    if eps_term is None:
        return np.power(u[terminal], prefs.theta) / tail.decay_rate**prefs.theta
    a = eps_term(terminal) / tail.decay_rate
    c = u[terminal] / tail.decay_rate
    w_tail, t, *buffers = (np.empty(c.shape) for _ in range(6))
    with np.errstate(all="ignore"):  # zero or infinite a, c: the map sets those nodes
        _newton_layer(a, c, np.array(prefs.rho), np.array(prefs.rho - 1.0), 0.0,
                      _TAIL_NEWTON_STEPS, w_tail, t, *buffers)
    return w_tail


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

    The clamped map is what the solve certifies: where F(W) leaves that range
    (inf where u = inf, 0 above a block of zero consumption) the solve stores
    the clamp.  F(W) is formed and compared one block of steps at a time in
    one backward sweep, so the check holds nothing of grid size; NaN reads
    as inf.
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
    """Result of a lattice solve, with per-layer diagnostics.

    residual is the sup-norm log-space defect |log F(W*) - log W*| of the
    returned solution under one more operator application, over the layers
    below the tail closure and with F(W*) clipped into the clamp's range
    [e^-700, e^700] (see `_residual`).  It is formed on its first read, in
    one more backward sweep, and kept: until then the report keeps the
    solve's U and Lambda alive and reads them, and the solution, as they are
    at that read; the read drops them.  The trace is built on its first
    read too, from the layer widths the report keeps until then, and has
    one entry per solved lattice layer, top layer first: (scalar steps the
    layer took, its start at x = 1 and each Newton step, certified
    log-space bound over that layer and every layer above it, the layer's
    largest ratio of successive bracket widths).  So trace[-1][1] is the
    certified bound over steps 0..n-1, iterations is the largest number of
    scalar steps any layer took, contraction_ratios lists the finite width
    ratios, chi is the largest of them (0.0 if there is none), and
    clamp_events counts the solved nodes the clamp moved.  Newton converges
    quadratically, so a width ratio is about the width it divides, times a
    constant: it falls with the layer's error, far below |rho|.  converged
    is True on every report `picard_solve` returns, since a solve that does
    not certify raises `NotConverged`.
    """

    solution: AdaptedGrid
    converged: bool
    clamp_events: int
    #: Each solved layer's bracket widths, from which the trace is built on
    #: its first read (see `_trace`), then None.
    _layers: list[list[float]] | None = field(default=None, repr=False, compare=False)
    #: The residual's other operands (lat, u, rho, eps_term, top) until it is
    #: read, then None.
    _operands: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def trace(self) -> list[tuple[int, float, float]]:
        trace = _trace(self._layers)
        self._layers = None
        return trace

    @cached_property
    def residual(self) -> float:
        lat, u, rho, eps_term, top = self._operands
        gap = _residual(lat, u, self.solution.data, rho, eps_term, top)
        self._operands = None
        return gap

    @property
    def iterations(self) -> int:
        return max(steps for steps, _, _ in self.trace)

    @property
    def contraction_ratios(self) -> list[float]:
        return [ratio for _, _, ratio in self.trace if math.isfinite(ratio)]

    @property
    def chi(self) -> float:
        return max(self.contraction_ratios, default=0.0)

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


def _layer_solve(lat: Lattice, u: np.ndarray, rho: float, eps_term: _SliceFn | None,
                 top: np.ndarray, tol: float, max_iter: int,
                 labels: list[str] | None = None):
    """Solve W = F(W) for rho <= 0 in one backward sweep, one layer at a time.

    Below the closure layers top (from step m = `_closure_start` on), the
    lattice fixed point W* satisfies, at each node of layer k,

        W = T(W) = a + c W^rho,    a = A_k + e,

    with c = dt/2 u, e = dt/2 eps_term, A_k = E_k[carry_{k+1}] and
    carry = W + c W^rho + e.  T is antitone (constant at rho = 0), so it has
    one root, and an iterate x and its image T(x) lie on either side of it.
    Each layer takes Newton steps on W - T(W) from below (see
    `_newton_layer`), stops once the bracket (x, T(x)) has a relative width
    r_k >= max |T(x) - x|/x of at most tau = tol/(2m), keeps W_k = x and
    passes the carry x + c x^rho + e up to the next layer.

    The certificate.  Let Wt be the root for the computed a, and alpha_k a
    nodewise bound on |A_k - A*_k|; alpha_{m-1} = 0, as the closure layers
    are exact.
      (i) dWt/dA = 1/(1 + q) <= 1 with q = |rho| c Wt^(rho-1), so
          |x - W*_k| <= |x - Wt| + alpha_k <= width + alpha_k.
      (ii) At the root the carry is 2 Wt - A, of slope (1 - q)/(1 + q) in A,
          at most 1 in modulus: an exact layer passes an error in A up
          unenlarged.
      (iii) At a point W of the bracket the carry is off by (1 - q)(W - Wt):
          up to (1 + q) width, q taken at the bracket's lower end.  At W = x
          the offset is (x - Wt) + (T(x) - Wt), two terms of opposite sign,
          so it is at most the width.
    Hence alpha_{k-1} = E_{k-1}[alpha_k + width_k].  The carry is at least
    x >= a, and a mean of ratios is at most their largest (the mediant
    inequality), so alpha_k/a_k <= r_{k+1} + ... + r_{m-1}.  With (i),
    |log W_k - log W*_k| <= -log(1 - s_k), s_k = r_k + ... + r_{m-1}: trace
    records this per layer, and the solve is certified once
    -log(1 - s_0) <= tol.  tau makes that hold whenever every layer stops and
    tol <= 1: s_0 <= m tau = tol/2, and -log(1 - s) <= s/(1 - s) <= tol.
    The rounding of each operation (a few ulps) is not counted, and nodes
    the clamp moves are exact only up to it; clamp_events counts them.

    The sweep runs unclamped first.  If it leaves a value outside
    [e^-700, e^700], or NaN, which a node with u = inf or a = c = 0 gives,
    one range check over the swept layers finds it and the sweep runs again,
    clamping each layer (see `_sweep`).

    The batch axis.  u is one packed driver, or K of them side by side in
    an array of shape (nodes, K): column r is row r of the batch, and top
    (from `_tail_solution`) comes shaped alike.  A layer is still the slice
    of its nodes, so the sweep solves layer k of every row in the same numpy
    calls.  Every operation is elementwise except the reductions over a
    layer, and those run over its nodes alone, giving one value per row, so
    each row decides for itself: its scaling branch in `_newton_layer`, when
    its Newton steps stop (a stopped row is frozen while the others step
    on), whether it fails, and which of its nodes the clamp moves.  Each
    node thus goes through exactly the operations of its row's single solve,
    and the row's W, trace and clamp events are those of `picard_solve` on
    that driver, bit for bit.  Only the range check spans the batch: a row
    with no node out of range takes the same values clamped or not, so the
    clamped sweep of the whole batch leaves it unchanged.  A 1-D driver is
    the single solve, K = 1, and its Newton steps keep Python floats.

    The solve holds W and buffers of one layer: c and e are formed layer by
    layer, the epsilon term from Lambda.  So a `picard_solve` holds W plus
    one block beyond U and Lambda: the order check's one grid, Lambda^theta,
    is freed before W is allocated, and the residual, formed on the report's
    first read of it, holds F(W) one block of steps at a time.

    Returns (W, layers, clamp_events), with W of u's shape, layers the
    bracket widths of each swept layer, one a scalar step (`_trace` makes
    them the trace of `SolveReport`); a batch gives a list of layers and one
    of clamp events, one per row.  A layer that does not certify within max_iter
    scalar steps, or whose width stops shrinking (at the float spacing of x,
    when tau is below it), ends its row's sweep and raises `NotConverged`
    naming the layer, its width and tau; in a batch the others sweep on, and
    the message of the first failing row starts with its labels entry (by
    default "row r").
    """
    m = _closure_start(lat, top)
    W = np.empty(u.shape)
    W[len(W) - len(top):] = top
    half = 0.5 * lat.dt
    closure = AdaptedGrid.span(m)
    tau = tol / (2 * m) if m else tol
    eps_term = _over_rows(eps_term, u)
    with np.errstate(all="ignore"):  # a value out of range selects the clamped sweep
        carry_m = transformed_aggregator_grid(u[closure], W[closure], rho)
        if eps_term is not None:
            carry_m += eps_term(closure)
        carry_m *= half
        carry_m += W[closure]
        layers, clamp_events = _sweep(W, carry_m, u, eps_term, half, rho, tau, max_iter,
                                      clamp=False)
        depth = len(layers) if u.ndim == 1 else max(map(len, layers))
        swept = W[AdaptedGrid.span(m - depth).start:closure.start]
        if swept.size and not (_CLAMP_LO <= swept.min() and swept.max() <= _CLAMP_HI):
            layers, clamp_events = _sweep(W, carry_m, u, eps_term, half, rho, tau,
                                          max_iter, clamp=True)
    for r, row in enumerate([layers] if u.ndim == 1 else layers):
        try:
            _certify(row, m, tau, tol, max_iter)
        except NotConverged as exc:
            if u.ndim == 1 and labels is None:
                raise
            raise NotConverged(f"{labels[r] if labels else f'row {r}'}: {exc}") from None
    return W, layers, clamp_events if u.ndim == 1 else clamp_events.tolist()


def _certify(layers: list[list[float]], m: int, tau: float, tol: float,
             max_iter: int) -> None:
    """Raises `NotConverged` unless a row's sweep certified its last layer
    (given each layer's bracket widths) and its bound, `_trace`'s last, is
    at most tol."""
    if layers and not layers[-1][-1] <= tau:  # the sweep ended at this layer
        widths = layers[-1]
        why = "max_iter reached" if len(widths) >= max_iter else "its width stopped shrinking"
        raise NotConverged(
            f"layer {m - len(layers)} not certified after {len(widths)} scalar steps "
            f"({why}): bracket width {widths[-1]:.3e} > tau = tol/(2m) = {tau:.3e}")
    s = 0.0
    for widths in layers:
        s += widths[-1]
    bound = -math.log1p(-s) if s < 1.0 else math.inf
    if not bound <= tol:  # every layer certified, which bounds it for tol <= 1
        raise NotConverged(f"certified bound {bound:.3e} exceeds tol {tol:.3e}")


def _trace(layers: list[list[float]]) -> list[tuple[int, float, float]]:
    """The trace of `SolveReport` from each swept layer's bracket widths."""
    trace = []
    s = 0.0
    for widths in layers:
        s += widths[-1]
        ratios = [r / p for p, r in zip(widths, widths[1:]) if p > 0.0]
        trace.append((len(widths), -math.log1p(-s) if s < 1.0 else math.inf,
                      max(ratios, default=math.nan)))
    return trace or [(0, 0.0, math.nan)]  # a row with no layer below the closure


def _sweep(W: np.ndarray, carry_m: np.ndarray, u: np.ndarray, eps_term: _SliceFn | None,
           half: float, rho: float, tau: float, max_iter: int, clamp: bool):
    """The backward sweep of `_layer_solve`: fills W on steps 0..m-1.

    carry_m is the closure layer's carry.  Each layer forms its own
    c = half u and e = half eps_term in buffers of one layer (c one column a
    row) and solves its nodes with `_newton_layer`.  Returns (layers, clamp events)
    with each layer's bracket widths, one a scalar step, ending at the first
    layer that does not certify; for a batch, one such list and one count
    per row, and the sweep goes on while any row certifies.  With clamp set,
    each layer is clamped as the operator clamps F(W): a node's W outside
    [e^-700, e^700] is set to the nearer end, its kernel is taken there by
    the kernel's conventions (u = 0 gives 0, u = inf gives inf, as in
    `transformed_aggregator_grid`), and its carry holds the unclamped
    F(W) = a + c W^rho.  Only the rows with such a node retake their kernel.
    """
    m = len(carry_m) - 1
    rows = carry_m.shape[1:]
    carry = carry_m.copy()
    a_buf, c_buf, t_buf, b_buf, x_buf, d_buf, q_buf = (np.empty((m,) + rows)
                                                       for _ in range(7))
    e_buf = np.empty((m,) + (1,) * len(rows))  # one column, broadcast over the rows
    half, rho_0, rho_1 = np.array(half), np.array(rho), np.array(rho - 1.0)
    if rows:
        layers: list = [[] for _ in range(rows[0])]
        live = list(range(rows[0]))  # the rows that have certified every layer
        clamp_events = np.zeros(rows, dtype=int)
    else:
        layers, clamp_events = [], 0
    for k in range(m - 1, -1, -1):
        nodes = slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2)
        c = np.multiply(u[nodes], half, out=c_buf[:k + 1])
        e = None if eps_term is None else np.multiply(eps_term(nodes), half,
                                                      out=e_buf[:k + 1])
        a = _trapezoid_step(carry[:k + 2], e, a_buf[:k + 1])  # A_k + e
        w, t = W[nodes], t_buf[:k + 1]
        widths = _newton_layer(a, c, rho_0, rho_1, tau, max_iter, w, t, b_buf[:k + 1],
                               x_buf[:k + 1], d_buf[:k + 1], q_buf[:k + 1])
        v = w  # the value the carry takes: F(W) before the clamp
        if clamp:
            outside = (w < _CLAMP_LO) | (w > _CLAMP_HI)
            if outside.any():
                np.clip(w, _CLAMP_LO, _CLAMP_HI, out=w)
                if rows:
                    clamp_events += np.count_nonzero(outside, axis=0)
                    moved = np.logical_or.reduce(outside)
                    t[:, moved] = transformed_aggregator_grid(c[:, moved], w[:, moved], rho)
                else:
                    clamp_events += int(np.count_nonzero(outside))
                    t[...] = transformed_aggregator_grid(c, w, rho)
                v = np.where(outside, a + t, w)
        if rows:
            for r in live:
                layers[r].append(widths[r])
            live = [r for r in live if widths[r][-1] <= tau]
            if not live:
                break
        else:
            layers.append(widths)
            if not widths[-1] <= tau:
                break
        np.add(v, t, out=carry[:k + 1])
        if e is not None:
            np.add(carry[:k + 1], e, out=carry[:k + 1])
    return layers, clamp_events


def _newton_layer(a, c, rho, rho_1, tau, max_iter, w, t, beta, x_buf, d_buf, q):
    """The root of W = a + c W^rho at each node of a layer; writes w = W and
    t = c W^rho, and returns the bracket widths, one a scalar step.

    In x = W/s with s = max(a, c^theta), theta = 1/(1 - rho), the map reads
    x = alpha + beta x^rho with alpha = a/s and beta = c s^(rho-1), both in
    [0, 1] and one of them 1, so the root lies in [1, 2] and x >= 1 makes
    the width max |T(x) - x| at least the relative width.  Where
    max c a^(rho-1) <= 1, s = a and alpha = 1 at every node, at no extra
    power.  A node with s = 0 (a = c = 0) or s = inf (a = inf or u = inf)
    gets alpha = 1 and beta = 0, so W = s there, for the clamp to set.

    Newton's steps on g(x) = x - alpha - beta x^rho start at x = 1, where
    g <= 0.  g is increasing and, for rho < 0, concave, so the iterates rise
    to the root without passing it: x is the lower end of the bracket
    (x, T(x)), and each step squares the relative error, up to a constant.
    At rho = 0 T does not depend on x, so the first step is exact.  It runs
    once per layer and step, so it calls the ufuncs and their reductions
    directly, with 0-d operands (rho and rho_1 = rho - 1), into the buffers
    beta, x_buf, d_buf and q.  Arrays with a batch axis after the nodes are
    handed to `_newton_rows`, which returns the widths of each row.
    """
    np.power(a, rho_1, out=beta)
    np.multiply(beta, c, out=beta)
    if beta.ndim > 1:
        return _newton_rows(a, c, rho, tau, max_iter, w, t, beta, x_buf, d_buf, q)
    d = beta  # T(1) - 1 when s = a
    widths = [float(np.maximum.reduce(beta))]
    if widths[0] <= 1.0:
        s, alpha = a, _ONE
    else:
        s, alpha, beta, d = _general_scaling(a, c, rho)
        widths[0] = float(np.maximum.reduce(np.absolute(d, out=q)))
    x, p = _ONE, beta  # x = 1 and p = beta x^rho
    while (widths[-1] > tau and len(widths) < max_iter
           and (len(widths) < 2 or widths[-1] < widths[-2])):
        np.divide(p, x, out=q)
        np.multiply(q, rho, out=q)
        np.subtract(_ONE, q, out=q)  # g'(x) = 1 - rho beta x^(rho-1)
        np.divide(d, q, out=q)
        x = np.add(x, q, out=x_buf)
        p = np.power(x, rho, out=t)
        np.multiply(p, beta, out=p)
        d = np.add(p, alpha, out=d_buf)
        np.subtract(d, x, out=d)  # T(x) - x, >= 0 up to rounding
        widths.append(float(np.maximum.reduce(np.absolute(d, out=q))))
    np.multiply(x, s, out=w)
    np.multiply(p, s, out=t)
    return widths


def _general_scaling(a, c, rho):
    """(s, alpha, beta, T(1) - 1) of `_newton_layer` under s = max(a, c^theta)."""
    c_theta = np.power(c, 1.0 / (1.0 - rho))
    s = np.maximum(a, c_theta)
    alpha = a / s
    beta = np.divide(c_theta, s)
    np.power(beta, 1.0 - rho, out=beta)
    edge = (s == 0.0) | (s == math.inf)
    alpha[edge], beta[edge] = 1.0, 0.0
    return s, alpha, beta, alpha + beta - 1.0


def _newton_rows(a, c, rho, tau, max_iter, w, t, beta, x_buf, d_buf, q):
    """`_newton_layer` on a layer of shape (nodes, K), beta = c a^(rho-1)
    formed: each row r = column r takes the steps of its own single solve.

    A row takes the general scaling where its own max beta exceeds 1, and
    steps on while its own width is above tau and shrinking; once it stops,
    its x is frozen (the step writes x only where the row is live), and its
    p = beta x^rho and d = T(x) - x, recomputed from that x, keep their
    values.  The loop ends at max_iter or once every row has stopped.
    Returns each row's list of widths.
    """
    first = np.maximum.reduce(beta)  # per row: T(1) - 1 where s = a
    general = ~(first <= 1.0)
    s, alpha, d = a, _ONE, beta
    if general.any():
        s_g, alpha_g, beta_g, d_g = _general_scaling(a, c, rho)
        s = np.where(general, s_g, a)
        alpha = np.where(general, alpha_g, 1.0)
        d = np.where(general, d_g, beta)
        beta = np.where(general, beta_g, beta)
        first = np.where(general, np.maximum.reduce(np.absolute(d, out=q)), first)
    x, p = x_buf, beta
    x.fill(1.0)
    history = [first]
    steps = np.ones(first.shape, dtype=int)
    live = first > tau
    while len(history) < max_iter and live.any():
        np.divide(p, x, out=q)
        np.multiply(q, rho, out=q)
        np.subtract(_ONE, q, out=q)
        np.divide(d, q, out=q)
        np.add(x, q, out=x, where=live)
        p = np.power(x, rho, out=t)
        np.multiply(p, beta, out=p)
        d = np.add(p, alpha, out=d_buf)
        np.subtract(d, x, out=d)
        width = np.maximum.reduce(np.absolute(d, out=q))
        steps += live
        live &= (width > tau) & (width < history[-1])
        history.append(width)
    np.multiply(x, s, out=w)
    np.multiply(p, s, out=t)
    return [row[:n] for row, n in zip(np.array(history).T.tolist(), steps.tolist())]


def picard_solve(prefs: Preferences, U: AdaptedGrid, lat: Lattice,
                 tail: TailClosure, epsilon: float = 0.0,
                 Lambda: AdaptedGrid | None = None, tol: float = 1e-8,
                 max_iter: int = 200, enforce_order: bool = True) -> SolveReport:
    """Fixed point of the utility recursion for the transformed driver U.

    Lambda defaults to U itself; it sets the epsilon term and the order
    certificate.  For every supported rho <= 0 one backward sweep solves each
    layer's implicit trapezoid step node by node, by Newton's method from
    below: the scalar map T(W) = A + e + c W^rho is antitone, so an iterate
    and its image bracket the node's root.  A layer stops once its bracket
    is at most tol/(2m) wide relative to a lower bound of the root (m solved
    layers), and the layer widths add up to the certified bound
    trace[-1][1] <= tol on the log-space sup-norm distance to the lattice
    fixed point over steps 0..n-1 (see `_layer_solve`).  max_iter caps the
    scalar steps of each layer, its start included; iterations is the most
    that a layer took.  At rho = 0 T does not depend on W, so the first
    Newton step is exact and the bound is 0.

    Raises
    ------
    UnsupportedRegime
        Outside the CRRA and contractive (theta in (0,1]) regimes.
    InvalidParameters
        If max_iter < 1.
    PreconditionFailed
        If enforce_order is set and the order check fails (a one-node lattice
        included), or U is not of the same order as Lambda (for epsilon = 0)
        or not bounded above by a multiple of Lambda (for epsilon > 0).
    NotConverged
        If a layer is not certified within max_iter scalar steps.
    """
    regime = classify_regime(prefs)
    if not regime.solver_supported:
        raise UnsupportedRegime(
            f"solver supports theta in (0, 1]; regime is {regime.kind.value}"
        )
    U.check_shape(lat)
    if max_iter < 1:
        raise InvalidParameters("max_iter must be >= 1")
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
    top = _tail_solution(prefs, lat, tail, U.data, eps_term)
    W, layers, clamp_events = _layer_solve(lat, U.data, prefs.rho, eps_term, top,
                                           tol, max_iter)
    return SolveReport(solution=AdaptedGrid.from_packed(W), converged=True,
                       clamp_events=clamp_events, _layers=layers,
                       _operands=(lat, U.data, prefs.rho, eps_term, top))


# ---------------------------------------------------------------------------
# Generalized utility by monotone truncation
# ---------------------------------------------------------------------------

#: Most driver values one batched solve of `generalized_utility` stacks: a
#: chunk of U and one of W, 8 MB each, and one truncation level at least.
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
                        lat: Lattice, tail: TailClosure, n_max: int,
                        tol: float = 1e-8) -> GeneralizedUtilityReport:
    """Evaluate an arbitrary consumption grid by monotone truncation.

    The truncated streams are C^n = C /\\ n*Chat for R < 1 (an increasing
    sequence) and C^n = C \\/ Chat/n for R > 1 (a decreasing one), where
    Chat = eta * X is the candidate optimal consumption read off the lattice.
    The truncations share one lattice, so they are solved together: their
    drivers are stacked, at most `_BATCH_NODES` values to a chunk (one level
    at least), and each chunk is one batched `_layer_solve`, whose rows take
    `picard_solve`'s steps bit for bit (its defaults, without the order
    check).  The time-0 values form a monotone sequence whose limit is
    classified as finite or divergent at the desk-scale threshold 1e6.

    The lattice must be bound to the candidate strategy, since Chat is taken
    from its node wealth.

    Raises
    ------
    UnsupportedRegime
        Unless theta lies in (0, 1).
    PreconditionFailed
        If the lattice strategy is not the candidate policy.
    NotConverged
        If a truncation level does not certify; the message names the
        first such level.
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
        top = _tail_solution(prefs, lat, tail, u, None)
        W = _layer_solve(lat, u, prefs.rho, None, top, tol, max_iter=200,
                         labels=[f"truncation level n={n}" for n in levels])[0]
        values += [float(w0) / (1.0 - prefs.R) for w0 in W.reshape(nodes, -1)[0]]
        del u, W  # freed before the next chunk is built

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


def _pair_defects(lat: Lattice, V: np.ndarray, half: np.ndarray,
                  gaps: tuple[int, ...]) -> list[np.ndarray]:
    """Packed defects V_k - E_k[V_{k+g} + trapezoid(f)] for every start k,
    one array per gap g of the increasing gaps (each in 1..n), with
    half = dt/2 * f.

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
    n = lat.n_steps
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


def _hitting_defect(lat: Lattice, V: np.ndarray, half: np.ndarray,
                    mults) -> np.ndarray:
    """Defects at step 0 for the first exit of log-wealth from the bands
    +/- mult * s sqrt(T), one per multiple in mults.

    Log-wealth lies (2j - k) s sqrt(dt) from its drift, so the walk
    d = 2j - k stops at step n or once d^2 >= mult^2 n, exactly.  The stopped
    expectation E[V_tau + trapezoid(f) up to tau] sums over the nodes it
    reaches, by their `_reach_masses`: V where it stops, half = dt/2 f where
    it goes on and, past step 0, half for the step in.  Unreached nodes are
    left out, so an infinite f there gives no 0 * inf.  The reached nodes,
    their masses and the stop mask depend only on n and mults, so
    `_hitting_walks` keeps them for the last few (n, mults) asked for.
    """
    walks = _hitting_walks(lat.n_steps, tuple(float(m) for m in mults))
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
    finite = np.isfinite(grid.data)
    if not finite.all():
        i = int(np.argmin(finite))
        k, j = AdaptedGrid.node(i)
        raise SignDomainViolation(f"grid holds {grid.data[i]} at node ({k}, {j})")
    domain = ValueSign.NON_NEGATIVE if space == "W" else prefs.value_sign
    outside = grid.data < 0.0 if domain is ValueSign.NON_NEGATIVE else grid.data > 0.0
    if np.any(outside):
        raise SignDomainViolation(f"grid leaves its {domain.value} domain")

    half = _aggregator_values(grid, companion, lat, prefs, space)
    half *= 0.5 * lat.dt
    V = grid.data
    gaps = tuple(gap for gap in (1, 5, 25) if gap <= lat.n_steps)
    families = [(f"pairs_gap_{gap}", d)
                for gap, d in zip(gaps, _pair_defects(lat, V, half, gaps))]
    if lat.log_vol > 0.0:
        mults = (1.0, 2.0)
        families += [(f"hitting_band_{mult:g}sigma", d)
                     for mult, d in zip(mults, _hitting_defect(lat, V, half, mults))]
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

    tol_abs = tol * max(grid.sup_abs(), 1e-12)
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
