"""
The lattice fixed-point solver against the closed form
======================================================

Builds the binomial wealth lattice for the candidate strategy, solves the
utility recursion in one certified backward sweep, and compares with the
exact value.
"""

import numpy as np

from ezmerton import (
    AdaptedGrid,
    Market,
    Preferences,
    TailClosure,
    apply_recursion,
    build_lattice,
    candidate_policy,
    consumption_grid,
    order_check,
    picard_solve,
    transformed_consumption_grid,
)

prefs = Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)
market = Market(r=0.02, mu=0.07, sigma=0.2)
policy = candidate_policy(prefs, market)

# Lattice over [0, 5] with dt = 0.01; beyond the horizon the recursion is
# closed with the candidate strategy's own continuation value.
lat = build_lattice(market, policy.strategy, dt=0.01, n_steps=500)
tail = TailClosure.proportional(policy.strategy, prefs, market)

# Move to the transformed coordinates: U = b*theta*e^{-delta t} C^{1-S}.
U = transformed_consumption_grid(prefs, lat, consumption_grid(lat))

# The reference process certificate: U^theta is comparable to its own
# running conditional integral, which is what makes the recursion contract.
cert = order_check(prefs, U, lat, tail)
print("order certificate: ratio in [%.6f, %.6f]" % (cert.k_lower, cert.K_upper))

# Each layer's implicit trapezoid step is solved node by node between two
# iterates of an antitone scalar map; the layer widths add up to a certified
# bound on the distance to the lattice fixed point.
report = picard_solve(prefs, U, lat, tail)
print("at most", report.iterations, "scalar steps per layer; certified bound %.1e;"
      % report.trace[-1][1], "residual %.1e" % report.residual)
v0 = report.utility_at_zero(prefs)
print("lattice V0 =", v0, " closed form =", policy.value(1.0),
      " rel err = %.2e" % abs(v0 / policy.value(1.0) - 1.0))

# Uniqueness in practice: the recursion operator itself, iterated from two
# wildly different starts, lands on the solve's grid.
solved = slice(0, AdaptedGrid.span(lat.n_steps).start)
log_solution = np.log(report.solution.data[solved])
for scale in (0.1, 10.0):
    W = AdaptedGrid.from_packed(scale * U.data**prefs.theta)
    for it in range(1, 201):
        FW = apply_recursion(prefs, U, W, lat, tail)
        step = np.max(np.abs(np.log(FW.data[solved]) - np.log(W.data[solved])))
        W = FW
        if step <= 1e-8 * (1.0 - abs(prefs.rho)):
            break
    gap = np.max(np.abs(np.log(W.data[solved]) - log_solution))
    print("operator from %4.1f x U^theta: %d iterations, log gap to the solve %.2e"
          % (scale, it, gap))

# rho <= -1 (here R=2, S=3 gives rho = -1) has no a-priori contraction
# constant, but the same sweep certifies it.
p2 = Preferences(b=1.0, delta=0.03, R=2.0, S=3.0)
pol2 = candidate_policy(p2, market)
lat2 = build_lattice(market, pol2.strategy, dt=0.01, n_steps=500)
tail2 = TailClosure.proportional(pol2.strategy, p2, market)
U2 = transformed_consumption_grid(p2, lat2, consumption_grid(lat2))
rep2 = picard_solve(p2, U2, lat2, tail2)
print("\nrho = -1 (%d scalar steps, bound %.1e): V0 = %.4f vs closed %.4f"
      % (rep2.iterations, rep2.trace[-1][1],
         rep2.utility_at_zero(p2), pol2.value(1.0)))
