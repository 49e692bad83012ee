"""
The lattice fixed-point solver against the closed form
======================================================

Builds the binomial wealth lattice for the candidate strategy, solves the
utility recursion by contraction iteration, and compares with the exact value.
"""

import numpy as np

from ezmerton import (
    AdaptedGrid,
    Market,
    Preferences,
    TailClosure,
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
# running conditional integral, which is what makes the iteration contract.
cert = order_check(prefs, U, lat, tail)
print("order certificate: ratio in [%.6f, %.6f]" % (cert.k_lower, cert.K_upper))

report = picard_solve(prefs, U, lat, tail)
print("converged in", report.iterations, "iterations; residual", report.residual)
print("per-iteration sup-norm steps:",
      ["%.2e" % s for (_, s, _) in report.trace])
v0 = report.utility_at_zero(prefs)
print("lattice V0 =", v0, " closed form =", policy.value(1.0),
      " rel err = %.2e" % abs(v0 / policy.value(1.0) - 1.0))

# Uniqueness in practice: wildly different starting guesses land on the same
# fixed point.
lam_theta = [v**prefs.theta for v in U.values]
lo = picard_solve(prefs, U, lat, tail,
                  initial_guess=AdaptedGrid([0.1 * v for v in lam_theta]))
hi = picard_solve(prefs, U, lat, tail,
                  initial_guess=AdaptedGrid([10.0 * v for v in lam_theta]))
gap = max(float(np.max(np.abs(np.log(a) - np.log(b))))
          for a, b in zip(lo.solution.values, hi.solution.values))
print("two-guess agreement (log sup-norm): %.2e" % gap)

# rho <= -1 (here R=2, S=3 gives rho = -1) switches to the antitone bracket:
# one backward sweep brackets each node's root of its layer's implicit step,
# and the layer widths add up to a certified bound <= tol.
p2 = Preferences(b=1.0, delta=0.03, R=2.0, S=3.0)
pol2 = candidate_policy(p2, market)
lat2 = build_lattice(market, pol2.strategy, dt=0.01, n_steps=500)
tail2 = TailClosure.proportional(pol2.strategy, p2, market)
U2 = transformed_consumption_grid(p2, lat2, consumption_grid(lat2))
rep2 = picard_solve(p2, U2, lat2, tail2)
print("\n%s branch (rho = -1, %d scalar steps, bound %.1e): V0 = %.4f vs closed %.4f"
      % (rep2.branch, rep2.iterations, rep2.trace[-1][1],
         rep2.utility_at_zero(p2), pol2.value(1.0)))
