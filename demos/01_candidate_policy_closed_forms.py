"""
Closed forms: regimes, the candidate policy, and deterministic streams
======================================================================

Everything in this demo is exact arithmetic -- no lattice, no simulation.
"""

from ezmerton import (
    Market,
    Preferences,
    classify_regime,
    candidate_policy,
    deterministic_utility,
    exponential_stream_utility,
    numeraire_shift,
    optimal_consumption_rate,
)
from ezmerton.closed_form import PiecewiseExponentialStream
from ezmerton.experiments import aversion_demos

# The running example: risk aversion R = 2, intertemporal elasticity S = 2.5,
# so theta = (1-R)/(1-S) = 2/3 sits in the contractive regime (0, 1) where the
# utility process exists and is unique.
prefs = Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)
market = Market(r=0.02, mu=0.07, sigma=0.2)
print("theta =", prefs.theta, " rho =", prefs.rho)
print("regime:", classify_regime(prefs))

# R and S on opposite sides of 1 puts theta below zero: no infinite-horizon
# utility process exists, and the solver refuses the parameters.
print("mixed regime:", classify_regime(Preferences(b=1, delta=0.03, R=2.0, S=0.5)))

# The candidate optimal policy invests pi_hat = sharpe/(sigma R) and consumes
# the fraction eta of wealth; eta > 0 is exactly well-posedness.
policy = candidate_policy(prefs, market)
print("pi_hat =", policy.pi_hat)
print("eta    =", policy.eta, " (impatience rate phi =", policy.phi, ")")
print("V(1)   =", policy.value(1.0))

# eta decomposes into impatience and a Sharpe-ratio term.
report = optimal_consumption_rate(prefs, market)
lam = market.sharpe
print("phi/S + (S-1)/S * lam^2/(2R) =",
      report.phi / prefs.S + (prefs.S - 1) / prefs.S * lam**2 / (2 * prefs.R))

# A deterministic exponentially decaying stream has a one-line value; the
# general piecewise-exponential route, a sum of closed-form segment integrals,
# agrees with it.
print("\nconstant stream c = 1:")
print("  closed form:", exponential_stream_utility(prefs, 1.0, 0.0, 0.0))
print("  segment sum:", deterministic_utility(
    prefs, PiecewiseExponentialStream.exponential(1.0, 0.0), 0.0))

# Re-unit consumption so the discount rate vanishes: the policy is unchanged.
chi = prefs.delta / (1.0 - prefs.S)
prefs0, market0 = numeraire_shift(prefs, market, chi)
policy0 = candidate_policy(prefs0, market0)
print("\nafter the numeraire shift (delta -> 0): eta =", policy0.eta,
      " V(1) =", policy0.value(1.0))

# Two Jensen gaps separate the roles of R (risk across states) and S
# (variation across time).
gaps = aversion_demos(prefs)
print("\nrisk gap     :", gaps.risk_gap, " (E[Y^{1-R}] =", gaps.expected_y_power, ")")
print("temporal gap :", gaps.temporal_gap)
