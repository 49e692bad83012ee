"""
Why the discounted form: streams the difference form cannot evaluate
====================================================================

Consumption switches on only during the odd unit intervals.  The discounted
aggregator keeps one sign, so its integral converges, but the difference-form
integrand oscillates and both of its parts diverge linearly: the difference
form assigns this stream no value at all.
"""

from ezmerton import Preferences
from ezmerton.experiments import (
    crra_counterexample,
    crra_oscillating_paths,
    ezsdu_counterexample,
)

T_GRID = list(range(10, 101, 10))

# Additive utility first (delta = 0.03, R = 2).
report = crra_counterexample(0.03, 2.0, T_GRID)
print("additive utility:")
print("  discounted value V(0) =", report.discounted_value_at_0)
print("  T      positive part   negative part")
for T, p, n in zip(report.T_grid, report.positive_part_partials,
                   report.negative_part_partials):
    print(f"  {T:5.0f}  {p:13.4f}  {n:14.4f}")
print("  fitted slopes: +%.4f, +%.4f"
      % (report.positive_slope, report.negative_slope))

# The difference-form path oscillates around the level 1/(1-R) = -1.
_, v_delta = crra_oscillating_paths(0.03, 2.0)
print("  path snapshot:", [round(v_delta(t), 5) for t in (0.0, 0.5, 1.0, 1.5)])

# The recursive-utility analogue behaves the same way.
prefs = Preferences(b=1.0, delta=0.03, R=2.0, S=2.5)
report2 = ezsdu_counterexample(prefs, T_GRID)
print("\nrecursive utility (theta = 2/3):")
print("  discounted value V(0) =", report2.discounted_value_at_0)
print("  positive-part slope %.4f, negative-part slope %.4f"
      % (report2.positive_slope, report2.negative_slope))
