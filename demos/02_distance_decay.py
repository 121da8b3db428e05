"""Tour of the distance-decay family.

Every variant of the catchment method is the same computation with a
different weight curve f(d). This script prints the curves side by side
and shows how zone weights are derived from a Gaussian at zone midpoints.
"""

import numpy as np

from accesskit import DecaySpec, evaluate_decay

D0 = 30.0          # catchment cutoff, minutes
BETA_GAUSS = 180.0 # time-squared scale for the Gaussian curve

specs = {
    "binary": DecaySpec("binary", D0),
    "gaussian": DecaySpec("gaussian", D0, beta=BETA_GAUSS),
    "exponential": DecaySpec("exponential", D0, beta=15.0),
    "power": DecaySpec("power", D0, beta=1.2),
    "zonal": DecaySpec("zonal", zones=[10, 20, 30], weights=[1.0, 0.68, 0.22]),
}

grid = np.arange(0.0, 36.0, 3.0)
print(f"{'minutes':>8}" + "".join(f"{name:>13}" for name in specs))
for d in grid:
    row = f"{d:>8.0f}"
    for spec in specs.values():
        row += f"{evaluate_decay(spec, float(d)):>13.4f}"
    print(row)
print("(weights are 0 beyond the 30-minute cutoff, and +inf is always 0)")

# --- deriving zone weights instead of guessing them -------------------------

print("\nGaussian-at-midpoint zone weights, 10/20/30 minute rings:")
for beta in (80.0, 180.0, 440.0):
    spec = DecaySpec("zonal", zones=[10, 20, 30], beta=beta)
    pretty = ", ".join(f"{w:.3f}" for w in spec.weights)
    print(f"  beta {beta:>6.0f}: [{pretty}]")
print("flatter decay (larger beta) keeps the outer rings relevant;")
print("there is no default beta anywhere in the package: pick one and say so.")
