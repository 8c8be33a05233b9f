"""Ground-state energy: hard max universality through soft-max smoothing.

The maximum of the 2^N configuration energies is not smooth, but it sits
within alpha^(-1) N log 2 of the smoothed max at level alpha, and the
smoothed max obeys the swap bound.  Balancing the smoothing floor against
the third-moment channel over alpha gives the optimized bound
K(g) [ (gamma n l3)^(1/3) (log 2^N)^(2/3) + gamma n l3 ] that the
sk_ground_state suite tests.
"""

import numpy as np

from lindeberg_lab import (
    GAUSSIAN,
    RADEMACHER,
    CouplingLayout,
    SKParams,
    ground_state,
    sk_bound,
    sk_experiment,
    test_function,
)

N = 12
layout = CouplingLayout(N)
gen = np.random.default_rng(9)
x = gen.standard_normal(layout.coordinate_count)
value, sigma = ground_state(layout, x)
print(f"N={N}: ground-state energy {value:.6f} at configuration "
      f"{''.join('+' if s > 0 else '-' for s in sigma)}")
print(f"      normalized N^(-3/2) S = {N**-1.5 * value:.6f}")

g = test_function("tanh")
print("\nalpha-optimized bound (sk_bound) at beta = 1, h = 0, Gaussian vs")
print("Rademacher couplings:")
for size in (8, 12, 16, 24):
    bound = sk_bound("ground_state", GAUSSIAN, RADEMACHER, SKParams(), size,
                     g)
    print(f"  N={size:>2}: {bound:.4f}")

print("\npaired experiment, Gaussian vs Rademacher couplings:")
rep = sk_experiment("ground_state", GAUSSIAN, RADEMACHER,
                    SKParams(beta=1.0, h=0.0), N, replicates=600,
                    g=g, master_seed=404)
r = rep.report
print(f"  gap = {r.mc_gap:.3e}  3*se = {3 * r.std_error:.3e}  "
      f"bound = {r.theoretical_bound:.3f}  passed = {rep.passed}")
