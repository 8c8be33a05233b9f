"""Maxima of random-walk partial sums: distribution-free error bound.

The running maximum of normalized partial sums is the hard max of the n
prefix-sum functions, a linear family with lambda_3 = n^(-3/2) and n
members, so the optimized max bound gives an explicit

    K(g) [ gamma^(1/3) n^(-1/6) (log n)^(2/3) + gamma n^(-1/2) ]

rate for the gap between any two matched-moment step laws.  Under Gaussian
steps the maximum approaches the law of |Z|; the KS distance to that
half-normal reference is printed as a sanity diagnostic.
"""

from lindeberg_lab import (
    GAUSSIAN,
    RADEMACHER,
    erdos_kac_experiment,
    evaluate_bound,
    half_normal_reference,
    max_partial_sums,
    test_function,
)
from lindeberg_lab.walks import erdos_kac_terms

import numpy as np

print("running max of one Rademacher walk (n = 12):")
gen = np.random.default_rng(2)
steps = np.where(gen.random(12) < 0.5, -1.0, 1.0)
print(f"  steps   {steps.astype(int)}")
print(f"  maximum {max_partial_sums(steps):+.4f}")

g = test_function("sin")
print("\npaired Rademacher-vs-Gaussian gap against the explicit bound:")
print(f"{'n':>6} {'mc_gap':>12} {'bound':>10} {'ks(gauss)':>10} {'passed':>7}")
for n in (100, 400, 1600):
    rep = erdos_kac_experiment(RADEMACHER, GAUSSIAN, n, g,
                               replicates=4000, master_seed=505)
    print(f"{n:6d} {rep.report.mc_gap:12.3e} "
          f"{rep.report.theoretical_bound:10.3f} {rep.ks_distance:10.4f} "
          f"{str(rep.passed):>7}")

print("\nhalf-normal reference CDF values:")
for t in (0.5, 1.0, 2.0):
    print(f"  P(|Z| <= {t:.1f}) = {half_normal_reference(t):.6f}")

print("\nbound decay on a size grid (rademacher vs gaussian, gamma = 1.596):")
for n in (10**2, 10**3, 10**4, 10**5):
    bound = evaluate_bound(erdos_kac_terms(RADEMACHER, GAUSSIAN, n), g)
    print(f"  n = {n:>6d}   bound = {bound:.4f}")
