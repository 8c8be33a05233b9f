"""Classic first example: the normalized sum of matched-moment inputs.

The mean function f(x) = n^(-1/2) sum x_i has influence values
lambda_2 = 1/n and lambda_3 = n^(-3/2), so for any smooth g the gap
|E g(f(X)) - E g(f(Y))| between two matched-moment input laws is at most
C2(g) (E|X_1|^3 + E|Y_1|^3) / sqrt(n).  We estimate the gap by paired Monte
Carlo for Rademacher-vs-Gaussian steps and watch bound and gap shrink as n
grows.
"""

from lindeberg_lab import (
    GAUSSIAN,
    RADEMACHER,
    clt_experiment,
    estimate_lambda,
    mean_function,
    test_function,
)

import numpy as np

g = test_function("sin")

print("influence values of the mean function (empirical = analytic):")
for n in (16, 256):
    est = estimate_lambda(mean_function(n), [np.zeros(n)])
    print(f"  n={n:4d}  lambda2={est.lambda2:.3e} (1/n={1 / n:.3e})"
          f"  lambda3={est.lambda3:.3e} (n^-1.5={n**-1.5:.3e})")

print("\npaired gap vs third-moment bound, Rademacher vs Gaussian, g = sin:")
print(f"{'n':>6} {'mc_gap':>12} {'3*se':>12} {'bound':>12} {'passed':>7}")
for n in (25, 100, 400, 1600):
    report = clt_experiment(RADEMACHER, GAUSSIAN, n, g,
                            replicates=20_000, master_seed=101)
    print(f"{n:6d} {report.mc_gap:12.3e} {3 * report.std_error:12.3e} "
          f"{report.theoretical_bound:12.4f} {str(report.passed):>7}")

print("\nthe bound scales like 1/sqrt(n); check the ratio at 4x size:")
b1 = clt_experiment(RADEMACHER, GAUSSIAN, 100, g, 20_000, 101)
b2 = clt_experiment(RADEMACHER, GAUSSIAN, 400, g, 20_000, 101)
print(f"  bound(100)/bound(400) = "
      f"{b1.theoretical_bound / b2.theoretical_bound:.3f} (expect 2.0)")
