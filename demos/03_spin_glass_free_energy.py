"""Spin-glass free energy: enumeration, smoothing identity, universality gap.

The free energy at N spins is exactly the smoothed max (at level N) of the
2^N linear functions indexed by spin configurations, which pins its
influence values at 3 b^2 N^-2 and 13 b^3 N^(-5/2) and makes the coupling
distribution irrelevant in the limit.  The paired experiment shows the gap
between Gaussian and Rademacher couplings sitting far beneath the bound.
"""

import math

import numpy as np

from lindeberg_lab import (
    GAUSSIAN,
    RADEMACHER,
    CouplingLayout,
    SKParams,
    free_energy,
    free_energy_lambda,
    ground_state,
    sk_experiment,
    sk_family,
    softmax_state,
    test_function,
)

N = 10
layout = CouplingLayout(N)
params = SKParams(beta=1.0, h=0.0)
gen = np.random.default_rng(5)
x = gen.standard_normal(layout.coordinate_count)

fe = free_energy(layout, params, x)
print(f"N={N}: free energy by block enumeration     F = {fe:.10f}")
print(f"      via member-family soft max (level N)  F = "
      f"{softmax_state(sk_family(layout, params), float(N), x).value:.10f}")

hard = N**-1.5 * ground_state(layout, x)[0]
print(f"      hard max over configurations          M = {hard:.10f}")
print(f"      sandwich gap F - M = {fe - hard:.6f} <= log 2 = "
      f"{math.log(2.0):.6f}")

l2, l3 = free_energy_lambda(params, N)
print(f"\ninfluence bounds of F: lambda2 <= {l2:.3e}, lambda3 <= {l3:.3e}")

print("\npaired universality gap, Gaussian vs Rademacher couplings:")
print(f"{'N':>4} {'gap':>12} {'3*se':>12} {'bound':>10} {'passed':>7}")
for size in (8, 10, 12):
    rep = sk_experiment("free_energy", GAUSSIAN, RADEMACHER, params, size,
                        replicates=800, g=test_function("tanh"),
                        master_seed=303)
    r = rep.report
    print(f"{size:4d} {r.mc_gap:12.3e} {3 * r.std_error:12.3e} "
          f"{r.theoretical_bound:10.4f} {str(rep.passed):>7}")
print("the bound decays like N^(-1/2); the measured gap is far smaller.")
