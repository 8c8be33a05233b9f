"""Anatomy of the soft-max derivative chain, audited link by link.

Every derivative of F_alpha = alpha^(-1) log sum exp(alpha f) is a Gibbs
average: the weights p, scores a_i, and their recursions carry uniform
bounds in terms of the family derivative sups c1, c2, c3 alone.  This demo
evaluates each link on a small spin-coupling family and prints the observed
sup against its guaranteed ceiling.
"""

import math

import numpy as np

from lindeberg_lab import (
    CouplingLayout,
    SKParams,
    coordinate_chain,
    ground_state,
    sk_family,
    smoothed_lambda_bounds,
    softmax_state,
)

N, alpha = 7, 7.0
layout = CouplingLayout(N)
family = sk_family(layout, SKParams(beta=1.0, h=0.0))
c1 = family.c1
gen = np.random.default_rng(11)

ceilings = {
    "|e_i|        <= a c1": alpha * c1,
    "|dp|/p       <= 2 a c1": 2 * alpha * c1,
    "|de_i|       <= a^2 (2 c1^2)": alpha**2 * 2 * c1**2,
    "|d2p|/p      <= a^2 (6 c1^2)": alpha**2 * 6 * c1**2,
    "|d2e_i|      <= a^3 (6 c1^3)": alpha**3 * 6 * c1**3,
}
observed = dict.fromkeys(ceilings, 0.0)
sandwich_max = 0.0

for _ in range(40):
    x = gen.standard_normal(layout.coordinate_count)
    state = softmax_state(family, alpha, x)
    hard = N**-1.5 * ground_state(layout, x)[0]
    sandwich_max = max(sandwich_max, state.value - hard)
    p = state.weights
    for i in range(layout.coordinate_count):
        ch = coordinate_chain(family, state, i)
        keys = list(ceilings)
        observed[keys[0]] = max(observed[keys[0]], abs(ch.e))
        observed[keys[1]] = max(observed[keys[1]],
                                float(np.max(np.abs(ch.dp) / p)))
        observed[keys[2]] = max(observed[keys[2]], abs(ch.de))
        observed[keys[3]] = max(observed[keys[3]],
                                float(np.max(np.abs(ch.d2p) / p)))
        observed[keys[4]] = max(observed[keys[4]], abs(ch.d2e))

print(f"chain links over 40 draws, N={N}, alpha={alpha:g}, c1={c1:.4f}:")
for label, ceiling in ceilings.items():
    print(f"  {label:<30} observed {observed[label]:.5f}  "
          f"ceiling {ceiling:.5f}")

gap = family.log_size / alpha
print(f"\nsandwich: max(F_alpha - hard max) = {sandwich_max:.5f} "
      f"<= {gap:.5f} = alpha^-1 log |family|")

l2, l3 = smoothed_lambda_bounds(family, alpha)
print(f"influence bounds of F_alpha: lambda2 <= {l2:.4e}, "
      f"lambda3 <= {l3:.4e}")
print(f"(equivalently 3 a lambda2(family) and 13 a^2 lambda3(family); "
      f"log 2 sandwich at a = N: {math.log(2.0):.4f})")
