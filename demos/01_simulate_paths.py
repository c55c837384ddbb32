"""Simulating compound mixed Poisson paths.

The model: claims are exponential with mean 5, the random intensity
Theta follows a gamma law with mean 1.  Conditionally on Theta the
aggregate process is compound Poisson; unconditionally the event counts
are overdispersed (negative binomial here).
"""

import math

import numpy as np

import cmpplab as lab

base = lab.BaseModel(lab.Exponential(0.2), lab.Gamma(2.0, 2.0))

print("One path, fully reproducible from (seed, path index):")
path = lab.simulate_batch(base, None, lab.BASE_P, horizon=2.0, seed=42, n=1, start_index=0)
print(f"  theta = {path.thetas[0]:.4f}")
print(f"  event times = {np.round(path.times, 3)}")
print(f"  claims      = {np.round(path.claims, 2)}")
print(f"  N_1 = {path.counts_at(1.0)[0]}, S_1 = {path.aggregates_at(1.0)[0]:.3f}, "
      f"S_2 = {path.aggregates_at(2.0)[0]:.3f}")

print("\nA 200k-path batch (same construction, vectorized):")
batch = lab.simulate_batch(base, None, lab.BASE_P, horizon=1.0, seed=42, n=200_000)
counts = batch.counts_at(1.0)
aggs = batch.aggregates_at(1.0)
print(f"  mean N_1 = {counts.mean():.4f}   (E[Theta] = 1)")
print(f"  var  N_1 = {counts.var():.4f}   (> mean: overdispersion from mixing)")
print(f"  mean S_1 = {aggs.mean():.4f}   (E[Theta] E[X] = 5)")

print("\nEmpirical count law vs the mixed Poisson mass function:")
mixed = [lab.expectation(base.mixing_law,
                         lambda th, k=k: np.exp(-th) * th**k / math.factorial(k))
         for k in range(6)]
emp = np.bincount(counts, minlength=6)[:6] / len(counts)
for k in range(6):
    print(f"  P(N_1 = {k}):  empirical {emp[k]:.4f}   quadrature {mixed[k]:.4f}")

print("\nConditionally on theta = 2 the count is plain Poisson(2):")
cond = lab.simulate_batch(base, None, lab.conditional_p(2.0), 1.0, seed=7, n=100_000)
cc = cond.counts_at(1.0)
print(f"  mean {cc.mean():.4f}, var {cc.var():.4f}  (both 2 for a Poisson law)")
