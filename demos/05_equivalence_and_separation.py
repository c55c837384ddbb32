"""Progressive equivalence versus separation in the limit.

At every finite horizon the base and derived measures are mutually
absolutely continuous: the likelihood ratio M_T is positive with mean 1.
Yet log M_T drifts linearly (down under the base measure, up under the
derived one), so the measures concentrate on disjoint sets of infinite
paths.  No finite-horizon experiment certifies the limit statement; the
probe exhibits the trend.
"""

import math

import cmpplab as lab

base = lab.BaseModel(lab.Exponential(0.2), lab.Gamma(2.0, 2.0))
change = lab.expected_value_change(math.log(2.0))   # doubles the intensity
derived = lab.derive_q_model(lab.validate_change(base, change, level=2))

print("intensity-doubling change at fixed theta = 1:")
print(f"  analytic drifts: ln2 - 1 = {math.log(2) - 1:+.5f} under the base law,")
print(f"                   2ln2 - 1 = {2 * math.log(2) - 1:+.5f} under the derived law")
print()
rows = lab.singularity_probe(derived, horizons=[2.0, 10.0, 50.0],
                             n=4000, seed=31, theta_fixed=1.0).run()
print(f"  {'T':>4} {'side':>4} {'drift':>9} {'stderr':>8} {'oracle':>9} "
      f"{'frac<-5':>8} {'frac>+5':>8} {'verdict':>7}")
for r in rows:
    print(f"  {r.horizon:4g} {r.side:>4} {r.drift.estimate:9.4f} {r.drift.stderr:8.4f} "
          f"{r.drift.oracle:9.4f} {r.frac_below:8.3f} {r.frac_above:8.3f} "
          f"{r.drift.verdict:>7}")

print("""
Reading the table: E[M_T] = 1 at every T (equivalence), but typical
base-measure paths see log M_T ~ T (ln2 - 1) -> -inf, and typical
derived-measure paths see log M_T -> +inf.  The mass beyond |log M| = 5
grows toward 1 on both sides as T grows: the two laws become mutually
singular on the full path space even though no finite restriction is.
""")

print("the identity change, for contrast, has log M identically zero:")
ident = lab.derive_q_model(lab.validate_change(base, lab.identity_change(), level=2))
rows = lab.singularity_probe(ident, horizons=[10.0], n=1000, seed=31).run()
for r in rows:
    print(f"  T={r.horizon:g} {r.side}: mean log M = {r.mean_log_density:g}, "
          f"tails {r.frac_below:g}/{r.frac_above:g}")
