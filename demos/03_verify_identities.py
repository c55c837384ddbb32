"""Monte Carlo verification of the measure-change identities.

Two routes to every derived-measure expectation must agree: simulate
directly under the derived measure, or simulate under the base measure
and weight by the likelihood-ratio martingale.  Martingale properties
are tested in integral form over a family of conditioning events.
"""

import numpy as np

import cmpplab as lab

SEED = 1234
base = lab.BaseModel(lab.Exponential(0.2), lab.Gamma(2.0, 2.0))
change = lab.measure_change(alpha="ln(theta)", gamma="ln(x/5)",
                            xi="(27/8)*theta^2*exp(-theta)")
derived = lab.derive_q_model(lab.validate_change(base, change, level=2))

print("reweighting identity, P(N_1 = 0) under the derived measure:")
oracle = lab.expectation(derived.q_mixing, lambda th: np.exp(-th * th))
res = lab.check_reweighting(lab.f_count_eq(0), derived, t=1.0,
                            n=100_000, seed=SEED, oracle=oracle).run()
print(f"  direct simulation : {res.direct.estimate:.5f} +- {res.direct.stderr:.5f}")
print(f"  weighted base run : {res.weighted.estimate:.5f} +- {res.weighted.stderr:.5f}")
print(f"  quadrature oracle : {oracle:.5f}")
print(f"  verdict: {res.gap.verdict} (gap {res.gap.estimate:+.5f}, "
      f"3 pooled stderr = {3 * res.gap.stderr:.5f})")

print("\nconditional form at a fixed theta:")
res = lab.check_reweighting(lab.f_aggregate(), derived, t=1.0, n=60_000,
                            seed=SEED, under_conditional=1.0, oracle=10.0).run()
print(f"  E[S_1 | theta=1] direct {res.direct.estimate:.4f}, "
      f"weighted {res.weighted.estimate:.4f}, oracle 10 -> {res.gap.verdict}")

print("\nmartingale table for the centered aggregate under the derived measure:")
table = lab.check_martingale(lab.process_v(derived), base, derived,
                             lab.DERIVED_Q, [(0.5, 1.0), (1.0, 2.0)],
                             n=60_000, seed=SEED).run()
print(f"  {len(table.cells)} cells, Bonferroni z threshold {table.z_threshold:.2f}")
worst = max(table.cells, key=lambda c: abs(c.report.z))
print(f"  worst cell: {worst.report.quantity} on ({worst.s:g},{worst.t:g}], "
      f"z = {worst.report.z:+.2f}")
print(f"  verdict: {table.verdict}")

print("\nthe raw aggregate is NOT a martingale; its drift matches Wald:")
raw = lab.check_martingale(lab.f_aggregate(), base, derived, lab.DERIVED_Q,
                           [(0.5, 1.0)], n=60_000, seed=SEED).run()
ws = next(c.report for c in raw.cells if c.report.quantity == "whole_space")
drift = 0.5 * lab.expectation(derived.q_mixing, derived.g) * derived.q_claim.moment(1)
print(f"  whole-space increment {ws.estimate:.3f} vs predicted {drift:.3f} "
      f"-> verdict {raw.verdict}")

print("\ndegeneracy dichotomy for the unconditionally centered aggregate:")
res = lab.degeneracy_test(derived, n=200_000, seed=SEED).run()
print(f"  {res.describe()}")
cpp = lab.BaseModel(lab.Exponential(0.2), lab.Degenerate(1.0))
chg = lab.measure_change(alpha="ln(theta)", gamma="ln(x/5)", xi="1")
dcpp = lab.derive_q_model(lab.validate_change(cpp, chg, level=2))
res = lab.degeneracy_test(dcpp, n=200_000, seed=SEED).run()
print(f"  degenerate mixing: {res.describe()}")
