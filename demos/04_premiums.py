"""Premium calculation under a derived measure.

The premium density is the expected aggregate claim per unit time under
the pricing measure.  A useful pricing measure loads the base premium
strictly, overall and per structure parameter.
"""

import math

import numpy as np

import cmpplab as lab

base = lab.BaseModel(lab.Exponential(0.2), lab.Gamma(2.0, 2.0))
change = lab.measure_change(alpha="ln(theta)", gamma="ln(x/5)",
                            xi="(27/8)*theta^2*exp(-theta)")
derived = lab.derive_q_model(lab.validate_change(base, change, level=2))

quote = lab.premium_density(base, derived)
print("premium quote:")
print(f"  p(P) = {quote.p_base:g}")
print(f"  p(Q) = {quote.p_derived:.6f} (= 200/9)")
print(f"  per theta: p(P_theta) = {quote.per_theta_base}, "
      f"p(Q_theta) = {quote.per_theta_derived}")
print(f"  strict loading (p(P) < p(Q) < inf): {lab.check_condition_13(quote)}")

print("\nper-theta loading flips at theta = 1/2 for this change:")
for theta in (0.3, 0.499, 0.501, 1.0, 2.0):
    ok = lab.check_condition_14(theta, derived)
    print(f"  theta = {theta:5.3f}: p(P_th) = {quote.per_theta_base(theta):7.4f}, "
          f"p(Q_th) = {quote.per_theta_derived(theta):7.4f}  loaded: {ok}")

print("\npremium schedule for the remaining risk of (t, T], T = 1:")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  p_t at t = {t:4.2f}: {lab.premium_schedule(quote, t, 1.0):8.4f}")

print("\nthe Esscher principle as a preset (claim tilt only, g = identity):")
ess = lab.esscher_change(0.05, base)
qe = lab.premium_density(base, lab.derive_q_model(lab.validate_change(base, ess)))
print(f"  gamma = {ess.gamma}")
print(f"  p(Q) = {qe.p_derived:.5f} vs p(P) = {qe.p_base:g} "
      f"(loading iff E[X]E[e^cX] < E[X e^cX], true for c > 0)")

print("\nthe Expected-Value principle (constant intensity multiplier):")
ev = lab.expected_value_change(math.log(1.25))
qv = lab.premium_density(base, lab.derive_q_model(lab.validate_change(base, ev)))
print(f"  g = {lab.derive_g(ev)}; p(Q)/p(P) = {qv.p_derived / qv.p_base:.4f} "
      f"(the loading factor e^c = 1.25)")

print("\nclosed forms always cross-checked against simulation:")
rep = lab.mc_estimate(lab.f_aggregate(), base, derived, lab.DERIVED_Q, 1.0,
                      100_000, seed=99, oracle=quote.p_derived).run()
print(f"  MC E_Q[S_1] = {rep.estimate:.4f} +- {rep.stderr:.4f} "
      f"vs closed form {quote.p_derived:.4f} -> {rep.verdict}")
