"""Walk through the decay certificate for the shipped certified scenario.

Shows how the declared profile bounds (delay window, slope bound, damping
floor, delayed-gain ratio) turn into the delay-energy weight xi_bar, the
kernel rate lambda, and the three dissipation constants whose minimum bounds
the energy decay per unit damping.

Run:  python3 demos/certificate_walkthrough.py
"""

import math

from piezobeam import build_certificate, load_scenario, validate_assumptions

scenario = load_scenario("certified-decay")
delay, weights = scenario.delay, scenario.weights

print("profile bounds")
print(f"  delay window  [{delay.tau0}, {delay.tau_bar}], slope bound d={delay.d}")
print(f"  damping floor delta0={weights.delta0}, gain ratio beta0={weights.beta0}")
print(f"  feasibility: beta0 < sqrt(1-d) = {math.sqrt(1 - delay.d):.3f}")
print()

report = validate_assumptions(delay, weights)
print("sampled assumption margins (>= 0 passes)")
for name, check in report.items():
    print(f"  {name:28s} {check.margin:+.3e}")
print()

cert = build_certificate(delay, weights)
print("certificate")
print(f"  xi_bar = {cert.xi_bar}  (midpoint of the admissible interval)")
print(f"  lambda = {cert.lam:.6f}  (half the C2-critical kernel rate)")
print(f"  C1 = {cert.c1:.6f}")
print(f"  C2 = {cert.c2:.6f}")
print(f"  C3 = {cert.c3:.6f}")
print(f"  C  = min = {cert.c:.6f}, valid = {cert.valid}")
