"""Simulate the certified scenario and compare against the certificate.

Integrates the coupled beam system with the time-varying delayed damping,
then checks the three empirical claims the certificate makes about the
trajectory: the per-step dissipation inequality, the equivalence of the
combined Lyapunov functional with the energy, and exponential decay of E(t).

Run:  python3 demos/decay_simulation.py
"""

from piezobeam import (
    energy_dissipation_check,
    fit_decay_rate,
    load_scenario,
    lyapunov_equivalence,
    run,
)

scenario = load_scenario("certified-decay")
print(f"integrating: n={scenario.n}, horizon={scenario.horizon}, "
      f"{scenario.integrator} stepper")
traj = run(scenario, collect_fields=False)
e = traj.energies
print(f"  dt={traj.dt:.5f}, {len(traj)} records")
print(f"  E(0)={e[0]:.6f} -> E(T)={e[-1]:.3e}  (ratio {e[-1] / e[0]:.3e})")
print()

dis = energy_dissipation_check(traj)
print(f"dissipation inequality: {dis.n_violations} violations of "
      f"{dis.n_pairs} pairs, worst margin {dis.worst_margin:+.3e}")

b1, b2 = lyapunov_equivalence(traj)
m = traj.multipliers
print(f"Lyapunov multipliers: N={m.n:g} N1={m.n1:g} N2={m.n2:g} N3={m.n3:g}")
print(f"equivalence ratios:   {b1:.4g} <= L/E <= {b2:.4g}")

fit = fit_decay_rate(traj)
print(f"fitted decay:         E(t) ~ {fit.h1:.3f} E(0) exp(-{fit.h2:.4f} t), "
      f"r^2={fit.r_squared:.4f}")
