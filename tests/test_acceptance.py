"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion re-derives its expected values independently inside the test
(hand-evaluated closed forms, brute-force eigenvalues, reference quadratures)
rather than trusting the library's own arithmetic.
"""

import dataclasses
import json
import math
import sys

import numpy as np

from piezobeam import (
    BeamParams,
    Grid,
    SpatialOperator,
    build_certificate,
    energy_dissipation_check,
    execute,
    fit_decay_rate,
    lyapunov_equivalence,
    run,
)
from piezobeam.cli import EXIT_OK, main
from piezobeam.scenario import load_config
from piezobeam.sweep import SweepSpec


def _line(ok, num, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}", file=sys.__stdout__)
    return ok


def test_criterion_1_certificate_arithmetic(certified_scenario):
    cert = build_certificate(certified_scenario.delay,
                             certified_scenario.weights)
    # independent hand evaluation for delta0=1, beta0=0.3, d=0.19, tau_bar=0.6
    root = math.sqrt(1.0 - 0.19)
    xi_ref = 0.5 * (0.3 / root + (2.0 - 0.3 / root))  # interval midpoint
    lam_ref = 0.5 * (1.0 / 0.6) * math.log(xi_ref * root / 0.3)
    c1_ref = 1.0 * (1.0 - 0.3 / (2.0 * root) - xi_ref / 2.0)
    c2_ref = 1.0 * (1.0 - 0.19) * (
        math.exp(-lam_ref * 0.6) * xi_ref / 2.0 - 0.3 / (2.0 * root))
    c3_ref = lam_ref * xi_ref * 1.0 / 2.0

    rel = lambda got, ref: abs(got - ref) / abs(ref)
    errs = [rel(cert.xi_bar, xi_ref), rel(cert.lam, lam_ref),
            rel(cert.c1, c1_ref), rel(cert.c2, c2_ref), rel(cert.c3, c3_ref)]
    ok = cert.valid and max(errs) <= 1e-12
    assert _line(ok, 1,
                 f"xi_bar={cert.xi_bar:.6g} lambda={cert.lam:.6g} "
                 f"C1={cert.c1:.6g} C2={cert.c2:.6g} C3={cert.c3:.6g} "
                 f"max rel err={max(errs):.2e} (tol 1e-12)")


def test_criterion_2_undamped_conservation(undamped_scenario):
    def drift_of(safety):
        traj = run(dataclasses.replace(undamped_scenario,
                                       cfl_safety=safety),
                   collect_fields=False)
        e = traj.energies
        return float(np.max(np.abs(e - e[0])) / e[0])

    drift = drift_of(0.5)
    drift_half = drift_of(0.25)
    ratio = drift / drift_half if drift_half > 0 else math.inf
    ok = drift <= 0.01 and ratio >= 3.0
    assert _line(ok, 2,
                 f"relative drift={drift:.3e} (tol 1e-2), "
                 f"dt-halving reduction={ratio:.2f}x (need >= 3)")


def test_criterion_3_dissipation_inequality(certified_run):
    rep = energy_dissipation_check(certified_run, certified_run.certificate)
    ok = rep.n_pairs > 0 and rep.n_violations == 0
    assert _line(ok, 3,
                 f"{rep.n_violations} violations of {rep.n_pairs} record "
                 f"pairs, worst margin={rep.worst_margin:.3e} "
                 f"(tol {rep.tolerance:.3e})")


def test_criterion_4_exponential_decay(certified_run):
    fit = fit_decay_rate(certified_run)
    e = certified_run.energies
    ratio = float(e[-1] / e[0])
    ok = fit.h2 > 0 and fit.r_squared >= 0.95 and ratio <= 0.1
    assert _line(ok, 4,
                 f"H2={fit.h2:.4f} (>0), r^2={fit.r_squared:.4f} (>=0.95), "
                 f"E(T)/E(0)={ratio:.3e} (<=0.1) at T=40")


def test_criterion_5_lyapunov_equivalence(certified_run, certified_scenario):
    mult = certified_run.multipliers
    b1, b2 = lyapunov_equivalence(certified_run, mult)

    # direct substitution of the five multiplier sign conditions, written out
    # independently of the library implementation
    pr = certified_scenario.beam
    w = certified_scenario.weights
    cert = certified_run.certificate
    a1 = pr.alpha1
    cp = mult.c_prime
    d10 = float(w.delta1(0.0))
    eps = cp * d10 / a1
    a_coeff = a1 - a1 / 4.0 - w.beta0 * a1 / 4.0
    cmin = min(cert.c1, cert.c2, cert.c3)
    n, n1, n2, n3 = mult.n, mult.n1, mult.n2, mult.n3

    lhs = [
        n3 * pr.beta - 3.0,
        n2 * pr.gamma * pr.mu / 2.0 - pr.gamma * pr.mu / 4.0 - n3 * pr.mu,
        n1 * a_coeff - n2**2 * a1**2 / 4.0 + n3 * a_coeff,
        cmin * n - (n1 * (pr.rho + n1 * pr.gamma * pr.mu + eps * d10)
                    + n2 * (pr.rho * pr.gamma + pr.rho**2 / (pr.gamma * pr.mu)
                            + pr.gamma**3 * pr.mu + n2 * cp * d10**2 / 4.0)
                    + n3 * (pr.rho + eps * d10)),
        cmin * n - (n1 * eps * w.beta0 * d10
                    + n2 * n2 * cp * w.beta0**2 * d10**2 / 4.0
                    + n3 * eps * w.beta0 * d10),
    ]
    ok = b1 > 0 and math.isfinite(b2) and all(v > 1.0 for v in lhs)
    assert _line(ok, 5,
                 f"b1={b1:.4g} (>0), b2={b2:.4g} (finite), sign-condition "
                 f"LHS minimum={min(lhs):.4g} (all must exceed 1) with "
                 f"N={n:g} N1={n1:g} N2={n2:g} N3={n3:g}")


def _final_state(scenario):
    traj = run(scenario)
    snap = traj.fields[-1]
    assert abs(snap.t - scenario.horizon) < 1e-9
    return snap, traj.dt


def test_criterion_6_cross_integrator(certified_scenario):
    from piezobeam import cfl_timestep
    grid = Grid(certified_scenario.n, certified_scenario.beam.length)
    dt0 = cfl_timestep(SpatialOperator(certified_scenario.beam, grid),
                       certified_scenario.delay) / 8.0

    def diff_at(dt):
        base = dataclasses.replace(
            certified_scenario, horizon=1.0, dt=dt, output_stride=10**9,
            field_stride=10**9)
        exp_snap, dt_used = _final_state(dataclasses.replace(
            base, integrator="explicit"))
        imp_snap, _ = _final_state(dataclasses.replace(
            base, integrator="implicit"))
        num = math.sqrt(float(np.sum((exp_snap.v - imp_snap.v)**2)
                              + np.sum((exp_snap.p - imp_snap.p)**2)))
        den = math.sqrt(float(np.sum(exp_snap.v**2) + np.sum(exp_snap.p**2)))
        return num / den, dt_used

    err, _ = diff_at(dt0)
    err_half, _ = diff_at(dt0 / 2.0)
    order = math.log2(err / err_half)
    ok = err <= 1e-3 and order >= 1.0
    assert _line(ok, 6,
                 f"relative L2 difference={err:.3e} (tol 1e-3) at T=1, "
                 f"observed order under dt halving={order:.2f} (need >= 1)")


def test_criterion_7_spatial_order():
    beam = BeamParams(rho=1.0, alpha=2.0, gamma=1.0, mu=1.0, beta=1.0,
                      length=1.0)
    kv = math.pi / 2.0
    kp = 3.0 * math.pi / 2.0
    errs = []
    for n in (51, 101, 201):
        g = Grid(n, 1.0)
        op = SpatialOperator(beam, g)
        v = np.sin(kv * g.x)
        p = np.sin(kp * g.x)
        acc_v, acc_p = op.apply(v, p)
        # analytic accelerations of the manufactured fields
        ref_v = (-beam.alpha / beam.rho * kv**2 * v
                 + beam.gamma * beam.beta / beam.rho * kp**2 * p)
        ref_p = (-beam.beta / beam.mu * kp**2 * p
                 + beam.gamma * beam.beta / beam.mu * kv**2 * v)
        err = max(np.max(np.abs(acc_v[1:-1] - ref_v[1:-1])),
                  np.max(np.abs(acc_p[1:-1] - ref_p[1:-1])))
        errs.append(float(err))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(1.7 <= o <= 2.3 for o in orders)
    assert _line(ok, 7,
                 f"observed interior truncation orders={orders[0]:.2f}, "
                 f"{orders[1]:.2f} (window [1.7, 2.3])")


def test_criterion_8_assumption_boundary_sweep():
    base = load_config("certified-decay")
    base["weights"]["delta2"]["ratio"] = 0.1
    values = (0.5, 0.7, 0.85, 0.88, 0.92, 0.95, 1.1)
    spec = SweepSpec(base, axes=(("weights.beta0", values),), n=101,
                     horizon=20.0)
    records = execute(spec)
    boundary = math.sqrt(1.0 - 0.19)  # = 0.9 analytically
    flips_ok = all(rec.valid == (b0 < boundary)
                   for rec, b0 in zip(records, values))
    decay_ok = all(rec.h2 > 0 for rec in records if rec.valid)
    ok = flips_ok and decay_ok
    valid_h2 = [f"{rec.h2:.3f}" for rec in records if rec.valid]
    assert _line(ok, 8,
                 f"validity flips at beta0={boundary:.1f} across {values}, "
                 f"valid-cell H2 values={valid_h2} (all > 0)")


def test_criterion_9_cli_determinism(tmp_path):
    cfg = load_config("certified-decay")
    cfg["numerics"].update({"n": 101, "horizon_s": 2.0, "output_stride": 5,
                            "field_stride": 500})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = blobs[0] == blobs[1] and len(blobs[0]) >= 3
    assert _line(ok, 9,
                 f"rerun of simulate produced byte-identical outputs "
                 f"({len(blobs[0])} files compared)")
