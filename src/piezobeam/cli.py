"""Command-line entry point: check, simulate, sweep, report.

Exit codes: 0 pass, 1 usage/parse error, 2 infeasible certificate,
3 failed verification, 4 runtime divergence.  All file output uses dot
decimal separators, newline line endings, and 17 significant digits, so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import diagnostics
from .errors import ConfigError, DivergenceError, PiezobeamError
from .scenario import Scenario, load_config
from .solver import COLUMNS, run
from .sweep import SweepSpec, execute

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3
EXIT_DIVERGED = 4


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _print_certificate(cert):
    print(f"certificate: xi_bar={_fmt(cert.xi_bar)} lambda={_fmt(cert.lam)}")
    print(f"  C1={_fmt(cert.c1)} C2={_fmt(cert.c2)} C3={_fmt(cert.c3)} "
          f"C={_fmt(cert.c)}")
    print(f"  valid: {cert.valid}")
    for diag in cert.diagnostics:
        print(f"  violated: {diag}")


def cmd_check(args):
    scenario = Scenario.from_dict(load_config(args.config))
    report = scenario.build_certificate()
    print("assumption checks:")
    for c in report.assumptions.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"  {c.name}: margin={_fmt(c.margin)} at t={_fmt(c.worst_t)} "
              f"[{status}]")
    _print_certificate(report)
    return EXIT_OK if report.valid else EXIT_INFEASIBLE


def _write_outputs(traj, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    rows = (map(_fmt, row) for row in traj.data[:, :-1].tolist())
    _write_csv(os.path.join(out_dir, "trajectory.csv"), COLUMNS[:-1], rows)
    for snap in traj.fields:
        rows = (tuple(_fmt(v) for v in (snap.x[i], snap.v[i], snap.vt[i],
                                        snap.p[i], snap.pt[i]))
                for i in range(len(snap.x)))
        _write_csv(os.path.join(out_dir, f"fields_{snap.index}.csv"),
                   ("x", "v", "vt", "p", "pt"), rows)

    cert = traj.certificate
    summary = {
        "status": traj.status,
        "certificate": cert.as_dict(),
        "multipliers": traj.multipliers.as_dict() if traj.multipliers else None,
        "decay_fit": None,
        "equivalence": None,
        "dissipation": None,
    }
    try:
        summary["decay_fit"] = diagnostics.fit_decay_rate(traj).as_dict()
    except PiezobeamError:
        pass
    if traj.multipliers is not None:
        try:
            b1, b2 = diagnostics.lyapunov_equivalence(traj, traj.multipliers)
            summary["equivalence"] = {"b1": b1, "b2": b2}
        except PiezobeamError:
            pass
    summary["dissipation"] = diagnostics.energy_dissipation_check(
        traj, cert).as_dict()
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def cmd_simulate(args):
    scenario = Scenario.from_dict(load_config(args.config))
    try:
        traj = run(scenario)
    except DivergenceError as exc:
        traj = getattr(exc, "trajectory", None)
        if traj is not None:
            _write_outputs(traj, args.out)
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    summary = _write_outputs(traj, args.out)
    fit = summary["decay_fit"]
    if fit is not None:
        print(f"fitted decay: H2={_fmt(fit['H2'])} r2={_fmt(fit['r_squared'])}")
    print(f"wrote {args.out}/trajectory.csv "
          f"({len(traj)} records, {len(traj.fields)} field snapshots)")
    return EXIT_OK


def cmd_sweep(args):
    cfg = load_config(args.config)
    spec = SweepSpec.from_dict(cfg)
    records = execute(spec, workers=args.threads)
    header = tuple(path for path, _ in spec.axes) + (
        "valid", "status", "H2", "r_squared", "energy_ratio", "violated")
    rows = []
    for rec in records:
        rows.append(tuple(_fmt(v) for v in rec.values) + (
            str(rec.valid).lower(), rec.status, _fmt(rec.h2),
            _fmt(rec.r_squared), _fmt(rec.energy_ratio),
            ";".join(rec.violated)))
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} records)")
    return EXIT_OK


def cmd_report(args):
    summary_path = os.path.join(args.dir, "summary.json")
    trajectory_path = os.path.join(args.dir, "trajectory.csv")
    for path in (summary_path, trajectory_path):
        if not os.path.exists(path):
            raise ConfigError(f"missing file: {path}")
    with open(summary_path) as fh:
        summary = json.load(fh)

    ok = True
    cert = summary.get("certificate") or {}
    print(f"certificate: {'VALID' if cert.get('valid') else 'INVALID'} "
          f"(C={cert.get('C')})")
    ok &= bool(cert.get("valid"))

    fit = summary.get("decay_fit")
    if fit and fit["H2"] > 0:
        print(f"decay: CERTIFIED(H2_fit={_fmt(fit['H2'])}, "
              f"r2={_fmt(fit['r_squared'])}) PASS")
    else:
        print("decay: FAILED")
        ok = False

    eq = summary.get("equivalence")
    if eq and eq["b1"] > 0 and math.isfinite(eq["b2"]):
        print(f"equivalence: b1={_fmt(eq['b1'])} b2={_fmt(eq['b2'])} PASS")
    else:
        print("equivalence: FAILED")
        ok = False

    dis = summary.get("dissipation")
    if dis and dis["n_violations"] == 0:
        print(f"dissipation: worst margin={_fmt(dis['worst_margin'])} "
              f"(0 violations of {dis['n_pairs']} pairs) PASS")
    else:
        print("dissipation: FAILED")
        ok = False

    if summary.get("status") != "ok":
        print(f"run status: {summary.get('status')} FAILED")
        ok = False
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="piezobeam",
        description="Simulate and verify certified decay of a delayed "
                    "piezoelectric beam system")
    parser.add_argument("--seedless", action="store_true",
                        help="reserved; the engine has no randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate assumptions and print the certificate")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run a scenario and write trajectory files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep and write a CSV table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="number of worker processes (default: 1, serial)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize a simulate output directory")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PiezobeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
