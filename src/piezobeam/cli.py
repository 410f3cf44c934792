"""Command-line entry point: check, simulate, sweep, report.

Exit codes: 0 pass, 1 usage/parse error, 2 infeasible certificate,
3 failed verification, 4 runtime divergence.  All file output uses dot
decimal separators, newline line endings, and 17 significant digits, so
reruns are byte-identical.  summary.json's keys are spelled only here:
_write_outputs writes them and _report_lines reads them back.  check runs
a run's set-up, solver.plan, and no step: it refuses what simulate refuses
there, with the same exit code and stderr.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import numbers
import os
import sys

from . import diagnostics
from .errors import ConfigError, DivergenceError, PiezobeamError
from .scenario import Scenario, load_config
from .solver import COLUMNS, plan, run
from .sweep import SweepSpec, execute

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3
EXIT_DIVERGED = 4


def _fmt(x):
    return format(float(x), ".17g")


def _open_out(path):
    """path opened for writing: an unwritable one is a usage error."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path, header, rows):
    with _open_out(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print_certificate(cert):
    print(f"certificate: xi_bar={_fmt(cert.xi_bar)} lambda={_fmt(cert.lam)}")
    print(f"  C1={_fmt(cert.c1)} C2={_fmt(cert.c2)} C3={_fmt(cert.c3)} "
          f"C={_fmt(cert.c)}")
    print(f"  valid: {cert.valid}")
    for diag in cert.diagnostics:
        print(f"  violated: {diag}")


def cmd_check(args):
    scenario = Scenario.from_dict(load_config(args.config))
    plan(scenario)  # refuses what a run's set-up refuses
    cert = scenario.certificate
    print("assumption checks:")
    for name, c in cert.assumptions.items():
        status = "pass" if c.passed else "FAIL"
        print(f"  {name}: margin={_fmt(c.margin)} at t={_fmt(c.worst_t)} "
              f"[{status}]")
    _print_certificate(cert)
    return EXIT_OK if cert.valid else EXIT_INFEASIBLE


def _finite_or_null(obj):
    """obj with every non-finite float, nested in dicts and lists, as None:
    summary.json writes it as null, since NaN and Infinity are not JSON."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_outputs(traj, out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc.strerror}") from exc
    rows = (map(_fmt, row) for row in traj.data[:, :-1].tolist())
    _write_csv(os.path.join(out_dir, "trajectory.csv"), COLUMNS[:-1], rows)
    x = traj.grid.x
    for k, st in enumerate(traj.fields):
        rows = (map(_fmt, node)
                for node in zip(x, st.v, st.vt, st.p, st.pt))
        _write_csv(os.path.join(out_dir, f"fields_{k}.csv"),
                   ("x", "v", "vt", "p", "pt"), rows)

    try:
        fit = diagnostics.fit_decay_rate(traj)
    except PiezobeamError:
        fit = None
    try:
        eq = diagnostics.lyapunov_equivalence(traj)
    except PiezobeamError:
        eq = None
    dis = diagnostics.energy_dissipation_check(traj)
    cert, mult = traj.certificate, traj.multipliers
    summary = {
        "status": traj.status,
        "certificate": {"xi_bar": cert.xi_bar, "lambda": cert.lam,
                        "C1": cert.c1, "C2": cert.c2, "C3": cert.c3,
                        "C": cert.c, "valid": cert.valid,
                        "diagnostics": list(cert.diagnostics)},
        "multipliers": mult and {"N": mult.n, "N1": mult.n1, "N2": mult.n2,
                                 "N3": mult.n3, "c_prime": mult.c_prime},
        "decay_fit": fit and {"H1": fit.h1, "H2": fit.h2,
                              "r_squared": fit.r_squared,
                              "window": list(fit.window)},
        "equivalence": eq and {"b1": eq[0], "b2": eq[1]},
        "dissipation": {"n_pairs": dis.n_pairs,
                        "n_violations": dis.n_violations,
                        "worst_margin": dis.worst_margin,
                        "worst_t": dis.worst_t, "tolerance": dis.tolerance,
                        "passed": dis.passed},
    }
    with _open_out(os.path.join(out_dir, "summary.json")) as fh:
        json.dump(_finite_or_null(summary), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    return summary


def cmd_simulate(args):
    scenario = Scenario.from_dict(load_config(args.config))
    # refused before the run, as makedirs would, but making no directory:
    # an empty --out, or one whose nearest existing ancestor, itself
    # included, is not a directory
    head = args.out
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if not args.out or head and not os.path.isdir(head):
        code = (errno.ENOENT if not args.out else
                errno.EEXIST if head == args.out else errno.ENOTDIR)
        raise ConfigError(f"cannot write {args.out}: {os.strerror(code)}")
    try:
        traj = run(scenario)
    except DivergenceError as exc:
        _write_outputs(exc.trajectory, args.out)
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
    spec = SweepSpec.from_dict(load_config(args.config))
    # refused before any point runs, as _write_csv's open would: an empty
    # --out, a directory, or one whose parent is not a directory
    parent = os.path.dirname(args.out) or "."
    if not args.out or os.path.isdir(args.out) or not os.path.isdir(parent):
        code = (errno.EISDIR if os.path.isdir(args.out)
                else errno.ENOTDIR if args.out and os.path.exists(parent)
                else errno.ENOENT)
        raise ConfigError(f"cannot write {args.out}: {os.strerror(code)}")
    records = execute(spec)
    header = tuple(path for path, _ in spec.axes) + (
        "valid", "status", "H2", "r_squared", "energy_ratio", "violated")
    rows = []
    for rec in records:
        rows.append(tuple(_fmt(v) if isinstance(v, numbers.Real)
                          else json.dumps(v) for v in rec.values) + (
            str(rec.valid).lower(), rec.status, _fmt(rec.h2),
            _fmt(rec.r_squared), _fmt(rec.energy_ratio),
            ";".join(rec.violated)))
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} records)")
    return EXIT_OK


def _number(x):
    """A number read from summary.json, where null stands for a non-finite
    value: null reads as nan, which fails every check that inf or nan did."""
    return math.nan if x is None else x


def _report_lines(summary):
    """The report's lines on a parsed summary.json, and whether it passes."""
    lines, ok = [], True
    cert = summary.get("certificate") or {}
    lines.append(f"certificate: {'VALID' if cert.get('valid') else 'INVALID'} "
                 f"(C={_number(cert.get('C'))})")
    ok &= bool(cert.get("valid"))

    fit = summary.get("decay_fit")
    if fit and _number(fit["H2"]) > 0:
        lines.append(f"decay: CERTIFIED(H2_fit={_fmt(fit['H2'])}, "
                     f"r2={_fmt(_number(fit['r_squared']))}) PASS")
    else:
        lines.append("decay: FAILED")
        ok = False

    eq = summary.get("equivalence")
    if eq and _number(eq["b1"]) > 0 and math.isfinite(_number(eq["b2"])):
        lines.append(f"equivalence: b1={_fmt(eq['b1'])} b2={_fmt(eq['b2'])} "
                     "PASS")
    else:
        lines.append("equivalence: FAILED")
        ok = False

    dis = summary.get("dissipation")
    if dis and dis["n_pairs"] == 0:  # fewer than 2 records: nothing checked
        lines.append("dissipation: FAILED (0 pairs)")
        ok = False
    elif dis and dis["n_violations"] == 0:
        lines.append("dissipation: worst margin="
                     f"{_fmt(_number(dis['worst_margin']))} "
                     f"(0 violations of {dis['n_pairs']} pairs) PASS")
    else:
        lines.append("dissipation: FAILED")
        ok = False

    if summary.get("status") != "ok":
        lines.append(f"run status: {summary.get('status')} FAILED")
        ok = False
    return lines, ok


def cmd_report(args):
    summary_path = os.path.join(args.dir, "summary.json")
    trajectory_path = os.path.join(args.dir, "trajectory.csv")
    for path in (summary_path, trajectory_path):
        if not os.path.exists(path):
            raise ConfigError(f"missing file: {path}")
    # outside input, read whole before anything prints
    try:
        with open(summary_path) as fh:
            lines, ok = _report_lines(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ConfigError(f"cannot read {summary_path}: "
                          f"{type(exc).__name__}: {exc}") from exc
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="piezobeam",
        description="Simulate and verify certified decay of a delayed "
                    "piezoelectric beam system")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="set up as simulate does, print the certificate")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run a scenario and write trajectory files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep and write a CSV table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
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
