"""The three benchmark workloads: seeded inputs and output checks.

The seed changes the inputs but never the amount of work: grid size, step
count and record count are fixed per workload.  Every check uses quantities
that do not depend on the seeded values (the model is linear, so H2, r^2 and
E(T)/E(0) do not depend on the initial amplitude, and the dissipation
tolerance scales with E(0) >= 1.23), so each check holds for any seed.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random

# The physics of the shipped certified-decay preset, kept here so that the
# benchmark's inputs do not change when the package's presets do.
CERTIFIED_DECAY = {
    "beam": {"rho": 1.0, "alpha": 2.0, "gamma": 1.0, "mu": 1.0, "beta": 1.0,
             "length_m": 1.0},
    "delay": {"kind": "sinusoid", "mean_s": 0.5, "amplitude_s": 0.1,
              "omega_rad_per_s": 1.8, "tau0_s": 0.4, "tau_bar_s": 0.6,
              "slope_bound": 0.19},
    "weights": {"delta0": 1.0, "beta0": 0.3, "M1": 0.1, "M2": 0.35,
                "delta1": {"kind": "exp_floor", "floor": 1.0, "excess": 0.5,
                           "rate_per_s": 0.25},
                "delta2": {"kind": "cosine", "ratio": 0.3,
                           "omega_rad_per_s": 1.0}},
    "initial": {"preset": "fundamental-mode", "amplitude": 1.0},
    "numerics": {"n": 201, "cfl_safety": 0.5, "integrator": "explicit",
                 "horizon_s": 40.0, "output_stride": 1, "field_stride": 5000},
    "certificate": {"xi_bar": None, "lambda": None},
}

# Relative tolerance on H2 and E(T)/E(0) against the seed implementation.
# Reordered floating-point sums move these by about 1e-12; a changed scheme
# moves them by far more than 1e-6.
SEED_RTOL = 1e-6
MIN_R_SQUARED = 0.95
MAX_ENERGY_RATIO = 0.1

SWEEP_BETA0 = (0.5, 0.7, 0.85, 0.88, 0.92, 0.95, 1.1)
SWEEP_JITTER = 0.01
SLOPE_BOUND = CERTIFIED_DECAY["delay"]["slope_bound"]
BETA0_BOUNDARY = math.sqrt(1.0 - SLOPE_BOUND)  # = 0.9, where validity flips


def _amplitude(rng):
    # in [1, 2]: keeps E(0) > 1, so the dissipation tolerance scales with it
    return 1.0 + rng.random()


def _read_trajectory_energy(path):
    """(rows, E of the first row, E of the last row) of a trajectory.csv."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        col = header.index("E")
        first = fh.readline()
        last = first
        rows = 1 if first else 0
        for line in fh:
            last = line
            rows += 1
    return rows, float(first.split(",")[col]), float(last.split(",")[col])


def _rel_dev(value, ref):
    return abs(value - ref) / abs(ref)


class SimulateWorkload:
    """One ``piezobeam simulate`` call on the certified-decay physics."""

    ops_per_rep = 1

    def __init__(self, name, numerics, steps, records, fields, seed_h2,
                 seed_energy_ratio):
        self.name = name
        self.numerics = numerics
        self.steps = steps
        self.records = records
        self.fields = fields
        self.seed_h2 = seed_h2
        self.seed_energy_ratio = seed_energy_ratio
        self.node_steps = (CERTIFIED_DECAY["numerics"] | numerics)["n"] * steps

    def config(self, seed):
        cfg = copy.deepcopy(CERTIFIED_DECAY)
        cfg["numerics"].update(self.numerics)
        cfg["initial"]["amplitude"] = _amplitude(random.Random(seed))
        return cfg

    @staticmethod
    def setup_config(cfg):
        cfg = copy.deepcopy(cfg)
        cfg["numerics"]["horizon_s"] = 0.0
        return cfg

    @staticmethod
    def argv(cfg_path, out_path):
        return ["simulate", "--config", cfg_path, "--out", out_path]

    def check(self, rc, out_path, cfg):
        """(failed operations, problems, largest relative deviation from seed)."""
        if rc != 0:
            return 1, [f"exit code {rc}"], math.nan
        problems = []
        with open(os.path.join(out_path, "summary.json")) as fh:
            summary = json.load(fh)
        fit = summary["decay_fit"] or {}
        h2 = fit.get("H2", math.nan)
        r2 = fit.get("r_squared", math.nan)
        rows, e0, e_end = _read_trajectory_energy(
            os.path.join(out_path, "trajectory.csv"))
        ratio = e_end / e0
        n_fields = sum(name.startswith("fields_")
                       for name in os.listdir(out_path))
        if summary["status"] != "ok":
            problems.append(f"status {summary['status']!r}")
        if summary["dissipation"]["n_violations"] != 0:
            problems.append(f"{summary['dissipation']['n_violations']} "
                            "dissipation violations")
        if not h2 > 0:
            problems.append(f"H2={h2} is not > 0")
        if not r2 >= MIN_R_SQUARED:
            problems.append(f"r^2={r2} < {MIN_R_SQUARED}")
        if not ratio <= MAX_ENERGY_RATIO:
            problems.append(f"E(T)/E(0)={ratio} > {MAX_ENERGY_RATIO}")
        if rows != self.records:
            problems.append(f"{rows} trajectory rows, expected {self.records}")
        if n_fields != self.fields:
            problems.append(f"{n_fields} field files, expected {self.fields}")
        dev = max(_rel_dev(h2, self.seed_h2),
                  _rel_dev(ratio, self.seed_energy_ratio))
        if not dev <= SEED_RTOL:
            problems.append(f"H2={h2}, E(T)/E(0)={ratio} deviate {dev:.3g} "
                            f"from the seed's ({self.seed_h2}, "
                            f"{self.seed_energy_ratio}); limit {SEED_RTOL}")
        return int(bool(problems)), problems, dev


class SweepWorkload:
    """One ``piezobeam sweep`` over the criterion-8 beta0 grid."""

    name = "beta0-sweep"
    ops_per_rep = len(SWEEP_BETA0)
    n = 101
    horizon = 20.0
    steps = 6473 * sum(b < BETA0_BOUNDARY for b in SWEEP_BETA0)
    node_steps = n * steps

    def config(self, seed):
        rng = random.Random(seed)
        base = copy.deepcopy(CERTIFIED_DECAY)
        base["weights"]["delta2"]["ratio"] = 0.1
        base["initial"]["amplitude"] = _amplitude(rng)
        # +-0.01 keeps every value on its side of the 0.9 boundary
        values = [b + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
                  for b in SWEEP_BETA0]
        return {"base": base,
                "axes": [{"path": "weights.beta0", "values": values}],
                "n": self.n, "horizon_s": self.horizon, "workers": 1}

    @staticmethod
    def setup_config(cfg):
        cfg = copy.deepcopy(cfg)
        cfg["horizon_s"] = 0.0
        return cfg

    @staticmethod
    def argv(cfg_path, out_path):
        return ["sweep", "--config", cfg_path,
                "--out", os.path.join(out_path, "sweep.csv")]

    def check(self, rc, out_path, cfg):
        values = cfg["axes"][0]["values"]
        if rc != 0:
            return len(values), [f"exit code {rc}"], math.nan
        with open(os.path.join(out_path, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        problems = []
        if len(lines) != len(values) + 1:
            problems.append(f"{len(lines) - 1} rows, expected {len(values)}")
        failed = abs(len(lines) - 1 - len(values))
        for line, beta0 in zip(lines[1:], values):
            # the last column is free text and may itself hold commas
            cells = line.split(",", 6)
            if len(cells) != 7:
                failed += 1
                problems.append(f"malformed row {line!r}")
                continue
            value, valid, status, h2 = cells[:4]
            expect_valid = beta0 < BETA0_BOUNDARY
            row_problems = []
            if float(value) != beta0:
                row_problems.append(f"row beta0 {value} != {beta0!r}")
            if valid != str(expect_valid).lower():
                row_problems.append(f"beta0={beta0}: valid={valid}")
            if status != ("ok" if expect_valid else "infeasible"):
                row_problems.append(f"beta0={beta0}: status {status!r}")
            if expect_valid and not float(h2) > 0:
                row_problems.append(f"beta0={beta0}: H2={h2} is not > 0")
            failed += bool(row_problems)
            problems += row_problems
        return failed, problems, math.nan


WORKLOADS = {w.name: w for w in (
    SimulateWorkload("certified-decay", {}, steps=25889, records=25890,
                     fields=7, seed_h2=0.27940405703693899,
                     seed_energy_ratio=1.4705446840875921e-06),
    SweepWorkload(),
    SimulateWorkload("implicit-fine",
                     {"integrator": "implicit", "n": 1601, "dt_s": 0.005,
                      "output_stride": 10, "field_stride": 1_000_000},
                     steps=8000, records=801, fields=2,
                     seed_h2=0.28417297586421036,
                     seed_energy_ratio=1.2041911615425823e-06),
)}
