"""piezobeam benchmark: three CLI workloads, each repetition in a fresh process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined in workloads.py): certified-decay, beta0-sweep,
implicit-fine.  BENCHMARK.json gates only the last two: between them they
exercise every traced boundary, and the run budget allows longer, steadier
runs for two workloads than for three.  Each repetition is one
``piezobeam.cli.main(argv)`` call in a fresh ``python3`` child that imports
the package from ``src/`` with OMP/OpenBLAS/MKL limited to one thread.
Repetitions run one at a time.

--trace 0  Repeats the workload for about --seconds (at least once), and
           reports the end-to-end metrics: wall_s, node_steps_per_s and
           peak_rss_mb (medians over repetitions) and setup_s (median of
           SETUP_REPS fresh processes that import the package and run the
           same command with horizon 0).
--trace 1  Alternates untraced and traced repetitions (at least two each)
           for about --seconds, and reports the per-layer counts and self
           times of tracer.py's boundaries, plus derived ratios and the
           tracing overhead.

Every repetition's outputs are checked (see workloads.py); all repetitions
of one invocation, traced or not, must write byte-identical files, and the
traced call counts must repeat exactly.  Human-readable lines, including
error_rate and machine facts, come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with every repetition, is also written under .perfbench_work/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import (
    BOUNDARIES, SELF_TIME_BOUNDARIES, SELF_TIME_GROUPS, STEPPER_BOUNDARIES)
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 5
MIN_TRACED_REPS = 2
# every invocation must end well inside 180 s, the limit on one run
DEADLINE_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def git_commit(root):
    """Commit of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def output_digest(out_dir):
    """sha256 over every file name and content under out_dir."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


class Runner:
    """Runs repetitions of one workload with one seed."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.deadline = deadline
        self.dir = os.path.join(WORK, workload.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = child_env()
        self.cfg = workload.config(seed)
        self.cfg_path = self._write_config("input.json", self.cfg)
        self.setup_cfg_path = self._write_config(
            "input-setup.json", workload.setup_config(self.cfg))
        self.count = 0

    def _write_config(self, name, cfg):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        return path

    def child(self, mode, cfg_path):
        """Run one fresh child; return (result dict, its output directory)."""
        self.count += 1
        out_dir = os.path.join(self.dir, f"rep{self.count}")
        os.makedirs(out_dir)
        result_path = out_dir + ".json"
        argv = self.workload.argv(cfg_path, out_dir)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a repetition could start")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), mode,
                 result_path, "--", *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(f"child exited with {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        package = os.path.realpath(result["package_file"])
        if not package.startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"child imported piezobeam from {package}, "
                             f"not from {SRC}")
        return result, out_dir

    def measured(self, mode):
        """One checked repetition of the workload."""
        result, out_dir = self.child(mode, self.cfg_path)
        try:
            failed, problems, dev = self.workload.check(
                result["rc"], out_dir, self.cfg)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed = self.workload.ops_per_rep
            problems, dev = [f"unreadable output: {exc!r}"], math.nan
        result.update(failed=failed, problems=problems, seed_dev=dev,
                      digest=output_digest(out_dir))
        shutil.rmtree(out_dir)
        return result

    def setup(self):
        """Set-up time of one fresh process: import plus the horizon-0 run."""
        result, out_dir = self.child("run", self.setup_cfg_path)
        shutil.rmtree(out_dir)
        if result["rc"] != 0:
            raise BenchError(f"horizon-0 set-up run exited with {result['rc']}")
        return result["import_s"] + result["wall_s"]

    def repeat(self, modes, seconds, min_rounds):
        """Rounds of one repetition per mode, for about seconds in all.

        Stops when another round would end more than half a round after
        seconds, so the measured time stays within half a round of it.
        """
        rounds = []
        start = time.monotonic()
        while True:
            rounds.append([self.measured(mode) for mode in modes])
            elapsed = time.monotonic() - start
            per_round = elapsed / len(rounds)
            if (len(rounds) >= min_rounds
                    and elapsed + 0.5 * per_round >= seconds):
                return rounds
            if time.monotonic() + per_round > self.deadline:
                return rounds


def end_to_end(runner, seconds):
    workload = runner.workload
    runner.setup()  # warm-up: byte-compiles the package, fills file caches
    setups = [runner.setup() for _ in range(SETUP_REPS)]
    reps = [r for r, in runner.repeat(("run",), seconds, min_rounds=1)]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "node_steps_per_s": (statistics.median(
            workload.node_steps / r["wall_s"] for r in reps), "node-steps/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_kb"] / 1024.0 for r in reps), "MB"),
    }
    walls = [r["wall_s"] for r in reps]
    print(f"wall_s over {len(walls)} repetitions: min {min(walls):.4f} "
          f"median {statistics.median(walls):.4f} max {max(walls):.4f} s")
    samples = {"wall_s": walls, "setup_s": setups,
               "cpu_s": [r["cpu_s"] for r in reps]}
    return reps, metrics, samples, []


def per_layer(runner, seconds):
    workload = runner.workload
    runner.setup()  # warm-up, as in end_to_end
    # untraced and traced repetitions alternate, so that drift in machine
    # speed does not show up as tracing overhead
    rounds = runner.repeat(("run", "trace"), seconds,
                           min_rounds=MIN_TRACED_REPS)
    untraced = [u for u, _ in rounds]
    traced = [t for _, t in rounds]
    reps = untraced + traced
    problems = []
    counts = [{name: s["calls"] for name, s in r["trace"].items()}
              for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced call counts differ between repetitions")
    absent = traced[0]["absent_boundaries"]
    calls = counts[0]
    steps = sum(calls[name] for name in STEPPER_BOUNDARIES)
    if not set(STEPPER_BOUNDARIES) & set(absent) and steps != workload.steps:
        problems.append(f"{steps} time steps, expected {workload.steps}")

    def med(values):
        return statistics.median(values)

    def self_s(r, names):
        return sum(r["trace"][name]["self_s"] for name in names)

    metrics = {f"{name}.calls": (calls[name], "count")
               for name, *_ in BOUNDARIES}
    for name in SELF_TIME_BOUNDARIES:
        metrics[f"{name}.self_s"] = (med(self_s(r, [name]) for r in traced),
                                     "s")
    for group, names in SELF_TIME_GROUPS.items():
        metrics[f"{group}.self_s"] = (med(self_s(r, names) for r in traced),
                                      "s")
    metrics["import.piezobeam_s"] = (med(r["import_s"] for r in traced), "s")
    for name in ("solver.guard_energy", "solver.history_sample",
                 "diagnostics.energy"):
        metrics[f"{name}.calls_per_step"] = (
            calls[name] / steps if steps else 0.0, "count/step")
    metrics["sweep.points_stepped_fraction"] = (
        calls["solver.run"] / workload.ops_per_rep, "frac")
    metrics["trace.overhead_frac"] = (
        med(t["wall_s"] / u["wall_s"] for u, t in rounds) - 1.0, "frac")
    metrics["trace.absent_boundaries"] = (len(absent), "count")

    traced_wall = med(r["wall_s"] for r in traced)
    print(f"{'boundary':34s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    for name, sites, moves, most, little in BOUNDARIES:
        if name in absent:
            print(f"{name:34s} {'absent':>9s}")
            continue
        s = med(self_s(r, [name]) for r in traced)
        print(f"{name:34s} {calls[name]:9d} {s:10.4f} "
              f"{100 * s / traced_wall:6.1f}%")
    for site in traced[0]["absent_sites"]:
        print(f"absent site: {site}")
    samples = {"traced_wall_s": [r["wall_s"] for r in traced],
               "untraced_wall_s": [r["wall_s"] for r in untraced],
               "trace": [r["trace"] for r in traced]}
    return reps, metrics, samples, problems


def machine_facts():
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "loadavg_before": os.getloadavg(),
            "git_commit": git_commit(ROOT)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "piezobeam", "cli.py")):
        print(f"error: no piezobeam sources under {SRC}", file=sys.stderr)
        return 2

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}",
          flush=True)
    start = time.monotonic()
    facts = machine_facts()
    workload = WORKLOADS[args.workload]
    try:
        runner = Runner(workload, args.seed, start + DEADLINE_S)
        measure = per_layer if args.trace else end_to_end
        reps, metrics, samples, problems = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_after"] = os.getloadavg()
    facts.update(reps[0]["versions"])

    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different outputs from "
                        f"{len(reps)} repetitions of the same input")
    attempted = workload.ops_per_rep * len(reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        problems += r["problems"]
    devs = [r["seed_dev"] for r in reps if not math.isnan(r["seed_dev"])]

    print(f"# repetitions={len(reps)} elapsed={time.monotonic() - start:.1f}s")
    print(f"# machine {json.dumps(facts)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'error_rate':40s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    print(f"{'max_rel_dev_from_seed':40s} "
          + (f"{max(devs):.3g} (information, not gated)" if devs
             else "n/a (sweep values are jittered)"))
    for problem in problems:
        print(f"problem: {problem}")

    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "machine": facts, "result": result,
                   "samples": samples, "problems": problems,
                   "repetitions": [{k: v for k, v in r.items()
                                    if k != "trace"} for r in reps]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
