"""Per-boundary call counts and self time, patched in from outside the package.

Each boundary wraps one or more lookup sites: the module attribute, class
attribute or dict entry through which piezobeam's own callers find the
function.  A site is written ``module:name``, ``module:Class.attr`` or
``module:DICT[key]``.  A site that no longer resolves (the function was
removed or renamed) is reported as absent; it never raises.

Only aggregates are kept (calls, total time, self time), because the hot
boundaries are entered hundreds of thousands of times per run and a span per
call would cost more than the work it measures.  Self time is the wrapped
call's duration minus the duration of wrapped calls nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import operator
import time

# name, lookup sites, the end-to-end metric it should move, workload where it
# does most work, workload where it does little or none.  Shares are of wall
# time on the seed implementation; certified-decay is runnable but not gated
# in BENCHMARK.json.
BOUNDARIES = (
    ("solver.step_explicit", ("piezobeam.solver:STEPPERS[explicit]",),
     "wall_s, node_steps_per_s", "beta0-sweep 11.3%, certified-decay 10.6%",
     "implicit-fine (0 calls)"),
    ("solver.apply", ("piezobeam.solver:SpatialOperator.apply",),
     "wall_s", "beta0-sweep 11.9%, certified-decay 11.5%",
     "implicit-fine (0 calls)"),
    ("solver.guard_energy", ("piezobeam.solver:_core_energy",),
     "wall_s", "beta0-sweep 21.3%, implicit-fine 12%", "none"),
    ("solver.delay_kernel",
     ("piezobeam.solver:HistoryBuffer.weighted_square_integral",),
     "wall_s", "beta0-sweep 15.4%, certified-decay 17.5%",
     "implicit-fine 0.9%"),
    ("solver.history_sample", ("piezobeam.solver:HistoryBuffer.sample",),
     "wall_s", "beta0-sweep 4.9%", "implicit-fine 1.7%"),
    ("solver.history_push", ("piezobeam.solver:HistoryBuffer.push",),
     "wall_s", "beta0-sweep 2.5%", "implicit-fine 1.5%"),
    ("solver.history_evict", ("piezobeam.solver:HistoryBuffer.evict",),
     "wall_s", "beta0-sweep 0.3%", "implicit-fine 0.2%"),
    ("solver.step_implicit", ("piezobeam.solver:STEPPERS[implicit]",),
     "wall_s, node_steps_per_s", "implicit-fine 12%", "the other two (0 calls)"),
    ("solver.implicit_matrix", ("piezobeam.solver:_implicit_matrix",),
     "wall_s, node_steps_per_s", "implicit-fine 5%", "the other two (0 calls)"),
    ("solver.banded_solve", ("piezobeam.solver:solve_banded",),
     "wall_s, node_steps_per_s", "implicit-fine 61%", "the other two (0 calls)"),
    ("solver.init_history", ("piezobeam.solver:init_history",),
     "setup_s, wall_s", "beta0-sweep (4 runs)", "none"),
    ("solver.run", ("piezobeam.cli:run", "piezobeam.sweep:run"),
     "setup_s, wall_s", "beta0-sweep (4 runs)", "none"),
    ("diagnostics.energy", ("piezobeam.diagnostics:energy",),
     "wall_s", "beta0-sweep 16.9%, certified-decay 15.4%",
     "implicit-fine 1.1%"),
    ("diagnostics.lyapunov", ("piezobeam.diagnostics:lyapunov_k1",
                              "piezobeam.diagnostics:lyapunov_k2",
                              "piezobeam.diagnostics:lyapunov_k3"),
     "wall_s", "beta0-sweep 12.6%, certified-decay 11.5%",
     "implicit-fine 0.8%"),
    ("diagnostics.verify", ("piezobeam.diagnostics:energy_dissipation_check",
                            "piezobeam.diagnostics:lyapunov_equivalence",
                            "piezobeam.diagnostics:fit_decay_rate",
                            "piezobeam.sweep:fit_decay_rate"),
     "wall_s, peak_rss_mb", "certified-decay 0.8%", "beta0-sweep (fit only)"),
    ("diagnostics.select_multipliers",
     ("piezobeam.diagnostics:select_multipliers",),
     "setup_s", "beta0-sweep", "none"),
    ("params.build_certificate", ("piezobeam.scenario:build_certificate",),
     "setup_s", "beta0-sweep (11 calls for 7 points)", "none"),
    ("scenario.load_config", ("piezobeam.cli:load_config",),
     "setup_s", "all", "none"),
    ("sweep.point", ("piezobeam.sweep:_run_one",),
     "wall_s", "beta0-sweep", "implicit-fine (0 calls)"),
    ("sweep.expand", ("piezobeam.sweep:expand",),
     "wall_s", "beta0-sweep", "implicit-fine (0 calls)"),
    ("cli.write_outputs", ("piezobeam.cli:_write_outputs",),
     "wall_s", "implicit-fine", "beta0-sweep (0 calls)"),
    ("cli.write_csv", ("piezobeam.cli:_write_csv",),
     "wall_s", "certified-decay 4.5%, implicit-fine 0.4%", "beta0-sweep"),
    ("cli.main", ("piezobeam.cli:main",),
     "wall_s", "all", "none"),
)

# Boundaries that do not run on every gated workload report self time only as
# part of a group, so that no reported time is identically zero on a workload.
SELF_TIME_GROUPS = {
    "solver.step": ("solver.step_explicit", "solver.step_implicit"),
    "solver.spatial": ("solver.apply", "solver.implicit_matrix",
                       "solver.banded_solve"),
}
SELF_TIME_BOUNDARIES = (
    "solver.guard_energy", "solver.delay_kernel", "solver.history_sample",
    "solver.history_push", "solver.history_evict", "solver.init_history",
    "solver.run", "diagnostics.energy", "diagnostics.lyapunov",
    "diagnostics.verify", "diagnostics.select_multipliers",
    "params.build_certificate", "scenario.load_config", "cli.write_csv",
    "cli.main",
)
STEPPER_BOUNDARIES = SELF_TIME_GROUPS["solver.step"]


def _resolve(site):
    """Return (container, key, is_item) for a site, or None when absent."""
    module_name, _, path = site.partition(":")
    try:
        container = importlib.import_module(module_name)
    except ImportError:
        return None
    if path.endswith("]"):
        attrs, _, key = path[:-1].partition("[")
        is_item = True
    else:
        attrs, _, key = path.rpartition(".")
        is_item = False
    try:
        for attr in filter(None, attrs.split(".")):
            container = getattr(container, attr)
        (operator.getitem if is_item else getattr)(container, key)
    except (AttributeError, KeyError, TypeError):
        return None
    return container, key, is_item


class Tracer:
    """Wraps every boundary's sites; one instance per traced process."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in BOUNDARIES}
        self.absent_sites = []
        self._stack = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self):
        for name, sites, *_ in BOUNDARIES:
            for site in sites:
                found = _resolve(site)
                if found is None:
                    self.absent_sites.append(site)
                    continue
                container, key, is_item = found
                if is_item:
                    container[key] = self._wrap(name, container[key])
                else:
                    setattr(container, key,
                            self._wrap(name, getattr(container, key)))

    def absent_boundaries(self):
        absent = set(self.absent_sites)
        return [name for name, sites, *_ in BOUNDARIES
                if all(site in absent for site in sites)]

    def report(self):
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.stats.items()}
