"""Batch exploration of parameter space: stability-region mapping.

A sweep takes a base scenario config and a list of axes (dotted parameter
path, list of values), runs every grid point, and classifies each by
certificate validity and fitted decay.  Failed runs are data, not errors:
the point of the sweep includes mapping where the scheme or certificate
breaks.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

from .diagnostics import fit_decay_rate
from .errors import DivergenceError, InsufficientDataError, PiezobeamError, SweepSpecError
from .params import BeamParams, DelayProfile, WeightProfiles
from .scenario import Scenario
from .solver import run

SWEEP_DEFAULT_N = 101
SWEEP_DEFAULT_HORIZON = 20.0


@dataclass(frozen=True)
class SweepSpec:
    base: dict  # scenario config dict
    axes: tuple  # ((dotted path, (values...)), ...)
    n: int = SWEEP_DEFAULT_N
    horizon: float = SWEEP_DEFAULT_HORIZON

    def __post_init__(self):
        if not self.axes:
            raise SweepSpecError("sweep needs at least one axis")
        for path, values in self.axes:
            if not isinstance(path, str):
                raise SweepSpecError(f"axis path must be a string, got {path!r}")
            if not len(values):
                raise SweepSpecError(f"axis {path!r} has no values")
            if path in ("numerics.n", "numerics.horizon_s"):  # see expand
                raise SweepSpecError(
                    f"axis {path!r} would be overwritten by the sweep's "
                    "n / horizon_s")
        try:  # the spec's n and horizon_s obey the Scenario's rules
            Scenario(BeamParams(), DelayProfile(), WeightProfiles(),
                     n=self.n, horizon=self.horizon)
        except (PiezobeamError, TypeError, ValueError) as exc:
            raise SweepSpecError(f"sweep n / horizon_s: {exc}") from exc

    @staticmethod
    def from_dict(cfg):
        try:
            base = cfg["base"]
            axes = tuple((a["path"], a["values"]) for a in cfg["axes"])
        except (KeyError, TypeError) as exc:
            raise SweepSpecError(f"malformed sweep config: {exc}") from exc
        for path, values in axes:
            if not isinstance(values, list):
                raise SweepSpecError(
                    f"axis {path!r} values must be a list, got {values!r}")
        return SweepSpec(
            base=base, axes=tuple((p, tuple(v)) for p, v in axes),
            n=cfg.get("n", SWEEP_DEFAULT_N),
            horizon=cfg.get("horizon_s", SWEEP_DEFAULT_HORIZON),
        )


@dataclass
class SweepRecord:
    values: tuple
    valid: bool
    violated: list = field(default_factory=list)
    h2: float = math.nan
    r_squared: float = math.nan
    energy_ratio: float = math.nan
    status: str = "ok"  # ok | infeasible | diverged | error


def _set_path(cfg, path, value):
    parent, node = None, cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise SweepSpecError(f"parameter path {path!r} does not resolve "
                                 f"in the base scenario (missing {key!r})")
        parent, node = node, node[key]
    parent[key] = value


def expand(spec):
    """Cartesian product of the axes in deterministic lexicographic order."""
    scenarios = []
    for combo in itertools.product(*(values for _, values in spec.axes)):
        cfg = copy.deepcopy(spec.base)
        for (path, _), value in zip(spec.axes, combo):
            _set_path(cfg, path, value)
        cfg.setdefault("numerics", {})
        cfg["numerics"]["n"] = spec.n
        cfg["numerics"]["horizon_s"] = spec.horizon
        scenarios.append((combo, cfg))
    return scenarios


def _run_one(item):
    combo, cfg = item
    try:
        scenario = Scenario.from_dict(cfg)
        certificate = scenario.certificate
    except PiezobeamError as exc:
        return SweepRecord(combo, False, [str(exc)], status="infeasible")
    if not certificate.valid:
        return SweepRecord(combo, False, list(certificate.diagnostics),
                           status="infeasible")
    try:
        traj = run(scenario, collect_fields=False)
    except DivergenceError:
        return SweepRecord(combo, True, status="diverged")
    except PiezobeamError as exc:
        return SweepRecord(combo, True, [str(exc)], status="error")
    rec = SweepRecord(combo, True)
    e = traj.energies
    rec.energy_ratio = float(e[-1] / e[0]) if e[0] > 0 else math.nan
    try:
        fit = fit_decay_rate(traj)
        rec.h2 = fit.h2
        rec.r_squared = fit.r_squared
    except InsufficientDataError:
        pass
    return rec


def execute(spec):
    """Run every grid point; records keep expansion order."""
    return [_run_one(item) for item in expand(spec)]
