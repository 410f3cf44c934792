"""Scenario configuration: JSON schema, initial-data presets, named presets.

The config format is JSON with explicit units in field names (seconds
suffixed `_s`, etc.).  The schema lives in one key table per config section
and per profile kind, mapping each JSON key to its dataclass field; both
Scenario.to_dict and Scenario.from_dict read those tables, so every key is
written once.  A key a config may leave out takes its dataclass default;
a key in no table of its section is rejected.
Initial-data presets are all compatible with the boundary conditions (zero
value at x=0, zero slope at x=L) and extend the initial velocity constantly
back in time as the delay history.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError
from .params import (BeamParams, DelayProfile, WeightProfiles,
                     build_certificate, check_float_fields)

INITIAL_PRESETS = ("zero", "fundamental-mode", "pluck")
SCENARIO_PRESETS = ("certified-decay", "damped-no-delay", "undamped")

# JSON key -> dataclass field, per config section
BEAM_KEYS = {"rho": "rho", "alpha": "alpha", "gamma": "gamma", "mu": "mu",
             "beta": "beta", "length_m": "length"}
DELAY_KEYS = {"tau0_s": "tau0", "tau_bar_s": "tau_bar", "slope_bound": "d"}
WEIGHT_KEYS = {"delta0": "delta0", "beta0": "beta0", "M1": "M1", "M2": "M2"}
# every key of these sections is optional
SECTION_KEYS = {
    "initial": {"preset": "initial_preset", "amplitude": "initial_amplitude"},
    "numerics": {"n": "n", "cfl_safety": "cfl_safety",
                 "integrator": "integrator", "horizon_s": "horizon",
                 "output_stride": "output_stride",
                 "field_stride": "field_stride", "dt_s": "dt"},
    "certificate": {"xi_bar": "xi_bar_override", "lambda": "lambda_override"},
}
# profile section -> (field holding its "kind", kind -> the kind's own keys)
KINDS = {
    "delay": ("kind", {
        "constant": {"value_s": "mean"},
        "sinusoid": {"mean_s": "mean", "amplitude_s": "amplitude",
                     "omega_rad_per_s": "omega"},
        "table": {"times_s": "table_t", "values_s": "table_tau"},
    }),
    "delta1": ("d1_kind", {
        "constant": {"value": "d1_floor"},
        "exp_floor": {"floor": "d1_floor", "excess": "d1_excess",
                      "rate_per_s": "d1_rate"},
    }),
    "delta2": ("d2_kind", {
        "zero": {},
        "constant": {"value": "d2_value"},
        "cosine": {"ratio": "d2_ratio", "omega_rad_per_s": "d2_omega"},
    }),
}


@dataclass(frozen=True)
class Scenario:
    beam: BeamParams
    delay: DelayProfile
    weights: WeightProfiles
    initial_preset: str = "fundamental-mode"
    initial_amplitude: float = 1.0
    n: int = 201
    cfl_safety: float = 0.5
    integrator: str = "explicit"
    horizon: float = 40.0
    output_stride: int = 1
    field_stride: int = 1000
    dt: float | None = None
    xi_bar_override: float | None = None
    lambda_override: float | None = None

    def __post_init__(self):
        check_float_fields(self)
        if self.initial_preset not in INITIAL_PRESETS:
            raise ConfigError(f"unknown initial preset {self.initial_preset!r}")
        if self.integrator not in ("explicit", "implicit"):
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        for name in ("n", "output_stride", "field_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"numerics {name} must be an integer, "
                                  f"got {value!r}")
        if self.n < 3:
            raise ConfigError(f"numerics n must be >= 3, got {self.n}")
        if not 0 < self.cfl_safety <= 1:
            raise ConfigError(
                f"numerics cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError(f"numerics dt_s must be > 0, got {self.dt}")
        if not self.horizon >= 0:
            raise ConfigError("horizon must be >= 0")
        if self.output_stride < 1 or self.field_stride < 1:
            raise ConfigError("strides must be >= 1")

    @functools.cached_property
    def certificate(self):
        """The scenario's decay certificate, built on first access; its
        assumptions hold on all of t >= 0, whatever the horizon."""
        return build_certificate(self.delay, self.weights,
                                 self.xi_bar_override, self.lambda_override)

    def to_dict(self):
        d = {"beam": _write(self.beam, BEAM_KEYS),
             "delay": {**_write_kind(self.delay, "delay"),
                       **_write(self.delay, DELAY_KEYS)},
             "weights": {**_write(self.weights, WEIGHT_KEYS),
                         "delta1": _write_kind(self.weights, "delta1"),
                         "delta2": _write_kind(self.weights, "delta2")},
             **{name: _write(self, keys)
                for name, keys in SECTION_KEYS.items()}}
        if self.dt is None:
            del d["numerics"]["dt_s"]
        return d

    @staticmethod
    def from_dict(cfg):
        try:
            _check_known(cfg, "top-level", ("beam", "delay", "weights"),
                         SECTION_KEYS)
            _check_known(cfg["beam"], "beam", BEAM_KEYS)
            beam = BeamParams(**_read(cfg["beam"], BEAM_KEYS))
            d = cfg["delay"]
            # a constant delay has slope 0, so its bound may be left out
            delay = DelayProfile(**_read_kind(d, "delay", DELAY_KEYS),
                                 **_read(d, DELAY_KEYS, ("slope_bound",)
                                         if d["kind"] == "constant" else ()))
            w = cfg["weights"]
            _check_known(w, "weights", WEIGHT_KEYS, ("delta1", "delta2"))
            weights = WeightProfiles(
                **_read(w, WEIGHT_KEYS, ("M1", "M2")),
                **_read_kind(w["delta1"], "delta1"),
                **_read_kind(w.get("delta2", {"kind": "zero"}), "delta2"))
            kw = {}
            for name, keys in SECTION_KEYS.items():
                section = cfg.get(name, {})
                _check_known(section, name, keys)
                kw.update(_read(section, keys, keys))
            return Scenario(beam=beam, delay=delay, weights=weights, **kw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario config: {exc}") from exc


def _read(section, keys, optional=()):
    """Dataclass kwargs from a JSON section; an optional key left out keeps
    its field's default, a required one raises KeyError."""
    return {field: section[key] for key, field in keys.items()
            if key in section or key not in optional}


def _write(obj, keys):
    """A JSON section from a dataclass; a table's tuples become lists."""
    out = {key: getattr(obj, field) for key, field in keys.items()}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def _object(section, name):
    """section, or TypeError if it is not a JSON object."""
    if not isinstance(section, dict):
        raise TypeError(f"{name} must be an object, got {section!r}")
    return section


def _check_known(section, name, *tables):
    """Raise ValueError naming the first key of section in none of tables,
    or TypeError if section is not an object."""
    for key in _object(section, name):
        if not any(key in table for table in tables):
            raise ValueError(f"unknown {name} key {key!r}")


def _read_kind(section, name, shared=()):
    """The kind and its keys' kwargs; shared holds the section's other keys."""
    kind_field, kinds = KINDS[name]
    if "kind" not in _object(section, name):
        raise ValueError(f"{name} needs a kind")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {name} kind {kind!r}")
    _check_known(section, name, ("kind",), kinds[kind], shared)
    return {kind_field: kind, **_read(section, kinds[kind])}


def _write_kind(obj, name):
    kind_field, kinds = KINDS[name]
    kind = getattr(obj, kind_field)
    return {"kind": kind, **_write(obj, kinds[kind])}


def initial_fields(scenario, x):
    """Initial (v0, v1, p0, p1) arrays on the nodes x.

    Every preset satisfies v(0)=p(0)=0 and zero slope at x=L; the run's
    history holds v1 at every stamp before t = 0 (solver.init_history).
    """
    amp = scenario.initial_amplitude
    length = scenario.beam.length
    preset = scenario.initial_preset
    if preset == "zero":
        v0 = np.zeros_like(x)
    elif preset == "fundamental-mode":
        v0 = amp * np.sin(math.pi * x / (2.0 * length))
    else:  # "pluck": Scenario admits only INITIAL_PRESETS
        knee = 0.7 * length
        v0 = amp * np.minimum(x / knee, 1.0)
    v1 = np.zeros_like(x)
    p0 = np.zeros_like(x)
    p1 = np.zeros_like(x)
    return v0, v1, p0, p1


def load_config(path_or_name):
    """Load a scenario config from a JSON file path or a shipped preset name."""
    name = str(path_or_name)
    if name in SCENARIO_PRESETS:
        text = resources.files("piezobeam.presets").joinpath(
            f"{name}.json").read_text()
        return json.loads(text)
    try:
        with open(name, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {name}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {name}: {exc}") from exc


def load_scenario(path_or_name):
    return Scenario.from_dict(load_config(path_or_name))
