"""Scenario configuration: JSON schema, initial-data presets, named presets.

The config format is JSON with explicit units in field names (seconds
suffixed `_s`, etc.).  Initial-data presets are all compatible with the
boundary conditions (zero value at x=0, zero slope at x=L) and extend the
initial velocity constantly back in time as the delay history.
"""

from __future__ import annotations

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

    def build_certificate(self):
        return build_certificate(
            self.delay, self.weights,
            horizon=max(self.horizon, 1.0),
            xi_bar=self.xi_bar_override,
            lam=self.lambda_override,
        )

    def to_dict(self):
        d = {
            "beam": {
                "rho": self.beam.rho,
                "alpha": self.beam.alpha,
                "gamma": self.beam.gamma,
                "mu": self.beam.mu,
                "beta": self.beam.beta,
                "length_m": self.beam.length,
            },
            "delay": _delay_to_dict(self.delay),
            "weights": _weights_to_dict(self.weights),
            "initial": {
                "preset": self.initial_preset,
                "amplitude": self.initial_amplitude,
            },
            "numerics": {
                "n": self.n,
                "cfl_safety": self.cfl_safety,
                "integrator": self.integrator,
                "horizon_s": self.horizon,
                "output_stride": self.output_stride,
                "field_stride": self.field_stride,
            },
            "certificate": {
                "xi_bar": self.xi_bar_override,
                "lambda": self.lambda_override,
            },
        }
        if self.dt is not None:
            d["numerics"]["dt_s"] = self.dt
        return d

    @staticmethod
    def from_dict(cfg):
        try:
            beam = BeamParams(
                rho=cfg["beam"]["rho"],
                alpha=cfg["beam"]["alpha"],
                gamma=cfg["beam"]["gamma"],
                mu=cfg["beam"]["mu"],
                beta=cfg["beam"]["beta"],
                length=cfg["beam"]["length_m"],
            )
            delay = _delay_from_dict(cfg["delay"])
            weights = _weights_from_dict(cfg["weights"])
            init, num, cert = (cfg.get(key, {}) for key in
                               ("initial", "numerics", "certificate"))
            if not all(isinstance(s, dict) for s in (init, num, cert)):
                raise TypeError("initial, numerics and certificate must be "
                                "objects when present")
            return Scenario(
                beam=beam, delay=delay, weights=weights,
                initial_preset=init.get("preset", "fundamental-mode"),
                initial_amplitude=init.get("amplitude", 1.0),
                n=num.get("n", 201),
                cfl_safety=num.get("cfl_safety", 0.5),
                integrator=num.get("integrator", "explicit"),
                horizon=num.get("horizon_s", 40.0),
                output_stride=num.get("output_stride", 1),
                field_stride=num.get("field_stride", 1000),
                dt=num.get("dt_s"),
                xi_bar_override=cert.get("xi_bar"),
                lambda_override=cert.get("lambda"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario config: {exc}") from exc


def _delay_to_dict(delay):
    d = {"kind": delay.kind, "tau0_s": delay.tau0, "tau_bar_s": delay.tau_bar,
         "slope_bound": delay.d}
    if delay.kind == "constant":
        d["value_s"] = delay.mean
    elif delay.kind == "sinusoid":
        d["mean_s"] = delay.mean
        d["amplitude_s"] = delay.amplitude
        d["omega_rad_per_s"] = delay.omega
    else:
        d["times_s"] = list(delay.table_t)
        d["values_s"] = list(delay.table_tau)
    return d


def _delay_from_dict(d):
    kind = d["kind"]
    if kind == "constant":
        return DelayProfile(kind="constant", mean=d["value_s"],
                            tau0=d["tau0_s"], tau_bar=d["tau_bar_s"],
                            d=d.get("slope_bound", 0.0))
    if kind == "sinusoid":
        return DelayProfile(kind="sinusoid", mean=d["mean_s"],
                            amplitude=d["amplitude_s"],
                            omega=d["omega_rad_per_s"],
                            tau0=d["tau0_s"], tau_bar=d["tau_bar_s"],
                            d=d["slope_bound"])
    if kind == "table":
        return DelayProfile.from_table(d["times_s"], d["values_s"],
                                       tau0=d["tau0_s"], tau_bar=d["tau_bar_s"],
                                       d=d["slope_bound"])
    raise ConfigError(f"unknown delay kind {kind!r}")


def _weights_to_dict(w):
    d1 = {"kind": w.d1_kind}
    if w.d1_kind == "constant":
        d1["value"] = w.d1_floor
    else:
        d1.update(floor=w.d1_floor, excess=w.d1_excess, rate_per_s=w.d1_rate)
    d2 = {"kind": w.d2_kind}
    if w.d2_kind == "constant":
        d2["value"] = w.d2_value
    elif w.d2_kind == "cosine":
        d2.update(ratio=w.d2_ratio, omega_rad_per_s=w.d2_omega)
    return {"delta0": w.delta0, "beta0": w.beta0, "M1": w.M1, "M2": w.M2,
            "delta1": d1, "delta2": d2}


def _weights_from_dict(d):
    d1 = d["delta1"]
    d2 = d.get("delta2", {"kind": "zero"})
    kw = dict(delta0=d["delta0"], beta0=d["beta0"],
              M1=d.get("M1", 1.0), M2=d.get("M2", 1.0))
    if d1["kind"] == "constant":
        kw.update(d1_kind="constant", d1_floor=d1["value"])
    elif d1["kind"] == "exp_floor":
        kw.update(d1_kind="exp_floor", d1_floor=d1["floor"],
                  d1_excess=d1["excess"], d1_rate=d1["rate_per_s"])
    else:
        raise ConfigError(f"unknown delta1 kind {d1['kind']!r}")
    if d2["kind"] == "zero":
        kw.update(d2_kind="zero")
    elif d2["kind"] == "constant":
        kw.update(d2_kind="constant", d2_value=d2["value"])
    elif d2["kind"] == "cosine":
        kw.update(d2_kind="cosine", d2_ratio=d2["ratio"],
                  d2_omega=d2["omega_rad_per_s"])
    else:
        raise ConfigError(f"unknown delta2 kind {d2['kind']!r}")
    return WeightProfiles(**kw)


def initial_fields(scenario, x):
    """Initial (v0, v1, p0, p1) arrays plus the history function g0(x, s).

    Every preset satisfies v(0)=p(0)=0 and zero slope at x=L; g0 extends the
    initial velocity constantly in time, so the newest history entry matches
    the initial velocity by construction.
    """
    amp = scenario.initial_amplitude
    length = scenario.beam.length
    preset = scenario.initial_preset
    if preset == "zero":
        v0 = np.zeros_like(x)
    elif preset == "fundamental-mode":
        v0 = amp * np.sin(math.pi * x / (2.0 * length))
    elif preset == "pluck":
        knee = 0.7 * length
        v0 = amp * np.minimum(x / knee, 1.0)
    else:
        raise ConfigError(f"unknown initial preset {preset!r}")
    v1 = np.zeros_like(x)
    p0 = np.zeros_like(x)
    p1 = np.zeros_like(x)

    def g0(xs, s):
        return np.interp(xs, x, v1)

    return v0, v1, p0, p1, g0


def load_config(path_or_name):
    """Load a scenario config from a JSON file path or a shipped preset name."""
    name = str(path_or_name)
    if name in SCENARIO_PRESETS:
        text = resources.files("piezobeam.presets").joinpath(
            f"{name}.json").read_text()
        return json.loads(text)
    try:
        with open(name) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {name}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {name}: {exc}") from exc


def load_scenario(path_or_name):
    return Scenario.from_dict(load_config(path_or_name))
