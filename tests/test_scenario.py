"""Config schema round-trips and initial-data presets."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezobeam import (
    BeamParams,
    DelayProfile,
    Scenario,
    WeightProfiles,
    load_scenario,
)
from piezobeam.errors import ConfigError
from piezobeam.scenario import (
    INITIAL_PRESETS,
    SCENARIO_PRESETS,
    initial_fields,
    load_config,
)

POS = st.floats(0.01, 100.0)
REAL = st.floats(-100.0, 100.0)


@pytest.mark.parametrize("name", SCENARIO_PRESETS)
def test_round_trip_every_preset(name):
    sc = load_scenario(name)
    assert Scenario.from_dict(sc.to_dict()) == sc
    # both directions use the shipped key names
    assert sc.to_dict() == load_config(name)


def test_round_trip_table_delay():
    cfg = load_config("certified-decay")
    cfg["delay"] = {
        "kind": "table",
        "times_s": [0.0, 5.0, 10.0],
        "values_s": [0.5, 0.55, 0.5],
        "tau0_s": 0.4, "tau_bar_s": 0.6, "slope_bound": 0.19,
    }
    sc = Scenario.from_dict(cfg)
    assert Scenario.from_dict(sc.to_dict()) == sc


@st.composite
def beams(draw):
    gamma, beta = draw(st.floats(0.0, 3.0)), draw(POS)
    # alpha1 = alpha - gamma^2 beta stays positive
    return BeamParams(rho=draw(POS), alpha=gamma**2 * beta + draw(POS),
                      gamma=gamma, mu=draw(POS), beta=beta, length=draw(POS))


@st.composite
def delays(draw):
    bounds = dict(tau0=draw(POS), tau_bar=draw(POS), d=draw(REAL))
    kind = draw(st.sampled_from(["constant", "sinusoid", "table"]))
    if kind == "constant":
        return DelayProfile(kind="constant", mean=draw(POS), **bounds)
    if kind == "sinusoid":
        return DelayProfile(kind="sinusoid", mean=draw(POS),
                            amplitude=draw(REAL), omega=draw(REAL), **bounds)
    times = draw(st.lists(POS, min_size=2, max_size=6, unique=True))
    values = draw(st.lists(POS, min_size=len(times), max_size=len(times)))
    return DelayProfile(kind="table", table_t=sorted(times), table_tau=values,
                        **bounds)


@st.composite
def weight_profiles(draw):
    kw = dict(delta0=draw(POS), beta0=draw(POS), M1=draw(POS), M2=draw(POS),
              d1_kind=draw(st.sampled_from(["constant", "exp_floor"])),
              d1_floor=draw(POS),
              d2_kind=draw(st.sampled_from(["zero", "constant", "cosine"])))
    if kw["d1_kind"] == "exp_floor":
        kw.update(d1_excess=draw(REAL), d1_rate=draw(POS))
    if kw["d2_kind"] == "constant":
        kw.update(d2_value=draw(REAL))
    elif kw["d2_kind"] == "cosine":
        kw.update(d2_ratio=draw(REAL), d2_omega=draw(REAL))
    return WeightProfiles(**kw)


@given(st.builds(
    Scenario, beam=beams(), delay=delays(), weights=weight_profiles(),
    initial_preset=st.sampled_from(INITIAL_PRESETS),
    initial_amplitude=REAL, n=st.integers(3, 4001),
    cfl_safety=st.floats(0.01, 1.0),
    integrator=st.sampled_from(["explicit", "implicit"]),
    horizon=st.floats(0.0, 100.0), output_stride=st.integers(1, 50),
    field_stride=st.integers(1, 5000), dt=st.none() | POS,
    xi_bar_override=st.none() | POS, lambda_override=st.none() | POS))
def test_round_trip_generated(scenario):
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_invalid_json_raises(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_malformed_config_raises():
    with pytest.raises(ConfigError):
        Scenario.from_dict({"beam": {}})


def test_unknown_preset_rejected(certified_scenario):
    with pytest.raises(ConfigError):
        dataclasses.replace(certified_scenario, initial_preset="sawtooth")


@pytest.mark.parametrize("preset", ["zero", "fundamental-mode", "pluck"])
def test_initial_presets_respect_boundaries(certified_scenario, preset):
    sc = dataclasses.replace(certified_scenario, initial_preset=preset)
    x = np.linspace(0.0, sc.beam.length, sc.n)
    v0, v1, p0, p1 = initial_fields(sc, x)
    assert v0[0] == 0.0
    assert p0[0] == 0.0
    # zero slope at the free end (flat tail for pluck, cos(pi/2)=0 for mode)
    assert abs(v0[-1] - v0[-2]) <= 1e-3 * max(1.0, np.max(np.abs(v0)))


def test_fundamental_mode_shape(certified_scenario):
    x = np.linspace(0.0, 1.0, 201)
    v0, *_ = initial_fields(certified_scenario, x)
    assert np.max(np.abs(v0 - np.sin(math.pi * x / 2.0))) < 1e-15


@pytest.mark.parametrize("key,value", [
    ("cfl_safety", 0.0), ("cfl_safety", -0.5), ("cfl_safety", 1.5),
    ("dt_s", 0.0), ("dt_s", -0.01), ("n", 50.5), ("n", "101"),
    ("output_stride", 2.5), ("output_stride", True), ("field_stride", 10.0),
])
def test_bad_numerics_rejected_at_load(key, value):
    cfg = load_config("certified-decay")
    cfg["numerics"][key] = value
    with pytest.raises(ConfigError, match=key):
        Scenario.from_dict(cfg)


def test_numerics_bounds_inclusive():
    cfg = load_config("certified-decay")
    cfg["numerics"].update(cfl_safety=1.0, dt_s=1e-3)
    sc = Scenario.from_dict(cfg)
    assert (sc.cfl_safety, sc.dt) == (1.0, 1e-3)


def test_unsorted_table_delay_rejected_at_load():
    cfg = load_config("certified-decay")
    cfg["delay"] = {"kind": "table", "times_s": [0, 20, 10, 30],
                    "values_s": [0.5, 0.5, 0.9, 0.5], "tau0_s": 0.4,
                    "tau_bar_s": 1.0, "slope_bound": 0.38}
    with pytest.raises(ConfigError, match="strictly increasing"):
        Scenario.from_dict(cfg)


def test_table_delay_length_mismatch_rejected_at_load():
    cfg = load_config("certified-decay")
    cfg["delay"] = {"kind": "table", "times_s": [0, 10, 20],
                    "values_s": [0.5, 0.5], "tau0_s": 0.4, "tau_bar_s": 0.6,
                    "slope_bound": 0.19}
    with pytest.raises(ConfigError, match="one value per time"):
        Scenario.from_dict(cfg)


@pytest.mark.parametrize("section,key,value", [
    ("delay", "tau0_s", "0.4"), ("weights", "beta0", "0.3"),
    ("numerics", "horizon_s", "40"), ("beam", "rho", None),
    ("initial", "amplitude", True), ("numerics", "cfl_safety", "0.5"),
    ("numerics", "dt_s", False), ("certificate", "xi_bar", "1"),
    ("delay", "times_s", [0, "10", 20]),
    ("delay", "values_s", [0.5, True, 0.5]),
    ("delay", "values_s", [0.5, None, 0.5]),
    ("numerics", "horizon_s", math.inf), ("delay", "tau_bar_s", math.inf),
    ("beam", "length_m", -math.inf), ("weights", "beta0", math.nan),
    ("certificate", "lambda", math.inf),
    ("delay", "values_s", [0.5, math.nan, 0.5]),
])
def test_non_number_rejected_at_load(section, key, value):
    cfg = load_config("certified-decay")
    if key in ("times_s", "values_s"):
        cfg["delay"] = {"kind": "table", "times_s": [0, 10, 20],
                        "values_s": [0.5, 0.5, 0.5], "tau0_s": 0.4,
                        "tau_bar_s": 0.6, "slope_bound": 0.0}
    cfg[section][key] = value
    # inf and nan are numbers, but not finite ones
    non_finite = any(isinstance(v, float) and not math.isfinite(v)
                     for v in (value if isinstance(value, list) else [value]))
    with pytest.raises(ConfigError, match="must be finite" if non_finite
                       else "must be a number"):
        Scenario.from_dict(cfg)


@pytest.mark.parametrize("section", ["initial", "numerics", "certificate"])
def test_null_section_rejected_at_load(section):
    cfg = load_config("certified-decay")
    cfg[section] = None
    with pytest.raises(ConfigError, match=section):
        Scenario.from_dict(cfg)
