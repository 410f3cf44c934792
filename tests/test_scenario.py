"""Config schema round-trips and initial-data presets."""

import math

import numpy as np
import pytest

from piezobeam import Scenario, load_scenario
from piezobeam.errors import ConfigError
from piezobeam.scenario import SCENARIO_PRESETS, initial_fields, load_config


@pytest.mark.parametrize("name", SCENARIO_PRESETS)
def test_round_trip_every_preset(name):
    sc = load_scenario(name)
    assert Scenario.from_dict(sc.to_dict()) == sc


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
        certified_scenario.with_overrides(initial_preset="sawtooth")


@pytest.mark.parametrize("preset", ["zero", "fundamental-mode", "pluck"])
def test_initial_presets_respect_boundaries(certified_scenario, preset):
    sc = certified_scenario.with_overrides(initial_preset=preset)
    x = np.linspace(0.0, sc.beam.length, sc.n)
    v0, v1, p0, p1, g0 = initial_fields(sc, x)
    assert v0[0] == 0.0
    assert p0[0] == 0.0
    # zero slope at the free end (flat tail for pluck, cos(pi/2)=0 for mode)
    assert abs(v0[-1] - v0[-2]) <= 1e-3 * max(1.0, np.max(np.abs(v0)))
    # history extends the initial velocity constantly back in time
    assert np.max(np.abs(np.asarray(g0(x, -0.3)) - v1)) == 0.0


def test_fundamental_mode_shape(certified_scenario):
    x = np.linspace(0.0, 1.0, 201)
    v0, *_ = initial_fields(certified_scenario, x)
    assert np.max(np.abs(v0 - np.sin(math.pi * x / 2.0))) < 1e-15


@pytest.mark.parametrize("key,value", [
    ("cfl_safety", 0.0), ("cfl_safety", -0.5), ("cfl_safety", 1.5),
    ("dt_s", 0.0), ("dt_s", -0.01),
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
