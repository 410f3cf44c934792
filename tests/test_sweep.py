"""Sweep expansion, classification, and determinism."""

import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezobeam import SweepSpec, build_certificate, execute, expand
from piezobeam import scenario, sweep
from piezobeam.errors import ConfigError, HistoryUnderrunError, SweepSpecError
from piezobeam.scenario import load_config


def _base():
    return load_config("certified-decay")


def test_expand_cartesian_order():
    spec = SweepSpec(_base(), axes=(
        ("weights.beta0", (0.1, 0.5)),
        ("delay.slope_bound", (0.0, 0.19)),
    ))
    combos = [combo for combo, _ in expand(spec)]
    assert combos == [(0.1, 0.0), (0.1, 0.19), (0.5, 0.0), (0.5, 0.19)]


def test_expand_single_value_only_changes_that_field():
    spec = SweepSpec(_base(), axes=(("weights.beta0", (0.25,)),), n=101,
                     horizon=5.0)
    items = expand(spec)
    assert len(items) == 1
    _, cfg = items[0]
    expected = _base()
    expected["weights"]["beta0"] = 0.25
    expected["numerics"]["n"] = 101
    expected["numerics"]["horizon_s"] = 5.0
    assert cfg == expected


def test_empty_axes_rejected():
    with pytest.raises(SweepSpecError):
        SweepSpec(_base(), axes=())


def test_empty_axis_values_rejected():
    with pytest.raises(SweepSpecError):
        SweepSpec(_base(), axes=(("weights.beta0", ()),))


@pytest.mark.parametrize("path", ["numerics.n", "numerics.horizon_s"])
def test_spec_owned_axes_rejected(path):
    # expand() sets these from spec.n / spec.horizon, so an axis would be
    # silently overwritten and report points that never ran
    with pytest.raises(SweepSpecError, match=path):
        SweepSpec(_base(), axes=((path, (2, 31)),))


@pytest.mark.parametrize("key, value, message", [
    ("n", 50.5, "integer"), ("n", True, "integer"), ("n", 2, ">= 3"),
    ("horizon", "abc", "number"), ("horizon", -1, ">= 0"),
    ("horizon", float("inf"), "finite"),
])
def test_bad_sweep_n_or_horizon_rejected(key, value, message):
    # the spec owns n and horizon_s: a bad one is one config error, not one
    # identical infeasible row per point
    with pytest.raises(SweepSpecError, match=message):
        SweepSpec(_base(), axes=(("weights.beta0", (0.3,)),), **{key: value})


def test_bad_path_names_path():
    spec = SweepSpec(_base(), axes=(("weights.nonexistent", (0.1,)),))
    with pytest.raises(SweepSpecError, match="weights.nonexistent"):
        expand(spec)


def test_from_dict():
    spec = SweepSpec.from_dict({
        "base": _base(),
        "axes": [{"path": "weights.beta0", "values": [0.1, 0.2]}],
        "n": 51, "horizon_s": 4.0,
    })
    assert spec.axes == (("weights.beta0", (0.1, 0.2)),)
    assert spec.n == 51
    assert spec.horizon == 4.0


def test_malformed_dict():
    with pytest.raises(SweepSpecError):
        SweepSpec.from_dict({"axes": []})


@pytest.mark.parametrize("values", ["0.3", {"0.3": 1}, 0.3, None],
                         ids=["string", "object", "number", "null"])
def test_from_dict_values_must_be_a_list(values):
    # a string would otherwise be swept character by character, an object
    # key by key
    with pytest.raises(SweepSpecError, match="values must be a list"):
        SweepSpec.from_dict({"base": _base(), "axes": [
            {"path": "weights.beta0", "values": values}]})


@pytest.mark.parametrize("path", [5, None, ["weights", "beta0"]])
def test_non_string_path_rejected(path):
    with pytest.raises(SweepSpecError, match="path must be a string"):
        SweepSpec(_base(), axes=((path, (0.3,)),))


@pytest.fixture(scope="module")
def small_spec():
    base = _base()
    # keep the delayed gain under every swept beta0
    base["weights"]["delta2"]["ratio"] = 0.1
    return SweepSpec(base, axes=(("weights.beta0", (0.3, 1.2)),),
                     n=51, horizon=5.0)


@pytest.fixture(scope="module")
def small_records(small_spec):
    return execute(small_spec)


def _key(rec):
    # repr maps nan to 'nan' so records compare equal fieldwise
    return (rec.values, rec.valid, repr(rec.h2), repr(rec.energy_ratio),
            rec.status)


class TestExecute:
    def test_record_count_and_order(self, small_records):
        assert len(small_records) == 2
        assert [r.values for r in small_records] == [(0.3,), (1.2,)]

    def test_infeasible_point_recorded(self, small_records):
        rec = small_records[1]
        assert rec.status == "infeasible"
        assert not rec.valid
        assert any("delay_weight_ratio" in v for v in rec.violated)

    def test_valid_point_has_fit(self, small_records):
        rec = small_records[0]
        assert rec.status == "ok"
        assert rec.valid
        assert rec.energy_ratio < 1.0

    def test_records_are_frozen(self, small_records):
        # each point's record is built in one call
        for rec in small_records:
            with pytest.raises(dataclasses.FrozenInstanceError):
                rec.h2 = 0.0

    def test_deterministic_repeat(self, small_spec, small_records):
        assert list(map(_key, execute(small_spec))) == list(map(_key,
                                                                small_records))

    def test_matches_standalone_certificate(self, small_spec, small_records):
        from piezobeam import Scenario
        for rec, (_, cfg) in zip(small_records, expand(small_spec)):
            cert = Scenario.from_dict(cfg).certificate
            assert cert.valid == rec.valid


def test_point_too_short_for_the_fit_keeps_its_energy_ratio():
    # one record: no decay fit, but the row is ok and has its E(T)/E(0)
    (rec,) = execute(SweepSpec(_base(), axes=(("weights.beta0", (0.3,)),),
                               n=11, horizon=0.0))
    assert (rec.status, rec.valid, rec.energy_ratio) == ("ok", True, 1.0)
    assert math.isnan(rec.h2) and math.isnan(rec.r_squared)


def test_point_builds_one_certificate(monkeypatch):
    # run() reads the certificate the point already built
    built = []

    def counting_build(*args, **kwargs):
        built.append(args)
        return build_certificate(*args, **kwargs)

    monkeypatch.setattr(scenario, "build_certificate", counting_build)
    spec = SweepSpec(_base(), axes=(("weights.beta0", (0.3, 1.2)),), n=11,
                     horizon=0.5)
    records = execute(spec)
    assert [r.status for r in records] == ["ok", "infeasible"]
    assert len(built) == 2


@pytest.mark.parametrize("error", [HistoryUnderrunError, ConfigError])
def test_run_failure_recorded_as_error_row(monkeypatch, error):
    def failing_run(scenario, collect_fields=True):
        raise error(f"failed at beta0={scenario.weights.beta0}")

    monkeypatch.setattr(sweep, "run", failing_run)
    spec = SweepSpec(_base(), axes=(("weights.beta0", (0.3, 0.5)),), n=31,
                     horizon=1.0)
    records = execute(spec)
    assert [r.status for r in records] == ["error", "error"]
    assert [r.violated for r in records] == [["failed at beta0=0.3"],
                                             ["failed at beta0=0.5"]]
    assert all(r.valid for r in records)


def test_diverged_point_recorded_as_diverged_row():
    # dt_s = 0.1 is past the CFL step (about 0.03) at n = 11: the blow-up
    # guard trips; dt_s = 1e-310 gives a step count past the float range,
    # which the set-up refuses, and the sweep goes on
    base = _base()
    base["numerics"]["dt_s"] = 0.001
    spec = SweepSpec(base, axes=(("numerics.dt_s", (0.001, 1e-310, 0.1)),),
                     n=11, horizon=2.0)
    ok, refused, diverged = execute(spec)
    assert (ok.status, refused.status, diverged.status) == (
        "ok", "error", "diverged")
    assert refused.valid and refused.violated == [
        "time step 1e-310 makes the step count over horizon_s 2.0 past the "
        "float range"]
    assert ok.valid and diverged.valid and not diverged.violated
    assert ok.h2 > 0
    assert all(math.isnan(x) for x in (diverged.h2, diverged.r_squared,
                                       diverged.energy_ratio))


def test_nonfinite_initial_lyapunov_recorded_as_error_row():
    # amplitude 1e153: E(0) is finite, L(0) = N E(0) + ... is not, so the
    # set-up refuses the point, with no numpy warning, and the sweep goes on
    spec = SweepSpec(_base(), axes=(("initial.amplitude", (1.0, 1e153)),),
                     n=11, horizon=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, refused = execute(spec)
    assert (ok.status, refused.status) == ("ok", "error")
    assert refused.valid and refused.violated == [
        "initial Lyapunov value inf is not finite"]


def test_non_integer_axis_value_recorded_as_infeasible_row():
    spec = SweepSpec(_base(), axes=(("numerics.output_stride", (1, 2.5)),),
                     n=31, horizon=1.0)
    records = execute(spec)
    assert [r.status for r in records] == ["ok", "infeasible"]
    assert "output_stride" in records[1].violated[0]


SCALARS = (st.floats() | st.integers(-10**6, 10**6) | st.booleans()
           | st.text() | st.none())


# huge amplitudes overflow the energy to inf: an error row when E(0) is
# inf, a diverged row when a step makes it so
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(["weights.beta0", "weights.M1",
                             "delay.slope_bound", "initial.amplitude"]),
       values=st.lists(SCALARS, min_size=1, max_size=3))
def test_execute_records_every_failure_as_a_row(path, values):
    # none of these paths changes the step count, so each point stays short
    spec = SweepSpec(_base(), axes=((path, tuple(values)),), n=11,
                     horizon=0.5)
    records = execute(spec)
    assert len(records) == len(values)
    assert all(r.values[0] is v for r, v in zip(records, values))
    assert {r.status for r in records} <= {"ok", "infeasible", "diverged",
                                           "error"}
