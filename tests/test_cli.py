"""Exit codes, file outputs, and byte-level determinism of the command line."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from piezobeam.cli import (
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
import piezobeam
from piezobeam import solver
from piezobeam.scenario import load_config


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _quick_cfg(**numerics):
    cfg = load_config("certified-decay")
    cfg["numerics"].update({"n": 101, "horizon_s": 20.0, "output_stride": 5,
                            "field_stride": 2000})
    cfg["numerics"].update(numerics)
    return cfg


def _overridden_cfg(slope_bound):
    """Both certificate overrides given, so neither xi_bar nor lambda is
    derived from the slope bound."""
    cfg = _quick_cfg(horizon_s=1.0)
    cfg["delay"]["slope_bound"] = slope_bound
    cfg["certificate"] = {"xi_bar": 1.0, "lambda": 0.5}
    return cfg


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One moderately long certified run shared by simulate/report tests."""
    tmp = tmp_path_factory.mktemp("sim")
    cfg_path = _write_cfg(tmp, _quick_cfg())
    out = str(tmp / "out")
    assert main(["simulate", "--config", cfg_path, "--out", out]) == EXIT_OK
    return out


class TestCheck:
    def test_certified_preset_passes(self, capsys):
        assert main(["check", "--config", "certified-decay"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "valid: True" in out
        assert "C1=" in out

    def test_infeasible_ratio_exits_2(self, tmp_path, capsys):
        cfg = load_config("certified-decay")
        cfg["weights"]["beta0"] = 0.95
        cfg["weights"]["delta2"]["ratio"] = 0.95
        code = main(["check", "--config", _write_cfg(tmp_path, cfg)])
        assert code == EXIT_INFEASIBLE
        assert "delay_weight_ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("d", [1.0, 1.5])
    def test_slope_bound_from_1_with_both_overrides_exits_2(self, tmp_path,
                                                            capsys, d):
        code = main(["check", "--config",
                     _write_cfg(tmp_path, _overridden_cfg(d))])
        assert code == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert f"  violated: need 0 <= d < 1, got d={d}\n" in out
        assert "valid: False" in out

    # a tau_bar_s of 0 voids the certificate too, but its history cannot
    # serve the delay at t = 0, so the set-up refuses it first (exit 3; see
    # test_refuses_what_simulate_refuses)
    @pytest.mark.parametrize("section,key,value,reason", [
        ("certificate", "lambda", -1.0,
         "dissipation_constant_C3_nonpositive")])
    def test_nonpositive_tau_bar_or_lambda_exits_2(self, tmp_path, capsys,
                                                   section, key, value,
                                                   reason):
        cfg = load_config("certified-decay")
        cfg[section][key] = value
        code = main(["check", "--config", _write_cfg(tmp_path, cfg)])
        assert code == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert f"  violated: {reason}\n" in out
        assert "valid: False" in out

    @pytest.mark.parametrize("key,value", [("cfl_safety", 1.5),
                                           ("dt_s", 0.0), ("n", 50.5),
                                           ("n", "101"),
                                           ("output_stride", 2.5)])
    def test_bad_numerics_exit_1(self, tmp_path, capsys, key, value):
        cfg = load_config("certified-decay")
        cfg["numerics"][key] = value
        code = main(["check", "--config", _write_cfg(tmp_path, cfg)])
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("section,key", [("numerics", "horizon_s"),
                                             ("delay", "tau_bar_s"),
                                             ("beam", "length_m")])
    def test_infinity_in_config_exits_1(self, tmp_path, capsys, command,
                                        section, key):
        cfg = _quick_cfg()
        cfg[section][key] = float("inf")
        path = _write_cfg(tmp_path, cfg)
        assert "Infinity" in open(path).read()
        argv = [command, "--config", path]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "out")

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["check", "--config", str(tmp_path / "missing.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("section,patch", [
        ("delay", {"kind": "table", "times_s": [0, 10, 20],
                   "values_s": [0.5, 0.5]}),
        ("delay", {"tau0_s": "0.4"}),
        ("numerics", None),
        ("delay", {"kind": "bogus"}),
        ("weights", {"delta1": {"kind": "bogus"}}),
        ("weights", {"delta2": {"kind": "bogus"}}),
    ])
    def test_malformed_config_exits_1(self, tmp_path, capsys, section, patch):
        cfg = load_config("certified-decay")
        cfg[section] = None if patch is None else {**cfg[section], **patch}
        code = main(["check", "--config", _write_cfg(tmp_path, cfg)])
        assert code == EXIT_USAGE
        assert "malformed scenario config" in capsys.readouterr().err


    def test_check_lists_every_assumption_in_order(self, capsys):
        names = ["delay_lower_bound", "delay_upper_bound", "delay_slope_bound",
                 "damping_floor", "damping_monotone",
                 "damping_log_derivative", "delay_weight_ratio",
                 "delay_weight_derivative"]
        sc = piezobeam.load_scenario("certified-decay")
        assert list(piezobeam.validate_assumptions(sc.delay, sc.weights)) \
            == names
        assert main(["check", "--config", "certified-decay"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "assumption checks:"
        assert [line.split(":")[0].strip() for line in lines[1:9]] == names
        assert all(line.endswith(" [pass]") for line in lines[1:9])
        # delta1 = 1 + 0.5 exp(-t/4) reaches delta0 = 1 only in the limit,
        # and the cosine delta2's derivative check is a bound no t reaches
        assert lines[4] == "  damping_floor: margin=0 at t=inf [pass]"
        assert lines[8].endswith(" at t=nan [pass]")
        assert lines[9].startswith("certificate: ")
        assert main(["check", "--config", "undamped"]) == EXIT_INFEASIBLE
        assert ("  damping_floor: margin=-inf at t=0 [FAIL]"
                in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("path,value,message", [
        (("delay",), "rho", "delay must be an object, got 'rho'"),
        (("weights", "delta1"), [1], "delta1 must be an object, got [1]"),
        (("weights", "delta2"), None, "delta2 must be an object, got None"),
        (("delay", "kind"), ..., "delay needs a kind"),
        (("weights", "delta1", "kind"), ..., "delta1 needs a kind"),
        (("delay", "kind"), ["x"], "unknown delay kind ['x']"),
    ], ids=["delay-string", "delta1-list", "delta2-null", "delay-no-kind",
            "delta1-no-kind", "kind-list"])
    def test_section_of_wrong_type_names_it(self, tmp_path, capsys, path,
                                            value, message):
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        section = cfg
        for name in path[:-1]:
            section = section[name]
        if value is ...:
            del section[path[-1]]
        else:
            section[path[-1]] = value
        assert main(["check", "--config", _write_cfg(tmp_path, cfg)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: malformed scenario config: {message}\n"

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_overflowing_alpha1_exits_1(self, tmp_path, capsys, command):
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        cfg["beam"]["gamma"] = 1e200
        argv = [command, "--config", _write_cfg(tmp_path, cfg)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed scenario config: alpha - "
                              "gamma**2 * beta must be > 0 (got -inf)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("patch,max_floats,code,message", [
        ({"beam.length_m": 1e-170}, None, EXIT_VERIFICATION,
         "grid spacing 1e-171 squared is past the float range\n"),
        ({"delay": {"kind": "constant", "value_s": 4e-200, "tau0_s": 4e-200,
                    "tau_bar_s": 4e-200},
          "weights.beta0": 0.3, "numerics.dt_s": 1e-200}, None, EXIT_USAGE,
         "time step 1e-200 squared is outside the float range\n"),
        ({"numerics.horizon_s": 1e6}, 10_000, EXIT_USAGE,
         "the profile table needs "),
        ({"certificate.lambda": -3000.0}, None, EXIT_USAGE,
         "certificate lambda -3000.0 puts the delay kernel weight"),
        ({"numerics.dt_s": 5e-4}, 10_000, EXIT_USAGE,
         "the history ring needs "),
        ({"beam.gamma": 0.0}, None, EXIT_VERIFICATION,
         "multiplier search needs gamma > 0"),
        ({"beam.rho": 1e200}, None, EXIT_VERIFICATION,
         "multiplier inequalities are past the float range"),
        ({"weights.delta1": {"kind": "constant", "value": 1e200}}, None,
         EXIT_VERIFICATION, "multiplier inequalities are past"),
        ({"beam.length_m": 2.5e154, "numerics.n": 3}, None,
         EXIT_VERIFICATION,
         "Poincare constant of length 2.5e+154 is past the float range\n"),
        ({"numerics.dt_s": 0.01, "numerics.horizon_s": 9.99,
          "numerics.output_stride": 1}, 10_000, EXIT_USAGE,
         "the record needs 1000 x 14 floats"),
        ({"initial.amplitude": 1e200}, None, EXIT_USAGE,
         "initial energy inf is not finite\n"),
        ({"delay.tau_bar_s": 0.0}, None, EXIT_VERIFICATION,
         "query t=-0.5 precedes history start "),
        ({"numerics.horizon_s": 1e300, "numerics.dt_s": 1e-10}, None,
         EXIT_USAGE, "time step 1e-10 makes the step count over horizon_s "
         "1e+300 past the float range\n"),
        ({"numerics.cfl_safety": 1e-320}, None, EXIT_USAGE,
         "time step 6.2e-322 makes the step count over horizon_s 0.5 "),
        ({"delay": {"kind": "constant", "value_s": 1e-310, "tau0_s": 1e-310,
                    "tau_bar_s": 1e-310}}, None, EXIT_USAGE,
         "time step 2.5e-311 makes the step count "),
        ({"numerics.cfl_safety": 5e-324}, None, EXIT_USAGE,
         "time step 0.0 makes the step count "),
        # tau swings to 1.1, past tau_bar_s 0.6: step 6's delayed sample
        # falls before the history's first stamp
        ({"delay.amplitude_s": 0.6, "numerics.horizon_s": 5.0}, None,
         EXIT_VERIFICATION, "query t=-0.511131633 precedes history start "
         "-0.49382716; buffer span is too short for the configured delay "
         "(step 6)\n"),
        # E(0) is finite, N times it is not
        ({"initial.amplitude": 1e153}, None, EXIT_USAGE,
         "initial Lyapunov value inf is not finite\n"),
        # delta1 = 1 + 0.5 exp(2000 t) overflows inside the run, which the
        # certificate, on all of t >= 0 and finite, no longer refuses
        ({"weights.delta1.rate_per_s": -2000.0}, None, EXIT_VERIFICATION,
         "delta1 evaluated non-finite at t=0.367647\n"),
    ], ids=["grid-spacing", "dt-squared", "profile-table", "lambda", "ring",
            "gamma", "rho", "delta1", "poincare", "record", "initial-energy",
            "tau-bar-0", "steps-horizon", "steps-cfl", "steps-delay",
            "step-underflow", "delay-past-history", "initial-lyapunov",
            "profile-non-finite"])
    def test_refuses_what_simulate_refuses(self, tmp_path, capsys,
                                           monkeypatch, patch, max_floats,
                                           code, message):
        # check takes run()'s set-up, solver.plan, so it exits as simulate
        # does before its first step, with the same error line and no
        # numpy warning
        if max_floats is not None:
            monkeypatch.setattr(solver, "MAX_RUN_FLOATS", max_floats)
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        for path, value in patch.items():
            *sections, key = path.split(".")
            section = cfg
            for name in sections:
                section = section[name]
            section[key] = value
        path, out = _write_cfg(tmp_path, cfg), str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", path]) == code
            check_out, check_err = capsys.readouterr()
            assert main(["simulate", "--config", path, "--out", out]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert (check_out, check_err) == ("", err)
        assert not os.path.exists(out)

    def test_takes_no_step(self, capsys, monkeypatch):
        assert main(["check", "--config", "certified-decay"]) == EXIT_OK
        expected = capsys.readouterr().out

        def refused(*args, **kwargs):
            raise AssertionError("check took a step")

        for name in ("explicit", "implicit"):
            monkeypatch.setitem(solver.STEPPERS, name, refused)
        assert main(["check", "--config", "certified-decay"]) == EXIT_OK
        assert capsys.readouterr() == (expected, "")


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert os.path.exists(os.path.join(sim_dir, "trajectory.csv"))
        assert os.path.exists(os.path.join(sim_dir, "fields_0.csv"))
        assert os.path.exists(os.path.join(sim_dir, "summary.json"))

    def test_summary_contents(self, sim_dir):
        with open(os.path.join(sim_dir, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "ok"
        assert summary["certificate"]["valid"]
        assert summary["decay_fit"]["H2"] > 0
        assert summary["dissipation"]["n_violations"] == 0
        assert summary["equivalence"]["b1"] > 0

    @pytest.mark.parametrize("preset", ["certified-decay", "undamped"])
    def test_summary_key_tree(self, tmp_path, preset):
        # every key of every block, with its JSON type; an invalid
        # certificate has no multipliers, so no equivalence ratios
        def tree(obj):
            if isinstance(obj, dict):
                return {k: tree(v) for k, v in obj.items()}
            return None if obj is None else type(obj).__name__

        cfg = load_config(preset)
        cfg["numerics"].update(n=11, horizon_s=1.0)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out]) == EXIT_OK
        with open(os.path.join(out, "summary.json")) as fh:
            got = tree(json.load(fh))
        want = {
            "status": "str",
            "certificate": {"xi_bar": "float", "lambda": "float",
                            "C1": "float", "C2": "float", "C3": "float",
                            "C": "float", "valid": "bool",
                            "diagnostics": "list"},
            "multipliers": {"N": "float", "N1": "float", "N2": "float",
                            "N3": "float", "c_prime": "float"},
            "decay_fit": {"H1": "float", "H2": "float", "r_squared": "float",
                          "window": "list"},
            "equivalence": {"b1": "float", "b2": "float"},
            "dissipation": {"n_pairs": "int", "n_violations": "int",
                            "worst_margin": "float", "worst_t": "float",
                            "tolerance": "float", "passed": "bool"},
        }
        if preset == "undamped":
            want.update(multipliers=None, equivalence=None)
        assert got == want

    def test_trajectory_header(self, sim_dir):
        with open(os.path.join(sim_dir, "trajectory.csv")) as fh:
            header = fh.readline().strip()
        assert header == ("t,E,kinetic_v,kinetic_p,elastic,coupling,"
                          "delay_term,K1,K2,K3,L,int_vt2,int_vt2_delayed")

    def test_locale_independent_floats(self, sim_dir):
        with open(os.path.join(sim_dir, "trajectory.csv"), "rb") as fh:
            blob = fh.read()
        assert b";" not in blob
        assert b"\r" not in blob

    def test_zero_initial_data_all_zero_columns(self, tmp_path):
        cfg = _quick_cfg(horizon_s=1.0)
        cfg["initial"]["preset"] = "zero"
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out])
        assert code == EXIT_OK
        data = np.loadtxt(os.path.join(out, "trajectory.csv"),
                          delimiter=",", skiprows=1)
        # every column except t is identically zero
        assert np.all(data[:, 1:] == 0.0)

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, _quick_cfg(horizon_s=2.0))
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert main(["simulate", "--config", cfg_path,
                         "--out", out]) == EXIT_OK
            outs.append(out)
        for name in sorted(os.listdir(outs[0])):
            with open(os.path.join(outs[0], name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(outs[1], name), "rb") as fh:
                second = fh.read()
            assert first == second, name

    def test_overflow_near_float_range_diverges_without_warning(
            self, tmp_path, capsys):
        # L(0) = 5e307 and a step past the CFL bound: the guard's energy
        # overflows at step 7, and the record's L and the equivalence ratio
        # b2 before it; the guard refuses the run, with no numpy warning
        cfg = load_config("certified-decay")
        cfg["initial"]["amplitude"] = 4.755e151
        cfg["numerics"].update(n=51, dt_s=0.1, horizon_s=5.0, output_stride=1)
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                         "--out", out]) == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "divergence: energy blow-up guard tripped during explicit step "
            "(1.295e+304 -> inf); time step too large (step 7)\n")
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "diverged"
        assert summary["equivalence"]["b2"] is None

    def test_slope_bound_1_with_both_overrides_runs_invalid(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["simulate", "--config",
                     _write_cfg(tmp_path, _overridden_cfg(1.0)),
                     "--out", out])
        assert code == EXIT_OK
        with open(os.path.join(out, "summary.json")) as fh:
            cert = json.load(fh)["certificate"]
        assert cert["valid"] is False
        assert "need 0 <= d < 1, got d=1.0" in cert["diagnostics"]

    def test_gamma_zero_exits_3(self, tmp_path, capsys):
        # the multiplier search's v_t inequality divides by gamma mu
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        cfg["beam"]["gamma"] = 0.0
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("error: multiplier search needs gamma > 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("section,key,value,numerics,message", [
        ("beam", "rho", 1e200, {}, "multiplier inequalities are past"),
        ("weights", "delta1", {"kind": "constant", "value": 1e200}, {},
         "multiplier inequalities are past"),
        ("beam", "length_m", 1e200, {}, "grid spacing 9.999999999999999e+198 "
         "squared is past the float range"),
        ("beam", "length_m", 1e200, {"integrator": "implicit"},
         "grid spacing 9.999999999999999e+198 squared is past"),
        ("beam", "length_m", 2.5e154, {"n": 3},
         "Poincare constant of length 2.5e+154 is past the float range"),
    ], ids=["rho", "delta1", "length", "length-implicit", "poincare"])
    def test_overflowing_value_exits_3(self, tmp_path, capsys, section, key,
                                       value, numerics, message):
        # a square past the float range raises OverflowError in Python
        cfg = _quick_cfg(**{"n": 11, "horizon_s": 0.5, **numerics})
        cfg[section][key] = value
        path = _write_cfg(tmp_path, cfg)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    def test_grid_spacing_squared_underflow_exits_3(self, tmp_path, capsys,
                                                    integrator):
        # dx = 1e-171 squares to 0, which the stencils divide by: the run
        # is refused before the first step, with no numpy warning
        cfg = _quick_cfg(n=11, horizon_s=0.5, dt_s=0.01,
                         integrator=integrator)
        cfg["beam"]["length_m"] = 1e-170
        cfg["weights"]["beta0"] = 1.1
        path = _write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        message = (f"error: grid spacing {1e-170 / 10} squared is past the "
                   "float range\n")
        # check refuses it too, before it prints anything
        assert main(["check", "--config", path]) == EXIT_VERIFICATION
        assert capsys.readouterr() == ("", message)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", path,
                         "--out", out]) == EXIT_VERIFICATION
        assert capsys.readouterr().err == message
        assert not os.path.exists(out)

    @pytest.mark.parametrize("integrator", ["explicit", "implicit"])
    @pytest.mark.parametrize("tau,dt,beta0,shown", [
        (1e200, 1e199, 1.1, "1e+199"),
        (1e200, 1e199, 0.3, "1e+199"),
        (4e-200, 1e-200, 0.3, "1e-200"),
    ], ids=["overflow-invalid", "overflow-valid", "underflow"])
    def test_time_step_squared_outside_float_range_exits_1(
            self, tmp_path, capsys, integrator, tau, dt, beta0, shown):
        # the explicit step's 0.5 dt**2 and the implicit rho / dt**2 need a
        # positive finite dt**2; beta0 0.3 keeps the certificate valid, and
        # the run stops before its multiplier search
        cfg = _quick_cfg(n=11, horizon_s=10.0 * dt, dt_s=dt,
                         integrator=integrator)
        cfg["delay"] = {"kind": "constant", "value_s": tau, "tau0_s": tau,
                        "tau_bar_s": tau}
        cfg["weights"]["beta0"] = beta0
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: time step {shown} squared is outside the float range\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dt_s", [None, 0.01], ids=["cfl", "dt_s"])
    @pytest.mark.parametrize("beam,message", [
        ({"rho": 1e-300, "alpha": 1e300},
         "[[inf, -9.999999999999999e+299], [-1.0, 1.0]] are past the float "
         "range"),
        ({"rho": 1e300, "mu": 1e300, "alpha": 1e-300, "beta": 1e-300,
          "gamma": 0.0},
         "[[0.0, -0.0], [-0.0, 0.0]] give no positive wave speed"),
    ], ids=["overflow", "underflow"])
    def test_beam_coefficients_past_float_range_exit_1(
            self, tmp_path, capsys, beam, message, dt_s):
        # alpha/rho is inf, or every coefficient underflows to 0: the beam
        # is malformed, so check and simulate both refuse it as the config
        # loads (exit 1), dt_s or not
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        cfg["beam"].update(beam)
        if dt_s is not None:
            cfg["numerics"]["dt_s"] = dt_s
        path = _write_cfg(tmp_path, cfg)
        out = str(tmp_path / "out")
        for argv in (["check", "--config", path],
                     ["simulate", "--config", path, "--out", out]):
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err == (
                "error: malformed scenario config: beam wave coefficients "
                f"{message}\n")
        assert not os.path.exists(out)

    def test_oversized_profile_table_exits_1(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 10_000)
        code = main(["simulate", "--config",
                     _write_cfg(tmp_path, _quick_cfg(n=11, horizon_s=1e6)),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: the profile table needs ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("path,key", [
        ((), "numeric"), (("beam",), "length"), (("delay",), "tau0"),
        (("delay",), "omega"), (("weights",), "beta_0"),
        (("weights", "delta1"), "rate"), (("weights", "delta2"), "omega"),
        (("initial",), "presets"), (("numerics",), "dt"),
        (("certificate",), "xi"),
    ], ids=["top-level", "beam", "delay", "delay-kind", "weights", "delta1",
            "delta2", "initial", "numerics", "certificate"])
    def test_unknown_key_exits_1(self, tmp_path, capsys, path, key):
        # a misspelt key is refused, not left out: the run would take the
        # default of the key meant
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        section = cfg
        for name in path:
            section = section[name]
        section[key] = {"n": 11} if not path else 0.5
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out])
        assert code == EXIT_USAGE
        name = path[-1] if path else "top-level"
        err = capsys.readouterr().err
        assert f"unknown {name} key {key!r}" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("tau0", [0.0, -0.1])
    def test_nonpositive_tau0_exits_1(self, tmp_path, capsys, monkeypatch,
                                      tau0):
        # the step is clamped to tau0 / 4, so no step is > 0; the run stops
        # before it allocates its profile table
        def refused(*args):
            raise AssertionError("profile table built")

        monkeypatch.setattr(solver, "profile_table", refused)
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        cfg["delay"] = {"kind": "constant", "value_s": 0.5, "tau0_s": tau0,
                        "tau_bar_s": 0.6}
        path, out = _write_cfg(tmp_path, cfg), str(tmp_path / "out")
        assert main(["simulate", "--config", path, "--out", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("error: delay tau0_s must be > 0 to simulate, "
                       f"got {tau0}\n")
        assert not os.path.exists(out)
        # check refuses it as simulate does, before it prints anything
        assert main(["check", "--config", path]) == EXIT_USAGE
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("lam,code", [(-3000.0, EXIT_USAGE),
                                          (-1.0, EXIT_OK)])
    def test_overflowing_lambda_exits_1(self, tmp_path, capsys, lam, code):
        # exp(-lambda tau) over tau up to ~0.58 passes the float range at
        # lambda = -3000, where the delay kernel would raise OverflowError
        cfg = _quick_cfg(n=11, horizon_s=0.5)
        cfg["certificate"]["lambda"] = lam
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == EXIT_USAGE:
            assert err.startswith("error: certificate lambda -3000.0 puts")
            assert not os.path.exists(out)

    @pytest.mark.parametrize("case", ["invalid certificate", "horizon 0"])
    def test_summary_is_strict_json(self, tmp_path, case):
        # non-finite numbers are written as null, never as bare NaN or
        # Infinity; report reads the nulls and fails as before
        if case == "horizon 0":
            cfg = _quick_cfg(n=11, horizon_s=0.0)
        else:
            cfg = _overridden_cfg(1.0)
            cfg["numerics"].update({"n": 11, "horizon_s": 0.5})
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out]) == EXIT_OK

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=reject)
        if case == "horizon 0":
            assert summary["dissipation"]["worst_margin"] is None
            assert summary["dissipation"]["worst_t"] is None
        else:
            assert summary["certificate"]["valid"] is False
            assert summary["certificate"]["C"] is None
        assert main(["report", "--dir", out]) == EXIT_VERIFICATION

    @pytest.mark.parametrize("dt_s", [None, 0.1], ids=["ok", "diverged"])
    def test_out_over_a_file_exits_1(self, tmp_path, capsys, dt_s):
        out = tmp_path / "out"
        out.write_text("kept\n")
        cfg = _quick_cfg(n=51, horizon_s=5.0, dt_s=dt_s)
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: File exists\n"
        assert out.read_text() == "kept\n"

    def test_divergent_run_exits_4_with_partial_output(self, tmp_path):
        # force an unstable explicit step with a huge dt override
        cfg = _quick_cfg(horizon_s=5.0)
        cfg["numerics"]["dt_s"] = 0.1
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out])
        assert code == EXIT_DIVERGED
        assert os.path.exists(os.path.join(out, "summary.json"))
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["status"] == "diverged"

    @pytest.mark.parametrize("tau_bar", [0.0, -1.0])
    def test_nonpositive_tau_bar_underruns_exits_3(self, tmp_path, capsys,
                                                   tau_bar):
        # no history before t = 0 serves the delay tau(t) ~ 0.5
        cfg = _quick_cfg(horizon_s=0.1)
        cfg["delay"]["tau_bar_s"] = tau_bar
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert err.startswith("error: query t=") and "Traceback" not in err

    def test_negative_implicit_diagonal_exits_4(self, tmp_path, capsys):
        # implicit-fine numerics on a coarse grid; delta1 < -rho/dt
        cfg = load_config("certified-decay")
        cfg["numerics"].update({"integrator": "implicit", "n": 51,
                                "dt_s": 0.005, "horizon_s": 0.1,
                                "output_stride": 10, "field_stride": 10**6})
        cfg["weights"]["delta1"]["floor"] = -1000.0
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", _write_cfg(tmp_path, cfg),
                     "--out", out])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "rho/dt^2 + delta1/dt > 0" in err and "(step 1)" in err
        assert "Traceback" not in err
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["status"] == "diverged"


class TestSweepCommand:
    def test_2x2_table_and_rerun(self, tmp_path):
        base = load_config("certified-decay")
        base["weights"]["delta2"]["ratio"] = 0.1
        sweep_cfg = {
            "base": base,
            "axes": [
                {"path": "weights.beta0", "values": [0.2, 0.95]},
                {"path": "weights.delta0", "values": [0.5, 1.0]},
            ],
            "n": 51, "horizon_s": 4.0,
        }
        cfg_path = _write_cfg(tmp_path, sweep_cfg, "sweep.json")
        out1 = str(tmp_path / "sweep1.csv")
        out2 = str(tmp_path / "sweep2.csv")
        assert main(["sweep", "--config", cfg_path, "--out", out1]) == EXIT_OK
        assert main(["sweep", "--config", cfg_path, "--out", out2]) == EXIT_OK
        with open(out1) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("weights.beta0,weights.delta0,valid,status")
        assert len(lines) == 5  # header + 4 data rows
        statuses = [line.split(",")[3] for line in lines[1:]]
        assert statuses == ["ok", "ok", "infeasible", "infeasible"]
        with open(out1, "rb") as fh1, open(out2, "rb") as fh2:
            assert fh1.read() == fh2.read()

    def test_workers_config_key_ignored(self, tmp_path):
        # a sweep config's top level is not checked: "workers" changes nothing
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.2, 0.3]}],
                     "n": 11, "horizon_s": 0.5}
        blobs = []
        for i, extra in enumerate(({}, {"workers": 2.5})):
            cfg_path = _write_cfg(tmp_path, {**sweep_cfg, **extra},
                                  f"sweep{i}.json")
            out = str(tmp_path / f"sweep{i}.csv")
            assert main(["sweep", "--config", cfg_path, "--out",
                         out]) == EXIT_OK
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("case", ["no axes", "no base", "bad path",
                                      "int path", "string values",
                                      "object values"])
    def test_bad_spec_exits_1(self, tmp_path, capsys, case):
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.3]}],
                     "n": 11, "horizon_s": 0.5}
        axis = sweep_cfg["axes"][0]
        if case == "no axes":
            sweep_cfg["axes"] = []
        elif case == "no base":
            del sweep_cfg["base"]
        elif case == "bad path":
            axis["path"] = "weights.nonexistent"
        elif case == "int path":
            axis["path"] = 5
        elif case == "string values":
            axis["values"] = "0.3"
        else:
            axis["values"] = {"0.3": 1}
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_slope_bound_from_1_with_both_overrides_is_infeasible_row(
            self, tmp_path):
        sweep_cfg = {"base": _overridden_cfg(0.19),
                     "axes": [{"path": "delay.slope_bound",
                               "values": [0.5, 1.5]}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["ok", "infeasible"]
        assert "need 0 <= d < 1, got d=1.5" in rows[1][-1].split(";")

    def test_gamma_zero_is_error_row(self, tmp_path):
        sweep_cfg = {"base": _quick_cfg(),
                     "axes": [{"path": "beam.gamma", "values": [0.0, 1.0]}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["error", "ok"]
        assert rows[0][-1].startswith("multiplier search needs gamma > 0")

    def test_overflowing_rho_is_error_row(self, tmp_path):
        sweep_cfg = {"base": _quick_cfg(),
                     "axes": [{"path": "beam.rho", "values": [1.0, 1e200]}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1:3] for row in rows] == [["true", "ok"],
                                              ["true", "error"]]
        assert rows[1][-1].startswith("multiplier inequalities are past")

    def test_overflowing_beam_coefficient_is_infeasible_row(self, tmp_path):
        # alpha 1e300: at rho 1 the CFL step is too short for a table, an
        # error row; at rho 1e-300 alpha/rho is inf, a malformed beam, so
        # the point is infeasible
        base = _quick_cfg()
        base["beam"]["alpha"] = 1e300
        sweep_cfg = {"base": base,
                     "axes": [{"path": "beam.rho", "values": [1.0, 1e-300]}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1:3] for row in rows] == [["true", "error"],
                                              ["false", "infeasible"]]
        assert rows[0][-1].startswith("the profile table needs ")
        assert rows[1][-1] == ("malformed scenario config: beam wave "
                               "coefficients [[inf, -9.999999999999999e+299], "
                               "[-1.0, 1.0]] are past the float range")

    def test_oversized_history_is_error_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "MAX_RUN_FLOATS", 10_000)
        delays = [{"kind": "constant", "value_s": tau, "tau0_s": tau,
                   "tau_bar_s": tau} for tau in (0.5, 100.0)]
        sweep_cfg = {"base": _quick_cfg(),
                     "axes": [{"path": "delay", "values": delays}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["ok", "error"]
        assert rows[1][-1].startswith("the history ring needs ")

    @pytest.mark.parametrize("path,values,reason", [
        ("delay.tau_bar_s", [0.6, 0.0], "need tau_bar > 0, got 0.0"),
        ("certificate.lambda", [0.5, -2000.0],
         "dissipation_constant_C3_nonpositive")])
    def test_nonpositive_tau_bar_or_lambda_is_infeasible_row(
            self, tmp_path, path, values, reason):
        sweep_cfg = {"base": _quick_cfg(),
                     "axes": [{"path": path, "values": values}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["ok", "infeasible"]
        assert reason in rows[1][-1].split(";")

    @pytest.mark.parametrize("key, value", [
        ("n", 50.5), ("n", True), ("n", 2), ("horizon_s", "abc"),
        ("horizon_s", -1)])
    def test_bad_sweep_n_or_horizon_exits_1(self, tmp_path, capsys, key,
                                            value):
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.3]}],
                     "n": 11, "horizon_s": 0.5, key: value}
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "error: sweep n / horizon_s:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_in_missing_dir_exits_1(self, tmp_path, capsys):
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.3]}],
                     "n": 11, "horizon_s": 0.5}
        out = tmp_path / "missing" / "sweep.csv"
        code = main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {out}: "
                                "No such file or directory\n")
        assert not out.parent.exists()

    def test_non_number_axis_values_written_as_json(self, tmp_path):
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0",
                               "values": [0.3, "abc", None]}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["0.29999999999999999", '"abc"',
                                            "null"]
        assert [row[2] for row in rows].count("infeasible") == 2

    def test_cells_with_commas_and_quotes_are_csv_quoted(self, tmp_path):
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0",
                               "values": [0.3, "abc", None, [1, 2]]}],
                     "n": 11, "horizon_s": 0.5}
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", out]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 7 for row in rows)
        assert [json.loads(row[0]) for row in rows[2:]] == ["abc", None,
                                                            [1, 2]]


class TestReport:
    def test_certified_dir_passes(self, sim_dir, capsys):
        assert main(["report", "--dir", sim_dir]) == EXIT_OK
        out = capsys.readouterr().out
        assert "decay: CERTIFIED" in out
        assert "PASS" in out

    def test_empty_dir_exits_1(self, tmp_path):
        assert main(["report", "--dir", str(tmp_path)]) == EXIT_USAGE

    def test_diverged_dir_exits_3(self, tmp_path):
        cfg = _quick_cfg(horizon_s=5.0)
        cfg["numerics"]["dt_s"] = 0.1
        out = str(tmp_path / "out")
        main(["simulate", "--config", _write_cfg(tmp_path, cfg), "--out", out])
        assert main(["report", "--dir", out]) == EXIT_VERIFICATION

    def test_single_record_fails_dissipation(self, tmp_path, capsys):
        # one record makes no pair: the dissipation check has checked nothing
        out = str(tmp_path / "out")
        assert main(["simulate", "--config",
                     _write_cfg(tmp_path, _quick_cfg(n=11, horizon_s=0.0)),
                     "--out", out]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--dir", out]) == EXIT_VERIFICATION
        assert ("dissipation: FAILED (0 pairs)"
                in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("text", [
        "{not json", "[]",
        '{"certificate": {"valid": true}, "decay_fit": {"r_squared": 1}}',
    ], ids=["not json", "list", "no H2"])
    def test_malformed_summary_exits_1(self, tmp_path, capsys, text):
        (tmp_path / "summary.json").write_text(text)
        (tmp_path / "trajectory.csv").write_text("")
        assert main(["report", "--dir", str(tmp_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: cannot read {tmp_path / 'summary.json'}: ")


@pytest.fixture(scope="module")
def lazy_import_inputs(tmp_path_factory, sim_dir):
    """Configs for short explicit and implicit runs and a 2-point sweep, and
    the certified simulate output directory for report."""
    tmp = tmp_path_factory.mktemp("lazy")
    explicit = _quick_cfg(n=11, horizon_s=0.1)
    implicit = _quick_cfg(n=11, horizon_s=0.1, integrator="implicit")
    sweep_cfg = {"base": _quick_cfg(),
                 "axes": [{"path": "weights.beta0", "values": [0.3, 0.5]}],
                 "n": 11, "horizon_s": 0.1}
    return {"explicit": _write_cfg(tmp, explicit, "explicit.json"),
            "implicit": _write_cfg(tmp, implicit, "implicit.json"),
            "sweep": _write_cfg(tmp, sweep_cfg, "sweep.json"),
            "out": str(tmp / "out"), "csv": str(tmp / "sweep.csv"),
            "report": sim_dir}


LAZY_MODULES = ("scipy", "scipy.linalg", "concurrent.futures.process")


@pytest.mark.parametrize("argv,loaded", [
    (["check", "--config", "certified-decay"], ()),
    (["simulate", "--config", "{explicit}", "--out", "{out}"], ()),
    (["sweep", "--config", "{sweep}", "--out", "{csv}"], ()),
    (["report", "--dir", "{report}"], ()),
    (["simulate", "--config", "{implicit}", "--out", "{out}"], ("scipy",)),
], ids=["check", "explicit-simulate", "serial-sweep", "report",
        "implicit-simulate"])
def test_scipy_and_process_pool_load_only_when_used(lazy_import_inputs, argv,
                                                    loaded):
    # a fresh interpreter: this one has scipy loaded by the test modules
    argv = [a.format(**lazy_import_inputs) for a in argv]
    script = ("import json, sys\n"
              "from piezobeam.cli import main\n"
              "rc = main(json.loads(sys.argv[1]))\n"
              f"print(json.dumps([rc, [m in sys.modules for m in "
              f"{list(LAZY_MODULES)!r}]]))\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(piezobeam.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    rc, present = json.loads(proc.stdout.splitlines()[-1])
    assert rc == EXIT_OK
    assert dict(zip(LAZY_MODULES, present)) == {
        name: name in loaded for name in LAZY_MODULES}


class TestUsage:
    def test_no_command_exits_1(self):
        assert main([]) == EXIT_USAGE

    def test_seedless_flag_accepted(self):
        # the flag did nothing (the engine has no randomness) and is gone
        assert main(["--seedless", "check", "--config",
                     "certified-decay"]) == EXIT_USAGE

    def test_seedless_with_value_rejected(self):
        assert main(["--seedless=true", "check", "--config",
                     "certified-decay"]) == EXIT_USAGE

    def test_threads_flag_rejected(self, tmp_path, capsys):
        # every sweep point runs in this process; the flag chose a pool
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.3]}],
                     "n": 11, "horizon_s": 0.5}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", str(out), "--threads", "2"]) == EXIT_USAGE
        assert ("unrecognized arguments: --threads 2"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "simulate", "sweep"])
    @pytest.mark.parametrize("config", ["directory", "not utf-8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, command,
                                       config):
        path = tmp_path / "cfg.json"
        if config == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\x00")
        argv = [command, "--config", str(path)]
        if command != "check":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config {path}: ")
        assert captured.err.count("\n") == 1
        assert not os.path.exists(tmp_path / "out")
