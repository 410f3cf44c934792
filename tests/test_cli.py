"""Exit codes, file outputs, and byte-level determinism of the command line."""

import csv
import json
import os

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

    @pytest.mark.parametrize("section,key,value,reason", [
        ("delay", "tau_bar_s", 0.0, "need tau_bar > 0, got 0.0"),
        ("certificate", "lambda", -2000.0,
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

    def test_threads_set_workers_and_config_key_ignored(self, tmp_path):
        # a "workers" key is an unknown key now; --threads sets the pool size
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.2, 0.3]}],
                     "n": 11, "horizon_s": 0.5, "workers": 2.5}
        cfg_path = _write_cfg(tmp_path, sweep_cfg, "sweep.json")
        blobs = []
        for i, threads in enumerate(([], ["--threads", "2"])):
            out = str(tmp_path / f"sweep{i}.csv")
            assert main(["sweep", "--config", cfg_path, "--out", out,
                         *threads]) == EXIT_OK
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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_1_exits_1(self, tmp_path, capsys, threads):
        sweep_cfg = {"base": load_config("certified-decay"),
                     "axes": [{"path": "weights.beta0", "values": [0.3]}],
                     "n": 11, "horizon_s": 0.5}
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config",
                     _write_cfg(tmp_path, sweep_cfg, "sweep.json"),
                     "--out", str(out), "--threads", threads])
        assert code == EXIT_USAGE
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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


class TestUsage:
    def test_no_command_exits_1(self):
        assert main([]) == EXIT_USAGE

    def test_seedless_flag_accepted(self):
        assert main(["--seedless", "check", "--config",
                     "certified-decay"]) == EXIT_OK

    def test_seedless_with_value_rejected(self):
        assert main(["--seedless=true", "check", "--config",
                     "certified-decay"]) == EXIT_USAGE
