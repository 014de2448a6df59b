import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import read_results_csv
import nysmmd
from nysmmd import ExperimentSpec, TestConfig, bench, cli, load_csv, write_csv
from nysmmd.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_correlated_gaussian_file(self, tmp_path, capsys):
        out = tmp_path / "sample.csv"
        code, _, _ = run_cli(capsys, "gen", "--family", "correlated-gaussian",
                             "--n", "40", "--dim", "3", "--rho", "0.5",
                             "--seed", "1", "--output", str(out))
        assert code == 0
        points = load_csv(out)
        assert points.shape == (40, 3)

    def test_gen_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            run_cli(capsys, "gen", "--family", "correlated-gaussian", "--n",
                    "25", "--seed", "9", "--output", str(path))
        assert first.read_text() == second.read_text()

    def test_gen_bytes_are_pinned(self, tmp_path, capsys):
        # repr cells and \r\n line ends, as csv.writer wrote them
        out = tmp_path / "pinned.csv"
        code, _, _ = run_cli(capsys, "gen", "--family", "correlated-gaussian",
                             "--n", "1000", "--dim", "3", "--rho", "0.5",
                             "--seed", "11", "--output", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c569999691eadf8f0ff64208263483181eddc5ecdc99906709304ca2a096bb0f")

    def test_mixture_needs_pools(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "mixture", "--n",
                               "10", "--output", str(tmp_path / "m.csv"))
        assert code == 2
        assert "background" in err

    def test_mixture_generation(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        bg, sig = tmp_path / "bg.csv", tmp_path / "sig.csv"
        write_csv(rng.standard_normal((300, 2)), bg)
        write_csv(rng.standard_normal((300, 2)) + 4.0, sig)
        out = tmp_path / "mix.csv"
        code, _, _ = run_cli(capsys, "gen", "--family", "mixture",
                             "--background", str(bg), "--signal", str(sig),
                             "--mix-fraction", "0.3", "--n", "100",
                             "--seed", "2", "--output", str(out))
        assert code == 0
        assert load_csv(out).shape == (100, 2)

    def test_negative_seed_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "sample.csv"
        code, _, err = run_cli(capsys, "gen", "--family", "correlated-gaussian",
                               "--n", "10", "--seed", "-1", "--output", str(out))
        assert code == 1
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


class TestTestCommand:
    @pytest.fixture
    def csv_pair(self, tmp_path):
        rng = np.random.default_rng(3)
        x_path = tmp_path / "x.csv"
        y_path = tmp_path / "y.csv"
        write_csv(rng.standard_normal((80, 3)), x_path)
        write_csv(rng.standard_normal((80, 3)) + 2.0, y_path)
        return x_path, y_path

    def test_identical_files_usually_retain_null(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = tmp_path / "same.csv"
        write_csv(rng.standard_normal((60, 2)), path)
        code, out, _ = run_cli(capsys, "test", "--x", str(path), "--y",
                               str(path), "--alpha", "0.05", "--permutations",
                               "199", "--method", "nystrom-uniform",
                               "--landmarks", "16", "--seed", "7")
        payload = json.loads(out)
        assert payload["statistic"] == pytest.approx(0.0, abs=1e-12)
        assert code in (0, 3)
        assert payload["reject"] == (code == 3)
        if payload["reject"]:
            assert payload["randomized"]

    def test_null_test_reports_the_permutations_it_ran(self, tmp_path, capsys):
        # identical files: the observed statistic is round-off, so the test
        # stops after its first batch of ceil(199 / 5) = 40 permutations
        rng = np.random.default_rng(4)
        path = tmp_path / "same.csv"
        write_csv(rng.standard_normal((60, 2)), path)
        code, out, _ = run_cli(capsys, "test", "--x", str(path), "--y", str(path),
                               "--seed", "7")
        assert code == 0

        def refuse(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["permutations"] == 199
        assert payload["permutations_run"] == 40
        assert payload["randomized"] is False

    def test_shifted_files_reject_with_exit_three(self, csv_pair, capsys):
        x_path, y_path = csv_pair
        code, out, _ = run_cli(capsys, "test", "--x", str(x_path), "--y",
                               str(y_path), "--seed", "1")
        payload = json.loads(out)
        assert code == 3
        assert payload["reject"] is True
        assert payload["n_x"] == 80
        defaults = TestConfig()
        assert (payload["alpha"], payload["permutations"], payload["seed"]) == (
            defaults.alpha, defaults.n_permutations, 1)

    def test_method_choices_run(self, csv_pair, capsys):
        x_path, y_path = csv_pair
        for method in ("exact", "rff", "nystrom-akrls"):
            code, out, _ = run_cli(capsys, "test", "--x", str(x_path), "--y",
                                   str(y_path), "--method", method,
                                   "--landmarks", "8", "--seed", "0")
            assert code == 3
            assert json.loads(out)["reject"] is True

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "test", "--x",
                               str(tmp_path / "absent.csv"), "--y",
                               str(tmp_path / "absent.csv"))
        assert code == 1
        assert "error" in err

    def test_negative_seed_is_runtime_error(self, csv_pair, capsys):
        x_path, y_path = csv_pair
        code, out, err = run_cli(capsys, "test", "--x", str(x_path), "--y",
                                 str(y_path), "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "test", "--x")  # missing value
        assert code == 2

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2
        code, _, _ = run_cli(capsys, "bench")
        assert code == 2


class TestWarningsAsErrors:
    """Under python -W error a warning is reported as one error line, exit 1."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-W", "error", "-m", "nysmmd.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=300)

    def check_small_alpha_error(self, result):
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: alpha=0.05 is below 1/(P+1)=0.1;")
        assert result.stderr.count("\n") == 1

    def test_small_alpha_test_command(self, tmp_path):
        rng = np.random.default_rng(12)
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(rng.standard_normal((30, 2)), x_path)
        write_csv(rng.standard_normal((30, 2)), y_path)
        self.check_small_alpha_error(self.run_module(
            "test", "--x", str(x_path), "--y", str(y_path), "--permutations", "9"))

    def test_small_alpha_level_command(self):
        self.check_small_alpha_error(self.run_module(
            "level", "--permutations", "9", "--repetitions", "2",
            "--sample-sizes", "20"))


class TestGridCommands:
    def test_level_with_spec_file(self, tmp_path, capsys):
        spec = {"scenario": {"kind": "correlated-gaussian", "dim": 3,
                             "rho1": 0.5, "rho2": 0.5},
                "methods": ["nystrom-uniform"], "landmarks": [8],
                "sample_sizes": [30], "alpha": 0.1, "permutations": 19,
                "repetitions": 20, "seed": 0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp_path / "level.csv"
        code, _, _ = run_cli(capsys, "level", "--spec", str(spec_path),
                             "--output", str(out_path))
        assert code == 0
        rows = read_results_csv(out_path.read_text())
        assert len(rows) == 1
        assert int(rows[0]["reps"]) == 20

    def test_spec_missing_keys_is_runtime_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"scenario": {"kind": "csv"}}))
        code, _, err = run_cli(capsys, "level", "--spec", str(spec_path))
        assert code == 1
        assert err.startswith("error: ")
        assert "['methods', 'sample_sizes']" in err

    @pytest.mark.parametrize("key,value", [
        ("landmarks", 8),
        ("sample_sizes", 500),
        ("methods", "nystrom-uniform"),
        ("landmarks", [None]),
        ("methods", [["rff"]]),
        ("scenario", 5),
        ("alpha", None),
        ("permutations", None),
        ("repetitions", True),
        ("seed", "0"),
        ("permutations", float("inf")),
        ("output", 5),
        pytest.param("seed", 10**400, id="seed-int-beyond-float"),
        pytest.param("sample_sizes", [10**400], id="sample_sizes-int-beyond-float"),
        pytest.param("alpha", float("nan"), id="alpha-nan"),
    ])
    def test_spec_scalar_grid_is_runtime_error(self, tmp_path, capsys, key, value):
        spec = {"scenario": {"kind": "correlated-gaussian"},
                "methods": ["nystrom-uniform"], "landmarks": [8],
                "sample_sizes": [20], "permutations": 9, "repetitions": 2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec, key: value}))
        code, _, err = run_cli(capsys, "level", "--spec", str(spec_path))
        assert code == 1
        assert err.startswith("error: ")
        expected = {"methods": "a JSON list", "landmarks": "a JSON list",
                    "sample_sizes": "a JSON list", "scenario": "a JSON object",
                    "output": "a string or null"}.get(key, "a finite number")
        assert f"spec key {key!r} must be {expected}" in err

    @pytest.mark.parametrize("source", ["spec", "flag"])
    def test_negative_seed_is_runtime_error(self, tmp_path, capsys, source):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenario": {"kind": "correlated-gaussian"},
            "methods": ["nystrom-uniform"], "landmarks": [8],
            "sample_sizes": [20], "permutations": 9, "repetitions": 2, "seed": -1}))
        arguments = (("--spec", str(spec_path)) if source == "spec" else
                     ("--sample-sizes", "20", "--landmarks", "8", "--permutations",
                      "9", "--repetitions", "2", "--seed", "-1"))
        for command in ("level", "power"):
            code, out, err = run_cli(capsys, command, *arguments)
            assert code == 1
            assert out == ""
            assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_spec_must_be_object(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("5")
        code, _, err = run_cli(capsys, "level", "--spec", str(spec_path))
        assert code == 1
        assert err.startswith("error: spec must be a JSON object")

    @pytest.mark.parametrize("scenario,missing", [
        ({"kind": "csv", "y": "y.csv"}, "['x']"),
        ({"kind": "csv", "x": "x.csv"}, "['y']"),
        ({"kind": "csv"}, "['x', 'y']"),
        ({"kind": "mixture", "signal": "s.csv"}, "['background']"),
        ({"kind": "mixture", "background": "b.csv"}, "['signal']"),
    ])
    def test_scenario_missing_keys_is_runtime_error(self, tmp_path, capsys,
                                                     scenario, missing):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenario": scenario, "methods": ["nystrom-uniform"],
            "landmarks": [2], "sample_sizes": [5]}))
        for command in ("level", "power"):
            code, _, err = run_cli(capsys, command, "--spec", str(spec_path))
            assert code == 1
            assert err.startswith("error: ")
            assert f"missing required keys {missing}" in err

    @pytest.mark.parametrize("kind,key,value,expected", [
        ("correlated-gaussian", "dim", None, "a finite number"),
        ("correlated-gaussian", "rho1", "0.5", "a finite number"),
        ("correlated-gaussian", "rho2", [0.5, None], "a finite number or"),
        ("mixture", "mix_fraction", [], "a finite number or"),
        ("csv", "has_header", "yes", "true or false"),
        ("csv", "x", 5, "a string"),
        ("csv", "y", None, "a string"),
        ("mixture", "background", 5, "a string"),
        ("mixture", "signal", ["s.csv"], "a string"),
        ("correlated-gaussian", "dim", 2.7, "a finite number without a fractional"),
        *(pytest.param(kind, key, 10**400, "a finite number",
                       id=f"{kind}-{key}-int-beyond-float")
          for kind, key in (("correlated-gaussian", "dim"),
                            ("correlated-gaussian", "rho1"),
                            ("correlated-gaussian", "rho2"),
                            ("mixture", "mix_fraction"))),
    ])
    def test_scenario_value_type_is_runtime_error(self, tmp_path, capsys, kind,
                                                  key, value, expected):
        scenario = {"kind": kind, "x": "x.csv", "y": "y.csv",
                    "background": "b.csv", "signal": "s.csv"}
        if kind == "correlated-gaussian":
            scenario = {"kind": kind}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenario": {**scenario, key: value}, "methods": ["nystrom-uniform"],
            "landmarks": [2], "sample_sizes": [5]}))
        for command in ("level", "power"):
            code, _, err = run_cli(capsys, command, "--spec", str(spec_path))
            assert code == 1
            assert err.startswith(f"error: scenario key {key!r} must be {expected}")

    def test_partial_grid_failure_exits_four(self, tmp_path, capsys):
        pool_path = tmp_path / "pool.csv"
        write_csv(np.zeros((10, 2)) + np.arange(10)[:, None], pool_path)
        spec = {"scenario": {"kind": "csv", "x": str(pool_path),
                             "y": str(pool_path)},
                "methods": ["nystrom-uniform"], "landmarks": [2],
                "sample_sizes": [3, 50], "alpha": 0.1, "permutations": 9,
                "repetitions": 5, "seed": 0}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "level", "--spec", str(spec_path))
        assert code == 4
        assert "n=50" in err and "ValueError: pool of 10 rows too small" in err
        rows = read_results_csv(out)
        assert [int(row["n_x"]) for row in rows] == [3]
        spec_path.write_text(json.dumps({**spec, "sample_sizes": [50]}))
        code, _, _ = run_cli(capsys, "level", "--spec", str(spec_path))
        assert code == 1

    def test_power_with_flags_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "power.csv"
        code, _, _ = run_cli(capsys, "power", "--rho1", "0.0", "--rho2", "0.6",
                             "--methods", "nystrom-uniform",
                             "--landmarks", "8", "--sample-sizes", "100",
                             "--permutations", "19", "--repetitions", "25",
                             "--seed", "3", "--output", str(out_path))
        assert code == 0
        rows = read_results_csv(out_path.read_text())
        assert float(rows[0]["param"]) == 0.6
        assert int(rows[0]["reps"]) == 25

    def test_power_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--rho2", "0.66",
                               "--methods", "nystrom-uniform", "--landmarks",
                               "4", "--sample-sizes", "40", "--alpha", "0.2",
                               "--permutations", "9", "--repetitions", "5",
                               "--seed", "0")
        assert code == 0
        assert out.splitlines()[0].startswith("method,ell,n_x,n_y,param")


class TestGridFlags:
    """A level or power grid is built by ExperimentSpec.from_dict alone."""

    @staticmethod
    def captured_spec(monkeypatch, capsys, *argv):
        specs = []
        monkeypatch.setattr(bench, "estimate_rate",
                            lambda spec, regime: specs.append(spec) or [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("method,ell,n_x,n_y,param")
        (spec,) = specs
        return spec

    @pytest.mark.parametrize("command", ["level", "power"])
    def test_bare_command_runs_the_base_grid(self, monkeypatch, capsys, command):
        spec = self.captured_spec(monkeypatch, capsys, command)
        scenario = bench._Scenario(spec.scenario)
        assert scenario.kind == "correlated-gaussian"
        assert (scenario.dim, scenario.rho1, scenario.rho2_grid) == (3, 0.5, (0.63,))
        assert spec.methods == ("nystrom-uniform",)
        assert spec.landmarks == (32,)
        assert spec.sample_sizes == (500,)
        assert (spec.alpha, spec.permutations, spec.repetitions, spec.seed,
                spec.output) == (0.05, 199, 100, 0, None)

    def test_flags_given_with_spec_replace_its_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenario": {"kind": "correlated-gaussian", "rho2": 0.5},
            "methods": ["nystrom-uniform"], "landmarks": [8],
            "sample_sizes": [50], "alpha": 0.1, "permutations": 19,
            "repetitions": 2}))
        code, out, _ = run_cli(capsys, "level", "--spec", str(spec_path),
                               "--repetitions", "3", "--methods", "rff",
                               "--sample-sizes", "30")
        assert code == 0
        rows = read_results_csv(out)
        assert [(row["method"], row["n_x"], row["reps"]) for row in rows] == [
            ("rff", "30", "3")]

    def test_scenario_flag_over_csv_spec_is_runtime_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenario": {"kind": "csv", "x": "x.csv", "y": "y.csv"},
            "methods": ["nystrom-uniform"], "landmarks": [2], "sample_sizes": [5]}))
        code, out, err = run_cli(capsys, "power", "--spec", str(spec_path),
                                 "--rho2", "0.7")
        assert code == 1
        assert out == ""
        assert err.startswith("error: csv scenario does not read keys ['rho2']")

    def test_value_failing_every_cell_reported_once(self, capsys):
        code, out, err = run_cli(capsys, "level", "--permutations", "0",
                                 "--landmarks", "4,8", "--sample-sizes", "20,30")
        assert code == 1
        assert out == ""
        assert err == "error: n_permutations must be at least 1\n"

    @pytest.mark.parametrize("argv,message", [
        (("level", "--sample-sizes", "0,-3"), "sample_sizes must be at least 1, got -3"),
        (("power", "--rho2", "1.5", "--sample-sizes", "20,30"),
         "rho=1.5 outside the positive-definite range (-0.5, 1) for d=3"),
        (("power", "--dim", "0"), "dim must be at least 1"),
    ])
    def test_size_or_scenario_failing_every_cell_reported_once(self, capsys, argv,
                                                               message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag,value", [
        ("--sample-sizes", "2x"),
        ("--landmarks", "4,,8"),
        ("--sample-sizes", "20;30"),
    ])
    def test_malformed_list_flag_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "level", flag, value)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: not a list of numbers: {value!r}" in err

    def test_fractional_landmarks_flag_is_runtime_error(self, capsys):
        code, out, err = run_cli(capsys, "level", "--landmarks", "3.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: spec key 'landmarks' must be a JSON list")

    def test_every_option_is_a_spec_key_without_default(self):
        """A flag that is no spec key, or has a default, would bypass from_dict."""
        (commands,) = [action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        spec_keys = {field.name for field in fields(ExperimentSpec)}
        scenario_keys = set(bench._SCENARIO_KEYS["correlated-gaussian"])
        for command in ("level", "power"):
            options = [action for action in commands[command]._actions
                       if not isinstance(action, argparse._HelpAction)]
            assert {action.dest for action in options} <= spec_keys | scenario_keys | {
                "spec"}
            assert all(action.default is argparse.SUPPRESS for action in options)
        config_options = [action for action in commands["test"]._actions
                          if action.dest in {field.name for field in fields(TestConfig)}]
        assert len(config_options) == 4
        assert all(action.default is argparse.SUPPRESS for action in config_options)
