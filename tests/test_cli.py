import json

import numpy as np
import pytest

from nysmmd import ExperimentSpec, load_csv, parse_results_csv, write_csv
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

    def test_shifted_files_reject_with_exit_three(self, csv_pair, capsys):
        x_path, y_path = csv_pair
        code, out, _ = run_cli(capsys, "test", "--x", str(x_path), "--y",
                               str(y_path), "--seed", "1")
        payload = json.loads(out)
        assert code == 3
        assert payload["reject"] is True
        assert payload["n_x"] == 80

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

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "test", "--x")  # missing value
        assert code == 2

    def test_unknown_command_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2


class TestGridCommands:
    def test_level_with_spec_file(self, tmp_path, capsys):
        spec = ExperimentSpec(
            scenario={"kind": "correlated-gaussian", "dim": 3, "rho1": 0.5,
                      "rho2": 0.5},
            methods=("nystrom-uniform",), landmarks=(8,), sample_sizes=(30,),
            alpha=0.1, permutations=19, repetitions=20, seed=0)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        out_path = tmp_path / "level.csv"
        code, _, _ = run_cli(capsys, "level", "--spec", str(spec_path),
                             "--output", str(out_path))
        assert code == 0
        rows = parse_results_csv(out_path.read_text())
        assert len(rows) == 1
        assert rows[0].trials == 20

    def test_spec_missing_keys_is_runtime_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"scenario": {"kind": "csv"}}))
        code, _, err = run_cli(capsys, "level", "--spec", str(spec_path))
        assert code == 1
        assert err.startswith("error: ")
        assert "['methods', 'sample_sizes']" in err

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
        rows = parse_results_csv(out)
        assert [row.n_x for row in rows] == [3]
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
        rows = parse_results_csv(out_path.read_text())
        assert rows[0].param == 0.6
        assert rows[0].trials == 25

    def test_power_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--rho2", "0.66",
                               "--methods", "nystrom-uniform", "--landmarks",
                               "4", "--sample-sizes", "40", "--alpha", "0.2",
                               "--permutations", "9", "--repetitions", "5",
                               "--seed", "0")
        assert code == 0
        assert out.splitlines()[0].startswith("method,ell,n_x,n_y,param")


class TestBenchCommand:
    def test_bench_emits_rows_and_exponent(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code, _, err = run_cli(capsys, "bench", "--sample-sizes", "400,800",
                               "--landmarks", "8", "--permutations", "9",
                               "--repeats", "2", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "n,ell,permutations,seconds,peak_bytes"
        assert len(lines) == 3
        assert "fitted time exponent" in err
