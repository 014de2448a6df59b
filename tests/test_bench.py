import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import norm

import nysmmd
from helpers import read_results_csv
from nysmmd import bench
from nysmmd.permutation import METHODS, SmallAlphaWarning, TestConfig
from nysmmd import (
    ExperimentSpec,
    estimate_rate,
    results_to_csv,
    wilson_interval,
    write_csv,
)


class TestWilsonInterval:
    def test_zero_successes_pins_lower_bound(self):
        for trials in (1, 10, 500):
            low, _ = wilson_interval(0, trials)
            assert low == 0.0

    def test_all_successes_pin_upper_bound(self):
        for trials in (1, 10, 500):
            _, high = wilson_interval(trials, trials)
            assert high == 1.0

    def test_z_is_the_two_sided_95_percent_normal_quantile(self):
        assert bench.WILSON_Z == NormalDist().inv_cdf(0.975)

    def test_matches_direct_formula(self):
        successes, trials = 44, 1000
        z = norm.ppf(0.975)
        p_hat = successes / trials
        denom = 1 + z**2 / trials
        center = (p_hat + z**2 / (2 * trials)) / denom
        half = z * np.sqrt(p_hat * (1 - p_hat) / trials
                           + z**2 / (4 * trials**2)) / denom
        low, high = wilson_interval(successes, trials)
        assert low == pytest.approx(center - half, abs=1e-12)
        assert high == pytest.approx(center + half, abs=1e-12)
        # the published two-sided bounds for 44/1000 at 95%
        assert low == pytest.approx(0.033, abs=5e-4)
        assert high == pytest.approx(0.059, abs=5e-4)

    def test_interval_brackets_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            trials = int(rng.integers(1, 400))
            successes = int(rng.integers(0, trials + 1))
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_package_import_does_not_load_scipy_stats(self):
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, nysmmd; print('scipy.stats' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert result.stdout.strip() == "False"

    def test_package_and_cli_import_load_no_scipy(self):
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, nysmmd, nysmmd.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert result.stdout.strip() == "[]"


BENCH_NAMES = ("ExperimentSpec", "RateEstimate", "estimate_rate", "results_to_csv",
               "wilson_interval")


class TestImportFootprint:
    def test_package_and_cli_import_load_only_the_test_path(self):
        # nothing a single `nysmmd test` skips: scipy, the grid harness and
        # the standard modules only the harness and exact rationals need
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = (
            "import sys, nysmmd, nysmmd.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m in ('nysmmd.bench', 'concurrent.futures', 'logging',\n"
            "                      'fractions')))\n"
            f"names = {BENCH_NAMES!r}\n"
            "read = {name: getattr(nysmmd, name) for name in names}\n"
            "import nysmmd.bench\n"
            "print(all(read[name] is getattr(nysmmd.bench, name) for name in names))\n"
            "print([name for name in nysmmd.__all__ if not hasattr(nysmmd, name)])\n")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert result.stdout.splitlines() == ["[]", "True", "[]"]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'bench_names'"):
            nysmmd.bench_names


class TestExperimentSpec:
    def spec_dict(self):
        return {
            "scenario": {"kind": "correlated-gaussian", "dim": 3,
                         "rho1": 0.5, "rho2": [0.51, 0.66]},
            "methods": ["nystrom-uniform", "rff"],
            "landmarks": [16, 32],
            "sample_sizes": [100],
            "alpha": 0.05,
            "permutations": 49,
            "repetitions": 10,
            "seed": 3,
            "output": None,
        }

    def test_unknown_keys_rejected(self):
        raw = self.spec_dict()
        raw["surprise"] = 1
        with pytest.raises(ValueError, match="unknown spec keys"):
            ExperimentSpec.from_dict(raw)

    def test_empty_grids_rejected(self):
        raw = self.spec_dict()
        raw["methods"] = []
        with pytest.raises(ValueError, match="methods"):
            ExperimentSpec.from_dict(raw)
        raw = self.spec_dict()
        raw["landmarks"] = []
        with pytest.raises(ValueError, match="landmarks"):
            ExperimentSpec.from_dict(raw)

    def test_missing_required_keys_rejected(self):
        for key in ("scenario", "methods", "sample_sizes"):
            raw = self.spec_dict()
            del raw[key]
            with pytest.raises(ValueError, match=f"missing required keys.*{key}"):
                ExperimentSpec.from_dict(raw)

    def test_unknown_method_rejected(self):
        raw = self.spec_dict()
        raw["methods"] = ["nystrom-greedy"]
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentSpec.from_dict(raw)

    @pytest.mark.parametrize("key,value", [
        ("sample_sizes", [50.5]),
        ("landmarks", [16, 16.9]),
        ("permutations", 19.9),
        ("repetitions", 3.7),
        ("seed", 1.5),
    ])
    def test_fractional_integer_keys_rejected(self, key, value):
        raw = {**self.spec_dict(), key: value}
        with pytest.raises(ValueError,
                           match=f"spec key '{key}' must be .* fractional part"):
            ExperimentSpec.from_dict(raw)

    def test_integral_floats_accepted(self):
        raw = {**self.spec_dict(), "sample_sizes": [100.0], "permutations": 49.0}
        spec = ExperimentSpec.from_dict(raw)
        assert spec.sample_sizes == (100,)
        assert spec.permutations == 49

    @pytest.mark.parametrize("overrides,message", [
        pytest.param({"alpha": 1.5}, "alpha must lie strictly between 0 and 1",
                     id="alpha"),
        pytest.param({"permutations": 0}, "n_permutations must be at least 1",
                     id="permutations"),
        pytest.param({"landmarks": (8, 0)}, "n_landmarks must be at least 1",
                     id="nystrom-landmarks"),
        pytest.param({"methods": ("exact", "rff"), "landmarks": (-1,)},
                     "n_features must be even and >= 2, got 0", id="rff-landmarks"),
        pytest.param({"repetitions": 0}, "repetitions must be at least 1",
                     id="repetitions"),
        pytest.param({"seed": 1.5}, "seed must be a non-negative integer, got 1.5",
                     id="seed"),
    ])
    def test_value_failing_every_cell_rejected_at_construction(self, overrides,
                                                               message):
        with pytest.raises(ValueError) as error:
            tiny_null_spec(**overrides)
        assert str(error.value) == message

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_small_alpha_warns_once_when_the_spec_is_built(self, n_threads):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = tiny_null_spec(alpha=0.05, permutations=9, repetitions=4,
                                  landmarks=(4, 8))
            assert len(caught) == 1
            rows = estimate_rate(spec, "null", n_threads=n_threads)
            assert len(caught) == 1
            TestConfig(alpha=0.05, n_permutations=9)  # the grid's filter is gone
        assert [row.error for row in rows] == [None, None]
        assert [warning.category for warning in caught] == [SmallAlphaWarning] * 2
        assert caught[0].filename == bench.__file__
        assert caught[1].filename == __file__

    @pytest.mark.parametrize("scenario,unread,allowed", [
        ({"kind": "correlated-gaussian", "rho1": 0.5, "rho_2": 0.9}, "['rho_2']",
         "['kind', 'dim', 'rho1', 'rho2']"),
        ({"kind": "csv", "x": "x.csv", "y": "y.csv", "mix_fraction": 0.3},
         "['mix_fraction']", "['kind', 'x', 'y', 'has_header']"),
        ({"kind": "mixture", "background": "b.csv", "signal": "s.csv", "x": "x.csv",
          "dim": 3}, "['dim', 'x']",
         "['kind', 'background', 'signal', 'mix_fraction', 'has_header']"),
    ])
    def test_scenario_keys_of_another_kind_rejected(self, scenario, unread, allowed):
        spec = tiny_null_spec(scenario=scenario)
        for regime in ("null", "alternative"):
            with pytest.raises(ValueError) as error:
                estimate_rate(spec, regime)
            assert str(error.value) == (f"{scenario['kind']} scenario does not read "
                                        f"keys {unread}; it takes {allowed}")


def tiny_null_spec(**overrides):
    base = dict(
        scenario={"kind": "correlated-gaussian", "dim": 3, "rho1": 0.5,
                  "rho2": 0.5},
        methods=("nystrom-uniform",),
        landmarks=(8,),
        sample_sizes=(40,),
        alpha=0.1,
        permutations=19,
        repetitions=50,
        seed=11,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def strip_runtime(csv_text):
    lines = csv_text.strip().splitlines()
    stripped = []
    for line in lines:
        cells = line.split(",")
        del cells[8]  # mean_runtime_s
        stripped.append(",".join(cells))
    return "\n".join(stripped)


class TestEstimateRate:
    def test_null_rate_near_level(self):
        rows = estimate_rate(tiny_null_spec(repetitions=200), "null")
        assert len(rows) == 1
        row = rows[0]
        assert row.trials == 200
        sigma = np.sqrt(0.1 * 0.9 / 200)
        assert abs(row.rate - 0.1) <= 3 * sigma
        assert row.wilson_low <= row.rate <= row.wilson_high

    def test_alternative_equal_to_null_behaves_as_null(self):
        # rho2 == rho1, so the "alternative" draws P = Q.
        rows = estimate_rate(tiny_null_spec(repetitions=200), "alternative")
        sigma = np.sqrt(0.1 * 0.9 / 200)
        assert abs(rows[0].rate - 0.1) <= 3 * sigma

    def test_power_increases_with_landmark_count(self):
        spec = ExperimentSpec(
            scenario={"kind": "correlated-gaussian", "dim": 3, "rho1": 0.0,
                      "rho2": 0.6},
            methods=("nystrom-uniform",), landmarks=(2, 8, 64),
            sample_sizes=(200,), alpha=0.05, permutations=49,
            repetitions=200, seed=5)
        rows = estimate_rate(spec, "alternative")
        powers = [row.rate for row in rows]
        assert powers[0] < powers[1] < powers[2]

    @pytest.mark.parametrize("overrides,regime,message", [
        ({"scenario": {"kind": "gaussian"}}, "null", "unknown scenario kind 'gaussian'"),
        ({}, "both", "regime must be 'null' or 'alternative'"),
    ])
    def test_unknown_scenario_kind_or_regime_rejected(self, overrides, regime,
                                                      message):
        with pytest.raises(ValueError) as error:
            estimate_rate(tiny_null_spec(**overrides), regime)
        assert str(error.value) == message

    def test_deterministic_across_thread_counts(self):
        spec = tiny_null_spec(repetitions=30)
        serial = estimate_rate(spec, "null", n_threads=1)
        threaded = estimate_rate(spec, "null", n_threads=4)
        assert [r.successes for r in serial] == [r.successes for r in threaded]
        assert strip_runtime(results_to_csv(serial)) == strip_runtime(
            results_to_csv(threaded))

    @pytest.mark.parametrize("value", ["0", "-2", "abc"])
    def test_invalid_thread_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("NYSMMD_THREADS", value)
        with pytest.raises(ValueError, match=f"^NYSMMD_THREADS must be a positive "
                                             f"integer, got '{value}'$"):
            estimate_rate(tiny_null_spec(repetitions=1), "null")

    def test_non_positive_thread_count_rejected(self):
        with pytest.raises(ValueError,
                           match="^n_threads must be a positive integer, got 0$"):
            estimate_rate(tiny_null_spec(repetitions=1), "null", n_threads=0)

    def test_one_thread_pool_per_grid(self, monkeypatch):
        created = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench, "ThreadPoolExecutor", CountingPool)
        spec = tiny_null_spec(repetitions=4, landmarks=(2, 4, 8))
        assert len(estimate_rate(spec, "null", n_threads=2)) == 3
        assert len(created) == 1
        estimate_rate(spec, "null", n_threads=1)
        assert len(created) == 1

    def test_methods_and_ells_meet_common_random_numbers(self, monkeypatch):
        calls, original = [], bench.run_test

        def record(x, y, config, method):
            calls.append((x, y, config.seed))
            return original(x, y, config, method)

        monkeypatch.setattr(bench, "run_test", record)
        spec = tiny_null_spec(scenario={"kind": "correlated-gaussian", "dim": 2,
                                        "rho1": 0.2, "rho2": [0.2, 0.9]},
                              methods=("exact", "nystrom-uniform", "rff"),
                              landmarks=(4, 6), sample_sizes=(12, 20),
                              permutations=9, repetitions=3)
        rows = estimate_rate(spec, "alternative", n_threads=1)
        assert len(rows) == 5 * 2 * 2  # method cells × sample sizes × params
        # one thread runs each method cell's (n, param, rep) repetitions in
        # the same order
        per_cell = 2 * 2 * 3
        first = calls[:per_cell]
        assert len({seed for _, _, seed in first}) == per_cell
        for start in range(per_cell, len(calls), per_cell):
            for (x, y, seed), (x0, y0, seed0) in zip(calls[start:start + per_cell],
                                                     first, strict=True):
                assert seed == seed0
                assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_failing_cell_recorded_not_raised(self, tmp_path):
        pool = np.zeros((10, 2)) + np.arange(10)[:, None]
        x_path = tmp_path / "x.csv"
        write_csv(pool, x_path)
        spec = ExperimentSpec(
            scenario={"kind": "csv", "x": str(x_path), "y": str(x_path)},
            methods=("nystrom-uniform",), landmarks=(4,),
            sample_sizes=(5, 500),  # 500 is far more rows than the pool holds
            alpha=0.1, permutations=9, repetitions=5, seed=0)
        ran, failed = estimate_rate(spec, "null")
        assert ran.error is None and ran.error_type is None
        assert failed.error.startswith("ValueError: pool of 10 rows too small")
        assert failed.error_type == "ValueError"

    def test_results_csv_round_trip(self):
        rows = estimate_rate(tiny_null_spec(repetitions=20), "null")
        text = results_to_csv(rows)
        parsed = read_results_csv(text)
        assert len(parsed) == len(rows)
        for before, after in zip(rows, parsed):
            assert after["method"] == before.method
            assert int(after["ell"]) == before.ell
            assert int(after["n_x"]) == before.n_x
            assert round(float(after["rate"]) * int(after["reps"])) == before.successes
            assert int(after["reps"]) == before.trials
            assert float(after["rate"]) == before.rate
            assert float(after["wilson_low"]) == before.wilson_low
            assert float(after["wilson_high"]) == before.wilson_high

    def test_csv_header_is_stable(self):
        text = results_to_csv(estimate_rate(tiny_null_spec(repetitions=5),
                                            "null"))
        assert text.splitlines()[0] == ("method,ell,n_x,n_y,param,rate,"
                                        "wilson_low,wilson_high,mean_runtime_s,reps")

    def test_byte_identical_results_excluding_runtime(self):
        spec = tiny_null_spec(repetitions=25)
        first = results_to_csv(estimate_rate(spec, "null"))
        second = results_to_csv(estimate_rate(spec, "null"))
        assert strip_runtime(first) == strip_runtime(second)


_HALVES = "ValueError: pool of 60 rows too small for two disjoint samples of "
_NO_BACKGROUND = ["ValueError: background pool too small for n=200"] * 2
_MIXTURE = "ValueError: mixture needs {} background rows, pool has 15"
# (scenario kind, regime): the parameter grid, and each method's cells in
# (n, param) grid order as successes out of 4 repetitions or the cell's error
_PINNED_GRIDS = {
    ("correlated-gaussian", "null"): ((0.2,), {
        "exact": [0, 1, 0], "nystrom-uniform": [0, 0, 1], "nystrom-akrls": [1, 0, 0],
        "nystrom-exact-krls": [0, 1, 1], "rff": [0, 1, 0]}),
    ("correlated-gaussian", "alternative"): ((0.2, 0.9), {
        "exact": [1, 2, 2, 2, 3, 4], "nystrom-uniform": [1, 1, 2, 2, 2, 2],
        "nystrom-akrls": [1, 1, 2, 1, 3, 4],
        "nystrom-exact-krls": [1, 2, 3, 1, 2, 1], "rff": [1, 0, 1, 1, 1, 2]}),
    ("csv", "null"): ((0.0,), {
        name: [0, _HALVES + "45", _HALVES + "200"] for name in METHODS}),
    ("csv", "alternative"): ((0.0,), {
        name: [*successes, "ValueError: pool of 60 rows too small for n=200"]
        for name, successes in (("exact", (0, 4)), ("nystrom-uniform", (1, 4)),
                                ("nystrom-akrls", (0, 3)),
                                ("nystrom-exact-krls", (1, 4)), ("rff", (1, 3)))}),
    ("mixture", "null"): ((0.0,), {
        name: [int(name == "nystrom-exact-krls"), _HALVES + "45", _HALVES + "200"]
        for name in METHODS}),
    ("mixture", "alternative"): ((0.3, 0.8), {
        name: [*successes, _MIXTURE.format(32), 4, *_NO_BACKGROUND]
        for name, successes in (("exact", (2, 4)), ("nystrom-uniform", (1, 4)),
                                ("nystrom-akrls", (2, 4)),
                                ("nystrom-exact-krls", (2, 4)), ("rff", (2, 2)))}),
}


class TestPinnedGrid:
    def test_every_scenario_and_method_gives_the_pinned_cells(self, tmp_path):
        # integers and error strings only, which BLAS rounding cannot move
        rng = np.random.default_rng(27)
        pools = {"x": rng.standard_normal((60, 2)),
                 "y": rng.standard_normal((50, 2)) + 0.5,
                 "background": rng.standard_normal((60, 2)),
                 "signal": rng.standard_normal((40, 2)) + 2.0}
        for name, points in pools.items():
            write_csv(points, tmp_path / f"{name}.csv")
        scenarios = {
            "correlated-gaussian": {"dim": 2, "rho1": 0.2, "rho2": [0.2, 0.9]},
            "csv": {"x": str(tmp_path / "x.csv"), "y": str(tmp_path / "y.csv")},
            "mixture": {"background": str(tmp_path / "background.csv"),
                        "signal": str(tmp_path / "signal.csv"),
                        "mix_fraction": [0.3, 0.8]},
        }
        sizes = (12, 45, 200)  # 200 outgrows every pool, 45 some
        for kind, keys in scenarios.items():
            spec = ExperimentSpec(
                scenario={"kind": kind, **keys}, methods=tuple(METHODS),
                landmarks=(4,), sample_sizes=sizes, alpha=0.2, permutations=9,
                repetitions=4, seed=7)
            for regime in ("null", "alternative"):
                params, pinned = _PINNED_GRIDS[kind, regime]
                expected = [
                    (name, 0 if name == "exact" else 4, n, param,
                     *((0, 0, cell) if isinstance(cell, str) else (cell, 4, None)))
                    for name, cells in pinned.items()
                    for (n, param), cell in zip(product(sizes, params), cells,
                                                strict=True)]
                for n_threads in (1, 2):
                    got = [(r.method, r.ell, r.n_x, r.param, r.successes, r.trials,
                            r.error)
                           for r in estimate_rate(spec, regime, n_threads=n_threads)]
                    assert got == expected, (kind, regime, n_threads)


class TestMixtureScenario:
    def test_mixture_grid_runs(self, tmp_path):
        rng = np.random.default_rng(1)
        background = rng.standard_normal((800, 2))
        signal = rng.standard_normal((400, 2)) + 3.0
        bg_path, sig_path = tmp_path / "bg.csv", tmp_path / "sig.csv"
        write_csv(background, bg_path)
        write_csv(signal, sig_path)
        spec = ExperimentSpec(
            scenario={"kind": "mixture", "background": str(bg_path),
                      "signal": str(sig_path), "mix_fraction": 0.4},
            methods=("nystrom-uniform",), landmarks=(8,), sample_sizes=(150,),
            alpha=0.05, permutations=19, repetitions=30, seed=2)
        null_rows = estimate_rate(spec, "null")
        alt_rows = estimate_rate(spec, "alternative")
        assert null_rows[0].error is None
        assert alt_rows[0].error is None
        # a 40% contamination three sigmas away is easy to detect
        assert alt_rows[0].rate > null_rows[0].rate
        assert alt_rows[0].param == 0.4

    def test_mix_fraction_outside_unit_interval_fails_before_any_cell(self, tmp_path):
        pool_path = tmp_path / "pool.csv"
        write_csv(np.random.default_rng(3).standard_normal((400, 2)), pool_path)
        spec = ExperimentSpec(
            scenario={"kind": "mixture", "background": str(pool_path),
                      "signal": str(pool_path), "mix_fraction": [0.2, 1.5]},
            methods=("nystrom-uniform",), landmarks=(8,), sample_sizes=(20, 40),
            alpha=0.1, permutations=9, repetitions=2, seed=0)
        for regime in ("null", "alternative"):
            with pytest.raises(ValueError) as error:
                estimate_rate(spec, regime)
            assert str(error.value) == "mix_fraction must lie in [0, 1], got 1.5"
