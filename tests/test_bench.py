import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import nysmmd
from nysmmd import (
    ExperimentSpec,
    accumulation_profile,
    estimate_rate,
    fit_power_law,
    parse_results_csv,
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
        with pytest.raises(ValueError):
            wilson_interval(1, 4, confidence=1.0)

    def test_package_import_does_not_load_scipy_stats(self):
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, nysmmd; print('scipy.stats' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert result.stdout.strip() == "False"


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

    def test_json_round_trip_is_lossless(self):
        raw = self.spec_dict()
        spec = ExperimentSpec.from_dict(raw)
        assert spec.to_dict() == raw
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec

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

    def test_deterministic_across_thread_counts(self):
        spec = tiny_null_spec(repetitions=30)
        serial = estimate_rate(spec, "null", n_threads=1)
        threaded = estimate_rate(spec, "null", n_threads=4)
        assert [r.successes for r in serial] == [r.successes for r in threaded]
        assert strip_runtime(results_to_csv(serial)) == strip_runtime(
            results_to_csv(threaded))

    def test_failing_cell_recorded_not_raised(self, tmp_path):
        pool = np.zeros((10, 2)) + np.arange(10)[:, None]
        x_path = tmp_path / "x.csv"
        write_csv(pool, x_path)
        spec = ExperimentSpec(
            scenario={"kind": "csv", "x": str(x_path), "y": str(x_path)},
            methods=("nystrom-uniform",), landmarks=(4,),
            sample_sizes=(500,),  # far more rows than the pool holds
            alpha=0.1, permutations=9, repetitions=5, seed=0)
        rows = estimate_rate(spec, "null")
        assert len(rows) == 1
        assert rows[0].error is not None
        assert rows[0].error.startswith("ValueError: pool of 10 rows too small")

    def test_results_csv_round_trip(self):
        rows = estimate_rate(tiny_null_spec(repetitions=20), "null")
        text = results_to_csv(rows)
        parsed = parse_results_csv(text)
        assert len(parsed) == len(rows)
        for before, after in zip(rows, parsed):
            assert after.method == before.method
            assert after.ell == before.ell
            assert after.n_x == before.n_x
            assert after.successes == before.successes
            assert after.trials == before.trials
            assert after.rate == before.rate
            assert after.wilson_low == before.wilson_low
            assert after.wilson_high == before.wilson_high

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


class TestAccumulationProfile:
    def test_reports_all_sizes(self):
        rows = accumulation_profile([400, 800], n_landmarks=8,
                                    n_permutations=9, repeats=2)
        assert [row.n for row in rows] == [400, 800]
        assert all(row.seconds > 0 for row in rows)
        assert all(row.peak_bytes > 0 for row in rows)

    def test_fit_power_law_recovers_exponent(self):
        sizes = np.array([1000, 2000, 4000, 8000])
        values = 3e-6 * sizes**1.17
        assert fit_power_law(sizes, values) == pytest.approx(1.17, abs=1e-9)

    def test_fit_power_law_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([100], [1.0])


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
