import collections
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nysmmd
from helpers import exact_mmd
from nysmmd import (
    ExactMethod,
    GaussianKernel,
    NystromMethod,
    PooledSample,
    RffMethod,
    TestConfig,
    TestOutcome,
    decide,
    median_heuristic,
    quantile_index,
    run_test,
)
from nysmmd import leverage, linalg, permutation, statistics
from nysmmd.permutation import METHODS, SmallAlphaWarning, accept_count
from nysmmd.statistics import permutation_weights


def plain_numpy_statistic(x, y, landmarks, bandwidth) -> float:
    """sqrt(a' K^+ a), K^+ cut at 1e-10 times the largest eigenvalue.

    a is the difference of the mean kernel vectors of x and y against the
    landmarks, with kernel values taken from explicit differences.
    """
    def gram(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.exp(-np.sum(diff * diff, axis=2) / (2.0 * bandwidth**2))

    a = gram(x, landmarks).mean(axis=0) - gram(y, landmarks).mean(axis=0)
    eigenvalues, eigenvectors = np.linalg.eigh(gram(landmarks, landmarks))
    keep = eigenvalues > 1e-10 * eigenvalues[-1]
    coefficients = eigenvectors[:, keep].T @ a
    return math.sqrt(np.sum(coefficients**2 / eigenvalues[keep]))


class TestQuantileIndex:
    @pytest.mark.parametrize("alpha,n_perms,expected", [
        (0.05, 199, 189),
        (0.5, 1, 0),
        (0.01, 99, 98),
        (0.1, 19, 17),
    ])
    def test_known_values(self, alpha, n_perms, expected):
        assert quantile_index(alpha, n_perms) == expected

    def test_always_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            alpha = float(rng.uniform(1e-6, 1 - 1e-6))
            n_perms = int(rng.integers(1, 1000))
            index = quantile_index(alpha, n_perms)
            assert 0 <= index <= n_perms

    @staticmethod
    def rational_index(alpha, n_perms):
        """The threshold index computed on Fraction(alpha), the exact rational."""
        return min(max(math.ceil((1 - Fraction(alpha)) * (n_perms + 1) - 1), 0), n_perms)

    @pytest.mark.parametrize("alpha,n_perms", [
        (0.5, 1), (0.25, 3), (0.75, 3), (0.125, 7),  # (1 - alpha)(P + 1) integral
        (0.05, 19), (0.05, 199), (0.05, 999), (0.01, 99), (0.1, 9),
        (1e-300, 10**6),
        (0.3, 9), (0.3, 199),  # float arithmetic rounds these one index low
    ])
    def test_matches_rational_reference(self, alpha, n_perms):
        assert quantile_index(alpha, n_perms) == self.rational_index(alpha, n_perms)

    def test_matches_rational_reference_on_random_pairs(self):
        rng = np.random.default_rng(16)
        for pair in range(2000):
            if pair % 2:
                alpha = float(rng.uniform(1e-6, 1 - 1e-6))
                n_perms = int(rng.integers(1, 10**6))
            else:  # dyadic alpha, with (1 - alpha)(P + 1) integral when 2^j divides P + 1
                j = int(rng.integers(1, 12))
                alpha = int(rng.integers(1, 2**j)) / 2**j
                n_perms = int(rng.integers(2, 2**13)) * 2 ** int(rng.integers(0, j + 1)) - 1
            assert quantile_index(alpha, n_perms) == self.rational_index(alpha, n_perms)

    def test_is_p_less_the_floor_of_alpha_p_plus_one(self):
        # Fraction(alpha) is the double's exact rational value
        alphas = ([k / 64 for k in range(1, 64)]
                  + [1e-300, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.3, 0.9, 1 - 2**-53])
        sizes = [*range(1, 40), 99, 199, 999, 10**6, 10**9, 2**53, 2**62]
        for alpha in alphas:
            for n_perms in sizes:
                expected = n_perms - math.floor(Fraction(alpha) * (n_perms + 1))
                for size in (n_perms, np.int64(n_perms)):
                    index = quantile_index(alpha, size)
                    assert type(index) is int
                    assert index == expected, (alpha, n_perms)

    @pytest.mark.parametrize("alpha,n_perms,expected", [
        (0.004, 199, 1), (0.5, 1, 1), (0.25, 7, 2), (0.3, 9, 3),
        # the doubles nearest 0.05 and 0.1 lie above them, so these products
        # exceed an integer that float arithmetic rounds them to
        (0.05, 199, 11), (0.1, 19, 3), (0.1, 9, 2),
    ])
    def test_accept_count_known_values(self, alpha, n_perms, expected):
        assert accept_count(alpha, n_perms) == expected

    def test_accept_count_matches_rational_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            alpha = float(rng.uniform(1e-6, 1 - 1e-6))
            n_perms = int(rng.integers(1, 10**6))
            assert accept_count(alpha, n_perms) == math.ceil(Fraction(alpha) * (n_perms + 1))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            quantile_index(0.0, 10)
        with pytest.raises(ValueError):
            quantile_index(1.0, 10)


class TestDecide:
    def test_largest_statistic_rejects(self):
        rng = np.random.default_rng(1)
        stats = rng.uniform(0, 1, size=200)
        stats[0] = 2.0
        outcome = decide(stats, alpha=0.05, tie_break_draw=0.99)
        assert outcome.reject
        assert not outcome.randomized
        assert outcome.rejection_probability is None
        assert outcome.threshold_index == 189

    def test_all_equal_rejects_with_probability_alpha(self):
        stats = np.zeros(20)
        outcome = decide(stats, alpha=0.1, tie_break_draw=0.05)
        assert outcome.randomized
        assert outcome.rejection_probability == pytest.approx(0.1, rel=1e-12)
        assert outcome.reject  # draw 0.05 < 0.1
        outcome = decide(stats, alpha=0.1, tie_break_draw=0.95)
        assert not outcome.reject

    def test_summary_keys_follow_the_field_order(self):
        summary = decide(np.zeros(20), alpha=0.1, tie_break_draw=0.5).to_dict()
        names = [field.name for field in fields(TestOutcome) if field.name != "statistics"]
        assert list(summary) == names == [
            "reject", "statistic", "threshold", "threshold_index", "randomized",
            "rejection_probability", "permutations_run", "bandwidth"]

    def test_below_threshold_fails_to_reject(self):
        stats = np.linspace(1.0, 2.0, 50)[::-1].copy()
        stats[0] = 0.5
        outcome = decide(stats, alpha=0.2, tie_break_draw=0.0)
        assert not outcome.reject
        assert not outcome.randomized

    def test_monte_carlo_level_on_continuous_statistics(self):
        # With i.i.d. continuous replicates the rejection frequency is alpha.
        alpha, n_perms, sims = 0.1, 19, 100_000
        rng = np.random.default_rng(2)
        rejects = 0
        for _ in range(sims):
            stats = rng.uniform(size=n_perms + 1)
            rejects += decide(stats, alpha, float(rng.uniform())).reject
        rate = rejects / sims
        sigma = np.sqrt(alpha * (1 - alpha) / sims)
        assert abs(rate - alpha) <= 3 * sigma

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        stats = rng.uniform(0.1, 1.0, size=40)
        for draw in (0.01, 0.5, 0.99):
            base = decide(stats, 0.1, draw)
            scaled = decide(stats * 2.0, 0.1, draw)
            assert base.reject == scaled.reject
            assert base.randomized == scaled.randomized
            assert base.threshold_index == scaled.threshold_index

    def test_reject_always_when_above_threshold(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            stats = rng.uniform(size=30)
            outcome = decide(stats, 0.15, float(rng.uniform()))
            if outcome.statistic > outcome.threshold:
                assert outcome.reject

    def test_tie_probability_lies_in_the_unit_interval(self):
        # Integer statistics tie often; the observed value is set to the
        # threshold, so every decision takes the randomized branch.
        rng = np.random.default_rng(20)
        alphas = [k / 64 for k in range(1, 64)] + [0.001, 0.01, 0.05, 0.1, 0.3,
                                                   1 - 2**-53]
        for alpha in alphas:
            for n_perms in (1, 2, 3, 4, 9, 19, 99, 199):
                for _ in range(4):
                    stats = rng.integers(0, 4, size=n_perms + 1).astype(float)
                    stats[0] = np.sort(stats)[quantile_index(alpha, n_perms)]
                    outcome = decide(stats, alpha, 0.5)
                    greater = np.count_nonzero(stats > stats[0])
                    equal = np.count_nonzero(stats == stats[0])
                    assert outcome.randomized
                    assert 0.0 <= outcome.rejection_probability <= 1.0
                    assert outcome.rejection_probability == pytest.approx(
                        float((Fraction(alpha) * (n_perms + 1) - greater) / equal),
                        rel=1e-12, abs=1e-15)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="^statistics must be a 1-d vector of "
                                             "at least 2 values$"):
            decide(np.array([]), 0.05, 0.5)
        with pytest.raises(ValueError, match="at least 2 values"):
            decide(np.array([1.0]), 0.05, 0.5)
        with pytest.raises(ValueError, match="^statistics contain non-finite values$"):
            decide(np.array([1.0, np.nan, 0.5]), 0.05, 0.5)


class TestRunTest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal((35, 3))
        config = TestConfig(seed=7)
        method = NystromMethod(n_landmarks=8)
        first = run_test(x, y, config, method)
        second = run_test(x, y, config, method)
        assert first.reject == second.reject
        assert first.statistic == second.statistic
        assert first.bandwidth == second.bandwidth
        np.testing.assert_array_equal(first.statistics, second.statistics)

    def test_samples_of_different_widths_rejected(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
            run_test(np.zeros((5, 3)), np.zeros((5, 2)), TestConfig(seed=0),
                     NystromMethod(n_landmarks=4))

    def test_close_across_blas_thread_counts(self):
        # OpenBLAS dgemm and eigh round differently with 1 and 2 threads, and
        # the landmark pseudo-inverse amplifies that round-off; decisions and
        # statistics must still agree.
        probe = """
import json, numpy as np
from nysmmd import run_test
from nysmmd.permutation import METHODS, TestConfig
rng = np.random.default_rng(3)
x = rng.standard_normal((1000, 3))
y = rng.standard_normal((1000, 3)) + 0.05
outcomes = {name: run_test(x, y, TestConfig(n_permutations=99, seed=5), spec(32))
            for name, spec in METHODS.items()}
print(json.dumps({name: [o.reject, o.statistics.tolist()]
                  for name, o in outcomes.items()}))
"""
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run([sys.executable, "-c", probe], env=env,
                                    capture_output=True, text=True, check=True,
                                    timeout=300)
            runs.append(json.loads(result.stdout))
        serial, threaded = runs
        assert serial.keys() == threaded.keys() == set(METHODS)
        for name in METHODS:
            assert serial[name][0] == threaded[name][0], name
            first, second = np.array(serial[name][1]), np.array(threaded[name][1])
            assert np.abs(first - second).max() <= 1e-12 * np.abs(first).max(), name

    def test_identical_multisets_reject_only_through_tie_branch(self):
        # The observed statistic vanishes (up to accumulation round-off at
        # 1e-17), so the strict branch can never fire against the permuted
        # replicates, which sit at the data scale.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((15, 2))
        for seed in range(20):
            outcome = run_test(x, x.copy(), TestConfig(alpha=0.05, seed=seed),
                               NystromMethod(n_landmarks=4))
            assert outcome.statistic == pytest.approx(0.0, abs=1e-12)
            assert outcome.randomized or not outcome.reject

    def test_all_equal_points_rejection_rate_stays_at_alpha(self):
        # Every replicate is numerically zero; rejections come only from
        # round-off orderings and the tie branch, and stay at level alpha.
        alpha, sims = 0.1, 400
        x = np.ones((12, 2))
        y = np.ones((9, 2))
        rejects = 0
        for seed in range(sims):
            outcome = run_test(x, y,
                               TestConfig(alpha=alpha, n_permutations=19,
                                          seed=seed, bandwidth=1.0),
                               NystromMethod(n_landmarks=4))
            assert outcome.statistic == pytest.approx(0.0, abs=1e-12)
            assert outcome.threshold == pytest.approx(0.0, abs=1e-12)
            rejects += outcome.reject
        sigma = np.sqrt(alpha * (1 - alpha) / sims)
        assert rejects / sims <= alpha + 3 * sigma

    def test_detects_clear_shift(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((120, 3))
        y = rng.standard_normal((120, 3)) + 1.5
        for method in (NystromMethod(n_landmarks=16), RffMethod(n_features=32),
                       ExactMethod()):
            outcome = run_test(x, y, TestConfig(seed=1), method)
            assert outcome.reject, method

    def test_exact_mode_matches_repartition_oracle(self):
        # Each exact-mode replicate equals the exact MMD of the permuted split.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((9, 2)) + 0.2
        with pytest.warns(UserWarning, match="cannot reject"):
            config = TestConfig(n_permutations=12, seed=11)
        outcome = run_test(x, y, config, ExactMethod())
        pooled = PooledSample.from_samples(x, y)
        # Replay run_test's one stream: the tie variate, the bandwidth pairs,
        # then the labels.
        rng = np.random.default_rng(config.seed)
        rng.random()
        assert median_heuristic(pooled.points, seed=rng) == outcome.bandwidth
        weights = permutation_weights(pooled, config.n_permutations, rng)
        kernel = GaussianKernel(outcome.bandwidth)
        for p in range(config.n_permutations + 1):
            positive = weights[p] > 0
            expected = exact_mmd(pooled.points[positive],
                                 pooled.points[~positive], kernel)
            assert outcome.statistics[p] == pytest.approx(expected, abs=1e-10)

    def test_all_samplers_and_sources_run(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((60, 2))
        y = rng.standard_normal((50, 2))
        for sampler in ("uniform", "akrls", "exact_krls"):
            method = NystromMethod(n_landmarks=6, sampler=sampler)
            outcome = run_test(x, y, TestConfig(seed=2), method)
            assert np.isfinite(outcome.statistic)

    def test_fixed_bandwidth_skips_heuristic(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2))
        outcome = run_test(x, y, TestConfig(seed=0, bandwidth=2.5),
                           NystromMethod(n_landmarks=4))
        assert outcome.bandwidth == 2.5

    def test_keep_statistics_flag(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 2))
        outcome = run_test(x, y, TestConfig(seed=0, keep_statistics=False),
                           NystromMethod(n_landmarks=4))
        assert outcome.statistics is None

    @pytest.mark.filterwarnings("ignore", category=SmallAlphaWarning)
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.004])
    @pytest.mark.parametrize("n_permutations", [1, 4, 19, 199])
    @pytest.mark.parametrize("method", [NystromMethod(n_landmarks=4), RffMethod(4)],
                             ids=["nystrom", "rff"])
    def test_decision_only_matches_the_full_pass(self, method, n_permutations, alpha):
        # A decision-only test may stop its permutations early; over 200
        # seeds of null, shifted and all-equal data it must reject exactly
        # when the full pass does.  Its statistic is the full pass's bit for
        # bit, as are its threshold and randomization when it does not
        # stop, and a stopped test accepts without randomizing.  The points
        # of the all-equal data differ by 1e-14, so that their values,
        # which run_test snaps to zeros, are round-off of which some exceed
        # the observed one.
        stopped = 0
        for seed in range(200):
            rng = np.random.default_rng([18, seed])
            x = rng.standard_normal((12, 2))
            y = rng.standard_normal((10, 2))
            equal = 1.0 + 1e-14 * rng.standard_normal((22, 2))
            for data in ((x, y), (x, y + 1.0), (equal[:12], equal[12:])):
                config = TestConfig(alpha=alpha, n_permutations=n_permutations,
                                    seed=seed, bandwidth=1.0)
                full = run_test(*data, config, method)
                only = run_test(*data, replace(config, keep_statistics=False), method)
                assert only.reject == full.reject
                assert only.statistics is None
                assert full.permutations_run == n_permutations
                assert only.statistic == full.statistic
                if only.permutations_run == n_permutations:
                    assert only.randomized == full.randomized
                    assert only.threshold == full.threshold
                    continue
                stopped += 1
                assert only.permutations_run in (math.ceil(n_permutations / 5),
                                                 math.ceil(n_permutations / 2))
                assert not (only.reject or only.randomized)
                assert only.threshold > only.statistic
        assert stopped > 0 or n_permutations == 1

    @pytest.mark.parametrize("method", [NystromMethod(n_landmarks=32), RffMethod(32)],
                             ids=["nystrom", "rff"])
    def test_decision_only_is_bitwise_on_a_large_label_block(self, method):
        # At 300 points per side OpenBLAS rounds a GEMM's columns
        # differently at other GEMM widths, which it does not on the 22-row
        # data above; the decision-only test's values must still be the
        # full pass's bit for bit, those of a test stopped at either look its
        # first 41 or 101.  Over these seeds both methods stop at each look
        # and also run all 199 permutations.
        runs = collections.Counter()
        for seed in range(22, 34):
            rng = np.random.default_rng([20, seed])
            x = rng.standard_normal((300, 3))
            y = rng.standard_normal((300, 3))
            full = run_test(x, y, TestConfig(seed=seed), method)
            only = run_test(x, y, TestConfig(seed=seed, keep_statistics=False), method)
            assert (only.statistic, only.reject) == (full.statistic, full.reject)
            runs[only.permutations_run] += 1
            if only.permutations_run == 199:
                assert (only.threshold, only.randomized) == (full.threshold,
                                                             full.randomized)
            else:
                ran = full.statistics[:only.permutations_run + 1]
                assert only.threshold == decide(ran, 0.05, 0.0).threshold
        assert set(runs) == {40, 100, 199}

    def test_stopped_outcome_is_strict_json(self):
        # identical samples: the observed statistic is round-off, so a null
        # decision-only test stops after its first batch of 40
        rng = np.random.default_rng(19)
        x = rng.standard_normal((50, 2))
        outcome = run_test(x, x.copy(), TestConfig(seed=3, keep_statistics=False),
                           NystromMethod(n_landmarks=8))
        assert outcome.permutations_run == 40
        summary = json.loads(json.dumps(outcome.to_dict(), allow_nan=False))
        assert summary["permutations_run"] == 40
        assert summary["threshold_index"] == 40 - 2

    def test_level_cell_test_needs_no_eigendecomposition(self, monkeypatch):
        # On the n = 500 + 500, ell = 32 level-study cell the landmark Gram
        # matrix is certified far from singular at the first tolerance, and
        # sample_landmarks inverts its Cholesky factor.  A test forms two kernel
        # matrices, the landmarks' and the basis of its one label block, and
        # its statistic is the plain numpy one over the eigen cutoff.
        eigh_sizes, gram_shapes, returned = [], [], []
        original_eigh = linalg.psd_eigh
        original_gram = GaussianKernel.gram
        original_sampler = permutation.sample_landmarks

        def recording_eigh(matrix, name="matrix"):
            eigh_sizes.append(len(matrix))
            return original_eigh(matrix, name)

        def recording_gram(self, a, b, out=None):
            gram_shapes.append((len(a), len(b)))
            return original_gram(self, a, b, out=out)

        def recording_sampler(*args, **kwargs):
            landmarks = original_sampler(*args, **kwargs)
            returned.append(landmarks.points)
            return landmarks

        monkeypatch.setattr(linalg, "psd_eigh", recording_eigh)
        monkeypatch.setattr(leverage, "psd_eigh", recording_eigh)
        monkeypatch.setattr(GaussianKernel, "gram", recording_gram)
        monkeypatch.setattr(permutation, "sample_landmarks", recording_sampler)
        x = nysmmd.sample_correlated_gaussians(500, 3, 0.5, seed=5)
        y = nysmmd.sample_correlated_gaussians(500, 3, 0.5, seed=6)
        outcome = run_test(x, y, TestConfig(seed=7), NystromMethod(32))
        assert eigh_sizes == []
        ((drawn, also_drawn), (rows, width)) = gram_shapes
        assert drawn == also_drawn == 32
        assert (rows, width) == (1000, 32)
        (landmarks,) = returned
        assert outcome.statistic == pytest.approx(
            plain_numpy_statistic(x, y, landmarks, outcome.bandwidth), rel=1e-9)

    @pytest.mark.parametrize("sampler", ["uniform", "akrls"])
    def test_statistic_matches_plain_numpy_over_returned_landmarks(self, monkeypatch,
                                                                   sampler):
        # The observed statistic is sqrt(a' K^+ a) over the landmarks that
        # sample_landmarks returned, with a the difference of the mean kernel
        # vectors and K^+ cut at 1e-10 times the largest eigenvalue, kernel
        # values taken from explicit differences.  The draw is pruned: fewer
        # landmarks come back than were drawn.
        returned = []
        original = permutation.sample_landmarks

        def recording_sampler(*args, **kwargs):
            landmarks = original(*args, **kwargs)
            returned.append(landmarks.points)
            return landmarks

        monkeypatch.setattr(permutation, "sample_landmarks", recording_sampler)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((300, 2))
        y = 1.1 * rng.standard_normal((300, 2))
        ell = 80
        outcome = run_test(x, y, TestConfig(n_permutations=19, seed=4),
                           NystromMethod(ell, sampler))
        (landmarks,) = returned
        assert landmarks.shape[0] < ell
        assert outcome.statistic == pytest.approx(
            plain_numpy_statistic(x, y, landmarks, outcome.bandwidth), rel=1e-9)

    @pytest.mark.parametrize("n_x, n_y", [(40, 30), (700, 600)])
    @pytest.mark.parametrize("name", METHODS)
    def test_labels_are_a_fixed_stretch_of_the_stream(self, name, n_x, n_y,
                                                      monkeypatch):
        # The premise of data-independent draw counts: each stage before
        # the labels draws a number of words fixed by the sizes, ell and P,
        # never by data values, so on two datasets of the same sizes one
        # config seed reaches the label pass (one block, or two) with the
        # same generator state and draws the same labels.  The datasets'
        # bandwidths lie far apart, on either side of 1.
        reached, original = [], statistics._label_blocks

        def recording(pooled, n_permutations, rng):
            reached.append((rng.bit_generator.state, []))
            for start, top, rows in original(pooled, n_permutations, rng):
                reached[-1][1].append((start, top, rows.copy()))
                yield start, top, rows

        monkeypatch.setattr(statistics, "_label_blocks", recording)
        rng = np.random.default_rng([41, n_x])
        datasets = [(rng.standard_normal((n_x, 3)), rng.standard_normal((n_y, 3))),
                    (0.05 * rng.standard_normal((n_x, 3)),
                     0.2 + 0.05 * rng.standard_normal((n_y, 3)))]
        bandwidths = [run_test(x, y, TestConfig(n_permutations=19, seed=12),
                               METHODS[name](8)).bandwidth for x, y in datasets]
        assert bandwidths[0] > 1.0 > bandwidths[1]
        (state, labels), (other_state, other_labels) = reached
        assert state == other_state
        assert [(start, top) for start, top, _ in labels] == [
            (start, top) for start, top, _ in other_labels]
        for (_, _, rows), (_, _, other_rows) in zip(labels, other_labels):
            np.testing.assert_array_equal(rows, other_rows)

    @pytest.mark.parametrize("n_x,n_y,method,sims", [
        (30, 30, NystromMethod(n_landmarks=8), 5000),
        (15, 45, NystromMethod(8, "akrls"), 2000),  # unbalanced samples
        (30, 30, RffMethod(8), 2000),
        (30, 30, ExactMethod(), 2000),
    ], ids=["nystrom-uniform", "akrls-unbalanced", "rff", "exact"])
    def test_exact_level_small_sample(self, n_x, n_y, method, sims):
        # Null simulation: empirical rejection rate within 3 sigma of alpha.
        alpha, n_perms = 0.1, 19
        rejects = 0
        for rep in range(sims):
            rng = np.random.default_rng([31, rep])
            x = rng.standard_normal((n_x, 3))
            y = rng.standard_normal((n_y, 3))
            outcome = run_test(x, y,
                               TestConfig(alpha=alpha, n_permutations=n_perms,
                                          seed=rep, keep_statistics=False),
                               method)
            rejects += outcome.reject
        rate = rejects / sims
        sigma = np.sqrt(alpha * (1 - alpha) / sims)
        assert abs(rate - alpha) <= 3 * sigma


class TestConfigValidation:
    def test_alpha_below_permutation_resolution_warns(self):
        with pytest.warns(UserWarning, match="cannot reject"):
            TestConfig(alpha=0.01, n_permutations=19)

    def test_small_alpha_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="cannot reject") as record:
            TestConfig(alpha=0.001, n_permutations=99)
        assert record[0].filename == __file__

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            TestConfig(alpha=1.5)

    def test_rejects_bad_permutations(self):
        with pytest.raises(ValueError):
            TestConfig(n_permutations=0)

    @pytest.mark.parametrize("bandwidth", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_fixed_bandwidth(self, bandwidth):
        with pytest.raises(ValueError,
                           match=f"^bandwidth must be a positive real, got {bandwidth}$"):
            TestConfig(bandwidth=bandwidth)

    @pytest.mark.parametrize("seed", [1.5, "7", -1, True, False])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError) as error:
            TestConfig(seed=seed)
        assert str(error.value) == f"seed must be a non-negative integer, got {seed!r}"

    def test_method_validation(self):
        with pytest.raises(ValueError):
            NystromMethod(n_landmarks=0)
        with pytest.raises(ValueError):
            NystromMethod(n_landmarks=4, sampler="greedy")
        with pytest.raises(ValueError):
            RffMethod(n_features=7)
