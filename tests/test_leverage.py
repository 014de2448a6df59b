import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from nysmmd import (
    GaussianKernel,
    PooledSample,
    approx_krls,
    build_nystrom,
    default_regularization,
    exact_krls,
    median_heuristic,
    permuted_statistics,
    sample_correlated_gaussians,
    sample_landmarks,
)
import nysmmd
from nysmmd import NystromMap, leverage
from nysmmd.linalg import certified_inverse_factor, psd_eigh


def random_psd(rng, n, rank=None):
    """Random PSD matrix with unit-scale spectrum."""
    rank = rank or n
    a = rng.standard_normal((n, rank))
    k = a @ a.T
    return k / np.linalg.norm(k, 2)


class TestExactKrls:
    def test_identity_matrix(self):
        n, lam = 6, 0.3
        scores = exact_krls(np.eye(n), lam)
        np.testing.assert_allclose(scores, np.full(n, 1.0 / (1.0 + lam * n)),
                                   rtol=1e-12)

    def test_huge_ridge_kills_scores(self):
        rng = np.random.default_rng(0)
        k = random_psd(rng, 8)
        scores = exact_krls(k, 1e12 / 8)  # lambda * n = 1e12
        assert (scores <= 1e-11).all()

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(1)
        k = random_psd(rng, 6)
        lam = 0.1
        scores = exact_krls(k, lam)
        shifted = k + lam * 6 * np.eye(6)
        for i in range(6):
            solved = np.linalg.solve(shifted, k[:, i])
            assert scores[i] == pytest.approx(solved[i], abs=1e-10)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        scores = exact_krls(random_psd(rng, 20), 0.01)
        assert (scores >= 0.0).all()
        assert (scores < 1.0).all()

    def test_sum_matches_effective_dimension(self):
        rng = np.random.default_rng(3)
        k = random_psd(rng, 12)
        lam = 0.05
        total = exact_krls(k, lam).sum()
        trace = np.trace(k @ np.linalg.inv(k + lam * 12 * np.eye(12)))
        assert total == pytest.approx(trace, rel=1e-8)

    def test_monotone_in_regularization(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            k = random_psd(rng, 10)
            small = exact_krls(k, 0.01)
            large = exact_krls(k, 0.1)
            assert (large <= small + 1e-10).all()

    def test_rejects_non_symmetric(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            exact_krls(bad, 0.1)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            exact_krls(bad, 0.1)

    @pytest.mark.parametrize("regularization", [0.0, -0.1])
    def test_rejects_non_positive_regularization(self, regularization):
        with pytest.raises(ValueError, match="^regularization must be positive$"):
            exact_krls(np.eye(2), regularization)


class TestPsdEigh:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError,
                           match=r"^matrix must be square, got shape \(2, 3\)$"):
            psd_eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_symmetry_tolerance_boundary(self, scale):
        # The tolerance is 1e-10 times the largest entry (or 1): an
        # asymmetry exactly at it is accepted, the next float above it not.
        tolerance = 1e-10 * scale
        for gap, accepted in ((tolerance, True),
                              (np.nextafter(tolerance, 1.0), False)):
            matrix = np.array([[scale, gap], [0.0, 0.0]])
            if accepted:
                eigenvalues, _ = psd_eigh(matrix)
                assert eigenvalues[-1] == pytest.approx(scale)
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    psd_eigh(matrix)


class TestCertifiedInverseFactor:
    # K = [[1, 1 - e], [1 - e, 1]] has eigenvalues e and 2 - e, Cholesky
    # pivots L_kk^2 of 1 and e (2 - e), about 2e, and trace(K^-1) =
    # 2 / (e (2 - e)), so the certified lower bound 1 / ||L^-1||_F^2 is
    # e (2 - e) / 2, just under e.  diag(K, K) has the same pivots twice, so
    # 1 / sum_k L_kk^-2 is about e there.
    e = 1e-3

    def pair(self):
        return np.array([[1.0, 1.0 - self.e], [1.0 - self.e, 1.0]])

    def test_inverse_factor_above_the_floor(self):
        matrix = self.pair()
        inverse = certified_inverse_factor(matrix, 0.5 * self.e)
        np.testing.assert_allclose(inverse @ np.linalg.cholesky(matrix), np.eye(2),
                                   atol=1e-12)
        np.testing.assert_allclose(inverse.T @ inverse, np.linalg.inv(matrix),
                                   rtol=1e-12)

    def test_bound_below_the_floor_refuses(self):
        # both pivots exceed 1.5e, the bound does not; the bound is
        # conservative, so 0.9998e refuses although lambda_min = e exceeds it
        for floor in (1.5 * self.e, 0.9998 * self.e):
            assert certified_inverse_factor(self.pair(), floor) is None

    @pytest.mark.parametrize("floor_in_e", [3.0, 1.5])
    def test_pivots_refuse_without_an_inverse(self, monkeypatch, floor_in_e):
        # At 3e the pivot about 2e is at or below the floor; at 1.5e every
        # pivot of diag(K, K) is above it but 1 / sum_k L_kk^-2 is not.
        def no_inverse(matrix):
            raise AssertionError("inverse formed")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        block = np.kron(np.eye(2), self.pair())
        assert certified_inverse_factor(block, floor_in_e * self.e) is None

    @pytest.mark.parametrize("matrix", [np.ones((2, 2)), [[1.0, 2.0], [2.0, 1.0]]])
    def test_singular_or_indefinite_refuses(self, matrix):
        assert certified_inverse_factor(np.array(matrix), 1e-10) is None

    def test_checks_of_psd_eigh(self):
        with pytest.raises(ValueError, match="not symmetric"):
            certified_inverse_factor(np.array([[1.0, 0.5], [0.2, 1.0]]), 1e-10)
        with pytest.raises(ValueError, match="non-finite"):
            certified_inverse_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-10)


class TestEffectiveDimension:
    """The effective dimension trace(K (K + lambda*n I)^-1) is the score sum."""

    def test_identity_matrix(self):
        n, lam = 7, 0.2
        assert exact_krls(np.eye(n), lam).sum() == pytest.approx(
            n / (1.0 + lam * n), rel=1e-12)

    def test_tiny_ridge_approaches_rank(self):
        rng = np.random.default_rng(5)
        k = random_psd(rng, 9)
        assert exact_krls(k, 1e-14).sum() == pytest.approx(9, abs=1e-3)

    def test_equals_score_sum(self):
        rng = np.random.default_rng(6)
        k = random_psd(rng, 8)
        eigenvalues = np.linalg.eigvalsh(k)
        assert exact_krls(k, 0.05).sum() == pytest.approx(
            np.sum(eigenvalues / (eigenvalues + 0.05 * 8)), abs=1e-10)

    def test_decreasing_in_regularization(self):
        rng = np.random.default_rng(7)
        k = random_psd(rng, 15)
        values = [exact_krls(k, lam).sum()
                  for lam in (0.001, 0.01, 0.1, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def gaussian_data():
    rng = np.random.default_rng(512)
    points = rng.standard_normal((512, 3))
    kernel = GaussianKernel(median_heuristic(points))
    return points, kernel


class TestApproxKrls:

    def test_factor_four_sandwich(self, gaussian_data):
        points, kernel = gaussian_data
        lam = 1.0 / 512
        exact = exact_krls(kernel.gram(points, points), lam)
        hits = 0
        for seed in range(40):
            approx = approx_krls(points, kernel, lam, seed)
            ratio = approx / exact
            if ratio.max() <= 4.0 and ratio.min() >= 0.25:
                hits += 1
        assert hits >= 38  # >= 95% of seeded runs

    @pytest.mark.parametrize("regularization", [0.0, -0.1])
    def test_rejects_non_positive_regularization(self, regularization):
        with pytest.raises(ValueError, match="^regularization must be positive$"):
            approx_krls(np.zeros((4, 1)), GaussianKernel(1.0), regularization, 0)

    def test_deterministic_given_seed(self, gaussian_data):
        points, kernel = gaussian_data
        lam = 1.0 / 512
        first = approx_krls(points, kernel, lam, 3)
        second = approx_krls(points, kernel, lam, 3)
        np.testing.assert_array_equal(first, second)

    def test_eigendecompositions_stay_near_budget(self, monkeypatch):
        # The cost claim of the docstring: no n x n eigendecomposition.
        rng = np.random.default_rng(13)
        points = rng.standard_normal((2000, 3))
        kernel = GaussianKernel(median_heuristic(points))
        sizes = []

        def recording_eigh(matrix, name="matrix"):
            sizes.append(matrix.shape[0])
            return psd_eigh(matrix, name)

        monkeypatch.setattr(leverage, "psd_eigh", recording_eigh)
        approx_krls(points, kernel, default_regularization(2000), seed=0)
        assert sizes
        assert max(sizes) < 512

    @pytest.mark.parametrize("n", [40, 2000])
    def test_cost_claim_of_docstring(self, monkeypatch, n):
        # At most H - 1 eigendecompositions for H = max(1, ceil(log2(1 / lambda)))
        # ridge steps, and scores zero outside one set of R = min(n, ceil(q1 /
        # lambda)) rows.  At n = 40 the target ridge exceeds 1/2: one step.
        rng = np.random.default_rng(13)
        points = rng.standard_normal((n, 3))
        kernel = GaussianKernel(median_heuristic(points))
        lam = default_regularization(n)
        sizes = []

        def recording_eigh(matrix, name="matrix"):
            sizes.append(matrix.shape[0])
            return psd_eigh(matrix, name)

        monkeypatch.setattr(leverage, "psd_eigh", recording_eigh)
        scores = approx_krls(points, kernel, lam, seed=0)
        steps = max(1, math.ceil(math.log2(1.0 / lam)))
        assert len(sizes) <= steps - 1
        q1 = leverage._CANDIDATES_PER_INVERSE_RIDGE
        assert np.count_nonzero(scores) == min(n, math.ceil(q1 / lam)) < n

    def test_candidate_scores_estimate_effective_dimension(self):
        # (n / R) * sum(s) over the R candidates of the last step estimates the
        # effective dimension, the sum of the exact scores.  At n = 1000 only
        # 428 rows are candidates, so dictionary weights without the R / n
        # factor read about 1.8 times too high, and with (R / n)^2 about 0.6.
        rng = np.random.default_rng(2)
        n = 1000
        points = rng.standard_normal((n, 3))
        kernel = GaussianKernel(median_heuristic(points))
        lam = default_regularization(n)
        effective_dimension = exact_krls(kernel.gram(points, points), lam).sum()
        ratios = []
        for seed in range(20):
            scores = approx_krls(points, kernel, lam, seed)
            estimate = scores.sum() * n / np.count_nonzero(scores)
            ratios.append(estimate / effective_dimension)
        assert 0.95 <= np.mean(ratios) <= 1.35

    @staticmethod
    def _record_scoring(monkeypatch):
        # (candidates scored, dictionary) of each _dictionary_scores call
        calls = []
        score = leverage._dictionary_scores

        def recording_scores(points, candidates, dictionary, *rest):
            calls.append((candidates.size, dictionary))
            return score(points, candidates, dictionary, *rest)

        monkeypatch.setattr(leverage, "_dictionary_scores", recording_scores)
        return calls

    def test_relabeling_equivariance_in_distribution(self, monkeypatch):
        # Chi-square test: landmarks drawn by their approximate scores from a
        # relabeled dataset are the same point multisets with the same
        # frequencies.  With q1 = 1 and lambda = 1/4 the two ridge steps draw
        # 2 and 4 of the 6 rows, and the second scores against a dictionary.
        # The first step's bound b_1 = min(1, c) is 1: it scores both
        # candidates.
        calls = self._record_scoring(monkeypatch)
        assert self._relabeling_pvalue(monkeypatch) > 1e-3
        assert sum(size for size, _ in calls) == 2 * 4000 * (2 + 4)

    def test_relabeling_equivariance_when_thinned(self, monkeypatch):
        # With c = 1/2 the first step scores only the candidates whose
        # uniform lies below b_1 = 1/2.
        monkeypatch.setattr(leverage, "_DICTIONARY_OVERSAMPLING", 0.5)
        calls = self._record_scoring(monkeypatch)
        assert self._relabeling_pvalue(monkeypatch) > 1e-3
        assert sum(size for size, _ in calls) < 2 * 4000 * (2 + 4)

    @staticmethod
    def _relabeling_pvalue(monkeypatch):
        monkeypatch.setattr(leverage, "_CANDIDATES_PER_INVERSE_RIDGE", 1)
        n, ell, trials = 6, 2, 4000
        points = 0.7 * np.arange(n, dtype=float).reshape(-1, 1)
        shuffled = points[[4, 2, 0, 5, 1, 3]]
        kernel = GaussianKernel(1.0)

        def multiset_counts(source):
            counts = {}
            for seed in range(trials):
                scores = approx_krls(source, kernel, 0.25, seed=seed)
                drawn = sample_landmarks(source, ell, trials + seed, kernel,
                                         scores=scores)
                key = tuple(sorted(float(v) for v in drawn.points[:, 0]))
                counts[key] = counts.get(key, 0) + 1
            return counts

        first = multiset_counts(points)
        second = multiset_counts(shuffled)
        keys = sorted(set(first) | set(second))
        table = np.array([[first.get(k, 0) for k in keys],
                          [second.get(k, 0) for k in keys]])
        return chi2_contingency(table)[1]

    @pytest.mark.parametrize("n", [1_000, 3_001, 20_000])
    def test_thinning_keeps_the_dictionary_of_scoring_every_candidate(
            self, monkeypatch, n):
        # Reference: BLESS that scores every candidate of a step above lambda
        # and keeps those with U_i < p_i, drawing from the same generator.
        # approx_krls scores only the candidates with U_i < b_h, which must
        # leave every step's dictionary row for row the same.
        rng = np.random.default_rng(n)
        points = rng.standard_normal((n, 3))
        kernel = GaussianKernel(median_heuristic(points))
        lam = default_regularization(n)
        q1 = leverage._CANDIDATES_PER_INVERSE_RIDGE
        c = leverage._DICTIONARY_OVERSAMPLING
        score = leverage._dictionary_scores
        calls = self._record_scoring(monkeypatch)
        ridges = [0.5]
        while ridges[-1] / 2 > lam:
            ridges.append(ridges[-1] / 2)
        for seed in range(3):
            calls.clear()
            result = approx_krls(points, kernel, lam, seed)
            assert len(calls) == len(ridges) + 1

            draws = np.random.default_rng(seed)
            dictionary, weights = points[:0], np.empty(0)
            for step, ridge in enumerate(ridges):
                size = min(n, math.ceil(q1 / ridge))
                candidates = draws.choice(n, size=size, replace=False)
                scores = score(points, candidates, dictionary, weights, kernel,
                               ridge * n)
                probabilities = np.minimum(1.0, scores * (c * n / size))
                bound = min(1.0, min(1.0, 1.0 / (ridge * n)) * (c * n / size))
                assert (probabilities <= bound).all()
                uniforms = draws.random(size)
                scored = calls[step][0]
                assert scored == np.count_nonzero(uniforms < bound)
                if n == 20_000:
                    assert scored < 0.3 * size
                keep = uniforms < probabilities
                dictionary = points[candidates[keep]]
                weights = 1.0 / np.sqrt(probabilities[keep] * (size / n))
                np.testing.assert_array_equal(calls[step + 1][1], dictionary)
            size = min(n, math.ceil(q1 / lam))
            candidates = draws.choice(n, size=size, replace=False)
            assert calls[-1][0] == size
            expected = np.zeros(n)
            expected[candidates] = score(points, candidates, dictionary, weights,
                                         kernel, lam * n)
            assert np.array_equal(result != 0, expected != 0)
            np.testing.assert_allclose(result, expected, rtol=1e-12, atol=0)

    def test_steps_that_score_no_candidate_keep_an_empty_dictionary(
            self, monkeypatch):
        # With c = 1e-6 no step above lambda scores a candidate, so every
        # last-step candidate scores against an empty dictionary.
        monkeypatch.setattr(leverage, "_DICTIONARY_OVERSAMPLING", 1e-6)
        calls = self._record_scoring(monkeypatch)
        n = 1000
        rng = np.random.default_rng(5)
        points = rng.standard_normal((n, 3))
        kernel = GaussianKernel(median_heuristic(points))
        lam = default_regularization(n)
        scores = approx_krls(points, kernel, lam, seed=0)
        q1 = leverage._CANDIDATES_PER_INVERSE_RIDGE
        nonzero = scores[scores != 0]
        assert nonzero.size == min(n, math.ceil(q1 / lam))
        np.testing.assert_array_equal(nonzero, min(1.0, 1.0 / (lam * n)))
        assert all(size == 0 and not len(dictionary)
                   for size, dictionary in calls[:-1])

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 3001])
    def test_row_blocks_do_not_change_scores(self, monkeypatch, n):
        # 7-row blocks leave a partial last block at every step; blocks of
        # n rows make every step a single block.
        rng = np.random.default_rng(n)
        points = rng.standard_normal((n, 3))
        kernel = GaussianKernel(median_heuristic(points))
        scores = []
        for rows in (leverage._SCORE_BLOCK_ROWS, 7, n):
            monkeypatch.setattr(leverage, "_SCORE_BLOCK_ROWS", rows)
            scores.append(approx_krls(points, kernel,
                                      default_regularization(n), 4))
        np.testing.assert_allclose(scores[1], scores[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(scores[2], scores[0], rtol=1e-12, atol=0)

    def test_memory_does_not_grow_with_n(self):
        # Storage is O(B * |D| + n * d).  From 8,000 to 32,000 rows the
        # candidate sets, the score vectors and the dictionary with its
        # B x |D| block buffers grow, by far less than the 2 kB per row of one
        # n x |D| float64 matrix at |D| = 256.
        rng = np.random.default_rng(15)
        kernel = GaussianKernel(1.0)
        peaks = []
        for n in (8_000, 32_000):
            points = rng.standard_normal((n, 3))
            tracemalloc.start()
            try:
                approx_krls(points, kernel, default_regularization(n), seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 128 * (32_000 - 8_000)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    def test_fresh_process_reuses_block_buffers(self):
        # In a process that has freed no large array, glibc maps every
        # per-block temporary of 1-2 MB afresh: about 512 faults each, so
        # fresh kernel-block and projection arrays in each of the ~80 blocks
        # cost ~50k faults at n = 40,000.  Buffers shared by all blocks of a
        # ridge step are mapped once per step.
        probe = """
import resource, numpy as np
from nysmmd import GaussianKernel, approx_krls, default_regularization
points = np.random.default_rng(0).standard_normal((40_000, 3))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
approx_krls(points, GaussianKernel(1.9), default_regularization(40_000), seed=0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = str(Path(nysmmd.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=300)
        assert int(result.stdout) < 20_000

    def test_recursive_path_null_rank_is_uniform(self, monkeypatch):
        # Landmarks drawn from approximate (not exact) scores on the pooled
        # data keep the observed rank uniform under the null.
        assert self._recursive_null_rank_pvalue(monkeypatch) > 1e-3

    def test_recursive_path_null_rank_is_uniform_in_row_blocks(self, monkeypatch):
        # The 8 candidates of the last ridge step span three 3-row blocks.
        monkeypatch.setattr(leverage, "_SCORE_BLOCK_ROWS", 3)
        assert self._recursive_null_rank_pvalue(monkeypatch) > 1e-3

    def test_recursive_path_null_rank_is_uniform_when_thinned(self, monkeypatch):
        # With c = 1/2 the two steps above lambda score only the candidates
        # whose uniform lies below b_h = 1/2, and some second steps score none
        # against a nonempty dictionary.
        monkeypatch.setattr(leverage, "_DICTIONARY_OVERSAMPLING", 0.5)
        calls = self._record_scoring(monkeypatch)
        assert self._recursive_null_rank_pvalue(monkeypatch) > 1e-3
        assert sum(size for size, _ in calls) < 2000 * (2 + 4 + 8)
        assert any(size == 0 and len(dictionary) for size, dictionary in calls)

    @staticmethod
    def _recursive_null_rank_pvalue(monkeypatch):
        # With q1 = 1 and lambda = 1/8 the three ridge steps draw 2, 4 and 8
        # of the 10 pooled rows; the last two score against a dictionary.
        monkeypatch.setattr(leverage, "_CANDIDATES_PER_INVERSE_RIDGE", 1)
        n_perms = 9
        kernel = GaussianKernel(1.0)
        counts = np.zeros(n_perms + 1, dtype=int)
        for rep in range(2000):
            rng = np.random.default_rng([22, rep])
            x = rng.standard_normal((5, 2))
            y = rng.standard_normal((5, 2))
            pooled = PooledSample.from_samples(x, y)
            scores = approx_krls(pooled.points, kernel, 1.0 / 8,
                                 seed=int(rng.integers(2**63)))
            landmarks = sample_landmarks(pooled.points, 4,
                                         int(rng.integers(2**63)), kernel,
                                         scores=scores)
            fmap = build_nystrom(landmarks.points, kernel, landmarks.inverse_factor)
            stats = permuted_statistics(pooled, fmap, n_perms,
                                        seed=int(rng.integers(2**63)))
            counts[int((stats < stats[0]).sum())] += 1
        return chisquare(counts).pvalue


class TestSampleLandmarks:
    # The i.i.d. draw that sample_landmarks prunes is leverage._draw_rows.

    def test_single_point_dataset(self):
        points = np.array([[1.0, 2.0]])
        drawn = leverage._draw_rows(points, 5, 0, None)
        np.testing.assert_array_equal(drawn, np.repeat(points, 5, axis=0))
        landmarks = sample_landmarks(points, ell=5, seed=0, kernel=GaussianKernel(1.0))
        np.testing.assert_array_equal(landmarks.points, points)

    def test_one_hot_scores_pick_single_index(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((7, 2))
        drawn = leverage._draw_rows(points, 6, 1, np.eye(7)[3])
        np.testing.assert_array_equal(drawn, np.repeat(points[3:4], 6, axis=0))
        landmarks = sample_landmarks(points, ell=6, seed=1, kernel=GaussianKernel(1.0),
                                     scores=np.eye(7)[3])
        np.testing.assert_array_equal(landmarks.points, points[3:4])

    def test_uniform_frequencies_concentrate(self):
        points = np.arange(10, dtype=float).reshape(-1, 1)
        drawn = leverage._draw_rows(points, 100_000, 2, None)
        counts = np.bincount(drawn[:, 0].astype(int), minlength=10)
        sigma = np.sqrt(0.1 * 0.9 / 100_000)
        assert np.abs(counts / 100_000 - 0.1).max() <= 3 * sigma

    def test_normalization_invariance(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((20, 2))
        base = exact_krls(GaussianKernel(1.0).gram(points, points), 0.05)
        first = leverage._draw_rows(points, 50, 3, base)
        second = leverage._draw_rows(points, 50, 3, base * 17.0)
        np.testing.assert_array_equal(first, second)

    def test_all_zero_scores_rejected(self):
        with pytest.raises(ValueError, match="all leverage scores are zero"):
            sample_landmarks(np.zeros((4, 1)), ell=2, seed=0, kernel=GaussianKernel(1.0),
                             scores=np.zeros(4))

    @pytest.mark.parametrize("scores", [
        [0.5, np.nan, 0.5, 0.5],
        [np.nan] * 4,
        [0.5, np.inf, 0.5, 0.5],
        [-1.0, 0.0, 0.0, 0.0],  # a sum below zero
        [-1.0, 0.5, 0.5, 0.0],  # a sum of exactly zero
        [-0.1, 0.5, 0.5, 0.5],  # a positive sum
    ])
    def test_non_finite_or_negative_scores_rejected(self, scores):
        with pytest.raises(ValueError,
                           match="leverage scores must be finite and non-negative"):
            sample_landmarks(np.zeros((4, 1)), ell=2, seed=0, kernel=GaussianKernel(1.0),
                             scores=np.array(scores))

    def test_scores_of_another_length_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^scores have length \(3,\), expected \(4,\)$"):
            sample_landmarks(np.zeros((4, 1)), ell=2, seed=0, kernel=GaussianKernel(1.0),
                             scores=np.ones(3))

    def test_returned_gram_is_the_kernel_matrix_of_the_kept_rows(self):
        # 30 draws from 8 rows repeat rows, which the pruning drops; the
        # returned factor is L^-1 for the Cholesky factor L of the kept rows'
        # kernel matrix
        rng = np.random.default_rng(14)
        points = rng.standard_normal((8, 2))
        kernel = GaussianKernel(1.3)
        landmarks = sample_landmarks(points, ell=30, seed=2, kernel=kernel)
        kept = landmarks.points.shape[0]
        assert kept <= 8
        assert landmarks.inverse_factor.shape == (kept, kept)
        factor = np.linalg.inv(landmarks.inverse_factor)
        np.testing.assert_allclose(np.tril(factor), factor, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(factor @ factor.T,
                                   kernel.gram(landmarks.points, landmarks.points),
                                   rtol=0.0, atol=1e-13)

    @staticmethod
    def _level_cell():
        x = sample_correlated_gaussians(500, 3, 0.5, seed=0)
        y = sample_correlated_gaussians(500, 3, 0.5, seed=1)
        points = PooledSample.from_samples(x, y).points
        return points, 32, GaussianKernel(median_heuristic(points, seed=0))

    @staticmethod
    def _large_draw():
        points = np.random.default_rng(16).standard_normal((5_000, 3))
        return points, 300, GaussianKernel(median_heuristic(points, seed=0))

    @staticmethod
    def _wide_bandwidth():
        points = np.random.default_rng(1000).standard_normal((1000, 3))
        return points, 24, GaussianKernel(20.0)

    @staticmethod
    def _duplicated_rows():
        points = np.repeat(np.random.default_rng(17).standard_normal((5, 2)), 4, axis=0)
        return points, 30, GaussianKernel(1.0)

    @staticmethod
    def _all_equal():
        return np.full((10, 2), 0.5), 6, GaussianKernel(1.0)

    @pytest.mark.parametrize("case", ["_level_cell", "_large_draw", "_wide_bandwidth",
                                      "_duplicated_rows", "_all_equal"])
    def test_every_returned_set_is_certified(self, case):
        # Whatever the draw, the kernel matrix of the kept rows passes the
        # certification the map relies on, at the floor rank_tolerance * r,
        # and no two kept rows are equal: repeats are pruned, and all-equal
        # points keep draw 0 alone.
        points, ell, kernel = getattr(self, case)()
        for seed in range(3):
            kept = sample_landmarks(points, ell, seed, kernel).points
            r = kept.shape[0]
            assert r >= 1
            assert certified_inverse_factor(
                kernel.gram(kept, kept), NystromMap.rank_tolerance * r) is not None
            assert np.unique(kept, axis=0).shape[0] == r

    def test_invalid_ell(self):
        with pytest.raises(ValueError, match="ell"):
            sample_landmarks(np.zeros((3, 1)), ell=0, seed=0, kernel=GaussianKernel(1.0))

    def test_kept_draws_match_residual_oracle(self):
        # Each draw is kept when its squared kernel residual against all
        # earlier draws, 1 - k' K^+ k by least squares on kernel values from
        # explicit differences, exceeds the tolerance: first 1e-10 * ell,
        # raised tenfold while certified_inverse_factor refuses the kept
        # rows' kernel matrix at 1e-10 * r.  The rows hold a pair 2e-3 apart
        # (residual ~4e-6, kept), a pair 1e-7 apart (residual ~1e-14,
        # dropped) and four rows 0.03 apart, whose last residual, about
        # 3e-9, is kept at first but leaves a set that fails certification.
        # Every residual lies at least a factor 2 from each tolerance tried,
        # so the comparison does not hinge on round-off.
        points = np.array([[0.0], [1.0], [1.0 + 2e-3], [2.5], [2.5 + 1e-7], [4.0],
                           [6.0], [6.03], [6.06], [6.09]])
        ell = 12

        def k(a, b):
            return np.exp(-np.subtract.outer(a, b) ** 2 / 2.0)

        kept_pair = raised = 0
        for seed in range(20):
            drawn = leverage._draw_rows(points, ell, seed, None)[:, 0]
            residuals = np.full(ell, np.inf)  # draw 0 is always kept
            for j in range(1, ell):
                column = k(drawn[:j], drawn[j])
                coefficients = np.linalg.lstsq(k(drawn[:j], drawn[:j]), column,
                                               rcond=None)[0]
                residuals[j] = 1.0 - column @ coefficients
            tolerance = 1e-10 * ell
            while True:
                assert np.all((np.abs(residuals) > 2 * tolerance)
                              | (np.abs(residuals) < tolerance / 2))
                expected = drawn[residuals > tolerance]
                if certified_inverse_factor(k(expected, expected),
                                            1e-10 * expected.size) is not None:
                    break
                tolerance *= 10
                raised += 1
            landmarks = sample_landmarks(points, ell, seed, GaussianKernel(1.0))
            np.testing.assert_array_equal(landmarks.points[:, 0], expected)
            kept = set(landmarks.points[:, 0].tolist())
            assert not {2.5, 2.5 + 1e-7} <= kept
            kept_pair += {1.0, 1.0 + 2e-3} <= kept
        assert kept_pair > 0
        assert raised > 0

    def test_relabeling_equivariance_in_distribution(self):
        # Chi-square test: sampling landmarks from a relabeled dataset draws
        # the same pruned point multisets with the same frequencies.
        points = np.arange(4, dtype=float).reshape(-1, 1)
        assert self._relabeling_pvalue(points) > 1e-3

    def test_relabeling_equivariance_with_near_duplicate(self):
        # The last row is 1e-7 from the third, so one of the two is pruned:
        # whichever is drawn first is kept.
        points = np.array([[0.0], [1.0], [2.0], [2.0 + 1e-7]])
        assert self._relabeling_pvalue(points) > 1e-3

    def test_relabeling_equivariance_after_a_retry(self):
        # The last row is 1.7e-5 from the third: their residual, about
        # 2.9e-10, exceeds the first tolerance 2e-10, but the pair's kernel
        # matrix is refused at the floor 2e-10, so a draw of both keeps only
        # the first after the tolerance is raised.
        points = np.array([[0.0], [1.0], [2.0], [2.0 + 1.7e-5]])
        kernel = GaussianKernel(1.0)
        pair = kernel.gram(points[2:], points[2:])
        assert 1.0 - pair[0, 1] ** 2 > 2e-10
        assert certified_inverse_factor(pair, 2e-10) is None
        assert self._relabeling_pvalue(points) > 1e-3

    @staticmethod
    def _relabeling_pvalue(points):
        ell, trials = 2, 4000
        shuffled = points[[2, 0, 3, 1]]
        kernel = GaussianKernel(1.0)

        def multiset_counts(source):
            counts = {}
            for seed in range(trials):
                drawn = sample_landmarks(source, ell, seed, kernel)
                key = tuple(sorted(float(v) for v in drawn.points[:, 0]))
                counts[key] = counts.get(key, 0) + 1
            return counts

        first = multiset_counts(points)
        second = multiset_counts(shuffled)
        keys = sorted(set(first) | set(second))
        table = np.array([[first.get(k, 0) for k in keys],
                          [second.get(k, 0) for k in keys]])
        return chi2_contingency(table)[1]


class TestDefaultRegularization:
    def test_matches_formula(self):
        assert default_regularization(100) == pytest.approx(
            16.0 * np.log(4.0 / 0.05) / 100, rel=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            default_regularization(0)
