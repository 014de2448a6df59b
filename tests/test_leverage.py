import numpy as np
import pytest
from scipy.stats import chi2_contingency

from nysmmd import (
    GaussianKernel,
    approx_krls,
    default_regularization,
    effective_dimension,
    exact_krls,
    median_heuristic,
    sample_landmarks,
)


def random_psd(rng, n, rank=None):
    """Random PSD matrix with unit-scale spectrum."""
    rank = rank or n
    a = rng.standard_normal((n, rank))
    k = a @ a.T
    return k / np.linalg.norm(k, 2)


class TestExactKrls:
    def test_identity_matrix(self):
        n, lam = 6, 0.3
        scores = exact_krls(np.eye(n), lam).scores
        np.testing.assert_allclose(scores, np.full(n, 1.0 / (1.0 + lam * n)),
                                   rtol=1e-12)

    def test_huge_ridge_kills_scores(self):
        rng = np.random.default_rng(0)
        k = random_psd(rng, 8)
        scores = exact_krls(k, 1e12 / 8).scores  # lambda * n = 1e12
        assert (scores <= 1e-11).all()

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(1)
        k = random_psd(rng, 6)
        lam = 0.1
        scores = exact_krls(k, lam).scores
        shifted = k + lam * 6 * np.eye(6)
        for i in range(6):
            solved = np.linalg.solve(shifted, k[:, i])
            assert scores[i] == pytest.approx(solved[i], abs=1e-10)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        scores = exact_krls(random_psd(rng, 20), 0.01).scores
        assert (scores >= 0.0).all()
        assert (scores < 1.0).all()

    def test_sum_matches_effective_dimension(self):
        rng = np.random.default_rng(3)
        k = random_psd(rng, 12)
        lam = 0.05
        total = exact_krls(k, lam).scores.sum()
        assert total == pytest.approx(effective_dimension(k, lam), rel=1e-8)

    def test_monotone_in_regularization(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            k = random_psd(rng, 10)
            small = exact_krls(k, 0.01).scores
            large = exact_krls(k, 0.1).scores
            assert (large <= small + 1e-10).all()

    def test_rejects_non_symmetric(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            exact_krls(bad, 0.1)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            exact_krls(bad, 0.1)


class TestEffectiveDimension:
    def test_identity_matrix(self):
        n, lam = 7, 0.2
        assert effective_dimension(np.eye(n), lam) == pytest.approx(
            n / (1.0 + lam * n), rel=1e-12)

    def test_tiny_ridge_approaches_rank(self):
        rng = np.random.default_rng(5)
        k = random_psd(rng, 9)
        assert effective_dimension(k, 1e-14) == pytest.approx(9, abs=1e-3)

    def test_equals_score_sum(self):
        rng = np.random.default_rng(6)
        k = random_psd(rng, 8)
        assert effective_dimension(k, 0.05) == pytest.approx(
            exact_krls(k, 0.05).scores.sum(), abs=1e-10)

    def test_decreasing_in_regularization(self):
        rng = np.random.default_rng(7)
        k = random_psd(rng, 15)
        values = [effective_dimension(k, lam) for lam in (0.001, 0.01, 0.1, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def gaussian_data():
    rng = np.random.default_rng(512)
    points = rng.standard_normal((512, 3))
    kernel = GaussianKernel(median_heuristic(points))
    return points, kernel


class TestApproxKrls:

    def test_fallback_is_bit_identical_to_exact(self, gaussian_data):
        points, kernel = gaussian_data
        small = points[:200]
        lam = 1.0 / 200
        via_approx = approx_krls(small, kernel, lam, seed=0,
                                 fallback_threshold=2048)
        direct = exact_krls(kernel.gram(small, small), lam)
        np.testing.assert_array_equal(via_approx.scores, direct.scores)
        assert via_approx.kind == "exact"

    def test_factor_four_sandwich(self, gaussian_data):
        points, kernel = gaussian_data
        lam = 1.0 / 512
        exact = exact_krls(kernel.gram(points, points), lam).scores
        hits = 0
        for seed in range(40):
            approx = approx_krls(points, kernel, lam, seed, budget=192,
                                 fallback_threshold=256).scores
            ratio = approx / exact
            if ratio.max() <= 4.0 and ratio.min() >= 0.25:
                hits += 1
        assert hits >= 38  # >= 95% of seeded runs

    def test_deterministic_given_seed(self, gaussian_data):
        points, kernel = gaussian_data
        lam = 1.0 / 512
        first = approx_krls(points, kernel, lam, 3, budget=128,
                            fallback_threshold=256).scores
        second = approx_krls(points, kernel, lam, 3, budget=128,
                             fallback_threshold=256).scores
        np.testing.assert_array_equal(first, second)

    def test_records_approximation_parameters(self, gaussian_data):
        points, kernel = gaussian_data
        result = approx_krls(points, kernel, 1.0 / 512, 0, budget=128,
                             fallback_threshold=256)
        assert result.kind == "approximate"
        assert result.regularization == 1.0 / 512

    def test_budget_floor(self, gaussian_data):
        points, kernel = gaussian_data
        with pytest.raises(ValueError, match="budget"):
            approx_krls(points, kernel, 0.01, 0, budget=2,
                        fallback_threshold=16)


class TestSampleLandmarks:
    def test_single_point_dataset(self):
        points = np.array([[1.0, 2.0]])
        landmarks = sample_landmarks(points, ell=5, seed=0)
        np.testing.assert_array_equal(landmarks.indices, np.zeros(5, dtype=int))
        assert landmarks.points.shape == (5, 2)

    def test_one_hot_scores_pick_single_index(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((7, 2))
        scores = exact_krls(np.eye(7), 0.1)
        one_hot = type(scores)(scores=np.eye(7)[3], regularization=0.1,
                               kind="exact")
        landmarks = sample_landmarks(points, ell=6, seed=1, scores=one_hot)
        np.testing.assert_array_equal(landmarks.indices, np.full(6, 3))
        assert landmarks.sampler == "exact_krls"

    def test_uniform_frequencies_concentrate(self):
        points = np.arange(10, dtype=float).reshape(-1, 1)
        landmarks = sample_landmarks(points, ell=100_000, seed=2)
        counts = np.bincount(landmarks.indices, minlength=10)
        sigma = np.sqrt(0.1 * 0.9 / 100_000)
        assert np.abs(counts / 100_000 - 0.1).max() <= 3 * sigma

    def test_normalization_invariance(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((20, 2))
        base = exact_krls(GaussianKernel(1.0).gram(points, points), 0.05)
        scaled = type(base)(scores=base.scores * 17.0, regularization=0.05,
                            kind="exact")
        first = sample_landmarks(points, ell=50, seed=3, scores=base)
        second = sample_landmarks(points, ell=50, seed=3, scores=scaled)
        np.testing.assert_array_equal(first.indices, second.indices)

    def test_all_zero_scores_rejected(self):
        points = np.zeros((4, 1))
        zero = exact_krls(np.eye(4), 0.1)
        dead = type(zero)(scores=np.zeros(4), regularization=0.1, kind="exact")
        with pytest.raises(ValueError, match="zero"):
            sample_landmarks(points, ell=2, seed=0, scores=dead)

    def test_invalid_ell(self):
        with pytest.raises(ValueError, match="ell"):
            sample_landmarks(np.zeros((3, 1)), ell=0, seed=0)

    def test_relabeling_equivariance_in_distribution(self):
        # Chi-square test: sampling landmarks from a relabeled dataset draws
        # the same point multisets with the same frequencies.
        n, ell, trials = 4, 2, 4000
        points = np.arange(n, dtype=float).reshape(-1, 1)
        relabel = np.array([2, 0, 3, 1])
        shuffled = points[relabel]

        def multiset_counts(source):
            counts = {}
            for seed in range(trials):
                drawn = sample_landmarks(source, ell, seed=seed)
                key = tuple(sorted(float(v) for v in drawn.points[:, 0]))
                counts[key] = counts.get(key, 0) + 1
            return counts

        first = multiset_counts(points)
        second = multiset_counts(shuffled)
        keys = sorted(set(first) | set(second))
        table = np.array([[first.get(k, 0) for k in keys],
                          [second.get(k, 0) for k in keys]])
        _, p_value, _, _ = chi2_contingency(table)
        assert p_value > 1e-3


class TestDefaultRegularization:
    def test_matches_formula(self):
        n, delta = 100, 0.05
        assert default_regularization(n, delta) == pytest.approx(
            16.0 * np.log(4.0 / delta) / n, rel=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            default_regularization(0)
        with pytest.raises(ValueError):
            default_regularization(10, delta=1.5)
