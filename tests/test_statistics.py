import math

import numpy as np
import pytest
from scipy.stats import chisquare

from nysmmd import (
    GaussianKernel,
    PooledSample,
    build_nystrom,
    exact_mmd,
    feature_mmd,
    permuted_statistics,
    sample_landmarks,
    signed_weights,
)
from nysmmd.leverage import LandmarkSet
from nysmmd.statistics import accumulate_weighted_features, permutation_weights


def landmark_set(points):
    points = np.asarray(points, dtype=float)
    return LandmarkSet(indices=np.arange(points.shape[0]),
                       points=points, sampler="uniform")


def pooled_map(x, y, ell, seed=0, bandwidth=1.0):
    """Uniform-landmark map on the pooled data, for test convenience."""
    pooled = PooledSample.from_samples(x, y)
    kernel = GaussianKernel(bandwidth)
    landmarks = sample_landmarks(pooled.points, ell, seed=seed)
    return pooled, build_nystrom(landmarks, kernel)


class TestExactMmd:
    def test_identical_multisets(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 3))
        assert exact_mmd(x, x[rng.permutation(9)], GaussianKernel(1.0)) == 0.0

    def test_single_point_pair(self):
        kernel = GaussianKernel(0.9)
        x = np.array([[0.0, 1.0]])
        y = np.array([[2.0, -1.0]])
        expected = math.sqrt(2.0 - 2.0 * kernel(x[0], y[0]))
        assert exact_mmd(x, y, kernel) == pytest.approx(expected, abs=1e-14)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 2))
        y = rng.standard_normal((5, 2))
        kernel = GaussianKernel(1.4)
        acc = 0.0
        for a in x:
            for b in x:
                acc += kernel(a, b) / 49
        for a in y:
            for b in y:
                acc += kernel(a, b) / 25
        for a in x:
            for b in y:
                acc -= 2.0 * kernel(a, b) / 35
        assert exact_mmd(x, y, kernel) == pytest.approx(math.sqrt(acc), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            exact_mmd(np.zeros((2, 2)), np.zeros((2, 3)), GaussianKernel(1.0))


class TestFeatureMmd:
    def test_identical_multisets(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 2))
        _, fmap = pooled_map(x, x, ell=6)
        assert feature_mmd(x, x[rng.permutation(8)], fmap) == pytest.approx(
            0.0, abs=1e-14)

    def test_full_pooled_landmarks_recover_exact_mmd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((15, 3)) + 0.4
        kernel = GaussianKernel(1.0)
        pooled = PooledSample.from_samples(x, y)
        fmap = build_nystrom(landmark_set(pooled.points), kernel)
        assert feature_mmd(x, y, fmap) == pytest.approx(
            exact_mmd(x, y, kernel), abs=1e-8)

    def test_single_landmark_scalar_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((4, 2))
        z = np.array([[0.3, -0.7]])
        kernel = GaussianKernel(1.0)
        fmap = build_nystrom(landmark_set(z), kernel)
        expected = abs(np.mean([kernel(z[0], p) for p in x])
                       - np.mean([kernel(z[0], p) for p in y]))
        assert feature_mmd(x, y, fmap) == pytest.approx(expected, abs=1e-12)

    def test_projection_never_exceeds_exact(self):
        rng = np.random.default_rng(5)
        kernel = GaussianKernel(1.0)
        for trial in range(20):
            x = rng.standard_normal((25, 2))
            y = rng.standard_normal((20, 2)) + rng.uniform(0, 1)
            pooled = PooledSample.from_samples(x, y)
            landmarks = sample_landmarks(pooled.points,
                                         ell=int(rng.integers(1, 12)), seed=trial)
            fmap = build_nystrom(landmarks, kernel)
            assert feature_mmd(x, y, fmap) <= exact_mmd(x, y, kernel) + 1e-8

    def test_approximation_improves_with_landmarks(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((256, 3))
        y = rng.standard_normal((256, 3)) + 0.25
        kernel = GaussianKernel(2.3)
        exact = exact_mmd(x, y, kernel)
        pooled = PooledSample.from_samples(x, y)
        mean_errors = []
        for ell in (4, 16, 64, 512):
            errors = []
            for seed in range(50):
                landmarks = sample_landmarks(pooled.points, ell, seed=seed)
                fmap = build_nystrom(landmarks, kernel)
                errors.append(abs(exact - feature_mmd(x, y, fmap)))
            mean_errors.append(np.mean(errors))
        assert all(a >= b for a, b in zip(mean_errors, mean_errors[1:]))


class TestPermutedStatistics:
    def test_index_zero_is_unpermuted_statistic(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((9, 2)) + 0.5
        pooled, fmap = pooled_map(x, y, ell=5)
        stats = permuted_statistics(pooled, fmap, n_permutations=20, seed=3)
        assert stats[0] == pytest.approx(feature_mmd(x, y, fmap), abs=1e-12)

    def test_rows_match_repartition_oracle(self):
        # Re-derive each permuted statistic from scratch: recover the label
        # assignment from the signed weights and average features directly.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((7, 2)) - 0.3
        pooled, fmap = pooled_map(x, y, ell=4)
        seed = 11
        stats = permuted_statistics(pooled, fmap, n_permutations=15, seed=seed)
        weights = permutation_weights(pooled, 15, seed)
        feats = fmap.features(pooled.points)
        for p in range(16):
            positive = weights[p] > 0
            mean_x = feats[positive].mean(axis=0)
            mean_y = feats[~positive].mean(axis=0)
            assert stats[p] == pytest.approx(
                float(np.linalg.norm(mean_x - mean_y)), abs=1e-10)

    def test_all_identical_points_give_zero(self):
        x = np.ones((5, 2))
        y = np.ones((6, 2))
        pooled, fmap = pooled_map(x, y, ell=3)
        stats = permuted_statistics(pooled, fmap, n_permutations=10, seed=0)
        np.testing.assert_allclose(stats, 0.0, atol=1e-12)

    def test_chunk_order_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((300, 3))
        y = rng.standard_normal((200, 3))
        pooled, fmap = pooled_map(x, y, ell=8)
        base = permuted_statistics(pooled, fmap, 25, seed=1, chunk_size=1024)
        for chunk in (7, 64, 499):
            other = permuted_statistics(pooled, fmap, 25, seed=1,
                                        chunk_size=chunk)
            np.testing.assert_allclose(other, base, atol=1e-10)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2))
        pooled, fmap = pooled_map(x, y, ell=4)
        first = permuted_statistics(pooled, fmap, 12, seed=5)
        second = permuted_statistics(pooled, fmap, 12, seed=5)
        np.testing.assert_array_equal(first, second)

    def test_null_rank_is_uniform(self):
        # Exchangeability: the observed statistic's rank among all P+1
        # replicates is uniform under the null.
        n_perms = 9
        counts = np.zeros(n_perms + 1, dtype=int)
        for rep in range(2000):
            rng = np.random.default_rng([21, rep])
            x = rng.standard_normal((5, 2))
            y = rng.standard_normal((5, 2))
            pooled = PooledSample.from_samples(x, y)
            landmarks = sample_landmarks(pooled.points, 4,
                                         seed=int(rng.integers(2**63)))
            fmap = build_nystrom(landmarks, GaussianKernel(1.0))
            stats = permuted_statistics(pooled, fmap, n_perms,
                                        seed=int(rng.integers(2**63)))
            counts[int((stats < stats[0]).sum())] += 1
        assert chisquare(counts).pvalue > 1e-3


class TestPooledSample:
    def test_stacks_in_order(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        y = -np.arange(4, dtype=float).reshape(2, 2)
        pooled = PooledSample.from_samples(x, y)
        np.testing.assert_array_equal(pooled.points[:3], x)
        np.testing.assert_array_equal(pooled.points[3:], y)
        assert pooled.n == 5

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            PooledSample(points=np.zeros((3, 1)), n_x=3, n_y=0)

    def test_signed_weights_structure(self):
        weights = signed_weights(4, 6)
        assert weights[weights > 0].sum() == pytest.approx(1.0)
        assert weights[weights < 0].sum() == pytest.approx(-1.0)
        assert (weights > 0).sum() == 4
