import numpy as np
import pytest

from helpers import features, nystrom_map, scalar_kernel
from nysmmd import (
    GaussianKernel,
    NystromMap,
    PooledSample,
    build_nystrom,
    build_rff,
    decide,
    median_heuristic,
    permuted_statistics,
    sample_correlated_gaussians,
    sample_landmarks,
)
from nysmmd import leverage, linalg
from nysmmd.linalg import psd_eigh


def recorded_eigh(monkeypatch) -> list:
    """Sizes of the matrices eigendecomposed through linalg or leverage from now on."""
    sizes = []

    def recording_eigh(matrix, name="matrix"):
        sizes.append(len(matrix))
        return psd_eigh(matrix, name)

    monkeypatch.setattr(linalg, "psd_eigh", recording_eigh)
    monkeypatch.setattr(leverage, "psd_eigh", recording_eigh)
    return sizes


class TestBuildNystrom:
    def test_single_landmark_transform_is_identity(self):
        fmap = nystrom_map([[2.0, -1.0]], GaussianKernel(1.5))
        np.testing.assert_allclose(fmap.transform, [[1.0]], atol=1e-12)

    def test_landmark_gram_reproduction(self):
        rng = np.random.default_rng(0)
        landmarks = rng.standard_normal((12, 3)) * 3.0  # well separated
        kernel = GaussianKernel(1.0)
        fmap = nystrom_map(landmarks, kernel)
        feats = features(fmap, landmarks)
        np.testing.assert_allclose(feats @ feats.T,
                                   kernel.gram(landmarks, landmarks), atol=1e-8)

    @pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-6])
    def test_uncertified_landmarks_raise(self, offset):
        # A duplicated or near-duplicate landmark leaves its kernel matrix
        # (numerically) singular: the certified call refuses it, and the map
        # raises instead of cutting directions.
        rng = np.random.default_rng(11)
        base = rng.standard_normal((6, 2))
        landmarks = np.vstack([base, base[2] + offset])
        with pytest.raises(ValueError, match="not certified"):
            nystrom_map(landmarks, GaussianKernel(0.8))
        with pytest.raises(ValueError, match="not certified"):
            build_nystrom(landmarks, GaussianKernel(0.8), None)

    def test_transform_is_thin_factor_of_pseudo_inverse(self):
        rng = np.random.default_rng(2)
        landmarks = rng.standard_normal((10, 3))
        kernel = GaussianKernel(1.2)
        fmap = nystrom_map(landmarks, kernel)
        transform = fmap.transform
        gram = kernel.gram(landmarks, landmarks)
        np.testing.assert_allclose(transform @ transform.T,
                                   np.linalg.pinv(gram, rcond=1e-10, hermitian=True),
                                   rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(transform.T @ gram @ transform,
                                   np.eye(transform.shape[1]), atol=1e-8)

    def test_gram_of_other_landmarks_rejected(self):
        landmarks = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(ValueError, match="inverse_factor has shape"):
            build_nystrom(landmarks, GaussianKernel(1.0), np.eye(2))

    def test_full_coverage_reproduces_exact_gram(self):
        rng = np.random.default_rng(3)
        pooled = rng.standard_normal((40, 2))
        kernel = GaussianKernel(1.0)
        fmap = nystrom_map(pooled, kernel)
        feats = features(fmap, pooled)
        np.testing.assert_allclose(feats @ feats.T, kernel.gram(pooled, pooled),
                                   atol=1e-8)


class TestCertifiedFactor:
    """The one map T = L^-T against the eigen cutoff it replaces."""

    def test_level_cell_maps_match_the_eigen_cutoff(self, monkeypatch):
        # The n = 500 + 500, ell = 32 level-study cell.  Its landmark sets
        # are far from the cutoff (smallest eigenvalue 3e-9 to 7e-6 of the
        # largest over these seeds, against 1e-10), so the eigen cutoff
        # keeps every pair; the statistics of T = L^-T, formed without an
        # eigendecomposition, match those of the thin eigen factor of the
        # matrix the sampler factored last, with the same decisions.
        sizes = recorded_eigh(monkeypatch)
        factored = []

        def recording_factor(matrix, floor):
            factored.append(matrix)
            return linalg.certified_inverse_factor(matrix, floor)

        monkeypatch.setattr(leverage, "certified_inverse_factor", recording_factor)
        decisions = []
        for seed in range(200):
            x = sample_correlated_gaussians(500, 3, 0.5, seed=2 * seed)
            y = sample_correlated_gaussians(500, 3, 0.5, seed=2 * seed + 1)
            pooled = PooledSample.from_samples(x, y)
            kernel = GaussianKernel(median_heuristic(pooled.points, seed=seed))
            landmarks = sample_landmarks(pooled.points, 32, seed, kernel)
            fmap = build_nystrom(landmarks.points, kernel, landmarks.inverse_factor)
            eigenvalues, eigenvectors = psd_eigh(factored[-1])
            assert eigenvalues[0] > NystromMap.rank_tolerance * eigenvalues[-1]
            eigen_map = NystromMap(landmarks=fmap.landmarks, kernel=kernel,
                                   transform=eigenvectors / np.sqrt(eigenvalues))
            statistics = permuted_statistics(pooled, fmap, 199, seed)
            expected = permuted_statistics(pooled, eigen_map, 199, seed)
            np.testing.assert_allclose(statistics, expected, rtol=1e-10, atol=0.0)
            decision = decide(statistics, 0.05, 0.5).reject
            assert decision == decide(expected, 0.05, 0.5).reject
            decisions.append(decision)
        assert sizes == []
        assert 0 < sum(decisions) < 40  # about 10 of 200 at level 0.05


class TestNystromApply:
    def test_landmark_feature_has_unit_norm_when_full_rank(self):
        rng = np.random.default_rng(4)
        landmarks = rng.standard_normal((8, 3)) * 2.0
        fmap = nystrom_map(landmarks, GaussianKernel(1.0))
        assert np.linalg.norm(features(fmap, landmarks[:1])[0]) == pytest.approx(
            1.0, abs=1e-8)

    def test_contraction_everywhere(self):
        rng = np.random.default_rng(5)
        landmarks = rng.standard_normal((16, 3))
        fmap = nystrom_map(landmarks, GaussianKernel(0.9))
        queries = rng.standard_normal((10_000, 3))
        norms_sq = np.einsum("ij,ij->i", features(fmap, queries),
                             features(fmap, queries))
        assert norms_sq.max() <= 1.0 + 1e-10

    def test_single_landmark_map_is_kernel_slice(self):
        landmark = np.array([[0.5, -0.25]])
        kernel = GaussianKernel(1.1)
        fmap = nystrom_map(landmark, kernel)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(features(fmap, x[None])[0],
                                   [scalar_kernel(landmark[0], x, 1.1)], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        fmap = nystrom_map([[0.0, 0.0]], GaussianKernel(1.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            features(fmap, np.zeros((2, 3)))

    def test_dimension_attribute(self):
        fmap = nystrom_map(np.zeros((5, 2)) + np.arange(5)[:, None],
                             GaussianKernel(1.0))
        assert fmap.dimension == 5


class TestBuildRff:
    def test_self_inner_product_is_exactly_one(self):
        rng = np.random.default_rng(6)
        fmap = build_rff(3, 64, GaussianKernel(1.0), seed=0)
        for x in rng.standard_normal((20, 3)):
            feats = features(fmap, x[None])[0]
            assert feats @ feats == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_concentrate_on_kernel(self):
        # The estimator variance is (1 + k^4)/2 - k^2 per cos/sin pair; at
        # moderate separation (k around 0.5) the 0.05 window is >3 sigma wide
        # for 1024 pairs, so at least 99% of seeded maps must land inside.
        rng = np.random.default_rng(7)
        kernel = GaussianKernel(1.3)
        x = 0.5 * rng.standard_normal(4)
        y = 0.5 * rng.standard_normal(4)
        target = scalar_kernel(x, y, 1.3)
        hits = 0
        trials = 200
        for seed in range(trials):
            fmap = build_rff(4, 2048, kernel, seed)
            approx = float(features(fmap, x[None])[0] @ features(fmap, y[None])[0])
            hits += abs(approx - target) <= 0.05
        assert hits >= int(0.99 * trials)

    def test_frequencies_reproduced_bit_exactly(self):
        kernel = GaussianKernel(0.7)
        first = build_rff(5, 32, kernel, seed=123)
        second = build_rff(5, 32, kernel, seed=123)
        np.testing.assert_array_equal(first.frequencies, second.frequencies)

    def test_odd_feature_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_rff(3, 33, GaussianKernel(1.0), seed=0)

    def test_dimensions_validated(self):
        with pytest.raises(ValueError, match="^dim must be at least 1$"):
            build_rff(0, 8, GaussianKernel(1.0), seed=0)
        fmap = build_rff(2, 8, GaussianKernel(1.0), seed=0)
        with pytest.raises(ValueError, match="^dimension mismatch: points have 3 "
                                             "columns, map expects 2$"):
            fmap.basis(np.zeros((4, 3)), np.empty((4, 8)))

    def test_unbiasedness_across_many_frequencies(self):
        # With a large feature count a single map is already close to the kernel.
        rng = np.random.default_rng(8)
        kernel = GaussianKernel(1.0)
        fmap = build_rff(3, 20_000, kernel, seed=9)
        x = rng.standard_normal((30, 3))
        approx = features(fmap, x) @ features(fmap, x).T
        np.testing.assert_allclose(approx, kernel.gram(x, x), atol=0.05)

    def test_dimension_counts_pairs(self):
        fmap = build_rff(2, 10, GaussianKernel(1.0), seed=0)
        assert fmap.dimension == 10
        assert fmap.frequencies.shape == (5, 2)


class TestSampledLandmarkIntegration:
    def test_landmarks_from_sampler_feed_the_map(self):
        rng = np.random.default_rng(10)
        pooled = rng.standard_normal((100, 3))
        kernel = GaussianKernel(1.0)
        landmarks = sample_landmarks(pooled, ell=12, seed=0, kernel=kernel)
        fmap = build_nystrom(landmarks.points, kernel, landmarks.inverse_factor)
        feats = features(fmap, pooled)
        assert feats.shape == (100, fmap.transform.shape[1])
        assert (np.einsum("ij,ij->i", feats, feats) <= 1.0 + 1e-10).all()
