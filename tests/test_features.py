import numpy as np
import pytest

from nysmmd import GaussianKernel, build_nystrom, build_rff, sample_landmarks
from nysmmd.leverage import LandmarkSet


def landmark_set(points):
    points = np.asarray(points, dtype=float)
    return LandmarkSet(indices=np.arange(points.shape[0]),
                       points=points, sampler="uniform")


class TestBuildNystrom:
    def test_single_landmark_transform_is_identity(self):
        fmap = build_nystrom(landmark_set([[2.0, -1.0]]), GaussianKernel(1.5))
        np.testing.assert_allclose(fmap.transform, [[1.0]], atol=1e-12)

    def test_landmark_gram_reproduction(self):
        rng = np.random.default_rng(0)
        landmarks = rng.standard_normal((12, 3)) * 3.0  # well separated
        kernel = GaussianKernel(1.0)
        fmap = build_nystrom(landmark_set(landmarks), kernel)
        feats = fmap.features(landmarks)
        np.testing.assert_allclose(feats @ feats.T,
                                   kernel.gram(landmarks, landmarks), atol=1e-8)

    def test_duplicated_landmark_rank_deficiency(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((6, 2))
        duplicated = np.vstack([base, base[2], base[2]])
        kernel = GaussianKernel(0.8)
        fmap = build_nystrom(landmark_set(duplicated), kernel)
        assert np.isfinite(fmap.transform).all()
        feats = fmap.features(duplicated)
        assert np.isfinite(feats).all()
        np.testing.assert_allclose(feats @ feats.T,
                                   kernel.gram(duplicated, duplicated), atol=1e-8)

    def test_transform_symmetric_psd_and_projection_idempotent(self):
        rng = np.random.default_rng(2)
        landmarks = rng.standard_normal((10, 3))
        kernel = GaussianKernel(1.2)
        fmap = build_nystrom(landmark_set(landmarks), kernel)
        transform = fmap.transform
        np.testing.assert_allclose(transform, transform.T, atol=1e-12)
        assert np.linalg.eigvalsh(transform)[0] >= -1e-10
        gram = kernel.gram(landmarks, landmarks)
        projector = transform @ gram @ transform
        np.testing.assert_allclose(projector @ projector, projector, atol=1e-8)
        np.testing.assert_allclose(projector, projector.T, atol=1e-8)

    def test_full_coverage_reproduces_exact_gram(self):
        rng = np.random.default_rng(3)
        pooled = rng.standard_normal((40, 2))
        kernel = GaussianKernel(1.0)
        fmap = build_nystrom(landmark_set(pooled), kernel)
        feats = fmap.features(pooled)
        np.testing.assert_allclose(feats @ feats.T, kernel.gram(pooled, pooled),
                                   atol=1e-8)


class TestNystromApply:
    def test_landmark_feature_has_unit_norm_when_full_rank(self):
        rng = np.random.default_rng(4)
        landmarks = rng.standard_normal((8, 3)) * 2.0
        fmap = build_nystrom(landmark_set(landmarks), GaussianKernel(1.0))
        assert np.linalg.norm(fmap.features(landmarks[:1])[0]) == pytest.approx(
            1.0, abs=1e-8)

    def test_contraction_everywhere(self):
        rng = np.random.default_rng(5)
        landmarks = rng.standard_normal((16, 3))
        fmap = build_nystrom(landmark_set(landmarks), GaussianKernel(0.9))
        queries = rng.standard_normal((10_000, 3))
        norms_sq = np.einsum("ij,ij->i", fmap.features(queries),
                             fmap.features(queries))
        assert norms_sq.max() <= 1.0 + 1e-10

    def test_single_landmark_map_is_kernel_slice(self):
        landmark = np.array([[0.5, -0.25]])
        kernel = GaussianKernel(1.1)
        fmap = build_nystrom(landmark_set(landmark), kernel)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(fmap.features(x[None])[0],
                                   [kernel(landmark[0], x)], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        fmap = build_nystrom(landmark_set([[0.0, 0.0]]), GaussianKernel(1.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            fmap.features(np.zeros((2, 3)))

    def test_dimension_attribute(self):
        fmap = build_nystrom(landmark_set(np.zeros((5, 2)) + np.arange(5)[:, None]),
                             GaussianKernel(1.0))
        assert fmap.dimension == 5


class TestBuildRff:
    def test_self_inner_product_is_exactly_one(self):
        rng = np.random.default_rng(6)
        fmap = build_rff(3, 64, GaussianKernel(1.0), seed=0)
        for x in rng.standard_normal((20, 3)):
            feats = fmap.features(x[None])[0]
            assert feats @ feats == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_concentrate_on_kernel(self):
        # The estimator variance is (1 + k^4)/2 - k^2 per cos/sin pair; at
        # moderate separation (k around 0.5) the 0.05 window is >3 sigma wide
        # for 1024 pairs, so at least 99% of seeded maps must land inside.
        rng = np.random.default_rng(7)
        kernel = GaussianKernel(1.3)
        x = 0.5 * rng.standard_normal(4)
        y = 0.5 * rng.standard_normal(4)
        target = kernel(x, y)
        hits = 0
        trials = 200
        for seed in range(trials):
            fmap = build_rff(4, 2048, kernel, seed)
            approx = float(fmap.features(x[None])[0] @ fmap.features(y[None])[0])
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

    def test_unbiasedness_across_many_frequencies(self):
        # With a large feature count a single map is already close to the kernel.
        rng = np.random.default_rng(8)
        kernel = GaussianKernel(1.0)
        fmap = build_rff(3, 20_000, kernel, seed=9)
        x = rng.standard_normal((30, 3))
        approx = fmap.features(x) @ fmap.features(x).T
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
        landmarks = sample_landmarks(pooled, ell=12, seed=0)
        fmap = build_nystrom(landmarks, kernel)
        feats = fmap.features(pooled)
        assert feats.shape == (100, 12)
        assert (np.einsum("ij,ij->i", feats, feats) <= 1.0 + 1e-10).all()
