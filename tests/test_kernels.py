import collections
import itertools

import numpy as np
import pytest
from scipy.spatial.distance import pdist
from scipy.stats import chisquare

from helpers import scalar_kernel
from nysmmd import GaussianKernel, median_heuristic
from nysmmd.kernels import as_points


class TestKernelEval:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_bandwidth_rejected(self, bad):
        with pytest.raises(ValueError):
            GaussianKernel(bad)


class TestGram:
    def test_single_point(self):
        k = GaussianKernel(2.0)
        a = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(k.gram(a, a), [[1.0]])

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((37, 4))
        gram = GaussianKernel(1.3).gram(a, a)
        assert np.array_equal(gram, gram.T)
        np.testing.assert_array_equal(np.diag(gram), np.ones(37))

    def test_symmetric_path_taken_for_equal_copies(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 3))
        gram = GaussianKernel(0.9).gram(a, a.copy())
        assert np.array_equal(gram, gram.T)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((2, 3))
        h = 1.1
        gram = GaussianKernel(h).gram(a, b)
        for i in range(4):
            for j in range(2):
                assert gram[i, j] == pytest.approx(scalar_kernel(a[i], b[j], h),
                                                   abs=1e-14)

    def test_gram_is_psd(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = int(rng.integers(5, 40))
            a = rng.standard_normal((n, 3))
            gram = GaussianKernel(float(rng.uniform(0.3, 2.0))).gram(a, a)
            smallest = np.linalg.eigvalsh(gram)[0]
            assert smallest >= -1e-8 * n

    def test_dimension_mismatch_raises(self):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            k.gram(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_out_buffer_is_filled_and_returned(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 3))
        b = rng.standard_normal((12, 3))
        k = GaussianKernel(0.8)
        for left, right in ((a, b), (a, a.copy())):
            buffer = np.full((len(left), len(right)), np.nan)
            result = k.gram(left, right, out=buffer)
            assert result is buffer
            assert np.array_equal(buffer, k.gram(left, right))

    def test_out_buffer_of_wrong_shape_raises(self):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError):
            k.gram(np.zeros((3, 2)), np.ones((4, 2)), out=np.empty((4, 3)))

    def test_bit_identical_to_out_of_place_expression(self):
        def exponents(a, b, h):
            center = b.mean(axis=0)
            a, b = a - center, b - center
            sq_a = np.einsum("ij,ij->i", a, a)[:, None]
            sq_b = np.einsum("ij,ij->i", b, b)[:, None]
            left = np.hstack([a, sq_a / (-2.0 * h**2), np.ones_like(sq_a)])
            right = np.hstack([b / h**2, np.ones_like(sq_b), sq_b / (-2.0 * h**2)])
            return np.minimum(left @ right.T, 0.0)

        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 3)) + 2.0
        b = rng.standard_normal((25, 3))
        for h in (0.3, 1.0, 2.7):
            k = GaussianKernel(h)
            assert np.array_equal(k.gram(a, b), np.exp(exponents(a, b, h)))
            full = np.exp(exponents(a, a, h))
            expected = np.tril(full) + np.tril(full, -1).T
            np.fill_diagonal(expected, 1.0)
            assert np.array_equal(k.gram(a, a.copy()), expected)
        # identical pairs off the diagonal, and pairs 1e-9 apart, put the exact
        # exponent at or just below 0, where round-off can cross it
        spread = rng.standard_normal((30, 2)) * 30.0
        near = np.vstack([spread[::-1], spread + 1e-9])
        for gram in (k.gram(spread, near), k.gram(near, near)):
            assert (gram >= 0.0).all() and (gram <= 1.0).all()

    def test_squared_distances_never_negative(self):
        # the squared distances behind the Gram matrix, -2 h^2 log K, must not
        # come out negative even where round-off meets near-identical points
        rng = np.random.default_rng(5)
        h = 0.5
        k = GaussianKernel(h)
        for scale in (1e-8, 1.0):  # near-identical points, then unit spread
            a = rng.standard_normal((30, 2)) * scale
            b = a[::-1] + 1e-9
            for gram in (k.gram(a, a), k.gram(a, b), k.gram(b, a.copy())):
                d2 = -2.0 * h**2 * np.log(gram)
                assert (d2 >= 0.0).all()

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
    def test_accuracy_does_not_depend_on_offset(self, offset):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((50, 3)) + offset
        b = rng.standard_normal((20, 3)) + offset
        h = 0.7
        k = GaussianKernel(h)
        for left, right in ((a, b), (a, a)):
            diff = left[:, None, :] - right[None, :, :]
            expected = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * h**2))
            np.testing.assert_allclose(k.gram(left, right), expected,
                                       rtol=0.0, atol=1e-12)


class TestMedianHeuristic:
    def test_two_points_single_distance(self):
        # a row paired with itself would put zeros among the drawn distances
        for points, distance in (([[0.0], [3.0]], 3.0),
                                 ([[1.0, 2.0], [4.0, 6.0]], 5.0)):
            for seed in range(5):
                assert median_heuristic(np.array(points), seed=seed) == distance

    def test_three_points_midpoint_free(self):
        # distances {1, 1, 2} have median 1
        points = np.array([[0.0], [1.0], [2.0]])
        assert median_heuristic(points) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((300, 2))
        first = median_heuristic(points, seed=5)
        second = median_heuristic(points, seed=5)
        third = median_heuristic(points, seed=6)
        assert first == second
        assert first != third

    def test_pairs_are_uniform_over_distinct_rows(self, monkeypatch):
        # The pair law: each of the 2^14 + 1 pairs is uniform over the
        # unordered pairs of distinct rows, whatever the rows hold.  The rows
        # 0, 1, 3, 7, 15 give ten distinct squared distances, so the
        # distances handed to the median's partition name their pairs.
        values = [0.0, 1.0, 3.0, 7.0, 15.0]
        drawn, partition = [], np.partition

        def recording(squared, kth):
            drawn.append(squared.copy())
            return partition(squared, kth)

        monkeypatch.setattr(np, "partition", recording)
        for seed in range(3):
            median_heuristic(np.array(values)[:, None], seed=seed)
        counts = collections.Counter(np.concatenate(drawn).tolist())
        assert set(counts) == {(a - b) ** 2 for a, b in itertools.combinations(values, 2)}
        assert chisquare(list(counts.values())).pvalue > 1e-3

    def test_degenerate_data_raises_instead_of_zero(self):
        points = np.zeros((5, 2))
        with pytest.raises(ValueError, match="zero"):
            median_heuristic(points)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            median_heuristic(np.zeros((1, 2)))


class TestMedianMatchesPdist:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 10, 11, 999, 1000, 1001, 2000])
    def test_bit_identical_to_scipy(self, m):
        # the squares are added in pdist's order, so the result equals one
        # of pdist's distances bit for bit, not merely to within round-off
        rng = np.random.default_rng(m)
        for d in (1, 3, 28):
            points = rng.standard_normal((m, d)) * rng.uniform(0.1, 10.0)
            for data in (points, np.round(points, 1)):  # rounding makes ties
                distances = pdist(data)
                if m == 2:
                    assert median_heuristic(data, seed=m) == distances[0]
                else:
                    assert median_heuristic(data, seed=m) in set(distances.tolist())

    @pytest.mark.parametrize("d", [3, 28])
    def test_close_to_full_median(self, d):
        # 2^14 + 1 pairs put the relative spread near 0.5% (d = 3) and 0.2%
        # (d = 28); rows sorted by their first coordinate would expose a
        # draw that favours some positions
        rng = np.random.default_rng(d)
        points = rng.standard_normal((4000, d)) * rng.uniform(0.5, 2.0, size=d)
        points = points[np.argsort(points[:, 0])]
        expected = float(np.median(pdist(points)))
        for seed in range(3):
            assert median_heuristic(points, seed=seed) == pytest.approx(
                expected, rel=0.02)

    def test_overflowing_distances_match_scipy(self):
        # finite rows whose differences overflow float64: where pdist's
        # median is inf the heuristic raises instead of returning it
        points = np.array([[1e308, 1.0], [-1e308, 2.0], [0.0, 3.0], [5.0, 4.0]])
        assert np.median(pdist(points)) == np.inf
        with pytest.raises(ValueError, match="overflows float64"):
            median_heuristic(points)
        # a few overflowing pairs among many (every pair with one of the two
        # large rows): pdist holds infs, the median stays finite and is one
        # of pdist's distances
        rng = np.random.default_rng(3)
        points = np.vstack([points[:2], rng.standard_normal((60, 2))])
        distances = pdist(points)
        assert np.isinf(distances).sum() == 2 * 60 + 1
        median = median_heuristic(points)
        assert np.isfinite(median)
        assert median in set(distances.tolist())


class TestAsPoints:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            as_points(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            as_points(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_points([[1.0, np.inf]])

    def test_passes_through_valid_data(self):
        points = as_points([[1, 2], [3, 4]])
        assert points.dtype == np.float64
        assert points.shape == (2, 2)
