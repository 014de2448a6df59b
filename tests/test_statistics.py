import hashlib
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

from helpers import (
    exact_mmd,
    feature_mmd,
    features,
    scalar_kernel,
    sorted_uniform_subsets,
)
from nysmmd import (
    GaussianKernel,
    PooledSample,
    build_nystrom,
    build_rff,
    median_heuristic,
    permuted_statistics,
    sample_landmarks,
)
from nysmmd import statistics
from nysmmd.statistics import (
    LABEL_BLOCK_ROWS,
    _label_blocks,
    _uniform_subsets,
    accumulate_weighted_features,
    permutation_weights,
)


class EditedBits:
    """PCG64 bit generator whose words pass through edit(call, words) first.

    ``sizes`` lists the word count of every random_raw call.
    """

    def __init__(self, edit, seed=0):
        self.sizes = []
        self.edit = edit
        self.source = np.random.PCG64(seed)

    def random_raw(self, size):
        self.sizes.append(size)
        words = self.source.random_raw(size)
        self.edit(len(self.sizes), words)
        return words


def draw_subsets(draw, counts, size, edit, seed=0):
    """out and random_raw call sizes of one draw(counts, ...) on EditedBits."""
    bits = EditedBits(edit, seed)
    out = np.empty((counts.size, size))
    draw(counts, SimpleNamespace(bit_generator=bits), out,
         np.empty(2 * out.size, dtype=np.uint16))
    return out, bits.sizes


def pooled_map(x, y, ell, seed=0, bandwidth=1.0):
    """Uniform-landmark map on the pooled data, for test convenience."""
    pooled = PooledSample.from_samples(x, y)
    kernel = GaussianKernel(bandwidth)
    landmarks = sample_landmarks(pooled.points, ell, seed, kernel)
    return pooled, build_nystrom(landmarks.points, kernel)


class TestExactMmd:
    def test_identical_multisets(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 3))
        assert exact_mmd(x, x[rng.permutation(9)], GaussianKernel(1.0)) == 0.0

    def test_single_point_pair(self):
        x = np.array([[0.0, 1.0]])
        y = np.array([[2.0, -1.0]])
        expected = math.sqrt(2.0 - 2.0 * scalar_kernel(x[0], y[0], 0.9))
        assert exact_mmd(x, y, GaussianKernel(0.9)) == pytest.approx(expected, abs=1e-14)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 2))
        y = rng.standard_normal((5, 2))
        h = 1.4
        acc = 0.0
        for a in x:
            for b in x:
                acc += scalar_kernel(a, b, h) / 49
        for a in y:
            for b in y:
                acc += scalar_kernel(a, b, h) / 25
        for a in x:
            for b in y:
                acc -= 2.0 * scalar_kernel(a, b, h) / 35
        assert exact_mmd(x, y, GaussianKernel(h)) == pytest.approx(math.sqrt(acc),
                                                                  abs=1e-12)

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
        fmap = build_nystrom(pooled.points, kernel)
        assert feature_mmd(x, y, fmap) == pytest.approx(
            exact_mmd(x, y, kernel), abs=1e-8)

    def test_single_landmark_scalar_formula(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((4, 2))
        z = np.array([[0.3, -0.7]])
        kernel = GaussianKernel(1.0)
        fmap = build_nystrom(z, kernel)
        expected = abs(np.mean([scalar_kernel(z[0], p, 1.0) for p in x])
                       - np.mean([scalar_kernel(z[0], p, 1.0) for p in y]))
        assert feature_mmd(x, y, fmap) == pytest.approx(expected, abs=1e-12)

    def test_projection_never_exceeds_exact(self):
        rng = np.random.default_rng(5)
        kernel = GaussianKernel(1.0)
        for trial in range(20):
            x = rng.standard_normal((25, 2))
            y = rng.standard_normal((20, 2)) + rng.uniform(0, 1)
            pooled = PooledSample.from_samples(x, y)
            landmarks = sample_landmarks(pooled.points, int(rng.integers(1, 12)),
                                         trial, kernel)
            fmap = build_nystrom(landmarks.points, kernel)
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
                landmarks = sample_landmarks(pooled.points, ell, seed, kernel)
                fmap = build_nystrom(landmarks.points, kernel)
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

    def test_zero_permutations_give_the_observed_labeling_only(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal((25, 3)) + 0.4
        pooled, fmap = pooled_map(x, y, ell=7)
        stats = permuted_statistics(pooled, fmap, 0, seed=3)
        assert stats.shape == (1,)
        # feature_mmd takes the norm of a 1-d row, which rounds in another order
        assert stats[0] == pytest.approx(feature_mmd(x, y, fmap), rel=1e-15, abs=0)
        np.testing.assert_array_equal(stats, permuted_statistics(pooled, fmap, 0, seed=4))
        np.testing.assert_array_equal(
            stats, permuted_statistics(pooled, fmap, 0, seed=3, accept_at=1))
        weights = permutation_weights(pooled, 0, seed=3)
        assert weights.shape == (1, pooled.n)
        np.testing.assert_array_equal(weights[0], np.repeat([1 / 30, -1 / 25], [30, 25]))

    @pytest.mark.parametrize("n", [22, 60, 1000, 1023, 1024, 1025])
    def test_stopped_vector_is_a_prefix_of_the_complete_pass(self, n):
        # A pass given accept_at stops after its first batch of ceil(49 / 5)
        # = 10 permutations exactly when at least accept_at of them exceed
        # entry 0, and only on one label block.  Its values are bit for bit
        # those of the same pass run to the end (accept_at = 11 cannot
        # stop), and agree with the one-GEMM pass without accept_at to
        # round-off, as across BLAS thread counts.
        rng = np.random.default_rng(n)
        pooled = PooledSample(points=rng.standard_normal((n, 3)),
                              n_x=n // 2, n_y=n - n // 2)
        kernel = GaussianKernel(1.2)
        stopped = 0
        for fmap in (build_nystrom(sample_landmarks(pooled.points, 24, 1, kernel).points,
                                   kernel),
                     build_nystrom(sample_landmarks(pooled.points, 6, 1, kernel).points,
                                   kernel),
                     build_rff(3, 24, kernel, seed=2)):
            for seed in range(8):
                complete = permuted_statistics(pooled, fmap, 49, seed, accept_at=11)
                one_gemm = permuted_statistics(pooled, fmap, 49, seed)
                assert (np.abs(complete - one_gemm).max()
                        <= 1e-12 * np.abs(one_gemm).max())
                if n > LABEL_BLOCK_ROWS:
                    np.testing.assert_array_equal(complete, one_gemm)
                exceeding = np.count_nonzero(complete[1:11] > complete[0])
                for accept_at in (1, 3, 6):
                    stats = permuted_statistics(pooled, fmap, 49, seed, accept_at)
                    stops = n <= LABEL_BLOCK_ROWS and exceeding >= accept_at
                    assert stats.size == (11 if stops else 50)
                    np.testing.assert_array_equal(stats, complete[:stats.size])
                    stopped += stops
        assert stopped > 0 or n > LABEL_BLOCK_ROWS

    def test_degenerate_values_never_stop_the_pass(self):
        # Points equal up to 1e-14: every value is round-off below
        # DEGENERATE_TIE_TOLERANCE, which run_test snaps to zeros, so the
        # pass must run in full even when replicates exceed entry 0 (they
        # do under the RFF map).
        rng = np.random.default_rng(3)
        points = 1.0 + 1e-14 * rng.standard_normal((21, 2))
        pooled = PooledSample.from_samples(points[:12], points[12:])
        kernel = GaussianKernel(1.0)
        exceeded = 0
        for fmap in (build_nystrom(sample_landmarks(pooled.points, 4, 0, kernel).points,
                                   kernel),
                     build_rff(2, 4, kernel, seed=0)):
            for seed in range(20):
                stats = permuted_statistics(pooled, fmap, 19, seed, accept_at=1)
                assert stats.size == 20
                assert stats.max() <= statistics.DEGENERATE_TIE_TOLERANCE
                exceeded += bool((stats[1:5] > stats[0]).any())
        assert exceeded > 0

    def test_negative_permutation_count_rejected(self):
        pooled, fmap = pooled_map(np.zeros((4, 2)), np.ones((3, 2)), ell=2)
        with pytest.raises(ValueError):
            permuted_statistics(pooled, fmap, -1, seed=0)
        with pytest.raises(ValueError):
            permutation_weights(pooled, -1, seed=0)

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
        feats = features(fmap, pooled.points)
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
            kernel = GaussianKernel(1.0)
            landmarks = sample_landmarks(pooled.points, 4,
                                         int(rng.integers(2**63)), kernel)
            fmap = build_nystrom(landmarks.points, kernel)
            stats = permuted_statistics(pooled, fmap, n_perms,
                                        seed=int(rng.integers(2**63)))
            counts[int((stats < stats[0]).sum())] += 1
        assert chisquare(counts).pvalue > 1e-3

    def test_accumulation_matches_long_double_oracle(self):
        # The float64 pass against the same labels and basis values summed
        # and mapped in long double.  Under the null the statistics are
        # about 1/sqrt(n) of the feature means, so their cancellation and
        # the Nystrom factor at the median bandwidth amplify the round-off
        # of the block sums and totals.
        rng = np.random.default_rng(0)
        pooled = PooledSample(points=rng.standard_normal((20_000, 3)),
                              n_x=10_000, n_y=10_000)
        kernel = GaussianKernel(median_heuristic(pooled.points))
        fmap = build_nystrom(sample_landmarks(pooled.points, 100, 0, kernel).points,
                             kernel)
        stats = permuted_statistics(pooled, fmap, 49, seed=0)
        labels = (permutation_weights(pooled, 49, seed=0) > 0).astype(np.longdouble)
        basis = np.vstack([fmap.basis(pooled.points[start:start + LABEL_BLOCK_ROWS])
                           for start in range(0, pooled.n, LABEL_BLOCK_ROWS)])
        basis = basis.astype(np.longdouble)
        one = np.longdouble(1)
        coordinates = ((one / pooled.n_x + one / pooled.n_y) * (labels @ basis)
                       - basis.sum(axis=0) / pooled.n_y)
        feats = fmap.from_basis(coordinates)
        expected = np.sqrt((feats * feats).sum(axis=1))
        assert feats.dtype == np.longdouble
        assert np.max(np.abs(stats - expected) / expected) <= 5e-11


class TestLabelStream:
    def test_splits_are_uniform(self):
        # Every one of the C(6, 3) = 20 splits is equally likely.
        pooled = PooledSample.from_samples(np.zeros((3, 1)), np.ones((3, 1)))
        weights = permutation_weights(pooled, 3999, seed=4)
        splits = {subset: index for index, subset
                  in enumerate(itertools.combinations(range(6), 3))}
        counts = np.zeros(len(splits), dtype=int)
        for row in weights[1:]:
            counts[splits[tuple(np.flatnonzero(row > 0))]] += 1
        assert chisquare(counts).pvalue > 1e-3

    def test_labels_span_blocks(self):
        # n = 2,500 pooled rows fill three label blocks.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1300, 2))
        y = rng.standard_normal((1200, 2)) + 0.1
        pooled = PooledSample.from_samples(x, y)
        assert pooled.n > 2 * LABEL_BLOCK_ROWS
        weights = permutation_weights(pooled, 199, seed=2)
        labels = weights > 0
        assert (labels.sum(axis=1) == pooled.n_x).all()
        np.testing.assert_array_equal(labels[0], np.arange(pooled.n) < pooled.n_x)
        # x labels in the first block follow the hypergeometric law: mean
        # within 5 standard errors, variance within 50%
        first = labels[1:, :LABEL_BLOCK_ROWS].sum(axis=1)
        p_x = pooled.n_x / pooled.n
        variance = (LABEL_BLOCK_ROWS * p_x * (1 - p_x)
                    * (pooled.n - LABEL_BLOCK_ROWS) / (pooled.n - 1))
        assert abs(first.mean() - LABEL_BLOCK_ROWS * p_x) <= 5 * math.sqrt(
            variance / first.size)
        assert 0.5 * variance <= first.var() <= 1.5 * variance

    def test_tie_at_the_cut_redraws_the_block(self):
        # The first draw makes every key of rows 1 and 3 equal, so both tie
        # at their cuts.  Only they draw again, in one call of
        # ceil(2 * 5 / 4) words, row 1's keys first; the untied inner row 2
        # keeps its first keys.
        drawn = []

        def tie_rows(call, words):
            keys = words.view(np.uint16)
            if call == 1:
                keys[5:10] = 0xF000
                keys[15:20] = 0xF000
            drawn.append(keys.copy())

        counts = np.array([0, 2, 3, 1, 5])
        out, sizes = draw_subsets(_uniform_subsets, counts, 5, tie_rows)
        assert sizes == [7, 3]
        keys = drawn[0][:25].reshape(5, 5)
        keys[[1, 3]] = drawn[1][:10].reshape(2, 5)
        for p, count in enumerate(counts):
            kept = np.flatnonzero(out[p])
            np.testing.assert_array_equal(kept, np.sort(np.argsort(keys[p])[:count]))
            # no tie remains at the cut of an inner row
            if 0 < count < 5:
                assert keys[p, kept].max() < np.sort(keys[p])[count]
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_tie_in_one_row_redraws_with_fresh_pads(self):
        # Only row 1 ties on the first draw.  The partition has moved the
        # pads of every row, so the redrawn row must take them afresh (its
        # tied keys lie above most fresh keys, so stale tails would move
        # the cut), and the untied rows keep their first keys.  Full row 4
        # holds the largest key, which its 0xFFFF pad does not cut above.
        def tie_row_one(call, words):
            keys = words.view(np.uint16)
            if call == 1:
                keys[24] = 2**16 - 1
                keys[6:12] = 0xF000

        counts = np.array([1, 3, 5, 0, 6, 2])
        out, sizes = draw_subsets(_uniform_subsets, counts, 6, tie_row_one)
        expected, expected_sizes = draw_subsets(sorted_uniform_subsets, counts, 6,
                                                tie_row_one)
        assert sizes == expected_sizes == [9, 2]
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out.sum(axis=1), counts)

    def test_keys_equal_to_the_pads_match_sorted_cut(self):
        # Real keys of 0 and 0xFFFF, the pad values, in an empty row, a full
        # row and inner rows: 0xFFFF as row 2's cut, zeros kept below row
        # 3's cut, and two zeros that tie at row 4's cut.  A real key is 0,
        # or 0xFFFF, with probability 2^-16: about 3 keys of each per
        # 199 x 1,024 block.
        top = 2**16 - 1

        def pad_values(call, words):
            if call == 1:
                words.view(np.uint16)[:30] = [
                    0, top, 4, top, 0, 8,
                    top, 0, top, 3, 0, 5,
                    top, 5, 0, top, 9, 3,
                    0, top, 0, 7, 8, 9,
                    3, 0, top, 0, 5, 6]

        counts = np.array([0, 6, 4, 2, 1])
        out, sizes = draw_subsets(_uniform_subsets, counts, 6, pad_values)
        expected, expected_sizes = draw_subsets(sorted_uniform_subsets, counts, 6,
                                                pad_values)
        assert sizes == expected_sizes == [8, 2]
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out[2], [0, 1, 1, 0, 1, 1])
        np.testing.assert_array_equal(out[3], [1, 0, 1, 0, 0, 0])

    @pytest.mark.parametrize("bits, tied", [(3, 0.25), (1, 0.6)])
    def test_per_row_redraws_keep_subsets_uniform(self, bits, tied):
        # Keys of 3 bits tie at the cut of 3 of 6 in about 31% of rows, keys
        # of 1 bit in about 69%, so the per-row redraw is the common path;
        # each of the C(6, 3) = 20 subsets must still be equally likely.
        lanes = np.uint64((2**bits - 1) * 0x0001000100010001)

        def low_entropy(call, words):
            words &= lanes

        out, sizes = draw_subsets(_uniform_subsets, np.full(4000, 3), 6, low_entropy)
        assert sizes[1] >= tied * sizes[0]
        splits = {subset: index for index, subset
                  in enumerate(itertools.combinations(range(6), 3))}
        counts = np.zeros(len(splits), dtype=int)
        for row in out:
            counts[splits[tuple(np.flatnonzero(row))]] += 1
        assert chisquare(counts).pvalue > 1e-3

    def test_partition_matches_sorted_cut_on_tied_keys(self):
        # Keys of 5 bits tie often, so many trials redraw rows; the labels
        # and the random_raw calls must equal the sort-based reference's.
        # A block whose rows are all empty or full draws no keys.
        def low_entropy(call, words):
            words &= np.uint64(0x001F001F001F001F)

        rng = np.random.default_rng(15)
        redrawn = 0
        for trial in range(200):
            size = int(rng.integers(1, 13))
            counts = rng.integers(0, size + 1, size=int(rng.integers(1, 9)))
            out, sizes = draw_subsets(_uniform_subsets, counts, size,
                                      low_entropy, seed=trial)
            expected, expected_sizes = draw_subsets(
                sorted_uniform_subsets, counts, size, low_entropy, seed=trial)
            np.testing.assert_array_equal(out, expected)
            inner = ((counts > 0) & (counts < size)).any()
            assert sizes == (expected_sizes if inner else [])
            redrawn += len(expected_sizes) > 1
        assert redrawn >= 40

    @pytest.mark.parametrize("n", [2, 7, 1000, 1023, 1024, 1025, 2049, 3001])
    def test_blocks_match_sorted_cut(self, n, monkeypatch):
        def blocks(n_x, n_permutations):
            pooled = PooledSample(points=np.zeros((n, 1)), n_x=n_x, n_y=n - n_x)
            return [(start, labels.copy()) for start, _, labels
                    in _label_blocks(pooled, n_permutations, seed=n_x)]

        shapes = [(n_x, n_permutations) for n_x in sorted({1, n // 2, n - 1})
                  for n_permutations in (0, 1, 9, 199)]
        drawn = [blocks(*shape) for shape in shapes]
        monkeypatch.setattr(statistics, "_uniform_subsets", sorted_uniform_subsets)
        for shape, actual in zip(shapes, drawn):
            expected = blocks(*shape)
            assert [start for start, _ in actual] == [start for start, _ in expected]
            for (_, labels), (_, reference) in zip(actual, expected):
                np.testing.assert_array_equal(labels, reference)

    @pytest.mark.parametrize("n, n_permutations", [
        (7, 0), (7, 1), (7, 4), (60, 19), (1024, 199), (1025, 49), (2049, 19)])
    def test_batches_draw_from_keyed_generators(self, n, n_permutations):
        # Reference: one multivariate hypergeometric draw of the block
        # counts for all P; then each block draws its batches from
        # generators keyed by (block, batch).  One block draws the first
        # ceil(P / 5) permutations, then the rest; more blocks draw all P at
        # once.
        seed, n_x = 5, n // 2 + 1
        pooled = PooledSample(points=np.zeros((n, 1)), n_x=n_x, n_y=n - n_x)
        starts = range(0, n, LABEL_BLOCK_ROWS)
        sizes = [min(LABEL_BLOCK_ROWS, n - start) for start in starts]
        counts = np.random.default_rng(np.random.SeedSequence(seed)) \
            .multivariate_hypergeometric(sizes, n_x, size=n_permutations)
        first = math.ceil(n_permutations / 5)
        bounds = ([0, first, n_permutations] if n <= LABEL_BLOCK_ROWS
                  and first < n_permutations else [0, n_permutations])
        expected = np.zeros((n_permutations, n))
        for block, (start, size) in enumerate(zip(starts, sizes)):
            for batch, (low, high) in enumerate(zip(bounds, bounds[1:])):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(block, batch)))
                out = expected[low:high, start:start + size]
                sorted_uniform_subsets(counts[low:high, block], rng, out,
                                       np.empty(out.size, dtype=np.uint16))
        labels = permutation_weights(pooled, n_permutations, seed) > 0
        np.testing.assert_array_equal(labels[1:], expected > 0)

    @pytest.mark.parametrize("n", [7, 1024])
    def test_partial_pass_yields_each_batch(self, n):
        # A one-block pass asked for partial yields its first batch, with
        # the observed labeling, then the rest, each followed by the ones
        # row; the labels are those of the complete block.
        pooled = PooledSample(points=np.zeros((n, 1)), n_x=3, n_y=n - 3)
        (_, begin, complete), = _label_blocks(pooled, 19, seed=2)
        assert begin == 0 and complete.shape == (21, n)
        yields = [(start, begin, labels.copy()) for start, begin, labels
                  in _label_blocks(pooled, 19, seed=2, partial=True)]
        assert [(start, begin, labels.shape) for start, begin, labels in yields] == [
            (0, 0, (6, n)), (0, 5, (16, n))]
        np.testing.assert_array_equal(yields[0][2][:-1], complete[:5])
        np.testing.assert_array_equal(yields[1][2][:-1], complete[5:-1])
        for _, _, labels in yields:
            np.testing.assert_array_equal(labels[-1], 1.0)

    # ids without the digest, so that a re-pin keeps the test names
    @pytest.mark.parametrize("n, n_x, n_permutations, seed, digest", [
        (1000, 500, 199, 0,
         "54f2b6c1128845a3815db31a1c69d69d26013ebd19c547bdca9872a454fda313"),
        (3001, 1500, 49, 3,
         "8a73e5098b4f89fa02c7b4514e778cd8bd9a87a79ebc04fd0116fbf07ff6d9f7"),
        (2049, 2048, 19, 1,
         "73e008ff6559aa504c5811fed6c89c5178a4e067f2096d8cf7e22d0aadbda304"),
    ], ids=["1000-500-199-0", "3001-1500-49-3", "2049-2048-19-1"])
    def test_label_stream_is_pinned(self, n, n_x, n_permutations, seed, digest):
        # Statistics stay bit-identical for a fixed seed: a change to the
        # label stream fails here and must say so.  No BLAS is involved.
        pooled = PooledSample(points=np.zeros((n, 1)), n_x=n_x, n_y=n - n_x)
        labels = permutation_weights(pooled, n_permutations, seed) > 0
        assert hashlib.sha256(np.packbits(labels).tobytes()).hexdigest() == digest

    def test_memory_does_not_grow_with_n(self):
        rng = np.random.default_rng(13)
        fmap = build_nystrom(rng.standard_normal((16, 3)), GaussianKernel(1.0))
        peaks = []
        for n in (8_000, 32_000):
            pooled = PooledSample(points=rng.standard_normal((n, 3)),
                                  n_x=n // 2, n_y=n - n // 2)
            tracemalloc.start()
            try:
                permuted_statistics(pooled, fmap, 199, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @pytest.mark.parametrize("n", [1023, 1025, 2048, 3001])
    def test_reused_buffers_match_fresh_blocks(self, n):
        # Reference: the same pass with fresh arrays for every block, the
        # permuted labels read back from permutation_weights and the block
        # total taken from an all-ones column of the same product
        # basis' labels'.  A partial last block must not see stale rows of
        # the shared label or basis buffers, its ones row included.
        rng = np.random.default_rng(n)
        pooled = PooledSample(points=rng.standard_normal((n, 3)),
                              n_x=n // 2, n_y=n - n // 2)
        kernel = GaussianKernel(1.2)
        for fmap in (build_nystrom(sample_landmarks(pooled.points, 24, 1, kernel).points,
                                   kernel),
                     build_rff(3, 24, kernel, seed=2)):
            labels = (permutation_weights(pooled, 49, seed=3) > 0).astype(float)
            labels[0] = np.arange(n) < pooled.n_x
            sums = np.zeros((fmap.dimension, 50))
            total = np.zeros(fmap.dimension)
            for start in range(0, n, LABEL_BLOCK_ROWS):
                block = slice(start, start + LABEL_BLOCK_ROWS)
                labels_block = labels[:, block]
                basis = fmap.basis(pooled.points[block])
                product = basis.T @ np.vstack([labels_block,
                                               np.ones(labels_block.shape[1])]).T
                sums += product[:, :-1]
                total += product[:, -1]
            coordinates = ((1.0 / pooled.n_x + 1.0 / pooled.n_y) * sums
                           - total[:, None] / pooled.n_y)
            expected = np.linalg.norm(fmap.from_basis(coordinates.T), axis=1)
            np.testing.assert_array_equal(
                permuted_statistics(pooled, fmap, 49, seed=3), expected)

    def test_accumulation_matches_signed_feature_sums(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((9, 2))
        y = rng.standard_normal((11, 2))
        pooled, fmap = pooled_map(x, y, ell=5)
        accumulated = accumulate_weighted_features(pooled, fmap, 6, seed=3)
        weights = permutation_weights(pooled, 6, seed=3)
        np.testing.assert_allclose(
            accumulated, weights @ features(fmap, pooled.points), atol=1e-12)


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
