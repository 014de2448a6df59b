"""Two-sample test statistics: the projected MMD and its permuted replicates.

The projected statistic is the norm of the difference of empirical feature
means.  Under a labeling that marks which pooled rows form the first sample,
it equals ||(1/n_x + 1/n_y) S - T / n_y|| with S the feature sum over the
rows labeled x and T the sum over all rows.  Features are linear in a basis
(kernel columns against the landmarks for Nystrom, the features themselves
for random Fourier features), so S and T are summed in basis coordinates
and the map's linear factor is applied once, to the (P + 1) x ell result.

All P + 1 labelings are streamed in one pass over fixed blocks of
LABEL_BLOCK_ROWS = B rows.  One multivariate hypergeometric draw gives,
for every permutation, how many x labels fall in each block; each block then
draws a uniform subset of that size per permutation from its own child
seed: the rows whose uint32 keys fall below a cut key, which one partition
of the block's keys finds for every permutation at once, without a sort (a
rare tie at the cut redraws the block).  Together these are uniform splits
of the pooled rows.  Storage is O((P + 1) * (ell + B)) for the
accumulators, the labels, the basis and the 2 * P * B key scratch of one
block, held in buffers that every block reuses, plus the P x (n / B) block
counts; the n-wide signed weight matrix is formed only by
permutation_weights, for exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import FeatureMap
from .kernels import as_points

LABEL_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class PooledSample:
    """The two samples stacked into one matrix, X rows first.

    Permutations of {0, ..., n-1} act on the rows; the first n_x positions
    of a permuted ordering form the relabeled first sample.
    """

    points: np.ndarray
    n_x: int
    n_y: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("both samples must be nonempty")
        if self.points.shape[0] != self.n_x + self.n_y:
            raise ValueError(f"pooled matrix has {self.points.shape[0]} rows, "
                             f"expected n_x + n_y = {self.n_x + self.n_y}")

    @classmethod
    def from_samples(cls, x, y) -> "PooledSample":
        x = as_points(x, "x")
        y = as_points(y, "y")
        if x.shape[1] != y.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
        return cls(points=np.vstack([x, y]), n_x=x.shape[0], n_y=y.shape[0])

    @property
    def n(self) -> int:
        return self.n_x + self.n_y


def _uniform_subsets(counts: np.ndarray, rng: np.random.Generator,
                     out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill out[p] with the 0/1 indicator of a uniform counts[p]-subset.

    Row p keeps the positions of its counts[p] smallest uniform uint32 keys,
    those below its cut: the (counts[p] + 1)-th smallest key.  One partition
    at an index shared by all rows finds every cut without a sort: with low
    and top the smallest and largest count, row p's keys are copied to a
    scratch row and followed by top - counts[p] zero keys and counts[p] - low
    all-ones keys, which puts its cut at index top.  A tie at a cut (rare:
    about size / 2^33 per row) would keep fewer keys; it shows as
    max(part[:top]) == part[top] on a row with 0 < counts[p] < size, and the
    whole block is redrawn, pads included, since the partition moved them.
    The redraw event is symmetric in the positions and leaves the subsets
    uniform.  Full rows are set to 1 directly (an all-ones cut would drop a
    key of 2^32 - 1), and a block with no row strictly between empty and
    full draws no keys.  ``scratch`` is a flat uint32 buffer of at least
    2 * out.size entries.
    """
    size = out.shape[1]
    full = counts == size
    inner = (counts > 0) & ~full
    if not inner.any():
        out[:] = full[:, None]
        return
    low, top = int(counts.min()), int(counts.max())
    padded = scratch[:counts.size * (size + top - low)].reshape(counts.size, -1)
    # row p's pads: the window of top - low zeros then as many all-ones
    # keys that starts at counts[p] - low
    ramp = np.repeat(np.array([0, 2**32 - 1], dtype=np.uint32), top - low)
    pads = sliding_window_view(ramp, top - low)[counts - low]
    while True:
        words = rng.bit_generator.random_raw((out.size + 1) // 2)
        keys = words.view(np.uint32)[:out.size].reshape(out.shape)
        padded[:, :size] = keys
        padded[:, size:] = pads
        padded.partition(top, axis=1)
        cuts = padded[:, top]
        if not (inner & (padded[:, :top].max(axis=1) == cuts)).any():
            break
    np.less(keys, cuts[:, None], out=out)
    out[full] = 1


def _label_blocks(pooled: PooledSample, n_permutations: int, seed: int):
    """Yield (start, labels) over the fixed grid of LABEL_BLOCK_ROWS-row blocks.

    labels is a float64 (P + 1, block size) matrix with labels[p, i] = 1
    when pooled row start + i is labeled x under permutation p and 0
    otherwise; row 0 is the observed labeling (the first n_x rows).  It is
    a view of one buffer that the next block overwrites.
    """
    starts = range(0, pooled.n, LABEL_BLOCK_ROWS)
    sizes = [min(LABEL_BLOCK_ROWS, pooled.n - start) for start in starts]
    counts_rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = counts_rng.multivariate_hypergeometric(sizes, pooled.n_x,
                                                    size=n_permutations)
    buffer = np.empty((n_permutations + 1) * sizes[0])
    scratch = np.empty(2 * n_permutations * sizes[0], dtype=np.uint32)
    for block, (start, size) in enumerate(zip(starts, sizes)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        labels = buffer[:(n_permutations + 1) * size].reshape(-1, size)
        labels[0] = np.arange(start, start + size) < pooled.n_x
        _uniform_subsets(counts[:, block], rng, labels[1:], scratch)
        yield start, labels


def accumulate_weighted_features(pooled: PooledSample, feature_map: FeatureMap,
                                 n_permutations: int, seed: int) -> np.ndarray:
    """Signed feature mean differences under the observed and P permuted labelings.

    Row p of the (P + 1, feature width) result is mean_x phi - mean_y phi
    under labeling p.  One pass over the label blocks, evaluating each
    block's basis once; the sums are basis-wide, (P + 1, dimension).
    """
    sums = np.zeros((n_permutations + 1, feature_map.dimension))
    total = np.zeros(feature_map.dimension)
    # buffers reused by every block
    basis_buffer = np.empty((min(LABEL_BLOCK_ROWS, pooled.n), feature_map.dimension))
    product = np.empty_like(sums)
    for start, labels in _label_blocks(pooled, n_permutations, seed):
        size = labels.shape[1]
        basis = feature_map.basis(pooled.points[start:start + size],
                                  out=basis_buffer[:size])
        sums += np.matmul(labels, basis, out=product)
        total += basis.sum(axis=0)
    coordinates = (1.0 / pooled.n_x + 1.0 / pooled.n_y) * sums - total / pooled.n_y
    return feature_map.from_basis(coordinates)


def permutation_weights(pooled: PooledSample, n_permutations: int,
                        seed: int) -> np.ndarray:
    """Signed weight matrix of shape (P + 1, n), for exact mode only.

    Row p holds 1/n_x on the rows labeled x and -1/n_y on the others, for
    the observed labeling (p = 0) and the same P permuted labelings that
    permuted_statistics draws for this seed.  It is O((P + 1) * n) storage;
    the feature-map statistics never form it.
    """
    weights = np.empty((n_permutations + 1, pooled.n))
    for start, labels in _label_blocks(pooled, n_permutations, seed):
        weights[:, start:start + labels.shape[1]] = np.where(
            labels > 0, 1.0 / pooled.n_x, -1.0 / pooled.n_y)
    return weights


def permuted_statistics(pooled: PooledSample, feature_map: FeatureMap,
                        n_permutations: int, seed: int) -> np.ndarray:
    """The unpermuted statistic followed by P permuted replicates.

    Entry 0 is the projected MMD of the observed labeling; entries 1..P use
    independent uniform splits of the pooled rows; P = 0 gives entry 0
    alone.  Deterministic for a fixed seed.
    """
    accumulated = accumulate_weighted_features(pooled, feature_map,
                                               n_permutations, seed)
    return np.linalg.norm(accumulated, axis=1)
