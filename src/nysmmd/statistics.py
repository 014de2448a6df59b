"""Two-sample test statistics: the projected MMD and its permuted replicates.

The projected statistic is the norm of the difference of empirical feature
means.  Under a labeling that marks which pooled rows form the first sample,
it equals ||(1/n_x + 1/n_y) S - T / n_y|| with S the feature sum over the
rows labeled x and T the sum over all rows.  Features are linear in a basis
of width r (kernel columns against the r kept landmarks for Nystrom, the
features themselves for random Fourier features, r = ell), so S and T are
summed in basis coordinates and the map's linear factor is applied once, to
the (P + 1) x r result.  T comes from the same GEMM as S: each block's label
matrix carries one all-ones row below its P + 1 labelings, so the product's
last column is the block's basis total.  The product is formed as
basis' labels' into an r x (P + 2) accumulator, whose cost stays flat in r
where labels @ basis runs into the BLAS's edge tiles.

All P + 1 labelings are streamed in one pass over fixed blocks of
LABEL_BLOCK_ROWS = B rows.  One multivariate hypergeometric draw gives,
for every permutation, how many x labels fall in each block; each block then
draws a uniform subset of that size per permutation from its own child
seed: the rows whose uint16 keys fall below a cut key, which one partition
of the block's keys finds for every permutation at once, without a sort.  A
tie at a cut (about B / 2^17 per permutation, so most blocks have one)
redraws the keys of that permutation's row alone.  Together these are
uniform splits of the pooled rows.  Storage is O((P + 2) * (r + B)) for
the accumulators, the labels with their ones row, the basis and the
2 * P * B uint16 key scratch of one block, held in buffers that every block
reuses, plus the P x (n / B) block counts; the n-wide signed weight matrix
is formed only by permutation_weights, for exact mode, which drops the ones
row.
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


def _keys(rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
    """A (rows, size) array of uniform uint16 keys, four to a random_raw word."""
    count = rows * size
    words = rng.bit_generator.random_raw((count + 3) // 4)
    return words.view(np.uint16)[:count].reshape(rows, size)


def _uniform_subsets(counts: np.ndarray, rng: np.random.Generator,
                     out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill out[p] with the 0/1 indicator of a uniform counts[p]-subset.

    Row p keeps the positions of its counts[p] smallest uniform uint16 keys,
    those below its cut: the (counts[p] + 1)-th smallest key.  One partition
    at an index shared by all rows finds every cut without a sort: with low
    and top the smallest and largest count, row p's keys are copied to a
    scratch row and followed by top - counts[p] zero keys and counts[p] - low
    0xFFFF keys, which puts its cut at index top.  A tie at a cut would keep
    fewer keys; it shows as max(part[:top]) == part[top] on a row with
    0 < counts[p] < size, about size / 2^17 of such rows (0.8% at 1,024).
    Only the tied rows draw fresh keys, in row order and in one random_raw
    call, and are partitioned again with fresh pads, until none ties.  Each
    row's accepted keys are i.i.d. uniform given an event symmetric in the
    positions, so its subset is uniform, and the rows stay independent.
    Full rows are set to 1 directly (a 0xFFFF cut would drop a key of
    0xFFFF), and a block with no row strictly between empty and full draws
    no keys.  ``scratch`` is a flat uint16 buffer of at least 2 * out.size
    entries.
    """
    size = out.shape[1]
    full = counts == size
    inner = (counts > 0) & ~full
    if not inner.any():
        out[:] = full[:, None]
        return
    low, top = int(counts.min()), int(counts.max())
    # row p's pads: the window of top - low zeros then as many 0xFFFF keys
    # that starts at counts[p] - low
    ramp = np.repeat(np.array([0, 2**16 - 1], dtype=np.uint16), top - low)
    pads = sliding_window_view(ramp, top - low)[counts - low]
    keys = _keys(rng, counts.size, size)
    padded = scratch[:counts.size * (size + top - low)].reshape(counts.size, -1)
    padded[:, :size] = keys
    padded[:, size:] = pads
    rows = np.arange(counts.size)
    cuts = np.empty(counts.size, dtype=np.uint16)
    while rows.size:
        padded.partition(top, axis=1)
        cuts[rows] = padded[:, top]
        rows = rows[inner[rows] & (padded[:, :top].max(axis=1) == cuts[rows])]
        if rows.size:
            keys[rows] = _keys(rng, rows.size, size)
            padded = np.concatenate([keys[rows], pads[rows]], axis=1)
    np.less(keys, cuts[:, None], out=out)
    out[full] = 1


def _label_blocks(pooled: PooledSample, n_permutations: int, seed: int):
    """Yield (start, labels) over the fixed grid of LABEL_BLOCK_ROWS-row blocks.

    labels is a float64 (P + 2, block size) matrix with labels[p, i] = 1
    when pooled row start + i is labeled x under permutation p and 0
    otherwise; row 0 is the observed labeling (the first n_x rows).  Its
    last row is all ones, so a product with the block's basis also yields
    the basis total; it is no labeling.  The matrix is a view of one buffer
    that the next block overwrites.
    """
    starts = range(0, pooled.n, LABEL_BLOCK_ROWS)
    sizes = [min(LABEL_BLOCK_ROWS, pooled.n - start) for start in starts]
    counts_rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = counts_rng.multivariate_hypergeometric(sizes, pooled.n_x,
                                                    size=n_permutations)
    buffer = np.empty((n_permutations + 2) * sizes[0])
    scratch = np.empty(2 * n_permutations * sizes[0], dtype=np.uint16)
    for block, (start, size) in enumerate(zip(starts, sizes)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        labels = buffer[:(n_permutations + 2) * size].reshape(-1, size)
        labels[0] = np.arange(start, start + size) < pooled.n_x
        _uniform_subsets(counts[:, block], rng, labels[1:-1], scratch)
        # a partial last block re-lays the buffer, so the ones row is
        # written on every block
        labels[-1] = 1.0
        yield start, labels


def accumulate_weighted_features(pooled: PooledSample, feature_map: FeatureMap,
                                 n_permutations: int, seed: int) -> np.ndarray:
    """Signed feature mean differences under the observed and P permuted labelings.

    Row p of the (P + 1, feature width) result is mean_x phi - mean_y phi
    under labeling p.  One pass over the label blocks, evaluating each
    block's basis once; one GEMM per block, basis' against the labels and
    their ones row, gives the block's P + 1 labeled sums and its total T in
    its last column.  The sums are basis-wide, (dimension, P + 2).
    """
    sums = np.zeros((feature_map.dimension, n_permutations + 2))
    # buffers reused by every block
    basis_buffer = np.empty((min(LABEL_BLOCK_ROWS, pooled.n), feature_map.dimension))
    product = np.empty_like(sums)
    for start, labels in _label_blocks(pooled, n_permutations, seed):
        size = labels.shape[1]
        basis = feature_map.basis(pooled.points[start:start + size],
                                  out=basis_buffer[:size])
        sums += np.matmul(basis.T, labels.T, out=product)
    coordinates = ((1.0 / pooled.n_x + 1.0 / pooled.n_y) * sums[:, :-1]
                   - sums[:, -1:] / pooled.n_y)
    return feature_map.from_basis(coordinates.T)


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
            labels[:-1] > 0, 1.0 / pooled.n_x, -1.0 / pooled.n_y)
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
