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
draws a uniform subset of that size per permutation, in batches of
permutations, each batch from its own generator keyed by (block, batch):
the rows whose uint16 keys fall below a cut key, which one partition of the
batch's keys finds for every permutation at once, without a sort.  A tie at
a cut (about B / 2^17 per permutation, so most blocks have one) redraws the
keys of that permutation's row alone.  Together these are uniform splits of
the pooled rows.  A pooled sample that fits one block draws two batches,
the first ceil(P / 5) permutations and then the rest, and a decision-only
pass may stop after the first (accumulate_weighted_features); a larger one
draws all P in one batch per block, and always runs in full.  Storage is
O((P + 2) * (r + B)) for the accumulators, the labels with their ones row,
the basis and the uint16 key scratch of one block's larger batch, held in
buffers that every block reuses, plus the P x (n / B) block counts; the
n-wide signed weight matrix is formed only by permutation_weights, for
exact mode, which drops the ones row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import FeatureMap
from .kernels import as_points

LABEL_BLOCK_ROWS = 1024
# Statistics are bounded by 2 for a unit-bounded kernel, so replicates below
# this are pure cancellation round-off.  When EVERY replicate is that small
# (degenerate data, e.g. all points equal), run_test snaps the values to
# exact zeros; otherwise the residues, which are not exchangeable, would
# leak through the bitwise-equality tie rule and break the exact level.
DEGENERATE_TIE_TOLERANCE = 1e-12


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


def _label_blocks(pooled: PooledSample, n_permutations: int, seed: int,
                  partial: bool = False):
    """Yield (start, begin, labels) over the fixed grid of LABEL_BLOCK_ROWS-row blocks.

    labels is a float64 matrix with labels[j, i] = 1 when pooled row
    start + i is labeled x under labeling begin + j and 0 otherwise, for a
    run of labelings: labeling 0 is the observed one (the first n_x rows),
    labeling p permutation p.  Its last row is all ones, so a product with
    the block's basis also yields the basis total; it is no labeling.  The
    matrix is a view of one buffer that the next yield overwrites.

    A block draws its permutations in batches, each from its own generator
    keyed by (block, batch), so a permutation's labels do not depend on
    whether a later batch is drawn.  A pooled sample of one block draws the
    first ceil(P / 5) permutations, then the rest; a larger one draws all P
    in one batch per block.  A block is yielded once, with begin = 0 and
    all P + 1 labelings, unless ``partial``: then each batch is yielded as
    drawn, the first with the observed labeling, and the buffer is sized
    for the larger batch.
    """
    starts = range(0, pooled.n, LABEL_BLOCK_ROWS)
    sizes = [min(LABEL_BLOCK_ROWS, pooled.n - start) for start in starts]
    counts_rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = counts_rng.multivariate_hypergeometric(sizes, pooled.n_x,
                                                    size=n_permutations)
    first = -(-n_permutations // 5)
    bounds = ([0, first, n_permutations] if len(sizes) == 1 and first < n_permutations
              else [0, n_permutations])
    widest = max(high - low for low, high in zip(bounds, bounds[1:]))
    buffer = np.empty(((widest if partial else n_permutations) + 2) * sizes[0])
    scratch = np.empty(2 * widest * sizes[0], dtype=np.uint16)
    for block, (start, size) in enumerate(zip(starts, sizes)):
        for batch, (low, high) in enumerate(zip(bounds, bounds[1:])):
            if batch == 0 or partial:
                # labelings begin .. end - 1, then the ones row
                begin = low + 1 if batch else 0
                end = high + 1 if partial else n_permutations + 1
                labels = buffer[:(end - begin + 1) * size].reshape(-1, size)
                if begin == 0:
                    labels[0] = np.arange(start, start + size) < pooled.n_x
                labels[-1] = 1.0
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(block, batch)))
            _uniform_subsets(counts[low:high, block], rng,
                             labels[1 + low - begin:1 + high - begin], scratch)
            if partial or high == n_permutations:
                yield start, begin, labels


def accumulate_weighted_features(pooled: PooledSample, feature_map: FeatureMap,
                                 n_permutations: int, seed: int,
                                 accept_at: int | None = None) -> np.ndarray:
    """Signed feature mean differences under the observed and P permuted labelings.

    Row p of the (P + 1, feature width) result is mean_x phi - mean_y phi
    under labeling p.  One pass over the label blocks, evaluating each
    block's basis once; one GEMM per yielded label matrix, basis' against
    the labels and their ones row, gives the labeled sums and, in its last
    column, the block's total T.  The sums are basis-wide, (dimension,
    P + 1), and are mapped to features after the pass.

    With ``accept_at`` = m, a one-block pass runs its two batches as two
    GEMMs and maps the first, of ceil(P / 5) permutations, on its own.  It
    stops there when at least m of their statistics (row norms) strictly
    exceed row 0's and the largest exceeds DEGENERATE_TIE_TOLERANCE; the
    result then holds the batch's rows only, bit-identical to the first
    rows of the same pass run to the end.  A BLAS rounds a column
    differently at other GEMM widths, so these values agree with those of
    the one-GEMM pass without accept_at to round-off, not bit for bit.
    """
    sums = np.zeros((feature_map.dimension, n_permutations + 1))
    total = np.zeros(feature_map.dimension)
    # buffers reused by every block
    basis_buffer = np.empty((min(LABEL_BLOCK_ROWS, pooled.n), feature_map.dimension))
    products = np.empty((feature_map.dimension, n_permutations + 2))

    def mapped(labelings: slice) -> np.ndarray:
        coordinates = ((1.0 / pooled.n_x + 1.0 / pooled.n_y) * sums[:, labelings]
                       - total[:, None] / pooled.n_y)
        return feature_map.from_basis(coordinates.T)

    first = None
    for start, begin, labels in _label_blocks(pooled, n_permutations, seed,
                                              partial=accept_at is not None):
        size = labels.shape[1]
        if begin == 0:  # a block's first labels; a later batch reuses its basis
            basis = feature_map.basis(pooled.points[start:start + size],
                                      out=basis_buffer[:size])
        count = labels.shape[0] - 1
        product = np.matmul(basis.T, labels.T, out=products[:, :count + 1])
        sums[:, begin:begin + count] += product[:, :-1]
        if begin == 0:
            total += product[:, -1]
        if begin + count <= n_permutations:  # the first batch of a partial pass
            first = mapped(slice(0, count))
            statistics = np.linalg.norm(first, axis=1)
            if (np.count_nonzero(statistics[1:] > statistics[0]) >= accept_at
                    and statistics.max() > DEGENERATE_TIE_TOLERANCE):
                return first
    if first is None:
        return mapped(slice(None))
    return np.concatenate([first, mapped(slice(first.shape[0], None))])


def permutation_weights(pooled: PooledSample, n_permutations: int,
                        seed: int) -> np.ndarray:
    """Signed weight matrix of shape (P + 1, n), for exact mode only.

    Row p holds 1/n_x on the rows labeled x and -1/n_y on the others, for
    the observed labeling (p = 0) and the same P permuted labelings that
    permuted_statistics draws for this seed.  It is O((P + 1) * n) storage;
    the feature-map statistics never form it.
    """
    weights = np.empty((n_permutations + 1, pooled.n))
    for start, _, labels in _label_blocks(pooled, n_permutations, seed):
        weights[:, start:start + labels.shape[1]] = np.where(
            labels[:-1] > 0, 1.0 / pooled.n_x, -1.0 / pooled.n_y)
    return weights


def permuted_statistics(pooled: PooledSample, feature_map: FeatureMap,
                        n_permutations: int, seed: int,
                        accept_at: int | None = None) -> np.ndarray:
    """The unpermuted statistic followed by P permuted replicates.

    Entry 0 is the projected MMD of the observed labeling; entries 1..P use
    independent uniform splits of the pooled rows; P = 0 gives entry 0
    alone.  Deterministic for a fixed seed.  With ``accept_at``, a
    one-block pass may stop after its first batch and return the first
    entries of the vector it returns when it does not stop (see
    accumulate_weighted_features).
    """
    accumulated = accumulate_weighted_features(pooled, feature_map,
                                               n_permutations, seed, accept_at)
    return np.linalg.norm(accumulated, axis=1)
