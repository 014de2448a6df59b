"""Two-sample test statistics: the projected MMD and its permuted replicates.

The projected statistic is the norm of the difference of empirical feature
means.  Under a labeling that marks which pooled rows form the first sample,
it equals ||(1/n_x + 1/n_y) S - T / n_y|| with S the feature sum over the
rows labeled x and T the sum over all rows.  Features are linear in a basis
of width r (kernel columns against the r kept landmarks for Nystrom, the
features themselves for random Fourier features, r = ell), so S and T are
summed in basis coordinates and the map's linear factor is applied once, to
the (P + 1) x r result.  T comes from the same GEMM as S: a block's label
matrix and the r x (P + 2) sums share one layout, in which row and column 0
hold T (the label row is all ones) and row and column 1 + p hold labeling p
(0 the observed one, p >= 1 permutation p).  The product is formed as
basis' labels', whose cost stays flat in r where labels @ basis runs into
the BLAS's edge tiles.

All P + 1 labelings are streamed in one pass over fixed blocks of
LABEL_BLOCK_ROWS = B rows, all drawn from one generator in a fixed order.
One multivariate hypergeometric draw gives, for every permutation, how many
x labels fall in each block; each block then draws a uniform subset of that
size per permutation, in batches of permutations, block by block and batch
by batch: the rows whose uint16 keys fall below a cut key, which one
partition of the batch's keys finds for every permutation at once, without
a sort.  A tie at a cut (about B / 2^17 per permutation, so most blocks
have one) redraws the keys of that permutation's row alone.  Together these
are uniform splits of the pooled rows.  A pooled sample that fits one block
draws three batches, the first ceil(P / 5) permutations, then up to
ceil(P / 2), then the rest (fewer at small P, where these coincide), and
every pass forms and maps them apart, so a decision-only pass that stops at
the look after its first or second batch (accumulate_weighted_features)
returns a bitwise prefix of the complete one; a larger sample draws all P
in one batch per block, and always runs in full.  Storage is
O((P + 2) * (r + B)) for the accumulators, the label matrix, the basis and
the uint16 key scratch, held in buffers that every block and batch reuses,
plus the P x (n / B) block counts; the n-wide signed weight matrix is
formed only by permutation_weights, for exact mode, which drops the ones
row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    keys = _keys(rng, counts.size, size)
    rows = np.arange(counts.size)
    cuts = np.empty(counts.size, dtype=np.uint16)
    while rows.size:
        padded = scratch[:rows.size * (size + top - low)].reshape(rows.size, -1)
        padded[:, :size] = keys if rows.size == counts.size else keys[rows]
        if top > low:  # row p's pads: top - counts[p] zeros, then 0xFFFF keys
            pads = padded[:, size:]
            np.greater_equal(np.arange(top - low), top - counts[rows, None], out=pads)
            pads *= 2**16 - 1
        padded.partition(top, axis=1)
        cuts[rows] = padded[:, top]
        rows = rows[inner[rows] & (padded[:, :top].max(axis=1) == cuts[rows])]
        if rows.size:
            keys[rows] = _keys(rng, rows.size, size)
    np.less(keys, cuts[:, None], out=out)
    out[full] = 1


def _label_blocks(pooled: PooledSample, n_permutations: int,
                  seed: int | np.random.Generator):
    """Yield (start, top, rows) for each batch of each LABEL_BLOCK_ROWS-row block.

    A block's float64 label matrix is laid out as in the module docstring:
    row 0 is all ones, and row 1 + p holds 1 on the block's pooled rows
    start, start + 1, ... that labeling p labels x and 0 on the others.
    rows is the run of that matrix, from row ``top``, that a batch fills.
    The matrix is a view of one buffer of P + 2 rows that the next block
    overwrites.

    Every draw comes from np.random.default_rng(seed), one generator (an
    int seed opens it; a Generator is used as it is and advanced): first a
    multivariate hypergeometric draw that splits each permutation's n_x x
    labels among the blocks (one block takes them all without a draw), then
    each block's batches, block by block and batch by batch.  A batch
    draws after every earlier one, so a permutation's labels do not depend
    on whether a later batch is drawn.  Each batch is yielded as drawn;
    only the first starts at row 0, with the ones row and the observed
    labeling.  A pooled sample of one block draws the first ceil(P / 5)
    permutations, then up to ceil(P / 2), then the rest, skipping a batch
    that would be empty; a larger one draws all P in one batch per block.
    """
    starts = range(0, pooled.n, LABEL_BLOCK_ROWS)
    sizes = [min(LABEL_BLOCK_ROWS, pooled.n - start) for start in starts]
    rng = np.random.default_rng(seed)
    if len(sizes) == 1:  # every labeling puts all n_x x labels in the one block
        counts = np.full((n_permutations, 1), pooled.n_x, dtype=np.int64)
    else:
        counts = rng.multivariate_hypergeometric(sizes, pooled.n_x, size=n_permutations)
    looks = ({-(-n_permutations // 5), -(-n_permutations // 2)} - {n_permutations}
             if len(sizes) == 1 else set())
    bounds = [0, *sorted(looks), n_permutations]
    buffer = np.empty((n_permutations + 2) * sizes[0])
    scratch = np.empty(2 * n_permutations * sizes[0], dtype=np.uint16)
    for block, (start, size) in enumerate(zip(starts, sizes)):
        rows = buffer[:(n_permutations + 2) * size].reshape(-1, size)
        rows[0] = 1.0
        rows[1] = np.arange(start, start + size) < pooled.n_x
        for low, high in zip(bounds, bounds[1:]):
            _uniform_subsets(counts[low:high, block], rng, rows[2 + low:2 + high],
                             scratch)
            top = 2 + low if low else 0
            yield start, top, rows[top:2 + high]


def accumulate_weighted_features(pooled: PooledSample, feature_map: FeatureMap,
                                 n_permutations: int, seed: int | np.random.Generator,
                                 accept_at: int | None = None) -> np.ndarray:
    """Signed feature mean differences under the observed and P permuted labelings.

    Row p of the (P + 1, feature width) result is mean_x phi - mean_y phi
    under labeling p.  One pass over the label blocks, evaluating each
    block's basis once; one GEMM per yielded batch, basis' against its label
    rows, adds to the same columns of the (dimension, P + 2) sums, which
    hold T and then the labeled sums (see the module docstring).  The sums
    are mapped to features after the pass; a one-block pass maps each batch
    on its own, and looks after every batch but its last: after ceil(P / 5)
    and after ceil(P / 2) permutations.

    With ``accept_at`` = m, a one-block pass stops at a look when at least
    m of the permuted statistics (row norms) so far strictly exceed row 0's
    and the largest value so far exceeds DEGENERATE_TIE_TOLERANCE.  The
    result then holds the rows so far, bit for bit the first rows of the
    pass without accept_at.
    """
    sums = np.zeros((feature_map.dimension, n_permutations + 2))
    # buffers reused by every block
    basis_buffer = np.empty((min(LABEL_BLOCK_ROWS, pooled.n), feature_map.dimension))
    products = np.empty_like(sums)

    def mapped(columns: slice) -> np.ndarray:
        coordinates = ((1.0 / pooled.n_x + 1.0 / pooled.n_y) * sums[:, columns]
                       - sums[:, :1] / pooled.n_y)
        return feature_map.from_basis(coordinates.T)

    pieces, done = [], 1  # a one-block pass's mapped batches, and their end
    for start, top, rows in _label_blocks(pooled, n_permutations, seed):
        size = rows.shape[1]
        if top == 0:  # a block's first batch; a later one reuses its basis
            basis = feature_map.basis(pooled.points[start:start + size],
                                      out=basis_buffer[:size])
        end = top + rows.shape[0]
        sums[:, top:end] += np.matmul(basis.T, rows.T, out=products[:, top:end])
        if end < sums.shape[1]:  # a one-block pass's batch before its last: a look
            pieces.append(mapped(slice(done, end)))
            done = end
            if accept_at is not None:
                ran = np.concatenate(pieces)
                statistics = np.linalg.norm(ran, axis=1)
                if (np.count_nonzero(statistics[1:] > statistics[0]) >= accept_at
                        and statistics.max() > DEGENERATE_TIE_TOLERANCE):
                    return ran
    return np.concatenate([*pieces, mapped(slice(done, None))])


def permutation_weights(pooled: PooledSample, n_permutations: int,
                        seed: int | np.random.Generator) -> np.ndarray:
    """Signed weight matrix of shape (P + 1, n), for exact mode only.

    Row p holds 1/n_x on the rows labeled x and -1/n_y on the others, for
    the observed labeling (p = 0) and the same P permuted labelings that
    permuted_statistics draws for this seed or generator state.  The rows
    are filled in the label matrices' layout, ones row first, which is
    dropped.  It is O((P + 2) * n) storage; the feature-map statistics never
    form it.
    """
    weights = np.empty((n_permutations + 2, pooled.n))
    for start, top, rows in _label_blocks(pooled, n_permutations, seed):
        weights[top:top + rows.shape[0], start:start + rows.shape[1]] = (
            np.where(rows > 0, 1.0 / pooled.n_x, -1.0 / pooled.n_y))
    return weights[1:]


def permuted_statistics(pooled: PooledSample, feature_map: FeatureMap,
                        n_permutations: int, seed: int | np.random.Generator,
                        accept_at: int | None = None) -> np.ndarray:
    """The unpermuted statistic followed by P permuted replicates.

    Entry 0 is the projected MMD of the observed labeling; entries 1..P use
    independent uniform splits of the pooled rows; P = 0 gives entry 0
    alone.  Deterministic for a fixed seed or generator state.  With
    ``accept_at``, a one-block pass may stop after ceil(P / 5) or
    ceil(P / 2) permutations and return, bit for bit, the first entries of
    the vector returned without accept_at (see accumulate_weighted_features).
    """
    accumulated = accumulate_weighted_features(pooled, feature_map,
                                               n_permutations, seed, accept_at)
    return np.linalg.norm(accumulated, axis=1)
