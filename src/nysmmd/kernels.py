"""Gaussian kernel evaluation, Gram matrices, and bandwidth selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_BANDWIDTH_SUBSET = 2000
# pair-block size in float64 values (256 KB): a block and its temporary stay
# in cache while every column is added to it
_PAIR_BLOCK = 1 << 15
# target size of the strided sample that brackets the middle order statistics
_BRACKET_SAMPLE = 1 << 14


def as_points(data, name: str = "points") -> np.ndarray:
    """Validate and convert a dataset to a float64 matrix of shape (n, d).

    Args:
        data: Array-like with one observation per row.
        name: Label used in error messages.

    Returns:
        A C-contiguous float64 array with n >= 1 rows and d >= 1 columns.

    Raises:
        ValueError: If the input is not 2-dimensional, is empty, or
            contains non-finite entries.
    """
    points = np.ascontiguousarray(data, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {points.shape}")
    if points.shape[0] < 1 or points.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(points).all():
        raise ValueError(f"{name} contains non-finite entries")
    return points


@dataclass(frozen=True)
class GaussianKernel:
    """Gaussian kernel k(x, y) = exp(-||x - y||^2 / (2 h^2)) with bandwidth h.

    The kernel is bounded with k(x, x) = 1, so its sup-norm is 1.
    """

    bandwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be a positive real, got {self.bandwidth}")

    def __call__(self, x, y) -> float:
        """Evaluate the kernel on a single pair of d-vectors."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"x and y must be 1-d vectors of equal length, "
                             f"got shapes {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("kernel inputs must be finite")
        diff = x - y
        return float(np.exp(-(diff @ diff) / (2.0 * self.bandwidth**2)))

    def gram(self, a, b) -> np.ndarray:
        """Kernel matrix K[i, j] = k(a_i, b_j) between two datasets.

        Both arguments are first centered on the mean of b, so the accuracy
        does not depend on where the data sit.  The exponents
        -||a_i - b_j||^2 / (2 h^2) then come from one GEMM of augmented
        matrices, [a, -|a|^2 / 2h^2, 1] @ [b / h^2, 1, -|b|^2 / 2h^2]',
        which is clamped at 0 (round-off could leave a positive exponent,
        so K <= 1 always) and exponentiated in place.  When both arguments
        hold the same points the result is exactly symmetric with a unit
        diagonal: the lower triangle is computed once and mirrored.
        """
        a = as_points(a, "a")
        b = as_points(b, "b")
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        symmetric = a is b or (a.shape == b.shape and np.array_equal(a, b))
        d = a.shape[1]
        h2 = self.bandwidth**2
        center = b.mean(axis=0)
        left = np.empty((a.shape[0], d + 2))
        right = np.empty((b.shape[0], d + 2))
        np.subtract(a, center, out=left[:, :d])
        np.subtract(b, center, out=right[:, :d])
        left[:, d] = np.einsum("ij,ij->i", left[:, :d], left[:, :d]) / (-2.0 * h2)
        left[:, d + 1] = 1.0
        right[:, d] = 1.0
        right[:, d + 1] = np.einsum("ij,ij->i", right[:, :d], right[:, :d]) / (-2.0 * h2)
        right[:, :d] /= h2
        k = left @ right.T
        np.minimum(k, 0.0, out=k)
        np.exp(k, out=k)
        if symmetric:
            lower = np.tril(k)
            k = lower + np.tril(k, -1).T
            np.fill_diagonal(k, 1.0)
        return k


def median_heuristic(points, subset_size: int = DEFAULT_BANDWIDTH_SUBSET,
                     seed: int = 0) -> float:
    """Median pairwise Euclidean distance, estimated on a random subset.

    Draws m = min(n, subset_size) points without replacement (deterministic
    for a fixed seed) and returns the median of all pairwise distances between
    them.  An even number of pairs is resolved as the midpoint of the two
    central order statistics.  The result equals
    ``float(np.median(scipy.spatial.distance.pdist(subset)))`` bit for bit:
    each squared distance is summed column by column in pdist's order, and
    the two central order statistics are selected exactly before the square
    root.  Time is O(m^2 d); storage is m(m - 1)/2 float64 values (16 MB at
    m = 2000).

    Raises:
        ValueError: If fewer than two points are available or every pairwise
            distance in the subset is zero (a zero bandwidth is never
            returned).
    """
    points = as_points(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least two points")
    if subset_size < 2:
        raise ValueError("subset_size must be at least 2")
    m = min(n, subset_size)
    if m < n:
        idx = np.random.default_rng(seed).choice(n, size=m, replace=False)
        subset = points[idx]
    else:
        subset = points
    middle = _middle_order_statistics(_pairwise_squared_distances(subset))
    median = float(np.mean(np.sqrt(middle)))
    if median <= 0.0:
        raise ValueError("median pairwise distance in the bandwidth subset is zero "
                         "(degenerate data); refusing to return a zero bandwidth")
    return median


def _pairwise_squared_distances(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of all m(m - 1)/2 unordered pairs of rows.

    Each pair appears once, in a cyclic order: (i, (i + k) mod m) for every
    row i and k = 1..(m - 1)//2, then (i, i + m/2) for i < m/2 when m is even.
    Each value is ((x_0 - y_0)^2 + (x_1 - y_1)^2) + ..., summed in column
    order as scipy's pdist sums it, so the values are pdist's squared
    distances in another order.
    """
    m, d = points.shape
    half = (m - 1) // 2
    opposite = m // 2 if m % 2 == 0 else 0
    out = np.empty(m * half + opposite)
    with np.errstate(over="ignore"):  # pdist also yields inf without a warning
        if half:
            cyclic = out[:m * half].reshape(m, half)
            # row i of windows[c] is column c at rows i, i + 1, ..., i + half (mod m)
            columns = np.concatenate((points, points[:half])).T.copy()
            windows = sliding_window_view(columns, half + 1, axis=1)
            rows = max(1, _PAIR_BLOCK // half)
            scratch = np.empty((rows, half))
            for start in range(0, m, rows):
                stop = min(m, start + rows)
                _accumulate_squares(cyclic[start:stop], scratch[:stop - start],
                                    windows[:, start:stop, 1:],
                                    windows[:, start:stop, :1])
        if opposite:
            _accumulate_squares(out[m * half:], np.empty(opposite),
                                points[:opposite].T, points[opposite:].T)
    return out


def _accumulate_squares(out, scratch, a, b) -> None:
    """out = sum over c of (a[c] - b[c])^2, added in order of c."""
    for c in range(a.shape[0]):
        target = out if c == 0 else scratch
        np.subtract(a[c], b[c], out=target)
        np.multiply(target, target, out=target)
        if c:
            out += scratch


def _middle_order_statistics(values: np.ndarray) -> np.ndarray:
    """The order statistics (N - 1)//2 and N//2 of the N values, as a slice.

    They are the one or two values np.median averages.  ``values`` is
    scratch: it is partitioned in place when the bracket misses.
    """
    n = values.size
    lo, hi = (n - 1) // 2, n // 2
    bracket = _bracket_middle(values, lo, hi)
    candidates, offset = (values, 0) if bracket is None else bracket
    candidates.partition((lo - offset, hi - offset))
    return candidates[lo - offset:hi - offset + 1]


def _bracket_middle(values: np.ndarray, lo: int, hi: int):
    """Narrow the search for order statistics lo <= hi of values.

    Takes two bounds low <= high from a sorted strided sample and returns the
    values in [low, high] with the count of values below low, provided ranks
    lo and hi fall inside that window; otherwise None.  The check makes the result
    exact whatever the sample, so a poor sample costs time, never accuracy.
    """
    n = values.size
    stride = n // _BRACKET_SAMPLE
    if stride < 2:
        return None
    sample = np.sort(values[::stride])
    size = sample.size
    margin = 4 * int(np.sqrt(size)) + 1  # about 8 standard deviations of a rank
    low = sample[max(0, lo * size // n - margin)]
    high = sample[min(size - 1, hi * size // n + margin)]
    below = np.count_nonzero(values < low)
    candidates = values[(values >= low) & (values <= high)]
    if below <= lo and hi < below + candidates.size:
        return candidates, below
    return None
