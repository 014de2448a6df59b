"""Gaussian kernel evaluation, Gram matrices, and bandwidth selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

DEFAULT_BANDWIDTH_SUBSET = 2000


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


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of a and b.

    Uses the expansion ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, clamped at
    zero so round-off never produces negative squared distances.
    """
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    cross = a @ b.T
    cross *= 2.0
    d2 = np.add.outer(sq_a, sq_b)
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    return d2


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

        When both arguments hold the same points the result is exactly
        symmetric with a unit diagonal: the lower triangle is computed once
        and mirrored.
        """
        a = as_points(a, "a")
        b = as_points(b, "b")
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        symmetric = a is b or (a.shape == b.shape and np.array_equal(a, b))
        # in place: -d2 / (2 h^2) and d2 / (-2 h^2) are the same IEEE value
        k = squared_distances(a, b)
        np.divide(k, -2.0 * self.bandwidth**2, out=k)
        np.exp(k, out=k)
        if symmetric:
            lower = np.tril(k)
            k = lower + np.tril(k, -1).T
            np.fill_diagonal(k, 1.0)
        return k


def median_heuristic(points, subset_size: int = DEFAULT_BANDWIDTH_SUBSET,
                     seed: int = 0) -> float:
    """Median pairwise Euclidean distance, estimated on a random subset.

    Draws min(n, subset_size) points without replacement (deterministic for
    a fixed seed) and returns the median of all pairwise distances between
    them.  An even number of pairs is resolved as the midpoint of the two
    central order statistics.

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
    distances = pdist(subset)
    median = float(np.median(distances))
    if median <= 0.0:
        raise ValueError("median pairwise distance in the bandwidth subset is zero "
                         "(degenerate data); refusing to return a zero bandwidth")
    return median
