"""Gaussian kernel evaluation, Gram matrices, and bandwidth selection.

The bandwidth heuristic is the median distance over a fixed number
N = 2^14 + 1 of random pairs of distinct rows: O(N * d) time and storage at
any n, and a pair law that depends only on n and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pairs drawn by median_heuristic; odd, so the median is one drawn distance.
_MEDIAN_PAIRS = (1 << 14) + 1


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

    def gram(self, a, b, out: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix K[i, j] = k(a_i, b_j) between two datasets.

        Both arguments are first centered on the mean of b, so the accuracy
        does not depend on where the data sit.  The exponents
        -||a_i - b_j||^2 / (2 h^2) then come from one GEMM of augmented
        matrices, [a, -|a|^2 / 2h^2, 1] @ [b / h^2, 1, -|b|^2 / 2h^2]',
        which is clamped at 0 (round-off could leave a positive exponent,
        so K <= 1 always) and exponentiated in place.  When both arguments
        hold the same points they are centred and squared once, and the
        result is exactly symmetric with a unit diagonal: the lower triangle
        is computed once and mirrored.

        ``out``, a float64 array of shape (len(a), len(b)), receives the
        result and is returned; it lets blocked loops reuse one buffer.
        The values are the same as without it.
        """
        a = as_points(a, "a")
        b = as_points(b, "b")
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        symmetric = a is b or (a.shape == b.shape and np.array_equal(a, b))
        d = a.shape[1]
        h2 = self.bandwidth**2
        center = np.add.reduce(b, axis=0) / len(b)  # b.mean(axis=0), bit for bit
        left = np.empty((a.shape[0], d + 2))
        right = np.empty((b.shape[0], d + 2))
        np.subtract(b, center, out=right[:, :d])
        right[:, d] = 1.0
        right[:, d + 1] = np.einsum("ij,ij->i", right[:, :d], right[:, :d]) / (-2.0 * h2)
        if symmetric:  # the same centred points and squares on both sides
            left[:, :d] = right[:, :d]
            left[:, d] = right[:, d + 1]
        else:
            np.subtract(a, center, out=left[:, :d])
            left[:, d] = np.einsum("ij,ij->i", left[:, :d], left[:, :d]) / (-2.0 * h2)
        left[:, d + 1] = 1.0
        right[:, :d] /= h2
        k = np.matmul(left, right.T, out=out)
        np.minimum(k, 0.0, out=k)
        np.exp(k, out=k)
        if symmetric:
            np.copyto(k, k.T, where=~np.tri(len(k), dtype=bool))
            np.fill_diagonal(k, 1.0)
        return k


def median_heuristic(points, seed: int | np.random.Generator = 0) -> float:
    """Median Euclidean distance over N = 2^14 + 1 random pairs of rows.

    Each pair is an i.i.d. draw of two distinct rows, uniform over the
    n (n - 1) ordered pairs: one rng.integers call draws every pair's code
    c uniform on [0, n (n - 1)), decoded as i = c // (n - 1) and
    j = c - i (n - 1), plus 1 when j >= i.  Deterministic for a fixed seed
    (an int, or a Generator, which the draw advances); the words drawn
    depend only on n.
    N is odd, so the result is one of the drawn distances (no midpoint is
    averaged), and it equals scipy's pdist distance of that pair bit for
    bit.  Time and storage are O(N * d) at any n.  The pair law
    depends only on n and the seed, so relabeling the rows leaves the law
    of the bandwidth unchanged, which the exact level of the permutation
    test needs.

    Raises:
        ValueError: If fewer than two points are given, if the median
            distance is zero (degenerate data; a zero bandwidth is never
            returned), or if it overflows float64.
    """
    points = as_points(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError("median heuristic needs at least two points")
    rng = np.random.default_rng(seed)
    # code = first * (n - 1) + rank of second among the other n - 1 rows
    second = rng.integers(0, n * (n - 1), size=_MEDIAN_PAIRS)
    first = second // (n - 1)
    second -= first * (n - 1)
    second += second >= first
    # one row per coordinate; reducing over axis 0 adds the squares in order
    # of coordinate, as pdist does, so each distance is pdist's bit for bit
    columns = points.T
    with np.errstate(over="ignore"):  # an overflow is reported below
        diff = np.take(columns, first, axis=1)
        diff -= np.take(columns, second, axis=1)
        np.multiply(diff, diff, out=diff)
        squared = np.add.reduce(diff, axis=0)
    middle = _MEDIAN_PAIRS // 2
    median = float(np.sqrt(np.partition(squared, middle)[middle]))
    if median == np.inf:
        raise ValueError("median pairwise distance overflows float64; "
                         "rescale the data or pass a bandwidth")
    if median <= 0.0:
        raise ValueError("median pairwise distance is zero (degenerate data); "
                         "refusing to return a zero bandwidth")
    return median


