"""Ridge leverage scores and landmark sampling.

Exact kernel ridge leverage scores are the diagonal of K (K + lambda*n I)^-1.
Sampling landmarks proportionally to (approximate) leverage scores
concentrates the landmark budget on directions that matter for the kernel
mean embeddings; uniform sampling is the baseline.  Both samplers draw with
replacement from the pooled data, which keeps the sampling probabilities
equivariant under relabeling of the rows.

approx_krls scores B = 1024 rows at a time against subsets S of about 256
rows: O(n * |S|^2) time, O(B * |S| + n * d) storage, and scores equal to the
unblocked formula up to round-off, not bitwise.  One kernel-block and one
projection buffer serve every block at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKernel, as_points
from .linalg import psd_eigh

# Intermediate sample size of approx_krls, and the size of its recursion base.
_AKRLS_BUDGET = 256
# Rows scored per kernel block against the weighted subset in approx_krls.
_SCORE_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Landmark points drawn with replacement from a dataset's rows, shape (ell, d)."""

    points: np.ndarray

    @property
    def size(self) -> int:
        return self.points.shape[0]


def default_regularization(n: int) -> float:
    """Default ridge level 16 * log(4 / 0.05) / n for a unit-bounded kernel."""
    if n < 1:
        raise ValueError("n must be positive")
    return 16.0 * math.log(4.0 / 0.05) / n


def _ridge_scores(gram, ridge_abs):
    """diag(K (K + ridge_abs I)^-1) through a symmetric eigendecomposition."""
    eigenvalues, eigenvectors = psd_eigh(gram, "gram")
    shrink = eigenvalues / (eigenvalues + ridge_abs)
    scores = np.einsum("ij,j,ij->i", eigenvectors, shrink, eigenvectors)
    np.clip(scores, 0.0, 1.0, out=scores)
    return scores


def exact_krls(gram: np.ndarray, regularization: float) -> np.ndarray:
    """Exact kernel ridge leverage scores of a PSD kernel matrix.

    Computes diag(K (K + lambda*n I)^-1) through a symmetric
    eigendecomposition: with K = V diag(e) V', the i-th score is
    sum_j V_ij^2 * e_j / (e_j + lambda*n).

    Args:
        gram: Symmetric PSD kernel matrix of shape (n, n).
        regularization: Positive ridge parameter lambda.

    Returns:
        The n scores, all in [0, 1).
    """
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    return _ridge_scores(gram, regularization * len(gram))


def _recursive_scores(points, kernel, ridge_abs, rng):
    # Halve down to the recursion base, then score each level from the one
    # below it.  The draws come in the order of the recursive formulation:
    # every halving permutation first, then the keep draws from the base up.
    levels = [points]
    while levels[-1].shape[0] > _AKRLS_BUDGET:
        m = levels[-1].shape[0]
        levels.append(levels[-1][rng.permutation(m)[: (m + 1) // 2]])
    scores = _ridge_scores(kernel.gram(levels[-1], levels[-1]), ridge_abs)
    # kernel-block and projection buffers, shared by every block and level
    gram_buffer = projected_buffer = np.empty(0)
    for level in reversed(range(len(levels) - 1)):
        points, half, half_scores = levels[level], levels[level + 1], scores
        n = points.shape[0]
        total = half_scores.sum()
        if total <= 0:
            probabilities = np.full(half.shape[0], 1.0)
        else:
            probabilities = np.minimum(1.0, half_scores * (_AKRLS_BUDGET / total))
        keep = rng.random(half.shape[0]) < probabilities
        if not keep.any():
            forced = int(np.argmax(half_scores))
            keep[forced] = True
            probabilities[forced] = 1.0

        # Nystrom-style overestimates from the weighted column subset S:
        # (K_ii - b_i' (W K_SS W + ridge I)^-1 b_i) / ridge with b_i = W K_{S,i}
        # and W = diag(weights).  For any subset they never undershoot the
        # exact scores; a well-chosen subset also bounds them from above within
        # a constant factor.  With W K_SS W = V diag(e) V', the quadratic form
        # is |K_{i,S} M|^2 for the |S| x |S| factor M = W V diag((e + ridge)^-1/2),
        # so each block of rows costs one kernel block and one GEMM.
        subset = half[keep]
        weights = 1.0 / np.sqrt(probabilities[keep])
        middle = weights[:, None] * kernel.gram(subset, subset) * weights[None, :]
        eigenvalues, eigenvectors = psd_eigh(middle, "weighted subset gram")
        factor = weights[:, None] * eigenvectors / np.sqrt(eigenvalues + ridge_abs)
        width = subset.shape[0]
        if gram_buffer.size < min(n, _SCORE_BLOCK_ROWS) * width:
            gram_buffer = np.empty(min(n, _SCORE_BLOCK_ROWS) * width)
            projected_buffer = np.empty_like(gram_buffer)
        quad = np.empty(n)
        for start in range(0, n, _SCORE_BLOCK_ROWS):
            block = slice(start, start + _SCORE_BLOCK_ROWS)
            size = points[block].shape[0] * width
            gram = kernel.gram(points[block], subset,
                               out=gram_buffer[:size].reshape(-1, width))
            projected = np.matmul(gram, factor,
                                  out=projected_buffer[:size].reshape(-1, width))
            quad[block] = np.einsum("ij,ij->i", projected, projected)
        # K_ii = 1 for the Gaussian kernel.
        scores = (1.0 - quad) / ridge_abs
        np.clip(scores, 0.0, 1.0, out=scores)
    return scores


def approx_krls(points, kernel: GaussianKernel, regularization: float,
                seed: int) -> np.ndarray:
    """Approximate kernel ridge leverage scores by recursive half-sampling.

    The dataset is halved recursively down to a base of at most 256 rows,
    whose exact scores seed weighted Nystrom-style estimates on subsets S of
    about 256 rows on the way back up.  Scores are therefore exact for
    n <= 256, and no eigendecomposition exceeds about 256 rows at any n.
    Each level scores its rows in blocks of B = 1024 against S, so time is
    O(n * |S|^2) and storage O(B * |S| + n * d).  The blocking changes only
    the rounding: scores agree with the unblocked formula to round-off, not
    bitwise.  Deterministic for a fixed seed and BLAS thread count.

    Args:
        points: Dataset of shape (n, d).
        kernel: Kernel used to form (sub)matrices on demand.
        regularization: Ridge parameter lambda; the absolute ridge level
            lambda * n is held fixed throughout the recursion.
        seed: Seed for the sampling randomness.

    Returns:
        The n scores: Nystrom-style overestimates of the exact ones, capped
        at 1.
    """
    points = as_points(points)
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    rng = np.random.default_rng(seed)
    return _recursive_scores(points, kernel, regularization * points.shape[0], rng)


def sample_landmarks(points, ell: int, seed: int,
                     scores: np.ndarray | None = None) -> LandmarkSet:
    """Draw ell landmark rows i.i.d. with replacement.

    Sampling probabilities are proportional to ``scores`` (one per row, as
    exact_krls and approx_krls return them) when given and uniform
    otherwise.  Relabeling the rows of the dataset (and its scores) permutes
    the sampling distribution identically, which is what makes the
    permutation test exact when landmarks come from the pooled data.

    Raises:
        ValueError: If ell < 1, or if the scores are not n finite
            non-negative numbers with a positive sum.
    """
    points = as_points(points)
    if ell < 1:
        raise ValueError("ell must be at least 1")
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    if scores is None:
        indices = rng.integers(0, n, size=ell)
    else:
        weights = np.asarray(scores, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"scores have length {weights.shape}, expected ({n},)")
        # false for NaN as well as for negative and infinite scores
        if not ((weights >= 0) & (weights < np.inf)).all():
            raise ValueError("leverage scores must be finite and non-negative")
        total = weights.sum()
        if total == 0:
            raise ValueError("all leverage scores are zero; cannot sample landmarks")
        indices = rng.choice(n, size=ell, replace=True, p=weights / total)
    return LandmarkSet(points=points[indices])
