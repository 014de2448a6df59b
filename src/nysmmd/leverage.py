"""Ridge leverage scores, landmark sampling, and the effective dimension.

Exact kernel ridge leverage scores are the diagonal of K (K + lambda*n I)^-1.
Sampling landmarks proportionally to (approximate) leverage scores
concentrates the landmark budget on directions that matter for the kernel
mean embeddings; uniform sampling is the baseline.  Both samplers draw with
replacement from the pooled data, which keeps the sampling probabilities
equivariant under relabeling of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import GaussianKernel, as_points
from .linalg import psd_eigh

DEFAULT_AKRLS_BUDGET = 256
DEFAULT_EXACT_FALLBACK = 2048
_MIN_BUDGET = 8


@dataclass(frozen=True, eq=False)
class LeverageScores:
    """Per-point landmark sampling weights with their regularization.

    Attributes:
        scores: Nonnegative weights, one per data point.  Exact scores lie
            in [0, 1); approximate scores are Nystrom-style overestimates
            capped at 1.
        regularization: The ridge parameter lambda (the solve uses
            lambda * n on the kernel matrix).
        kind: "exact" or "approximate".
    """

    scores: np.ndarray
    regularization: float
    kind: str


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Landmarks drawn (with replacement) from a dataset.

    Attributes:
        indices: Multiset of row indices into the source dataset.
        points: The corresponding rows, shape (ell, d).
        sampler: "uniform", "exact_krls", or "akrls".
    """

    indices: np.ndarray
    points: np.ndarray
    sampler: str

    @property
    def size(self) -> int:
        return self.points.shape[0]


def default_regularization(n: int, delta: float = 0.05) -> float:
    """Default ridge level 16 * log(4 / delta) / n for a unit-bounded kernel."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return 16.0 * math.log(4.0 / delta) / n


def exact_krls(gram: np.ndarray, regularization: float) -> LeverageScores:
    """Exact kernel ridge leverage scores of a PSD kernel matrix.

    Computes diag(K (K + lambda*n I)^-1) through a symmetric
    eigendecomposition: with K = V diag(e) V', the i-th score is
    sum_j V_ij^2 * e_j / (e_j + lambda*n).

    Args:
        gram: Symmetric PSD kernel matrix of shape (n, n).
        regularization: Positive ridge parameter lambda.

    Returns:
        LeverageScores with all scores in [0, 1).
    """
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    eigenvalues, eigenvectors = psd_eigh(gram, "gram")
    n = eigenvalues.shape[0]
    shrink = eigenvalues / (eigenvalues + regularization * n)
    scores = np.einsum("ij,j,ij->i", eigenvectors, shrink, eigenvectors)
    np.clip(scores, 0.0, 1.0, out=scores)
    return LeverageScores(scores=scores, regularization=regularization, kind="exact")


def effective_dimension(gram: np.ndarray, regularization: float) -> float:
    """Trace of K (K + lambda*n I)^-1, the smoothed count of dominant directions.

    Equals the sum of the exact ridge leverage scores and decreases as the
    ridge level grows.
    """
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    eigenvalues, _ = psd_eigh(gram, "gram")
    n = eigenvalues.shape[0]
    return float(np.sum(eigenvalues / (eigenvalues + regularization * n)))


def _weighted_subset_scores(points, kernel, subset, weights, ridge_abs):
    """Leverage-score estimates for all rows given a weighted column subset.

    Uses the Nystrom-style overestimate
        (K_ii - b_i' (W K_SS W + ridge I)^-1 b_i) / ridge,
    where b_i = W K_{S,i} and W = diag(weights).  For any subset this never
    undershoots the exact score; a well-chosen subset also bounds it from
    above within a constant factor.
    """
    k_cs = kernel.gram(points, subset)
    k_ss = kernel.gram(subset, subset)
    middle = weights[:, None] * k_ss * weights[None, :]
    eigenvalues, eigenvectors = psd_eigh(middle, "weighted subset gram")
    b = k_cs * weights[None, :]
    projected = b @ eigenvectors
    shrunk = projected / (eigenvalues + ridge_abs)[None, :]
    quad = np.einsum("ij,ij->i", projected, shrunk)
    # K_ii = 1 for the Gaussian kernel.
    scores = (1.0 - quad) / ridge_abs
    np.clip(scores, 0.0, 1.0, out=scores)
    return scores


def _recursive_scores(points, kernel, ridge_abs, budget, rng):
    n = points.shape[0]
    if n <= budget:
        eigenvalues, eigenvectors = psd_eigh(kernel.gram(points, points), "gram")
        shrink = eigenvalues / (eigenvalues + ridge_abs)
        scores = np.einsum("ij,j,ij->i", eigenvectors, shrink, eigenvectors)
        np.clip(scores, 0.0, 1.0, out=scores)
        return scores

    half = rng.permutation(n)[: (n + 1) // 2]
    half_scores = _recursive_scores(points[half], kernel, ridge_abs, budget, rng)

    total = half_scores.sum()
    if total <= 0:
        probabilities = np.full(half.shape[0], 1.0)
    else:
        probabilities = np.minimum(1.0, half_scores * (budget / total))
    keep = rng.random(half.shape[0]) < probabilities
    if not keep.any():
        forced = int(np.argmax(half_scores))
        keep[forced] = True
        probabilities[forced] = 1.0

    subset = points[half[keep]]
    weights = 1.0 / np.sqrt(probabilities[keep])
    return _weighted_subset_scores(points, kernel, subset, weights, ridge_abs)


def approx_krls(points, kernel: GaussianKernel, regularization: float, seed: int,
                budget: int = DEFAULT_AKRLS_BUDGET,
                fallback_threshold: int = DEFAULT_EXACT_FALLBACK) -> LeverageScores:
    """Approximate kernel ridge leverage scores by recursive half-sampling.

    The dataset is halved recursively until it fits the budget; exact scores
    on the base subset then seed weighted Nystrom-style estimates on the way
    back up.  Deterministic for a fixed seed.  For n at or below
    ``fallback_threshold`` the dense computation is cheap, so the result is
    bit-identical to :func:`exact_krls` on the full kernel matrix.

    Args:
        points: Dataset of shape (n, d).
        kernel: Kernel used to form (sub)matrices on demand.
        regularization: Ridge parameter lambda; the absolute ridge level
            lambda * n is held fixed throughout the recursion.
        seed: Seed for the sampling randomness.
        budget: Target intermediate sample size; also the recursion base
            size.  Must be at least 8.
        fallback_threshold: Below this size the exact scores are returned.

    Returns:
        LeverageScores of kind "exact" when the fallback was taken, else
        kind "approximate".
    """
    points = as_points(points)
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    if budget < _MIN_BUDGET:
        raise ValueError(f"budget must be at least {_MIN_BUDGET}, got {budget}")
    n = points.shape[0]
    if n <= fallback_threshold:
        return exact_krls(kernel.gram(points, points), regularization)
    rng = np.random.default_rng(seed)
    scores = _recursive_scores(points, kernel, regularization * n, budget, rng)
    return LeverageScores(scores=scores, regularization=regularization,
                          kind="approximate")


def sample_landmarks(points, ell: int, seed: int,
                     scores: LeverageScores | None = None) -> LandmarkSet:
    """Draw ell landmark indices i.i.d. with replacement.

    Sampling probabilities are proportional to ``scores`` when given and
    uniform otherwise.  Relabeling the rows of the dataset (and its scores)
    permutes the sampling distribution identically, which is what makes the
    permutation test exact when landmarks come from the pooled data.

    Raises:
        ValueError: If ell < 1 or every score is zero.
    """
    points = as_points(points)
    if ell < 1:
        raise ValueError("ell must be at least 1")
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    if scores is None:
        indices = rng.integers(0, n, size=ell)
        sampler = "uniform"
    else:
        weights = np.asarray(scores.scores, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"scores have length {weights.shape}, expected ({n},)")
        total = weights.sum()
        if not (total > 0):
            raise ValueError("all leverage scores are zero; cannot sample landmarks")
        indices = rng.choice(n, size=ell, replace=True, p=weights / total)
        sampler = "exact_krls" if scores.kind == "exact" else "akrls"
    return LandmarkSet(indices=indices, points=points[indices], sampler=sampler)
