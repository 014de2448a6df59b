"""Ridge leverage scores and landmark sampling.

Exact kernel ridge leverage scores are the diagonal of K (K + lambda*n I)^-1.
Sampling landmarks proportionally to (approximate) leverage scores
concentrates the landmark budget on directions that matter for the kernel
mean embeddings; uniform sampling is the baseline.  Both samplers draw with
replacement from the pooled data, which keeps the sampling probabilities
equivariant under relabeling of the rows.  sample_landmarks then keeps only
the draws that add a direction above a tolerance, raised until the kept
kernel matrix is certified far from singular, so the map and the streamed
pass are r wide for r <= ell; it returns the inverse Cholesky factor of
that matrix beside them, which build_nystrom wraps as the map's transform.

approx_krls computes them by BLESS: it walks the ridge down in factor-2
steps, drawing about q1 / ridge candidate rows uniformly at each step and
scoring them against a small weighted dictionary drawn from the step before.
A step above lambda draws its keep uniforms first and scores only the
candidates whose uniform lies below a bound on every keep probability, about
c / q1 of them, so it keeps the rows that scoring every candidate would keep.
The last step scores all of its candidates and dominates the cost:
O((q1 / lambda) * |D|^2) time and O(B * |D| + n * d) storage for a dictionary
of |D| rows, with candidates scored B = 1024 at a time; the scores equal the
unblocked formula up to round-off, not bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import NystromMap
from .kernels import GaussianKernel, as_points
from .linalg import certified_inverse_factor, psd_eigh

# BLESS constants of approx_krls: q1, candidates drawn per unit of 1 / ridge,
# and c, the dictionary size as a multiple of the effective dimension.
_CANDIDATES_PER_INVERSE_RIDGE = 30
_DICTIONARY_OVERSAMPLING = 6
# Candidate rows scored per kernel block against the dictionary.
_SCORE_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """Landmark points drawn with replacement from a dataset's rows.

    ``points`` has shape (r, d): the r <= ell draws that sample_landmarks
    keeps, in draw order.  ``inverse_factor`` is L^-1 for the Cholesky
    factor L of their (r, r) kernel matrix, which sample_landmarks certified.
    """

    points: np.ndarray
    inverse_factor: np.ndarray


def default_regularization(n: int) -> float:
    """Default ridge level 16 * log(4 / 0.05) / n for a unit-bounded kernel."""
    if n < 1:
        raise ValueError("n must be positive")
    return 16.0 * math.log(4.0 / 0.05) / n


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
    eigenvalues, eigenvectors = psd_eigh(gram, "gram")
    shrink = eigenvalues / (eigenvalues + regularization * len(gram))
    scores = np.einsum("ij,j,ij->i", eigenvectors, shrink, eigenvectors)
    np.clip(scores, 0.0, 1.0, out=scores)
    return scores


def _dictionary_scores(points, candidates, dictionary, weights, kernel, ridge_abs):
    # Nystrom-style estimates from the weighted dictionary D:
    # (K_ii - b_i' (W K_DD W + ridge I)^-1 b_i) / ridge with b_i = W K_{D,i}
    # and W = diag(weights).  Unit weights never undershoot the exact scores;
    # the weights 1 / sqrt(p_i R / n) of a well-drawn dictionary keep them
    # within a constant factor of them.  With W K_DD W = V diag(e) V', the
    # quadratic form is |K_{i,D} M|^2 for M = W V diag((e + ridge)^-1/2), so
    # each block of candidates costs one kernel block and one GEMM.
    quad = np.zeros(candidates.size)
    width = dictionary.shape[0]
    if width and candidates.size:
        # the |D| x |D| product is an argument only, so it is freed before the blocks
        eigenvalues, factor = psd_eigh(
            weights[:, None] * kernel.gram(dictionary, dictionary) * weights,
            "weighted dictionary gram")
        factor *= weights[:, None]
        factor /= np.sqrt(eigenvalues + ridge_abs)
        # kernel-block and projection buffers, shared by every block
        rows = min(candidates.size, _SCORE_BLOCK_ROWS)
        gram_buffer = np.empty((rows, width))
        projected_buffer = np.empty((rows, width))
        for start in range(0, candidates.size, rows):
            block = candidates[start:start + rows]
            gram = kernel.gram(points[block], dictionary, out=gram_buffer[:block.size])
            projected = np.matmul(gram, factor, out=projected_buffer[:block.size])
            quad[start:start + block.size] = np.einsum("ij,ij->i", projected, projected)
    # K_ii = 1 for the Gaussian kernel.
    scores = (1.0 - quad) / ridge_abs
    np.clip(scores, 0.0, 1.0, out=scores)
    return scores


def approx_krls(points, kernel: GaussianKernel, regularization: float,
                seed: int | np.random.Generator) -> np.ndarray:
    """Approximate kernel ridge leverage scores by BLESS.

    BLESS (Rudi, Calandriello, Carratino & Rosasco, NeurIPS 2018) walks the
    ridge down as lambda_h = max(lambda, 2^-h) for h = 1, ..., H with
    H = max(1, ceil(log2(1 / lambda))).  Step h draws R_h = min(n,
    ceil(q1 / lambda_h)) candidate rows uniformly without replacement and
    scores them against the weighted dictionary D drawn from the candidates
    of step h - 1; an empty dictionary scores 1 / (lambda_h * n).  A step
    with lambda_h > lambda keeps candidate i when U_i < p_i for its keep
    probability p_i = min(1, s_i * c * n / R_h) and R_h uniforms U drawn
    before scoring.  The score s_i is at most min(1, 1 / (lambda_h * n)), so
    p_i <= b_h = min(1, min(1, 1 / (lambda_h * n)) * c * n / R_h) in floating
    point too, and the step scores only the candidates with U_i < b_h: it
    keeps the rows that scoring all R_h of them would keep, up to round-off
    in the scores.  With R_h = ceil(q1 / lambda_h) < n, b_h = c / q1, so a
    step above lambda scores about R_h * c / q1 candidates and the last,
    which scores all R_H, dominates the cost.  Each dictionary costs one
    eigendecomposition of about c times the effective dimension rows, at
    most H - 1 in all.  Time is O((q1 / lambda) * |D|^2) and storage
    O(B * |D| + n * d): candidates are scored in blocks of B = 1024 rows,
    which changes only the rounding.  Deterministic for a fixed seed and
    BLAS thread count.

    The candidate sets, the uniforms and so the scored subsets depend only
    on n and the seed, and every other draw only on data values, so
    relabeling the rows relabels the scores in distribution.

    Args:
        points: Dataset of shape (n, d).
        kernel: Kernel used to form (sub)matrices on demand.
        regularization: Target ridge parameter lambda.
        seed: Seed for the sampling randomness: an int, or a Generator,
            which the draws advance.

    Returns:
        The n scores: zero outside the last candidate set, and inside it
        Nystrom-style estimates of the exact ones, capped at 1.
    """
    points = as_points(points)
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    ridges = [max(regularization, 0.5)]
    while ridges[-1] > regularization:
        ridges.append(max(regularization, ridges[-1] / 2))
    dictionary, weights = points[:0], np.empty(0)
    for ridge in ridges:
        size = min(n, math.ceil(_CANDIDATES_PER_INVERSE_RIDGE / ridge))
        candidates = rng.choice(n, size=size, replace=False)
        if ridge == regularization:
            break
        # Keep candidate i when U_i < p_i = min(1, c * d_eff * s_i / sum(s)),
        # where d_eff = (n / R) * sum(s) estimates the effective dimension; a
        # kept row stands for 1 / (p_i * R / n) rows.  Since s_i <= min(1,
        # 1 / (ridge * n)) and rounding is monotone, p_i never exceeds the
        # bound below in floating point: only candidates under it are scored.
        scale = _DICTIONARY_OVERSAMPLING * n / size
        uniforms = rng.random(size)
        thinned = uniforms < min(1.0, min(1.0, 1.0 / (ridge * n)) * scale)
        candidates, uniforms = candidates[thinned], uniforms[thinned]
        probabilities = np.minimum(1.0, scale * _dictionary_scores(
            points, candidates, dictionary, weights, kernel, ridge * n))
        keep = uniforms < probabilities
        dictionary = points[candidates[keep]]
        weights = 1.0 / np.sqrt(probabilities[keep] * (size / n))
    scores = _dictionary_scores(points, candidates, dictionary, weights, kernel,
                                regularization * n)
    result = np.zeros(n)
    result[candidates] = scores
    return result


def _draw_rows(points: np.ndarray, ell: int, seed: int | np.random.Generator,
               scores: np.ndarray | None) -> np.ndarray:
    """ell rows of ``points`` drawn i.i.d. with replacement, in draw order.

    Sampling probabilities are proportional to ``scores`` when given and
    uniform otherwise; the argument checks are those of sample_landmarks.
    """
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
    return points[indices]


def sample_landmarks(points, ell: int, seed: int | np.random.Generator,
                     kernel: GaussianKernel,
                     scores: np.ndarray | None = None) -> LandmarkSet:
    """Draw ell rows i.i.d. with replacement and keep r whose kernel matrix is certified.

    Sampling probabilities are proportional to ``scores`` (one per row, as
    exact_krls and approx_krls return them) when given and uniform
    otherwise.  Draw k is kept when its squared kernel residual against all
    earlier draws, L_kk^2 - delta for the Cholesky factor L of
    K_ZZ + delta I, exceeds tau (approximate linear dependence; Engel,
    Mannor & Meir, IEEE TSP 2004).  tau starts at
    NystromMap.rank_tolerance * ell, the rank cutoff's scale since K_ZZ has
    trace ell, with delta = tau / 100, and is raised tenfold while
    linalg.certified_inverse_factor refuses the kept rows' kernel matrix at
    the floor NystromMap.rank_tolerance * r.  Draw 0 is always kept, so the
    search ends, at worst at the 1 x 1 matrix [1].  Repeats and
    near-duplicates are dropped.  The kept set is a deterministic function
    of the drawn values in draw order, so relabeling the rows of the
    dataset (and its scores) permutes the landmark law identically, which
    is what makes the permutation test exact when landmarks come from the
    pooled data.

    Returns:
        The r <= ell kept rows, in draw order, and L^-1 for the Cholesky
        factor L of their kernel matrix, the kept rows and columns of K_ZZ.

    Raises:
        ValueError: If ell < 1, or if the scores are not n finite
            non-negative numbers with a positive sum.
    """
    drawn = _draw_rows(as_points(points), ell, seed, scores)
    tolerance = NystromMap.rank_tolerance * ell
    jitter = tolerance / 100.0
    gram = kernel.gram(drawn, drawn)
    gram.flat[::ell + 1] += jitter
    residuals = np.linalg.cholesky(gram).diagonal() ** 2 - jitter
    residuals[0] = np.inf  # draw 0 is always kept, so the search below ends
    while True:
        kept = residuals > tolerance
        kept_gram = gram[kept][:, kept]
        np.fill_diagonal(kept_gram, 1.0)  # the kernel's unit diagonal, without the jitter
        inverse = certified_inverse_factor(kept_gram, NystromMap.rank_tolerance * kept.sum())
        if inverse is not None:
            return LandmarkSet(points=drawn[kept], inverse_factor=inverse)
        tolerance *= 10.0
