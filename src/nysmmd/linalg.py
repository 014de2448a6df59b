"""Factorizations of the symmetric PSD matrices of leverage scores and landmarks.

Two numerical kernels, with the same checks on their input.  psd_eigh is a
symmetric eigendecomposition with negative round-off eigenvalues clamped at
zero; the leverage scores read ridge solves and traces off its eigenpairs.
certified_inverse_factor factors a landmark kernel matrix that is provably
far from singular: the inverse of its Cholesky factor, returned only when a
bound computed from that inverse puts the smallest eigenvalue above a given
floor, so that the pseudo-inverse is the inverse.  sample_landmarks prunes
its draws until that bound holds, and the Nystrom map is built on that
factor alone.
"""

from __future__ import annotations

import numpy as np

_SYMMETRY_ATOL = 1e-10


def _checked_symmetric(matrix, name: str) -> np.ndarray:
    """``matrix`` as float64, or ValueError unless it is square, finite and symmetric."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.T).max() > _SYMMETRY_ATOL * scale:
        raise ValueError(f"{name} is not symmetric")
    return matrix


def psd_eigh(matrix: np.ndarray, name: str = "matrix"):
    """Eigendecomposition of a symmetric PSD matrix, clamped at zero.

    Raises:
        ValueError: If the matrix is not square, has non-finite entries or
            is not symmetric to within 1e-10 of its largest entry (or 1).

    Returns:
        (eigenvalues, eigenvectors) in ascending eigenvalue order, with
        small negative eigenvalues produced by round-off set to 0.
    """
    matrix = _checked_symmetric(matrix, name)
    eigenvalues, eigenvectors = np.linalg.eigh((matrix + matrix.T) / 2.0)
    np.maximum(eigenvalues, 0.0, out=eigenvalues)
    return eigenvalues, eigenvectors


def certified_inverse_factor(matrix: np.ndarray, floor: float) -> np.ndarray | None:
    """L^-1 for K = L L', when a bound certifies every eigenvalue of K above ``floor``.

    With K = L L', ||L^-1||_F^2 = trace(K^-1) >= 1 / lambda_min, so
    1 / ||L^-1||_F^2 is a lower bound on the smallest eigenvalue of K; the
    factor is returned when that bound exceeds ``floor`` (> 0), and then
    L^-T L^-1 = K^-1.  The pivots decide most refusals before the inverse
    is formed: the diagonal of L^-1 is 1 / L_kk, so 1 / sum_k L_kk^-2
    bounds the lower bound from above, and None is returned when it is at
    or below ``floor``.  A sum of positive terms is at least each term, so
    this also refuses (up to the rounding of a reciprocal) every pivot
    L_kk^2 at or below ``floor``, an upper bound on the smallest eigenvalue.
    None is also returned for a matrix the Cholesky factorization refuses
    (not numerically positive definite).  Only the lower triangle of K is
    factored; the checks of psd_eigh apply to the whole matrix.

    Returns:
        L^-1, lower triangular up to round-off, or None when the bound
        does not certify the smallest eigenvalue above ``floor``.
    """
    matrix = _checked_symmetric(matrix, "matrix")
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None
    pivots = factor.diagonal() ** 2
    if 1.0 / np.sum(1.0 / pivots) <= floor:
        return None
    inverse = np.linalg.inv(factor)
    if 1.0 / np.einsum("ij,ij->", inverse, inverse) <= floor:
        return None
    return inverse
