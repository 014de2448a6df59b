"""Symmetric eigendecomposition helpers shared by leverage scores and feature maps.

All positive semi-definite solves in the package go through one numerical
kernel: a symmetric eigendecomposition with negative round-off eigenvalues
clamped at zero.  The same factorization supports ridge solves, traces, and
the Moore-Penrose pseudo-inverse square root, and handles rank deficiency
uniformly.
"""

from __future__ import annotations

import numpy as np

_SYMMETRY_ATOL = 1e-10


def check_symmetric(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix with finite entries."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(matrix).max()))
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=_SYMMETRY_ATOL * scale):
        raise ValueError(f"{name} is not symmetric")
    return matrix


def psd_eigh(matrix: np.ndarray, name: str = "matrix"):
    """Eigendecomposition of a symmetric PSD matrix, clamped at zero.

    Returns:
        (eigenvalues, eigenvectors) in ascending eigenvalue order, with
        small negative eigenvalues produced by round-off set to 0.
    """
    matrix = check_symmetric(matrix, name)
    eigenvalues, eigenvectors = np.linalg.eigh((matrix + matrix.T) / 2.0)
    np.maximum(eigenvalues, 0.0, out=eigenvalues)
    return eigenvalues, eigenvectors


def pseudo_inverse_sqrt(matrix: np.ndarray, rank_tolerance: float) -> np.ndarray:
    """Symmetric square root of the Moore-Penrose pseudo-inverse of a PSD matrix.

    Eigenvalues at or below rank_tolerance * max_eigenvalue are treated as
    zero, so duplicated rows (rank deficiency) are handled without blow-up.
    """
    eigenvalues, eigenvectors = psd_eigh(matrix)
    cutoff = rank_tolerance * eigenvalues[-1] if eigenvalues[-1] > 0 else 0.0
    kept = eigenvalues > cutoff
    if not kept.any():
        return np.zeros_like(matrix)
    inv_sqrt = (eigenvectors[:, kept] / np.sqrt(eigenvalues[kept])) @ eigenvectors[:, kept].T
    return (inv_sqrt + inv_sqrt.T) / 2.0
