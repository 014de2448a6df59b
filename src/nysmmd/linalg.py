"""The one symmetric eigendecomposition shared by leverage scores and feature maps.

All positive semi-definite solves in the package go through one numerical
kernel: a symmetric eigendecomposition with negative round-off eigenvalues
clamped at zero.  Ridge solves, traces and the thin factor of the
Moore-Penrose pseudo-inverse are all read off its eigenpairs, so rank
deficiency is handled the same way everywhere.
"""

from __future__ import annotations

import numpy as np

_SYMMETRY_ATOL = 1e-10


def psd_eigh(matrix: np.ndarray, name: str = "matrix"):
    """Eigendecomposition of a symmetric PSD matrix, clamped at zero.

    Raises:
        ValueError: If the matrix is not square, has non-finite entries or
            is not symmetric to within 1e-10 of its largest entry (or 1).

    Returns:
        (eigenvalues, eigenvectors) in ascending eigenvalue order, with
        small negative eigenvalues produced by round-off set to 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.T).max() > _SYMMETRY_ATOL * scale:
        raise ValueError(f"{name} is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh((matrix + matrix.T) / 2.0)
    np.maximum(eigenvalues, 0.0, out=eigenvalues)
    return eigenvalues, eigenvectors
