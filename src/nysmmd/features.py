"""Finite-dimensional feature maps: landmark projection and random Fourier features.

Both maps send a point to an ell-vector whose inner products approximate the
Gaussian kernel, so downstream statistics only ever see an object with a
``dimension`` attribute and a ``features(X)`` method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .kernels import GaussianKernel, as_points
from .leverage import LandmarkSet
from .linalg import pseudo_inverse_sqrt

DEFAULT_RANK_TOLERANCE = 1e-10


class FeatureMap(Protocol):
    """Deterministic map from points to ell-dimensional feature vectors."""

    @property
    def dimension(self) -> int: ...

    def features(self, points) -> np.ndarray:
        """Feature vectors for a batch of points, shape (m, dimension)."""
        ...


@dataclass(frozen=True, eq=False)
class NystromMap:
    """Projection of the kernel feature space onto the span of landmark points.

    The map is x -> T k_Z(x) where k_Z(x) stacks the kernel evaluations
    against the landmarks and T is the pseudo-inverse square root of the
    landmark kernel matrix.  Inner products of mapped points reproduce the
    kernel restricted to the landmark span; in particular
    ||phi(x)||^2 <= k(x, x) = 1 for every x.
    """

    landmarks: LandmarkSet
    kernel: GaussianKernel
    transform: np.ndarray
    rank_tolerance: float

    @property
    def dimension(self) -> int:
        return self.transform.shape[0]

    def features(self, points) -> np.ndarray:
        points = as_points(points)
        return self.kernel.gram(points, self.landmarks.points) @ self.transform


@dataclass(frozen=True, eq=False)
class RffMap:
    """Random Fourier features for the Gaussian kernel.

    Uses paired cosine/sine features: for frequencies w_1, ..., w_{ell/2}
    drawn from N(0, I / h^2), the map is
    sqrt(2/ell) * [cos(w_1.x), sin(w_1.x), ...].  Each pair contributes
    cos^2 + sin^2 = 1, so ||phi(x)|| = 1 exactly, and the expected inner
    product over the frequency draw equals the kernel.
    """

    frequencies: np.ndarray

    @property
    def dimension(self) -> int:
        return 2 * self.frequencies.shape[0]

    def features(self, points) -> np.ndarray:
        points = as_points(points)
        if points.shape[1] != self.frequencies.shape[1]:
            raise ValueError(f"dimension mismatch: points have {points.shape[1]} "
                             f"columns, map expects {self.frequencies.shape[1]}")
        projections = points @ self.frequencies.T
        out = np.empty((points.shape[0], self.dimension))
        scale = np.sqrt(2.0 / self.dimension)
        out[:, 0::2] = scale * np.cos(projections)
        out[:, 1::2] = scale * np.sin(projections)
        return out


def build_nystrom(landmarks: LandmarkSet, kernel: GaussianKernel,
                  rank_tolerance: float = DEFAULT_RANK_TOLERANCE) -> NystromMap:
    """Factorize the landmark kernel matrix once and return the projection map.

    Eigenvalues at or below rank_tolerance times the largest are dropped, so
    duplicated landmarks (a rank-deficient landmark matrix) are handled
    without producing non-finite output.
    """
    if landmarks.size < 1:
        raise ValueError("need at least one landmark")
    gram = kernel.gram(landmarks.points, landmarks.points)
    transform = pseudo_inverse_sqrt(gram, rank_tolerance)
    return NystromMap(landmarks=landmarks, kernel=kernel, transform=transform,
                      rank_tolerance=rank_tolerance)


def build_rff(dim: int, n_features: int, kernel: GaussianKernel, seed: int) -> RffMap:
    """Draw Gaussian frequencies for an ``n_features``-dimensional map.

    Args:
        dim: Input dimension d.
        n_features: Total feature count ell; must be even (cos/sin pairs).
        kernel: Gaussian kernel whose spectral measure N(0, I / h^2) the
            frequencies are drawn from.
        seed: Frequencies are reproduced bit-exactly for a fixed seed.
    """
    if n_features < 2 or n_features % 2 != 0:
        raise ValueError(f"n_features must be even and >= 2, got {n_features}")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    frequencies = rng.standard_normal((n_features // 2, dim)) / kernel.bandwidth
    return RffMap(frequencies=frequencies)
