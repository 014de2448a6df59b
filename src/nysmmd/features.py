"""Finite-dimensional feature maps: landmark projection and random Fourier features.

Both maps send a point to a vector whose inner products approximate the
Gaussian kernel.  Each map factors as a basis evaluation of width
``dimension`` (the r kept landmarks for Nystrom, the ell features for random
Fourier features) followed by a fixed linear map,
features(X) = from_basis(basis(X)), so a statistic linear in the features
can sum basis rows first and apply the linear map once.  The Nystrom linear
map is T = L^-T for the Cholesky factor L of the landmark kernel matrix,
which sample_landmarks certifies and inverts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .kernels import GaussianKernel, as_points


class FeatureMap(Protocol):
    """Deterministic feature map through a basis of width ``dimension``."""

    @property
    def dimension(self) -> int: ...

    def basis(self, points, out: np.ndarray) -> np.ndarray:
        """Basis coordinates of a batch of points, shape (m, dimension).

        ``out`` (float64, that shape) receives the result and is returned.
        """
        ...

    def from_basis(self, coordinates) -> np.ndarray:
        """The linear map from basis coordinates (k, dimension) to features."""
        ...


@dataclass(frozen=True, eq=False)
class NystromMap:
    """Projection of the kernel feature space onto the span of landmark points.

    The map is x -> T' k_Z(x), where k_Z(x) stacks the kernel evaluations
    against the r landmarks and T = L^-T for the Cholesky factor L of their
    kernel matrix K_ZZ = L L', so T T' = K_ZZ^-1.  sample_landmarks keeps
    only draws whose K_ZZ has every eigenvalue certified above
    ``rank_tolerance`` times r, its trace, so the inverse is the
    pseudo-inverse and no direction of the span is cut.  Inner products of
    mapped points reproduce the kernel restricted to the landmark span; in
    particular ||phi(x)||^2 <= k(x, x) = 1 for every x.  ``dimension`` is
    the landmark count r.
    """

    landmarks: np.ndarray
    kernel: GaussianKernel
    transform: np.ndarray
    rank_tolerance = 1e-10

    @property
    def dimension(self) -> int:
        return self.transform.shape[0]

    def features(self, points) -> np.ndarray:
        return self.from_basis(self.kernel.gram(points, self.landmarks))

    def basis(self, points, out: np.ndarray) -> np.ndarray:
        """k_Z(x) for each of m points: one (m, d + 2) x (d + 2, r) GEMM and an exp."""
        return self.kernel.gram(points, self.landmarks, out=out)

    def from_basis(self, coordinates) -> np.ndarray:
        return coordinates @ self.transform


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

    def basis(self, points, out: np.ndarray) -> np.ndarray:
        """The features themselves: the map has no separate linear factor."""
        points = as_points(points)
        if points.shape[1] != self.frequencies.shape[1]:
            raise ValueError(f"dimension mismatch: points have {points.shape[1]} "
                             f"columns, map expects {self.frequencies.shape[1]}")
        projections = points @ self.frequencies.T
        scale = np.sqrt(2.0 / self.dimension)
        out[:, 0::2] = scale * np.cos(projections)
        out[:, 1::2] = scale * np.sin(projections)
        return out

    def from_basis(self, coordinates) -> np.ndarray:
        return coordinates


def build_nystrom(landmarks, kernel: GaussianKernel, inverse_factor) -> NystromMap:
    """The projection map with transform T = L^-T over the r given landmarks.

    ``inverse_factor`` is L^-1 for the Cholesky factor L of the landmarks'
    kernel matrix, certified as sample_landmarks returns it beside them
    (linalg.certified_inverse_factor at the floor
    NystromMap.rank_tolerance * r); the map's dimension is r.  None, which
    that call returns for an uncertified matrix, raises ValueError: the map
    has no fallback for a kernel matrix near singular.
    """
    landmarks = as_points(landmarks, "landmarks")
    if inverse_factor is None:
        raise ValueError("the landmark kernel matrix is not certified far from "
                         "singular; sample_landmarks prunes its draws until it is")
    size = landmarks.shape[0]
    if inverse_factor.shape != (size, size):
        raise ValueError(f"inverse_factor has shape {inverse_factor.shape}, "
                         f"expected ({size}, {size}) for the landmarks")
    return NystromMap(landmarks=landmarks, kernel=kernel, transform=inverse_factor.T)


def check_feature_count(n_features: int) -> None:
    """Raise ValueError unless an RFF map can have n_features: even, at least 2."""
    if n_features < 2 or n_features % 2 != 0:
        raise ValueError(f"n_features must be even and >= 2, got {n_features}")


def build_rff(dim: int, n_features: int, kernel: GaussianKernel,
              seed: int | np.random.Generator) -> RffMap:
    """Draw Gaussian frequencies for an ``n_features``-dimensional map.

    Args:
        dim: Input dimension d.
        n_features: Total feature count ell; must be even (cos/sin pairs).
        kernel: Gaussian kernel whose spectral measure N(0, I / h^2) the
            frequencies are drawn from.
        seed: An int or a Generator, which the draw advances; frequencies
            are reproduced bit-exactly for a fixed seed.
    """
    check_feature_count(n_features)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    frequencies = rng.standard_normal((n_features // 2, dim)) / kernel.bandwidth
    return RffMap(frequencies=frequencies)
