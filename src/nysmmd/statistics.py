"""Two-sample test statistics: exact MMD, projected MMD, and permuted replicates.

The projected statistic is the norm of the difference of empirical feature
means.  All permuted replicates are accumulated in a single pass over the
pooled data: each point's feature vector is computed exactly once and
scattered into the (P + 1) accumulators with its signed permuted weights.
The accumulators take O((P + 1) * ell) storage and the per-chunk features
O(chunk * ell), but the signed permuted weights are held as a dense
(P + 1) x n float64 matrix, so total storage is O((P + 1) * (n + ell)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureMap
from .kernels import GaussianKernel, as_points

DEFAULT_CHUNK_SIZE = 1024


@dataclass(frozen=True, eq=False)
class PooledSample:
    """The two samples stacked into one matrix, X rows first.

    Permutations of {0, ..., n-1} act on the rows; the first n_x positions
    of a permuted ordering form the relabeled first sample.
    """

    points: np.ndarray
    n_x: int
    n_y: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("both samples must be nonempty")
        if self.points.shape[0] != self.n_x + self.n_y:
            raise ValueError(f"pooled matrix has {self.points.shape[0]} rows, "
                             f"expected n_x + n_y = {self.n_x + self.n_y}")

    @classmethod
    def from_samples(cls, x, y) -> "PooledSample":
        x = as_points(x, "x")
        y = as_points(y, "y")
        if x.shape[1] != y.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
        return cls(points=np.vstack([x, y]), n_x=x.shape[0], n_y=y.shape[0])

    @property
    def n(self) -> int:
        return self.n_x + self.n_y


def signed_weights(n_x: int, n_y: int) -> np.ndarray:
    """Base weight vector: n_x entries of 1/n_x followed by n_y entries of -1/n_y."""
    if n_x < 1 or n_y < 1:
        raise ValueError("both sample sizes must be positive")
    return np.concatenate([np.full(n_x, 1.0 / n_x), np.full(n_y, -1.0 / n_y)])


def exact_mmd(x, y, kernel: GaussianKernel) -> float:
    """Plug-in maximum mean discrepancy between two samples.

    Returns sqrt(mean(K_xx) - 2 mean(K_xy) + mean(K_yy)) with the radicand
    clamped at zero; round-off can otherwise push it a hair below zero for
    near-identical samples.  Quadratic in the total sample size.
    """
    x = as_points(x, "x")
    y = as_points(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    value = (kernel.gram(x, x).mean()
             - 2.0 * kernel.gram(x, y).mean()
             + kernel.gram(y, y).mean())
    return float(np.sqrt(max(value, 0.0)))


def accumulate_weighted_features(weights: np.ndarray, points: np.ndarray,
                                 feature_map: FeatureMap,
                                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> np.ndarray:
    """Single pass computing sum_i weights[p, i] * phi(points[i]) for every row p.

    Features are evaluated chunk by chunk and never materialized for the
    whole dataset; per-chunk temporaries are the only allocations, so peak
    incremental memory does not grow with n.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    n = points.shape[0]
    if weights.shape[1] != n:
        raise ValueError(f"weights have {weights.shape[1]} columns, expected {n}")
    out = np.zeros((weights.shape[0], feature_map.dimension))
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = feature_map.features(points[start:stop])
        out += weights[:, start:stop] @ block
    return out


def feature_mmd(x, y, feature_map: FeatureMap) -> float:
    """Projected MMD: distance between the empirical feature means of x and y."""
    pooled = PooledSample.from_samples(x, y)
    accumulated = accumulate_weighted_features(
        signed_weights(pooled.n_x, pooled.n_y)[None, :], pooled.points, feature_map)
    return float(np.linalg.norm(accumulated[0]))


def permutation_weights(pooled: PooledSample, n_permutations: int,
                        seed: int) -> np.ndarray:
    """Weight matrix of shape (P + 1, n): identity ordering first, then P shuffles.

    Each permutation row owns an independent child stream of the master
    seed, so rows can be regenerated in any order (or in parallel) with the
    same result.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be at least 1")
    base = signed_weights(pooled.n_x, pooled.n_y)
    weights = np.empty((n_permutations + 1, pooled.n))
    weights[0] = base
    children = np.random.SeedSequence(seed).spawn(n_permutations)
    for row, child in enumerate(children, start=1):
        weights[row] = np.random.default_rng(child).permutation(base)
    return weights


def permuted_statistics(pooled: PooledSample, feature_map: FeatureMap,
                        n_permutations: int, seed: int,
                        chunk_size: int = DEFAULT_CHUNK_SIZE) -> np.ndarray:
    """The unpermuted statistic followed by P permuted replicates.

    Entry 0 is the projected MMD of the observed labeling; entries 1..P use
    independent uniform shuffles of the signed weight vector.  Deterministic
    for a fixed seed.
    """
    weights = permutation_weights(pooled, n_permutations, seed)
    accumulated = accumulate_weighted_features(weights, pooled.points,
                                               feature_map, chunk_size)
    return np.linalg.norm(accumulated, axis=1)
