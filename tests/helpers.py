"""Oracles and readers shared by the tests."""

import csv
import io
import math

import numpy as np

from nysmmd import (
    FeatureMap,
    GaussianKernel,
    NystromMap,
    PooledSample,
    as_points,
    build_nystrom,
    sample_landmarks,
)
from nysmmd.linalg import certified_inverse_factor
from nysmmd.statistics import accumulate_weighted_features


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


def feature_mmd(x, y, feature_map: FeatureMap) -> float:
    """Projected MMD: distance between the empirical feature means of x and y."""
    pooled = PooledSample.from_samples(x, y)
    accumulated = accumulate_weighted_features(pooled, feature_map, 0, seed=0)
    return float(np.linalg.norm(accumulated[0]))


def sorted_uniform_subsets(counts: np.ndarray, rng, out: np.ndarray,
                           scratch: np.ndarray) -> None:
    """Reference label draw: sort every row of keys and cut at counts[p].

    The sort-based form of statistics._uniform_subsets: the same uint16 keys,
    four to a random_raw word, and the same redraw rule, in which only the
    rows that keep the wrong number of keys draw fresh ones, in row order
    and in one random_raw call, until every row keeps counts[p]; no key is
    drawn when every row is empty or full.  So it gives the same labels and
    makes the same random_raw calls.  ``scratch`` is a flat uint16 buffer
    of at least out.size entries.
    """
    rows = np.arange(counts.size)
    size = out.shape[1]
    if ((counts == 0) | (counts == size)).all():
        out[:] = (counts == size)[:, None]
        return
    keys = np.empty(out.shape, dtype=np.uint16)
    ordered = scratch[:out.size].reshape(out.shape)
    redraw = rows
    while redraw.size:
        words = rng.bit_generator.random_raw((redraw.size * size + 3) // 4)
        keys[redraw] = words.view(np.uint16)[:redraw.size * size].reshape(-1, size)
        np.copyto(ordered, keys)
        ordered.sort(axis=1)
        # the (k + 1)-th smallest key bounds the k kept ones; an int64 2^16 keeps all
        bounds = np.where(counts < size, ordered[rows, np.minimum(counts, size - 1)],
                          np.int64(2**16))
        np.less(keys, bounds[:, None], out=out)
        redraw = np.flatnonzero(out.sum(axis=1) != counts)


def scalar_kernel(x, y, h) -> float:
    """Gaussian kernel of one pair by a plain scalar loop, independent of gram."""
    acc = 0.0
    for xi, yi in zip(x, y):
        acc += (xi - yi) ** 2
    return math.exp(-acc / (2.0 * h * h))


def features(feature_map: FeatureMap, points) -> np.ndarray:
    """Feature vectors of a batch of points, shape (m, feature_map.dimension)."""
    out = np.empty((len(points), feature_map.dimension))
    return feature_map.from_basis(feature_map.basis(points, out))


def nystrom_map(landmarks, kernel: GaussianKernel) -> NystromMap:
    """build_nystrom over given landmarks, factored by the sampler's certified call.

    The factor is certified_inverse_factor of kernel.gram at the floor
    NystromMap.rank_tolerance * r, as sample_landmarks computes it; for
    landmarks that call refuses, build_nystrom raises ValueError.
    """
    landmarks = as_points(landmarks, "landmarks")
    inverse = certified_inverse_factor(kernel.gram(landmarks, landmarks),
                                       NystromMap.rank_tolerance * len(landmarks))
    return build_nystrom(landmarks, kernel, inverse)


def sampled_nystrom(points, ell: int, seed: int, kernel: GaussianKernel) -> NystromMap:
    """The map run_test builds from uniformly sampled landmarks: sample_landmarks, then build_nystrom."""
    landmarks = sample_landmarks(points, ell, seed, kernel)
    return build_nystrom(landmarks.points, kernel, landmarks.inverse_factor)


def read_results_csv(text: str) -> list[dict]:
    """Rows of a results CSV as dicts keyed by its header."""
    return list(csv.DictReader(io.StringIO(text)))
