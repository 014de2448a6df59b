"""Correctness checks computed independently of nysmmd.

The observed Nystrom statistic is the norm of the difference of the mean
feature vectors, phi(v) = T k_Z(v) with T T' = K_ZZ^+ (eigenvalues at or
below rank_tolerance * max dropped).  It therefore equals
sqrt(a' K_ZZ^+ a), where a is the difference of the mean kernel vectors of
the two samples against the landmarks Z.  Here that is recomputed with plain
numpy from the landmarks and bandwidth the test used, with kernel values
taken from explicit coordinate differences rather than the package's
norm expansion.
"""

from __future__ import annotations

import math

import numpy as np

# Relative agreement required between the package's observed statistic and
# the recomputation; both are exact up to floating-point round-off.
STATISTIC_RTOL = 1e-6
# Half-width of the level-study acceptance region, in binomial standard
# deviations around alpha * tests; a test with an exact level leaves it with
# probability below 1e-6.
LEVEL_REGION_SIGMAS = 5.0
_CHUNK = 4096


def _mean_kernel_vector(points, landmarks, bandwidth):
    total = np.zeros(landmarks.shape[0])
    for start in range(0, points.shape[0], _CHUNK):
        diff = points[start:start + _CHUNK, None, :] - landmarks[None, :, :]
        total += np.exp(-np.sum(diff * diff, axis=2) / (2.0 * bandwidth**2)).sum(axis=0)
    return total / points.shape[0]


def landmark_spectrum(landmarks, bandwidth, rank_tolerance):
    """Eigenpairs of the landmark Gram matrix kept at the rank cutoff."""
    diff = landmarks[:, None, :] - landmarks[None, :, :]
    gram = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * bandwidth**2))
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    keep = eigenvalues > rank_tolerance * eigenvalues[-1]
    return eigenvalues[keep], eigenvectors[:, keep]


def numerical_rank(landmarks, bandwidth, rank_tolerance) -> int:
    return int(landmark_spectrum(landmarks, bandwidth, rank_tolerance)[0].size)


def projected_statistic(x, y, landmarks, bandwidth, rank_tolerance) -> float:
    """sqrt(a' K_ZZ^+ a) with a the difference of the mean kernel vectors."""
    a = (_mean_kernel_vector(x, landmarks, bandwidth)
         - _mean_kernel_vector(y, landmarks, bandwidth))
    eigenvalues, eigenvectors = landmark_spectrum(landmarks, bandwidth, rank_tolerance)
    coefficients = eigenvectors.T @ a
    return float(math.sqrt(np.sum(coefficients**2 / eigenvalues)))


def statistic_error(observed, x, y, landmarks, bandwidth, rank_tolerance) -> str | None:
    """None when the observed statistic matches the recomputation, else why not."""
    expected = projected_statistic(x, y, np.asarray(landmarks, dtype=np.float64),
                                   bandwidth, rank_tolerance)
    if not abs(observed - expected) <= STATISTIC_RTOL * abs(expected):
        return f"observed statistic {observed!r} != recomputed {expected!r}"
    return None


def level_region(tests: int, alpha: float) -> tuple[float, float]:
    """Acceptance region for the rejection count of `tests` exact-level tests."""
    mean = tests * alpha
    half = LEVEL_REGION_SIGMAS * math.sqrt(tests * alpha * (1.0 - alpha))
    return mean - half, mean + half
