"""The permutation two-sample test: threshold selection and decision rule.

The observed statistic is compared against the empirical quantile of its
permuted replicates.  When it lands exactly on the threshold order
statistic, the test rejects with a calibrated probability, which makes the
rejection probability under the null exactly alpha (for landmark sampling
schemes that are equivariant under relabeling of the pooled data).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .kernels import GaussianKernel, median_heuristic
from .leverage import (
    approx_krls,
    default_regularization,
    exact_krls,
    sample_landmarks,
)
from .features import NystromMap, RffMap, build_nystrom, build_rff, check_feature_count
from .statistics import (
    DEGENERATE_TIE_TOLERANCE,
    PooledSample,
    permutation_weights,
    permuted_statistics,
)


@dataclass(frozen=True)
class NystromMethod:
    """Projected-MMD statistic with landmarks sampled from the pooled data.

    Leverage scores use the ridge level 16 * log(4 / 0.05) / n, and the
    landmark pseudo-inverse factor the spectral cutoff of build_nystrom.

    Attributes:
        n_landmarks: Draw count ell; sample_landmarks keeps the r <= ell
            draws of full numerical rank, and r is the basis width of the map.
        sampler: "uniform", "akrls", or "exact_krls".
    """

    n_landmarks: int
    sampler: str = "uniform"

    def __post_init__(self):
        if self.n_landmarks < 1:
            raise ValueError("n_landmarks must be at least 1")
        if self.sampler not in ("uniform", "akrls", "exact_krls"):
            raise ValueError(f"unknown sampler {self.sampler!r}")

    def feature_map(self, pooled: PooledSample, kernel: GaussianKernel,
                    scores_seed: int, draw_seed: int) -> NystromMap:
        """Draw landmarks from the pooled data, prune them to their rank and factorize them."""
        regularization = default_regularization(pooled.n)
        if self.sampler == "uniform":
            scores = None
        elif self.sampler == "exact_krls":
            scores = exact_krls(kernel.gram(pooled.points, pooled.points),
                                regularization)
        else:
            scores = approx_krls(pooled.points, kernel, regularization, scores_seed)
        landmarks = sample_landmarks(pooled.points, self.n_landmarks, draw_seed,
                                     kernel, scores=scores)
        return build_nystrom(landmarks.points, kernel)


@dataclass(frozen=True)
class RffMethod:
    """Random-Fourier-feature baseline with an even feature count."""

    n_features: int

    def __post_init__(self):
        check_feature_count(self.n_features)

    def feature_map(self, pooled: PooledSample, kernel: GaussianKernel,
                    scores_seed: int, draw_seed: int) -> RffMap:
        """Draw frequencies for the data dimension; scores_seed is unused."""
        return build_rff(pooled.points.shape[1], self.n_features, kernel, draw_seed)


@dataclass(frozen=True)
class ExactMethod:
    """Exact MMD statistic; permutations recompute a quadratic form.

    The pooled kernel matrix is formed once (O(n^2) memory) and each
    permuted statistic costs one weighted quadratic form, so this mode is
    intended for baselines at small n.
    """


MethodSpec = NystromMethod | RffMethod | ExactMethod

# Method names of the CLI and the experiment grids, each with its spec for a
# feature count ell; rff rounds an odd count up to the next even one.
METHODS = {
    "exact": lambda ell: ExactMethod(),
    "nystrom-uniform": lambda ell: NystromMethod(ell, "uniform"),
    "nystrom-akrls": lambda ell: NystromMethod(ell, "akrls"),
    "nystrom-exact-krls": lambda ell: NystromMethod(ell, "exact_krls"),
    "rff": lambda ell: RffMethod(ell + ell % 2),
}


class SmallAlphaWarning(UserWarning):
    """alpha is below 1/(P+1), so the test rejects only through tie randomization."""


@dataclass(frozen=True)
class TestConfig:
    """Level, permutation count, seed, and bandwidth policy of a test.

    The recommended operating regime is 1 / (P + 1) <= alpha; smaller alpha
    still runs but the threshold saturates at the largest replicate, which
    costs power (a SmallAlphaWarning is emitted).

    keep_statistics=False asks for the decision only: the outcome keeps no
    replicate vector, and a feature-map test may stop its permutations
    once its decision is fixed (see run_test).
    """

    __test__ = False  # not a pytest test class despite the name

    alpha: float = 0.05
    n_permutations: int = 199
    seed: int = 0
    bandwidth: float | None = None
    keep_statistics: bool = True

    def __post_init__(self):
        quantile_index(self.alpha, self.n_permutations)  # checks both
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.alpha * (self.n_permutations + 1) < 1.0:
            warnings.warn(
                f"alpha={self.alpha} is below 1/(P+1)={1 / (self.n_permutations + 1):.4g}; "
                "the test cannot reject except through tie randomization",
                SmallAlphaWarning, stacklevel=3)  # past the generated __init__ to its caller


@dataclass(frozen=True)
class TestOutcome:
    """Result of one permutation test.

    Attributes:
        reject: Decision; always true when statistic > threshold.
        statistic: The observed (unpermuted) statistic.
        threshold: The threshold order statistic among the
            permutations_run + 1 values that ran.  For a test stopped early
            this is taken over those values only, and lies strictly above
            statistic: the accept is not randomized.
        threshold_index: Index of the threshold in sorted order, among the
            same values.
        randomized: True only when the decision used tie randomization,
            i.e. statistic == threshold exactly.
        rejection_probability: The tie-branch rejection probability when
            randomized, else None.
        permutations_run: The permuted replicates that were computed: the
            config's P, or fewer when a decision-only test stopped early.
        statistics: The permutations_run + 1 statistic values (entry 0
            observed), or None when not retained.
        bandwidth: Kernel bandwidth the test ran with.
    """

    __test__ = False  # not a pytest test class despite the name

    reject: bool
    statistic: float
    threshold: float
    threshold_index: int
    randomized: bool
    rejection_probability: float | None
    permutations_run: int
    statistics: np.ndarray | None = None
    bandwidth: float | None = None

    def to_dict(self) -> dict:
        """JSON-friendly summary: every field but the replicate vector, in field order."""
        return {field.name: getattr(self, field.name) for field in fields(self)
                if field.name != "statistics"}


def quantile_index(alpha: float, n_permutations: int) -> int:
    """Index of the threshold order statistic: ceil((1 - alpha)(P + 1) - 1).

    Evaluated in exact integer arithmetic on the binary value of alpha, a / b
    with b a power of two, so the ceiling never flips on float round-off;
    the result is clamped to [0, P].
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if n_permutations < 1:
        raise ValueError("n_permutations must be at least 1")
    a, b = float(alpha).as_integer_ratio()
    # (1 - a/b)(P + 1) - 1 = above / b; a numpy integer P could overflow here
    above = (b - a) * (operator.index(n_permutations) + 1) - b
    return min(max(-(-above // b), 0), n_permutations)


def accept_count(alpha: float, n_permutations: int) -> int:
    """m = ceil(alpha (P + 1)): once m replicates exceed the observed value, the test accepts.

    In exact integer arithmetic on the binary value of alpha, as in
    quantile_index.  With at least m of the P replicates strictly above the
    observed statistic, decide accepts: the observed value lies below the
    threshold, or ties it with a rejection probability of at most 0.  On a
    vector of b < P replicates with m of them above, the threshold index is
    b - floor(alpha (b + 1)) and floor(alpha (b + 1)) < m, so decide accepts
    without randomizing.
    """
    a, b = float(alpha).as_integer_ratio()
    return -(-a * (operator.index(n_permutations) + 1) // b)


def decide(statistics, alpha: float, tie_break_draw: float) -> TestOutcome:
    """Apply the threshold-and-randomize decision rule to replicate values.

    Args:
        statistics: Vector of P + 1 values; entry 0 is the observed
            statistic, the rest are permuted replicates.
        alpha: Target level.
        tie_break_draw: A uniform [0, 1) variate consumed only when the
            observed statistic ties the threshold exactly (bitwise float
            equality; with continuous data ties essentially occur only in
            degenerate cases).

    Returns:
        TestOutcome without bandwidth information.
    """
    statistics = np.asarray(statistics, dtype=np.float64)
    if statistics.ndim != 1 or statistics.size == 0:
        raise ValueError("statistics must be a nonempty 1-d vector")
    if not np.isfinite(statistics).all():
        raise ValueError("statistics contain non-finite values")
    n_permutations = statistics.size - 1
    index = quantile_index(alpha, n_permutations) if n_permutations >= 1 else 0
    threshold = float(np.sort(statistics)[index])
    observed = float(statistics[0])

    randomized = False
    probability = None
    if observed > threshold:
        reject = True
    elif observed == threshold:
        m_greater = int(np.count_nonzero(statistics > threshold))
        m_equal = int(np.count_nonzero(statistics == threshold))
        probability = (alpha * (n_permutations + 1) - m_greater) / m_equal
        probability = min(max(probability, 0.0), 1.0)
        randomized = True
        reject = tie_break_draw < probability
    else:
        reject = False
    return TestOutcome(reject=reject, statistic=observed, threshold=threshold,
                       threshold_index=index, randomized=randomized,
                       rejection_probability=probability,
                       permutations_run=n_permutations, statistics=statistics)


def _seed_int(seed_sequence: np.random.SeedSequence) -> int:
    return int(seed_sequence.generate_state(2, np.uint64)[0])


def _exact_statistics(pooled, kernel, config, perm_seed):
    gram = kernel.gram(pooled.points, pooled.points)
    weights = permutation_weights(pooled, config.n_permutations, perm_seed)
    quad = np.einsum("pi,ij,pj->p", weights, gram, weights, optimize=True)
    return np.sqrt(np.maximum(quad, 0.0))


def run_test(x, y, config: TestConfig, method: MethodSpec) -> TestOutcome:
    """Run the full permutation test on two samples.

    Orchestrates bandwidth selection, landmark or frequency construction,
    the single-pass permuted statistics, and the decision rule.  Unless the
    config pins a bandwidth, it is the median distance over 2^14 + 1 random
    pairs of distinct pooled rows (O(2^14 * d) at any n); the pairs are
    drawn independently of the row labels, so the bandwidth's law is
    unchanged by relabeling and the level stays exact.  Outcomes
    are bit-identical for a fixed config seed and BLAS thread count (OpenBLAS
    rounds differently at other thread counts, and the statistics then agree
    to round-off); the tie-break variate is drawn from its own stream whether
    or not a tie occurs, so outcomes are reproducible across code paths.

    A decision-only config (keep_statistics=False) on a feature map
    curtails the pass, as in the sequential Monte Carlo test of Besag and
    Clifford (1991): a pooled sample of one label block stops after its
    first ceil(P / 5) permutations when at least accept_count(alpha, P) of
    them strictly exceed the observed statistic and not all values are
    degenerate round-off.  Its pass run to the end would then accept too,
    on the same labels and bit-identical values, so the level stays exact;
    permutations_run says how many ran.  That pass forms its two batches'
    sums in two GEMMs, so its values agree with those of keep_statistics=True
    to round-off, as across BLAS thread counts, and so do the decisions
    unless a replicate ties the observed statistic within round-off.
    """
    pooled = PooledSample.from_samples(x, y)
    root = np.random.SeedSequence(config.seed)
    bandwidth_ss, scores_ss, draw_ss, perm_ss, tie_ss = root.spawn(5)
    tie_break = float(np.random.default_rng(tie_ss).uniform())

    if config.bandwidth is not None:
        bandwidth = float(config.bandwidth)
    else:
        bandwidth = median_heuristic(pooled.points, seed=_seed_int(bandwidth_ss))
    kernel = GaussianKernel(bandwidth)
    perm_seed = _seed_int(perm_ss)

    if isinstance(method, ExactMethod):
        statistics = _exact_statistics(pooled, kernel, config, perm_seed)
    else:
        feature_map = method.feature_map(pooled, kernel, _seed_int(scores_ss),
                                         _seed_int(draw_ss))
        accept_at = (None if config.keep_statistics
                     else accept_count(config.alpha, config.n_permutations))
        statistics = permuted_statistics(pooled, feature_map,
                                         config.n_permutations, perm_seed, accept_at)

    if statistics.max() <= DEGENERATE_TIE_TOLERANCE:
        statistics = np.zeros_like(statistics)
    outcome = decide(statistics, config.alpha, tie_break)
    return replace(
        outcome, bandwidth=bandwidth,
        statistics=outcome.statistics if config.keep_statistics else None)
