"""Scalable kernel two-sample testing with Nystrom-approximated MMD.

The package provides the exact quadratic-time MMD statistic, its projection
onto the span of sampled landmark points (Nystrom) or random Fourier
features, leverage-score landmark sampling from the pooled data, an
exact-level permutation test built on a single-pass accumulation of all
permuted statistics, seeded synthetic data generators, and a harness for
level/power studies.  Importing the package does not load scipy.stats.
"""

from .kernels import GaussianKernel, as_points, median_heuristic
from .leverage import (
    LandmarkSet,
    LeverageScores,
    approx_krls,
    default_regularization,
    effective_dimension,
    exact_krls,
    sample_landmarks,
)
from .features import FeatureMap, NystromMap, RffMap, build_nystrom, build_rff
from .statistics import (
    PooledSample,
    exact_mmd,
    feature_mmd,
    permuted_statistics,
    signed_weights,
)
from .permutation import (
    ExactMethod,
    NystromMethod,
    RffMethod,
    TestConfig,
    TestOutcome,
    decide,
    quantile_index,
    run_test,
)
from .data import (
    equicorrelation_matrix,
    load_csv,
    sample_correlated_gaussians,
    sample_mixture,
    write_csv,
)
from .bench import (
    ExperimentSpec,
    RateEstimate,
    accumulation_profile,
    estimate_rate,
    fit_power_law,
    results_to_csv,
    parse_results_csv,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianKernel", "as_points", "median_heuristic",
    "LandmarkSet", "LeverageScores", "approx_krls", "default_regularization",
    "effective_dimension", "exact_krls", "sample_landmarks",
    "FeatureMap", "NystromMap", "RffMap", "build_nystrom", "build_rff",
    "PooledSample", "exact_mmd", "feature_mmd", "permuted_statistics",
    "signed_weights",
    "ExactMethod", "NystromMethod", "RffMethod", "TestConfig", "TestOutcome",
    "decide", "quantile_index", "run_test",
    "equicorrelation_matrix",
    "load_csv", "sample_correlated_gaussians", "sample_mixture", "write_csv",
    "ExperimentSpec", "RateEstimate", "accumulation_profile", "estimate_rate",
    "fit_power_law", "results_to_csv", "parse_results_csv", "wilson_interval",
    "__version__",
]
