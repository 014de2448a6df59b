"""Scalable kernel two-sample testing with Nystrom-approximated MMD.

The package provides the MMD statistic projected onto the span of sampled
landmark points (Nystrom) or onto random Fourier features, leverage-score
landmark sampling from the pooled data, an exact-level permutation test
built on a single-pass accumulation of all permuted statistics, seeded
synthetic data generators, and a harness for level/power studies.
Importing the package loads numpy only; the grid names (ExperimentSpec,
RateEstimate, estimate_rate, results_to_csv, wilson_interval) load
`nysmmd.bench` the first time one of them is read.
"""

from .kernels import GaussianKernel, as_points, median_heuristic
from .leverage import (
    LandmarkSet,
    approx_krls,
    default_regularization,
    exact_krls,
    sample_landmarks,
)
from .features import FeatureMap, NystromMap, RffMap, build_nystrom, build_rff
from .statistics import PooledSample, permuted_statistics
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
    load_csv,
    sample_correlated_gaussians,
    sample_mixture,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianKernel", "as_points", "median_heuristic",
    "LandmarkSet", "approx_krls", "default_regularization",
    "exact_krls", "sample_landmarks",
    "FeatureMap", "NystromMap", "RffMap", "build_nystrom", "build_rff",
    "PooledSample", "permuted_statistics",
    "ExactMethod", "NystromMethod", "RffMethod", "TestConfig", "TestOutcome",
    "decide", "quantile_index", "run_test",
    "load_csv", "sample_correlated_gaussians", "sample_mixture", "write_csv",
    "ExperimentSpec", "RateEstimate", "estimate_rate", "results_to_csv",
    "wilson_interval",
    "__version__",
]

_BENCH_NAMES = frozenset(("ExperimentSpec", "RateEstimate", "estimate_rate",
                          "results_to_csv", "wilson_interval"))


def __getattr__(name):
    # PEP 562: the grid harness imports concurrent.futures and the standard
    # statistics module, which a single test never needs
    if name in _BENCH_NAMES:
        from . import bench
        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
