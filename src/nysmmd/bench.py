"""Experiment harness: rejection-rate grids, Wilson intervals, and runtime profiling.

An :class:`ExperimentSpec` describes a grid of (method, feature count,
sample size, scenario parameter) cells.  Each cell runs a number of
independent seeded repetitions with fresh data and fresh landmarks, counts
rejections, and reports a Wilson score interval plus the mean wall-clock
time of a full test.  Cell seeds are derived from the master seed and the
cell coordinates alone, so results do not depend on execution order or the
number of worker threads.
"""

from __future__ import annotations

import io
import csv as _csv
import json
import math
import os
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import load_csv, sample_correlated_gaussians, sample_mixture
from .kernels import GaussianKernel, median_heuristic
from .leverage import sample_landmarks
from .features import build_nystrom
from .permutation import (
    ExactMethod,
    NystromMethod,
    RffMethod,
    TestConfig,
    run_test,
)
from .statistics import (
    DEFAULT_CHUNK_SIZE,
    PooledSample,
    accumulate_weighted_features,
    permutation_weights,
)

METHOD_NAMES = ("exact", "nystrom-uniform", "nystrom-akrls", "nystrom-exact-krls", "rff")
RESULTS_HEADER = ("method", "ell", "n_x", "n_y", "param", "rate",
                  "wilson_low", "wilson_high", "mean_runtime_s", "reps")
THREADS_ENV_VAR = "NYSMMD_THREADS"


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    With p = successes / trials and z the two-sided normal quantile, the
    bounds are (p + z^2/2n -/+ z sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n),
    clamped into [0, 1].
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denominator
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                         + z * z / (4.0 * trials * trials)) / denominator
    # at p = 0 (resp. p = 1) the score bound is exactly 0 (resp. 1); the
    # sqrt otherwise leaves it one ulp off
    low = 0.0 if successes == 0 else max(center - half, 0.0)
    high = 1.0 if successes == trials else min(center + half, 1.0)
    return low, high


@dataclass(frozen=True)
class RateEstimate:
    """Rejection-rate estimate for one grid cell."""

    method: str
    ell: int
    n_x: int
    n_y: int
    param: float
    successes: int
    trials: int
    rate: float
    wilson_low: float
    wilson_high: float
    mean_runtime_s: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid description for a level/power/benchmark study.

    The JSON form uses exactly the keys scenario, methods, landmarks,
    sample_sizes, alpha, permutations, repetitions, seed, output.
    """

    scenario: dict
    methods: tuple[str, ...]
    landmarks: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    alpha: float = 0.05
    permutations: int = 199
    repetitions: int = 100
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.methods:
            raise ValueError("methods grid is empty")
        if not self.sample_sizes:
            raise ValueError("sample_sizes grid is empty")
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHOD_NAMES}")
        needs_landmarks = any(m != "exact" for m in self.methods)
        if needs_landmarks and not self.landmarks:
            raise ValueError("landmarks grid is empty but a feature-map method "
                             "is requested")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        known = {"scenario", "methods", "landmarks", "sample_sizes", "alpha",
                 "permutations", "repetitions", "seed", "output"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown spec keys {sorted(unknown)}")
        missing = {"scenario", "methods", "sample_sizes"} - set(raw)
        if missing:
            raise ValueError(f"spec is missing required keys {sorted(missing)}")
        return cls(
            scenario=dict(raw["scenario"]),
            methods=tuple(raw["methods"]),
            landmarks=tuple(int(v) for v in raw.get("landmarks", ())),
            sample_sizes=tuple(int(v) for v in raw["sample_sizes"]),
            alpha=float(raw.get("alpha", 0.05)),
            permutations=int(raw.get("permutations", 199)),
            repetitions=int(raw.get("repetitions", 100)),
            seed=int(raw.get("seed", 0)),
            output=raw.get("output"),
        )

    def to_dict(self) -> dict:
        return {
            "scenario": dict(self.scenario),
            "methods": list(self.methods),
            "landmarks": list(self.landmarks),
            "sample_sizes": list(self.sample_sizes),
            "alpha": self.alpha,
            "permutations": self.permutations,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "output": self.output,
        }

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def method_from_name(name: str, ell: int):
    """Instantiate the method spec for a grid method name and feature count."""
    if name == "exact":
        return ExactMethod()
    if name == "nystrom-uniform":
        return NystromMethod(n_landmarks=ell, sampler="uniform")
    if name == "nystrom-akrls":
        return NystromMethod(n_landmarks=ell, sampler="akrls")
    if name == "nystrom-exact-krls":
        return NystromMethod(n_landmarks=ell, sampler="exact_krls")
    if name == "rff":
        return RffMethod(n_features=ell if ell % 2 == 0 else ell + 1)
    raise ValueError(f"unknown method {name!r}")


class _Scenario:
    """Resolved scenario: loads CSV pools once, draws (x, y) pairs on demand."""

    def __init__(self, raw: dict):
        self.kind = raw.get("kind")
        self.raw = raw
        if self.kind == "correlated-gaussian":
            self.dim = int(raw.get("dim", 3))
            self.rho1 = float(raw.get("rho1", 0.5))
            rho2 = raw.get("rho2", self.rho1)
            self.rho2_grid = tuple(float(v) for v in np.atleast_1d(rho2))
        elif self.kind == "csv":
            self.x_pool = load_csv(raw["x"], bool(raw.get("has_header", False)))
            self.y_pool = load_csv(raw["y"], bool(raw.get("has_header", False)))
        elif self.kind == "mixture":
            self.background = load_csv(raw["background"],
                                       bool(raw.get("has_header", False)))
            self.signal = load_csv(raw["signal"], bool(raw.get("has_header", False)))
            fraction = raw.get("mix_fraction", 0.2)
            self.mix_grid = tuple(float(v) for v in np.atleast_1d(fraction))
        else:
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    def params(self, regime: str) -> tuple[float, ...]:
        """Grid of scenario parameter values (a single 0.0 when not applicable)."""
        if self.kind == "correlated-gaussian":
            return self.rho2_grid if regime == "alternative" else (self.rho1,)
        if self.kind == "mixture":
            return self.mix_grid if regime == "alternative" else (0.0,)
        return (0.0,)

    def draw_pair(self, regime: str, n: int, param: float, rng: np.random.Generator):
        if self.kind == "correlated-gaussian":
            seed_x = int(rng.integers(2**63))
            seed_y = int(rng.integers(2**63))
            rho_y = param if regime == "alternative" else self.rho1
            x = sample_correlated_gaussians(n, self.dim, self.rho1, seed_x)
            y = sample_correlated_gaussians(n, self.dim, rho_y, seed_y)
            return x, y
        if self.kind == "csv":
            if regime == "alternative":
                x = self._subsample(self.x_pool, n, rng)
                y = self._subsample(self.y_pool, n, rng)
            else:
                x, y = self._disjoint_halves(self.x_pool, n, rng)
            return x, y
        if regime == "alternative":
            order = rng.permutation(self.background.shape[0])
            if n > order.size:
                raise ValueError(f"background pool too small for n={n}")
            x = self.background[order[:n]]
            remaining = self.background[order[n:]]
            y = sample_mixture(remaining, self.signal, param, n,
                               seed=int(rng.integers(2**63)))
            return x, y
        return self._disjoint_halves(self.background, n, rng)

    @staticmethod
    def _subsample(pool, n, rng):
        if n > pool.shape[0]:
            raise ValueError(f"pool of {pool.shape[0]} rows too small for n={n}")
        return pool[rng.choice(pool.shape[0], size=n, replace=False)]

    @staticmethod
    def _disjoint_halves(pool, n, rng):
        if 2 * n > pool.shape[0]:
            raise ValueError(f"pool of {pool.shape[0]} rows too small for two "
                             f"disjoint samples of {n}")
        order = rng.permutation(pool.shape[0])
        return pool[order[:n]], pool[order[n: 2 * n]]


def _worker_count(n_threads: int | None) -> int:
    if n_threads is not None:
        return max(1, int(n_threads))
    return max(1, int(os.environ.get(THREADS_ENV_VAR, "1")))


def estimate_rate(spec: ExperimentSpec, regime: str, *,
                  n_threads: int | None = None) -> list[RateEstimate]:
    """Run every grid cell of the spec and estimate its rejection rate.

    Args:
        spec: The experiment grid.
        regime: "null" (both samples from the base distribution) or
            "alternative" (second sample from the shifted distribution).
        n_threads: Worker threads for repetitions; defaults to the
            NYSMMD_THREADS environment variable (1 if unset).  Results are
            identical for a fixed seed regardless of thread count.

    Returns:
        One RateEstimate per cell, in grid order.  A failing cell yields an
        entry with its ``error`` field set to "ExceptionType: message"
        instead of aborting the grid.
    """
    if regime not in ("null", "alternative"):
        raise ValueError("regime must be 'null' or 'alternative'")
    scenario = _Scenario(spec.scenario)
    regime_code = 0 if regime == "null" else 1
    workers = _worker_count(n_threads)
    results: list[RateEstimate] = []

    cells = []
    for method_index, method_name in enumerate(spec.methods):
        ells = (0,) if method_name == "exact" else spec.landmarks
        for ell in ells:
            for n in spec.sample_sizes:
                for param_index, param in enumerate(scenario.params(regime)):
                    cells.append((method_index, method_name, ell, n,
                                  param_index, param))

    for method_index, method_name, ell, n, param_index, param in cells:
        try:
            method = method_from_name(method_name, ell)

            def one_repetition(rep: int) -> tuple[bool, float]:
                cell = [regime_code, n, param_index, rep, method_index, ell]
                data_seed = np.random.SeedSequence([spec.seed, 11, *cell])
                test_seed = int(np.random.SeedSequence([spec.seed, 13, *cell])
                                .generate_state(2, np.uint64)[0])
                x, y = scenario.draw_pair(regime, n, param,
                                          np.random.default_rng(data_seed))
                config = TestConfig(alpha=spec.alpha,
                                    n_permutations=spec.permutations,
                                    seed=test_seed,
                                    keep_statistics=False)
                start = time.perf_counter()
                outcome = run_test(x, y, config, method)
                elapsed = time.perf_counter() - start
                return outcome.reject, elapsed

            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(pool.map(one_repetition,
                                             range(spec.repetitions)))
            else:
                outcomes = [one_repetition(rep) for rep in range(spec.repetitions)]
            successes = sum(1 for reject, _ in outcomes if reject)
            mean_runtime = float(np.mean([t for _, t in outcomes]))
            low, high = wilson_interval(successes, spec.repetitions)
            results.append(RateEstimate(
                method=method_name, ell=ell, n_x=n, n_y=n, param=param,
                successes=successes, trials=spec.repetitions,
                rate=successes / spec.repetitions,
                wilson_low=low, wilson_high=high,
                mean_runtime_s=mean_runtime))
        except Exception as exc:  # record and continue with the grid
            results.append(RateEstimate(
                method=method_name, ell=ell, n_x=n, n_y=n, param=param,
                successes=0, trials=0, rate=float("nan"),
                wilson_low=float("nan"), wilson_high=float("nan"),
                mean_runtime_s=float("nan"),
                error=f"{type(exc).__name__}: {exc}"))
    return results


def results_to_csv(estimates: list[RateEstimate]) -> str:
    """Serialize successful cells as CSV with the stable results header."""
    buffer = io.StringIO()
    writer = _csv.writer(buffer)
    writer.writerow(RESULTS_HEADER)
    for est in estimates:
        if est.error is not None:
            continue
        writer.writerow([est.method, est.ell, est.n_x, est.n_y,
                         repr(float(est.param)), repr(float(est.rate)),
                         repr(float(est.wilson_low)), repr(float(est.wilson_high)),
                         repr(float(est.mean_runtime_s)), est.trials])
    return buffer.getvalue()


def parse_results_csv(text: str) -> list[RateEstimate]:
    """Parse rows written by :func:`results_to_csv` back into estimates."""
    reader = _csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != RESULTS_HEADER:
        raise ValueError(f"unexpected results header {header}")
    estimates = []
    for row in reader:
        if not row:
            continue
        (method, ell, n_x, n_y, param, rate, low, high, runtime, reps) = row
        trials = int(reps)
        rate_value = float(rate)
        estimates.append(RateEstimate(
            method=method, ell=int(ell), n_x=int(n_x), n_y=int(n_y),
            param=float(param), successes=round(rate_value * trials),
            trials=trials, rate=rate_value, wilson_low=float(low),
            wilson_high=float(high), mean_runtime_s=float(runtime)))
    return estimates


@dataclass(frozen=True)
class AccumulationMeasurement:
    """Timing and peak incremental memory of the single-pass accumulation."""

    n: int
    seconds: float
    peak_bytes: int


def accumulation_profile(sample_sizes, n_landmarks: int = 64,
                         n_permutations: int = 199, dim: int = 3, seed: int = 0,
                         repeats: int = 5,
                         chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[AccumulationMeasurement]:
    """Measure the accumulation stage across pooled sample sizes.

    For each pooled size n, builds the landmarks, feature map, and permuted
    weight matrix once (setup), then times only the single pass that
    accumulates weighted features.  The timing is the median over
    ``repeats`` runs; peak memory is traced over one extra run.
    """
    measurements = []
    for n in sample_sizes:
        rng = np.random.default_rng([seed, n])
        points = rng.standard_normal((n, dim))
        pooled = PooledSample(points=points, n_x=n // 2, n_y=n - n // 2)
        bandwidth = median_heuristic(points, seed=int(rng.integers(2**63)))
        kernel = GaussianKernel(bandwidth)
        landmarks = sample_landmarks(points, n_landmarks,
                                     seed=int(rng.integers(2**63)))
        feature_map = build_nystrom(landmarks, kernel)
        weights = permutation_weights(pooled, n_permutations,
                                      seed=int(rng.integers(2**63)))

        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            accumulate_weighted_features(weights, points, feature_map, chunk_size)
            times.append(time.perf_counter() - start)

        tracemalloc.start()
        accumulate_weighted_features(weights, points, feature_map, chunk_size)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        measurements.append(AccumulationMeasurement(
            n=n, seconds=float(np.median(times)), peak_bytes=int(peak)))
    return measurements


def fit_power_law(sizes, values) -> float:
    """Least-squares exponent of values ~ sizes^exponent on log-log scale."""
    sizes = np.asarray(sizes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if sizes.size < 2:
        raise ValueError("need at least two points to fit an exponent")
    slope, _ = np.polyfit(np.log(sizes), np.log(values), 1)
    return float(slope)
