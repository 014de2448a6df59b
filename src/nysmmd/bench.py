"""Experiment harness: rejection-rate grids, Wilson intervals, and a results CSV.

An :class:`ExperimentSpec` describes a grid of (method, feature count,
sample size, scenario parameter) cells.  Each cell runs a number of
independent seeded repetitions with fresh data and fresh landmarks, counts
rejections, and reports a Wilson score interval plus the mean wall-clock
time of a full test.  Repetition seeds are derived from the master seed and
the repetition's coordinates alone, so results do not depend on execution
order or the number of worker threads.
"""

from __future__ import annotations

import io
import csv as _csv
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .data import (check_mix_fraction, equicorrelation_root, load_csv,
                   sample_correlated_gaussians, sample_mixture)
from .permutation import METHODS, SmallAlphaWarning, TestConfig, run_test

RESULTS_HEADER = ("method", "ell", "n_x", "n_y", "param", "rate",
                  "wilson_low", "wilson_high", "mean_runtime_s", "reps")
THREADS_ENV_VAR = "NYSMMD_THREADS"
WILSON_Z = 1.9599639845400536  # statistics.NormalDist().inv_cdf(0.975), two-sided 95%


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    With p = successes / trials and z = WILSON_Z, the bounds are
    (p + z^2/2n -/+ z sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n), clamped into
    [0, 1].
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = WILSON_Z
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
    """Rejection-rate estimate for one grid cell.

    A failing cell has ``error`` set to "ExceptionType: message" and
    ``error_type`` to the exception's class name; a cell that ran has both
    None.
    """

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
    error_type: str | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid description for a level or power study; `from_dict` reads its JSON form.

    Building the spec checks every value once and derives, besides the
    shared `config`, ``method_specs``: one (method name, feature count,
    method spec) tuple per method cell in grid order, with
    feature count 0 for "exact" and one entry per landmark count for every
    other method.  `estimate_rate` runs these specs as they are.
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
    config: TestConfig = field(init=False, repr=False)  # a repetition swaps its seed
    method_specs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        for key in ("methods", "sample_sizes"):
            if not getattr(self, key):
                raise ValueError(f"{key} grid is empty")
        if (smallest := min(self.sample_sizes)) < 1:
            raise ValueError(f"sample_sizes must be at least 1, got {smallest}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {tuple(METHODS)}")
        if not self.landmarks and any(m != "exact" for m in self.methods):
            raise ValueError("landmarks grid is empty but a feature-map method "
                             "is requested")
        # a value that would fail (or warn in) each cell it reaches does so here once
        object.__setattr__(self, "config", TestConfig(
            self.alpha, self.permutations, self.seed, keep_statistics=False))
        object.__setattr__(self, "method_specs", tuple(
            (name, ell, METHODS[name](ell))
            for name in self.methods
            for ell in ((0,) if name == "exact" else self.landmarks)))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        if not isinstance(raw, dict):
            raise ValueError(f"spec must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(_SPEC_VALUES)
        if unknown:
            raise ValueError(f"unknown spec keys {sorted(unknown)}")
        missing = {"scenario", "methods", "sample_sizes"} - set(raw)
        if missing:
            raise ValueError(f"spec is missing required keys {sorted(missing)}")
        _check_values("spec", raw, _SPEC_VALUES)
        # keys left out take the field defaults; an exact-only grid needs no landmarks
        return cls(**{"landmarks": (), **{key: _SPEC_VALUES[key][2](value)
                                          for key, value in raw.items()}})


def _is_number(value) -> bool:
    # JSON true and false load as bool, a subclass of int.  The comparison is
    # exact for ints, so one beyond float range fails like inf and NaN do.
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_integral(value) -> bool:
    # int() would drop a fractional part without a word
    return _is_number(value) and float(value).is_integer()


def _is_grid(value) -> bool:
    return _is_number(value) or (isinstance(value, list) and len(value) > 0
                                 and all(map(_is_number, value)))


# spec key: (check, what the check expects, conversion of a checked value)
_SPEC_VALUES = {
    "scenario": (lambda value: isinstance(value, dict), "a JSON object", dict),
    "methods": (lambda value: isinstance(value, list)
                and all(isinstance(v, str) for v in value),
                "a JSON list of strings", tuple),
    **{key: (lambda value: isinstance(value, list) and all(map(_is_integral, value)),
             "a JSON list of finite numbers without fractional parts",
             lambda value: tuple(map(int, value)))
       for key in ("landmarks", "sample_sizes")},
    "alpha": (_is_number, "a finite number", float),
    **{key: (_is_integral, "a finite number without a fractional part", int)
       for key in ("permutations", "repetitions", "seed")},
    "output": (lambda value: value is None or isinstance(value, str),
               "a string or null", lambda value: value),
}
# scenario key: (check, what the check expects)
_SCENARIO_VALUES = {
    "dim": (_is_integral, "a finite number without a fractional part"),
    "rho1": (_is_number, "a finite number"),
    "rho2": (_is_grid, "a finite number or a nonempty JSON list of them"),
    "mix_fraction": (_is_grid, "a finite number or a nonempty JSON list of them"),
    "has_header": (lambda value: isinstance(value, bool), "true or false"),
    **{key: (lambda value: isinstance(value, str), "a string")
       for key in ("x", "y", "background", "signal")},
}
# scenario kind: the keys it reads besides "kind"
_SCENARIO_KEYS = {
    "correlated-gaussian": ("dim", "rho1", "rho2"),
    "csv": ("x", "y", "has_header"),
    "mixture": ("background", "signal", "mix_fraction", "has_header"),
}


def _check_values(what: str, raw: dict, table: dict) -> None:
    for key, (valid, expected, *_) in table.items():
        if key in raw and not valid(raw[key]):
            raise ValueError(f"{what} key {key!r} must be {expected}, got {raw[key]!r}")


def _load_pools(raw: dict, *keys: str) -> list[np.ndarray]:
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ValueError(f"{raw['kind']} scenario is missing required keys {missing}")
    return [load_csv(raw[key], raw.get("has_header", False)) for key in keys]


class _Scenario:
    """Resolved scenario: loads CSV pools once, draws (x, y) pairs on demand.

    Each kind has a grid of alternative parameters and one null parameter:
    rho2 and rho1 for correlated Gaussians (y is drawn at the parameter, x at
    rho1), mix_fraction and 0.0 for a mixture, and a single 0.0 for csv.
    """

    def __init__(self, raw: dict):
        _check_values("scenario", raw, _SCENARIO_VALUES)
        self.kind = raw.get("kind")
        if self.kind not in _SCENARIO_KEYS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        unread = sorted(set(raw) - {"kind", *_SCENARIO_KEYS[self.kind]})
        if unread:
            raise ValueError(f"{self.kind} scenario does not read keys {unread}; "
                             f"it takes {['kind', *_SCENARIO_KEYS[self.kind]]}")
        self.alternatives, self.null_param = (0.0,), 0.0
        if self.kind == "correlated-gaussian":
            self.dim = int(raw.get("dim", 3))
            self.rho1 = self.null_param = float(raw.get("rho1", 0.5))
            rho2 = raw.get("rho2", self.rho1)
            self.alternatives = tuple(float(v) for v in np.atleast_1d(rho2))
            # fail here, not in every cell; the cached roots serve the draws
            for rho in (self.rho1, *self.alternatives):
                equicorrelation_root(self.dim, rho)
        elif self.kind == "csv":
            self.pools = _load_pools(raw, "x", "y")
        else:
            fraction = raw.get("mix_fraction", 0.2)
            self.alternatives = tuple(float(v) for v in np.atleast_1d(fraction))
            for value in self.alternatives:
                check_mix_fraction(value)
            self.pools = _load_pools(raw, "background", "signal")

    def params(self, regime: str) -> tuple[float, ...]:
        """Grid of scenario parameter values for the regime."""
        return self.alternatives if regime == "alternative" else (self.null_param,)

    def draw_pair(self, regime: str, n: int, param: float, rng: np.random.Generator):
        if self.kind == "correlated-gaussian":  # x at rho1, then y at the cell's param
            return tuple(sample_correlated_gaussians(n, self.dim, rho, rng)
                         for rho in (self.rho1, param))
        if self.kind == "csv" and regime == "alternative":
            for pool in self.pools:
                if n > pool.shape[0]:
                    raise ValueError(f"pool of {pool.shape[0]} rows too small for n={n}")
            return tuple(pool[rng.choice(pool.shape[0], size=n, replace=False)]
                         for pool in self.pools)
        pool = self.pools[0]  # x's pool, or the mixture's background
        if regime == "null":
            if 2 * n > pool.shape[0]:
                raise ValueError(f"pool of {pool.shape[0]} rows too small for two "
                                 f"disjoint samples of {n}")
            return _split(pool, n, rng, stop=2 * n)
        if n > pool.shape[0]:
            raise ValueError(f"background pool too small for n={n}")
        x, remaining = _split(pool, n, rng)
        return x, sample_mixture(remaining, self.pools[1], param, n, seed=rng)


def _split(pool: np.ndarray, n: int, rng: np.random.Generator,
           stop: int | None = None):
    """The first n rows of a random order of the pool, and its rows n to stop."""
    order = rng.permutation(pool.shape[0])
    return pool[order[:n]], pool[order[n:stop]]


def _worker_count(n_threads: int | None) -> int:
    name, value = "n_threads", n_threads
    if n_threads is None:
        name, value = THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR, "1")
    if not str(value).isdecimal() or int(value) < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def estimate_rate(spec: ExperimentSpec, regime: str, *,
                  n_threads: int | None = None) -> list[RateEstimate]:
    """Run every grid cell of the spec and estimate its rejection rate.

    Repetition rep of the cells at sample size n and the param_index-th
    scenario parameter opens one np.random.default_rng([spec.seed, regime
    code (0 null, 1 alternative), n, param_index, rep]) and draws from it
    the test seed, int(rng.integers(2**63)), then x, then y.  The method and
    feature count are not among those coordinates, so every method and ell
    of a grid meets the same pairs and the same test seeds (common random
    numbers), and methods can be compared test by test.

    Args:
        spec: The experiment grid.
        regime: "null" (both samples from the base distribution) or
            "alternative" (second sample from the shifted distribution).
        n_threads: Worker threads for repetitions, in one pool for the
            whole grid; defaults to the NYSMMD_THREADS environment variable
            (1 if unset).  Results are identical for a fixed seed
            regardless of thread count.  The package sets no BLAS thread
            count.  On 2 CPUs, 2 test threads with OPENBLAS_NUM_THREADS=1
            beat 1 test thread with 1 BLAS thread at 500 and at 5,000
            points per side, while 2 test threads with BLAS on every CPU
            were the slowest setting measured.

    Raises:
        ValueError: If n_threads or NYSMMD_THREADS is not a positive integer.

    Returns:
        One RateEstimate per cell, in grid order.  A failing cell yields an
        entry with its ``error`` and ``error_type`` fields set instead of
        aborting the grid.
    """
    if regime not in ("null", "alternative"):
        raise ValueError("regime must be 'null' or 'alternative'")
    scenario = _Scenario(spec.scenario)
    regime_code = 0 if regime == "null" else 1
    workers = _worker_count(n_threads)
    results: list[RateEstimate] = []

    # one pool serves every cell (repetitions run in the calling thread when
    # there is a single worker); the spec has already warned of a small alpha
    with warnings.catch_warnings(), (ThreadPoolExecutor(max_workers=workers)
                                     if workers > 1 else nullcontext()) as pool:
        warnings.simplefilter("ignore", SmallAlphaWarning)
        map_repetitions = map if pool is None else pool.map
        grid = product(spec.method_specs, spec.sample_sizes,
                       enumerate(scenario.params(regime)))
        for (method_name, ell, method), n, (param_index, param) in grid:

            def one_repetition(rep: int) -> tuple[bool, float]:
                rng = np.random.default_rng([spec.seed, regime_code, n, param_index, rep])
                config = replace(spec.config, seed=int(rng.integers(2**63)))
                x, y = scenario.draw_pair(regime, n, param, rng)
                start = time.perf_counter()
                outcome = run_test(x, y, config, method)
                elapsed = time.perf_counter() - start
                return outcome.reject, elapsed

            try:
                outcomes = list(map_repetitions(one_repetition,
                                                range(spec.repetitions)))
            except Exception as exc:  # record and continue with the grid
                summary = dict(successes=0, trials=0, rate=math.nan,
                               wilson_low=math.nan, wilson_high=math.nan,
                               mean_runtime_s=math.nan,
                               error=f"{type(exc).__name__}: {exc}",
                               error_type=type(exc).__name__)
            else:
                successes = sum(1 for reject, _ in outcomes if reject)
                low, high = wilson_interval(successes, spec.repetitions)
                summary = dict(successes=successes, trials=spec.repetitions,
                               rate=successes / spec.repetitions, wilson_low=low,
                               wilson_high=high,
                               mean_runtime_s=float(np.mean([t for _, t in outcomes])))
            results.append(RateEstimate(method=method_name, ell=ell, n_x=n, n_y=n,
                                        param=param, **summary))
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
