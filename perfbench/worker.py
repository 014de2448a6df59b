"""Worker processes of the benchmark; each mode runs in a fresh interpreter.

Modes (the orchestrator `run.py` starts them and reads the JSON object each
prints as its last stdout line):

    setup WORKLOAD SEED WORKDIR [--trace]
        Time `import nysmmd` and the building of the workload's inputs.
    run WORKLOAD SEED SECONDS WORKDIR [--trace]
        Run an in-process workload (large_uniform, level_null): one setup
        sample, a discarded warm-up test, then tests for SECONDS with a
        calibration burst (calibration.py) after each test or round.  With
        --trace, traced and untraced tests alternate, a tracemalloc test
        follows, and the traced tests are checked against checks.py.
    cli DUMP [--memory] -- ARGS...
        Run `nysmmd ARGS` under the tracer and write its spans to DUMP.
    check-cli WORKDIR DUMP...
        Recompute the statistic of each traced `nysmmd test` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from calibration import Calibration, timed_phase
from common import (
    ALPHA,
    PERMUTATIONS,
    SRC,
    WORKLOADS,
    csv_paths,
    data_seeds,
    round_seed,
)


def _import_nysmmd() -> float:
    start = time.perf_counter()
    import nysmmd
    elapsed = time.perf_counter() - start
    location = Path(nysmmd.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"imported nysmmd from {location}, not from {SRC}")
    return elapsed


def _build_inputs(workload, seed: int, workdir: Path):
    """The workload's inputs: CSV files for the CLI, arrays for the others."""
    from nysmmd import cli, data

    seed_x, seed_y = data_seeds(seed)
    if workload.name == "cli_akrls":
        for path, rho, side_seed in zip(csv_paths(workdir),
                                        (workload.rho_x, workload.rho_y),
                                        (seed_x, seed_y)):
            code = cli.main(["gen", "--family", "correlated-gaussian",
                             "--n", str(workload.n), "--dim", str(workload.dim),
                             "--rho", repr(rho), "--seed", str(side_seed),
                             "--output", str(path)])
            if code != 0:
                raise RuntimeError(f"nysmmd gen exited with {code}")
        return None
    if workload.name == "large_uniform":
        return (data.sample_correlated_gaussians(workload.n, workload.dim,
                                                 workload.rho_x, seed_x),
                data.sample_correlated_gaussians(workload.n, workload.dim,
                                                 workload.rho_y, seed_y))
    return None


def _setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    import_s = _import_nysmmd()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    _build_inputs(workload, args.seed, Path(args.workdir))
    build_s = time.perf_counter() - start
    write_csv = 0.0
    if tracer is not None:
        tracer.restore()
        write_csv = sum(layers.get("data.write_csv", [0.0])[0]
                        for layers in tracer.layers().values())
    return {"import_s": import_s, "build_s": build_s, "write_csv_s": write_csv,
            "blas": _blas_build()}


def _blas_build() -> str:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


class _Tests:
    """Runs the tests of an in-process workload and records what they did."""

    def __init__(self, workload, seed: int, inputs):
        from nysmmd import bench, permutation

        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.bench = bench
        self.permutation = permutation
        self.method = permutation.NystromMethod(n_landmarks=workload.landmarks,
                                                sampler="uniform")
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.rejections = 0
        self.errors: list[str] = []

    def round(self) -> list[float]:
        """One round: a test (large_uniform) or an estimate_rate call (level_null).

        Returns the wall time of each test of the round.
        """
        index = self.rounds
        self.rounds += 1
        if self.workload.repetitions:
            return self._level_round(index)
        config = self.permutation.TestConfig(alpha=ALPHA, n_permutations=PERMUTATIONS,
                                             seed=round_seed(self.seed, index),
                                             keep_statistics=False)
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = self.permutation.run_test(*self.inputs, config, self.method)
        except Exception as exc:  # counted and reported; the run goes on
            self.failed += 1
            self.errors.append(f"test {index}: {type(exc).__name__}: {exc}")
            return []
        elapsed = time.perf_counter() - start
        self.rejections += outcome.reject
        return [elapsed]

    def _level_round(self, index: int) -> list[float]:
        workload = self.workload
        spec = self.bench.ExperimentSpec(
            scenario={"kind": "correlated-gaussian", "dim": workload.dim,
                      "rho1": workload.rho_x},
            methods=(workload.method,), landmarks=(workload.landmarks,),
            sample_sizes=(workload.n,), alpha=ALPHA, permutations=PERMUTATIONS,
            repetitions=workload.repetitions, seed=round_seed(self.seed, index))
        times: list[float] = []
        original = self.bench.run_test

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            times.append(time.perf_counter() - start)
            return result

        self.bench.run_test = timed
        try:
            (estimate,) = self.bench.estimate_rate(spec, "null",
                                                   n_threads=1)
        finally:
            self.bench.run_test = original
        self.attempted += workload.repetitions
        if estimate.error is not None:
            self.failed += workload.repetitions
            self.errors.append(f"round {index}: {estimate.error}")
            return []
        self.rejections += estimate.successes
        return times

    def correctness(self) -> list[str]:
        """Why the completed tests are wrong, or an empty list."""
        from checks import level_region

        completed = self.attempted - self.failed
        if self.workload.rejects:
            if self.rejections != completed:
                return [f"{completed - self.rejections} of {completed} tests on "
                        f"the alternative did not reject"]
            return []
        low, high = level_region(completed, ALPHA)
        if not low <= self.rejections <= high:
            return [f"{self.rejections} rejections in {completed} null tests lie "
                    f"outside the level region [{low:.1f}, {high:.1f}]"]
        return []


def _run(args) -> dict:
    workload = WORKLOADS[args.workload]
    import_s = _import_nysmmd()
    start = time.perf_counter()
    inputs = _build_inputs(workload, args.seed, Path(args.workdir))
    build_s = time.perf_counter() - start
    tests = _Tests(workload, args.seed, inputs)
    tests.round()  # warm-up, discarded
    tests.attempted = tests.failed = tests.rejections = 0
    calibration = Calibration()
    if args.trace:
        result = _traced_phase(tests, args.seconds, calibration)
    else:
        phase = timed_phase(tests.round, args.seconds, calibration)
        result = {"test_s": phase.test_s, "tests_per_s": phase.tests_per_s}
    result["calibration_s"] = calibration.kernel_s()
    result.update(import_s=import_s, build_s=build_s, attempted=tests.attempted,
                  failed=tests.failed, errors=tests.errors,
                  incorrect=tests.correctness())
    return result


def _traced_phase(tests: _Tests, seconds: float, calibration: Calibration) -> dict:
    """Alternate untraced and traced rounds, then trace one test's memory."""
    from checks import numerical_rank, statistic_error
    from tracing import ROOT_SPAN, TOTAL, Tracer, layer_metrics, map_metrics

    tracer = Tracer()
    untraced: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tests.rounds % 2:
            tracer.install()
            try:
                tests.round()
            finally:
                tracer.restore()
        else:
            untraced += tests.round()
        calibration.burst()

    per_test = tracer.layers()
    traced = [per_test[test] for test in sorted(t for t in per_test if t is not None)]
    captures = [tracer.captures[test] for test in sorted(t for t in tracer.captures
                                                         if t is not None)]
    metrics = layer_metrics(traced)
    traced_s = statistics.median(layers[ROOT_SPAN][TOTAL] for layers in traced)
    metrics["tracing.overhead_s"] = traced_s - statistics.median(untraced)
    metrics["host.calibration_s"] = calibration.kernel_s()

    workload = tests.workload
    if workload.repetitions:
        # Time per test spent in the harness outside run_test: data draws
        # and seeding.
        outside = per_test[None]["bench.estimate_rate"][TOTAL]
        inside = sum(layers[ROOT_SPAN][TOTAL] for layers in traced)
        metrics["bench.estimate_rate_self_s"] = (outside - inside) / len(traced)
    else:
        metrics["bench.estimate_rate_self_s"] = 0.0

    metrics.update(map_metrics(captures))
    ranks = [numerical_rank(c["landmarks"], c["bandwidth"], c["rank_tolerance"])
             for c in captures]
    metrics["features.rank"] = statistics.median(ranks)

    incorrect = []
    if workload.rejects:
        for number, capture in enumerate(captures):
            error = statistic_error(capture["statistic"], *tests.inputs,
                                    capture["landmarks"], capture["bandwidth"],
                                    capture["rank_tolerance"])
            if error is not None:
                incorrect.append(f"traced test {number}: {error}")

    memory = Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        _memory_test(tests)
    finally:
        tracemalloc.stop()
        memory.restore()
    metrics["statistics.permutation_weights_peak_mb"] = memory.peak_mb(
        "statistics.permutation_weights")
    metrics["leverage.approx_krls_peak_mb"] = memory.peak_mb("leverage.approx_krls")
    return {"metrics": metrics, "checked": incorrect}


def _memory_test(tests: _Tests) -> None:
    """One direct run_test on the workload's inputs (a null draw for the level study)."""
    from nysmmd import data

    workload = tests.workload
    if tests.inputs is not None:
        x, y = tests.inputs
    else:
        x = data.sample_correlated_gaussians(workload.n, workload.dim, workload.rho_x,
                                             round_seed(tests.seed, 0))
        y = data.sample_correlated_gaussians(workload.n, workload.dim, workload.rho_y,
                                             round_seed(tests.seed, 1))
    config = tests.permutation.TestConfig(alpha=ALPHA, n_permutations=PERMUTATIONS,
                                          seed=round_seed(tests.seed, 0),
                                          keep_statistics=False)
    tests.permutation.run_test(x, y, config, tests.method)


def _cli(args, argv: list[str]) -> int:
    _import_nysmmd()
    from nysmmd import cli
    from tracing import Tracer

    tracer = Tracer(memory=args.memory)
    tracer.install()
    if args.memory:
        tracemalloc.start()
    try:
        code = cli.main(argv)
    finally:
        if args.memory:
            tracemalloc.stop()
        tracer.restore()
    # One `nysmmd test` process is one test: loads outside run_test count too.
    layers: dict[str, list] = {}
    for per_test in tracer.layers().values():
        for name, (total, own, calls) in per_test.items():
            entry = layers.setdefault(name, [0.0, 0.0, 0])
            entry[0] += total
            entry[1] += own
            entry[2] += calls
    (capture,) = tracer.captures.values()
    dump = {
        "layers": layers,
        "landmarks": capture["landmarks"].tolist(),
        "dimension": capture["dimension"],
        "rank_tolerance": capture["rank_tolerance"],
        "n": capture["n"],
        "permutations": capture["permutations"],
        "peaks_mb": {name: tracer.peak_mb(name) for name in tracer.peaks},
    }
    Path(args.dump).write_text(json.dumps(dump), encoding="utf-8")
    return code


def _check_cli(args) -> dict:
    """Recompute each traced test's statistic from the CSVs with numpy alone.

    Each dump holds the landmarks the test drew and, under "outcome", the
    JSON the `nysmmd test` process printed.
    """
    import numpy as np

    from checks import numerical_rank, statistic_error

    x, y = (np.loadtxt(path, delimiter=",", ndmin=2) for path in csv_paths(Path(args.workdir)))
    incorrect, ranks = [], []
    for dump_path in args.dumps:
        dump = json.loads(Path(dump_path).read_text(encoding="utf-8"))
        outcome = dump["outcome"]
        landmarks = np.asarray(dump["landmarks"])
        error = statistic_error(outcome["statistic"], x, y, landmarks,
                                outcome["bandwidth"], dump["rank_tolerance"])
        if error is not None:
            incorrect.append(f"{Path(dump_path).name}: {error}")
        ranks.append(numerical_rank(landmarks, outcome["bandwidth"],
                                    dump["rank_tolerance"]))
    return {"incorrect": incorrect, "ranks": ranks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("workload", choices=sorted(WORKLOADS))
    setup.add_argument("seed", type=int)
    setup.add_argument("workdir")
    setup.add_argument("--trace", action="store_true")
    run = sub.add_parser("run")
    run.add_argument("workload", choices=("large_uniform", "level_null"))
    run.add_argument("seed", type=int)
    run.add_argument("seconds", type=float)
    run.add_argument("workdir")
    run.add_argument("--trace", action="store_true")
    cli = sub.add_parser("cli")
    cli.add_argument("dump")
    cli.add_argument("--memory", action="store_true")
    check = sub.add_parser("check-cli")
    check.add_argument("workdir")
    check.add_argument("dumps", nargs="+")
    argv = sys.argv[1:] if argv is None else list(argv)
    nysmmd_argv = []
    if "--" in argv:
        split = argv.index("--")
        argv, nysmmd_argv = argv[:split], argv[split + 1:]
    args = parser.parse_args(argv)

    if args.mode == "cli":
        return _cli(args, nysmmd_argv)
    handler = {"setup": _setup, "run": _run, "check-cli": _check_cli}[args.mode]
    print(json.dumps(handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
