"""Benchmark of nysmmd, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
    cli_akrls      `nysmmd test --method nystrom-akrls`, one fresh process per test
    large_uniform  run_test in-process at 50,000 points per side, ell = 300
    level_null     bench.estimate_rate on the level-study cell, 2 threads

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics test_s, tests_per_s, peak_rss_mb and setup_s; with --trace 1 it
holds the per-layer metrics of a traced run instead.  Times and rates are
scaled to the host's nominal speed with calibration.py; the raw figures go
to stderr with the machine line.  Every measured cost is paid in a child
process; this process loads numpy only to time the calibration kernel in
between `nysmmd test` processes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from calibration import NOMINAL_S, Calibration, timed_phase
from common import (
    ALPHA,
    BENCH_DIR,
    MB,
    PERMUTATIONS,
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    csv_paths,
    round_seed,
)
from tracing import layer_metrics, map_metrics

WORKER = BENCH_DIR / "worker.py"
# What the `nysmmd` console script runs.
NYSMMD = ("-c", "import sys; from nysmmd.cli import main; sys.exit(main())")
CHILD_TIMEOUT_S = 150
# Fresh-interpreter samples behind the setup_s median.
SETUP_SAMPLES = 5
# `python -X importtime` samples behind the import layer metrics.
IMPORTTIME_SAMPLES = 3
REJECT_EXIT = 3
# Per-layer metrics of a traced run, with their units.  Layers a workload
# does not reach read 0 (e.g. leverage scores under the uniform sampler).
PER_LAYER = {
    "nysmmd.import_s": "s",
    "nysmmd.import_scipy_stats_s": "s",
    "nysmmd.import_scipy_spatial_s": "s",
    "data.load_csv_s": "s",
    "data.write_csv_s": "s",
    "kernels.median_heuristic_s": "s",
    "leverage.approx_krls_s": "s",
    "leverage.approx_krls_peak_mb": "MB",
    "leverage.sample_landmarks_s": "s",
    "linalg.psd_eigh_s": "s",
    "linalg.psd_eigh_calls": "count",
    "features.build_nystrom_s": "s",
    "features.features_s": "s",
    "features.features_calls": "count",
    "features.dimension": "count",
    "features.rank": "count",
    "statistics.permutation_weights_s": "s",
    "statistics.permutation_weights_peak_mb": "MB",
    "statistics.accumulate_self_s": "s",
    "statistics.accumulate_gflop": "GFLOP",
    "permutation.run_test_s": "s",
    "permutation.run_test_self_s": "s",
    "permutation.decide_s": "s",
    "bench.estimate_rate_self_s": "s",
    "tracing.overhead_s": "s",
    "host.calibration_s": "s",
}
END_TO_END = {"test_s": "s", "tests_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    wall_s: float
    peak_rss_mb: float


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def last_json_line(text: str) -> dict:
    """The JSON object a worker prints as the last line of its stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("worker printed no result")
    return json.loads(lines[-1])


def spawn(argv, env) -> Child:
    """Run a child to its exit; wall time from spawn to exit, peak RSS from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, stdout.decode("utf-8", "replace"), wall,
                 usage.ru_maxrss * 1024 / MB)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []

    def worker(self, *args) -> tuple[dict, Child]:
        child = spawn([sys.executable, str(WORKER), *map(str, args)], self.env)
        if child.code != 0:
            raise RuntimeError(f"worker {args[0]} exited with status {child.code}")
        return last_json_line(child.stdout), child

    def setup_samples(self, count: int, trace: bool = False,
                      calibration: Calibration | None = None) -> list[dict]:
        """Setup samples, each followed by a calibration burst when one is given."""
        flags = ("--trace",) if trace else ()
        samples = []
        for _ in range(count):
            samples.append(self.worker("setup", self.workload.name, self.seed,
                                       self.workdir, *flags)[0])
            if calibration is not None:
                calibration.burst()
        log(f"machine: {os.cpu_count()} CPUs, BLAS {samples[0]['blas']}, "
            f"{self.workload.blas_threads} BLAS thread(s) x 1 test thread")
        return samples

    # -- cli_akrls ---------------------------------------------------------

    def cli_args(self, index: int) -> list[str]:
        x, y = csv_paths(self.workdir)
        return ["test", "--x", str(x), "--y", str(y), "--method", self.workload.method,
                "--alpha", repr(ALPHA), "--permutations", str(PERMUTATIONS),
                "--seed", str(round_seed(self.seed, index))]

    def cli_test(self, index: int, dump=None) -> Child | None:
        """One `nysmmd test` process (traced when dump is given); None if it failed."""
        if dump is None:
            argv = [sys.executable, *NYSMMD, *self.cli_args(index)]
        else:
            argv = [sys.executable, str(WORKER), "cli", str(dump), "--",
                    *self.cli_args(index)]
        self.attempted += 1
        child = spawn(argv, self.env)
        if child.code not in (0, REJECT_EXIT):
            self.failed += 1
            log(f"test {index}: nysmmd test exited with status {child.code}")
            return None
        outcome = json.loads(child.stdout)
        if child.code != REJECT_EXIT or outcome["reject"] is not True:
            self.incorrect.append(f"test {index}: exit status {child.code}, "
                                  f"reject {outcome['reject']!r} on the alternative")
        if dump is not None:
            record = json.loads(dump.read_text(encoding="utf-8"))
            record["outcome"] = outcome
            dump.write_text(json.dumps(record), encoding="utf-8")
        return child

    def cli_measured(self) -> dict:
        # Bursts between the setup samples too: this run has few tests, and
        # so few bursts in its timed phase.
        calibration = Calibration()
        setup = self.setup_samples(SETUP_SAMPLES, calibration=calibration)
        self.cli_test(0)  # warm-up, discarded
        self.attempted = self.failed = 0
        done: list[Child] = []
        indices = itertools.count(1)

        def step() -> list[float]:
            child = self.cli_test(next(indices))
            if child is None:
                return []
            done.append(child)
            return [child.wall_s]

        phase = timed_phase(step, self.seconds, calibration)
        return {
            "test_s": phase.test_s,
            "tests_per_s": phase.tests_per_s,
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in done),
            "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setup),
            "calibration_s": calibration.kernel_s(),
        }

    def cli_traced(self) -> dict:
        (setup,) = self.setup_samples(1, trace=True)
        self.cli_test(0)  # warm-up, discarded
        self.attempted = self.failed = 0
        calibration = Calibration()
        plain: list[float] = []
        traced: list[float] = []
        dumps = []
        index = 1
        start = time.perf_counter()
        while time.perf_counter() - start < self.seconds:
            dump = self.workdir / f"trace-{index}.json" if index % 2 else None
            child = self.cli_test(index, dump)
            index += 1
            calibration.burst()
            if child is None:
                continue
            if dump is None:
                plain.append(child.wall_s)
            else:
                traced.append(child.wall_s)
                dumps.append(dump)
        memory_dump = self.workdir / "memory.json"
        memory = spawn([sys.executable, str(WORKER), "cli", str(memory_dump), "--memory",
                        "--", *self.cli_args(index)], self.env)
        if memory.code != REJECT_EXIT:
            raise RuntimeError(f"tracemalloc test exited with status {memory.code}")
        checked, _ = self.worker("check-cli", self.workdir, *dumps)
        self.incorrect += checked["incorrect"]

        records = [json.loads(d.read_text(encoding="utf-8")) for d in dumps]
        metrics = layer_metrics([r["layers"] for r in records])
        metrics.update(map_metrics(records))
        peaks = json.loads(memory_dump.read_text(encoding="utf-8"))["peaks_mb"]
        metrics.update({
            "data.write_csv_s": setup["write_csv_s"],
            "features.rank": statistics.median(checked["ranks"]),
            "leverage.approx_krls_peak_mb": peaks["leverage.approx_krls"],
            "statistics.permutation_weights_peak_mb":
                peaks["statistics.permutation_weights"],
            "bench.estimate_rate_self_s": 0.0,
            "tracing.overhead_s": statistics.median(traced) - statistics.median(plain),
            "host.calibration_s": calibration.kernel_s(),
        })
        return metrics

    # -- large_uniform, level_null -----------------------------------------

    def worker_run(self, trace: bool) -> tuple[dict, Child]:
        flags = ("--trace",) if trace else ()
        result, child = self.worker("run", self.workload.name, self.seed, self.seconds,
                                    self.workdir, *flags)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for error in result["errors"]:
            log(error)
        self.incorrect += result["incorrect"]
        return result, child

    def in_process_measured(self) -> dict:
        setup = self.setup_samples(SETUP_SAMPLES - 1)
        result, child = self.worker_run(trace=False)
        setup.append(result)
        return {
            "test_s": result["test_s"],
            "tests_per_s": result["tests_per_s"],
            "peak_rss_mb": child.peak_rss_mb,
            "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setup),
            "calibration_s": result["calibration_s"],
        }

    def in_process_traced(self) -> dict:
        (setup,) = self.setup_samples(1, trace=True)
        result, _ = self.worker_run(trace=True)
        self.incorrect += result["checked"]
        metrics = result["metrics"]
        metrics["data.write_csv_s"] = setup["write_csv_s"]
        return metrics

    # -- both ----------------------------------------------------------------

    def import_layers(self) -> dict:
        """Medians of `python -X importtime -c "import nysmmd"` cumulative times."""
        wanted = {"nysmmd": "nysmmd.import_s",
                  "scipy.stats": "nysmmd.import_scipy_stats_s",
                  "scipy.spatial": "nysmmd.import_scipy_spatial_s"}
        samples = {metric: [] for metric in wanted.values()}
        for _ in range(IMPORTTIME_SAMPLES):
            done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nysmmd"],
                                  env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=True)
            found = {}
            for line in done.stderr.splitlines():
                fields = line.split("|")
                name = fields[-1].strip()
                if len(fields) == 3 and name in wanted and name not in found:
                    found[name] = int(fields[1]) / 1e6
            for name, metric in wanted.items():
                samples[metric].append(found.get(name, 0.0))
        return {metric: statistics.median(values) for metric, values in samples.items()}

    def measured(self) -> dict:
        if self.workload.name == "cli_akrls":
            raw = self.cli_measured()
        else:
            raw = self.in_process_measured()
        log("unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
        factor = NOMINAL_S / raw["calibration_s"]
        values = {
            "test_s": raw["test_s"] * factor,
            "tests_per_s": raw["tests_per_s"] / factor,
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": raw["setup_s"] * factor,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}

    def traced(self) -> dict:
        values = self.import_layers()
        if self.workload.name == "cli_akrls":
            values.update(self.cli_traced())
        else:
            values.update(self.in_process_traced())
        missing = set(PER_LAYER) - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
        return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "nysmmd" / "__init__.py").is_file():
        log(f"error: no nysmmd package under {SRC}; run from a checkout of the repository")
        return 2

    workload = WORKLOADS[args.workload]
    # Before numpy loads here (for the calibration) and for every child.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(workload.blas_threads)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed, args.seconds, workdir)
    try:
        metrics = run.traced() if args.trace else run.measured()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.incorrect:
        log(f"incorrect: {problem}")
    print(json.dumps({
        "correct": not run.incorrect,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
