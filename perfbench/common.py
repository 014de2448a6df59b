"""Workload definitions shared by the orchestrator and its worker processes.

Only the standard library is imported here, so the orchestrator that the
benchmark command starts never loads numpy itself: every measured cost is
paid in a child process that is timed from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

ALPHA = 0.05
PERMUTATIONS = 199
MB = 1e6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        n: Rows per side.
        rho_x, rho_y: Equicorrelation of the two sides (equal under the null).
        method: Method name as `nysmmd test --method` and the grid take it.
        landmarks: Feature count ell; None means the CLI default ceil(sqrt(n)).
        blas_threads: OpenBLAS threads of every process that runs tests; tests
            run one at a time, so at most the 2 CPUs of the reference machine.
        repetitions: Tests per `estimate_rate` round (level study only).
    """

    name: str
    n: int
    rho_x: float
    rho_y: float
    method: str
    landmarks: int | None
    blas_threads: int
    repetitions: int = 0
    dim: int = 3

    @property
    def rejects(self) -> bool:
        """True on an alternative, where every test must reject."""
        return self.rho_x != self.rho_y


WORKLOADS = {
    w.name: w for w in (
        Workload("cli_akrls", n=20_000, rho_x=0.5, rho_y=0.6,
                 method="nystrom-akrls", landmarks=None, blas_threads=2),
        Workload("large_uniform", n=50_000, rho_x=0.5, rho_y=0.55,
                 method="nystrom-uniform", landmarks=300, blas_threads=2),
        Workload("level_null", n=500, rho_x=0.5, rho_y=0.5,
                 method="nystrom-uniform", landmarks=32, blas_threads=1,
                 repetitions=40),
    )
}


def data_seeds(seed: int) -> tuple[int, int]:
    """Generator seeds of the x and y samples of a run."""
    return 2 * seed, 2 * seed + 1


def round_seed(seed: int, index: int) -> int:
    """Seed of the index-th test (or level-study round) of a run."""
    return seed * 1_000_003 + index


def csv_paths(workdir: Path) -> tuple[Path, Path]:
    return workdir / "x.csv", workdir / "y.csv"
