"""CSV ingestion and seeded synthetic data generators.

The CSV format is deliberately plain: comma-separated numeric cells, UTF-8
(a leading byte-order mark, as spreadsheet exports write, is accepted),
decimal point, one observation per row, optional single header row.  All
generators are pure functions of their arguments and seed; the same seed
reproduces the same dataset bit for bit.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .kernels import as_points


def load_csv(path, has_header: bool = False) -> np.ndarray:
    """Load a numeric, rectangular CSV file into an (n, d) array.

    Plain files are parsed by np.loadtxt.  Anything it rejects or reads as
    empty or non-finite is parsed again cell by cell with the csv module,
    which returns the same array or raises the error below, so the fast path
    changes speed only.

    Raises:
        ValueError: On an empty file, ragged rows, unparsable cells, or
            non-finite values, with row/column diagnostics (1-based, header
            included in the row count).
    """
    values = _load_plain_csv(path, has_header)
    if values is None:
        values = _load_csv_cells(path, has_header)
    return as_points(values, str(path))


def _load_plain_csv(path, has_header: bool) -> np.ndarray | None:
    """np.loadtxt's array for the file, or None where the csv module must decide."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        # a quoted header cell may run over several lines; only csv knows where
        # it ends (np.loadtxt fails on every line that holds a quote)
        if has_header and '"' in handle.readline():
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty input only warns
                values = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
        except (ValueError, Warning):
            return None
    if values.size and np.isfinite(values).all():
        return values
    return None


def _load_csv_cells(path, has_header: bool) -> np.ndarray:
    """Parse the file cell by cell, raising with the row and column of a fault."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for line_number, cells in enumerate(reader, start=1):
            if has_header and line_number == 1:
                continue
            if not cells:
                continue
            rows.append((line_number, cells))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0][1])
    values = np.empty((len(rows), width))
    for out_row, (line_number, cells) in enumerate(rows):
        if len(cells) != width:
            raise ValueError(f"{path}: row {line_number} has {len(cells)} cells, "
                             f"expected {width}")
        for column, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {line_number}, column {column + 1}: "
                                 f"could not parse {cell!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}: row {line_number}, column {column + 1}: "
                                 f"non-finite value {cell!r}")
            values[out_row, column] = value
    return values


def write_csv(points, path) -> None:
    """Write a dataset as CSV with full float round-trip fidelity.

    Each cell is repr of a Python float, which never needs quoting, and each
    line ends in \\r\\n, so the bytes are those csv.writer would write.
    """
    points = as_points(points)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in points.tolist())


def equicorrelation_matrix(dim: int, rho: float) -> np.ndarray:
    """Covariance with unit diagonal and constant off-diagonal correlation rho.

    Positive definite iff -1/(d-1) < rho < 1 (its eigenvalues are
    1 + (d-1) rho and 1 - rho).
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    low = -1.0 / (dim - 1) if dim > 1 else -1.0
    if not low < rho < 1.0:
        raise ValueError(f"rho={rho} outside the positive-definite range "
                         f"({low:.4g}, 1) for d={dim}")
    return (1.0 - rho) * np.eye(dim) + rho * np.ones((dim, dim))


def sample_correlated_gaussians(n: int, dim: int, rho: float, seed: int) -> np.ndarray:
    """Draw n points from a zero-mean Gaussian with equicorrelated covariance.

    The covariance square root is formed from the closed-form eigenpairs of
    the equicorrelation matrix (eigenvalue 1 + (d-1) rho on the all-ones
    direction, 1 - rho on its complement), so no generic factorization is
    needed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    equicorrelation_matrix(dim, rho)  # validates the PSD range
    ones = np.full((dim, dim), 1.0 / dim)
    sqrt_cov = (np.sqrt(1.0 + (dim - 1) * rho) * ones
                + np.sqrt(1.0 - rho) * (np.eye(dim) - ones))
    draws = np.random.default_rng(seed).standard_normal((n, dim))
    return draws @ sqrt_cov


def sample_mixture(background, signal, mix_fraction: float, n: int,
                   seed: int) -> np.ndarray:
    """Draw n rows, each from the signal pool with probability mix_fraction.

    Every output row is independently labeled signal (probability
    mix_fraction) or background, then filled with a row drawn without
    replacement from the corresponding pool, modeling disjoint events taken
    from a fixed simulation file.

    Raises:
        ValueError: If the labels demand more rows than a pool holds.
    """
    background = as_points(background, "background")
    signal = as_points(signal, "signal")
    if background.shape[1] != signal.shape[1]:
        raise ValueError("background and signal pools must share a dimension")
    if not 0.0 <= mix_fraction <= 1.0:
        raise ValueError("mix_fraction must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    from_signal = rng.random(n) < mix_fraction
    n_signal = int(from_signal.sum())
    n_background = n - n_signal
    if n_signal > signal.shape[0]:
        raise ValueError(f"mixture needs {n_signal} signal rows, pool has "
                         f"{signal.shape[0]}")
    if n_background > background.shape[0]:
        raise ValueError(f"mixture needs {n_background} background rows, pool has "
                         f"{background.shape[0]}")
    out = np.empty((n, background.shape[1]))
    if n_signal:
        picks = rng.choice(signal.shape[0], size=n_signal, replace=False)
        out[from_signal] = signal[picks]
    if n_background:
        picks = rng.choice(background.shape[0], size=n_background, replace=False)
        out[~from_signal] = background[picks]
    return out
