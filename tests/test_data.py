import warnings

import numpy as np
import pytest

from nysmmd import (
    load_csv,
    sample_correlated_gaussians,
    sample_mixture,
    write_csv,
)
from nysmmd.data import _load_csv_cells, equicorrelation_matrix


class TestLoadCsv:
    def test_plain_two_by_two(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n1,2\n")
        np.testing.assert_array_equal(load_csv(path, has_header=True),
                                      [[1.0, 2.0]])

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((17, 4)) * 1e3
        path = tmp_path / "roundtrip.csv"
        write_csv(points, path)
        np.testing.assert_array_equal(load_csv(path), points)

    def test_round_trip_with_header(self, tmp_path):
        points = np.array([[0.1, 0.2]])
        path = tmp_path / "with_header.csv"
        write_csv(points, path)
        path.write_text("u,v\n" + path.read_text())
        np.testing.assert_array_equal(load_csv(path, has_header=True), points)

    @pytest.mark.parametrize("text,has_header", [
        ("1.5,2\n3,4\n", False),
        ("a,b\n1.5,2\n3,4\n", True),
        ('"1.5",2\n3,4\n', False),  # quoted cells go to the csv module
        ('"a",b\n1.5,2\n3,4\n', True),
    ])
    def test_byte_order_mark_accepted(self, tmp_path, text, has_header):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected = load_csv(plain, has_header)
        np.testing.assert_array_equal(expected, [[1.5, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(load_csv(marked, has_header), expected)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_ragged_rows_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_unparsable_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad_cell.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1,2\ninf,4\n")
        with pytest.raises(ValueError, match="row 2, column 1"):
            load_csv(path)


def load_or_error(load, path, has_header):
    try:
        return load(path, has_header).tolist()
    except ValueError as error:
        return f"ValueError: {error}"


class TestLoadCsvFastPath:
    """load_csv gives the per-cell parser's array or error on every file."""

    FILES = {
        "blank_line": "1,2\n\n3,4\n",
        "whitespace_line": "1,2\n   \n3,4\n",
        "whitespace_line_one_column": "1\n\t\n3\n",
        "spaces_around_cells": " 1 , 2 \n\t3,4\n",
        "quoted_cells": '"1",2\n3," 4"\n',
        "hash_line": "1,2\n# note\n3,4\n",
        "trailing_comma": "1,2,\n3,4,\n",
        "crlf": "1,2\r\n3,4\r\n",
        "single_column": "1\n2\n3\n",
        "single_row": "1,2,3\n",
        "header_only": "a,b\n",
        "nan": "1,nan\n3,4\n",
        "overflow": "1,1e400\n3,4\n",
        "infinity": "1,2\n-infinity,4\n",
        "hex_float": "0x1p3,2\n3,4\n",
        "underscore": "1_000,2\n3,4\n",
        "empty": "",
        "ragged": "1,2\n3\n",
        "unclosed_quote_after_first_line": "x,\"y\n1,2\n3,4\n",
    }

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("name", sorted(FILES))
    def test_same_array_or_error_as_cell_parser(self, tmp_path, name, has_header):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(self.FILES[name].encode("utf-8"))
        assert (load_or_error(load_csv, path, has_header)
                == load_or_error(_load_csv_cells, path, has_header))

    @pytest.mark.parametrize("text", ["", "a,b\n", "\n\n"])
    def test_no_warning_escapes(self, tmp_path, text):
        path = tmp_path / "no_rows.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(path, has_header=bool(text))
        assert caught == []

class TestCorrelatedGaussians:
    def test_independent_case_recovers_identity(self):
        draws = sample_correlated_gaussians(100_000, 3, 0.0, seed=1)
        sample_cov = np.cov(draws.T)
        assert np.abs(sample_cov - np.eye(3)).max() <= 0.02

    def test_half_correlation_matches_target(self):
        target = equicorrelation_matrix(3, 0.5)
        np.testing.assert_array_equal(np.diag(target), np.ones(3))
        assert target[0, 1] == 0.5
        draws = sample_correlated_gaussians(100_000, 3, 0.5, seed=2)
        assert np.abs(np.cov(draws.T) - target).max() <= 0.02

    def test_psd_violation_rejected(self):
        # d = 3, rho = -0.6 gives eigenvalue 1 + 2 rho = -0.2 < 0
        with pytest.raises(ValueError, match="positive-definite"):
            sample_correlated_gaussians(10, 3, -0.6, seed=0)
        with pytest.raises(ValueError, match="positive-definite"):
            equicorrelation_matrix(3, 1.0)

    def test_seeded_regeneration_is_bit_identical(self):
        first = sample_correlated_gaussians(500, 3, 0.4, seed=9)
        second = sample_correlated_gaussians(500, 3, 0.4, seed=9)
        np.testing.assert_array_equal(first, second)
        third = sample_correlated_gaussians(500, 3, 0.4, seed=10)
        assert not np.array_equal(first, third)

    def test_covariance_goodness_across_seeds(self):
        n = 10_000
        bound = 5.0 * np.sqrt(2.0 / n)
        for seed, rho in [(0, 0.5), (1, 0.66), (2, 0.1)]:
            draws = sample_correlated_gaussians(n, 3, rho, seed=seed)
            error = np.abs(np.cov(draws.T) - equicorrelation_matrix(3, rho)).max()
            assert error <= bound


class TestSampleMixture:
    @pytest.fixture
    def pools(self):
        background = np.arange(20_000, dtype=float).reshape(-1, 2)
        signal = -np.arange(10_000, dtype=float).reshape(-1, 2) - 1.0
        return background, signal

    def test_zero_fraction_draws_only_background(self, pools):
        background, signal = pools
        out = sample_mixture(background, signal, 0.0, 500, seed=0)
        assert (out[:, 0] >= 0).all()

    def test_unit_fraction_draws_only_signal(self, pools):
        background, signal = pools
        out = sample_mixture(background, signal, 1.0, 500, seed=0)
        assert (out[:, 0] < 0).all()

    def test_signal_fraction_concentrates(self, pools):
        background, signal = pools
        n, fraction = 10_000, 0.2
        out = sample_mixture(background, signal, fraction, n, seed=3)
        observed = float((out[:, 0] < 0).mean())
        assert abs(observed - fraction) <= 3 * np.sqrt(fraction * (1 - fraction) / n)

    def test_rows_are_drawn_without_replacement(self, pools):
        background, signal = pools
        out = sample_mixture(background, signal, 0.5, 2000, seed=4)
        assert len({tuple(row) for row in out}) == 2000

    def test_exhausted_pool_rejected(self):
        background = np.zeros((5, 1))
        signal = np.ones((5, 1))
        with pytest.raises(ValueError, match="pool has"):
            sample_mixture(background, signal, 0.5, 50, seed=0)

    def test_deterministic_given_seed(self, pools):
        background, signal = pools
        first = sample_mixture(background, signal, 0.3, 100, seed=7)
        second = sample_mixture(background, signal, 0.3, 100, seed=7)
        np.testing.assert_array_equal(first, second)

    def test_fraction_bounds_validated(self, pools):
        background, signal = pools
        with pytest.raises(ValueError, match="mix_fraction"):
            sample_mixture(background, signal, 1.5, 10, seed=0)
