"""The vectorised float formatter against ``repr``, element by element, and
the streamed CSV writer built on it against ``csv.writer``."""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landaulab import _floattext as ft
from landaulab import cli

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _reference(values, width: int) -> bytes:
    """repr of each value, then "," or, after every width-th, "\r\n"."""
    separators = itertools.cycle([","] * (width - 1) + ["\r\n"])
    return "".join(map(str.__add__, map(repr, values.tolist()),
                       separators)).encode()


def _assert_reprs(values, width: int = 1):
    values = np.asarray(values, np.float64)
    got = ft.join_reprs(values, width)
    if got != _reference(values, width):
        texts = got.decode().replace("\r\n", ",").split(",")
        wrong = [(x, text) for x, text in zip(values.tolist(), texts)
                 if repr(x) != text]
        pytest.fail(f"{len(wrong)} of {len(values)} differ from repr, "
                    f"first (value, text): {wrong[:5]}")


def test_fixed_point_logarithms_are_exact():
    for e in range(-1200, 1201):
        k = ft._flog10pow2(e)
        assert Fraction(10) ** k <= Fraction(2) ** e < Fraction(10) ** (k + 1)
        k = ft._flog10_three_quarters_pow2(e)
        x = Fraction(3, 4) * Fraction(2) ** e
        assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1)
        k = ft._flog2pow10(e)
        assert Fraction(2) ** k <= Fraction(10) ** e < Fraction(2) ** (k + 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=40),
       st.integers(1, 5))
def test_every_float_reads_as_its_repr(values, width):
    _assert_reprs(values, width)


def test_a_million_random_bit_patterns_read_as_their_repr():
    rng = np.random.default_rng(26)
    for _ in range(123):
        bits = rng.integers(0, 2 ** 64, 8192, dtype=np.uint64,
                            endpoint=False)
        _assert_reprs(bits.view(np.float64))


def _edge_floats() -> list[float]:
    """Every power of two and of ten a double holds, each with its two
    neighbours; repr's switches between notations; the extremes."""
    centres = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    centres += [float(f"1e{e}") for e in range(-323, 309)]
    centres += [1e-5, 1e-4, 1e16, 2.0 ** 53, 1.7976931348623157e308,
                5e-324, 2.2250738585072014e-308]
    values = []
    for x in centres:
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    values += [2.0 ** 53 + 2, 2.0 ** 53 - 1, 0.0, math.inf, math.nan]
    return values + [-x for x in values]


def test_edge_floats_read_as_their_repr():
    values = _edge_floats()
    assert len(values) > 16000
    _assert_reprs(values, 3)


def test_small_subnormals_and_short_decimals_read_as_their_repr():
    # the subnormals whose shortest decimal has one to four digits
    _assert_reprs(np.arange(1, 20000, dtype=np.uint64).view(np.float64))
    rng = np.random.default_rng(7)
    for digits in range(1, 18):
        mantissas = rng.integers(1, 10 ** digits, 300, endpoint=False)
        exponents = rng.integers(-330, 310, 300)
        _assert_reprs([float(f"{m}e{e}")
                       for m, e in zip(mantissas, exponents)])
    for scale in 10.0 ** np.arange(-6, 18):
        _assert_reprs(rng.standard_normal(500) * scale, 7)


def _csv_reference(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _awkward_floats(rng, n):
    """Floats over 40 decades, with zeros, infs, nans and the smallest
    subnormal mixed in."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    values[::97] = np.resize([math.inf, -math.inf, math.nan, 0.0, -0.0,
                              5e-324], len(values[::97]))
    return values


@pytest.mark.parametrize("ncols", [1, 9])
def test_csv_writer_streams_array_tables_across_chunks(tmp_path, ncols):
    step = cli._CSV_CHUNK // ncols
    rng = np.random.default_rng(ncols)
    header = [f"c{j}" for j in range(ncols)]
    for nrows in (0, 1, step - 1, step, step + 1, 2 * step + 1):
        table = _awkward_floats(rng, nrows * ncols).reshape(nrows, ncols)
        out = tmp_path / "out.csv"
        cli._write_csv(str(out), header, table)
        assert out.read_bytes() == _csv_reference(
            tmp_path / "ref.csv", header, table.tolist()), nrows


def test_csv_writer_streams_row_tables_across_chunks(tmp_path):
    header = ["basis", "re", "im", "name"]
    step = cli._CSV_CHUNK // len(header)
    rng = np.random.default_rng(3)
    for nrows in (0, 1, step - 1, step, step + 1):
        values = _awkward_floats(rng, 2 * nrows).tolist()
        rows = [("fock", values[2 * i], values[2 * i + 1], f"n{i}")
                for i in range(nrows)]
        out = tmp_path / "out.csv"
        cli._write_csv(str(out), header, iter(rows))
        assert out.read_bytes() == _csv_reference(
            tmp_path / "ref.csv", header, rows), nrows
