"""The columnar CSV writer against ``repr``: every float cell must be the
same bytes as Python's shortest round-trip ``repr``."""

import io
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaspec import csvtext
from polyaspec.csvtext import write_columns


def cells(values) -> list[str]:
    """One float64 column through the writer, as a list of cells."""
    buf = io.StringIO()
    write_columns(buf, ["x"], [np.asarray(values, dtype=np.float64)])
    return buf.getvalue().split("\n")[1:-1]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert cells(values) == [repr(v) for v in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_bit_patterns_match_repr(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_floats_match_repr(values):
    assert_repr(values)


def _decimal_boundaries() -> list[float]:
    """Doubles whose rounding interval ends on a short decimal d 10^m:
    the interval is closed when the significand is even, so repr is that
    decimal for even significands (1e+23) and not for odd ones."""
    out = []
    for m in range(16, 40):
        for d in range(1, 100, 2):
            # d 5^m = 2c + 1 puts d 10^m halfway between c 2^(m+1) and the next double
            c = (d * 5**m - 1) // 2
            if d * 5**m % 2 and 2**52 <= c < 2**53:
                for cc in (c, c + 1):
                    out.append(math.ldexp(cc, m + 1))
    return out


def test_fixed_sweep_matches_repr():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    sweep = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]
    sweep.append(np.arange(1, 5000, dtype=np.uint64).view(np.float64))  # smallest subnormals
    sweep.append(np.array([2.0**-1022, np.nextafter(2.0**-1022, 0), 2.2250738585072014e-308,
                           np.finfo(float).max, 5e-324]))
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 0.0001, 0.00011, 9.999999999999999e-05,
                      9999999999999998.0, 1e16 - 2, 123456789012345.6, 1234567890123456.8,
                      0.1, 0.5, 1.0, 10.0, 100.0, 1e22, 1e23, 2e23, 1 / 3, 2 / 3])
    sweep += [np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)]
    sweep.append(np.array(_decimal_boundaries()))
    values = np.concatenate(sweep)
    assert len(_decimal_boundaries()) > 10
    assert_repr(np.concatenate([values, -values]))


def test_specials_and_signs():
    assert cells([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.5, -1.5]) == [
        "0.0", "-0.0", "inf", "-inf", "nan", "nan", "1.5", "-1.5"]
    assert cells([1e16, 1e-5, 1e-4, 1e15, 5e-324, 1.7976931348623157e308]) == [
        "1e+16", "1e-05", "0.0001", "1000000000000000.0", "5e-324", "1.7976931348623157e+308"]


def test_integer_columns_and_blocks(monkeypatch):
    # small blocks, so that rows cross several of them and the last is short
    monkeypatch.setattr(csvtext, "_BLOCK", 7)
    rng = np.random.default_rng(5)
    ints = np.concatenate([rng.integers(-2**63, 2**63 - 1, 40, dtype=np.int64),
                           np.array([0, -1, 9999, 10000, -10**18, 2**63 - 1, -2**63])])
    small = rng.integers(1, 40, ints.size).astype(np.int32)
    floats = rng.standard_normal(ints.size) * 10.0 ** rng.integers(-30, 30, ints.size)
    buf = io.StringIO()
    write_columns(buf, ["a", "b", "c", "d"], [floats, ints, small, floats[::-1]])
    want = "a,b,c,d\n" + "".join(f"{a!r},{b},{c},{d!r}\n" for a, b, c, d in zip(
        floats.tolist(), ints.tolist(), small.tolist(), floats[::-1].tolist()))
    assert buf.getvalue() == want


#: the longest cells, 23 and 24 characters, both signs, and other long ones
_LONGEST = [-0.00012345678901234567, -1.2345678901234567e-308, 0.00012345678901234567,
            1.2345678901234567e-308, -1234567890123456.8, -9.876543210987654e+123]


def _table_text(columns) -> str:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in zip(*columns))


@pytest.mark.parametrize("block", [7, 12, 1 << 13])
def test_float_runs_across_blocks(monkeypatch, block):
    # four float columns of widths that change from block to block, the
    # longest cells among them, and rows that cross block boundaries
    monkeypatch.setattr(csvtext, "_BLOCK", block)
    rng = np.random.default_rng(block)
    n = 101
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 20, n) for _ in range(4)]
    columns[1][::9] = np.resize(_LONGEST, columns[1][::9].size)
    columns[2][50:] = rng.integers(0, 9, n - 50)  # short cells: narrower blocks
    columns[3][::13] = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-4, 1e16]
    buf = io.StringIO()
    write_columns(buf, ["a", "b", "c", "d"], columns)
    assert buf.getvalue() == "a,b,c,d\n" + _table_text([c.tolist() for c in columns])


@pytest.mark.parametrize("block", [5, 16])
def test_longest_cells_mixed_with_integer_columns(monkeypatch, block):
    monkeypatch.setattr(csvtext, "_BLOCK", block)
    floats = np.array(_LONGEST * 4)
    ints = np.arange(floats.size, dtype=np.int64) * -(10**17) + 7
    columns = [floats, ints, floats[::-1].copy(), -floats, ints[::-1].copy() // 3]
    buf = io.StringIO()
    write_columns(buf, list("abcde"), columns)
    want = [[float(v) for v in floats], ints.tolist(), floats[::-1].tolist(),
            (-floats).tolist(), (ints[::-1] // 3).tolist()]
    assert buf.getvalue() == "a,b,c,d,e\n" + _table_text(want)


def test_scratch_memory_of_a_riesz_table():
    # the riesz --two-term table of the 7.3 x 5.1 Dirichlet rectangle: 7014
    # rows, 4 float columns; the layout of 48 bytes per cell peaked at 1.78
    # MB of scratch, however many blocks
    from polyaspec import box_meta, box_spectrum, riesz

    stream = box_spectrum([7.3, 5.1], "dirichlet", 2400.0 * 1.0001)
    scan = riesz.two_term_riesz_scan(stream, box_meta([7.3, 5.1], "dirichlet"), 1.0, 2400.0)
    columns = list(scan.points.T)
    assert len(columns[0]) > 3 * csvtext._BLOCK // 4

    class Sink:
        def write(self, text):
            pass

    sink = Sink()
    write_columns(sink, ["lambda", "riesz", "bound", "margin"], columns)  # tables built
    tracemalloc.start()
    try:
        write_columns(sink, ["lambda", "riesz", "bound", "margin"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.78 * 2**20


@pytest.mark.parametrize("column", [
    [2**70, True, -0], (0.1, 2.5, 7), np.array([True, False, True]),
    np.array([2**64 - 1, 0, 1], np.uint64), np.array([1, "x", 2.5], object),
    np.zeros((3, 1)), np.array(["a", "b", "c"])])
def test_other_columns_are_value_errors(column):
    buf = io.StringIO()
    with pytest.raises(ValueError, match="1-D float or integer array"):
        write_columns(buf, ["p", "q"], [np.zeros(3), column])
    assert buf.getvalue() == ""


def test_shapes_are_checked():
    buf = io.StringIO()
    write_columns(buf, ["a", "b"], [np.array([]), np.array([], np.int64)])
    assert buf.getvalue() == "a,b\n"
    with pytest.raises(ValueError):
        write_columns(io.StringIO(), ["a", "b"], [np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError):
        write_columns(io.StringIO(), ["a"], [np.zeros(2), np.zeros(2)])


def test_tables_are_built_on_first_use():
    # the CLI loads the writer only to write CSV, and the writer builds its
    # tables only to format
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, polyaspec.cli; assert 'polyaspec.csvtext' not in sys.modules;"
         " import polyaspec.csvtext as c;"
         " assert c._tables.cache_info().currsize == 0, 'tables built at import'"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
