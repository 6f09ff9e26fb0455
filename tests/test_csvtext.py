"""The columnar CSV writer against ``repr``: every float cell must be the
same bytes as Python's shortest round-trip ``repr``."""

import io
import math
import subprocess
import sys

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
