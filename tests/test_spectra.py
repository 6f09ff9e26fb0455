import csv
import functools
import io
import itertools
import json
import math
import re
import sys
import warnings
from collections import Counter
from fractions import Fraction
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyaspec import (
    CoverageError,
    DomainError,
    ModeError,
    ValidationError,
    box_meta,
    box_spectrum,
    interval_spectrum,
    product_spectrum,
    sphere2_spectrum,
    stream_from_csv,
    stream_from_json_dict,
    stream_to_csv,
    stream_to_json_dict,
    tabulated_spectrum,
    triangle_neumann_spectrum,
)
from polyaspec import spectra
from polyaspec.spectra import (
    _INT64_GUARD,
    DomainMeta,
    EigenvalueStream,
    _stream_from_exact,
)

PI2 = math.pi ** 2
TRI_FIRST_NONZERO = 16.0 * PI2 / 9.0


# ---------------------------------------------------------------------------
# interval


def test_interval_dirichlet_unit():
    s = interval_spectrum(1, "dirichlet", 50)
    assert np.allclose(s.values, [PI2, 4 * PI2])
    assert list(s.multiplicities) == [1, 1]
    assert s.index_origin == 1


def test_interval_neumann_zero_mode_only():
    s = interval_spectrum(1, "neumann", 1)
    assert list(s.values) == [0.0]
    assert s.index_origin == 0


def test_interval_pi_over_24_is_exact_integers():
    s = interval_spectrum("pi/24", "dirichlet", 1e4)
    assert list(s.values) == [576.0, 2304.0, 5184.0, 9216.0]
    assert s.exact and s.pi_power == 0
    assert s.exact_nums.tolist() == [576, 2304, 5184, 9216] and s.exact_den == 1


def test_interval_float_length_is_inexact():
    s = interval_spectrum(0.1308996938995747, "dirichlet", 1e4)
    assert not s.exact


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_interval_rejects_nonpositive_length(bad):
    with pytest.raises(DomainError):
        interval_spectrum(bad, "dirichlet", 10.0)


@pytest.mark.parametrize("a, bc, cutoff", [
    (math.inf, "dirichlet", 10.0),
    (math.nan, "neumann", 10.0),
    (1e-300, "dirichlet", 10.0),  # pi**2 / a**2 past float range
    (1e-300, "neumann", 10.0),
    (1e300, "dirichlet", 1e-300),  # an exact length whose pi**2 / a**2 underflows to 0
    ("1/" + "1" * 170, "dirichlet", 10.0),
    ("1" * 400, "neumann", 10.0),  # the length itself past float range
])
def test_interval_rejects_lengths_past_float_range(a, bc, cutoff):
    with pytest.raises(DomainError):
        interval_spectrum(a, bc, cutoff)
    with pytest.raises(DomainError):
        box_spectrum([1, a], bc, cutoff)
    with pytest.raises(DomainError):
        box_meta([a], bc)


def test_exact_denominator_past_float_range_is_a_domain_error():
    # pi**2 / den raised a bare OverflowError in the generators' stream tail
    # and in product_spectrum; the lengths themselves are fine floats
    with pytest.raises(DomainError, match="1329 bits"):
        interval_spectrum(Fraction(10 ** 200 + 1, 10 ** 200), "dirichlet", 100.0)
    factors = [interval_spectrum(a, "dirichlet", 1e-296)
               for a in (Fraction(10 ** 150, 3), Fraction(7 ** 178, 2))]
    assert all(f.exact and f.values.size for f in factors)
    with pytest.raises(DomainError, match="1996 bits"):
        product_spectrum(*factors, 1e-296)


@pytest.mark.parametrize("a", [1e12, 1e100])
def test_interval_mode_count_is_capped(a):
    # 1e12 asked numpy for 7.3 TiB (MemoryError), 1e100 for an array past its
    # size limit (a bare ValueError)
    with pytest.raises(DomainError, match="_MAX_MODES"):
        interval_spectrum(a, "dirichlet", 10.0)
    with pytest.raises(DomainError, match="_MAX_MODES"):
        box_spectrum([1, a], "neumann", 10.0)


@pytest.mark.parametrize("cutoff", [1e17, 1e300, math.inf])
def test_sphere_and_triangle_sizes_are_capped(cutoff):
    # inf raised a bare OverflowError, 1e300 numpy's "Maximum allowed size exceeded"
    with pytest.raises(DomainError, match="_MAX_MODES"):
        sphere2_spectrum(cutoff)
    with pytest.raises(DomainError, match="_MAX_MODES"):
        triangle_neumann_spectrum(cutoff)


@pytest.mark.parametrize("sides, bc, held", [
    ([1.1, 1.2], "dirichlet", False),      # float sums
    (["1/3", "2/7"], "neumann", False),    # sparse exact sums
    ([1, 1], "dirichlet", True),           # dense exact sums, counted in slots
])
def test_product_pair_count_is_capped(monkeypatch, sides, bc, held):
    # float and sparse exact products held every pair sum at once, with no
    # bound: the float box [1.1, 1.2, 1.3] covering k_max 1e8 forms 1.2e8
    # sums, about 5 GiB with their multiplicities and the sort copy
    factors = [interval_spectrum(a, bc, 1e4) for a in sides]
    whole = product_spectrum(*factors, 1e4)
    monkeypatch.setattr(spectra, "_MAX_MODES", whole.total_count - 1)
    if held:
        assert product_spectrum(*factors, 1e4).total_count == whole.total_count
    else:
        with pytest.raises(DomainError, match="_MAX_MODES"):
            product_spectrum(*factors, 1e4)


def test_interval_rejects_nonpositive_cutoff():
    with pytest.raises(DomainError):
        interval_spectrum(1.0, "dirichlet", 0.0)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.2, 5.0), lam_top=st.floats(5.0, 500.0),
       bc=st.sampled_from(["dirichlet", "neumann"]))
def test_interval_matches_brute_force(a, lam_top, bc):
    s = interval_spectrum(a, bc, lam_top)
    start = 1 if bc == "dirichlet" else 0
    brute = [l * l * PI2 / a ** 2 for l in range(start, 200)
             if l * l * PI2 / a ** 2 < lam_top]
    # evaluation order may differ by one ulp between the exact and naive paths
    assert len(s.values) == len(brute)
    assert np.allclose(s.values, brute, rtol=1e-14, atol=0.0)
    assert all(m == 1 for m in s.multiplicities)


# ---------------------------------------------------------------------------
# box


def test_box_neumann_side10_lattice_counts():
    s = box_spectrum([10, 10], "neumann", PI2 / 100 * 5 + 1e-9)
    expected = [(0.0, 1), (PI2 / 100, 2), (2 * PI2 / 100, 1),
                (4 * PI2 / 100, 2), (5 * PI2 / 100, 2)]
    got = list(s.entries())
    assert [m for _, m in got] == [m for _, m in expected]
    assert np.allclose([v for v, _ in got], [v for v, _ in expected])


def test_box_single_side_equals_interval():
    sb = box_spectrum([1], "dirichlet", 300.0)
    si = interval_spectrum(1, "dirichlet", 300.0)
    assert list(sb.values) == list(si.values)
    assert list(sb.multiplicities) == list(si.multiplicities)
    assert np.array_equal(sb.exact_nums, si.exact_nums) and sb.exact_den == si.exact_den


def test_box_unit_square_first_mode_only():
    s = box_spectrum([1, 1], "dirichlet", 3 * PI2)
    assert list(s.entries()) == [(2 * PI2, 1)]


@pytest.mark.parametrize("sides, bc, cutoff", [
    pytest.param([], "dirichlet", 10.0, id="no-sides"),
    pytest.param([1, -2.0], "dirichlet", 10.0, id="negative-side"),
    pytest.param(["3/2", 0], "neumann", 10.0, id="zero-side"),
    pytest.param([1, 1], "closed", 10.0, id="closed-bc"),
    pytest.param([1, 1], "neumann", 0.0, id="zero-cutoff"),
    pytest.param([1, 1], "dirichlet", -5.0, id="negative-cutoff"),
])
def test_box_rejects_empty_sides(sides, bc, cutoff):
    with pytest.raises(DomainError):
        box_spectrum(sides, bc, cutoff)


def test_box_multiplicity_aggregation_brute_force():
    cutoff = 200.0
    s = box_spectrum([1, 2], "neumann", cutoff)
    table = {}
    for m in range(0, 20):
        for n in range(0, 40):
            v = PI2 * (m * m + n * n / 4.0)
            if v < cutoff:
                table[round(v, 9)] = table.get(round(v, 9), 0) + 1
    assert sorted(table.keys()) == [round(v, 9) for v in s.values]
    assert [table[round(v, 9)] for v in s.values] == list(s.multiplicities)


def test_box_irrational_sides_take_float_path():
    s = box_spectrum([math.sqrt(2), 1.3217], "dirichlet", 100.0)
    assert not s.exact
    assert np.all(np.diff(s.values) > 0)


# ---------------------------------------------------------------------------
# sphere


def test_sphere_low_cutoffs():
    s = sphere2_spectrum(6)
    assert list(s.entries()) == [(0.0, 1), (2.0, 3)]
    assert s.count(6.0) == 4
    assert list(sphere2_spectrum(0.5).entries()) == [(0.0, 1)]
    assert sphere2_spectrum(43).count(43.0) == 49


def test_sphere_counting_identity_k_up_to_100():
    s = sphere2_spectrum(102 * 103)
    for k in range(0, 101):
        lam = k * (k + 1)
        assert s.count(float(lam)) == k * k
        assert s.count(lam + 1e-9) == (k + 1) ** 2


# ---------------------------------------------------------------------------
# triangle


def _sixths_lattice(limit_q):
    """Integer pairs (m, n) with m^2 + n^2 - mn < limit_q over the whole
    square [-2 sqrt(limit_q), 2 sqrt(limit_q)]^2, split into the exceptional
    lines (n = 2m, m = 2n, n = -m) and the rest with 3 | (m + n); returns the
    quadratic-form values of each part."""
    bound = math.ceil(2.0 * math.sqrt(max(limit_q, 1.0)))
    m, n = np.meshgrid(np.arange(-bound, bound + 1, dtype=np.int64),
                       np.arange(-bound, bound + 1, dtype=np.int64), indexing="ij")
    q = m * m + n * n - m * n
    inside = q.astype(float) < limit_q
    special = (n == 2 * m) | (m == 2 * n) | (n == -m)
    regular = inside & ~special & ((m + n) % 3 == 0)
    return q[regular], q[inside & special]


_SIXTHS_SCALE = 16.0 * PI2 / 27.0


def _sixths_count(lam):
    """The triangle's Neumann counting function as a weighted lattice count:
    1/6 per regular pair, 1/3 per pair on an exceptional line, plus 2/3."""
    q_regular, q_special = _sixths_lattice(27.0 * lam / (16.0 * PI2) + 1.0)
    sixths = (int(np.sum(q_regular * _SIXTHS_SCALE < lam))
              + 2 * int(np.sum(q_special * _SIXTHS_SCALE < lam)) + 4)
    assert sixths % 6 == 0, f"non-integer count {sixths}/6 at lambda={lam}"
    return sixths // 6


def _sixths_spectrum(cutoff):
    """The triangle's Neumann stream with each multiplicity the weighted
    number of lattice pairs at its value, assembled in sixths."""
    q_regular, q_special = _sixths_lattice(27.0 * cutoff / (16.0 * PI2) + 1.0)
    # the constant term 2/3 = 4/6 joins the zero mode
    q, where = np.unique(np.concatenate(([0], q_regular, q_special)), return_inverse=True)
    sixths = np.zeros(q.size, np.int64)
    np.add.at(sixths, where,
              np.concatenate(([4], np.full(q_regular.size, 1), np.full(q_special.size, 2))))
    assert not np.any(sixths % 6), "non-integer multiplicity"
    keep = q * _SIXTHS_SCALE < cutoff
    return _stream_from_exact(16 * q[keep], sixths[keep] // 6, 27, 2, cutoff)


def test_triangle_count_at_one():
    assert triangle_neumann_spectrum(2.0).count(1.0) == 1
    assert _sixths_count(1.0) == 1


def test_triangle_first_nonzero_eigenvalue():
    s = triangle_neumann_spectrum(2 * TRI_FIRST_NONZERO)
    before = s.count(TRI_FIRST_NONZERO)
    after = s.count(TRI_FIRST_NONZERO + 1e-6)
    assert before == 1
    assert after == 3  # the zero mode and the pairs (1, 0), (0, 1)


def test_triangle_flat_below_first_nonzero():
    s = triangle_neumann_spectrum(TRI_FIRST_NONZERO)
    for lam in (1e-6, 0.5, 5.0, TRI_FIRST_NONZERO * 0.999):
        assert s.count(lam) == 1


def test_triangle_weyl_ratio_at_1e6():
    lam = 1e6
    target = math.sqrt(3) / (16 * math.pi)
    assert abs(triangle_neumann_spectrum(lam).count(lam) / lam - target) / target < 0.02


def test_triangle_rejects_nonpositive():
    with pytest.raises(DomainError):
        triangle_neumann_spectrum(0.0)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.floats(0.5, 400.0), st.floats(0.5, 400.0)))
def test_triangle_counting_nondecreasing_integer(lams):
    lo, hi = sorted(lams)
    s = triangle_neumann_spectrum(400.0)
    n_lo, n_hi = s.count(lo), s.count(hi)
    assert isinstance(n_lo, int) and isinstance(n_hi, int)
    assert n_lo <= n_hi


def test_triangle_stream_agrees_with_closed_form(rng):
    cutoff = 500.0
    stream = triangle_neumann_spectrum(cutoff)
    for lam in rng.uniform(0.1, cutoff, 50):
        assert stream.count(lam) == _sixths_count(lam)


def _lattice_cutoff(q, form, step):
    """The triangle value at q = m^2 + mn + n^2, as 16 pi^2 q / 9 or as the
    stream computes it, or one of its float neighbours."""
    value = 16.0 * PI2 * q / 9.0 if form == "closed" else 48 * q * (PI2 / 27)
    return value if step is None else math.nextafter(value, step)


TRIANGLE_CUTOFFS = st.one_of(
    st.floats(0.01, 3e4),
    st.builds(_lattice_cutoff, st.integers(1, 1500), st.sampled_from(["closed", "stream"]),
              st.sampled_from([None, -math.inf, math.inf])),
    # the composite-count bench (the square-triangle bundle's 1e4 is an example)
    st.floats(3000.0, 6000.0).map(lambda c: c * 1.0001),
)


@settings(max_examples=200, deadline=None)
@given(cutoff=TRIANGLE_CUTOFFS)
@example(cutoff=1e4 * 1.0001)
@example(cutoff=_lattice_cutoff(3, "stream", None))
@example(cutoff=_lattice_cutoff(7, "closed", math.inf))
def test_triangle_matches_sixths_reference(cutoff):
    s, ref = triangle_neumann_spectrum(cutoff), _sixths_spectrum(cutoff)
    assert s.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(s.multiplicities, ref.multiplicities)
    assert np.array_equal(s.exact_nums, ref.exact_nums)
    assert (s.exact_den, s.pi_power, s.cutoff) == (ref.exact_den, ref.pi_power, ref.cutoff)


def test_triangle_stream_is_exact_pi_squared_scale():
    stream = triangle_neumann_spectrum(100.0)
    assert stream.exact and stream.pi_power == 2
    assert stream.exact_nums[0] == 0
    assert Fraction(int(stream.exact_nums[1]), stream.exact_den) == Fraction(16, 9)  # times pi^2


# ---------------------------------------------------------------------------
# product


def test_product_thin_sphere_head():
    s1 = interval_spectrum("pi/24", "dirichlet", 600)
    s2 = sphere2_spectrum(600)
    p = product_spectrum(s1, s2, 600)
    assert list(p.entries()) == [(576.0, 1), (578.0, 3), (582.0, 5), (588.0, 7), (596.0, 9)]
    assert p.exact


def test_product_zero_identity():
    zero = tabulated_spectrum([(0, 1)], 1e3, DomainMeta(1, 1.0, "neumann"))
    s2 = sphere2_spectrum(1e3)
    p = product_spectrum(zero, s2, 400.0)
    t = s2.truncated(400.0)
    assert list(p.values) == list(t.values)
    assert list(p.multiplicities) == list(t.multiplicities)
    assert s2.truncated(s2.cutoff) is s2 and t.truncated(t.cutoff) is t


def test_product_interval_squared_is_square():
    s1 = interval_spectrum(1, "dirichlet", 9 * PI2)
    p = product_spectrum(s1, s1, 9 * PI2)
    assert np.allclose(p.values, [2 * PI2, 5 * PI2, 8 * PI2])
    assert list(p.multiplicities) == [1, 2, 1]
    direct = box_spectrum([1, 1], "dirichlet", 9 * PI2)
    assert list(p.values) == list(direct.values)
    assert list(p.multiplicities) == list(direct.multiplicities)


def test_product_requires_covering_cutoffs():
    s1 = interval_spectrum(1, "dirichlet", 10.0)
    s2 = sphere2_spectrum(100.0)
    with pytest.raises(CoverageError):
        product_spectrum(s1, s2, 50.0)


def _multiset(stream):
    return [(round(v, 10), int(m)) for v, m in stream.entries()]


def test_product_commutative_and_associative():
    cutoff = 120.0
    a = interval_spectrum(1.7, "neumann", cutoff)
    b = sphere2_spectrum(cutoff)
    c = interval_spectrum(0.9, "dirichlet", cutoff)
    ab = product_spectrum(a, b, cutoff)
    ba = product_spectrum(b, a, cutoff)
    assert _multiset(ab) == _multiset(ba)
    ab_c = product_spectrum(product_spectrum(a, b, cutoff), c, cutoff)
    a_bc = product_spectrum(a, product_spectrum(b, c, cutoff), cutoff)
    assert _multiset(ab_c) == _multiset(a_bc)


def test_product_counting_matches_double_loop(rng):
    cutoff = 300.0
    s1 = interval_spectrum(1.3, "dirichlet", cutoff)
    s2 = sphere2_spectrum(cutoff)
    p = product_spectrum(s1, s2, cutoff)
    v1, v2 = s1.expanded(), s2.expanded()
    pair_sums = np.sort((v1[:, None] + v2[None, :]).ravel())
    for lam in rng.uniform(1.0, cutoff, 200):
        assert p.count(lam) == int(np.searchsorted(pair_sums, lam, side="left"))


def test_product_mixed_scales_is_inexact():
    s1 = interval_spectrum(1, "dirichlet", 100.0)  # exact in units of pi^2
    s2 = sphere2_spectrum(100.0)                   # exact integers
    p = product_spectrum(s1, s2, 100.0)
    assert s1.exact and s2.exact and not p.exact


# ---------------------------------------------------------------------------
# tabulated + serialization


def test_tabulated_matches_sphere():
    t = tabulated_spectrum([(0, 1), (2, 3)], 6.0)
    s = sphere2_spectrum(6.0)
    assert list(t.values) == list(s.values)
    assert list(t.multiplicities) == list(s.multiplicities)
    assert t.exact


def test_tabulated_rejects_duplicates():
    with pytest.raises(ValidationError):
        tabulated_spectrum([(1, 1), (1, 1)], 10.0)


def test_tabulated_rejects_unsorted_and_negative():
    with pytest.raises(ValidationError):
        tabulated_spectrum([(2, 1), (1, 1)], 10.0)
    with pytest.raises(ValidationError):
        tabulated_spectrum([(-1, 1), (1, 1)], 10.0)


def test_tabulated_empty_is_dirichlet_like():
    t = tabulated_spectrum([], 1.0)
    assert t.index_origin == 1
    assert t.count(1.0) == 0
    with pytest.raises(ModeError):
        tabulated_spectrum([], 1.0, DomainMeta(1, 1.0, "neumann"))


def test_tabulated_bc_mismatch():
    with pytest.raises(ModeError):
        tabulated_spectrum([(1, 1)], 10.0, DomainMeta(2, 1.0, "neumann"))
    with pytest.raises(ModeError):
        tabulated_spectrum([(0, 1)], 10.0, DomainMeta(2, 1.0, "dirichlet"))


@pytest.mark.parametrize("volume, surface_area", [
    (math.inf, None), (math.nan, None), (0.0, None), (1.0, math.inf), (1.0, 0.0)])
def test_domain_meta_needs_finite_positive_sizes(volume, surface_area):
    with pytest.raises(DomainError):
        DomainMeta(2, volume, "neumann", surface_area=surface_area)


def test_csv_round_trip(rng):
    s = box_spectrum([1.1, 2.3], "neumann", 500.0)
    buf = io.StringIO()
    stream_to_csv(s, buf)
    # the text of the per-row writer, each value by repr
    assert buf.getvalue() == "value,multiplicity\n" + "".join(
        f"{v!r},{m}\n" for v, m in s.entries())
    buf.seek(0)
    back = stream_from_csv(buf, cutoff=s.cutoff)
    assert list(back.values) == list(s.values)
    assert list(back.multiplicities) == list(s.multiplicities)
    for lam in rng.uniform(0.5, 500.0, 100):
        assert back.count(lam) == s.count(lam)


def test_csv_rejects_bad_header():
    with pytest.raises(ValidationError):
        stream_from_csv(io.StringIO("a,b\n1,2\n"))


@pytest.mark.parametrize("lines", [io.StringIO, lambda text: [text]], ids=["stringio", "list"])
def test_csv_bare_cr_header_is_validation_error(lines):
    # a StringIO splits only on LF, so csv.reader sees a CR inside the line
    with pytest.raises(ValidationError):
        stream_from_csv(lines("value,multiplicity\r1.0,1\r"))


def test_json_round_trip():
    s = sphere2_spectrum(50.0)
    d = stream_to_json_dict(s)
    assert set(d) == {"cutoff", "exact", "entries", "exact_nums", "exact_den", "pi_power"}
    back = stream_from_json_dict(d)
    assert list(back.values) == list(s.values)
    assert list(back.multiplicities) == list(s.multiplicities)


@pytest.mark.parametrize("make", [lambda: sphere2_spectrum(50.0),
                                  lambda: triangle_neumann_spectrum(300.0)],
                         ids=["sphere2", "triangle"])
def test_json_round_trip_keeps_exactness(make):
    s = make()
    back = stream_from_json_dict(json.loads(json.dumps(stream_to_json_dict(s))))
    assert back.exact and s.exact
    assert back.pi_power == s.pi_power
    assert np.array_equal(back.exact_nums, s.exact_nums)
    assert back.exact_den == s.exact_den
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.multiplicities, s.multiplicities)


def test_json_float_only_dict_loads_inexact():
    s = box_spectrum([1.1, 2.3], "neumann", 100.0)
    d = stream_to_json_dict(s)
    assert set(d) == {"cutoff", "exact", "entries"}
    back = stream_from_json_dict(d)
    assert not back.exact
    assert np.array_equal(back.values, s.values)


@pytest.mark.parametrize("key,bad", [("exact_den", 0), ("exact_den", 1.5),
                                     ("exact_nums", [0, 2]),
                                     ("exact_nums", [0.0, 2.5, 6.0, 12.0, 20.0, 30.0, 42.0]),
                                     ("exact_nums", [42, 30, 20, 12, 6, 2, 0]),
                                     # increasing integers that contradict the entries
                                     ("exact_nums", [0, 2, 6, 12, 20, 30, 43]),
                                     ("exact_nums", [0, 2, 6, 12, 20, 30, 2 ** 70]),
                                     ("pi_power", 0.5)])
def test_json_rejects_bad_exact_fields(key, bad):
    d = stream_to_json_dict(sphere2_spectrum(50.0))
    with pytest.raises(ValidationError):
        stream_from_json_dict({**d, key: bad})


@pytest.mark.parametrize("make", [lambda: sphere2_spectrum(50.0),
                                  lambda: triangle_neumann_spectrum(300.0)],
                         ids=["sphere2", "triangle"])
def test_csv_is_float_only_but_keeps_counts(make):
    s = make()
    buf = io.StringIO()
    stream_to_csv(s, buf)
    back = stream_from_csv(io.StringIO(buf.getvalue()), cutoff=s.cutoff)
    assert s.exact and not back.exact
    assert np.array_equal(back.values, s.values)
    lams = np.concatenate([s.values, (s.values[:-1] + s.values[1:]) / 2, [s.cutoff]])
    assert np.array_equal(back.count_many(lams), s.count_many(lams))
    assert np.array_equal(back.count_right_many(s.values), s.count_right_many(s.values))


NAN = math.nan


@pytest.mark.parametrize("values", [[NAN], [NAN, 1.0], [1.0, NAN], [1.0, NAN, 2.0]])
def test_nan_eigenvalues_are_rejected(values):
    # every NaN comparison is false, so ordering and cutoff checks missed these
    with pytest.raises(ValidationError):
        EigenvalueStream(np.array(values), np.ones(len(values), np.int64), 10.0)
    with pytest.raises(ValidationError):
        tabulated_spectrum([(v, 1) for v in values], 10.0)
    rows = "".join(f"{v!r},1\n" for v in values)
    with pytest.raises(ValidationError):
        stream_from_csv(io.StringIO("value,multiplicity\n" + rows))
    with pytest.raises(ValidationError):
        stream_from_csv(io.StringIO("value,multiplicity\n" + rows), cutoff=10.0)
    entries = [[v, 1] for v in values]
    with pytest.raises(ValidationError):
        stream_from_json_dict({"cutoff": 10.0, "exact": False, "entries": entries})
    with pytest.raises(ValidationError):
        stream_from_json_dict(json.loads(json.dumps(
            {"cutoff": 10.0, "exact": False, "entries": entries})))


@pytest.mark.parametrize("rows", ["1.0\n", "1.0,1\n2.0\n", "1.0,1.5\n", "abc,1\n",
                                  "1.0,abc\n", "1.0,2.0\n", ",1\n",
                                  "1.0,99999999999999999999999\n"])
def test_csv_malformed_rows_are_validation_errors(rows):
    with pytest.raises(ValidationError):
        stream_from_csv(io.StringIO("value,multiplicity\n" + rows))


def test_csv_reader_keeps_blank_lines_quotes_and_extra_columns():
    text = 'value,multiplicity,note\n0.0,1,zero\n\n"2.0",3,x\n 6.0 , 5 ,y\n'
    back = stream_from_csv(io.StringIO(text))
    assert back.values.tolist() == [0.0, 2.0, 6.0]
    assert back.multiplicities.tolist() == [1, 3, 5]
    assert back.cutoff == math.nextafter(6.0, math.inf)


def test_tabulated_value_kinds():
    # ints, Fractions and rational strings are exact; one float makes it inexact
    exact = tabulated_spectrum([(0, 1), (Fraction(1, 3), 2), ("5/2", 1)], 10.0)
    assert exact.exact and exact.exact_nums.tolist() == [0, 2, 15] and exact.exact_den == 6
    mixed = tabulated_spectrum([(0, 1), (0.5, 2), ("pi", 1)], 10.0)
    assert not mixed.exact and mixed.values.tolist() == [0.0, 0.5, math.pi]
    floats = tabulated_spectrum([(0.0, 1), (2.0, 3)], 10.0)
    assert not floats.exact and floats.multiplicities.tolist() == [1, 3]
    assert tabulated_spectrum([(1.0, 2.0), (2.0, True)], 10.0).multiplicities.tolist() == [2, 1]


@pytest.mark.parametrize("entries", [[(1.0,)], [(1.0, 1, 1)], [1.0], [(1.0, 1), (2.0,)],
                                     [(1.0, 1.5)], [(1.0, 0)], [(1.0, "x")], [("abc", 1)],
                                     [(1.0, 2 ** 70)], [(2.0, 1), (1.0, 1)],
                                     [(1.0, 1), (1.0, 1)]])
def test_tabulated_rejects_malformed_entries(entries):
    with pytest.raises(ValidationError):
        tabulated_spectrum(entries, 10.0)


_SPECIAL_VALUES = [0.0, 5e-324, 1.5e-320, 2.2250738585072014e-308, 0.1, 1 / 3,
                   0.30000000000000004, 1e16, 2.0 ** 53 + 2, 1.2345678901234567e16, 1e300]


@st.composite
def _float_streams(draw):
    values = draw(st.lists(
        st.one_of(st.sampled_from(_SPECIAL_VALUES),
                  st.floats(0.0, 1e300, allow_subnormal=True),
                  st.floats(1e16, 1e20)),
        max_size=40, unique=True))
    values = sorted(values)
    mults = draw(st.lists(st.integers(1, 2 ** 40), min_size=len(values), max_size=len(values)))
    cutoff = math.nextafter(values[-1], math.inf) if values and values[-1] > 0 else 1.0
    return EigenvalueStream(np.array(values, float), np.array(mults, np.int64), cutoff)


@st.composite
def _exact_streams(draw):
    nums = sorted(draw(st.lists(st.integers(0, 2 ** 70), min_size=1, max_size=30, unique=True)))
    den = draw(st.integers(1, 10 ** 6))
    pi_power = draw(st.integers(-2, 2))
    scale = math.pi ** pi_power / den
    values = [n * scale for n in nums]
    assume(all(a < b for a, b in zip(values, values[1:])))
    mults = draw(st.lists(st.integers(1, 9), min_size=len(nums), max_size=len(nums)))
    cutoff = math.nextafter(values[-1], math.inf) if values[-1] > 0 else 1.0
    return EigenvalueStream(np.array(values), np.array(mults, np.int64), cutoff,
                            nums, den, pi_power)


def _same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == float and a.tobytes() == b.tobytes()


#: exact numerators that numpy reads as float64 when given as a list
_UINT64_NUMS = [0, 2 ** 63]


@settings(max_examples=150, deadline=None)
@given(s=st.one_of(_float_streams(), _exact_streams()))
@example(s=EigenvalueStream(np.array([0.0, 2.0 ** 63]), [1, 1], 2.0 ** 64, _UINT64_NUMS))
def test_csv_and_json_round_trips_keep_values_bit_for_bit(s):
    buf = io.StringIO()
    stream_to_csv(s, buf)
    for cutoff in (s.cutoff, None):
        back = stream_from_csv(io.StringIO(buf.getvalue()), cutoff=cutoff)
        assert _same_floats(back.values, s.values)
        assert back.multiplicities.tolist() == s.multiplicities.tolist()
        assert not back.exact
    back = stream_from_json_dict(json.loads(json.dumps(stream_to_json_dict(s))))
    assert _same_floats(back.values, s.values)
    assert back.multiplicities.tolist() == s.multiplicities.tolist()
    assert back.cutoff == s.cutoff and back.exact == s.exact
    if s.exact:
        assert back.exact_nums.tolist() == s.exact_nums.tolist()
        assert back.exact_nums.dtype == s.exact_nums.dtype
        assert (back.exact_den, back.pi_power) == (s.exact_den, s.pi_power)


def _csv_reference(fp, cutoff=None) -> EigenvalueStream:
    """The row-by-row reader: ``csv.reader`` rows transposed by ``zip`` and
    each column cast from its strings by ``np.array``."""
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["value", "multiplicity"]:
        raise ValidationError("expected header 'value,multiplicity'")
    rows = [row for row in reader if row]
    if min(map(len, rows), default=2) < 2:
        bad = next(row for row in rows if len(row) < 2)
        raise ValidationError(f"CSV row {bad!r} is not a value,multiplicity pair")
    columns = list(zip(*rows))[:2] if rows else [(), ()]
    try:
        values = np.array(columns[0], float)
        mults = np.array(columns[1], np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed CSV value or multiplicity: {exc}") from exc
    if cutoff is None:
        last = float(values[-1]) if values.size else 0.0
        cutoff = math.nextafter(last, math.inf) if last > 0 else 1.0
    return EigenvalueStream(values, mults, cutoff)


#: rows that neither reader accepts
_BAD_ROWS = ["1.0", "  ", "abc,1", "1.0,1.5", "1.0,2.0", ",1", "1.0,", ",", "1.0 2,1",
             "1.0,99999999999999999999999", "1.0,9223372036854775808", "1e5,1e2", "#,1",
             ' "2.0",1', '"1,0",1', "1.0,0", "1.0,-3", "nan,1", "-1.0,1"]


def _cell(draw, text: str) -> str:
    """``text`` as it may stand in a cell: padded, quoted, or both."""
    pad = st.sampled_from(["", " ", "  ", "\t", " \t"])
    left, right = draw(pad), draw(pad)
    kind = draw(st.sampled_from(["plain", "quoted", "padded-quoted", "quoted-padded"]))
    if kind == "quoted":
        return f'"{text}"'
    if kind == "padded-quoted":
        return f'"{left}{text}{right}"'
    if kind == "quoted-padded":
        return f'"{text}"{right}'
    return f"{left}{text}{right}"


@st.composite
def _csv_texts(draw):
    """A ``value,multiplicity`` table as text, with a cutoff or None.

    Values are repr'd doubles, subnormals among them, in increasing order
    (or, now and then, out of order or past the cutoff); multiplicities go
    up to 2^62.  Lines end in LF or CRLF; blank lines, extra columns, ragged
    rows and malformed rows are mixed in."""
    values = sorted(draw(st.lists(
        st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(0.0, 1e300, allow_subnormal=True),
                  st.floats(0.0, 1e-300, allow_subnormal=True)),
        max_size=30, unique=True)))
    if values and draw(st.integers(0, 9)) == 0:
        values = draw(st.permutations(values))
    mults = draw(st.lists(st.integers(1, 2 ** 62), min_size=len(values), max_size=len(values)))
    rows = []
    for v, m in zip(values, mults):
        cells = [_cell(draw, repr(v)), _cell(draw, str(m))]
        cells += draw(st.lists(st.sampled_from(["", "x", "1.5", '"a,b"', " note "]), max_size=2))
        rows.append(",".join(cells))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), "")
    if draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_BAD_ROWS)))
    header = draw(st.sampled_from(["value,multiplicity", " value , multiplicity ",
                                   "value,multiplicity,note"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([header, *rows]) + draw(st.sampled_from([end, ""]))
    top = values[-1] if values else 0.0
    cutoff = draw(st.sampled_from([None, 1.0, math.nextafter(top, math.inf), 2.0 * top + 1.0]))
    return text, cutoff


@settings(max_examples=300, deadline=None)
@given(case=_csv_texts())
@example(case=("value,multiplicity\n5e-324,4611686018427387904\n1e300,1\n", None))
@example(case=('value,multiplicity,note\r\n\r\n "0.5" ,\t7\t,x,y\r\n"1.0", 2\r\n', 3.0))
def test_csv_reader_matches_the_row_by_row_reference(case):
    text, cutoff = case
    try:
        want = _csv_reference(io.StringIO(text), cutoff)
    except ValidationError:
        with pytest.raises(ValidationError):
            stream_from_csv(io.StringIO(text), cutoff)
        return
    got = stream_from_csv(io.StringIO(text), cutoff)
    assert _same_floats(got.values, want.values)
    assert got.multiplicities.tolist() == want.multiplicities.tolist()
    assert got.cutoff == want.cutoff
    # any iterable of lines reads the same
    listed = stream_from_csv(io.StringIO(text).readlines(), cutoff)
    assert _same_floats(listed.values, want.values)


@pytest.mark.parametrize("text", ["value,multiplicity\n", "value,multiplicity",
                                  "value,multiplicity\r\n\r\n\n"])
def test_csv_header_only_is_an_empty_stream_without_a_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = stream_from_csv(io.StringIO(text))
    assert back.values.size == 0 and back.cutoff == 1.0


@pytest.mark.parametrize("row, value, mult", [("1_0.0,1", 10.0, 1), ("1.0,1_0", 1.0, 10)])
def test_csv_digit_separators_are_validation_errors(row, value, mult):
    # float() and int() read Python digit separators; the C reader does not
    text = "value,multiplicity\n" + row + "\n"
    back = _csv_reference(io.StringIO(text))
    assert (back.values.tolist(), back.multiplicities.tolist()) == ([value], [mult])
    with pytest.raises(ValidationError):
        stream_from_csv(io.StringIO(text))


def test_numerators_numpy_reads_as_floats_stay_exact():
    values = np.array([0.0, 2.0 ** 63])
    streams = [
        EigenvalueStream(values, [1, 1], 2.0 ** 64, _UINT64_NUMS),
        tabulated_spectrum([(n, 1) for n in _UINT64_NUMS], 2.0 ** 64),
        stream_from_json_dict({"cutoff": 2.0 ** 64, "entries": [[0.0, 1], [2.0 ** 63, 1]],
                               "exact_nums": _UINT64_NUMS, "exact_den": 1, "pi_power": 0}),
    ]
    for s in streams:
        assert s.exact_nums.dtype == object and s.exact_nums.tolist() == _UINT64_NUMS
    with pytest.raises(ValidationError):
        EigenvalueStream(values, [1, 1], 2.0 ** 64, values)


def test_stream_values_are_immutable():
    s = sphere2_spectrum(10.0)
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_count_above_cutoff_raises():
    s = sphere2_spectrum(10.0)
    with pytest.raises(CoverageError):
        s.count(11.0)


# ---------------------------------------------------------------------------
# exact representation: one denominator per lattice, the int64 guard, a
# Fraction oracle


def test_exact_values_keep_the_given_denominator():
    """A stream keeps the denominator it was given or built over, never
    reduced: 2/4 and 4/4 stay over 4, the interval 3/2 over the 9 of
    4 pi**2 / 9 even when empty or zero-only, and the triangle over 27."""
    s = EigenvalueStream(np.array([0.5, 1.0]), [1, 2], 2.0, np.array([2, 4], dtype=object), 4)
    assert s.exact_nums.dtype == np.int64
    assert s.exact_nums.tolist() == [2, 4] and s.exact_den == 4
    for bc, nums in (("dirichlet", []), ("neumann", [0])):
        s = interval_spectrum("3/2", bc, 0.5)
        assert s.exact_nums.tolist() == nums and (s.exact_den, s.pi_power) == (9, 2)
    s = triangle_neumann_spectrum(100.0)
    assert s.exact_den == 27 and s.exact_nums.tolist()[:2] == [0, 48]


#: interval length whose numerators (2**32 - 1)**2 * l**2 pass _INT64_GUARD
BIG_A = "4294967296pi/4294967295"


def test_overflow_guard_keeps_streams_exact():
    s = interval_spectrum(BIG_A, "dirichlet", 50.0)
    assert s.exact and s.pi_power == 0 and s.exact_den == 2 ** 64
    assert s.exact_nums.dtype == object and s.exact_nums[0] >= _INT64_GUARD
    assert s.exact_nums.tolist() == [(2 ** 32 - 1) ** 2 * l * l
                                     for l in range(1, s.values.size + 1)]
    sphere = sphere2_spectrum(50.0)
    p = product_spectrum(s, sphere, 50.0)
    assert p.exact and p.exact_nums.dtype == object
    coeff = Fraction((2 ** 32 - 1) ** 2, 2 ** 64)
    factors = [[(coeff * l * l, 1) for l in range(1, 8)],
               [(Fraction(k * (k + 1)), 2 * k + 1) for k in range(8)]]
    assert _exact_pairs(p) == _sum_oracle(factors, 50.0, 0)


@pytest.mark.parametrize("sides, bc, dtype", [
    ([BIG_A, "pi"], "dirichlet", object),
    (["1/4294967296", 1], "neumann", np.int64),  # a weight past the guard, mode 0 only
])
def test_overflow_guard_keeps_boxes_exact(sides, bc, dtype):
    box = box_spectrum(sides, bc, 50.0)
    assert box.exact and box.exact_nums.dtype == dtype
    p = product_spectrum(*(interval_spectrum(a, bc, 50.0) for a in sides), 50.0)
    assert box.exact_nums.tolist() == p.exact_nums.tolist()
    assert (box.exact_den, box.pi_power) == (p.exact_den, p.pi_power)


def test_product_factor_past_int64_stays_exact():
    """A zero-only factor scaled to a denominator past int64: the sums are
    taken over Python ints rather than overflowing an int64 array."""
    zero = tabulated_spectrum([(0, 1)], 5.0)
    tiny = tabulated_spectrum([(0, 1), (Fraction(1, 2 ** 64), 2)], 5.0)
    p = product_spectrum(zero, tiny, 5.0)
    assert p.exact and p.exact_nums.tolist() == [0, 1] and p.exact_den == 2 ** 64
    assert p.multiplicities.tolist() == [1, 2]


def _exact_pairs(stream) -> dict:
    """(rational, multiplicity) pairs of an exact stream, away from its cutoff."""
    return {Fraction(n, stream.exact_den): m
            for n, m, v in zip(stream.exact_nums.tolist(), stream.multiplicities.tolist(),
                               stream.values)
            if abs(v - stream.cutoff) > 1e-9 * stream.cutoff}


def _sum_oracle(factors, cutoff: float, pi_power: int) -> dict:
    """Sums of one value per factor, by slow Fraction enumeration: the
    (rational, multiplicity) pairs below the cutoff, in units of pi**pi_power."""
    scale = math.pi ** pi_power
    table = {Fraction(0): 1}
    for factor in factors:
        grown = {}
        for v, m in table.items():
            for w, n in factor:
                if float(v + w) * scale < cutoff * (1 + 1e-9):
                    grown[v + w] = grown.get(v + w, 0) + m * n
        table = grown
    return {v: m for v, m in table.items() if abs(float(v) * scale - cutoff) > 1e-9 * cutoff}


def _interval_factor(p: int, q: int, bc: str, pi_power: int, cutoff: float):
    """Modes of the interval of length p/q (pi_power 2) or p pi/q (pi_power
    0): (l q / p)**2 in units of pi**pi_power."""
    top = int(p / q * math.sqrt(cutoff / math.pi ** pi_power)) + 2
    return [(Fraction((l * q) ** 2, p * p), 1)
            for l in range(0 if bc == "neumann" else 1, top + 1)]


def _length(p: int, q: int, pi_power: int) -> str:
    return f"{p}pi/{q}" if pi_power == 0 else f"{p}/{q}"


LENGTHS = st.tuples(st.integers(1, 4), st.integers(1, 4))
BCS = st.sampled_from(["dirichlet", "neumann"])


@settings(max_examples=40, deadline=None)
@given(sides=st.lists(LENGTHS, min_size=1, max_size=3), pi_power=st.sampled_from([0, 2]),
       bc=BCS, frac=st.floats(0.02, 1.0))
def test_exact_box_matches_fraction_oracle(sides, pi_power, bc, frac):
    cutoff = frac * (150.0 if len(sides) < 3 else 40.0)
    s = box_spectrum([_length(p, q, pi_power) for p, q in sides], bc, cutoff)
    assert s.exact and s.pi_power == pi_power
    factors = [_interval_factor(p, q, bc, pi_power, cutoff) for p, q in sides]
    assert _exact_pairs(s) == _sum_oracle(factors, cutoff, pi_power)


#: a side and its length as a float: a float, p/q or p pi/q
MIXED_SIDES = st.one_of(
    st.floats(0.3, 3.0).map(lambda x: (x, x)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", pq[0] / pq[1])),
    st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
        lambda pq: (f"{pq[0]}pi/{pq[1]}", pq[0] * math.pi / pq[1])),
)


@settings(max_examples=60, deadline=None)
@given(sides=st.lists(MIXED_SIDES, min_size=1, max_size=3), bc=BCS, frac=st.floats(0.05, 1.0))
def test_float_and_mixed_boxes_match_brute_force(sides, bc, frac):
    """Boxes of float sides, or of sides of mixed kinds, against a brute
    float enumeration of mode tuples; the Fraction oracles cover only
    all-exact boxes.  A sum within 1e-9 of the cutoff falls on either side
    by rounding, so such draws are skipped."""
    cutoff = frac * (300.0 if len(sides) < 3 else 60.0)
    s = box_spectrum([side for side, _ in sides], bc, cutoff)
    start = 0 if bc == "neumann" else 1
    axes = [[(l * math.pi / a) ** 2 for l in range(start, int(a * cutoff ** 0.5 / math.pi) + 2)]
            for _, a in sides]
    sums = sorted(map(sum, itertools.product(*axes)))
    assume(all(abs(v - cutoff) > 1e-9 * cutoff for v in sums))
    brute = [v for v in sums if v < cutoff]
    assert s.expanded().size == len(brute)
    assert s.expanded().tolist() == pytest.approx(brute, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(a1=LENGTHS, a2=LENGTHS, pi_power=st.sampled_from([0, 2]), bc1=BCS, bc2=BCS,
       sphere=st.booleans(), swap=st.booleans(), frac=st.floats(0.02, 1.0))
def test_exact_product_matches_fraction_oracle(a1, a2, pi_power, bc1, bc2, sphere, swap, frac):
    cutoff = frac * 150.0
    s1 = interval_spectrum(_length(*a1, pi_power), bc1, cutoff)
    factors = [_interval_factor(*a1, bc1, pi_power, cutoff)]
    if sphere and pi_power == 0:
        s2 = sphere2_spectrum(cutoff)
        factors.append([(Fraction(k * (k + 1)), 2 * k + 1) for k in range(13)])
    else:
        s2 = interval_spectrum(_length(*a2, pi_power), bc2, cutoff)
        factors.append(_interval_factor(*a2, bc2, pi_power, cutoff))
    p = product_spectrum(s2, s1, cutoff) if swap else product_spectrum(s1, s2, cutoff)
    assert p.exact and p.pi_power == pi_power
    assert _exact_pairs(p) == _sum_oracle(factors, cutoff, pi_power)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), top=st.integers(3, 12), bc=BCS, pi_power=st.sampled_from([0, 2]),
       where=st.sampled_from(["below", "above", "past int64"]), delta=st.integers(0, 1000),
       product=st.booleans())
def test_exact_spectra_across_int64_guard(n, top, bc, pi_power, where, delta, product):
    """Boxes and products of n equal sides P/Q, whose largest numerator
    S * Q**2 (S the largest sum of n squared modes <= top) lands just below
    or just above _INT64_GUARD, or past int64 itself, against the slow
    Fraction oracle."""
    start = 0 if bc == "neumann" else 1
    modes = range(start, math.isqrt(top) + 1)
    s_max = max(x for x in map(sum, itertools.product([m * m for m in modes], repeat=n))
                if x <= top)
    q0 = math.isqrt((_INT64_GUARD - 1) // s_max)
    q = {"below": q0 - delta, "above": q0 + 1 + delta, "past int64": 2 * q0 + delta}[where]
    above = where != "below"
    # P coprime to Q keeps the weight Q**2 / P**2, and so the stream, over P**2
    p = next(p for p in itertools.count(q + 1) if math.gcd(p, q) == 1)
    cutoff = (top + 0.5) * (q / p) ** 2 * math.pi ** pi_power
    side = _length(p, q, pi_power)
    if product:
        s = reduce(lambda a, b: product_spectrum(a, b, cutoff),
                   [interval_spectrum(side, bc, cutoff) for _ in range(n)])
    else:
        s = box_spectrum([side] * n, bc, cutoff)
    assert s.exact and s.pi_power == pi_power and s.exact_den == p * p
    top_num = max(s.exact_nums.tolist())
    assert top_num == s_max * q * q and (top_num >= _INT64_GUARD) == above
    assert s.exact_nums.dtype == (object if above else np.int64)
    oracle = _sum_oracle([_interval_factor(p, q, bc, pi_power, cutoff)] * n, cutoff, pi_power)
    assert _exact_pairs(s) == oracle
    expected = sorted(float(v) * math.pi ** pi_power for v in oracle)
    assert s.values.tolist() == pytest.approx(expected, rel=1e-15, abs=0.0)


@example(sides=[(1, 3)], pi_power=2, bc="dirichlet", modes=[11, 0], where="above")
@example(sides=[(1, 5)], pi_power=2, bc="dirichlet", modes=[5, 0], where="above")
@example(sides=[(1, 6)], pi_power=2, bc="neumann", modes=[11, 0], where="above")
# mode (1, 0) is 729/729 = 0.9999999999999999 in the box's unit but 1.0 in
# its first side's, so that side, cut by its own floats, dropped it
@example(sides=[(1, 1), (27, 2)], pi_power=0, bc="neumann", modes=[1, 0], where="above")
@example(sides=[(1, 1), (7, 1)], pi_power=0, bc="neumann", modes=[1, 0], where="above")
# mode (0, 1) is 9/441, the cutoff's float; the side 3pi, which holds only
# its zero mode there, was reduced to denominator 1, and the box over 49
# kept 1/49, an ulp below
@example(sides=[(3, 1), (7, 1)], pi_power=0, bc="neumann", modes=[0, 1], where="at")
@settings(max_examples=150, deadline=None)
@given(sides=st.lists(st.tuples(st.integers(1, 39), st.integers(1, 39)), min_size=1,
                      max_size=2),
       pi_power=st.sampled_from([0, 2]), bc=BCS,
       modes=st.lists(st.integers(0, 12), min_size=2, max_size=2),
       where=st.sampled_from(["below", "at", "above"]))
def test_exact_intervals_and_boxes_keep_the_modes_below_the_cutoff(sides, pi_power, bc, modes,
                                                                   where):
    """The keep rule of exact values on intervals of length p/q or p pi/q,
    and on boxes of two such sides.  With w the exact pi**2 / a**2 of each
    side over the sides' common denominator den, the stream holds a mode
    tuple exactly when ``float(sum w l**2) * (pi**pi_power / den)`` is below
    the cutoff.  The cutoff is that float of one tuple, or one float either
    side of it; a float filter on ``pi**2 / a**2 * l**2`` dropped modes
    below it, as for the length 1/3 at l = 11."""
    start = 0 if bc == "neumann" else 1
    weights = [Fraction(q * q, p * p) for p, q in sides]
    den = math.lcm(*(w.denominator for w in weights))
    unit = math.pi ** pi_power / den
    nums = [int(w * den) for w in weights]
    target = float(sum(n * max(l, start) ** 2 for n, l in zip(nums, modes))) * unit
    cutoff = {"below": math.nextafter(target, 0.0), "at": target,
              "above": math.nextafter(target, math.inf)}[where]
    assume(cutoff > 0)
    s = box_spectrum([_length(p, q, pi_power) for p, q in sides], bc, cutoff)
    # every mode tuple up to two past the largest mode of each side
    axes = [n * np.arange(start, int(p / q * math.sqrt(cutoff / math.pi ** pi_power)) + 3,
                          dtype=np.int64) ** 2 for n, (p, q) in zip(nums, sides)]
    sums = sum(np.ix_(*axes)).ravel()
    kept, counts = np.unique(sums[sums.astype(float) * unit < cutoff], return_counts=True)
    assert s.exact and s.values.tolist() == (kept.astype(float) * unit).tolist()
    assert s.multiplicities.tolist() == counts.tolist()
    assert ([Fraction(n, s.exact_den) for n in s.exact_nums.tolist()]
            == [Fraction(n, den) for n in kept.tolist()])


# ---------------------------------------------------------------------------
# exact products in row blocks against the dense pair matrix


def _float_below(n: int, unit: float, cutoff: float) -> bool:
    """The keep rule of an exact value n * unit: its float value
    ``float(n) * unit`` is below the cutoff, and an n past float range
    is not kept."""
    try:
        return float(n) * unit < cutoff
    except OverflowError:
        return False


def _dense_product_reference(s1, s2, cutoff: float) -> EigenvalueStream:
    """The exact product as ``product_spectrum`` formed it before row blocks:
    every pair sum in one V1 x V2 matrix, kept where ``_float_below`` holds,
    one sum at a time.  The factors are not truncated first: a factor value
    whose own float is not below the cutoff can be part of a kept sum."""
    den = math.lcm(s1.exact_den, s2.exact_den)
    factors = (den // s1.exact_den, den // s2.exact_den)
    top = sum(int(s.exact_nums.max(initial=1)) * f for s, f in zip((s1, s2), factors))
    dtype = np.int64 if top < _INT64_GUARD else object
    n1, n2 = (s.exact_nums.astype(dtype) * f for s, f in zip((s1, s2), factors))
    unit = spectra._exact_unit(den, s1.pi_power)
    sums = n1[:, None] + n2[None, :]
    keep = np.array([_float_below(n, unit, cutoff) for n in sums.ravel().tolist()],
                    bool).reshape(sums.shape)
    mults = (s1.multiplicities[:, None] * s2.multiplicities[None, :])[keep]
    return _stream_from_exact(sums[keep], mults, den, s1.pi_power, cutoff)


def _same_stream(a: EigenvalueStream, b: EigenvalueStream) -> bool:
    return (a.values.tobytes() == b.values.tobytes()
            and a.multiplicities.tobytes() == b.multiplicities.tobytes()
            and a.exact_nums.dtype == b.exact_nums.dtype
            and a.exact_nums.tolist() == b.exact_nums.tolist()
            and (a.exact_den, a.pi_power, a.cutoff) == (b.exact_den, b.pi_power, b.cutoff))


#: numerator and denominator near 2**31: the lengths P / Q and P pi / Q
#: give numerators Q**2 l**2 over P**2, past _INT64_GUARD from l = 1 on
_BIG_Q = 2 ** 31 + 11


@st.composite
def _exact_factors(draw, pi_power: int, cutoff: float):
    """An exact stream in units of pi**pi_power covering ``cutoff``: an
    interval p/q or p pi/q, one whose numerators pass _INT64_GUARD, one with
    no value below the cutoff, the 2-sphere or a table of rationals with
    multiplicities."""
    kinds = ["interval", "past guard", "empty"] + (["sphere", "table"] if pi_power == 0 else [])
    kind = draw(st.sampled_from(kinds))
    bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    if kind == "sphere":
        return sphere2_spectrum(cutoff)
    if kind == "table":
        den = draw(st.integers(1, 12))
        nums = sorted(set(draw(st.lists(st.integers(0, int(cutoff * den) - 1), min_size=1,
                                        max_size=30))))
        return tabulated_spectrum([(Fraction(n, den), draw(st.integers(1, 4))) for n in nums],
                                  cutoff)
    p, q = {"interval": (draw(st.integers(1, 6)), draw(st.integers(1, 6))),
            "past guard": (_BIG_Q + 1 + draw(st.integers(0, 2)), _BIG_Q),
            "empty": (1, 20)}[kind]
    # 1/20 has no Dirichlet value below 400 pi**2, pi/20 none below 400
    return interval_spectrum(_length(p, q, pi_power), "dirichlet" if kind == "empty" else bc,
                             cutoff)


@st.composite
def _drawn_factor(draw, den: int, pi_power: int, lo: int, hi: int, cutoff: float):
    """An exact stream over ``den`` in units of pi**pi_power covering
    ``cutoff``: drawn numerators in [lo, hi], and maybe zero, each value
    formed as the generators form it; of numerators that share a float
    value, the least stays."""
    unit = math.pi ** pi_power / den
    nums = set(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=6)))
    by_value = {}
    for n in sorted(nums | ({0} if draw(st.booleans()) else set())):
        by_value.setdefault(float(n) * unit, n)
    return EigenvalueStream(list(by_value), [draw(st.integers(1, 4)) for _ in by_value], cutoff,
                            list(by_value.values()), den, pi_power)


@st.composite
def _product_cases(draw):
    """Two exact factors with a common pi power and a product cutoff.  The
    factors are generated spectra and tables at cutoffs up to 150, or drawn
    numerators: past 2**53 over a small denominator in units of pi**2, near
    2**1023 (pair sums pass float range), or over a denominator near
    2**1022, whose values are subnormal or nearly so.  The cutoff is a
    fraction of the factors' cutoff, the float value of a pair sum or one
    float beside it, where the keep rule turns, a subnormal float, or
    infinite (the factors then claim to cover it)."""
    scale = draw(st.sampled_from(["generated", "past 2**53", "near 2**1023", "subnormal"]))
    if scale == "generated":
        pi_power = draw(st.sampled_from([0, 2]))
        top = draw(st.floats(5.0, 150.0))
        s1, s2 = (draw(_exact_factors(pi_power, top)) for _ in range(2))
    else:
        pi_power, dens, lo, hi, top = {
            "past 2**53": (2, st.integers(2, 12), 2 ** 53, 2 ** 62, 3e19),
            "near 2**1023": (0, st.just(1), 2 ** 1022, 2 ** 1023, sys.float_info.max),
            "subnormal": (0, st.integers(2 ** 1021, 2 ** 1023), 1, 8, 2.0 ** -1015),
        }[scale]
        den = draw(dens)
        s1, s2 = (draw(_drawn_factor(den, pi_power, lo, hi, top)) for _ in range(2))
    where = draw(st.sampled_from(["inside", "at", "below", "above", "subnormal", "infinite"]))
    cutoff = top * draw(st.floats(0.05, 1.0))
    if where == "infinite":
        s1, s2 = (EigenvalueStream(s.values, s.multiplicities, math.inf, s.exact_nums,
                                   s.exact_den, s.pi_power) for s in (s1, s2))
        cutoff = math.inf
    elif where == "subnormal":
        cutoff = draw(st.floats(5e-324, sys.float_info.min, exclude_max=True))
    elif where != "inside" and s1.values.size and s2.values.size:
        den = math.lcm(s1.exact_den, s2.exact_den)
        i, j = draw(st.integers(0, s1.values.size - 1)), draw(st.integers(0, s2.values.size - 1))
        n = (int(s1.exact_nums[i]) * (den // s1.exact_den)
             + int(s2.exact_nums[j]) * (den // s2.exact_den))
        try:
            value = float(n) * (math.pi ** pi_power / den)
        except OverflowError:
            value = math.inf
        value = {"at": value, "below": math.nextafter(value, 0.0),
                 "above": math.nextafter(value, math.inf)}[where]
        if 0 < value <= top:
            cutoff = value
    return s1, s2, cutoff


#: numerators past 2**53 whose sum is kept though it is above the float
#: quotient cutoff / unit: an integer bound of floor(cutoff / unit) + 1
#: drops it
_PAST_2_53 = EigenvalueStream([0.0, float(2594073385365405701) * (PI2 / 3)], [1, 1], 3e19,
                              [0, 2594073385365405701], 3, 2)


def test_exact_product_matches_the_dense_reference():
    """Products formed in row blocks, counted into span slots block by
    block or sorted by _stream_from_exact, against the dense pair matrix
    they replaced: values, multiplicities, numerators (and their dtype),
    denominator, pi power and cutoff bit for bit.  Small block sizes split
    the rows into many blocks, and the run must take both routes and give
    numerators past _INT64_GUARD.  Where two kept sums share a float value,
    both raise the same ``ValidationError``."""
    branches, numerators = set(), set()

    @settings(max_examples=400, deadline=None)
    @example(case=(_PAST_2_53, _PAST_2_53, math.nextafter(8.534159366983726e18, math.inf)),
             block=spectra._PAIR_BLOCK, swap=False)
    @given(case=_product_cases(), block=st.sampled_from([1, 3, 16, spectra._PAIR_BLOCK]),
           swap=st.booleans())
    def check(case, block, swap):
        s1, s2, cutoff = case
        if swap:
            s1, s2 = s2, s1
        try:
            expected = _dense_product_reference(s1, s2, cutoff)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                product_spectrum(s1, s2, cutoff)
            return
        with mock.patch.object(spectra, "_PAIR_BLOCK", block), \
                mock.patch.object(spectra, "_stream_from_exact",
                                  wraps=spectra._stream_from_exact) as sorted_route:
            got = product_spectrum(s1, s2, cutoff)
        assert _same_stream(got, expected)
        branches.add("sorted" if sorted_route.called else "counted")
        numerators.add(got.exact_nums.dtype)

    check()
    assert branches == {"sorted", "counted"}
    assert numerators == {np.dtype(np.int64), np.dtype(object)}


def _dense_float_reference(s1, s2, cutoff: float) -> EigenvalueStream:
    """The float product as ``product_spectrum`` formed it before row blocks:
    every pair sum of the float values in one V1 x V2 matrix, kept where it
    is below the cutoff, in row-major order, merged within
    ``FLOAT_MERGE_RTOL``."""
    s1, s2 = s1.truncated(cutoff), s2.truncated(cutoff)
    sums = s1.values[:, None] + s2.values[None, :]
    keep = sums < cutoff
    mults = (s1.multiplicities[:, None] * s2.multiplicities[None, :])[keep]
    return EigenvalueStream(*spectra._aggregate_float(sums[keep], mults), cutoff)


_FLOAT_LENGTHS = st.floats(0.2, 3.0).filter(lambda a: not a.is_integer())


@st.composite
def _float_factors(draw, cutoff: float):
    """A float stream covering ``cutoff``: an interval of float length or a
    table of floats with multiplicities."""
    if draw(st.booleans()):
        return interval_spectrum(draw(_FLOAT_LENGTHS), draw(BCS), cutoff)
    values = sorted(set(draw(st.lists(st.floats(0.0, cutoff, exclude_max=True), min_size=1,
                                      max_size=30))))
    return tabulated_spectrum([(v, draw(st.integers(1, 4))) for v in values], cutoff)


@st.composite
def _float_product_cases(draw):
    """Two factors whose product is float-valued, and a product cutoff:
    float factors; a float and an exact one; exact ones in units of pi**0
    and pi**2; or equal float sides (an interval or a square times the same
    interval), whose coincident sums the merge joins.  The cutoff is a
    fraction of the factors' cutoff, a pair sum's float value or one float
    beside it, or infinite (the factors then claim to cover it)."""
    top = draw(st.floats(5.0, 150.0))
    kind = draw(st.sampled_from(["float", "mixed", "pi powers", "equal sides"]))
    if kind == "float":
        s1, s2 = draw(_float_factors(top)), draw(_float_factors(top))
    elif kind == "mixed":
        s1, s2 = draw(_float_factors(top)), draw(_exact_factors(draw(st.sampled_from([0, 2])), top))
    elif kind == "pi powers":
        s1, s2 = draw(_exact_factors(0, top)), draw(_exact_factors(2, top))
    else:
        a, bc = draw(_FLOAT_LENGTHS), draw(BCS)
        s1 = box_spectrum([a] * draw(st.integers(1, 2)), bc, top)
        s2 = interval_spectrum(a, bc, top)
    where = draw(st.sampled_from(["inside", "at", "below", "above", "infinite"]))
    cutoff = top * draw(st.floats(0.05, 1.0))
    if where == "infinite":
        s1, s2 = (EigenvalueStream(s.values, s.multiplicities, math.inf, s.exact_nums,
                                   s.exact_den, s.pi_power) for s in (s1, s2))
        cutoff = math.inf
    elif where != "inside" and s1.values.size and s2.values.size:
        value = (s1.values[draw(st.integers(0, s1.values.size - 1))]
                 + s2.values[draw(st.integers(0, s2.values.size - 1))])
        value = {"at": value, "below": math.nextafter(value, 0.0),
                 "above": math.nextafter(value, math.inf)}[where]
        if 0 < value <= top:
            cutoff = float(value)
    return s1, s2, cutoff


@settings(max_examples=300, deadline=None)
@given(case=_float_product_cases(), block=st.sampled_from([1, 3, 16, spectra._PAIR_BLOCK]),
       swap=st.booleans())
def test_float_product_matches_the_dense_reference(case, block, swap):
    """Float products formed in row blocks against the dense pair matrix
    they replaced: values, multiplicities and cutoff bit for bit.  Small
    block sizes split the rows into many blocks."""
    s1, s2, cutoff = case
    if swap:
        s1, s2 = s2, s1
    with mock.patch.object(spectra, "_PAIR_BLOCK", block):
        got = product_spectrum(s1, s2, cutoff)
    expected = _dense_float_reference(s1, s2, cutoff)
    assert not got.exact
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.multiplicities.tobytes() == expected.multiplicities.tobytes()
    assert got.cutoff == expected.cutoff


# ---------------------------------------------------------------------------
# builder streams against the public constructor


def _via_public(cls, values, mults, cutoff, nums=None, den=1, pi_power=0):
    """``EigenvalueStream._built`` routed through the public constructor,
    which checks everything."""
    return cls(values, mults, cutoff, nums, den, pi_power)


def _product_of(f1, f2, fraction: float) -> EigenvalueStream:
    s1, s2 = f1(), f2()
    return product_spectrum(s1, s2, min(s1.cutoff, s2.cutoff) * fraction)


def _truncation_of(build, fraction: float, at_value: bool) -> EigenvalueStream:
    """The built stream truncated to a fraction of its cutoff, or at one of
    its positive values."""
    s = build()
    positive = s.values[s.values > 0]
    if at_value and positive.size:
        return s.truncated(float(positive[int(fraction * (positive.size - 1))]))
    return s.truncated(s.cutoff * fraction)


#: q**2 is about 2**60, so the numerators q**2 l**2 of the lengths p/q and
#: p pi/q pass _INT64_GUARD from l = 2 on
_ACROSS_Q = 2 ** 30 + 1

#: two exact factors, one past 2**53, whose sums 2**60 and 2**60 + 1 share
#: a float
_SHARED = [EigenvalueStream([0.0, float(n) * (PI2 / 3)], [1, 2], 1e30, [0, n], 3, 2)
           for n in (2 ** 60, 1)]


@st.composite
def _lengths(draw):
    """A length p/q or p pi/q, one whose numerators cross _INT64_GUARD, or a
    float length."""
    kind = draw(st.sampled_from(["p/q", "p pi/q", "across guard", "float"]))
    if kind == "float":
        return draw(_FLOAT_LENGTHS)
    if kind == "across guard":
        return _length(_ACROSS_Q + draw(st.integers(1, 3)), _ACROSS_Q,
                       draw(st.sampled_from([0, 2])))
    p, q = draw(LENGTHS)
    return _length(p, q, 0 if kind == "p pi/q" else 2)


@st.composite
def _builds(draw, depth: int = 0):
    """A builder call, not yet made: an interval, a box of up to three
    sides, the 2-sphere, the triangle, the product of two builds (exact,
    float or mixed), the truncation of one, or the product of two exact
    factors whose sums share a float.  Cutoffs from 0.5 give empty and
    zero-only exact intervals; the triangle's run to 3000, where its
    values over 27 and over 9 differ in floats."""
    kinds = ["interval", "box", "sphere2", "triangle"]
    if depth < 1:
        kinds += ["product", "truncated", "shared float"]
    kind = draw(st.sampled_from(kinds))
    cutoff = draw(st.floats(0.5, 3000.0 if kind == "triangle" else 120.0))
    if kind == "interval":
        return functools.partial(interval_spectrum, draw(_lengths()), draw(BCS), cutoff)
    if kind == "box":
        return functools.partial(box_spectrum, draw(st.lists(_lengths(), min_size=1, max_size=3)),
                                 draw(BCS), cutoff)
    if kind == "sphere2":
        return functools.partial(sphere2_spectrum, cutoff)
    if kind == "triangle":
        return functools.partial(triangle_neumann_spectrum, cutoff)
    if kind == "shared float":
        return functools.partial(product_spectrum, *_SHARED, 1e30)
    inner = draw(_builds(depth + 1))
    fraction = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    if kind == "truncated":
        return functools.partial(_truncation_of, inner, fraction, draw(st.booleans()))
    return functools.partial(_product_of, inner, draw(_builds(depth + 1)), fraction)


def _identical(a: EigenvalueStream, b: EigenvalueStream) -> bool:
    """Values, multiplicities, numerators (values and dtype), denominator,
    pi power and cutoff, bit for bit."""
    same_nums = (a.exact_nums is None and b.exact_nums is None) or (
        a.exact_nums is not None and b.exact_nums is not None
        and a.exact_nums.dtype == b.exact_nums.dtype
        and a.exact_nums.tolist() == b.exact_nums.tolist())
    return (same_nums and a.values.dtype == b.values.dtype
            and a.values.tobytes() == b.values.tobytes()
            and a.multiplicities.dtype == b.multiplicities.dtype
            and a.multiplicities.tobytes() == b.multiplicities.tobytes()
            and (a.exact_den, a.pi_power, a.cutoff) == (b.exact_den, b.pi_power, b.cutoff))


@example(build=functools.partial(interval_spectrum, "3/2", "dirichlet", 0.5))
@example(build=functools.partial(interval_spectrum, "3/2", "neumann", 0.5))
@example(build=functools.partial(product_spectrum, *_SHARED, 1e30))
@example(build=functools.partial(
    _truncation_of, functools.partial(interval_spectrum, f"{_ACROSS_Q + 1}/{_ACROSS_Q}",
                                      "neumann", 60.0), 0.5, False))
@settings(max_examples=300, deadline=None)
@given(build=_builds())
def test_builders_match_the_public_constructor(build):
    """Every generator, product and truncation builds its stream through
    ``EigenvalueStream._built``, which skips the checks that construction
    guarantees.  Routed through the public constructor instead, each
    builder gives the same stream bit for bit, or raises the same
    ``ValidationError``, as where two exact sums share a float."""
    try:
        with mock.patch.object(EigenvalueStream, "_built", classmethod(_via_public)):
            expected = build()
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            build()
        return
    assert _identical(build(), expected)


@example(build=functools.partial(triangle_neumann_spectrum, 3000.0))
@settings(max_examples=200, deadline=None)
@given(build=_builds())
def test_exact_builder_values_are_their_numerators_times_the_unit(build):
    """Every exact stream a generator, product or truncation builds keeps
    the denominator its floats were computed over: value i is
    ``float(exact_nums[i]) * (pi**pi_power / exact_den)``, bit for bit.
    Reduced to lowest terms after the floats were computed, 59 of 612
    exact streams in 1000 draws broke this: 46 triangles, 12 truncations
    and a product."""
    try:
        s = build()
    except ValidationError:
        return
    if s.exact:
        unit = math.pi ** s.pi_power / s.exact_den
        expected = np.array([float(n) for n in s.exact_nums.tolist()], float) * unit
        assert s.values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# aggregation of exact numerators


@pytest.mark.parametrize("arr, starts", [
    (np.array([], float), []),
    (np.array([7], np.int64), [True]),
    (np.array([-0.0, 0.0, 1.0, 1.0, 2.0]), [True, False, True, False, True]),
    (np.array([3, 3, 2 ** 70, 2 ** 70, 2 ** 71], dtype=object),
     [True, False, True, False, True]),
])
def test_run_starts_marks_the_first_of_each_run(arr, starts):
    """The one first-of-run helper of the sorts in spectra, counting and
    riesz: empty arrays, Python ints past int64, and a minus zero, which
    joins the run of the zero before or after it."""
    new = spectra._run_starts(arr)
    assert new.dtype == bool and new.tolist() == starts


@st.composite
def _numerator_draws(draw):
    """(numerators, multiplicities): dense int64 ones, whose span is a small
    multiple of their count; sparse ones; a single entry; none; and Python
    ints past ``_INT64_GUARD``, dense among themselves."""
    kind = draw(st.sampled_from(["dense", "spread", "sparse", "single", "empty",
                                 "past guard"]))
    n = {"single": 1, "empty": 0}.get(kind, draw(st.integers(2, 40)))
    lo = draw(st.integers(-2 ** 40, 2 ** 40))
    if kind == "past guard":
        lo = _INT64_GUARD + draw(st.integers(-3, 2 ** 40))
    span = {"spread": 5 * n, "sparse": 2 ** 50}.get(kind, max(n, 1))
    nums = draw(st.lists(st.integers(lo, lo + span - 1), min_size=n, max_size=n))
    # multiplicities past 2**53, whose sums a float accumulator would round
    mults = draw(st.lists(st.one_of(st.integers(1, 10 ** 6), st.integers(2 ** 53, 2 ** 57)),
                          min_size=n, max_size=n))
    dtype = object if kind == "past guard" else np.int64
    return np.array(draw(st.permutations(nums)), dtype=dtype), np.array(mults, np.int64)


@settings(max_examples=200, deadline=None)
@given(draw=_numerator_draws())
def test_stream_from_exact_matches_counter_oracle(draw):
    """The stable sort of _stream_from_exact against a Counter: distinct
    numerators ascending, with summed int64 multiplicities, and numerators
    that stay int64 unless one passes _INT64_GUARD.  The stream itself is
    not built, so numerators may be negative."""
    nums, mults = draw
    reference = Counter()
    for n, m in zip(nums.tolist(), mults.tolist()):
        reference[n] += m
    with mock.patch.object(spectra, "_stream_from_distinct",
                           side_effect=lambda uniq, counts, *_: (uniq, counts)):
        uniq, counts = _stream_from_exact(nums, mults, 1, 0, 1.0)
    assert uniq.tolist() == sorted(reference)
    assert counts.tolist() == [reference[n] for n in sorted(reference)]
    assert counts.dtype == np.int64
    past_guard = nums.size and max(map(abs, nums.tolist())) >= _INT64_GUARD
    assert uniq.dtype == (object if past_guard else np.int64)
