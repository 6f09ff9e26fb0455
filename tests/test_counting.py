import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaspec import (
    CountingFunction,
    CoverageError,
    DomainError,
    SumCountingFunction,
    box_meta,
    box_spectrum,
    c_d,
    estimate_seeley_constant,
    interval_meta,
    interval_spectrum,
    product_spectrum,
    sphere2_meta,
    sphere2_spectrum,
    tabulated_spectrum,
    triangle_neumann_spectrum,
    two_term_bound,
    verify_counting_bound,
    weyl_leading,
)
from polyaspec.cli import main
from polyaspec.reproduce import empirical_weyl_onset, square_triangle_bundle
from polyaspec.counting import SeeleyEstimate, _largest
from polyaspec.polya import VerificationReport, _bound_values
from polyaspec.spectra import DomainMeta, EigenvalueStream, _sorted_union

PI2 = math.pi ** 2


def _cf(stream, meta):
    return CountingFunction.from_stream(stream, meta)


def product_count(s1, cf2, lam):
    """Count of the product spectrum below ``lam`` without forming it: the
    sum over first-factor eigenvalues v of mult(v) * N_2(lam - v)."""
    lam = float(s1.check_range(lam))
    below = s1.values < lam
    return int(np.dot(s1.multiplicities[below], cf2.count_many(lam - s1.values[below])))


def jump_points(stream):
    """One ``(lambda_j, N(lambda_j), N(lambda_j+))`` triple per distinct eigenvalue."""
    cum = stream.cumulative_counts().tolist()
    return list(zip(stream.values.tolist(), cum[:-1], cum[1:]))


# ---------------------------------------------------------------------------
# count


def test_count_sphere_at_six():
    cf = _cf(sphere2_spectrum(10), sphere2_meta())
    assert cf.count(6.0) == 4


def test_count_strict_at_eigenvalue():
    cf = _cf(interval_spectrum(1, "dirichlet", 50), interval_meta(1, "dirichlet"))
    assert cf.count(PI2) == 0
    assert cf.count_right(PI2) == 1


def test_count_square10_neumann_at_one():
    # independent oracle: direct lattice enumeration of m^2 + n^2 < 100 / pi^2
    threshold = 100.0 / PI2
    expected = sum(
        1
        for m in range(0, 12)
        for n in range(0, 12)
        if m * m + n * n < threshold
    )
    assert expected == 13  # frozen from the enumeration above
    cf = _cf(box_spectrum([10, 10], "neumann", 2.0), box_meta([10, 10], "neumann"))
    assert cf.count(1.0) == expected


def test_count_above_cutoff_raises():
    cf = _cf(sphere2_spectrum(10), sphere2_meta())
    with pytest.raises(CoverageError):
        cf.count(11.0)


def test_count_right_at_cutoff_raises():
    # values at the cutoff are not recorded: here N(4+) = 2, not 1
    s = interval_spectrum("pi", "dirichlet", 4.0)
    assert s.count(4.0) == 1
    with pytest.raises(CoverageError):
        s.count_right(4.0)
    with pytest.raises(CoverageError):
        s.count_right_many([1.0, 4.0])
    assert s.count_right(3.999) == 1


def test_nan_lambda_is_a_domain_error():
    # a NaN passed the cutoff check and counted every eigenvalue (13 here)
    s = box_spectrum([1, 1], "neumann", 100.0)
    cf = _cf(s, box_meta([1, 1], "neumann"))
    both = SumCountingFunction([cf, _cf(sphere2_spectrum(50.0), sphere2_meta())])
    for query in (s.count_many, s.count_right_many, cf.count_many, cf.count_right_many,
                  both.count_many, both.count_right_many):
        with pytest.raises(DomainError):
            query([1.0, math.nan])
    for query in (s.count, s.count_right, cf.count, both.count, both.count_right):
        with pytest.raises(DomainError):
            query(math.nan)
    with pytest.raises(DomainError):
        product_count(s, _cf(sphere2_spectrum(100.0), sphere2_meta()), math.nan)
    assert s.count_many([1.0, 100.0]).tolist() == [1, 13]


def test_cumulative_counts_prefix_array():
    s = sphere2_spectrum(7)
    assert s.cumulative_counts().tolist() == [0, 1, 4, 9]
    assert s.cumulative_counts() is s.cumulative_counts()
    assert not s.cumulative_counts().flags.writeable
    assert s.count_many([]).shape == (0,)


def _slow_count(entries, lam, right=False):
    return sum(m for v, m in entries if (v <= lam if right else v < lam))


def _probes(entries, cutoff):
    """Every jump, every midpoint, 0, a negative point and the cutoff."""
    vals = [v for v, _ in entries]
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:] + [cutoff])]
    return vals + mids + [0.0, -1.0, cutoff]


ENTRIES = st.lists(st.tuples(st.floats(0.0, 100.0), st.integers(1, 6)),
                   max_size=30, unique_by=lambda e: e[0]).map(sorted)


@settings(max_examples=80, deadline=None)
@given(entries=ENTRIES, gap=st.floats(1e-6, 10.0), exact=st.booleans())
def test_count_many_matches_slow_oracle(entries, gap, exact):
    if exact:  # eighths take the exact path
        entries = sorted({Fraction(round(v * 8), 8): m for v, m in entries}.items())
    pairs = [(float(v), m) for v, m in entries]
    cutoff = (pairs[-1][0] if pairs else 0.0) + gap
    s = tabulated_spectrum(entries, cutoff)
    assert s.exact == (exact and bool(entries))  # no entry tabulates as float
    probes = _probes(pairs, cutoff)
    left = s.count_many(probes)
    assert left.tolist() == [_slow_count(pairs, p) for p in probes]
    below = probes[:-1]  # right limits stop short of the cutoff
    right = s.count_right_many(below)
    assert right.tolist() == [_slow_count(pairs, p, right=True) for p in below]
    assert [s.count(p) for p in probes] == left.tolist()
    assert [s.count_right(p) for p in below] == right.tolist()
    with pytest.raises(CoverageError):
        s.count_right_many(probes)
    with pytest.raises(CoverageError):
        s.count_many([cutoff * (1 + 1e-9) + 1e-9])


@settings(max_examples=60, deadline=None)
@given(first=ENTRIES, second=ENTRIES, gaps=st.tuples(st.floats(1e-6, 10.0), st.floats(1e-6, 10.0)))
def test_sum_count_many_matches_slow_oracle(first, second, gaps):
    meta = DomainMeta(2, 1.0, "dirichlet")
    streams = [tabulated_spectrum(e, (e[-1][0] if e else 0.0) + g)
               for e, g in zip((first, second), gaps)]
    cf = SumCountingFunction([CountingFunction.from_stream(t, meta) for t in streams])
    assert cf.cutoff == min(t.cutoff for t in streams)
    probes = [p for p in _probes(sorted(first + second), cf.cutoff) if p <= cf.cutoff]
    left = cf.count_many(probes)
    assert left.tolist() == [_slow_count(first + second, p) for p in probes]
    below = [p for p in probes if p < cf.cutoff]
    right = cf.count_right_many(below)
    assert right.tolist() == [_slow_count(first + second, p, right=True) for p in below]
    assert [cf.count(p) for p in probes] == left.tolist()
    with pytest.raises(CoverageError):  # the part with the smaller cutoff refuses
        cf.count_right(cf.cutoff)
    if streams[0].cutoff != streams[1].cutoff:
        with pytest.raises(CoverageError):
            cf.count_many([max(t.cutoff for t in streams)])


def test_closed_form_counting_function():
    tri_stream = triangle_neumann_spectrum(300.0)
    cf = CountingFunction.from_stream(
        tri_stream, DomainMeta(2, math.sqrt(3) / 4, "neumann", surface_area=3.0))
    for lam in (1.0, 50.0, 299.0):
        # one eigenvalue 16 pi^2 / 9 (m^2 + mn + n^2) per ordered pair m, n >= 0
        assert cf.count(lam) == sum(16 * PI2 / 9 * (m * m + m * n + n * n) < lam
                                    for m in range(20) for n in range(20))
    assert cf.count(1.0) == 1
    assert cf.count_right(0.0) == 1
    assert list(cf.jump_values()) == list(tri_stream.values)
    with pytest.raises(CoverageError):
        cf.count(301.0)


# ---------------------------------------------------------------------------
# product_count


def test_product_count_thin_sphere():
    s1 = interval_spectrum("pi/24", "dirichlet", 700)
    cf2 = _cf(sphere2_spectrum(700), sphere2_meta())
    assert product_count(s1, cf2, 600.0) == 25


def test_product_count_zero_factor_is_identity():
    from polyaspec import tabulated_spectrum

    zero = tabulated_spectrum([(0, 1)], 1e3)
    cf2 = _cf(sphere2_spectrum(1e3), sphere2_meta())
    for lam in (5.0, 100.0, 999.0):
        assert product_count(zero, cf2, lam) == cf2.count(lam)


def test_product_count_empty_below_first_mode():
    s1 = interval_spectrum(1, "dirichlet", 50)
    cf2 = _cf(sphere2_spectrum(50), sphere2_meta())
    assert product_count(s1, cf2, PI2) == 0
    assert product_count(s1, cf2, 0.5) == 0


def test_product_count_matches_product_spectrum(rng):
    cutoff = 400.0
    s1 = interval_spectrum(1.25, "neumann", cutoff)
    s2 = box_spectrum([1, 2], "neumann", cutoff)
    prod = product_spectrum(s1, s2, cutoff)
    cf2 = _cf(s2, box_meta([1, 2], "neumann"))
    for lam in rng.uniform(1.0, cutoff, 120):
        assert product_count(s1, cf2, lam) == prod.count(lam)


def _product_factor(kind, length, cutoff):
    if kind == "sphere":
        return sphere2_spectrum(cutoff)
    bc = "neumann" if kind.endswith("n") else "dirichlet"
    if kind.startswith("box"):
        return box_spectrum([length, 1.5], bc, cutoff)
    return interval_spectrum(length, bc, cutoff)


FACTOR_KINDS = st.sampled_from(["interval-d", "interval-n", "box-d", "box-n", "sphere"])
FACTOR_LENGTHS = st.one_of(st.floats(0.3, 3.0),
                           st.sampled_from(["pi/3", "pi/2", "2pi/3", "pi", "3/2", "2"]))


@settings(max_examples=40, deadline=None)
@given(kinds=st.tuples(FACTOR_KINDS, FACTOR_KINDS),
       lengths=st.tuples(FACTOR_LENGTHS, FACTOR_LENGTHS),
       cutoff=st.floats(5.0, 200.0), fracs=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_product_count_matches_product_spectrum_oracle(kinds, lengths, cutoff, fracs):
    s1, s2 = (_product_factor(k, a, cutoff) for k, a in zip(kinds, lengths))
    prod = product_spectrum(s1, s2, cutoff)
    cf2 = CountingFunction.from_stream(s2, DomainMeta(2, 1.0, "dirichlet"))
    vals = prod.values.tolist()
    # midpoints between product values, plus random points, kept clear of
    # the values so float rounding of the sums cannot move a count
    probes = [(a + b) / 2 for a, b in zip(vals, vals[1:])] + [f * cutoff for f in fracs]
    for lam in probes:
        if vals and np.min(np.abs(prod.values - lam)) <= 1e-9 * max(lam, 1.0):
            continue
        assert product_count(s1, cf2, lam) == prod.count(lam)


# ---------------------------------------------------------------------------
# weyl_leading / two_term_bound


def test_weyl_leading_values():
    assert weyl_leading(DomainMeta(2, 4 * math.pi, "closed"), 1.0) == pytest.approx(1.0, rel=1e-15)
    assert weyl_leading(DomainMeta(3, 1.0, "dirichlet"), 0.0) == 0.0
    # d=3, |Omega| = pi^2/6 relates to the integer comparison lambda^3 vs 1296 k^2
    w = weyl_leading(DomainMeta(3, PI2 / 6, "dirichlet"), 576.0)
    assert w ** 2 == pytest.approx(576.0 ** 3 / 1296.0, rel=1e-12)


def test_two_term_bound_examples():
    sq = box_meta([10, 10], "neumann")
    assert two_term_bound(sq, 20.0, 1.0, "upper") == pytest.approx(100 / (4 * math.pi) + 20)
    assert two_term_bound(sq, 20.0, 1e-300, "upper") == pytest.approx(0.0, abs=1e-140)
    tri = DomainMeta(2, math.sqrt(3) / 4, "neumann", surface_area=3.0)
    assert two_term_bound(tri, 30.0, 4.0, "upper") == pytest.approx(
        math.sqrt(3) * 4 / (16 * math.pi) + 60.0
    )
    assert two_term_bound(sq, 20.0, 4.0, "lower") == pytest.approx(400 / (4 * math.pi) - 40.0)
    with pytest.raises(DomainError):
        two_term_bound(sq, 20.0, 1.0, "sideways")


# ---------------------------------------------------------------------------
# jump_points


def test_jump_points_sphere():
    assert jump_points(sphere2_spectrum(7)) == [(0.0, 0, 1), (2.0, 1, 4), (6.0, 4, 9)]


def test_jump_points_empty_and_interval():
    from polyaspec import tabulated_spectrum

    assert jump_points(tabulated_spectrum([], 1.0)) == []
    pts = jump_points(interval_spectrum(1, "dirichlet", 50))
    assert pts == [(PI2, 0, 1), (4 * PI2, 1, 2)]


# ---------------------------------------------------------------------------
# estimate_seeley_constant


def test_seeley_square10_upper_below_20():
    stream = box_spectrum([10, 10], "neumann", 1.0001e4)
    cf = _cf(stream, box_meta([10, 10], "neumann"))
    est = estimate_seeley_constant(cf, cf.meta, 1e4, "upper")
    assert est.value <= 20.0
    assert len(est.top) == 5
    assert est.top[0][0] == est.value


def test_seeley_sphere_lower_at_most_one():
    stream = sphere2_spectrum(1.0001e4)
    cf = _cf(stream, sphere2_meta())
    est = estimate_seeley_constant(cf, cf.meta, 1e4, "lower")
    assert est.value <= 1.0


def test_seeley_interval_upper_stable():
    values = []
    for cutoff in (1e5, 1e6):
        stream = interval_spectrum(1, "dirichlet", cutoff * 1.001)
        cf = _cf(stream, interval_meta(1, "dirichlet"))
        values.append(estimate_seeley_constant(cf, cf.meta, cutoff, "upper").value)
    # the 1-D Weyl remainder vanishes at jumps up to float noise
    assert all(v <= 1e-9 for v in values)
    assert abs(values[0] - values[1]) <= 0.1 * max(max(values), 1e-12)


def test_seeley_no_jumps_raises():
    from polyaspec import tabulated_spectrum

    cf = _cf(tabulated_spectrum([], 1.0), DomainMeta(2, 1.0, "dirichlet"))
    with pytest.raises(CoverageError):
        estimate_seeley_constant(cf, cf.meta, 1.0, "upper")


@pytest.mark.parametrize("cutoff", [1e3, 1e4, 1e5])
def test_seeley_window_monotone_in_lower_end(cutoff):
    stream = box_spectrum([1, 1], "dirichlet", cutoff * 1.001)
    cf = _cf(stream, box_meta([1, 1], "dirichlet"))
    last = math.inf
    for lo in (0.0, cutoff * 0.01, cutoff * 0.1, cutoff * 0.5):
        est = estimate_seeley_constant(cf, cf.meta, cutoff, "upper", lambda_min=lo)
        assert est.value <= last + 1e-12
        last = est.value


def test_seeley_window_past_cutoff_raises():
    stream = box_spectrum([1, 1], "neumann", 1000.0)
    cf = _cf(stream, box_meta([1, 1], "neumann"))
    for side in ("upper", "lower"):
        with pytest.raises(CoverageError):
            estimate_seeley_constant(cf, cf.meta, 1e5, side)
        estimate_seeley_constant(cf, cf.meta, 1000.0, side)


# ---------------------------------------------------------------------------
# every scan counts through the vector forms


def test_scans_make_no_scalar_count_calls(monkeypatch, capsys):
    def refuse(self, lam):
        raise AssertionError("scalar count called from a scan")

    monkeypatch.setattr(EigenvalueStream, "count", refuse)
    monkeypatch.setattr(EigenvalueStream, "count_right", refuse)

    assert square_triangle_bundle(cutoff=2000.0)["ok"]
    stream = box_spectrum([10, 10], "neumann", 1.0001e3)
    cf = _cf(stream, box_meta([10, 10], "neumann"))
    for side in ("upper", "lower"):
        estimate_seeley_constant(cf, cf.meta, 1e3, side)
        verify_counting_bound(cf, lambda lam: 1e9 if side == "upper" else -1.0, side,
                              lambda_min=0.1, lambda_max=1e3)
    assert empirical_weyl_onset(sphere2_spectrum(500.0), 1.0) > 0
    s1 = interval_spectrum("pi/24", "dirichlet", 700)
    assert product_count(s1, _cf(sphere2_spectrum(700), sphere2_meta()), 600.0) == 25
    assert main(["count", "--spec", '{"sphere2": {}}', "--lambda", "3", "--lambda", "6",
                 "--no-timestamp"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [r["count"] for r in rows] == [4, 4]


# ---------------------------------------------------------------------------
# module invariants


def test_friedlander_counting_form(unit_square_dirichlet, unit_square_neumann):
    sd, _ = unit_square_dirichlet
    sn, _ = unit_square_neumann
    lams = np.unique(np.concatenate([sd.values, sn.values]))
    lams = lams[lams <= 1e4]
    for lam in lams:
        assert sd.count(lam) <= sn.count(lam)
        assert sd.count_right(lam) <= sn.count_right(lam)


def test_weyl_leading_asymptotics_one_percent():
    lam = 1e6
    square = box_spectrum([1, 1], "dirichlet", lam * 1.001)
    ratio = square.count(lam) / (c_d(2) * 1.0 * lam)
    assert abs(ratio - 1.0) < 0.01
    interval = interval_spectrum(1, "dirichlet", lam * 1.001)
    ratio = interval.count(lam) / (c_d(1) * 1.0 * math.sqrt(lam))
    assert abs(ratio - 1.0) < 0.01


def test_sum_counting_function():
    s = box_spectrum([10, 10], "neumann", 100.0)
    t = triangle_neumann_spectrum(100.0)
    cf = SumCountingFunction([
        _cf(s, box_meta([10, 10], "neumann")),
        _cf(t, DomainMeta(2, math.sqrt(3) / 4, "neumann", surface_area=3.0)),
    ])
    for lam in (0.5, 20.0, 99.0):
        assert cf.count(lam) == s.count(lam) + t.count(lam)
    assert cf.cutoff == 100.0
    merged = cf.jump_values()
    assert np.all(np.diff(merged) > 0)


@pytest.mark.parametrize("parts", [
    [("box", 100.0), ("triangle", 100.0)],
    [("box", 100.0), ("box", 100.0), ("triangle", 60.0)],  # every jump shared
    [("empty", 5.0), ("box", 100.0)],
    [("empty", 5.0), ("empty", 5.0)],
])
def test_sum_jump_values_match_np_unique(parts):
    """The merged jump set of a sum, nested or not, equals np.unique of its
    parts' concatenated jumps, including parts without a jump."""
    make = {"box": lambda c: box_spectrum([10, 10], "neumann", c),
            "triangle": triangle_neumann_spectrum,
            "empty": lambda c: interval_spectrum(1, "dirichlet", c)}  # pi**2 > c
    cfs = [_cf(make[kind](cutoff), DomainMeta(2, 1.0, "neumann")) for kind, cutoff in parts]
    expected = np.unique(np.concatenate([cf.stream.values for cf in cfs]))
    nested = SumCountingFunction([SumCountingFunction(cfs[:1]), *cfs[1:]])
    for cf in (SumCountingFunction(cfs), nested):
        assert cf.jump_values().tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# the scans on prefix counts against the search-based scans they replaced


def _search_counting_bound(cf, bound, side, lambda_min=0.0, lambda_max=None, jumps=None):
    """``verify_counting_bound`` as it was before prefix counts: the jump
    set merged with ``_sorted_union``, the window cut by masks, and one
    ``searchsorted`` count per part and point."""
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    jump_arr = cf.jump_values()
    if jumps is not None:
        jump_arr = _sorted_union(jump_arr, jumps)
    if lambda_max is None:
        lambda_max = float(cf.cutoff)
    if lambda_max > cf.cutoff:
        raise CoverageError("window past the counting function's cutoff")
    if side == "upper":
        points = jump_arr[(jump_arr >= lambda_min) & (jump_arr <= lambda_max)]
        if lambda_min > 0:
            points = _sorted_union([lambda_min], points)
        counts = cf.count_right_many(points).astype(float)
    else:
        jump_arr = jump_arr[(jump_arr > lambda_min) & (jump_arr <= lambda_max)]
        points = _sorted_union(jump_arr, [lambda_max])
        counts = cf.count_many(points).astype(float)
    if points.size == 0:
        raise CoverageError("no comparison points in the requested window")
    points.flags.writeable = False
    bounds = _bound_values(bound, points)
    margins = bounds - counts if side == "upper" else counts - bounds
    rel = margins / np.maximum(np.abs(bounds), 1.0)
    bad = margins < 0
    failures = tuple(zip(points[bad].tolist(), counts[bad].tolist(), bounds[bad].tolist()))
    worst = int(np.argmin(rel))
    return VerificationReport(
        mode="counting_jumps", checked=int(points.size), requested=int(points.size),
        verdict="fails" if failures else "holds", worst_margin=float(rel[worst]),
        worst_location=float(points[worst]), failures=failures, margins=rel)


def _search_seeley_constant(cf, meta, cutoff, side, lambda_min=0.0):
    """``estimate_seeley_constant`` as it was before prefix counts."""
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    if cutoff > cf.cutoff:
        raise CoverageError("scan window past the counting function's cutoff")
    jumps = cf.jump_values()
    jumps = jumps[(jumps > max(lambda_min, 0.0)) & (jumps <= cutoff)]
    if jumps.size == 0:
        raise CoverageError("no jump points in the scan window; estimate undefined")
    d = meta.dimension
    lead = c_d(d) * meta.volume * jumps ** (d / 2.0)
    if side == "upper":
        remainder = cf.count_right_many(jumps).astype(float) - lead
    else:
        remainder = lead - cf.count_many(jumps).astype(float)
    ratios = np.maximum(remainder, 0.0) / jumps ** ((d - 1) / 2.0)
    order = np.argsort(-ratios, kind="stable")[:5]
    top = tuple((float(ratios[i]), float(jumps[i])) for i in order)
    best = order[0]
    return SeeleyEstimate(side, float(ratios[best]), float(jumps[best]), top, int(jumps.size))


#: values on a grid of quarters, so that parts share jumps and a part's
#: jump can sit at another part's cutoff
_QUARTERS = st.integers(0, 160)


@st.composite
def _scan_counting_functions(draw):
    """A counting function of one to three tabulated streams (float or
    exact, with a zero or a minus zero among float values, each with its
    own cutoff), alone, summed, or summed with a sum nested inside."""
    def leaf():
        quarters = sorted(set(draw(st.lists(_QUARTERS, max_size=25))))
        cutoff = draw(st.integers(max(quarters, default=0) + 1, 161)) / 4
        mults = [draw(st.integers(1, 4)) for _ in quarters]
        if draw(st.booleans()):
            values = [Fraction(q, 4) for q in quarters]
        else:
            values = [q / 4 for q in quarters]
            if values and values[0] == 0.0 and draw(st.booleans()):
                values[0] = -0.0
        return CountingFunction.from_stream(
            tabulated_spectrum(list(zip(values, mults)), cutoff), DomainMeta(2, 1.0, "neumann"))

    shape = draw(st.sampled_from(["one", "flat", "nested", "nested-first"]))
    if shape == "one":
        return leaf()
    if shape == "flat":
        return SumCountingFunction([leaf() for _ in range(draw(st.integers(1, 3)))])
    if shape == "nested":
        return SumCountingFunction([leaf(), SumCountingFunction([leaf(), leaf()])])
    return SumCountingFunction([SumCountingFunction([leaf()]), leaf()])


def _scan_point(draw, cf):
    """A window end or an added jump: on a jump or one float beside it, at
    0 or minus 0, at or past the cutoff, negative, infinite, NaN or off the
    grid."""
    jumps = cf.jump_values().tolist()
    kind = draw(st.sampled_from(["jump", "below jump", "above jump", "zero", "minus zero",
                                 "cutoff", "past cutoff", "negative", "inf", "nan", "off grid"]))
    if kind.endswith("jump") and jumps:
        jump = draw(st.sampled_from(jumps))
        return {"jump": jump, "below jump": math.nextafter(jump, -math.inf),
                "above jump": math.nextafter(jump, math.inf)}[kind]
    return {"zero": 0.0, "minus zero": -0.0, "cutoff": float(cf.cutoff),
            "past cutoff": cf.cutoff + 1.0, "negative": -1.0, "inf": math.inf,
            "nan": math.nan}.get(kind, draw(_QUARTERS) / 4 + 0.125)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except (CoverageError, DomainError) as exc:
        return type(exc)


class _Recorded:
    """An elementwise bound that keeps a copy of the points of its calls."""

    def __init__(self, a, b):
        self.a, self.b, self.points = a, b, []

    def __call__(self, lam):
        self.points.append(np.array(lam, float))
        with np.errstate(all="ignore"):
            return self.a * lam + self.b * np.sqrt(np.abs(lam))


@settings(max_examples=400, deadline=None)
@given(cf=_scan_counting_functions(), side=st.sampled_from(["upper", "lower"]),
       a=st.floats(0.0, 2.0), b=st.floats(-3.0, 3.0), data=st.data())
def test_counting_bound_matches_the_search_reference(cf, side, a, b, data):
    """Every report field, the margins' bytes, the points the bound sees
    and the error types, for windows with ends on jumps, at 0, at the
    cutoff or NaN, and added jumps that are unsorted, repeated, outside the
    window or NaN."""
    lambda_min = _scan_point(data.draw, cf)
    lambda_max = None if data.draw(st.booleans()) else _scan_point(data.draw, cf)
    ends = (lambda_min, lambda_max)
    jumps = (None if data.draw(st.booleans()) else
             [_scan_point(data.draw, cf) for _ in range(data.draw(st.integers(0, 6)))])
    got_bound, want_bound = _Recorded(a, b), _Recorded(a, b)
    got = _outcome(verify_counting_bound, cf, got_bound, side, *ends, jumps)
    want = _outcome(_search_counting_bound, cf, want_bound, side, *ends, jumps)
    if isinstance(want, type):
        assert got is want
        return
    assert repr(got.to_dict()) == repr(want.to_dict())
    assert got.margins.tobytes() == want.margins.tobytes()
    assert [p.tobytes() for p in got_bound.points] == [p.tobytes() for p in want_bound.points]


@pytest.mark.parametrize("lambda_min, worst", [(0.0, "-0.0"), (-1.0, "0.0")])
def test_counting_bound_lower_end_keeps_the_sign_of_its_zero(lambda_min, worst):
    # lambda_max = -0.0 is the lone point when (lambda_min, lambda_max] holds
    # no jump, and the zero jump stands for it when the window holds it
    cf = CountingFunction.from_stream(tabulated_spectrum([(0.0, 1), (1.0, 2)], 5.0),
                                      DomainMeta(2, 1.0, "neumann"))
    reports = [scan(cf, _Recorded(1.0, -1.0), "lower", lambda_min, -0.0)
               for scan in (verify_counting_bound, _search_counting_bound)]
    assert [repr(r.worst_location) for r in reports] == [worst, worst]
    assert repr(reports[0].to_dict()) == repr(reports[1].to_dict())


@pytest.mark.parametrize("nested", [False, True])
def test_a_parts_jump_at_the_sums_cutoff_has_no_right_limit(nested):
    # the sum's cutoff is its first part's, 10, where the second part jumps:
    # N(10+) of the first part is unknown, so both upper scans refuse
    meta = DomainMeta(2, 1.0, "neumann")
    short, long = (CountingFunction.from_stream(tabulated_spectrum(entries, cutoff), meta)
                   for entries, cutoff in (([(1.0, 1)], 10.0), ([(2.0, 1), (10.0, 3)], 20.0)))
    cf = SumCountingFunction([short, SumCountingFunction([long])] if nested else [short, long])
    assert cf.cutoff == 10.0
    for scan in (verify_counting_bound, _search_counting_bound):
        with pytest.raises(CoverageError):
            scan(cf, lambda lam: 10.0 + lam, "upper", 0.5, 10.0)
        assert scan(cf, lambda lam: lam, "lower", 0.5, 10.0).checked == 3
    for scan in (estimate_seeley_constant, _search_seeley_constant):
        with pytest.raises(CoverageError):
            scan(cf, meta, 10.0, "upper")
        assert scan(cf, meta, 10.0, "lower").scanned == 3


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0]), min_size=1,
                max_size=40), st.integers(1, 8))
def test_top_ratios_are_a_stable_sort_head(values, count):
    # ties everywhere, and often fewer than ``count`` positive values, so
    # the zeros fill the head
    ratios = np.array(values)
    assert _largest(ratios, count).tolist() == np.argsort(-ratios, kind="stable")[:count].tolist()


def test_tied_top_ratios_list_the_lower_jump_first():
    # one positive remainder: the zeros after it come in jump order
    entries = [(1.0, 10)] + [(v, 1) for v in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)]
    cf = CountingFunction.from_stream(tabulated_spectrum(entries, 8.0),
                                      DomainMeta(2, 100.0, "neumann"))
    est = estimate_seeley_constant(cf, cf.meta, 7.0, "upper")
    assert est.top[0][0] > 0.0 and [ratio for ratio, _ in est.top[1:]] == [0.0] * 4
    assert [jump for _, jump in est.top] == [1.0, 2.0, 3.0, 4.0, 5.0]


@settings(max_examples=300, deadline=None)
@given(cf=_scan_counting_functions(), side=st.sampled_from(["upper", "lower"]),
       d=st.integers(1, 3), data=st.data())
def test_seeley_constant_matches_the_search_reference(cf, side, d, data):
    meta = DomainMeta(d, data.draw(st.floats(0.1, 10.0)), "neumann")
    cutoff, lambda_min = _scan_point(data.draw, cf), _scan_point(data.draw, cf)
    got = _outcome(estimate_seeley_constant, cf, meta, cutoff, side, lambda_min)
    want = _outcome(_search_seeley_constant, cf, meta, cutoff, side, lambda_min)
    assert got is want if isinstance(want, type) else repr(got) == repr(want)
