import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyaspec import (
    ConfigError,
    CoverageError,
    DomainError,
    ModeError,
    berezin_margin,
    box_meta,
    box_spectrum,
    interval_meta,
    interval_spectrum,
    kroger_check,
    l_gamma_d,
    laptev_neumann_margin,
    li_yau_checks,
    polya_weyl_term,
    riesz_mean,
    riesz_mean_many,
    sphere2_meta,
    sphere2_spectrum,
    tabulated_spectrum,
    two_term_riesz_scan,
    window_infimum_dirichlet,
    window_infimum_neumann,
    window_supremum_neumann,
)
from polyaspec import riesz as riesz_module
from polyaspec.riesz import _FAR_GAMMA, _LEAF
from polyaspec.spectra import EigenvalueStream

PI = math.pi
PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# riesz_mean


def test_riesz_mean_sphere():
    s = sphere2_spectrum(10)
    assert riesz_mean(s, 1.0, 6.0) == pytest.approx(1 * 6 + 3 * 4)


def test_riesz_mean_gamma_zero_is_count(rng):
    s = box_spectrum([1, 2], "neumann", 300.0)
    for lam in rng.uniform(0.5, 300.0, 40):
        assert riesz_mean(s, 0.0, lam) == s.count(lam)


def test_riesz_mean_single_term():
    s = interval_spectrum(1, "dirichlet", 50.0)
    assert riesz_mean(s, 1.0, PI2 + 1.0) == pytest.approx(1.0)


def test_riesz_mean_many_matches_scalar(rng):
    s = box_spectrum([1, 1], "dirichlet", 400.0)
    lams = rng.uniform(1.0, 400.0, 600)
    vec = riesz_mean_many(s, 1.5, lams)
    for lam, v in zip(lams[:50], vec[:50]):
        assert v == pytest.approx(riesz_mean(s, 1.5, lam), rel=1e-12)


def test_riesz_mean_range_and_domain_errors():
    s = sphere2_spectrum(10)
    with pytest.raises(CoverageError):
        riesz_mean(s, 1.0, 11.0)
    for gamma in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            riesz_mean(s, gamma, 5.0)


def test_riesz_mean_derivative_is_gamma_times_lower_order(rng):
    s = box_spectrum([1, 1], "dirichlet", 500.0)
    checked = 0
    for lam in rng.uniform(25.0, 450.0, 200):
        step = 1e-5 * lam
        # keep the difference quotient away from kinks
        if np.any(np.abs(s.values - lam) < 2 * step):
            continue
        for gamma in (1.0, 1.5, 2.0):
            fd = (riesz_mean(s, gamma, lam + step) - riesz_mean(s, gamma, lam - step)) / (2 * step)
            analytic = gamma * riesz_mean(s, gamma - 1.0, lam)
            assert abs(fd - analytic) / analytic < 1e-6
        checked += 1
    assert checked >= 100


def test_riesz_mean_log_convex_in_gamma():
    s = box_spectrum([1, 2], "dirichlet", 300.0)
    lam = 1.0 + float(s.values.max())
    for g1, g2 in ((1.0, 2.0), (1.5, 3.0), (2.0, 5.0)):
        mid = riesz_mean(s, (g1 + g2) / 2.0, lam)
        assert mid ** 2 <= riesz_mean(s, g1, lam) * riesz_mean(s, g2, lam) * (1 + 1e-12)


def _riesz_oracle(s, gamma: float, lam: float) -> float:
    """Direct sum over the values below lam, correctly rounded by fsum."""
    return math.fsum(m * (lam - v) ** gamma
                     for v, m in zip(s.values.tolist(), s.multiplicities.tolist()) if v < lam)


@st.composite
def _streams(draw):
    """A float stream (spread out or clustered) or an exact tabulated one,
    with its cutoff above the top value."""
    kind = draw(st.sampled_from(["float", "cluster", "exact"]))
    if kind == "float":
        values = sorted(set(draw(st.lists(st.floats(0.0, 1e3), min_size=0, max_size=60))))
        entries = [(v, draw(st.integers(1, 5))) for v in values]
    elif kind == "cluster":
        # values a relative 1e-12 .. 1e-3 apart, where lambda sits just above many of them
        center = draw(st.floats(1.0, 1e3))
        step = center * 10.0 ** -draw(st.integers(3, 12))
        offsets = sorted(set(draw(st.lists(st.integers(0, 50), min_size=1, max_size=30))))
        values = sorted({center + i * step for i in offsets})
        entries = [(v, draw(st.integers(1, 5))) for v in values]
    else:
        den = draw(st.integers(1, 40))
        nums = sorted(set(draw(st.lists(st.integers(0, 4000), min_size=0, max_size=60))))
        entries = [(Fraction(n, den), draw(st.integers(1, 5))) for n in nums]
    top = float(entries[-1][0]) if entries else 0.0
    return tabulated_spectrum(entries, top + draw(st.floats(1e-6, 50.0)))


@st.composite
def _lambdas(draw, s):
    """Unsorted lambdas with repeats, one to three leaves' worth of ``_LEAF``:
    jumps, 0, the cutoff, points in between and negative ones down to -inf."""
    special = [-math.inf, -1e300, -1.0, 0.0, s.cutoff, *s.values.tolist()]
    pool = st.one_of(st.sampled_from(special), st.floats(0.0, s.cutoff))
    lams = draw(st.lists(pool, min_size=_LEAF + 1, max_size=3 * _LEAF))
    return lams + draw(st.lists(st.sampled_from(lams), max_size=10))


GAMMAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 4.0))


@st.composite
def _riesz_cases(draw):
    s = draw(_streams())
    return s, draw(GAMMAS), draw(_lambdas(s))


# The oracle rounds each term m * (lam - v) ** gamma on its own, so in the
# subnormal range it can be off by whole units of 2**-1074: here it gives 30
# units where the exact sum is 30.7 and the kernel 31.  Below the smallest
# normal float the comparison is absolute; above it, relative.
@example(case=(tabulated_spectrum([(Fraction(0), 2)], 1.0), 2.0, [8.709188986541069e-162]))
@settings(max_examples=120, deadline=None)
@given(case=_riesz_cases())
def test_riesz_mean_many_matches_direct_sum(case):
    s, gamma, lams = case
    got = riesz_mean_many(s, gamma, lams)
    expected = [_riesz_oracle(s, gamma, lam) for lam in lams]
    assert got.shape == (len(lams),)
    assert got.tolist() == pytest.approx(expected, rel=1e-11, abs=sys.float_info.min)


def _riesz_oracle_many(s, gamma: float, lams) -> list[float]:
    """``_riesz_oracle`` at each lambda, each term rounded once by numpy."""
    memo = {}
    for lam in set(lams):
        below = s.values < lam
        memo[lam] = math.fsum((s.multiplicities[below] * (lam - s.values[below]) ** gamma).tolist())
    return [memo[lam] for lam in lams]


@st.composite
def _far_field_cases(draw):
    """Streams of 32 to 128 leaves' worth of values and lambdas in layouts a
    dyadic tree has to get right, so that gammas up to ``_FAR_GAMMA`` build
    three or more levels.

    Values are spread out, clustered, exact, spread over 1e-6 .. 1e6, or a
    dense cluster inside a sparse tail.  Lambdas are spread over the whole
    stream (with some at jumps, some about the first value, some negative
    down to -inf, and some draws holding many copies of one lambda), all in
    one leaf (within a thousandth
    of the gap between two values above the median one), or all above the
    last value."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["float", "cluster", "exact", "wide", "tail"]))
    n = draw(st.integers(32 * _LEAF, 128 * _LEAF))
    first = draw(st.floats(0.0, 50.0))
    if kind == "float":
        values = np.unique(rng.uniform(first, first + draw(st.floats(10.0, 1e4)), n))
    elif kind == "cluster":
        # clusters of values a relative 1e-12 .. 1e-3 apart
        centers = rng.uniform(first + 1.0, first + 1e3, n // 10)
        step = 10.0 ** -draw(st.integers(3, 12))
        values = np.unique(centers[:, None] * (1.0 + step * rng.integers(0, 50, (centers.size, 10))))
    elif kind == "wide":
        values = np.unique(10.0 ** rng.uniform(-6.0, 6.0, n))
    elif kind == "tail":
        # nine tenths of the values within a relative 1e-6 .. 1e-3 of one point
        center = rng.uniform(first + 1.0, first + 1e3)
        width = center * 10.0 ** -draw(st.integers(3, 6))
        values = np.unique(np.concatenate([rng.uniform(first, first + 2e3, n // 10),
                                           center + width * rng.random(n - n // 10)]))
    else:
        den = draw(st.integers(1, 40))
        values = [Fraction(int(k), den) for k in np.unique(rng.integers(0, 40 * n, n))]
    entries = list(zip(np.asarray(values).tolist(), rng.integers(1, 6, len(values)).tolist()))
    last = float(entries[-1][0])
    layout = draw(st.sampled_from(["spread", "leaf", "above"]))
    cutoff = 4.0 * last + 100.0 if layout == "above" else last + draw(st.floats(1e-6, 50.0))
    s = tabulated_spectrum(entries, cutoff)
    # gammas above _FAR_GAMMA take the direct sum
    gamma = draw(st.one_of(st.sampled_from([0.5, 1.5, 2.5, 6.5]),
                           st.floats(0.0, 8.0, exclude_min=True, exclude_max=True)))
    count = draw(st.integers(16 * _LEAF + 1, 24 * _LEAF))
    v0 = float(s.values[0])
    if layout == "spread":
        lams = np.concatenate([
            rng.uniform(0.0, cutoff, count),
            rng.choice(s.values, draw(st.integers(0, 8 * _LEAF))),
            rng.uniform(0.0, min(2.0 * v0 + 1e-9, cutoff), draw(st.integers(0, 8 * _LEAF))),
            [-math.inf, -1e300, -1.0, 0.0, v0, cutoff],
        ])
        if draw(st.booleans()):  # many copies of one lambda
            lams = np.concatenate([lams, np.full(16 * _LEAF, draw(st.sampled_from(lams.tolist())))])
    elif layout == "leaf":
        # between two values above the median one, a thousandth of their gap wide
        k = draw(st.integers(s.values.size // 2, s.values.size - 2))
        lo, hi = s.values[k], s.values[k + 1]
        lams = np.concatenate([[lo, hi], lo + (hi - lo) * rng.uniform(0.0, 1e-3, count)])
    else:
        lams = np.concatenate([[last, cutoff], rng.uniform(last, cutoff, count)])
    rng.shuffle(lams)
    return s, gamma, lams.tolist()


@settings(max_examples=60, deadline=None)
@given(case=_far_field_cases())
def test_riesz_mean_many_far_field_matches_direct_sum(case):
    s, gamma, lams = case
    depths = []
    far_field = riesz_module._far_field

    def recorded(*args):
        depths.append(args[-1])
        return far_field(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(riesz_module, "_far_field", recorded)
        got = riesz_mean_many(s, gamma, lams)
    expected = _riesz_oracle_many(s, gamma, lams)
    assert got.tolist() == pytest.approx(expected, rel=1e-11, abs=sys.float_info.min)
    # exact zeros at and below the first value
    assert not got[np.asarray(lams) <= s.values[0]].any()
    # the tree had a far field (levels 0, 1 and 2 at least) unless gamma
    # takes prefix moments or the direct sum
    assert bool(depths) == (gamma not in (1.0, 2.0) and gamma <= _FAR_GAMMA)


def test_riesz_mean_many_scratch_memory_at_scale():
    # a two-term scan of this box once peaked at 371 MB of RSS; the blocked
    # kernel's scratch for these 256 lambdas peaked at 42 MB
    s = box_spectrum([6.1, 8.7], "neumann", 2e4)
    assert s.values.size == 84_783
    lams = np.linspace(1.0, 2e4, 258)[1:-1]
    tracemalloc.start()
    try:
        got = riesz_mean_many(s, 1.5, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 42 * 2 ** 20
    assert got[::51].tolist() == pytest.approx(_riesz_oracle_many(s, 1.5, lams[::51]),
                                               rel=1e-11, abs=0.0)


@pytest.mark.parametrize("gamma", [0.5, 1.5, 2.5, 6.5])
@pytest.mark.parametrize("count", [1, 2, 16, 36])
def test_riesz_mean_many_few_lambdas_sum_directly(gamma, count):
    # at most _NODES terms per value: every value below each lambda, from
    # the first on, in slices of lambdas whose tops differ by at most a half;
    # the top third of 36 lambdas takes several slices of _SLICE terms
    s = box_spectrum([6.1, 8.7], "neumann", 2000.0)
    lams = np.concatenate([np.linspace(1999.0, 1.0, count), s.values[[100, 100]], [1998.5]])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(riesz_module, "_far_field", None)
        got = riesz_mean_many(s, gamma, lams)
    assert got.tolist() == pytest.approx(_riesz_oracle_many(s, gamma, lams.tolist()),
                                         rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.5, 6.5])
def test_riesz_mean_many_infinite_and_negative_lambdas(gamma):
    # the tree spans [values[0], max lambda]: a negative lambda in it once
    # left no dyadic root, an untyped OverflowError or, at -inf, a hang
    s = EigenvalueStream(np.arange(1.0, 2001.0), np.ones(2000, int), math.inf)
    lams = np.concatenate([[-math.inf, -1e300, -1.0, 0.0, 1.0, math.inf],
                           np.linspace(1.0, 2000.0, 100)])
    got = riesz_mean_many(s, gamma, lams)
    assert got[:5].tolist() == [0.0] * 5
    assert got[5] == math.inf
    assert got[6:].tolist() == pytest.approx(_riesz_oracle_many(s, gamma, lams[6:].tolist()),
                                             rel=1e-11, abs=0.0)


@pytest.mark.parametrize("gamma", [1.5, 2.5, 4.0])
@pytest.mark.parametrize("span", [1e-4, 2.0])
def test_riesz_mean_many_far_field_near_the_float_range(gamma, span):
    # values from 1e80 to 1e80 (1 + span): at gamma 4 the root's width to
    # the gamma overflows, and its product with the zero weights of absent
    # cousins once turned every mean NaN; at span 2 most true sums are inf
    values = 1e80 * (1.0 + span * np.arange(2000) / 2000)
    s = EigenvalueStream(values, np.ones(2000, int), 1e81)
    lams = np.concatenate([[values[0]], np.linspace(values[0], values[-1], 300)])
    with np.errstate(over="ignore"):
        got = riesz_mean_many(s, gamma, lams)
        expected = _riesz_oracle_many(s, gamma, lams.tolist())
    assert got[:2].tolist() == [0.0, 0.0]
    assert not np.isnan(got).any()
    assert got.tolist() == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_riesz_moments_do_not_cancel_above_a_cluster(gamma):
    # lambda * P_0 - P_1 about 0 lost every digit here (relative error 1.0 at gamma 2)
    s = EigenvalueStream(np.array([1.0, 1 + 1e-9, 1 + 2e-9, 2.0]), [3, 2, 1, 1], 3.0)
    lams = s.values[1:].tolist() + [1 + 3e-9]
    expected = [_riesz_oracle(s, gamma, lam) for lam in lams]
    assert riesz_mean_many(s, gamma, lams).tolist() == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_riesz_mean_many_edges(gamma):
    s = box_spectrum([1, 2], "neumann", 100.0)
    empty = riesz_mean_many(s, gamma, [])
    assert empty.shape == (0,) and empty.dtype == float
    assert riesz_mean_many(s, gamma, [0.0, 100.0]).tolist() == pytest.approx(
        [0.0, _riesz_oracle(s, gamma, 100.0)], rel=1e-12, abs=0.0)
    with pytest.raises(CoverageError):
        riesz_mean_many(s, gamma, [1.0, 100.5])
    with pytest.raises(CoverageError):
        riesz_mean(s, gamma, 100.5)
    with pytest.raises(DomainError):
        riesz_mean_many(s, -gamma - 0.5, [1.0])
    empty_stream = EigenvalueStream(np.array([]), np.array([], int), 10.0)
    assert riesz_mean_many(empty_stream, gamma, [0.0, 5.0, 10.0]).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_riesz_mean_nan_lambda_is_a_domain_error(gamma):
    # gamma 0 counted every eigenvalue at a NaN; gamma 1 and 1.5 returned nan
    s = box_spectrum([1, 1], "neumann", 100.0)
    with pytest.raises(DomainError):
        riesz_mean_many(s, gamma, [1.0, math.nan])
    with pytest.raises(DomainError):
        riesz_mean(s, gamma, math.nan)


# ---------------------------------------------------------------------------
# one-term bounds (theorems; negative margins are bugs)


def test_berezin_margin_examples():
    s = box_spectrum([1, 1], "dirichlet", 200.0)
    meta = box_meta([1, 1], "dirichlet")
    assert berezin_margin(s, meta, 1.0, 100.0) >= 0.0
    # below the first eigenvalue the sum is empty and the margin is the bound
    lam = 1.0
    assert berezin_margin(s, meta, 1.0, lam) == pytest.approx(
        l_gamma_d(1.0, 2) * 1.0 * lam ** 2)
    si = interval_spectrum(1, "dirichlet", 1.1e4)
    assert berezin_margin(si, interval_meta(1, "dirichlet"), 1.0, 1e4) >= 0.0


def test_berezin_requires_gamma_ge_1_and_dirichlet():
    s = box_spectrum([1, 1], "dirichlet", 50.0)
    meta = box_meta([1, 1], "dirichlet")
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            berezin_margin(s, meta, gamma, 10.0)
    with pytest.raises(ModeError):
        berezin_margin(s, box_meta([1, 1], "neumann"), 1.0, 10.0)


def test_laptev_margin_examples():
    sn = box_spectrum([1, 1], "neumann", 200.0)
    meta = box_meta([1, 1], "neumann")
    assert laptev_neumann_margin(sn, meta, 1.0, 100.0) >= 0.0
    # as lambda -> 0+ only the zero mode contributes: margin ~ lam^g - O(lam^(g+d/2))
    lam = 1e-6
    m = laptev_neumann_margin(sn, meta, 1.0, lam)
    assert 0.0 < m < lam * 1.000001
    b12 = box_spectrum([1, 2], "neumann", 100.0)
    assert laptev_neumann_margin(b12, box_meta([1, 2], "neumann"), 1.5, 50.0) >= 0.0
    for gamma in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            laptev_neumann_margin(sn, meta, gamma, 10.0)


def test_one_term_margins_at_all_jumps(unit_square_dirichlet, unit_square_neumann,
                                       box12_dirichlet, box12_neumann):
    for (s, meta) in (unit_square_dirichlet, box12_dirichlet):
        lams = s.values[s.values <= 1e3]
        for gamma in (1.0, 1.5, 2.0):
            bound = l_gamma_d(gamma, 2) * meta.volume * lams ** (gamma + 1.0)
            margins = bound - riesz_mean_many(s, gamma, lams)
            assert margins.min() >= 0.0
    for (s, meta) in (unit_square_neumann, box12_neumann):
        lams = s.values[(s.values > 0) & (s.values <= 1e3)]
        for gamma in (1.0, 1.5, 2.0):
            bound = l_gamma_d(gamma, 2) * meta.volume * lams ** (gamma + 1.0)
            margins = riesz_mean_many(s, gamma, lams) - bound
            assert margins.min() >= 0.0


# ---------------------------------------------------------------------------
# Li-Yau and Kroger


def test_li_yau_unit_square_first_mode():
    s = box_spectrum([1, 1], "dirichlet", 100.0)
    meta = box_meta([1, 1], "dirichlet")
    sum_margin, eigen_margin = li_yau_checks(s, meta, 1)
    assert sum_margin == pytest.approx(2 * PI2 - 0.5 * 4 * PI2 / PI)
    assert eigen_margin == pytest.approx(sum_margin)
    assert sum_margin > 0


def test_li_yau_interval_first_mode():
    s = interval_spectrum(1, "dirichlet", 100.0)
    meta = interval_meta(1, "dirichlet")
    _, eigen_margin = li_yau_checks(s, meta, 1)
    assert eigen_margin == pytest.approx(PI2 - PI2 / 3.0)


def test_li_yau_scaling_leaves_margin_sign_invariant():
    for scale in (0.5, 1.0, 2.0):
        s = box_spectrum([scale, scale], "dirichlet", 400.0 / scale ** 2)
        meta = box_meta([scale, scale], "dirichlet")
        for k in (1, 3, 7):
            sm, em = li_yau_checks(s, meta, k)
            assert sm > 0 and em > 0


def test_li_yau_insufficient_eigenvalues():
    s = interval_spectrum(1, "dirichlet", 50.0)
    with pytest.raises(CoverageError):
        li_yau_checks(s, interval_meta(1, "dirichlet"), 10)


@pytest.mark.parametrize("sides", [[1, 1], [1, 1, 1], [1.3, 2.7]])
def test_li_yau_and_kroger_read_the_expanded_stream(sides):
    # the k-th eigenvalue and the k-th partial sum, bit for bit as read off
    # the whole expanded stream
    for bc, check in (("dirichlet", li_yau_checks), ("neumann", kroger_check)):
        s = box_spectrum(sides, bc, 400.0)
        meta = box_meta(sides, bc)
        eigs = s.expanded()
        d = meta.dimension
        w = float(polya_weyl_term(meta, 1))
        top = eigs.size if bc == "dirichlet" else eigs.size - 1
        for k in range(1, top + 1):
            if bc == "dirichlet":
                factor = d / (d + 2.0)
                assert check(s, meta, k) == (
                    float(np.sum(eigs[:k])) - factor * w * k ** ((d + 2.0) / d),
                    float(eigs[k - 1]) - factor * w * k ** (2.0 / d))
            else:
                bound = ((d + 2.0) / 2.0) ** (2.0 / d) * w * k ** (2.0 / d)
                assert check(s, meta, k) == bound - float(eigs[k])
        with pytest.raises(CoverageError):
            check(s, meta, top + 1)


def test_kroger_unit_square_first_mode():
    s = box_spectrum([1, 1], "neumann", 100.0)
    meta = box_meta([1, 1], "neumann")
    assert kroger_check(s, meta, 1) == pytest.approx(8.0 * PI - PI2)


def test_kroger_rejects_closed_and_needs_zero_mode():
    s = sphere2_spectrum(100.0)
    with pytest.raises(ModeError):
        kroger_check(s, sphere2_meta(), 1)


def test_kroger_cube_k5():
    s = box_spectrum([1, 1, 1], "neumann", 300.0)
    assert kroger_check(s, box_meta([1, 1, 1], "neumann"), 5) >= 0.0


def test_kroger_range_error():
    s = box_spectrum([1, 1], "neumann", 15.0)
    with pytest.raises(CoverageError):
        kroger_check(s, box_meta([1, 1], "neumann"), 100)


# ---------------------------------------------------------------------------
# two-term Riesz scans


def test_two_term_scan_square_dirichlet():
    s = box_spectrum([1, 1], "dirichlet", 1.1e4)
    meta = box_meta([1, 1], "dirichlet")
    scan = two_term_riesz_scan(s, meta, 1.0, 1e4)
    assert scan.lambda_star is not None
    tail = [m for (lam, _, _, m) in scan.points if lam >= scan.lambda_star]
    assert all(m >= 0 for m in tail)
    assert scan.points[-1][3] >= 0


def test_two_term_scan_box_neumann():
    s = box_spectrum([1, 2], "neumann", 1.1e4)
    meta = box_meta([1, 2], "neumann")
    scan = two_term_riesz_scan(s, meta, 1.0, 1e4)
    assert scan.lambda_star is not None
    assert scan.points[-1][3] >= 0


def test_two_term_scan_requires_surface_area():
    s = sphere2_spectrum(100.0)
    from polyaspec.spectra import DomainMeta

    meta = DomainMeta(2, 4 * PI, "dirichlet")
    with pytest.raises(ConfigError):
        two_term_riesz_scan(s, meta, 1.0, 50.0)


def test_two_term_scan_small_lambda_reported_not_asserted():
    s = box_spectrum([1, 1], "neumann", 100.0)
    meta = box_meta([1, 1], "neumann")
    scan = two_term_riesz_scan(s, meta, 1.0, 50.0)
    # margins near zero exist (the zero mode region); they are data, not failures
    assert isinstance(scan.worst_margin, float)


def test_two_term_scan_ending_below_the_bound_has_no_onset():
    # the unit square's first three Dirichlet values, the second 50 times
    # over: the margin holds at the first two jumps and breaks at the last
    s = box_spectrum([1, 1], "dirichlet", 100.0)
    s = EigenvalueStream(s.values[:3], [1, 50, 1], 100.0)
    scan = two_term_riesz_scan(s, box_meta([1, 1], "dirichlet"), 1.0, 90.0)
    margins = scan.points[:, 3]
    assert scan.points[:, 0].tolist() == s.values.tolist()
    assert (margins[:-1] >= 0).all() and margins[-1] < 0
    assert scan.lambda_star is None
    assert (scan.worst_margin, scan.worst_lambda) == (margins[-1], s.values[-1])


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_two_term_scan_coverage_errors(bc):
    # the first positive value is 2 pi^2 (Dirichlet) or pi^2 (Neumann)
    s, meta = box_spectrum([1, 1], bc, 100.0), box_meta([1, 1], bc)
    with pytest.raises(CoverageError, match="exceeds stream cutoff 100.0"):
        two_term_riesz_scan(s, meta, 1.0, 100.5)
    with pytest.raises(CoverageError, match="no positive jump points"):
        two_term_riesz_scan(s, meta, 1.0, 9.5)


def _dense_reference(s, gamma, lams, idx):
    """The plain direct sum in place of ``riesz._riesz_tree``: blocks of 32
    sorted lambdas, each summing the gaps to every value below its top
    lambda."""
    order = np.argsort(lams, kind="stable")
    tops = idx[order]
    mults = s.multiplicities.astype(float)
    out = np.empty(lams.size)
    for start in range(0, lams.size, 32):
        rows = order[start:start + 32]
        k = int(tops[start + rows.size - 1])
        gaps = np.maximum(lams[rows, None] - s.values[None, :k], 0.0)
        out[rows] = gaps ** gamma @ mults[:k]
    return out


#: float shapes of the Riesz benchmark: sides, bc, cutoff (5-8k values)
SCAN_SHAPES = {
    "rect-d": ((7.3, 5.1), "dirichlet", 2400.0),
    "rect-n": ((6.1, 8.7), "neumann", 1700.0),
    "box-d": ((3.7, 2.9, 2.3), "dirichlet", 560.0),
    "box-n": ((4.1, 3.3, 2.6), "neumann", 420.0),
}


@pytest.mark.parametrize("shape", SCAN_SHAPES)
def test_scans_match_the_dense_reference(shape, monkeypatch):
    sides, bc, cutoff = SCAN_SHAPES[shape]
    s = box_spectrum(list(sides), bc, cutoff * 1.0001)
    meta = box_meta(list(sides), bc)

    def fast_and_dense(scan):
        fast = scan()
        with monkeypatch.context() as m:
            m.setattr(riesz_module, "_riesz_tree", _dense_reference)
            return fast, scan()

    # two-term scans need gamma >= 1
    for gamma in (1.5, 2.5):
        fast, dense = fast_and_dense(lambda: two_term_riesz_scan(s, meta, gamma, cutoff))
        assert (fast.lambda_star, fast.worst_lambda, len(fast.points)) == (
            dense.lambda_star, dense.worst_lambda, len(dense.points))
        assert fast.worst_margin == pytest.approx(dense.worst_margin, rel=1e-12, abs=0.0)
    # R_{d2/2} in the infima, R_{(d2-1)/2} in the supremum
    scans = ([(window_infimum_dirichlet, 0)] if bc == "dirichlet"
             else [(window_infimum_neumann, 0), (window_supremum_neumann, 1)])
    for gamma in (0.5, 1.5, 2.5):
        for fn, shift in scans:
            d2 = int(2 * gamma) + shift
            fast, dense = fast_and_dense(lambda: fn(s, meta, d2, (0.3 * cutoff, 0.9 * cutoff)))
            assert fast.mu == dense.mu
            assert fast.value == pytest.approx(dense.value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# window scans for the product-argument gap constants


def test_window_infimum_dirichlet_positive_for_square():
    s = box_spectrum([1, 1], "dirichlet", 150.0)
    meta = box_meta([1, 1], "dirichlet")
    scan = window_infimum_dirichlet(s, meta, d2=2, window=(2 * PI2, 100.0))
    assert scan.value > 0.0
    assert 2 * PI2 <= scan.mu <= 100.0


def test_window_infimum_neumann_positive_for_square():
    s = box_spectrum([1, 1], "neumann", 150.0)
    meta = box_meta([1, 1], "neumann")
    scan = window_infimum_neumann(s, meta, d2=2, window=(PI2, 100.0))
    assert scan.value > 0.0


def test_window_supremum_neumann_finite():
    s = box_spectrum([1, 1], "neumann", 150.0)
    meta = box_meta([1, 1], "neumann")
    scan = window_supremum_neumann(s, meta, d2=2, window=(PI2, 100.0))
    assert scan.value > 0.0
    assert math.isfinite(scan.value)


def test_window_scan_coverage_error():
    s = box_spectrum([1, 1], "neumann", 50.0)
    meta = box_meta([1, 1], "neumann")
    with pytest.raises(CoverageError):
        window_supremum_neumann(s, meta, d2=2, window=(1.0, 100.0))


@pytest.mark.parametrize("window, grid", [((1.0, 10.0), 10), ((1.0, 10.0), 19),
                                          ((0.5, 7.25), 28), ((2.5, 3.0), 2)])
def test_window_grid_merges_jumps_on_grid_points(window, grid):
    """Jumps on grid points, between them and at the window ends are each
    scanned once, as np.unique of the grid and the jumps would have them."""
    s = tabulated_spectrum([(v, 1) for v in (1, 2, "5/2", 3, 4, 7, 10)], 12.0)
    mus = riesz_module._window_grid(s, *window, grid=grid)
    jumps = s.values[(s.values >= window[0]) & (s.values <= window[1])]
    assert mus.tolist() == np.unique(np.concatenate([np.linspace(*window, grid), jumps])).tolist()
