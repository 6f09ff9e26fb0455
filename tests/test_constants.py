import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaspec import (
    ConfigError,
    DomainError,
    ThresholdCase,
    ThresholdRequest,
    a_d_const,
    b_d_const,
    c_d,
    check_lemma42,
    fd_integral,
    fd_profile,
    h1,
    h2,
    l_gamma_d,
    omega_d,
    threshold_a0,
)
from polyaspec.constants import _square_deficit_objective, omega_d_exact

PI = math.pi

# golden values from the grid (step 1e-4) + golden-section refinement oracle
GOLDEN_H = {
    ("h1", 3): (0.4794871603683248, 1.999999999),
    ("h2", 3): (0.40677783477152907, 1.0461840625380403),
}


# ---------------------------------------------------------------------------
# closed-form constants


def test_c2_exact():
    assert c_d(2) == 1.0 / (4.0 * PI)


def test_c3_value():
    assert c_d(3) == pytest.approx(1.0 / (6.0 * PI ** 2), rel=1e-15)


def test_l0_equals_cd_exact():
    for d in range(1, 9):
        assert l_gamma_d(0.0, d) == c_d(d)


def test_l_1_1():
    assert l_gamma_d(1.0, 1) == pytest.approx(2.0 / (3.0 * PI), rel=1e-14)


def test_omega_values():
    assert omega_d(1) == 2.0
    assert omega_d(2) == pytest.approx(PI, rel=1e-15)
    assert omega_d(3) == pytest.approx(4.0 * PI / 3.0, rel=1e-15)


def test_product_identity_to_1e12():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            lhs = c_d(d2) * l_gamma_d(d2 / 2.0, d1)
            rhs = c_d(d1 + d2)
            assert abs(lhs - rhs) / rhs < 1e-12


def test_weyl_constant_submultiplicative():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            assert c_d(d1 + d2) < c_d(d1) * c_d(d2)
    assert c_d(3) * PI < c_d(2)
    assert c_d(5) < c_d(2) * c_d(3)


def test_lgamma_fallback_matches_exact_nearby():
    # a non-half-integer gamma lands near the half-integer value
    assert l_gamma_d(1.5, 2) == pytest.approx(l_gamma_d(1.5000001, 2), rel=1e-5)
    for gamma in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            l_gamma_d(gamma, 2)


@pytest.mark.parametrize("fn, args, last", [
    (omega_d, (1242,), None),
    (c_d, (1241,), None),
    (lambda d, gamma=1.0: l_gamma_d(gamma, d), (1241,), None),
    (lambda d, gamma=1.3: l_gamma_d(gamma, d), (561,), None),
    # the first dimensions whose value underflows to 0.0, which they read
    # with no error, and the last ones with a (subnormal) value
    (omega_d, (453,), (452,)),
    (c_d, (236,), (235,)),
    (lambda d, gamma=1.0: l_gamma_d(gamma, d), (235,), (234,)),
    (lambda d, gamma=1.3: l_gamma_d(gamma, d), (234,), (233,)),
])
def test_constants_past_float_range_are_domain_errors(fn, args, last):
    # a power of pi past float range was a bare OverflowError
    with pytest.raises(DomainError, match=f"d = {args[0]} leaves float range"):
        fn(*args)
    if last is not None:
        assert 0.0 < fn(*last) < math.inf


def _mp_omega(d: int):
    return mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 50, 200, 343, 344, 350, 355, 356, 400, 440, 452])
def test_omega_d_against_mpmath(d):
    """omega_d to a few ulps of the normal range wherever it is a normal
    float, the error of math.pi**(d / 2) included: its coefficient
    1 / Gamma(d / 2 + 1) is subnormal from d = 344 and 0.0 from d = 356 on,
    and once read 30% off at d = 355 and 0.0 from 356 to 1240."""
    with mpmath.workdps(40):
        exact = _mp_omega(d)
        got = omega_d(d)
        coeff = omega_d_exact(d)
        if float(coeff.coeff) >= np.finfo(float).tiny:
            # bit for bit the plain product where the coefficient is normal
            assert got == float(coeff.coeff) * PI ** coeff.pi_power
        if exact >= mpmath.mpf(np.finfo(float).tiny):
            assert abs(got - exact) <= 2e-14 * exact
        else:
            # subnormal: within a unit of the last place the grid has there
            assert abs(got - exact) <= mpmath.mpf(2.0) ** -1074


@pytest.mark.parametrize("d", [100, 200, 230, 235])
def test_c_d_and_l_gamma_d_against_mpmath(d):
    with mpmath.workdps(40):
        for gamma in (0.0, 1.0, 1.5, 1.3):
            exact = (mpmath.gamma(gamma + 1) / ((4 * mpmath.pi) ** (mpmath.mpf(d) / 2)
                                                * mpmath.gamma(gamma + 1 + mpmath.mpf(d) / 2)))
            try:
                got = l_gamma_d(gamma, d)
            except DomainError:
                # only a true underflow
                assert exact < mpmath.mpf(2.0) ** -1075
                continue
            tol = max(2e-14 * exact, mpmath.mpf(2.0) ** -1074)
            assert abs(got - exact) <= tol, (gamma, got, exact)
        assert c_d(d) == l_gamma_d(0.0, d)


# ---------------------------------------------------------------------------
# profile function and its integral


def test_fd_integral_reference_value():
    assert fd_integral(2, PI, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_fd_integral_vanishes_at_zero():
    for d in range(1, 7):
        assert fd_integral(d, 1.0, 0.0) == 0.0


def test_fd_integral_against_quadrature(rng):
    for _ in range(25):
        d = int(rng.integers(1, 7))
        a = float(rng.uniform(0.1, 5.0))
        lam = float(rng.uniform(0.1, 1e4))
        closed = fd_integral(d, a, lam)
        with mpmath.workdps(30):
            b = a * mpmath.sqrt(lam) / mpmath.pi

            def f(x):
                v = lam - x * x * mpmath.pi ** 2 / a ** 2
                return v ** (mpmath.mpf(d) / 2) if v > 0 else mpmath.mpf(0)

            oracle = float(mpmath.quad(f, [0, b]))
        assert abs(closed - oracle) / oracle < 1e-10


def test_fd_profile_decreasing_on_support():
    a, lam, d = 1.7, 23.0, 4
    xs = np.linspace(0.0, a * math.sqrt(lam) / PI, 500)
    vals = fd_profile(xs, d, a, lam)
    assert np.all(np.diff(vals) <= 0)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_fd_inflection_location(d):
    # locate the sign change of the second difference by bisection
    a, lam = 2.0, 9.0
    b = a * math.sqrt(lam) / PI
    h = 1e-5 * b

    def second_diff(x):
        return fd_profile(x - h, d, a, lam) - 2 * fd_profile(x, d, a, lam) + fd_profile(x + h, d, a, lam)

    lo, hi = 2 * h, b - 2 * h
    assert second_diff(lo) < 0 < second_diff(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if second_diff(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * b:
            break
    found = 0.5 * (lo + hi)
    expected = math.sqrt(lam / (d - 1)) * a / PI
    assert abs(found - expected) < 1e-6


# ---------------------------------------------------------------------------
# interval mode-sum bounds


def test_lemma42_reference_point():
    r = check_lemma42(PI, 1.0)
    assert r.terms == 1
    assert r.sum_from_one == pytest.approx(0.0, abs=1e-14)
    assert r.upper_bound == pytest.approx(2.0 / 3.0 - 1.0 / 8.0 - 1.0 / 12.0)
    assert r.sum_from_zero == pytest.approx(1.0)
    assert r.lower_bound == pytest.approx(2.0 / 3.0 + 1.0 / 12.0)
    assert r.sum_from_one <= r.upper_bound
    assert r.sum_from_zero >= r.lower_bound


def test_lemma42_hypothesis_violation():
    with pytest.raises(DomainError):
        check_lemma42(1.0, 0.5 * PI ** 2)
    with pytest.raises(DomainError):
        check_lemma42(-1.0, 100.0)


def test_lemma42_closed_form_matches_direct_sum(rng):
    for _ in range(200):
        a = float(rng.uniform(0.05, 10.0))
        lam = float(rng.uniform(PI ** 2 / a ** 2, PI ** 2 / a ** 2 * 400))
        r = check_lemma42(a, lam)
        direct = sum(lam - l * l * PI ** 2 / a ** 2 for l in range(1, r.terms + 1))
        assert r.sum_from_one == pytest.approx(direct, rel=1e-9, abs=1e-9 * lam)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1e-3, 10.0), t=st.floats(0.0, 1.0))
def test_lemma42_inequalities_fuzz(a, t):
    lam_lo = PI ** 2 / a ** 2
    lam = lam_lo * (1e8 / lam_lo) ** t
    r = check_lemma42(a, lam)
    assert r.sum_from_one <= r.upper_bound
    assert r.sum_from_zero >= r.lower_bound


# ---------------------------------------------------------------------------
# extremal constants


def test_b3_unit_volume():
    assert b_d_const(3, 1.0) == pytest.approx(1.0 / (324.0 * PI ** 2), rel=1e-14)


def test_a3_unit_volume():
    expected = 0.5 * (1.0 - (7.0 / 8.0) ** 1.5) / (6.0 * PI ** 2)
    assert a_d_const(3, 1.0) == pytest.approx(expected, rel=1e-14)


def test_ab_positive_and_guarded():
    for d in range(3, 11):
        assert a_d_const(d, 2.5) > 0
        assert b_d_const(d, 2.5) > 0
    for bad in (1, 2):
        with pytest.raises(DomainError):
            a_d_const(bad, 1.0)
        with pytest.raises(DomainError):
            b_d_const(bad, 1.0)


@pytest.mark.parametrize("fn, first, zero", [(a_d_const, 225, 235), (b_d_const, 173, 181)])
def test_gains_past_normal_range_are_domain_errors(fn, first, zero):
    # the gains read a subnormal from ``first`` and 0.0 from ``zero``, with
    # no error; the dimension before keeps its value, bit for bit
    for d in (first, zero):
        with pytest.raises(DomainError, match=f"d = {d} leaves float range"):
            fn(d, 1.0)
    last = first - 1
    gain = (0.5 * (1.0 - ((4 * last - 5) / (4 * last - 4)) ** (last / 2.0))
            if fn is a_d_const else 0.5 * 3.0 ** (-last))
    assert fn(last, 1.0) == gain * c_d(last) >= sys.float_info.min


def test_h1_objective_at_one_is_3pi_over_16():
    obj = _square_deficit_objective(3, include_zero=False, sign=-1)
    assert obj(np.array([1.0]))[0] == pytest.approx(3.0 * PI / 16.0, abs=1e-10)


def test_h_golden_values():
    for (name, d), (value, mu) in GOLDEN_H.items():
        res = h1(d) if name == "h1" else h2(d)
        assert res.value == pytest.approx(value, abs=1e-8)
        assert res.mu == pytest.approx(mu, abs=1e-4)
        assert res.error_estimate <= 1e-8


def test_h_stable_under_grid_halving():
    for fn in (h1, h2):
        coarse = fn.__wrapped__(3, 1e-4).value
        fine = fn.__wrapped__(3, 5e-5).value
        assert abs(coarse - fine) < 1e-6


def test_h_positive_for_d_3_to_8():
    for d in range(3, 9):
        assert h1(d).value > 0
        assert h2(d).value > 0


@pytest.mark.parametrize("fn, first", [(h1, 256), (h2, 190)])
def test_h_past_float_range_is_a_domain_error(fn, first):
    """From these dimensions the objective overflows at the upper end of the
    search (d - 1 for h1, 9 (d - 1) for h2), so it subtracted inf from inf
    on every grid point, with RuntimeWarnings, for 20 s at d = 200.  The
    dimension before keeps its value, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{fn.__name__} at d = {first} leaves float"):
            fn.__wrapped__(first, 1e-2)
        assert 0 < fn.__wrapped__(first - 1, 1e-2).value < math.inf


def test_h_requires_d_at_least_3():
    with pytest.raises(DomainError):
        h1(2)
    with pytest.raises(DomainError):
        h2(2)


def test_h1_achieves_right_endpoint_limit_for_d3():
    assert h1(3).mu == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_manifold_d2():
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.MANIFOLD_DIRICHLET_D1EQ1_D2EQ2, volume=4 * PI, c_remainder=1.0))
    assert res.branches["zero_mode_absorption"] == pytest.approx(PI / math.sqrt(12.0))
    assert res.branches["seeley_tradeoff"] == pytest.approx(0.5)
    assert res.a0 == pytest.approx(0.5)
    assert res.binding_branch == "seeley_tradeoff"
    assert res.complete


def test_threshold_neumann_d2_first_branch_is_pi_over_24():
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.NEUMANN_THIN_D2, volume=4 * PI, c_remainder=1.0))
    assert res.branches["seeley_tradeoff"] == pytest.approx(PI / 24.0, rel=1e-15)
    assert res.branches["small_lambda"] is None
    assert not res.complete
    assert any("not supplied" in c for c in res.conditional_on)

    res_full = threshold_a0(ThresholdRequest(
        ThresholdCase.NEUMANN_THIN_D2, volume=4 * PI, c_remainder=1.0, c1_onset=6.0))
    assert res_full.complete
    assert res_full.branches["small_lambda"] == pytest.approx(
        1.0 / (c_d(3) * 4 * PI * 6.0 ** 1.5))
    assert res_full.a0 == pytest.approx(PI / 24.0)


def test_threshold_dirichlet_d2_square_triangle():
    volume = 100.0 + math.sqrt(3.0) / 4.0
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.DIRICHLET_THIN_D2, volume=volume, c_remainder=50.0))
    assert res.a0 == pytest.approx(volume / (400.0 * PI), rel=1e-15)
    assert res.a0 >= 1.0 / (4.0 * PI)


def test_threshold_dirichlet_d3plus_wiring():
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.DIRICHLET_THIN_D3PLUS, volume=2.0, c_remainder=3.0, dimension=4))
    a4 = a_d_const(4, 2.0)
    assert res.branches["large_lambda"] == pytest.approx(a4 * c_d(3) / (3.0 * c_d(4)))
    assert res.branches["mid_lambda"] == pytest.approx(c_d(3) * 2.0 * h1(4).value / 3.0)
    assert res.a0 == min(res.branches.values())


def test_threshold_neumann_d3plus_wiring():
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.NEUMANN_THIN_D3PLUS, volume=1.5, c_remainder=2.0,
        c1_onset=4.0, dimension=3))
    b3 = b_d_const(3, 1.5)
    h2v = h2(3).value
    assert res.branches["large_lambda_sum"] == pytest.approx(b3 * c_d(2) / (4.0 * c_d(3)))
    assert res.branches["large_lambda_tail"] == pytest.approx(3 * PI * math.sqrt(2.0) * b3 / 4.0)
    assert res.branches["mid_lambda_sum"] == pytest.approx(c_d(2) * 1.5 * h2v / 4.0)
    assert res.branches["mid_lambda_tail"] == pytest.approx(PI * c_d(3) * 1.5 * h2v / 4.0)
    assert res.branches["small_lambda"] == pytest.approx(1.0 / (c_d(4) * 1.5 * 16.0))
    assert len(res.branches) == 5
    assert res.a0 == min(v for v in res.branches.values())


def test_threshold_neumann_d3plus_without_onset_is_incomplete():
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.NEUMANN_THIN_D3PLUS, volume=1.5, c_remainder=2.0, dimension=3))
    full = threshold_a0(ThresholdRequest(
        ThresholdCase.NEUMANN_THIN_D3PLUS, volume=1.5, c_remainder=2.0,
        c1_onset=4.0, dimension=3))
    assert res.branches["small_lambda"] is None and not res.complete
    assert res.conditional_on == (
        "two-term remainder constant C",
        "existence of a finite Weyl onset constant (not supplied)")
    known = {k: v for k, v in full.branches.items() if k != "small_lambda"}
    assert {k: v for k, v in res.branches.items() if k != "small_lambda"} == known
    assert res.a0 == min(known.values())
    assert res.binding_branch == min(known, key=known.get)


def test_threshold_manifold_d3plus_wiring():
    res = threshold_a0(ThresholdRequest(
        ThresholdCase.MANIFOLD_DIRICHLET_D1EQ1_D2GE3, volume=4.0, c_remainder=1.5, dimension=3))
    a3 = a_d_const(3, 4.0)
    h1v = h1(3).value
    assert res.branches["large_lambda_zero_mode"] == pytest.approx(
        PI * (0.5 * a3) ** (1.0 / 3.0) * 2.0 ** (1.0 / 3.0))
    assert res.branches["large_lambda_tail"] == pytest.approx(a3 * c_d(2) / (3.0 * c_d(3)))
    assert res.branches["mid_lambda_zero_mode"] == pytest.approx(
        PI * (0.5 * c_d(3) * 4.0 * h1v) ** (1.0 / 3.0))
    assert res.branches["mid_lambda_tail"] == pytest.approx(c_d(2) * 4.0 * h1v / 3.0)


def test_threshold_config_errors():
    with pytest.raises(ConfigError):
        threshold_a0(ThresholdRequest(
            ThresholdCase.DIRICHLET_THIN_D2, volume=-1.0, c_remainder=1.0))
    with pytest.raises(ConfigError):
        threshold_a0(ThresholdRequest(
            ThresholdCase.DIRICHLET_THIN_D2, volume=1.0, c_remainder=0.0))
    with pytest.raises(ConfigError):
        threshold_a0(ThresholdRequest(
            ThresholdCase.DIRICHLET_THIN_D3PLUS, volume=1.0, c_remainder=1.0))
    with pytest.raises(ConfigError):
        threshold_a0(ThresholdRequest(
            ThresholdCase.NEUMANN_THIN_D3PLUS, volume=1.0, c_remainder=1.0,
            c1_onset=-2.0, dimension=3))
