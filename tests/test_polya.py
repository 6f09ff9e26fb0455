import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyaspec import (
    CountingFunction,
    SumCountingFunction,
    CoverageError,
    DomainError,
    ModeError,
    box_meta,
    box_spectrum,
    interval_meta,
    interval_spectrum,
    polya_weyl_term,
    product_meta,
    product_spectrum,
    sphere2_meta,
    sphere2_spectrum,
    tabulated_spectrum,
    triangle_meta,
    triangle_neumann_spectrum,
    verify_counting_bound,
    verify_dirichlet,
    verify_exact_power,
    verify_neumann,
    weyl_leading,
)
from polyaspec import polya
from polyaspec.pivals import PiRational
from polyaspec.polya import (
    EQUALITY_BAND_FLOAT,
    GUARD_BAND,
    VerificationReport,
    _exact_sign,
    _exact_terms,
    _sweep_range,
    per_eigenvalue_margins,
    polya_constant_exact,
)
from polyaspec.reproduce import rationalized_polya_constant
from polyaspec.spec import build_spec, stream_covering_k
from polyaspec.spectra import _INT64_GUARD, DomainMeta, EigenvalueStream

PI = math.pi
PI2 = math.pi ** 2
SQRT23PI = math.sqrt(2.0 / 3.0) * PI


def thin_sphere(a, bc, cutoff):
    s = product_spectrum(
        interval_spectrum(a, bc, cutoff), sphere2_spectrum(cutoff), cutoff)
    meta = product_meta(interval_meta(a, bc), sphere2_meta())
    return s, meta


# ---------------------------------------------------------------------------
# per-eigenvalue verification


def test_thin_sphere_dirichlet_holds_small_k():
    s, meta = thin_sphere("pi/24", "dirichlet", 3000.0)
    rep = verify_dirichlet(s, meta, 2000)
    assert rep.holds and rep.checked == 2000
    assert rep.worst_margin > 0


def test_thin_sphere_neumann_holds_small_k():
    s, meta = thin_sphere("pi/24", "neumann", 3000.0)
    rep = verify_neumann(s, meta, 2000)
    assert rep.holds and rep.checked == 2000


def test_unit_square_dirichlet_holds():
    cutoff = 1.4e5  # covers comfortably more than 10^4 eigenvalues
    s = box_spectrum([1, 1], "dirichlet", cutoff)
    rep = verify_dirichlet(s, box_meta([1, 1], "dirichlet"), 10_000)
    assert rep.holds
    assert rep.checked == 10_000


def test_unit_square_neumann_holds():
    cutoff = 1.4e5
    s = box_spectrum([1, 1], "neumann", cutoff)
    rep = verify_neumann(s, box_meta([1, 1], "neumann"), 10_000)
    assert rep.holds
    assert rep.checked == 10_000


def test_large_a_dirichlet_fails_at_k1():
    s, meta = thin_sphere(PI, "dirichlet", 5.0)
    rep = verify_dirichlet(s, meta, 1)
    assert not rep.holds
    assert rep.failures[0][0] == 1.0
    assert rep.failures[0][1] == pytest.approx(1.0)  # pi^2 / a^2 with a = pi


def test_mid_a_neumann_fails_at_k1():
    a = 0.99 * SQRT23PI
    assert PI / math.sqrt(2) <= a < SQRT23PI
    s, meta = thin_sphere(a, "neumann", 5.0)
    rep = verify_neumann(s, meta, 1)
    assert not rep.holds
    assert rep.failures[0][1] == pytest.approx(PI2 / a ** 2)


def test_truncation_is_reported_honestly():
    s, meta = thin_sphere("pi/24", "dirichlet", 600.0)
    rep = verify_dirichlet(s, meta, 10_000)
    assert rep.truncated
    assert rep.checked == s.total_count
    assert rep.holds  # only over the checked range


def test_verify_dirichlet_rejects_zero_mode():
    s = sphere2_spectrum(10.0)
    with pytest.raises(ModeError):
        verify_dirichlet(s, sphere2_meta(), 5)


def test_verify_neumann_needs_zero_mode():
    s = interval_spectrum(1, "dirichlet", 50.0)
    with pytest.raises(ModeError):
        verify_neumann(s, interval_meta(1, "dirichlet"), 1)


def test_empty_stream_nothing_to_check():
    s = tabulated_spectrum([], 1.0)
    with pytest.raises(CoverageError):
        verify_dirichlet(s, DomainMeta(2, 1.0, "dirichlet"), 1)


def test_interval_polya_is_equality_for_all_lengths():
    # 1-D Dirichlet: lambda_k = k^2 pi^2 / a^2 equals the Weyl term exactly
    verdicts = []
    for a in (0.1, 1.0, 10.0):
        s = interval_spectrum(a, "dirichlet", (1001 * PI / a) ** 2)
        rep = verify_dirichlet(s, interval_meta(a, "dirichlet"), 1000)
        verdicts.append(rep.verdict)
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-11)
        assert rep.tie_breaks > 0  # the guard band must have engaged
    assert len(set(verdicts)) == 1 and verdicts[0] == "holds"


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", ["pi/24", "pi/3", "2pi/7", "pi"])
def test_exact_interval_equality_is_a_tie_not_a_failure(a, bc):
    # exact values against a Weyl term from the exact volume: the equality
    # is settled inside the exact tie band, not failed by float volume error
    meta = interval_meta(a, bc)
    s = interval_spectrum(a, bc, (21 * PI / meta.volume) ** 2)
    rep = (verify_dirichlet if bc == "dirichlet" else verify_neumann)(s, meta, 20)
    assert rep.holds and rep.checked == 20
    assert rep.tie_breaks > 0


def test_exact_pi_power_near_violation_fails():
    # w_k = pi^2 k^2 on the unit interval; the first value sits 1e-13 below
    # it, under the float tie band, so only the exact tie band rejects it
    den = 10 ** 13
    nums = [den - 1, 4 * den, 9 * den]
    values = np.array([n / den * PI2 for n in nums])
    s = EigenvalueStream(values, [1, 1, 1], 100.0, np.array(nums), den, 2)
    rep = verify_dirichlet(s, interval_meta(1, "dirichlet"), 3)
    assert rep.verdict == "fails" and rep.worst_location == 1.0


def test_exact_tie_on_the_unit_interval_needs_equality():
    # (10^30 - 1)/10^30 * pi^2 sits 1e-30 below w_1 = pi^2: no float or
    # fixed-precision band may call it a tie
    den = 10 ** 30
    s = EigenvalueStream([(den - 1) / den * PI2], [1], 100.0, [den - 1], den, 2)
    rep = verify_dirichlet(s, interval_meta(1, "dirichlet"), 1)
    assert rep.verdict == "fails" and rep.tie_breaks == 0


@pytest.mark.parametrize("offset, verdict", [(0, "fails"), (1, "holds")])
def test_exact_pi_shift_decides_a_near_tie(offset, verdict):
    # the unit square has w_1 = 4 pi; n/10^30 * pi^2 with n = floor(4/pi 10^30)
    # sits just below it and n + 1 just above, each within 1e-30
    den = 10 ** 30
    with mpmath.workdps(80):
        n = int(mpmath.floor(4 * den / mpmath.pi)) + offset
    s = EigenvalueStream([n / den * PI2], [1], 100.0, [n], den, 2)
    rep = verify_dirichlet(s, box_meta([1, 1], "dirichlet"), 1)
    assert rep.verdict == verdict and rep.tie_breaks == 0


@pytest.mark.parametrize("rel, verdict, ties", [(5e-13, "holds", 1), (-5e-13, "holds", 1),
                                                (-2e-12, "fails", 0)])
def test_float_tie_band(rel, verdict, ties):
    meta = DomainMeta(1, 1.0, "dirichlet")  # no exact volume: the float rule
    value = float(polya_weyl_term(meta, 1)) * (1 + rel)
    rep = verify_dirichlet(tabulated_spectrum([(value, 1)], 100.0), meta, 1)
    assert rep.verdict == verdict and rep.tie_breaks == ties
    assert (rep.worst_margin >= 0) == (verdict == "holds")


def _oracle_sign(lhs, rhs, shift):
    with mpmath.workdps(400):
        return int(mpmath.sign(lhs * mpmath.pi ** shift - rhs))


@st.composite
def _sign_cases(draw):
    shift = draw(st.integers(-4, 4))
    lhs = draw(st.integers(1, 2 ** 200))
    if draw(st.booleans()):
        rhs = draw(st.integers(1, 2 ** 200))
    else:
        # an integer next to lhs * pi^shift, as close as 1e-62 relative to it
        with mpmath.workdps(400):
            near = int(mpmath.floor(lhs * mpmath.pi ** shift))
        rhs = max(1, near + draw(st.integers(-2, 2)))
    return lhs, rhs, shift


@settings(max_examples=300, deadline=None)
@given(_sign_cases())
@example((7, 7, 0))
@example((2 ** 200, 2 ** 200 + 1, 0))
def test_exact_sign_matches_high_precision_oracle(case):
    assert _exact_sign(*case) == _oracle_sign(*case)


def test_overflow_guard_fallback_verifies_exactly():
    a = "4294967296pi/4294967295"  # numerators pass _INT64_GUARD
    meta = interval_meta(a, "dirichlet")
    s = interval_spectrum(a, "dirichlet", 200.0)
    assert s.exact and s.exact_nums.dtype == object
    rep = verify_exact_power(s, meta, s.total_count, "dirichlet")
    assert rep.holds and rep.checked == s.total_count
    assert rep.worst_margin == 0.0  # 1-D Polya is an equality
    assert rep.tie_breaks == rep.checked
    assert verify_dirichlet(s, meta, s.total_count).holds


# ---------------------------------------------------------------------------
# exact run-length sweep


def test_exact_constant_rationalizes_to_1296():
    meta = product_meta(interval_meta("pi/24", "dirichlet"), sphere2_meta())
    assert rationalized_polya_constant(3, meta.exact_volume) == Fraction(1296)


def test_exact_dirichlet_first_entries():
    s, meta = thin_sphere("pi/24", "dirichlet", 700.0)
    rep = verify_exact_power(s, meta, 10, "dirichlet")
    assert rep.holds
    assert 576 ** 3 >= 1296  # k = 1 comparison in the raw
    rep_n = verify_exact_power(*thin_sphere("pi/24", "neumann", 700.0), 10, "neumann")
    assert rep_n.holds  # mu_1 = 2: 8 <= 1296


def test_exact_agrees_with_float_on_thin_sphere():
    cutoff = 4000.0
    s, meta = thin_sphere("pi/24", "dirichlet", cutoff)
    k = s.total_count
    exact = verify_exact_power(s, meta, k, "dirichlet")
    floaty = verify_dirichlet(s, meta, k)
    assert exact.verdict == floaty.verdict == "holds"
    sn, metan = thin_sphere("pi/24", "neumann", cutoff)
    kn = sn.total_count - 1
    assert (verify_exact_power(sn, metan, kn, "neumann").verdict
            == verify_neumann(sn, metan, kn).verdict == "holds")


def test_exact_needs_exact_stream_and_volume():
    # values in units of pi^2 against c = 16 pi^2: decided with bounds on pi
    s = box_spectrum([1, 1], "dirichlet", 100.0)
    meta = box_meta([1, 1], "dirichlet")
    rep = verify_exact_power(s, meta, 5, "dirichlet")
    assert rep.holds and rep.checked == 5
    assert rep.verdict == verify_dirichlet(s, meta, 5).verdict
    s2, meta2 = thin_sphere(0.1309, "dirichlet", 700.0)  # float length: inexact
    with pytest.raises(ModeError):
        verify_exact_power(s2, meta2, 5, "dirichlet")
    tri = triangle_neumann_spectrum(100.0)  # exact values, volume sqrt(3)/4
    assert tri.exact
    with pytest.raises(ModeError):
        verify_exact_power(tri, triangle_meta(), 5, "neumann")


def test_exact_detects_failure():
    # a = pi/2: pi^2/a^2 = 4, volume = 2 pi^2, constant = (4 pi^2)^3/(omega3*2pi^2)^2 = 9
    s, meta = thin_sphere("pi/2", "dirichlet", 50.0)
    c = rationalized_polya_constant(3, meta.exact_volume)
    assert c == Fraction(9)
    rep = verify_exact_power(s, meta, 50, "dirichlet")
    flt = verify_dirichlet(s, meta, 50)
    assert rep.verdict == flt.verdict  # agreement regardless of outcome


def _slow_exact_power(s, meta, k_max, side):
    """Reference for ``verify_exact_power``: each k decided on its own, by
    the ratio lambda_k^d / w_k^d = r pi^shift, in Fractions when the pi
    powers cancel and at 400 digits otherwise."""
    d = meta.dimension
    c = polya_constant_exact(d, meta.exact_volume)
    shift = s.pi_power * d - c.pi_power
    origin = int(side == "neumann")
    nums = np.repeat(s.exact_nums, s.multiplicities)[origin:].tolist()
    values = s.expanded()[origin:]
    checked = min(k_max, len(nums))
    w = polya_weyl_term(meta, np.arange(1, checked + 1, dtype=float))
    failures = []
    worst_margin = math.inf
    worst_k = 1
    ties = 0
    for k in range(1, checked + 1):
        r = Fraction(nums[k - 1], s.exact_den) ** d / (c.coeff * k * k)
        if shift == 0:
            sign, rel = (r > 1) - (r < 1), float(r - 1)
        else:
            with mpmath.workdps(400):
                x = mpmath.mpf(r.numerator) / r.denominator * mpmath.pi ** shift - 1
                assert abs(x) > mpmath.mpf(10) ** -300
                sign = int(mpmath.sign(x))
            # the documented float margin, carrying the certified sign
            rel = math.copysign(r.numerator / r.denominator * math.pi ** shift - 1.0, sign)
        if side == "neumann":
            sign, rel = -sign, (-rel if rel else rel)
        if rel < worst_margin:
            worst_margin = rel
            worst_k = k
        ties += sign == 0
        if sign < 0:
            failures.append((float(k), float(values[k - 1]), float(w[k - 1])))
    return VerificationReport(
        mode="per_eigenvalue_exact",
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=worst_margin,
        worst_location=float(worst_k),
        failures=tuple(failures),
        tie_breaks=ties,
    )


@pytest.mark.parametrize("side, entries, failures, worst", [
    # value 4 on k = 1..3 against k^2: a tie at k = 2, a failure at k = 3
    ("dirichlet", [(4, 3), (20, 2)], [(3.0, 4.0, 9.0), (5.0, 20.0, 25.0)], (-5 / 9, 3.0)),
    # the same value from below: a failure at k = 1, a tie at k = 2
    ("neumann", [(0, 1), (4, 3), (9, 2)], [(1.0, 4.0, 1.0)], (-3.0, 1.0)),
])
def test_exact_power_decides_inside_runs(side, entries, failures, worst):
    s = tabulated_spectrum(entries, 100.0)
    meta = interval_meta("pi", side)  # w_k = k^2
    rep = verify_exact_power(s, meta, 10, side)
    assert rep.failures == tuple(failures)
    assert (rep.worst_margin, rep.worst_location) == worst
    assert rep.tie_breaks == 1
    assert rep.to_dict() == _slow_exact_power(s, meta, 10, side).to_dict()


def _iroot(x, d):
    """Largest r with r**d <= x."""
    r = math.isqrt(x) if d == 2 else x if d == 1 else round(x ** (1 / 3))
    while r ** d > x:
        r -= 1
    while (r + 1) ** d <= x:
        r += 1
    return r


#: a factor whose square passes _INT64_GUARD
_SCALE = 2 ** 32 + 15


@st.composite
def _exact_power_cases(draw):
    """Exact streams whose values sit at, or one step off, the Polya bound
    of a k inside, just before or just after their run, so that ties,
    failures starting mid-run and runs cut by k_max all occur.  The volume
    and the stream's pi power are drawn too: when their pi powers do not
    cancel, the near-ties are within 1/den of the bound."""
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.sampled_from(["dirichlet", "neumann"]))
    volume = PiRational(draw(st.sampled_from([1, 2, 4, 6, Fraction(1, 6), Fraction(1, 24)])),
                        draw(st.integers(0, 2)))
    den = draw(st.sampled_from([1, 2, 3, 7, 10 ** 12]))
    c = polya_constant_exact(d, volume)
    # half the streams cancel the constant's pi power where they can, so
    # that exact ties occur
    if c.pi_power % d == 0 and draw(st.booleans()):
        pi_power = c.pi_power // d
    else:
        pi_power = draw(st.integers(-1, 2))
    shift = pi_power * d - c.pi_power
    mults = draw(st.lists(st.integers(1, 6), min_size=1, max_size=12))
    nums, k = [], 0
    for m in mults:
        pivot = max(k + draw(st.integers(0, m + 1)), 1)
        if shift == 0:
            n = _iroot(math.floor(c.coeff * den ** d * pivot ** 2), d)
        else:
            # n / den * pi^pi_power next to w_pivot = (c pivot^2)^(1/d)
            with mpmath.workdps(60):
                n = int(mpmath.floor(den * (mpmath.mpf(c.coeff.numerator) / c.coeff.denominator
                                            * pivot ** 2 * mpmath.pi ** -shift) ** (1 / mpmath.mpf(d))))
        n += draw(st.integers(-1, 1))
        # a step of at least 2^-40 relative keeps the float values increasing
        nums.append(max(n, nums[-1] + 1 + (nums[-1] >> 40) if nums else 1))
        k += m
    if draw(st.booleans()):
        # a common factor keeps every comparison and pushes numerators past int64
        nums = [n * _SCALE ** 2 for n in nums]
        volume = volume / _SCALE ** d
    if side == "neumann":
        nums.insert(0, 0)
        mults.insert(0, draw(st.integers(1, 2)))
    values = [float(Fraction(n, den)) * math.pi ** pi_power for n in nums]
    s = EigenvalueStream(values, mults, 2.0 * values[-1] + 1.0, nums, den, pi_power)
    assert (s.exact_nums.dtype == object) == (nums[-1] > _INT64_GUARD)
    meta = DomainMeta(d, float(volume), side, exact_volume=volume)
    k_max = draw(st.integers(1, s.total_count - (side == "neumann") + 3))
    return s, meta, k_max, side


@settings(max_examples=400, deadline=None)
@given(_exact_power_cases())
def test_exact_power_matches_per_k_reference(case):
    assert verify_exact_power(*case).to_dict() == _slow_exact_power(*case).to_dict()


#: an interval of length 2: w_k = pi^2 k^2 / 4, so w_k^d = c k^2 with c_den 4, c_num 1
_LENGTH_2 = PiRational(2, 0)


def _near_bound_stream(side, den, nums, mults):
    """An exact stream n / den * pi^2 on the interval of length 2 (the
    Neumann zero mode added on that side)."""
    if side == "neumann":
        nums, mults = [0] + nums, [1] + mults
    values = [n / den * PI2 for n in nums]
    s = EigenvalueStream(values, mults, 2.0 * values[-1] + 1.0, nums, den, 2)
    assert s.exact_den == den  # kept as given
    return s, DomainMeta(1, 2.0, side, exact_volume=_LENGTH_2)


@pytest.mark.parametrize("side", ["dirichlet", "neumann"])
@pytest.mark.parametrize("top", [_INT64_GUARD // 4 - 1, _INT64_GUARD // 4])
def test_exact_power_overflow_guard_on_lhs(side, top):
    # runs of 4 whose value is on w_k, or one step off it, at the run's
    # second k; the top value puts max(n)^d c_den = 4 top one step below or
    # at _INT64_GUARD, where the sweep leaves int64 for the float filter
    nums = [(2 * j + 1) ** 2 + (j + 1) % 3 - 1 for j in range(8)] + [top]
    s, meta = _near_bound_stream(side, 1, nums, [4] * 8 + [1])
    c_den, rhs_unit, shift = _exact_terms(s, meta)
    assert (c_den, rhs_unit, shift) == (4, 1, 0)
    assert (top * c_den < _INT64_GUARD) == (top % 2 == 1)
    k_max = s.total_count
    rep = verify_exact_power(s, meta, k_max, side)
    assert rep.tie_breaks > 0 and rep.failures
    assert rep.to_dict() == _slow_exact_power(s, meta, k_max, side).to_dict()


@pytest.mark.parametrize("side", ["dirichlet", "neumann"])
@pytest.mark.parametrize("k_max", [2 ** 10 - 1, 2 ** 10])
def test_exact_power_overflow_guard_on_rhs(side, k_max):
    # den = 2^42 makes rhs_unit k^2 = 2^42 k^2 reach _INT64_GUARD at k = 2^10,
    # so k_max puts rhs_unit checked^2 one step below or at it; every value
    # sits 1 / den off w_k, inside the guard band
    den = 2 ** 42
    nums = [den * k * k // 4 + (-1) ** k for k in range(1, 2 ** 10 + 3)]
    s, meta = _near_bound_stream(side, den, nums, [1] * len(nums))
    c_den, rhs_unit, shift = _exact_terms(s, meta)
    assert (c_den, rhs_unit, shift) == (4, den, 0)
    assert (rhs_unit * k_max ** 2 < _INT64_GUARD) == (k_max % 2 == 1)
    rep = verify_exact_power(s, meta, k_max, side)
    assert rep.failures and rep.checked == k_max
    assert rep.to_dict() == _slow_exact_power(s, meta, k_max, side).to_dict()


@pytest.mark.parametrize("side", ["dirichlet", "neumann"])
def test_exact_power_margin_past_float_range(side):
    # lambda^3 / w^3 is about 1e330 / 36 pi^4: past float range, so the
    # margin is inf with the exact sign, +inf where it holds, -inf where not
    entries = [[10 ** 110, 1], [10 ** 111, 1]]
    if side == "neumann":
        entries.insert(0, [0, 1])
    s = tabulated_spectrum(entries, 1e112)
    meta = DomainMeta(3, 1.0, side, exact_volume=PiRational(1))
    rep = verify_exact_power(s, meta, 2, side)
    assert _exact_terms(s, meta)[2] == -4
    if side == "dirichlet":
        assert rep.holds and rep.worst_margin == math.inf
    else:
        assert [f[0] for f in rep.failures] == [1.0, 2.0]
        assert rep.worst_margin == -math.inf and rep.worst_location == 1.0


_bcs = st.sampled_from(["dirichlet", "neumann"])
_exact_specs = st.one_of(
    # boxes with rational sides
    st.builds(lambda sides, bc: {"box": {"sides": sides, "bc": bc}},
              st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=7).map(str),
                       min_size=1, max_size=3), _bcs),
    # (0, p pi/q) x S^2, thick enough to fail and thin enough to hold
    st.builds(lambda p, q, bc: {"product": [{"interval": {"a": f"{p}pi/{q}", "bc": bc}},
                                            {"sphere2": {}}]},
              st.integers(1, 3), st.integers(1, 60), _bcs),
)


@settings(max_examples=120, deadline=None)
@given(_exact_specs, st.integers(1, 600))
def test_exact_and_float_verifiers_agree(spec, k_max):
    s, meta = stream_covering_k(build_spec(spec), k_max)
    side = meta.bc.value
    floaty = (verify_dirichlet if side == "dirichlet" else verify_neumann)(s, meta, k_max)
    exact = verify_exact_power(s, meta, k_max, side)
    assert exact.verdict == floaty.verdict
    assert exact.failures == floaty.failures
    assert (exact.tie_breaks, exact.checked) == (floaty.tie_breaks, floaty.checked)


def _slow_per_eigenvalue(s, meta, k_max, side):
    """Reference for ``verify_dirichlet`` / ``verify_neumann``: the per-k
    sweep over k = 1..checked, with k_max-long arrays.  Returns the report
    and the adjusted margin of every k."""
    origin, checked = _sweep_range(s, k_max, side)
    ks = np.arange(1, checked + 1, dtype=float)
    w = polya_weyl_term(meta, ks)
    values = s.expanded()[origin:origin + checked]
    margins = (values - w) / w if side == "dirichlet" else (w - values) / w

    adjusted = margins.copy()
    exact = s.exact and meta.exact_volume is not None
    near = np.nonzero(np.abs(margins) <= (GUARD_BAND if exact else EQUALITY_BAND_FLOAT))[0]
    held, broken, tie_breaks = near, near[:0], near.size
    if exact and near.size:
        d = meta.dimension
        c_den, rhs_unit, shift = _exact_terms(s, meta)
        runs = np.searchsorted(s.cumulative_counts(), near + origin, side="right") - 1
        signs = np.array([
            _exact_sign(n ** d * c_den, rhs_unit * (i + 1) ** 2, shift)
            for n, i in zip(s.exact_nums[runs].tolist(), near.tolist())
        ])
        ok = signs >= 0 if side == "dirichlet" else signs <= 0
        held, broken, tie_breaks = near[ok], near[~ok], int(np.count_nonzero(signs == 0))
    # a held comparison's margin is at least 0, a broken one's below 0
    adjusted[held[adjusted[held] < 0]] = 0.0
    broken = broken[adjusted[broken] >= 0]
    adjusted[broken] = -adjusted[broken] - 1e-300
    failures = [(float(i + 1), float(values[i]), float(w[i]))
                for i in np.nonzero(adjusted < 0)[0]]
    worst = int(np.argmin(adjusted))
    report = VerificationReport(
        mode="per_eigenvalue",
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=float(adjusted[worst]),
        worst_location=float(worst + 1),
        failures=tuple(failures),
        tie_breaks=tie_breaks,
    )
    return report, adjusted


#: where a run's value sits relative to w_k at its pivot k: on it, a near
#: tie inside either band or one ulp off, and far below or above it
_PLACEMENTS = (1.0, 1 + 1e-13, 1 - 1e-13, 1 + 1e-10, 1 - 1e-10, "up", "down",
               0.3, 3.0, 1e-18, 1e18)


@st.composite
def _per_eigenvalue_cases(draw, exact_only=False):
    """Float and exact streams whose runs sit on, next to or far from w_k
    at a k inside, just before or just after them, and spec streams
    ((0, p pi/q) x S^2, rational boxes), with k_max below, at and beyond
    what the stream holds.  ``exact_only`` keeps to exact streams with an
    exact volume."""
    if draw(st.integers(0, 3)) == 0:
        s, meta = stream_covering_k(build_spec(draw(_exact_specs)), draw(st.integers(1, 400)))
        side = meta.bc.value
    else:
        side = draw(_bcs)
        d = draw(st.sampled_from([1, 2, 3]))
        volume = PiRational(draw(st.sampled_from([1, 2, Fraction(1, 6), Fraction(3, 7)])),
                            draw(st.integers(0, 1)))
        meta = DomainMeta(d, float(volume), side, exact_volume=(
            volume if exact_only else draw(st.sampled_from([volume, None]))))
        exact = exact_only or draw(st.booleans())
        den = draw(st.sampled_from([1, 7, 10 ** 9]))
        mults = draw(st.lists(st.integers(1, 30), min_size=1, max_size=12))
        values, nums, k = [], [], 0
        for m in mults:
            pivot = max(k + draw(st.integers(0, m + 1)), 1)
            w = float(polya_weyl_term(meta, pivot))
            where = draw(st.sampled_from(_PLACEMENTS))
            v = (np.nextafter(w, math.inf if where == "up" else 0.0)
                 if isinstance(where, str) else w * where)
            if exact:
                n = int(Fraction(v) * den)
                # a step of at least 2^-40 relative keeps the float values increasing
                nums.append(max(n, nums[-1] + 1 + (nums[-1] >> 40) if nums else 1))
                v = float(Fraction(nums[-1], den))
            values.append(max(v, np.nextafter(values[-1], math.inf)) if values else v)
            k += m
        if side == "neumann":
            values.insert(0, 0.0)
            nums.insert(0, 0)
            mults.insert(0, draw(st.integers(1, 2)))
        s = EigenvalueStream(values, mults, 2.0 * values[-1] + 1.0,
                             nums if exact else None, den)
    k_max = draw(st.integers(1, s.total_count - (side == "neumann") + 3))
    return s, meta, k_max, side


@settings(max_examples=400, deadline=None)
@given(_per_eigenvalue_cases())
def test_per_eigenvalue_matches_per_k_reference(case):
    s, meta, k_max, side = case
    verify = verify_dirichlet if side == "dirichlet" else verify_neumann
    slow, adjusted = _slow_per_eigenvalue(*case)
    assert repr(verify(s, meta, k_max).to_dict()) == repr(slow.to_dict())
    assert per_eigenvalue_margins(*case).tobytes() == adjusted.tobytes()


@settings(max_examples=100, deadline=None)
@given(_per_eigenvalue_cases(exact_only=True))
def test_float_margin_outside_the_guard_band_has_the_exact_sign(case):
    # the plain sweep's margins keep their value, and so its reports and
    # dumps their bytes, because a float margin more than GUARD_BAND from 0
    # has the sign of the exact comparison at every k
    s, meta, k_max, side = case
    origin, checked = _sweep_range(s, k_max, side)
    ks = np.arange(1, checked + 1)
    w = polya_weyl_term(meta, ks)
    values = s.expanded()[origin:origin + checked]
    margins = (values - w) / w if side == "dirichlet" else (w - values) / w
    far = np.nonzero(np.abs(margins) > GUARD_BAND)[0]
    runs = np.searchsorted(s.cumulative_counts(), far + origin, side="right") - 1
    d, (c_den, rhs_unit, shift) = meta.dimension, _exact_terms(s, meta)
    exact = [_exact_sign(n ** d * c_den, rhs_unit * (i + 1) ** 2, shift)
             for n, i in zip(s.exact_nums[runs].tolist(), far.tolist())]
    assert (np.sign(margins[far]) == np.multiply(exact, 1 if side == "dirichlet" else -1)).all()


@pytest.mark.parametrize("side", ["dirichlet", "neumann"])
def test_holding_float_sweep_costs_distinct_values_not_k_max(monkeypatch, side):
    k_max = 10 ** 6
    spec = {"product": [{"interval": {"a": "pi/24", "bc": side}}, {"sphere2": {}}]}
    s, meta = stream_covering_k(build_spec(spec), k_max)
    terms = []
    weyl = polya.polya_weyl_term
    monkeypatch.setattr(polya, "polya_weyl_term",
                        lambda m, k: terms.append(np.size(k)) or weyl(m, k))

    def no_expansion(self):
        raise AssertionError("the stream was expanded")

    monkeypatch.setattr(EigenvalueStream, "expanded", no_expansion)
    verify = verify_dirichlet if side == "dirichlet" else verify_neumann
    rep = verify(s, meta, k_max)
    assert rep.holds and rep.checked == k_max
    assert 0 < sum(terms) <= len(s.values) < k_max


def _count_exact_signs(monkeypatch):
    """Record every ``_exact_sign`` call the polya module makes."""
    calls = []
    sign = polya._exact_sign
    monkeypatch.setattr(polya, "_exact_sign", lambda *a: calls.append(a) or sign(*a))
    return calls


def _sweep_of(sweep, side):
    """The exact sweep, or the plain one of ``side``, as f(s, meta, k_max)."""
    if sweep == "exact":
        return lambda s, meta, k_max: verify_exact_power(s, meta, k_max, side)
    return verify_dirichlet if side == "dirichlet" else verify_neumann


#: both sides of the exact sweep, then of the plain one
_SIDES_AND_SWEEPS = [pytest.param(side, sweep, id=side if sweep == "exact" else f"{side}-plain")
                     for sweep in ("exact", "plain") for side in ("dirichlet", "neumann")]


@pytest.mark.parametrize("side, sweep", _SIDES_AND_SWEEPS)
def test_exact_sweep_decides_holding_runs_without_python_signs(monkeypatch, side, sweep):
    k_max = 10 ** 6
    spec = {"product": [{"interval": {"a": "pi/24", "bc": side}}, {"sphere2": {}}]}
    s, meta = stream_covering_k(build_spec(spec), k_max)
    calls = _count_exact_signs(monkeypatch)
    rep = _sweep_of(sweep, side)(s, meta, k_max)
    assert rep.holds and rep.checked == k_max
    assert calls == []


@pytest.mark.parametrize("side, sweep", _SIDES_AND_SWEEPS)
def test_exact_sweep_decides_all_ties_without_python_signs(monkeypatch, side, sweep):
    # 1-D Polya is an equality: every k of the unit interval is a tie
    k_max = 10 ** 5
    s, meta = stream_covering_k(build_spec({"interval": {"a": 1, "bc": side}}), k_max)
    calls = _count_exact_signs(monkeypatch)
    rep = _sweep_of(sweep, side)(s, meta, k_max)
    assert rep.holds and rep.checked == k_max
    assert rep.tie_breaks == rep.checked and rep.worst_margin == 0.0
    assert calls == []


@pytest.mark.parametrize("side", ["dirichlet", "neumann"])
def test_exact_sweep_calls_python_only_inside_the_guard_band(monkeypatch, side):
    # the unit square: w_k = 4 pi k, so lambda = n / den * pi^2 against it
    # leaves pi^2 (shift 2).  Odd k sit 1e-6 off w_k on the holding side, far
    # outside GUARD_BAND; even k sit within 1 / den of it, inside.
    den, up = 10 ** 30, side == "dirichlet"
    with mpmath.workdps(80):
        nums = [int(mpmath.floor(4 * k * den / mpmath.pi * (1 + (k % 2) * (1e-6 if up else -1e-6))))
                + up for k in range(1, 9)]
    mults = [1] * len(nums)
    if side == "neumann":
        nums, mults = [0] + nums, [1] + mults
    values = [n / den * PI2 for n in nums]
    s = EigenvalueStream(values, mults, 2.0 * values[-1] + 1.0, nums, den, 2)
    meta = box_meta([1, 1], side)
    _, rhs_unit, shift = _exact_terms(s, meta)
    assert shift == 2
    calls = _count_exact_signs(monkeypatch)
    rep = verify_exact_power(s, meta, 8, side)
    assert rep.holds and rep.tie_breaks == 0
    # one call per in-band run, at its k
    assert sorted(math.isqrt(rhs // rhs_unit) for _, rhs, _ in calls) == [2, 4, 6, 8]
    assert rep.to_dict() == _slow_exact_power(s, meta, 8, side).to_dict()


# ---------------------------------------------------------------------------
# counting-form verification


def test_counting_bound_square10_neumann_upper():
    stream = box_spectrum([10, 10], "neumann", 1.0001e4)
    cf = CountingFunction.from_stream(stream, box_meta([10, 10], "neumann"))
    rep = verify_counting_bound(
        cf, lambda lam: 100.0 * lam / (4.0 * PI) + 20.0 * math.sqrt(lam),
        "upper", lambda_min=0.1, lambda_max=1e4)
    assert rep.holds
    assert rep.worst_margin > 0


def test_counting_bound_sphere_lower_with_unit_constant():
    stream = sphere2_spectrum(1.0001e4)
    cf = CountingFunction.from_stream(stream, sphere2_meta())
    rep = verify_counting_bound(
        cf, lambda lam: lam - math.sqrt(lam), "lower", lambda_max=1e4)
    assert rep.holds


def test_counting_bound_strict_bounds_fail_near_zero():
    # the absorbed one-term bounds genuinely fail as lambda -> 0+
    stream = box_spectrum([10, 10], "neumann", 1.0)
    cf = CountingFunction.from_stream(stream, box_meta([10, 10], "neumann"))
    rep = verify_counting_bound(
        cf, lambda lam: 100.0 * lam / (4.0 * PI) + 20.0 * math.sqrt(lam),
        "upper", lambda_min=0.0, lambda_max=0.5)
    assert not rep.holds


def test_counting_jumps_verdict_matches_per_eigenvalue():
    for a, expected in (("pi/24", "holds"), (PI, "fails")):
        cutoff = 700.0 if expected == "holds" else 30.0
        s, meta = thin_sphere(a, "dirichlet", cutoff)
        per_k = verify_dirichlet(s, meta, s.total_count)
        cf = CountingFunction.from_stream(s, meta)
        counting = verify_counting_bound(
            cf, lambda lam: weyl_leading(meta, lam), "upper", lambda_max=s.cutoff)
        assert per_k.verdict == counting.verdict == expected


def test_monotone_failure_in_thickness_at_k1():
    failed_already = False
    for a in np.linspace(0.5, 4.0, 15):
        s, meta = thin_sphere(float(a), "dirichlet", 60.0)
        rep = verify_dirichlet(s, meta, 1)
        if failed_already:
            assert not rep.holds
        failed_already = failed_already or not rep.holds
    assert failed_already  # the grid reaches the failing regime


def test_polya_weyl_term_vectorized():
    meta = DomainMeta(2, 1.0, "dirichlet")
    ks = np.array([1.0, 4.0, 9.0])
    w = polya_weyl_term(meta, ks)
    assert w == pytest.approx(4 * PI * ks)


def test_counting_bound_rejects_bad_side():
    stream = sphere2_spectrum(10.0)
    cf = CountingFunction.from_stream(stream, sphere2_meta())
    with pytest.raises(DomainError):
        verify_counting_bound(cf, lambda lam: lam, "diagonal")


def test_counting_bound_right_limit_at_cutoff_raises():
    # N(4+) = 2 > sqrt(4) - 0.5, but the stream cannot see the value at 4
    s = interval_spectrum("pi", "dirichlet", 4.0)
    cf = CountingFunction.from_stream(s, interval_meta("pi", "dirichlet"))
    with pytest.raises(CoverageError):
        verify_counting_bound(cf, lambda lam: lam ** 0.5 - 0.5 + 1e-9, "upper",
                              lambda_min=4.0, lambda_max=4.0)


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_counting_bound_window_past_cutoff_raises(side):
    stream = box_spectrum([1, 1], "neumann", 1000.0)
    cf = CountingFunction.from_stream(stream, box_meta([1, 1], "neumann"))
    bound = (lambda lam: 1e9) if side == "upper" else (lambda lam: 0.0)
    with pytest.raises(CoverageError):
        verify_counting_bound(cf, bound, side, lambda_min=0.1, lambda_max=1e5)
    rep = verify_counting_bound(cf, bound, side, lambda_min=0.1, lambda_max=1000.0)
    assert rep.holds


def test_counting_bound_jumps_add_points_never_drop_them():
    # N(49.35+) = 3 > 2; a jump list holding only the first value hid it
    s = box_spectrum([1, 1], "dirichlet", 200.0)
    cf = CountingFunction.from_stream(s, box_meta([1, 1], "dirichlet"))
    full = verify_counting_bound(cf, lambda lam: 2.0, "upper", lambda_max=150.0)
    partial = verify_counting_bound(cf, lambda lam: 2.0, "upper", lambda_max=150.0,
                                    jumps=[s.values[0]])
    assert full.verdict == partial.verdict == "fails"
    assert partial.checked == full.checked and partial.failures == full.failures
    # an extra point between jumps joins the scan
    extra = verify_counting_bound(cf, lambda lam: 2.0, "upper", lambda_max=150.0,
                                  jumps=[s.values[0], 100.0])
    assert extra.checked == full.checked + 1
    for side in ("upper", "lower"):
        plain = verify_counting_bound(cf, lambda lam: lam / 10.0, side, lambda_max=150.0)
        given = verify_counting_bound(cf, lambda lam: lam / 10.0, side, lambda_max=150.0,
                                      jumps=cf.jump_values())
        assert given == plain


def _np_unique_points(cf, side, lambda_min, lambda_max, jumps):
    """The comparison points of verify_counting_bound, built with np.unique
    and np.union1d from scratch."""
    jump_arr = cf.jump_values()
    if jumps is not None:
        jump_arr = np.union1d(np.asarray(jumps, float), jump_arr)
    if side == "upper":
        points = jump_arr[(jump_arr >= lambda_min) & (jump_arr <= lambda_max)]
        return np.unique(np.concatenate([[lambda_min], points])) if lambda_min > 0 else points
    jump_arr = jump_arr[(jump_arr > lambda_min) & (jump_arr <= lambda_max)]
    return np.unique(np.concatenate([jump_arr, [lambda_max]]))


@pytest.mark.parametrize("side", ["upper", "lower"])
@pytest.mark.parametrize("jumps", [None, [], [50.0, 3.0, 50.0, 5 * PI2, 3.0, 3.0]])
@pytest.mark.parametrize("lambda_min, lambda_max", [
    (0.0, 150.0), (0.1, 150.0),
    (2 * PI2, 150.0),  # lambda_min on a jump
    (0.0, 10 * PI2),  # lambda_max on a jump, the lower side's endpoint
    (2 * PI2, 13 * PI2),
])
@pytest.mark.parametrize("empty_part", [False, True])
def test_counting_bound_points_match_np_unique(side, jumps, lambda_min, lambda_max, empty_part):
    """Unsorted and repeated extra jumps, window ends on a jump and parts
    without a jump give the points np.unique would."""
    cf = CountingFunction.from_stream(box_spectrum([1, 1], "dirichlet", 200.0),
                                      box_meta([1, 1], "dirichlet"))
    if empty_part:
        # the interval (0, 1/20) has no eigenvalue below 400 pi**2
        cf = SumCountingFunction([CountingFunction.from_stream(
            interval_spectrum("1/20", "dirichlet", 200.0), interval_meta("1/20", "dirichlet")),
            cf])
    seen = []

    def bound(lams):
        seen.append(np.array(lams))
        return 0.1 * lams

    verify_counting_bound(cf, bound, side, lambda_min, lambda_max, jumps)
    expected = _np_unique_points(cf, side, lambda_min, lambda_max, jumps)
    assert seen[0].tolist() == expected.tolist()


class _Counted:
    """A bound that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, lam):
        self.calls += 1
        return self.fn(lam)


def _same_report(a: VerificationReport, b: VerificationReport) -> bool:
    return a.to_dict() == b.to_dict() and a.margins.tobytes() == b.margins.tobytes()


@st.composite
def _counting_functions(draw):
    """The counting function of a float, exact or box stream, or the sum of two."""
    def stream():
        kind = draw(st.sampled_from(["float", "exact", "box"]))
        if kind == "box":
            sides = draw(st.lists(st.floats(0.5, 3.0), min_size=1, max_size=2))
            return box_spectrum(sides, draw(st.sampled_from(["dirichlet", "neumann"])), 300.0)
        if kind == "float":
            values = sorted(set(draw(st.lists(st.floats(0.0, 250.0), max_size=40))))
        else:
            den = draw(st.integers(1, 40))
            values = [Fraction(n, den) for n in
                      sorted(set(draw(st.lists(st.integers(0, 250 * den), max_size=40))))]
        return tabulated_spectrum([(v, draw(st.integers(1, 5))) for v in values],
                                  draw(st.floats(251.0, 300.0)))

    meta = DomainMeta(2, 1.0, "neumann")
    parts = [CountingFunction.from_stream(stream(), meta)
             for _ in range(draw(st.integers(1, 2)))]
    return parts[0] if len(parts) == 1 else SumCountingFunction(parts)


@settings(max_examples=150, deadline=None)
@given(cf=_counting_functions(), side=st.sampled_from(["upper", "lower"]),
       a=st.floats(0.0, 2.0), b=st.floats(-30.0, 30.0), data=st.data())
def test_counting_bound_array_path_matches_per_point_path(cf, side, a, b, data):
    lambda_max = data.draw(st.floats(0.0, 250.0))
    lambda_min = data.draw(st.floats(0.0, lambda_max))
    jumps = data.draw(st.lists(st.floats(0.0, lambda_max), max_size=5))
    array_bound = _Counted(lambda lam: a * lam + b * np.sqrt(lam))
    point_bound = _Counted(lambda lam: a * lam + b * math.sqrt(lam))

    def scan(bound):
        try:
            return verify_counting_bound(cf, bound, side, lambda_min, lambda_max, jumps)
        except CoverageError:
            return None

    on_array, per_point = scan(array_bound), scan(point_bound)
    if on_array is None:
        assert per_point is None
        return
    assert _same_report(on_array, per_point)
    # one call on the array; a failed array call, then one call per point
    assert array_bound.calls == 1
    assert point_bound.calls == 1 + per_point.checked


def _halve_in_place(lam):
    lam *= 0.5
    return lam


@pytest.mark.parametrize("point_bound,array_bound", [
    (lambda lam: 40.0, lambda lam: np.full(lam.shape, 40.0)),
    (lambda lam: 3.0 if lam < 50.0 else lam / 2.0,
     lambda lam: np.where(lam < 50.0, 3.0, lam / 2.0)),
    (lambda lam: [x / 2.0 for x in lam] if np.ndim(lam) else lam / 2.0, lambda lam: lam / 2.0),
    (lambda lam: (lam / 2.0)[:, None] if np.ndim(lam) else lam / 2.0, lambda lam: lam / 2.0),
    (lambda lam: 2.0 * math.sqrt(lam), lambda lam: 2.0 * np.sqrt(lam)),
    (_halve_in_place, lambda lam: lam * 0.5),
], ids=["scalar", "branchy", "list", "wrong-shape", "math-sqrt", "in-place"])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_counting_bound_falls_back_per_point(point_bound, array_bound, side):
    # a scalar result, a ValueError or TypeError, a list, an array of another
    # shape, or a write into the read-only points each take the per-point path
    s = box_spectrum([1, 1], "dirichlet", 200.0)
    cf = CountingFunction.from_stream(s, box_meta([1, 1], "dirichlet"))
    counted = _Counted(point_bound)
    rep = verify_counting_bound(cf, counted, side, lambda_min=1.0, lambda_max=150.0)
    assert counted.calls == 1 + rep.checked
    assert _same_report(rep, verify_counting_bound(cf, array_bound, side,
                                                   lambda_min=1.0, lambda_max=150.0))
