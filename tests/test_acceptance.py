"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or on failure) and enforces the criterion's runtime budget where one is
stated.  Frozen expected values come from independent oracles: direct
lattice enumeration, double-loop pair sums, symbolic simplification, and
adaptive quadrature.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from polyaspec import (
    CountingFunction,
    box_meta,
    box_spectrum,
    c_d,
    check_lemma42,
    fd_integral,
    fd_profile,
    h1,
    h2,
    interval_meta,
    interval_spectrum,
    l_gamma_d,
    polya_weyl_term,
    product_meta,
    product_spectrum,
    riesz_mean_many,
    sphere2_meta,
    sphere2_spectrum,
    threshold_a0,
    triangle_neumann_spectrum,
    verify_counting_bound,
    verify_dirichlet,
    verify_exact_power,
    verify_neumann,
)
from polyaspec.constants import ThresholdCase, ThresholdRequest, _square_deficit_objective
from polyaspec.reproduce import rationalized_polya_constant

PI = math.pi
PI2 = math.pi ** 2
SEED = 20240601


class _Criterion:
    def __init__(self, number, name, budget=None):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        budget = f", budget {self.budget:.0f}s" if self.budget else ""
        print(f"[{status}] criterion {self.number}: {self.name} ({elapsed:.2f}s{budget})")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def test_criterion_1_sphere_counting_identity():
    with _Criterion(1, "sphere counting identity up to k = 100", budget=1.0):
        stream = sphere2_spectrum(102 * 103.0)
        for k in range(0, 101):
            lam = float(k * (k + 1))
            assert stream.count(lam) == k * k
            assert stream.count(lam + 1e-9) == (k + 1) ** 2


def test_criterion_2_thin_sphere_exact_100k():
    with _Criterion(2, "exact integer verification of (0, pi/24) x S^2, k <= 1e5",
                    budget=10.0):
        # re-derive the integer constant symbolically before trusting it
        pi = sympy.pi
        volume = pi ** 2 / sympy.Integer(6)
        omega3 = sympy.Rational(4, 3) * pi
        constant = sympy.simplify((4 * pi ** 2) ** 3 / (omega3 * volume) ** 2)
        assert constant == 1296
        meta = product_meta(interval_meta("pi/24", "dirichlet"), sphere2_meta())
        assert rationalized_polya_constant(3, meta.exact_volume) == Fraction(1296)

        k_max = 100_000
        cutoff = 26500.0
        sphere = sphere2_spectrum(cutoff)
        stream_d = product_spectrum(
            interval_spectrum("pi/24", "dirichlet", cutoff), sphere, cutoff)
        rep_d = verify_exact_power(stream_d, meta, k_max, "dirichlet")
        assert rep_d.holds and rep_d.checked == k_max and not rep_d.failures

        stream_n = product_spectrum(
            interval_spectrum("pi/24", "neumann", cutoff), sphere, cutoff)
        meta_n = product_meta(interval_meta("pi/24", "neumann"), sphere2_meta())
        rep_n = verify_exact_power(stream_n, meta_n, k_max, "neumann")
        assert rep_n.holds and rep_n.checked == k_max and not rep_n.failures


def test_criterion_3_large_a_failures():
    with _Criterion(3, "failure cases at a = pi and a = 0.99 sqrt(2/3) pi", budget=1.0):
        a = PI
        stream = product_spectrum(
            interval_spectrum(a, "dirichlet", 5.0), sphere2_spectrum(5.0), 5.0)
        meta = product_meta(interval_meta(a, "dirichlet"), sphere2_meta())
        assert a > math.sqrt(2.0 / 3.0) * PI
        rep = verify_dirichlet(stream, meta, 1)
        assert not rep.holds
        k, lhs, _ = rep.failures[0]
        assert k == 1.0 and lhs == pytest.approx(PI2 / a ** 2)

        a = 0.99 * math.sqrt(2.0 / 3.0) * PI
        assert PI / math.sqrt(2.0) <= a < math.sqrt(2.0 / 3.0) * PI
        stream = product_spectrum(
            interval_spectrum(a, "neumann", 5.0), sphere2_spectrum(5.0), 5.0)
        meta = product_meta(interval_meta(a, "neumann"), sphere2_meta())
        rep = verify_neumann(stream, meta, 1)
        assert not rep.holds
        k, lhs, _ = rep.failures[0]
        assert k == 1.0 and lhs == pytest.approx(PI2 / a ** 2)


def test_criterion_4_square_triangle_bounds():
    with _Criterion(4, "square+triangle counting bounds and threshold", budget=30.0):
        cutoff = 1.0e4
        # the strict absorbed bounds are claimed above the Faber-Krahn floor
        # of the composite domain (4 pi / |Omega| > 0.1), not as lambda -> 0+
        lambda_min = 0.1
        volume = 100.0 + math.sqrt(3.0) / 4.0
        assert 4.0 * PI / volume > lambda_min

        square = box_spectrum([10, 10], "neumann", cutoff * 1.0001)
        cf_s = CountingFunction.from_stream(square, box_meta([10, 10], "neumann"))
        rep_s = verify_counting_bound(
            cf_s, lambda lam: 100.0 * lam / (4.0 * PI) + 20.0 * math.sqrt(lam),
            "upper", lambda_min=lambda_min, lambda_max=cutoff)
        assert rep_s.holds and rep_s.worst_margin > 0

        triangle = triangle_neumann_spectrum(cutoff * 1.0001)
        cf_t = CountingFunction.from_stream(
            triangle,
            box_meta([1, 1], "neumann"))  # meta unused by the bound check
        rep_t = verify_counting_bound(
            cf_t, lambda lam: math.sqrt(3.0) * lam / (16.0 * PI) + 30.0 * math.sqrt(lam),
            "upper", lambda_min=lambda_min, lambda_max=cutoff)
        assert rep_t.holds and rep_t.worst_margin > 0

        # composite bound with the assembled remainder constant 50
        from polyaspec import SumCountingFunction

        cf_sum = SumCountingFunction([cf_s, cf_t])
        rep_sum = verify_counting_bound(
            cf_sum,
            lambda lam: volume * lam / (4.0 * PI) + 50.0 * math.sqrt(lam),
            "upper", lambda_min=lambda_min, lambda_max=cutoff,
            jumps=cf_sum.jump_values())
        assert rep_sum.holds

        thr = threshold_a0(ThresholdRequest(
            ThresholdCase.DIRICHLET_THIN_D2, volume=volume, c_remainder=50.0))
        assert thr.a0 >= 1.0 / (4.0 * PI)


def _product_count(s1, cf2, lam):
    """Count of the product spectrum below ``lam`` without forming it: the
    sum over first-factor eigenvalues v of mult(v) * N_2(lam - v)."""
    below = s1.values < lam
    return int(np.dot(s1.multiplicities[below], cf2.count_many(lam - s1.values[below])))


def test_criterion_5_product_count_oracle():
    with _Criterion(5, "product counting vs pairwise enumeration, 50 instances"):
        rng = np.random.default_rng(SEED)
        for instance in range(50):
            kind = ("interval_interval", "interval_sphere", "box_box")[instance % 3]
            cutoff = float(rng.uniform(50.0, 1000.0))
            if kind == "interval_interval":
                a1, a2 = rng.uniform(0.5, 3.0, 2)
                s1 = interval_spectrum(float(a1), "dirichlet", cutoff)
                s2 = interval_spectrum(float(a2), "dirichlet", cutoff)
                meta2 = interval_meta(float(a2), "dirichlet")
            elif kind == "interval_sphere":
                a1 = float(rng.uniform(0.5, 3.0))
                s1 = interval_spectrum(a1, "neumann", cutoff)
                s2 = sphere2_spectrum(cutoff)
                meta2 = sphere2_meta()
            else:
                sides1 = rng.uniform(0.6, 2.5, 2)
                sides2 = rng.uniform(0.6, 2.5, 2)
                s1 = box_spectrum([float(x) for x in sides1], "neumann", cutoff)
                s2 = box_spectrum([float(x) for x in sides2], "neumann", cutoff)
                meta2 = box_meta([float(x) for x in sides2], "neumann")
            cf2 = CountingFunction.from_stream(s2, meta2)
            pair_sums = np.sort(np.add.outer(s1.expanded(), s2.expanded()).ravel())
            lams = rng.uniform(1e-3, cutoff, 200)
            counts = np.searchsorted(pair_sums, lams, side="left")
            for lam, expected in zip(lams, counts):
                assert _product_count(s1, cf2, float(lam)) == int(expected)
            # the package's product counting: the product stream's counts
            prod = product_spectrum(s1, s2, cutoff)
            assert prod.count_many(lams).tolist() == counts.tolist()


def test_criterion_6_lemma_suite():
    with _Criterion(6, "profile integral, mode-sum bounds, inflection location"):
        rng = np.random.default_rng(SEED)
        # closed form vs quadrature, 100 random cases, rel < 1e-10
        for _ in range(100):
            d = int(rng.integers(1, 7))
            a = float(rng.uniform(0.1, 5.0))
            lam = float(rng.uniform(0.1, 1e4))
            closed = fd_integral(d, a, lam)
            with mpmath.workdps(30):
                b = a * mpmath.sqrt(lam) / mpmath.pi

                def integrand(x):
                    v = lam - x * x * mpmath.pi ** 2 / a ** 2
                    return v ** (mpmath.mpf(d) / 2) if v > 0 else mpmath.mpf(0)

                oracle = float(mpmath.quad(integrand, [0, b]))
            assert abs(closed - oracle) / oracle < 1e-10

        # mode-sum bounds on 1e5 fuzzed (a, lambda) with M >= 1
        n = 100_000
        a = rng.uniform(1e-3, 10.0, n)
        lam_lo = PI2 / a ** 2
        lam = lam_lo * (1e8 / lam_lo) ** rng.uniform(0.0, 1.0, n)
        ties = 0
        for i in range(n):
            r = check_lemma42(float(a[i]), float(lam[i]))
            assert r.sum_from_one <= r.upper_bound
            assert r.sum_from_zero >= r.lower_bound
            ties += (r.sum_from_one == r.upper_bound) + (r.sum_from_zero == r.lower_bound)
        print(f"    mode-sum fuzz: {n} samples, {ties} exact-equality cases")

        # inflection of the profile at sqrt(lam/(d-1)) a / pi, within 1e-6
        for d in (3, 4, 5):
            a_val, lam_val = 2.0, 9.0
            b = a_val * math.sqrt(lam_val) / PI
            h = 1e-5 * b

            def second_diff(x):
                return (fd_profile(x - h, d, a_val, lam_val)
                        - 2 * fd_profile(x, d, a_val, lam_val)
                        + fd_profile(x + h, d, a_val, lam_val))

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
            expected = math.sqrt(lam_val / (d - 1)) * a_val / PI
            assert abs(0.5 * (lo + hi) - expected) < 1e-6


def test_criterion_7_inequality_zoo(unit_square_dirichlet, unit_square_neumann,
                                    unit_cube_dirichlet, unit_cube_neumann,
                                    box12_dirichlet, box12_neumann):
    with _Criterion(7, "Berezin/Laptev/Li-Yau/Kroger/Friedlander regression"):
        pairs = [
            (unit_square_dirichlet, unit_square_neumann),
            (unit_cube_dirichlet, unit_cube_neumann),
            (box12_dirichlet, box12_neumann),
        ]
        from polyaspec import kroger_check, li_yau_checks

        rng = np.random.default_rng(SEED)
        for (sd, md), (sn, mn) in pairs:
            d = md.dimension
            jumps_d = sd.values[sd.values <= 1e4]
            jumps_n = sn.values[(sn.values > 0) & (sn.values <= 1e4)]
            for gamma in (1.0, 1.5, 2.0):
                bound = l_gamma_d(gamma, d) * md.volume * jumps_d ** (gamma + d / 2.0)
                assert np.min(bound - riesz_mean_many(sd, gamma, jumps_d)) >= 0.0
                bound = l_gamma_d(gamma, d) * mn.volume * jumps_n ** (gamma + d / 2.0)
                assert np.min(riesz_mean_many(sn, gamma, jumps_n) - bound) >= 0.0

            # Li-Yau (sum and eigenvalue form) for k <= 1e3, vectorized
            ks = np.arange(1, 1001, dtype=float)
            eigs = sd.expanded()[:1000]
            w = polya_weyl_term(md, ks)
            factor = d / (d + 2.0)
            assert np.min(np.cumsum(eigs) - factor * w * ks) >= 0.0
            assert np.min(eigs - factor * w) >= 0.0
            # Kroger for k <= 1e3
            mus = sn.expanded()[1:1001]
            assert np.min(((d + 2.0) / 2.0) ** (2.0 / d) * w - mus) >= 0.0
            # spot-check the scalar library routines against the sweeps
            for k in rng.integers(1, 1001, 10):
                sm, em = li_yau_checks(sd, md, int(k))
                assert sm >= 0.0 and em >= 0.0
                assert kroger_check(sn, mn, int(k)) >= 0.0

            # Friedlander counting form at every jump below 1e4
            merged = np.unique(np.concatenate([jumps_d, jumps_n]))
            cum_d = np.concatenate([[0], np.cumsum(sd.multiplicities)])
            cum_n = np.concatenate([[0], np.cumsum(sn.multiplicities)])
            nd_left = cum_d[np.searchsorted(sd.values, merged, side="left")]
            nn_left = cum_n[np.searchsorted(sn.values, merged, side="left")]
            nd_right = cum_d[np.searchsorted(sd.values, merged, side="right")]
            nn_right = cum_n[np.searchsorted(sn.values, merged, side="right")]
            assert np.all(nd_left <= nn_left)
            assert np.all(nd_right <= nn_right)


def test_criterion_8_constant_identities():
    with _Criterion(8, "Weyl/Riesz constant identities"):
        for d1 in range(1, 7):
            for d2 in range(1, 7):
                lhs = c_d(d2) * l_gamma_d(d2 / 2.0, d1)
                rhs = c_d(d1 + d2)
                assert abs(lhs - rhs) / rhs < 1e-12
                assert c_d(d1 + d2) < c_d(d1) * c_d(d2)
        assert c_d(2) == 1.0 / (4.0 * PI)
        for d in range(1, 13):
            assert l_gamma_d(0.0, d) == c_d(d)


def test_criterion_9_h_constants():
    with _Criterion(9, "extremal constants: goldens, stability, positivity"):
        obj = _square_deficit_objective(3, include_zero=False, sign=-1)
        assert abs(float(obj(np.array([1.0]))[0]) - 3.0 * PI / 16.0) < 1e-10

        golden_h1_3 = 0.4794871603683248   # grid 1e-4 + golden-section oracle
        golden_h2_3 = 0.40677783477152907
        assert abs(h1(3).value - golden_h1_3) < 1e-8
        assert abs(h2(3).value - golden_h2_3) < 1e-8

        for fn in (h1, h2):
            coarse = fn.__wrapped__(3, 1e-4).value
            fine = fn.__wrapped__(3, 5e-5).value
            assert abs(coarse - fine) < 1e-6

        for d in range(3, 9):
            assert h1(d).value > 0.0
            assert h2(d).value > 0.0
