"""One-command reproduction bundles for the two worked desk-scale examples.

``sphere_thin``: the product (0, a) x S^2.  At a = pi/24 the volume is
pi^2/6 and the Polya comparison rationalizes to the integer inequality
value^3 vs 1296 k^2, verified exactly for the first 100000 eigenvalues on
both sides.  Large a breaks both inequalities at k = 1, witnessed by
pi^2/a^2.

``square_triangle``: the planar domain made of a side-10 square with a
unit equilateral triangle attached to one side.  Its Neumann counting
function is bounded by the sum of the parts' counting functions, each of
which obeys an explicit two-term bound; the assembled remainder constant
50 feeds the thin-product threshold, which comes out above 1/(4 pi).

Every domain is built from a spectrum spec (``polyaspec.spec``), the path
the command line takes too; the thin-sphere streams come from
``stream_covering_k``, the one cutoff-growth loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import counting as ct
from . import polya as pv
from . import spectra as sp
from .constants import (
    ThresholdCase,
    ThresholdRequest,
    c_d,
    threshold_a0,
)
from .pivals import PiRational
from .spec import SpectrumSpec, build_spec, stream_covering_k

__all__ = [
    "rationalized_polya_constant",
    "sphere_thin_bundle",
    "square_triangle_bundle",
    "SPHERE_THIN_KMAX",
    "SQUARE_TRIANGLE_CUTOFF",
]

SPHERE_THIN_KMAX = 100_000
SQUARE_TRIANGLE_CUTOFF = 1.0e4

#: the strict square/triangle bounds are claimed for lambda above the
#: Faber-Krahn floor of the composite domain, not as lambda -> 0+
SQUARE_TRIANGLE_LAMBDA_MIN = 0.1


def rationalized_polya_constant(dimension: int, exact_volume: PiRational) -> Fraction:
    """(4 pi^2)^d / (omega_d |Omega|)^2 as an exact rational: the
    ``polya.polya_constant_exact`` coefficient.

    This is the constant c with w_k^d = c * k^2; it is rational exactly
    when the pi powers cancel, which the caller must arrange (e.g. volume
    pi^2/6 in dimension 3 gives 1296).
    """
    return pv.polya_constant_exact(dimension, exact_volume).as_fraction()


def _thin_sphere(a, bc: str) -> SpectrumSpec:
    """The product (0, a) x S^2."""
    return build_spec({"product": [{"interval": {"a": a, "bc": bc}}, {"sphere2": {}}]})


def empirical_weyl_onset(stream: sp.EigenvalueStream, factor: float) -> float:
    """Smallest onset C1 such that N(lambda) > factor * lambda at every jump
    above C1 (scanned up to the stream cutoff; conditional beyond it)."""
    jumps = stream.values[stream.values > 0]
    counts = stream.count_many(jumps).astype(float)
    bad = jumps[counts <= factor * jumps]
    return float(bad.max()) if bad.size else float(jumps[0])


def sphere_thin_bundle(k_max: int = SPHERE_THIN_KMAX) -> dict:
    """Exact Polya verification for (0, pi/24) x S^2 plus the large-a failures."""
    stream_d, meta_d = stream_covering_k(_thin_sphere("pi/24", "dirichlet"), k_max)
    stream_n, meta_n = stream_covering_k(_thin_sphere("pi/24", "neumann"), k_max)
    # the integer constant the bundle reports, re-derived from the exact volume
    constant = rationalized_polya_constant(3, meta_d.exact_volume)

    rep_d = pv.verify_exact_power(stream_d, meta_d, k_max, "dirichlet")
    rep_n = pv.verify_exact_power(stream_n, meta_n, k_max, "neumann")
    rep_d_float = pv.verify_dirichlet(stream_d, meta_d, k_max)
    rep_n_float = pv.verify_neumann(stream_n, meta_n, k_max)

    # thresholds behind the a = pi/24 claim
    sphere_stream = build_spec({"sphere2": {}}).stream(1.0e4)
    onset = empirical_weyl_onset(sphere_stream, factor=c_d(3) * math.pi * 4.0 * math.pi)
    thr_d = threshold_a0(ThresholdRequest(
        ThresholdCase.MANIFOLD_DIRICHLET_D1EQ1_D2EQ2, volume=4.0 * math.pi, c_remainder=1.0))
    thr_n = threshold_a0(ThresholdRequest(
        ThresholdCase.NEUMANN_THIN_D2, volume=4.0 * math.pi, c_remainder=1.0, c1_onset=onset))

    # large-a failure cases, witnessed by the first interval mode pi^2/a^2
    a_fail_d = math.pi
    fail_d_spec = _thin_sphere(a_fail_d, "dirichlet")
    fail_d = pv.verify_dirichlet(fail_d_spec.stream(5.0), fail_d_spec.meta(), 1)
    a_fail_n = 0.99 * math.sqrt(2.0 / 3.0) * math.pi
    fail_n_spec = _thin_sphere(a_fail_n, "neumann")
    fail_n = pv.verify_neumann(fail_n_spec.stream(5.0), fail_n_spec.meta(), 1)

    ok = (rep_d.holds and rep_n.holds and rep_d_float.holds and rep_n_float.holds
          and rep_d.checked >= k_max and rep_n.checked >= k_max
          and not fail_d.holds and not fail_n.holds
          and math.pi / 24.0 <= min(thr_d.a0, thr_n.a0))
    return {
        "example": "sphere-thin",
        "ok": ok,
        "integer_constant": {"num": constant.numerator, "den": constant.denominator},
        "dirichlet_exact": rep_d.to_dict(),
        "neumann_exact": rep_n.to_dict(),
        "dirichlet_float": rep_d_float.to_dict(),
        "neumann_float": rep_n_float.to_dict(),
        "threshold_dirichlet": _threshold_dict(thr_d),
        "threshold_neumann": _threshold_dict(thr_n),
        "empirical_weyl_onset": onset,
        "claimed_a": math.pi / 24.0,
        "failure_dirichlet": {"a": a_fail_d, "witness": math.pi ** 2 / a_fail_d ** 2,
                              **fail_d.to_dict()},
        "failure_neumann": {"a": a_fail_n, "witness": math.pi ** 2 / a_fail_n ** 2,
                            **fail_n.to_dict()},
    }


def _threshold_dict(res) -> dict:
    return {
        "case": res.case.value,
        "a0": res.a0,
        "branches": res.branches,
        "binding_branch": res.binding_branch,
        "conditional_on": list(res.conditional_on),
        "complete": res.complete,
    }


def square_bound(lam):
    return 100.0 * lam / (4.0 * math.pi) + 20.0 * np.sqrt(lam)


def triangle_bound(lam):
    return math.sqrt(3.0) * lam / (16.0 * math.pi) + 30.0 * np.sqrt(lam)


def composite_bound(lam):
    return (100.0 + math.sqrt(3.0) / 4.0) * lam / (4.0 * math.pi) + 50.0 * np.sqrt(lam)


def square_triangle_bundle(cutoff: float = SQUARE_TRIANGLE_CUTOFF) -> dict:
    """Counting bounds for the square-with-triangle domain and its threshold."""
    volume = 100.0 + math.sqrt(3.0) / 4.0
    lambda_min = SQUARE_TRIANGLE_LAMBDA_MIN
    # Faber-Krahn: lambda_1 >= 4 pi^2 / (omega_2 |Omega|) = 4 pi / |Omega|,
    # so the Dirichlet count of the composite domain vanishes below the floor
    faber_krahn_floor = 4.0 * math.pi / volume

    square = build_spec({"box": {"sides": [10, 10], "bc": "neumann"}})
    cf_square = square.counting(cutoff * 1.0001)
    cf_triangle = build_spec({"triangle": {}}).counting(cutoff * 1.0001)
    cf_sum = ct.SumCountingFunction([cf_square, cf_triangle])

    rep_square = pv.verify_counting_bound(cf_square, square_bound, "upper",
                                          lambda_min=lambda_min, lambda_max=cutoff)
    rep_triangle = pv.verify_counting_bound(cf_triangle, triangle_bound, "upper",
                                            lambda_min=lambda_min, lambda_max=cutoff)
    rep_sum = pv.verify_counting_bound(cf_sum, composite_bound, "upper",
                                       lambda_min=lambda_min, lambda_max=cutoff)

    thr = threshold_a0(ThresholdRequest(
        ThresholdCase.DIRICHLET_THIN_D2, volume=volume, c_remainder=50.0))
    target = 1.0 / (4.0 * math.pi)
    ok = (rep_square.holds and rep_triangle.holds and rep_sum.holds
          and faber_krahn_floor > lambda_min and thr.a0 >= target)
    return {
        "example": "square-triangle",
        "ok": ok,
        "volume": volume,
        "lambda_min": lambda_min,
        "faber_krahn_floor": faber_krahn_floor,
        "square_scan": rep_square.to_dict(),
        "triangle_scan": rep_triangle.to_dict(),
        "composite_scan": rep_sum.to_dict(),
        "remainder_constant": 50.0,
        "threshold": _threshold_dict(thr),
        "claimed_a": target,
        "threshold_covers_claim": thr.a0 >= target,
    }
