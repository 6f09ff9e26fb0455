"""Per-eigenvalue and counting-form verification of Polya-type inequalities.

The Dirichlet inequality says every eigenvalue sits above the Weyl
prediction w_k = 4 pi^2 (omega_d |Omega|)^(-2/d) k^(2/d); the Neumann
inequality says every nonzero eigenvalue sits below it.  Verification is a
finite sweep: per eigenvalue up to k_max, or at counting-function jumps
against a monotone bound.

Both per-eigenvalue verifiers are one sweep over runs of equal values, not
over k.  Within a run w_k rises with k, so the comparison can only worsen
along a Dirichlet run and only improve along a Neumann one: the run's last
k (Dirichlet) or first k (Neumann), its deciding k, settles it.  A run that
holds there holds at every k and can tie only there.  Only a failed run is
decided again at each of its k, which gives its failures (k, lambda_k,
w_k), its ties and its worst k.  The cost is array operations over the V
runs up to k_max, plus the k of the failed runs.

Each arithmetic mode has one sign rule, whatever the report format.  On an
exact stream (values rational multiples of a power of pi) with an exact
volume, every comparison is the sign of lambda_k^d - w_k^d, w_k^d = c k^2,
decided exactly by ``_exact_signs``: in int64 when the pi powers cancel
and every product fits under ``_INT64_GUARD``, else by a float ratio whose
a-priori relative error, (d + |shift| + 6) 2^-52, is far below
``GUARD_BAND``, so that a ratio more than ``GUARD_BAND`` from 1 has the
exact sign, and by Python integers and rational bounds on pi inside that
band.  Only an equality is a tie.  Otherwise the float margin decides, and
margins within ``EQUALITY_BAND_FLOAT`` (float resolution) are ties.  Ties
count as satisfied, since the inequalities are non-strict, and in
``tie_breaks``.

``verify_dirichlet`` and ``verify_neumann`` report the float margin,
relative in lambda, raised to at least 0 where the comparison holds and
pushed below 0 where it breaks; on an exact stream it is off the exact
margin by far less than ``GUARD_BAND``, so only margins inside that band
move.  ``verify_exact_power`` needs an exact stream and volume, computes no
float margin and reports margins relative in lambda^d.
``per_eigenvalue_margins`` gives the plain verifiers' margin at every k,
at O(k_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import omega_d, omega_d_exact
from .counting import CountingFunction, _count_upto, _prefix_counts
from .errors import CoverageError, DomainError, ModeError
from .pivals import PiRational
from .spectra import _INT64_GUARD, DomainMeta, EigenvalueStream

__all__ = [
    "VerificationReport",
    "polya_weyl_term",
    "verify_dirichlet",
    "verify_neumann",
    "verify_exact_power",
    "per_eigenvalue_margins",
    "verify_counting_bound",
]

#: ``_exact_signs`` decides a float ratio this close to 1 in Python integers
GUARD_BAND = 1e-9
#: float-valued spectra cannot resolve relative margins below this
EQUALITY_BAND_FLOAT = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification sweep.

    ``worst_margin`` is the minimal relative margin over all comparisons
    (negative on failure); ``failures`` lists (location, lhs, rhs) for every
    violated comparison.  ``checked < requested`` signals truncation: the
    stream ran out of eigenvalues and nothing is claimed beyond ``checked``.
    ``margins`` holds every point's margin for counting-form scans only;
    per-eigenvalue reports leave it ``None`` (see ``per_eigenvalue_margins``).
    """

    mode: str
    checked: int
    requested: int
    verdict: str
    worst_margin: float
    worst_location: float
    failures: tuple[tuple[float, float, float], ...] = ()
    tie_breaks: int = 0
    margins: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    @property
    def truncated(self) -> bool:
        return self.checked < self.requested

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "checked": self.checked,
            "requested": self.requested,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "worst_location": self.worst_location,
            "failures": [list(f) for f in self.failures],
            "tie_breaks": self.tie_breaks,
        }


def polya_weyl_term(meta: DomainMeta, k) -> float:
    """The Weyl prediction 4 pi^2 (omega_d |Omega|)^(-2/d) k^(2/d)."""
    d = meta.dimension
    factor = 4.0 * math.pi ** 2 / (omega_d(d) * meta.volume) ** (2.0 / d)
    return factor * np.asarray(k, float) ** (2.0 / d)


def polya_constant_exact(dimension: int, exact_volume: PiRational) -> PiRational:
    """(4 pi^2)^d / (omega_d |Omega|)^2 exactly: the c with w_k^d = c k^2."""
    return PiRational(4, 2) ** dimension / (omega_d_exact(dimension) * exact_volume) ** 2


def _exact_sign(lhs: int, rhs: int, shift: int) -> int:
    """The sign of lhs * pi**shift - rhs, for positive integers lhs, rhs.

    With ``shift == 0`` this is an integer comparison.  Otherwise pi is
    bracketed by dyadic rationals at doubling precision until both ends of
    the bracket give the same sign; pi is transcendental, so
    lhs * pi**shift never equals rhs and the loop ends.
    """
    if shift == 0:
        return (lhs > rhs) - (lhs < rhs)
    if shift < 0:
        # lhs pi^-t - rhs has the sign of lhs - rhs pi^t
        return -_exact_sign(rhs, lhs, -shift)
    from mpmath.libmp import mpf_pi, round_ceiling, round_floor

    prec = 64
    while True:
        signs = set()
        for rnd in (round_floor, round_ceiling):
            # a bound man * 2**exp (exp < 0) below or above pi
            _, man, exp, _ = mpf_pi(prec, rnd)
            x, y = lhs * man ** shift, rhs << -exp * shift
            signs.add((x > y) - (x < y))
        if len(signs) == 1:
            return signs.pop()
        prec *= 2


def _exact_signs(nums: np.ndarray, ks: np.ndarray, d: int, c_den: int, rhs_unit: int,
                 shift: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """``(signs, excess, rounded)`` at each numerator n of ``nums`` and k of
    ``ks``: the exact sign of lhs pi^shift - rhs, with lhs = n^d c_den and
    rhs = rhs_unit k^2, and a float estimate of lhs pi^shift / rhs - 1.

    When the pi powers cancel and every lhs and rhs fits under
    ``_INT64_GUARD``, the signs come from int64 arithmetic and the estimate
    is (lhs - rhs) / rhs.  Otherwise the float ratio lhs / rhs * pi^shift,
    from int-to-float conversions, powers by repeated multiplication and
    ``math.pi ** shift``, is within (d + |shift| + 6) 2^-52 relative of the
    true one: far below ``GUARD_BAND``, and below 1e-13 while
    d + |shift| < 400.  It decides the sign where it is finite and more
    than ``GUARD_BAND`` from 1; ``_exact_sign`` on Python ints decides the
    rest.  ``rounded`` is set only when every lhs and rhs is below 2^53: the
    estimate is then the correctly rounded (lhs - rhs) / rhs when the pi
    powers cancel, and the float lhs / rhs * pi^shift - 1 otherwise.
    """
    lhs_top, rhs_top = int(nums.max()) ** d * c_den, rhs_unit * int(ks.max()) ** 2
    rounded = max(lhs_top, rhs_top) < 2 ** 53
    if shift == 0 and nums.dtype != object and max(lhs_top, rhs_top, c_den) < _INT64_GUARD:
        rhs = rhs_unit * ks * ks
        diff = nums ** d * c_den - rhs
        return np.sign(diff), diff / rhs, rounded
    # a product past float range is inf and its ratio inf or nan: undecided
    with np.errstate(over="ignore", invalid="ignore"):
        n_float, k_float = _to_float(nums), ks.astype(float)
        lhs = n_float.copy()
        for _ in range(d - 1):
            lhs *= n_float
        rhs = k_float * k_float * _to_float(rhs_unit)
        ratio = lhs * _to_float(c_den) / rhs * math.pi ** shift
        excess = ratio - 1.0
    decided = np.isfinite(ratio) & np.isfinite(rhs) & (np.abs(excess) > GUARD_BAND)
    signs = np.where(decided, np.sign(excess), 0.0).astype(np.int64)
    undecided = np.nonzero(~decided)[0]
    signs[undecided] = [_exact_sign(n ** d * c_den, rhs_unit * k * k, shift)
                        for n, k in zip(nums[undecided].tolist(), ks[undecided].tolist())]
    return signs, excess, rounded and shift != 0


def _to_float(ints) -> np.ndarray:
    """An int or an array of ints as float64; all inf when one of them is
    past float range."""
    try:
        return np.asarray(ints).astype(float)
    except OverflowError:
        return np.full(np.shape(ints), math.inf)


def _sweep_range(s: EigenvalueStream, k_max: int, side: str) -> tuple[int, int]:
    """Check a per-eigenvalue sweep's inputs and return ``(origin, checked)``:
    the leading eigenvalues it skips (the Neumann zero mode) and the number
    of k it checks, at most ``k_max``."""
    if side not in ("dirichlet", "neumann"):
        raise DomainError(f"side must be 'dirichlet' or 'neumann', got {side!r}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if side == "dirichlet":
        if s.index_origin != 1:
            raise ModeError("Dirichlet verification needs a stream without the zero mode")
        origin = 0
    else:
        if s.index_origin != 0:
            raise ModeError("Neumann verification needs the zero mode at index 0")
        origin = 1  # k = 0 is the zero mode, trivially below the bound
    if s.total_count <= origin:
        raise CoverageError("stream holds no eigenvalues to verify")
    return origin, min(k_max, s.total_count - origin)


def _exact_terms(s: EigenvalueStream, meta: DomainMeta) -> tuple[int, int, int]:
    """``(c_den, rhs_unit, shift)`` such that lambda_k^d - w_k^d has the sign
    of ``_exact_sign(n**d * c_den, rhs_unit * k**2, shift)``, where n is the
    exact numerator of lambda_k and w_k^d = c k^2."""
    d = meta.dimension
    c = polya_constant_exact(d, meta.exact_volume)
    return (c.coeff.denominator, c.coeff.numerator * s.exact_den ** d,
            s.pi_power * d - c.pi_power)


def _runs(s: EigenvalueStream, origin: int, checked: int) -> tuple[np.ndarray, ...]:
    """``(first, last, index)`` of the runs of equal values that meet
    k = 1..checked: run ``index`` covers k in [first, last]."""
    cum = s.cumulative_counts()
    # eigenvalue k sits at position k - 1 + origin of the expanded stream
    lo = int(np.searchsorted(cum, origin, side="right")) - 1
    hi = int(np.searchsorted(cum, checked + origin, side="left"))
    first = np.maximum(cum[lo:hi] - origin + 1, 1)
    last = np.minimum(cum[lo + 1:hi + 1] - origin, checked)
    return first, last, np.arange(lo, hi)


class _Rule:
    """The rule of one sweep: a sign step and a report format.

    On a stream with exact values and an exact volume ``_exact_signs``
    decides every sign; on any other stream the float margin does, and
    margins within ``EQUALITY_BAND_FLOAT`` are ties.  With ``power`` (exact
    streams only) margins are relative in lambda^d, from ``_exact_signs``;
    without it they are the float margins relative in lambda, raised to at
    least 0 where the comparison holds and pushed below 0 where it breaks.
    """

    def __init__(self, s: EigenvalueStream, meta: DomainMeta, side: str, power: bool):
        exact = s.exact and meta.exact_volume is not None
        if power and not exact:
            raise ModeError("exact verification needs exact values and an exact volume")
        self.s, self.meta, self.dirichlet, self.power = s, meta, side == "dirichlet", power
        self.mode = "per_eigenvalue_exact" if power else "per_eigenvalue"
        self.terms = _exact_terms(s, meta) if exact else None

    def decide(self, index: np.ndarray, ks: np.ndarray) -> tuple:
        """The signs at each k of ``ks``, whose eigenvalue is
        ``s.values[index]``, then the margins: ``(signs, excess, rounded)``
        from ``_exact_signs`` with ``power``, else ``(signs, margins)`` with
        the margin (lambda_k - w_k) / w_k (Dirichlet) or (w_k - mu_k) / w_k
        (Neumann)."""
        if self.terms is not None:
            signs, excess, rounded = _exact_signs(self.s.exact_nums[index], ks,
                                                  self.meta.dimension, *self.terms)
            signs = signs if self.dirichlet else -signs
            if self.power:
                return signs, excess, rounded
        w, values = polya_weyl_term(self.meta, ks.astype(float)), self.s.values[index]
        m = (values - w) / w if self.dirichlet else (w - values) / w
        if self.terms is None:
            signs = ((m > EQUALITY_BAND_FLOAT).view(np.int8)
                     - (m < -EQUALITY_BAND_FLOAT).view(np.int8))
        return signs, np.where(signs < 0, np.minimum(m, -m - 1e-300), np.maximum(m, 0.0))

    def worst(self, index, at, decided, ks, k_decided) -> tuple[float, int]:
        if not self.power:
            # a held run's margins are at least 0 and smallest at its deciding
            # k; a failed run's reach below 0, where a float margin saturates
            # at -1 once lambda << w_k, so its worst k is the first that
            # attains it
            margins, where = (decided[1], at) if ks is None else (k_decided[1], ks)
            i = int(np.argmin(margins))
            return float(margins[i]), int(where[i])
        # a run's margin in lambda^d is smallest at its deciding k, and the
        # worst sits at the first run whose margin is the smallest
        signs, excess, rounded = decided
        d, (c_den, rhs_unit, shift) = self.meta.dimension, self.terms
        if shift == 0:
            rel = excess if self.dirichlet else 0.0 - excess
        else:
            # the float may round across 0; the exact sign decides
            rel = np.copysign(excess, signs)
        if rounded:
            # every lhs and rhs is below 2^53, so ``rel`` is ``exact_rel``
            i = int(np.argmin(rel))
            return float(rel[i]), int(at[i])

        def exact_rel(i: int) -> float:
            lhs = int(self.s.exact_nums[index[i]]) ** d * c_den
            rhs = rhs_unit * int(at[i]) ** 2
            try:
                if shift == 0:
                    return (lhs - rhs) / rhs if self.dirichlet else (rhs - lhs) / rhs
                return math.copysign(lhs / rhs * math.pi ** shift - 1.0, signs[i])
            except OverflowError:
                # lhs / rhs past float range
                return math.copysign(math.inf, signs[i])

        # ``rel`` is off ``exact_rel`` by far less than 1e-12 max(1, |rel|),
        # so the first smallest margin sits among the runs that close to
        # the smallest ``rel``
        finite = np.isfinite(rel)
        low = float(rel[finite].min()) if finite.any() else 0.0
        near = ~finite | (rel <= low + 1e-12 * max(1.0, abs(low)))
        margin, i = min((exact_rel(i), i) for i in np.nonzero(near)[0].tolist())
        return margin, int(at[i])


def _sweep(s: EigenvalueStream, meta: DomainMeta, k_max: int, side: str,
           power: bool) -> VerificationReport:
    """The per-eigenvalue sweep over runs of equal values, k = 1..checked,
    with the rule ``_Rule(s, meta, side, power)``.

    ``rule.decide(index, ks)`` decides each k of ``ks``, whose eigenvalue
    is ``s.values[index]``.  Its result starts with the signs: 1 where the
    inequality holds strictly, 0 at a tie and -1 where it breaks; the rest
    is the rule's margin data, which ``rule.worst`` reads.
    w_k rises with k, so the sign falls along a Dirichlet run and rises
    along a Neumann one: the run's last or first k, its deciding k, decides
    it, and a run that holds there holds at every k and can tie only there.
    Only a failed run is decided again at each of its k, which gives its
    failures, listed as (k, lambda_k, w_k), and its ties.
    """
    origin, checked = _sweep_range(s, k_max, side)
    rule = _Rule(s, meta, side, power)
    first, last, index = _runs(s, origin, checked)
    at = last if side == "dirichlet" else first
    decided = rule.decide(index, at)
    failed = decided[0] < 0
    failures, tie_breaks = (), int(np.count_nonzero(decided[0] == 0))
    ks = k_decided = None
    if failed.any():
        lengths = last[failed] - first[failed] + 1
        starts = np.cumsum(lengths) - lengths
        ks = np.arange(int(lengths.sum())) + np.repeat(first[failed] - starts, lengths)
        runs = np.repeat(index[failed], lengths)
        k_decided = rule.decide(runs, ks)
        broken = k_decided[0] < 0
        broken_ks = ks[broken].astype(float)
        failures = tuple(zip(broken_ks.tolist(), s.values[runs[broken]].tolist(),
                             polya_weyl_term(meta, broken_ks).tolist()))
        tie_breaks += int(np.count_nonzero(k_decided[0] == 0))
    worst_margin, worst_k = rule.worst(index, at, decided, ks, k_decided)
    return VerificationReport(
        mode=rule.mode,
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=worst_margin,
        worst_location=float(worst_k),
        failures=failures,
        tie_breaks=tie_breaks,
    )


def per_eigenvalue_margins(s: EigenvalueStream, meta: DomainMeta, k_max: int,
                           side: str) -> np.ndarray:
    """The relative margin at each k = 1..checked, as ``verify_dirichlet``
    and ``verify_neumann`` decide it: raised to at least 0 where the
    comparison holds and pushed below 0 where it breaks.  Entry k - 1
    belongs to k.  Cost and size are O(checked)."""
    origin, checked = _sweep_range(s, k_max, side)
    first, last, index = _runs(s, origin, checked)
    return _Rule(s, meta, side, False).decide(np.repeat(index, last - first + 1),
                                              np.arange(1, checked + 1))[1]


def verify_dirichlet(s: EigenvalueStream, meta: DomainMeta, k_max: int) -> VerificationReport:
    """Check lambda_k >= w_k for k = 1..k_max (or as far as the stream goes)."""
    return _sweep(s, meta, k_max, "dirichlet", False)


def verify_neumann(s: EigenvalueStream, meta: DomainMeta, k_max: int) -> VerificationReport:
    """Check mu_k <= w_k for k = 1..k_max; the zero mode passes trivially."""
    return _sweep(s, meta, k_max, "neumann", False)


def verify_exact_power(s: EigenvalueStream, meta: DomainMeta, k_max: int,
                       side: str) -> VerificationReport:
    """Exact Polya check of lambda_k^d against w_k^d = c k^2, k = 1..k_max.

    Needs exact values and an exact volume (``ModeError`` otherwise).  With
    lambda_k = n / den * pi^p, each comparison is the sign of
    n^d c_den pi^shift - c_num den^d k^2, decided by ``_exact_signs`` in the
    run sweep; exact equalities hold and count in ``tie_breaks``.  Margins
    are relative in the d-th power: the correctly rounded (lhs - rhs) / rhs
    when the pi powers cancel, else the float lhs / rhs * pi^shift - 1 with
    the exact sign, and +-inf with that sign when lhs / rhs passes float
    range.  The worst margin sits at a run's deciding k.  The cost is array
    operations per run; Python only for in-band comparisons and guard
    fallbacks, whatever ``k_max``.
    """
    return _sweep(s, meta, k_max, side, True)


def _bound_values(bound: Callable, points: np.ndarray) -> np.ndarray:
    """``bound`` at every point: one call on the array when the bound
    returns an array of its shape, else one call per point on Python
    floats."""
    try:
        values = bound(points)
    except (TypeError, ValueError):
        values = None
    if isinstance(values, np.ndarray) and values.shape == points.shape:
        return values.astype(float, copy=False)
    return np.fromiter(map(bound, points.tolist()), float, points.size)


def verify_counting_bound(cf: CountingFunction, bound: Callable[[float], float],
                          side: str, lambda_min: float = 0.0,
                          lambda_max: Optional[float] = None,
                          jumps: Optional[Sequence[float]] = None) -> VerificationReport:
    """Check a counting function against a continuous monotone bound.

    Upper side: N(lambda_j+) <= bound(lambda_j) at every jump (plus at
    lambda_min itself), which is equivalent to N <= bound on all of
    (lambda_min, lambda_max].  Lower side: N(lambda_j) >= bound(lambda_j)
    at every jump plus the endpoint.  ``jumps`` adds points to the
    counter's own jump set; it never replaces it, since a missing jump could
    hide a violation.

    Every count is a prefix-sum entry (``counting._prefix_counts``): the
    counter's streams (a sum's parts, recursively) and the added points
    (``jumps``, and ``lambda_min`` or ``lambda_max``, the side's endpoint)
    are merged by one stable sort, and two scalar ``searchsorted`` calls cut
    the window; no point is searched for on its own.

    ``bound`` is called once, on the whole array of points, and that result
    is used when it is an array of the points' shape; a bound that accepts
    arrays must therefore be elementwise (``np.sqrt``, arithmetic).  When
    the call raises ``TypeError`` or ``ValueError`` (a ``math.sqrt`` or an
    ``if lam < x`` bound), or returns a scalar or an array of another shape,
    the bound is evaluated point by point on Python floats instead.  Both
    paths round each value the same way, so elementwise IEEE bounds give
    identical reports on either.

    Raises ``CoverageError`` when ``lambda_max`` exceeds ``cf.cutoff``, when
    an upper-side point (``lambda_min`` included) is not below ``cf.cutoff``
    (the right limit there is unknown), or when the window holds no point,
    and ``DomainError`` for a NaN ``lambda_max`` on the lower side.  NaN
    points in ``jumps`` are never in the window.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    extra = np.asarray([] if jumps is None else jumps, float).ravel()
    if lambda_max is None:
        lambda_max = float(cf.cutoff)
    if lambda_max > cf.cutoff:
        raise CoverageError(
            f"window ends at {lambda_max}, past the counting function's cutoff {cf.cutoff}")

    if side == "upper":
        # the right-limit check at a jump covers the plateau to its right, so
        # the jump at lambda_min (or at 0, when lambda_min is 0) is included
        points, _, counts = _prefix_counts(cf, np.append(extra, lambda_min)
                                           if lambda_min > 0 else extra)
        lo = int(np.searchsorted(points, lambda_min, side="left"))
        hi = _count_upto(points, lambda_max)
        if lambda_min > 0:
            # lambda_min is a point even past lambda_max
            hi = max(hi, lo + 1)
    else:
        if math.isnan(lambda_max):
            raise DomainError("lambda must be a number, got nan")
        points, counts, _ = _prefix_counts(cf, np.append(extra, lambda_max))
        hi = _count_upto(points, lambda_max)
        lo = int(np.searchsorted(points, lambda_min, side="right"))
        if lo >= hi:
            # no jump in (lambda_min, lambda_max]: lambda_max alone, as given
            # (not a jump's zero of the other sign)
            lo, points[hi - 1] = hi - 1, lambda_max
    points, counts = points[lo:hi], counts[lo:hi].astype(float)
    if points.size == 0:
        raise CoverageError("no comparison points in the requested window")
    if side == "upper" and points[-1] >= cf.cutoff:
        raise CoverageError(
            f"lambda={points[-1]} is not below the counting function's cutoff {cf.cutoff}, "
            "so the right limit N(lambda+) is unknown; regenerate with a larger cutoff")
    # a bound that writes into its argument falls back to the per-point path
    points.flags.writeable = False
    bounds = _bound_values(bound, points)
    margins = bounds - counts if side == "upper" else counts - bounds

    rel = margins / np.maximum(np.abs(bounds), 1.0)
    bad = margins < 0
    failures = tuple(zip(points[bad].tolist(), counts[bad].tolist(), bounds[bad].tolist()))
    worst = int(np.argmin(rel))
    return VerificationReport(
        mode="counting_jumps",
        checked=int(points.size),
        requested=int(points.size),
        verdict="fails" if failures else "holds",
        worst_margin=float(rel[worst]),
        worst_location=float(points[worst]),
        failures=failures,
        margins=rel,
    )
