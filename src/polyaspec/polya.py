"""Per-eigenvalue and counting-form verification of Polya-type inequalities.

The Dirichlet inequality says every eigenvalue sits above the Weyl
prediction w_k = 4 pi^2 (omega_d |Omega|)^(-2/d) k^(2/d); the Neumann
inequality says every nonzero eigenvalue sits below it.  Verification is a
finite sweep: per eigenvalue up to k_max, or at counting-function jumps
against a monotone bound.

Both per-eigenvalue sweeps run over runs of equal values, not over k.
Within a run w_k rises with k, so the relative margin falls along a
Dirichlet run and rises along a Neumann one, and its smallest value sits at
the run's last or first k.

``verify_dirichlet`` and ``verify_neumann`` compute that smallest margin in
floats, one per run.  A run whose smallest margin clears the band holds at
every k with no tie.  Only the other runs, which hold every near tie and
every failure, are swept per k, and margins near zero are decided there by
one of two rules.  With exact values (rational multiples of a power of pi)
and an exact volume, each margin within ``GUARD_BAND`` is decided exactly,
lambda_k^d against w_k^d = c k^2 in integers and rational bounds on pi,
and only an equality is a tie.  Otherwise margins within
``EQUALITY_BAND_FLOAT`` (float resolution) are ties.  Ties count as
satisfied, since the inequalities are non-strict, and in ``tie_breaks``.
When no run reaches the band, ``worst_location`` is the deciding k (last
or first) of the worst run.  The cost is O(V) for the V distinct values up
to k_max, plus the k of the runs that reach the band.
``per_eigenvalue_margins`` gives the same sweep's margin at every k, at
O(k_max).

``verify_exact_power`` decides every k of an exact stream with an exact
volume exactly, one comparison per run: the run's end point settles it and
a bisection finds a failed run's failing k.  ``_exact_signs`` makes those
comparisons, and the per-k rule's, on arrays: in int64 when the pi powers
cancel and every product fits under ``_INT64_GUARD``, else by a float ratio
whose a-priori relative error, (d + |shift| + 6) 2^-52, is far below
``GUARD_BAND``, so that a ratio more than ``GUARD_BAND`` from 1 has the
sign of the exact one.  The cost is array operations per run; Python only
for in-band runs, guard fallbacks and failed runs, independent of k_max.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import omega_d, omega_d_exact
from .counting import CountingFunction
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

#: relative float margins below this are decided exactly on exact streams
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


def _float_margins(meta: DomainMeta, values, ks: np.ndarray,
                   dirichlet: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(w_k, margin)`` at each k of ``ks`` with eigenvalues ``values``:
    the relative margin (lambda_k - w_k) / w_k (Dirichlet) or
    (w_k - mu_k) / w_k (Neumann), in floats."""
    w = polya_weyl_term(meta, ks.astype(float))
    return w, ((values - w) / w if dirichlet else (w - values) / w)


def _per_k(s: EigenvalueStream, meta: DomainMeta, ks: np.ndarray, runs: np.ndarray,
           side: str) -> tuple[np.ndarray, list, int]:
    """The per-k rule at each k of ``ks``, whose eigenvalue is
    ``s.values[runs]``: ``(adjusted margins, failures, tie_breaks)``.

    Margins within the band are decided by the exact rule on exact streams
    with an exact volume and are ties otherwise.  A held margin is raised
    to at least 0 and a broken one pushed below 0, so the failures, listed
    as (k, lambda_k, w_k), are the k with a negative adjusted margin."""
    values = s.values[runs]
    w, margins = _float_margins(meta, values, ks, side == "dirichlet")
    adjusted = margins.copy()
    exact = s.exact and meta.exact_volume is not None
    near = np.nonzero(np.abs(margins) <= (GUARD_BAND if exact else EQUALITY_BAND_FLOAT))[0]
    held, broken, tie_breaks = near, near[:0], near.size
    if exact and near.size:
        signs = _exact_signs(s.exact_nums[runs[near]], ks[near], meta.dimension,
                             *_exact_terms(s, meta))[0]
        ok = signs >= 0 if side == "dirichlet" else signs <= 0
        held, broken, tie_breaks = near[ok], near[~ok], int(np.count_nonzero(signs == 0))
    adjusted[held[adjusted[held] < 0]] = 0.0
    broken = broken[adjusted[broken] >= 0]
    adjusted[broken] = -adjusted[broken] - 1e-300
    failures = [(float(ks[i]), float(values[i]), float(w[i]))
                for i in np.nonzero(adjusted < 0)[0]]
    return adjusted, failures, tie_breaks


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


def _expand(first: np.ndarray, last: np.ndarray,
            index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every k of the runs ``(first, last, index)``, and the run of each."""
    lengths = last - first + 1
    starts = np.cumsum(lengths) - lengths
    ks = np.arange(int(lengths.sum())) + np.repeat(first - starts, lengths)
    return ks, np.repeat(index, lengths)


def per_eigenvalue_margins(s: EigenvalueStream, meta: DomainMeta, k_max: int,
                           side: str) -> np.ndarray:
    """The relative margin at each k = 1..checked, as ``verify_dirichlet``
    and ``verify_neumann`` decide it: margins within the band are raised to
    0 when they hold and pushed below 0 when they break.  Entry k - 1
    belongs to k.  Cost and size are O(checked)."""
    origin, checked = _sweep_range(s, k_max, side)
    return _per_k(s, meta, *_expand(*_runs(s, origin, checked)), side)[0]


def _per_eigenvalue(s: EigenvalueStream, meta: DomainMeta, k_max: int,
                    side: str) -> VerificationReport:
    origin, checked = _sweep_range(s, k_max, side)
    dirichlet = side == "dirichlet"
    first, last, index = _runs(s, origin, checked)
    # w_k rises with k, so the margin falls along a Dirichlet run and rises
    # along a Neumann one: its smallest value sits at the run's last or
    # first k.  A run whose smallest margin clears the band holds at every
    # k with no tie; only the others, which hold every near tie and every
    # failure, are swept per k.
    at = last if dirichlet else first
    _, margins = _float_margins(meta, s.values[index], at, dirichlet)
    band = GUARD_BAND if s.exact and meta.exact_volume is not None else EQUALITY_BAND_FLOAT
    special = margins <= band
    ks, runs = _expand(first[special], last[special], index[special])
    adjusted, failures, tie_breaks = _per_k(s, meta, ks, runs, side)

    # the worst margin and where it sits.  A special run's adjusted margins
    # reach the band or below it, under every ordinary run's, so the worst
    # sits among them when there are any, at the first k that attains it
    # (k ascends, and argmin takes the first hit).  Otherwise it sits at the
    # deciding k of the first run whose margin is the smallest.
    if ks.size:
        i = int(np.argmin(adjusted))
        worst_margin, worst_k = adjusted[i], int(ks[i])
    else:
        i = int(np.argmin(margins))
        worst_margin, worst_k = margins[i], int(at[i])
    return VerificationReport(
        mode="per_eigenvalue",
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=float(worst_margin),
        worst_location=float(worst_k),
        failures=tuple(failures),
        tie_breaks=tie_breaks,
    )


def verify_dirichlet(s: EigenvalueStream, meta: DomainMeta, k_max: int) -> VerificationReport:
    """Check lambda_k >= w_k for k = 1..k_max (or as far as the stream goes)."""
    return _per_eigenvalue(s, meta, k_max, "dirichlet")


def verify_neumann(s: EigenvalueStream, meta: DomainMeta, k_max: int) -> VerificationReport:
    """Check mu_k <= w_k for k = 1..k_max; the zero mode passes trivially."""
    return _per_eigenvalue(s, meta, k_max, "neumann")


def verify_exact_power(s: EigenvalueStream, meta: DomainMeta, k_max: int,
                       side: str) -> VerificationReport:
    """Exact Polya check of lambda_k^d against w_k^d = c k^2, k = 1..k_max.

    Needs exact values and an exact volume (``ModeError`` otherwise).  With
    lambda_k = n / den * pi^p, each comparison is the sign of
    n^d c_den pi^shift - c_num den^d k^2, decided by ``_exact_signs``.

    The sweep runs over distinct values, not over k.  Within a run of equal
    values w_k rises with k, so one comparison at the run's last k
    (Dirichlet) or first k (Neumann) decides the whole run and gives its
    worst margin.  The failing k of a failed run, its tail (Dirichlet) or
    head (Neumann), are found by bisection and listed as (k, lambda_k, w_k).
    Exact equalities hold and count in ``tie_breaks``.  Margins are relative
    in the d-th power: the correctly rounded (lhs - rhs) / rhs when the pi
    powers cancel, else the float lhs / rhs * pi^shift - 1 with the exact
    sign.  The cost is array operations per run; Python only for in-band
    runs, guard fallbacks and failed runs, whatever ``k_max``.
    """
    origin, checked = _sweep_range(s, k_max, side)
    if not s.exact or meta.exact_volume is None:
        raise ModeError("exact verification needs exact values and an exact volume")
    d = meta.dimension
    c_den, rhs_unit, shift = _exact_terms(s, meta)
    dirichlet = side == "dirichlet"
    # the sign of lambda_k^d - w_k^d that breaks the inequality
    bad = -1 if dirichlet else 1
    first, last, index = _runs(s, origin, checked)
    # w_k rises with k, so a run's smallest margin sits at its last k
    # (Dirichlet) or its first k (Neumann); if that k holds, all do
    at = last if dirichlet else first
    nums = s.exact_nums[index]
    signs, excess, rounded = _exact_signs(nums, at, d, c_den, rhs_unit, shift)
    if shift == 0:
        rel = excess if dirichlet else 0.0 - excess
    else:
        # the float may round across 0; the exact sign decides
        rel = np.copysign(excess, -bad * signs)

    def exact_rel(i: int) -> float:
        lhs, rhs = int(nums[i]) ** d * c_den, rhs_unit * int(at[i]) ** 2
        if shift == 0:
            return (lhs - rhs) / rhs if dirichlet else (rhs - lhs) / rhs
        return math.copysign(lhs / rhs * math.pi ** shift - 1.0, -int(signs[i]) * bad)

    # the worst margin sits at the first run whose margin is the smallest
    if rounded:
        # every lhs and rhs is below 2^53, so ``rel`` is ``exact_rel``
        i = int(np.argmin(rel))
        worst_margin, worst_k = float(rel[i]), int(at[i])
    else:
        # ``rel`` is off ``exact_rel`` by far less than 1e-12 max(1, |rel|),
        # so the first smallest margin sits among the runs that close to
        # the smallest ``rel``
        finite = np.isfinite(rel)
        low = float(rel[finite].min()) if finite.any() else 0.0
        near = ~finite | (rel <= low + 1e-12 * max(1.0, abs(low)))
        worst_margin, worst_k = math.inf, 1
        for i in np.nonzero(near)[0].tolist():
            margin = exact_rel(i)
            if margin < worst_margin:
                worst_margin, worst_k = margin, int(at[i])

    failures = []
    tie_breaks = int(np.count_nonzero(signs == 0))
    for i in np.nonzero(signs == bad)[0].tolist():
        # the sign falls along the run: positive before index ``zero``,
        # negative from index ``below``, 0 in between
        lhs, lo, hi = int(nums[i]) ** d * c_den, int(first[i]), int(last[i])
        run = range(lo, hi + 1)
        key = lambda j: -_exact_sign(lhs, rhs_unit * j * j, shift)
        zero = bisect.bisect_left(run, 0, key=key)
        below = bisect.bisect_left(run, 1, lo=zero, key=key)
        tie_breaks += below - zero
        lo, hi = (lo + below, hi + 1) if dirichlet else (lo, lo + zero)
        ks = np.arange(lo, hi, dtype=float)
        failures.extend(zip(ks.tolist(), [float(s.values[index[i]])] * ks.size,
                            polya_weyl_term(meta, ks).tolist()))
    return VerificationReport(
        mode="per_eigenvalue_exact",
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=worst_margin,
        worst_location=float(worst_k),
        failures=tuple(failures),
        tie_breaks=tie_breaks,
    )


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
    (the right limit there is unknown), or when the window holds no point.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    jump_arr = cf.jump_values()
    if jumps is not None:
        jump_arr = np.union1d(np.asarray(jumps, float), jump_arr)
    if lambda_max is None:
        lambda_max = float(cf.cutoff)
    if lambda_max > cf.cutoff:
        raise CoverageError(
            f"window ends at {lambda_max}, past the counting function's cutoff {cf.cutoff}")

    if side == "upper":
        # the right-limit check at a jump covers the plateau to its right, so
        # the jump at lambda_min (or at 0, when lambda_min is 0) is included
        points = jump_arr[(jump_arr >= lambda_min) & (jump_arr <= lambda_max)]
        if lambda_min > 0:
            points = np.unique(np.concatenate([[lambda_min], points]))
        counts = cf.count_right_many(points).astype(float)
    else:
        jump_arr = jump_arr[(jump_arr > lambda_min) & (jump_arr <= lambda_max)]
        points = np.unique(np.concatenate([jump_arr, [lambda_max]]))
        counts = cf.count_many(points).astype(float)
    if points.size == 0:
        raise CoverageError("no comparison points in the requested window")
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
