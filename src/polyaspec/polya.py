"""Per-eigenvalue and counting-form verification of Polya-type inequalities.

The Dirichlet inequality says every eigenvalue sits above the Weyl
prediction w_k = 4 pi^2 (omega_d |Omega|)^(-2/d) k^(2/d); the Neumann
inequality says every nonzero eigenvalue sits below it.  Verification is a
finite sweep: per eigenvalue up to k_max, or at counting-function jumps
against a monotone bound.

Per-eigenvalue margins are computed in floats; those near zero are decided
by one of two rules.  With exact values (rational multiples of a power of
pi) and an exact volume, each margin within ``GUARD_BAND`` is decided
exactly, lambda_k^d against w_k^d = c k^2 in integers and rational bounds
on pi, and only an equality is a tie.  Otherwise margins within
``EQUALITY_BAND_FLOAT`` (float resolution) are ties.  Ties count as
satisfied, since the inequalities are non-strict, and in ``tie_breaks``.

``verify_exact_power`` decides rational exact streams in Python ints, one
comparison per distinct value: within a run of equal values the margin is
monotone in k, so the run's end point settles it.  Its cost is O(V) for V
distinct values, plus one entry per failure, independent of k_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from mpmath.libmp import mpf_pi, round_ceiling, round_floor

from .constants import omega_d, omega_d_exact
from .counting import CountingFunction
from .errors import CoverageError, DomainError, ModeError
from .pivals import PiRational
from .spectra import DomainMeta, EigenvalueStream

__all__ = [
    "VerificationReport",
    "polya_weyl_term",
    "verify_dirichlet",
    "verify_neumann",
    "verify_exact_power",
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


def _per_eigenvalue(s: EigenvalueStream, meta: DomainMeta, k_max: int,
                    side: str) -> VerificationReport:
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
    candidates = s.expanded()[origin:]
    if candidates.size == 0:
        raise CoverageError("stream holds no eigenvalues to verify")

    checked = min(k_max, candidates.size)
    ks = np.arange(1, checked + 1, dtype=float)
    w = polya_weyl_term(meta, ks)
    values = candidates[:checked]
    margins = (values - w) / w if side == "dirichlet" else (w - values) / w

    adjusted = margins.copy()
    exact = s.exact and meta.exact_volume is not None
    near = np.nonzero(np.abs(margins) <= (GUARD_BAND if exact else EQUALITY_BAND_FLOAT))[0]
    held, broken, tie_breaks = near, near[:0], near.size
    if exact and near.size:
        # lambda_k^d - w_k^d has the sign of n^d c_den pi^shift - c_num den^d k^2,
        # with n the numerator of the run holding lambda_k
        d = meta.dimension
        c = polya_constant_exact(d, meta.exact_volume)
        shift = s.pi_power * d - c.pi_power
        rhs_unit = c.coeff.numerator * s.exact_den ** d
        runs = np.searchsorted(s.cumulative_counts(), near + origin, side="right") - 1
        signs = np.array([
            _exact_sign(n ** d * c.coeff.denominator, rhs_unit * (i + 1) ** 2, shift)
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
    return VerificationReport(
        mode="per_eigenvalue",
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=float(adjusted[worst]),
        worst_location=float(worst + 1),
        failures=tuple(failures),
        tie_breaks=tie_breaks,
        margins=adjusted,
    )


def verify_dirichlet(s: EigenvalueStream, meta: DomainMeta, k_max: int) -> VerificationReport:
    """Check lambda_k >= w_k for k = 1..k_max (or as far as the stream goes)."""
    return _per_eigenvalue(s, meta, k_max, "dirichlet")


def verify_neumann(s: EigenvalueStream, meta: DomainMeta, k_max: int) -> VerificationReport:
    """Check mu_k <= w_k for k = 1..k_max; the zero mode passes trivially."""
    return _per_eigenvalue(s, meta, k_max, "neumann")


def verify_exact_power(s: EigenvalueStream, c_num: int, c_den: int, dimension: int,
                       k_max: int, side: str) -> VerificationReport:
    """Integer-only Polya check: value_k^d * c_den vs c_num * k^2.

    Valid when the stream is exact with rational values and the caller has
    rationalized the Polya constant: w_k^d = (c_num / c_den) * k^2.  With
    value_k = n_k / den this compares n_k^d * c_den against
    c_num * k^2 * den^d in Python ints.  The Dirichlet side requires >=,
    the Neumann side (skipping the zero mode) <=.  No floating point enters
    any comparison; each margin is one correctly rounded int division.

    The sweep runs over distinct values, not over k.  Within a run of equal
    values w_k rises with k, so the Dirichlet margin falls along the run and
    the Neumann margin rises: one comparison at the run's last k
    (Dirichlet) or first k (Neumann) decides the whole run and gives its
    worst margin.  When it fails, the failing k of the run follow in closed
    form from ``math.isqrt``, and each is listed as before.  The cost is
    O(V + failures) for V distinct values, whatever ``k_max``.
    """
    if side not in ("dirichlet", "neumann"):
        raise DomainError(f"side must be 'dirichlet' or 'neumann', got {side!r}")
    if c_num <= 0 or c_den <= 0:
        raise DomainError("the rationalized constant must be positive")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if not s.exact or s.pi_power != 0:
        raise ModeError("exact verification needs a stream with rational exact values")
    mults = s.multiplicities.tolist()
    if side == "neumann":
        if s.index_origin != 0:
            raise ModeError("Neumann verification needs the zero mode at index 0")
        mults[0] -= 1
    elif s.index_origin != 1:
        raise ModeError("Dirichlet verification needs a stream without the zero mode")
    checked = min(k_max, sum(mults))
    if not checked:
        raise CoverageError("stream holds no eigenvalues to verify")

    den = s.exact_den
    rhs_unit = c_num * den ** dimension
    dirichlet = side == "dirichlet"
    failures = []
    worst_margin = math.inf
    worst_k = 1
    k = 0
    for n, m in zip(s.exact_nums.tolist(), mults):
        first, k = k + 1, min(k + m, checked)
        if k < first:
            continue  # the Neumann zero mode, skipped above
        lhs = n ** dimension * c_den
        # w_k rises with k, so the run's smallest margin sits at its last k
        # (Dirichlet) or its first k (Neumann); if that k holds, all do
        at = k if dirichlet else first
        rhs = rhs_unit * at * at
        rel = (lhs - rhs) / rhs if dirichlet else (rhs - lhs) / rhs
        if rel < worst_margin:
            worst_margin = rel
            worst_k = at
        if dirichlet and lhs < rhs:
            # lhs < rhs_unit * j^2 exactly when j > isqrt(lhs // rhs_unit)
            bad = range(max(first, math.isqrt(lhs // rhs_unit) + 1), k + 1)
        elif not dirichlet and lhs > rhs:
            # lhs > rhs_unit * j^2 exactly when j <= isqrt((lhs - 1) // rhs_unit)
            bad = range(first, min(k, math.isqrt((lhs - 1) // rhs_unit)) + 1)
        else:
            bad = ()
        failures.extend((float(j), n / den, float(c_num * j * j) / c_den) for j in bad)
        if k == checked:
            break
    return VerificationReport(
        mode="per_eigenvalue_exact",
        checked=checked,
        requested=k_max,
        verdict="fails" if failures else "holds",
        worst_margin=worst_margin,
        worst_location=float(worst_k),
        failures=tuple(failures),
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
    failures = tuple(
        (float(points[i]), float(counts[i]), float(bounds[i]))
        for i in np.nonzero(margins < 0)[0]
    )
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
