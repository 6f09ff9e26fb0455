"""Exact Laplace spectra of model domains and their products.

The generators cover the model families with closed-form spectra: intervals,
rectangular boxes, the unit-side equilateral triangle (Neumann, one value
per ordered pair of its lattice) and the round 2-sphere.  ``product_spectrum``
composes two spectra by pairwise sums, which is how product domains get
their eigenvalues: it forms them in row blocks, with no pair matrix, and
exact products bound their sums by an integer and count dense ones into
slots.  A box is the product of its sides' intervals, so ``box_spectrum``
folds ``product_spectrum`` over ``interval_spectrum`` streams.  A box whose
sides mix kinds (a float with an exact length, or p/q with p pi/q) takes
each side's values as that interval computes them, which can differ from a
direct sum of the modes by an ulp or two.  Each call parses its string
lengths; a spec node (``polyaspec.spec``) passes its lengths parsed once.

A stream records eigenvalues strictly below a cutoff, with multiplicities.
When the generating lengths are rational, or rational multiples of pi, the
stream also carries its values exactly as integer numerators over one
common denominator, in units of ``pi**pi_power`` (``exact_nums``,
``exact_den``), enabling integer-only inequality checks downstream.  A
stream keeps the denominator of the lattice it was built over, or the one
it was given, never reduced.  Numerators are int64 until one reaches
``_INT64_GUARD``; past it they are Python ints in an object array.
Generators and products only bound their lattices from above;
``_stream_from_distinct`` alone decides which exact values are below the
cutoff, by their float value ``float(n) * (pi**pi_power / den)``.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sized
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CoverageError, DomainError, ModeError, ValidationError
from .pivals import PiRational, _from_ratio, _ratio_float, as_pi_rational

__all__ = [
    "BoundaryCondition",
    "DomainMeta",
    "EigenvalueStream",
    "interval_spectrum",
    "box_spectrum",
    "sphere2_spectrum",
    "triangle_neumann_spectrum",
    "product_spectrum",
    "tabulated_spectrum",
    "interval_meta",
    "box_meta",
    "sphere2_meta",
    "triangle_meta",
    "product_meta",
    "stream_to_csv",
    "stream_from_csv",
    "stream_to_json_dict",
    "stream_from_json_dict",
]

#: relative tolerance for merging coinciding float eigenvalues
FLOAT_MERGE_RTOL = 1e-12

#: guard against silent int64 overflow in exact integer paths
_INT64_GUARD = 2 ** 62

#: most modes one interval spectrum may hold, and most distinct values of the
#: 2-sphere or lattice pairs of the triangle: each takes 8 bytes in several
#: arrays, so this many is gigabytes already, and a longer interval or a
#: higher cutoff is refused before anything is allocated
_MAX_MODES = 10 ** 8


class BoundaryCondition(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    CLOSED = "closed"


@dataclass(frozen=True)
class DomainMeta:
    """Geometric data a bound needs: dimension, volume, boundary area, bc."""

    dimension: int
    volume: float
    bc: BoundaryCondition
    surface_area: Optional[float] = None
    exact_volume: Optional[PiRational] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        if not 0 < self.volume < math.inf:
            raise DomainError(f"volume must be positive and finite, got {self.volume}")
        if self.surface_area is not None and not 0 < self.surface_area < math.inf:
            raise DomainError("surface_area, when present, must be positive and finite")
        object.__setattr__(self, "bc", BoundaryCondition(self.bc))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _numerators(nums) -> np.ndarray:
    """Integer numerators as int64, or as Python ints in an object array
    once any of them reaches ``_INT64_GUARD``."""
    arr = np.asarray(nums)
    if not arr.size or (arr.dtype.kind in "iu"
                        and -_INT64_GUARD < arr.min() and arr.max() < _INT64_GUARD):
        return arr.astype(np.int64, copy=False)
    # past the guard, or Python ints that numpy reads as float64 ([0, 2**63])
    arr = np.asarray(nums, dtype=object)
    if not all(isinstance(n, int) for n in arr.tolist()):
        raise ValidationError("exact numerators must be integers")
    return arr if max(map(abs, arr.tolist())) >= _INT64_GUARD else arr.astype(np.int64)


def _check_increasing(values: np.ndarray) -> None:
    """``ValidationError`` unless the float values strictly increase (NaN
    fails, since every comparison with NaN is false)."""
    if not (values[1:] > values[:-1]).all():
        raise ValidationError("eigenvalues must be strictly increasing numbers")


@dataclass(frozen=True)
class EigenvalueStream:
    """Increasing (value, multiplicity) pairs below a cutoff.

    ``exact_nums``, when present, holds the same values exactly: value i is
    ``exact_nums[i] / exact_den * pi**pi_power``.  ``exact_den`` is the
    denominator of the lattice the stream was built over, or the one it was
    given, never reduced: a builder's float values are
    ``exact_nums * (pi**pi_power / exact_den)``, bit for bit.

    A stream made by this constructor is validated in full: tabulated, CSV
    and JSON input and any direct construction.  The generators,
    ``product_spectrum`` and ``truncated`` build theirs through
    ``_built``, since their construction already guarantees nonnegative
    values below the cutoff, positive int64 multiplicities and distinct
    ascending numerators.  ``_built`` checks only that the float values
    strictly increase (two exact numerators can round to one float) and,
    as here, stores the numerators as int64 unless one reaches
    ``_INT64_GUARD``.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    cutoff: float
    exact_nums: Optional[np.ndarray] = None
    exact_den: int = 1
    pi_power: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mults = np.asarray(self.multiplicities, dtype=np.int64)
        if values.ndim != 1 or mults.shape != values.shape:
            raise ValidationError("values and multiplicities must be matching 1-D arrays")
        if not self.cutoff > 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff}")
        # each check fails on NaN, since every comparison with NaN is false
        if values.size:
            if not values[0] >= 0:
                raise ValidationError("eigenvalues must be nonnegative numbers")
            _check_increasing(values)
            if not values[-1] < self.cutoff:
                raise ValidationError("all eigenvalues must lie strictly below the cutoff")
        if np.any(mults < 1):
            raise ValidationError("multiplicities must be positive integers")
        nums = None
        if self.exact_nums is not None:
            nums = _numerators(self.exact_nums)
            den = self.exact_den
            if not isinstance(den, int) or den < 1:
                raise ValidationError(f"exact_den must be a positive integer, got {den!r}")
            if nums.shape != values.shape:
                raise ValidationError("exact_nums length does not match values")
            if np.any(nums[1:] <= nums[:-1]):
                raise ValidationError("exact_nums must be strictly increasing")
        self._store(values, mults, nums, self.exact_den)

    @classmethod
    def _built(cls, values: np.ndarray, mults: np.ndarray, cutoff: float, nums=None,
               den: int = 1, pi_power: int = 0) -> "EigenvalueStream":
        """A stream from a builder's float64 values and int64 multiplicities,
        which its construction guarantees valid but for the check here that
        the values strictly increase; ``nums`` keep ``den``.  A builder
        chooses int64 numerators only below ``_INT64_GUARD``, so only Python
        ints go through ``_numerators``, to int64 when all of them are below
        it."""
        _check_increasing(values)
        if nums is not None and nums.dtype == object:
            nums = _numerators(nums)
        stream = object.__new__(cls)
        object.__setattr__(stream, "cutoff", cutoff)
        object.__setattr__(stream, "pi_power", pi_power)
        stream._store(values, mults, nums, den)
        return stream

    def _store(self, values: np.ndarray, mults: np.ndarray, nums: Optional[np.ndarray],
               den: int) -> None:
        """Set the arrays read-only, the numerators over ``den`` as given."""
        object.__setattr__(self, "exact_nums", None if nums is None else _readonly(nums))
        object.__setattr__(self, "exact_den", den)
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "multiplicities", _readonly(mults))

    # -- basic queries -----------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.exact_nums is not None

    @property
    def index_origin(self) -> int:
        """0 when the stream starts with the zero mode, else 1."""
        if self.values.size and self.values[0] == 0.0:
            return 0
        return 1

    @property
    def total_count(self) -> int:
        return int(self.multiplicities.sum())

    def entries(self) -> Iterator[tuple[float, int]]:
        return zip(self.values.tolist(), self.multiplicities.tolist())

    def expanded(self) -> np.ndarray:
        """Eigenvalues repeated with multiplicity, ascending."""
        return np.repeat(self.values, self.multiplicities)

    def check_range(self, lams, right: bool = False) -> np.ndarray:
        """``lams`` as a float array, each a number within the stream's
        range: at most the cutoff, or below it when ``right`` asks for right
        limits (values at the cutoff itself are not recorded).  Every
        counting and Riesz query checks its lambdas here."""
        lams = np.asarray(lams, dtype=float)
        if lams.size:
            if np.isnan(lams).any():
                raise DomainError("lambda must be a number, got nan")
            top = lams.max()
            if right and top >= self.cutoff:
                raise CoverageError(
                    f"lambda={top} is not below stream cutoff {self.cutoff}, so the right "
                    "limit N(lambda+) is unknown; regenerate with a larger cutoff"
                )
            if top > self.cutoff:
                raise CoverageError(
                    f"lambda={top} exceeds stream cutoff {self.cutoff}; "
                    "regenerate with a larger cutoff"
                )
        return lams

    def cumulative_counts(self) -> np.ndarray:
        """Read-only ``[0, cumsum(multiplicities)]``, built on first use:
        entry i counts the eigenvalues below ``values[i]``, entry i + 1 those
        up to and including it."""
        cum = self.__dict__.get("_cumulative")
        if cum is None:
            cum = _readonly(np.concatenate([[0], np.cumsum(self.multiplicities)]))
            object.__setattr__(self, "_cumulative", cum)
        return cum

    def count_many(self, lams) -> np.ndarray:
        """Eigenvalues strictly below each of ``lams`` (with multiplicity)."""
        lams = self.check_range(lams)
        return self.cumulative_counts()[np.searchsorted(self.values, lams, side="left")]

    def count_right_many(self, lams) -> np.ndarray:
        """Eigenvalues ``<= lam`` for each of ``lams``: the right limits of the
        counting steps.  Each ``lam`` must lie below the cutoff, since values
        at the cutoff itself are not recorded."""
        lams = self.check_range(lams, right=True)
        return self.cumulative_counts()[np.searchsorted(self.values, lams, side="right")]

    def count(self, lam: float) -> int:
        """Number of eigenvalues strictly below ``lam`` (with multiplicity)."""
        return int(self.count_many(lam))

    def count_right(self, lam: float) -> int:
        """Number of eigenvalues ``<= lam``: the right limit of the counting step."""
        return int(self.count_right_many(lam))

    def truncated(self, cutoff: float) -> "EigenvalueStream":
        """The same stream restricted to values strictly below ``cutoff``;
        the stream itself when ``cutoff`` is its own."""
        if cutoff == self.cutoff:
            return self
        self.check_range(cutoff)
        if not cutoff > 0:
            raise DomainError(f"cutoff must be positive, got {cutoff}")
        mask = self.values < cutoff
        nums = self.exact_nums[mask] if self.exact else None
        return EigenvalueStream._built(self.values[mask], self.multiplicities[mask], cutoff,
                                       nums, self.exact_den, self.pi_power)


# ---------------------------------------------------------------------------
# aggregation helpers


def _aggregate_float(values: np.ndarray, mults: np.ndarray):
    """Merge coinciding values up to ``FLOAT_MERGE_RTOL`` relative;
    exact-coincidence in the generators makes the tolerance a safety net,
    not a crutch."""
    if values.size == 0:
        return values.astype(float), mults.astype(np.int64)
    order = np.argsort(values, kind="stable")
    v = values[order]
    m = mults[order]
    gaps = np.diff(v) > FLOAT_MERGE_RTOL * np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    starts = np.concatenate(([0], np.nonzero(gaps)[0] + 1))
    agg_v = v[starts]
    agg_m = np.add.reduceat(m, starts)
    return agg_v, agg_m


#: int64 pair sums whose span cut - min + 1, from the least sum to the
#: integer cut, is at most this many times their count N are counted into
#: span slots by ``product_spectrum``.
#: Measured against the stable sort on the pair sums of exact boxes at
#: k_max 1e5 (N about 130k): counting was 2.8x faster at span / N 2.6, 1.4x
#: faster at 7.7 and 1.4x slower at 15, so the crossover sits near 10; on a
#: product of N = 1.4k it was already slower at 7.9.  4 keeps a margin
#: below both.
_COUNT_SPAN_FACTOR = 4


def _slot_counts(blocks: Iterable[tuple[np.ndarray, np.ndarray]], lo: int,
                 span: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct numerators in [lo, lo + span), ascending, with summed
    multiplicities, from blocks of (numerator - lo, multiplicity) pairs:
    each multiplicity is added into its slot of a span-long int64 array,
    and the nonzero slots are read off.  Slots past the span go to one
    spare slot, which is dropped; the blocks' slot arrays are clipped in
    place."""
    counts = np.zeros(span + 1, np.int64)
    for slots, mults in blocks:
        np.add.at(counts, np.minimum(slots, span, out=slots), mults)
    slots = np.flatnonzero(counts[:span])
    return slots + lo, counts[slots]


def _sorted_union(*parts) -> np.ndarray:
    """Distinct values of float arrays, ascending.  Each part is meant to be
    sorted already: the stable sort (timsort) of their concatenation then
    merges sorted runs in linear time, where ``np.unique`` would sort from
    scratch.  Unsorted parts still come out right, only slower."""
    merged = np.sort(np.concatenate([np.asarray(p, float).ravel() for p in parts]),
                     kind="stable")
    return merged[_run_starts(merged)]


def _run_starts(arr: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a new run of equal entries (a zero
    and a minus zero are equal)."""
    new = np.empty(arr.size, dtype=bool)
    new[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=new[1:])
    return new


def _exact_unit(den: int, pi_power: int) -> float:
    """``pi**pi_power / den`` as a float, the factor that turns an exact
    numerator into its float value; ``DomainError`` when it leaves the
    positive float range, as it does for a denominator past 1.8e308."""
    try:
        unit = (math.pi ** pi_power) / den
    except OverflowError:
        unit = 0.0
    if not 0 < unit < math.inf:
        raise DomainError(f"pi**{pi_power} / den leaves float range for an exact "
                          f"denominator of {den.bit_length()} bits")
    return unit


def _stream_from_exact(nums, mults, den: int, pi_power: int,
                       cutoff: float) -> EigenvalueStream:
    """Aggregate integer numerators (over a common denominator) into a stream;
    value i is ``nums[i] * (pi**pi_power / den)``.  ``nums`` are int64, or
    Python ints in an object array, and ``mults`` int64.  One stable sort
    (linear on the ascending rows of a product's sums) and the places where
    the sorted numerators change give the distinct numerators with their
    summed multiplicities; Python ints past ``_INT64_GUARD`` sort the same
    way.  The triangle and the exact products that are not
    counted into slots come here; the interval and 2-sphere lattices ascend
    and are distinct already, so they go straight to
    ``_stream_from_distinct``."""
    order = nums.argsort(kind="stable")
    nums = nums[order]
    starts = _run_starts(nums).nonzero()[0]
    uniq, counts = nums[starts], np.add.reduceat(mults[order], starts)
    # the sorted copies go before the stream's own arrays are built
    del nums, order, starts
    return _stream_from_distinct(uniq, counts, den, pi_power, cutoff)


def _stream_from_distinct(uniq, counts, den: int, pi_power: int,
                          cutoff: float) -> EigenvalueStream:
    """The stream of distinct ascending numerators ``uniq`` with their
    multiplicities, keeping the values below ``cutoff``: the one keep rule
    of exact values.  A value past float range is inf, so it is dropped.
    The float values ascend with the numerators (the unit is positive), so
    those kept are a prefix."""
    with np.errstate(over="ignore"):
        values = np.asarray(uniq * _exact_unit(den, pi_power), dtype=float)
    n = int(values.searchsorted(cutoff))
    return EigenvalueStream._built(values[:n], counts[:n], cutoff, uniq[:n], den, pi_power)


# ---------------------------------------------------------------------------
# generators


#: an exact quantity ``num / den * pi**pi_power`` as ints, in lowest terms
#: with ``den > 0``
_Ratio = tuple[int, int, int]


def _interval_weight(a) -> tuple[float, Optional[_Ratio], Optional[_Ratio], float]:
    """The length ``a`` as a float and exactly (None for an inexact float
    length), and pi**2 / a**2 exactly (None likewise) and as a float.  Both
    floats must be positive and finite, else ``DomainError``: for a length
    of inf or 1e-300, or an exact 1e300, the mode spacing pi**2 / a**2 is 0
    or inf in floats.  ``a`` is parsed once, by ``as_pi_rational``, and the
    rest is integer arithmetic on its numerator and denominator."""
    a_pi = as_pi_rational(a)
    a_exact = coeff = None
    if a_pi is not None:
        a_exact = (a_pi.coeff.numerator, a_pi.coeff.denominator, a_pi.pi_power)
    try:
        a_float = _ratio_float(*a_exact) if a_exact is not None else float(a)
    except OverflowError:
        a_float = math.inf
    if not 0 < a_float < math.inf:
        raise DomainError(f"interval length must be positive and finite, got {a}")
    try:
        if a_exact is not None:
            num, den, power = a_exact
            # num > 0, so den**2 / num**2 is in lowest terms with a positive
            # denominator
            coeff = (den * den, num * num, 2 - 2 * power)
            coeff_float = _ratio_float(*coeff)
        else:
            coeff_float = math.pi ** 2 / a_float ** 2
    except (OverflowError, ZeroDivisionError):
        coeff_float = math.inf
    if not 0 < coeff_float < math.inf:
        raise DomainError(f"pi**2 / a**2 leaves float range for interval length {a}")
    return a_float, a_exact, coeff, coeff_float


def interval_spectrum(a, bc: BoundaryCondition, cutoff: float) -> EigenvalueStream:
    """Spectrum of the interval (0, a): values l**2 * pi**2 / a**2, the one
    lattice every box is a product of.

    Dirichlet modes start at l = 1, Neumann at l = 0.  ``a`` may be a float,
    an int, a Fraction, a PiRational or a symbolic string like ``"pi/24"``;
    symbolic and rational lengths produce exact streams, whose numerators
    are l**2 times the numerator w of pi**2 / a**2.  Their modes run up to
    ``int(top) + 2``, top = sqrt(cutoff / (pi**2 / a**2)), a bound past
    every kept mode, and ``_stream_from_distinct`` keeps those below the
    cutoff (the numerators ascend, so there is nothing to aggregate); the
    numerators are Python ints when w times the square of that bound
    reaches ``_INT64_GUARD``.  Float lengths keep the modes whose
    float value is below the cutoff.  A length and cutoff with more than
    ``_MAX_MODES`` modes raise ``DomainError``.
    """
    bc = BoundaryCondition(bc)
    if bc is BoundaryCondition.CLOSED:
        raise DomainError("interval spectra are Dirichlet or Neumann")
    if not cutoff > 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    _, _, coeff, coeff_float = _interval_weight(a)
    start = 0 if bc is BoundaryCondition.NEUMANN else 1
    top = math.sqrt(cutoff / coeff_float)
    if not top < _MAX_MODES:
        raise DomainError(f"interval length {a} below cutoff {cutoff} has {top:.3g} modes, "
                          f"more than _MAX_MODES = {_MAX_MODES}")
    modes = np.arange(start, int(top) + 3, dtype=np.int64)
    ones = np.ones(modes.size, np.int64)
    if coeff is None:
        values = coeff_float * modes.astype(float) ** 2
        keep = values < cutoff
        return EigenvalueStream._built(values[keep], ones[keep], cutoff)
    w, den, pi_power = coeff
    if w * (int(top) + 2) ** 2 >= _INT64_GUARD:
        modes = modes.astype(object)
    return _stream_from_distinct(w * modes ** 2, ones, den, pi_power, cutoff)


def _factor_cutoff(cutoff: float) -> float:
    """The cutoff to build the factors of a product at ``cutoff``: 16 ulps
    past it, at least 8 * 2**-52 relative.  An exact factor value of a kept
    sum is at most the sum's value n P / den, for P the one float pi**p,
    and a float ``float(n) * (P / den)`` takes three roundings of at most
    2**-53 relative each.  So the factor's float is below
    ``cutoff (1 + 3 * 2**-52)``, and the factor holds it."""
    return cutoff + 16 * math.ulp(cutoff)


def box_spectrum(sides: Sequence, bc: BoundaryCondition, cutoff: float) -> EigenvalueStream:
    """Spectrum of a rectangular box: the product of its sides' interval
    spectra, folded from the left with ``product_spectrum``.  The sides,
    and the partial products that are exact, are built at
    ``_factor_cutoff``; a float partial product is built at the cutoff
    itself, since it merges its sums within ``FLOAT_MERGE_RTOL``, and a
    sum past the cutoff must not join one below it."""
    if BoundaryCondition(bc) is BoundaryCondition.CLOSED:
        raise DomainError("box spectra are Dirichlet or Neumann")
    if not sides:
        raise DomainError("side list must be nonempty")
    if not cutoff > 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    if len(sides) == 1:
        return interval_spectrum(sides[0], bc, cutoff)
    lifted = _factor_cutoff(cutoff)
    box, *rest = [interval_spectrum(a, bc, lifted) for a in sides]
    for n, side in enumerate(rest, 1):
        lift = n < len(rest) and _exact_product(box, side)
        box = product_spectrum(box, side, lifted if lift else cutoff)
    return box


def sphere2_spectrum(cutoff: float) -> EigenvalueStream:
    """Spectrum of the round 2-sphere: k(k+1) with multiplicity 2k+1.  A
    cutoff with more than ``_MAX_MODES`` values below it raises
    ``DomainError``."""
    if not cutoff > 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    if not math.sqrt(cutoff) < _MAX_MODES:
        raise DomainError(f"the 2-sphere below cutoff {cutoff} has {math.sqrt(cutoff):.3g} "
                          f"distinct eigenvalues, more than _MAX_MODES = {_MAX_MODES}")
    ks = np.arange(math.isqrt(int(cutoff)) + 1, dtype=np.int64)
    return _stream_from_distinct(ks * (ks + 1), 2 * ks + 1, 1, 0, cutoff)


def triangle_neumann_spectrum(cutoff: float) -> EigenvalueStream:
    """Spectrum of the unit-side equilateral triangle (Neumann): the values
    16 pi**2 / 9 * (m**2 + m n + n**2), one per ordered pair m, n >= 0
    (Lame 1833; McCartin 2003, SIAM Rev. 45).

    The stream keeps the numerators 48 q over 27, the denominator its float
    values are computed over, not the reduced 16 q over 9: times pi**2 / 9,
    about a third of the values would move by an ulp.  A cutoff whose
    lattice square holds more than ``_MAX_MODES`` pairs raises
    ``DomainError``.
    """
    if not cutoff > 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    limit = 9.0 * cutoff / (16.0 * math.pi ** 2)
    if not limit < _MAX_MODES:
        raise DomainError(f"the triangle below cutoff {cutoff} has {limit:.3g} lattice pairs "
                          f"to scan, more than _MAX_MODES = {_MAX_MODES}")
    ms = np.arange(math.isqrt(int(limit)) + 3, dtype=np.int64)
    q = (ms[:, None] * (ms[:, None] + ms) + ms * ms).ravel()
    q = q[q < limit + 1]
    return _stream_from_exact(48 * q, np.ones(q.size, np.int64), 27, 2, cutoff)


#: the first integer with no float (2**1024 rounded down to 53 bits, plus
#: half an ulp), the bound of every exact sum whose float is finite
_NO_FLOAT = 2 ** 1024 - 2 ** 970


#: most pair sums formed at once by ``product_spectrum``: a block of rows
#: holds at most this many in each of its two 8-byte scratch arrays, 64 KB,
#: below glibc's default 128 KB mmap threshold.  Best of 3 runs on a noisy
#: 2-vCPU x86-64 host, at 2048 / 4096 / 8192 / 16384 / 32768: the side-10
#: Neumann square at cutoff 1e4 (80k kept sums) built in 1.9 / 1.8 / 1.75 /
#: 1.7 / 2.6 ms (at 32768 the blocks page-fault), box [1, 1] Neumann
#: covering k_max 1e5 in 3.0 / 3.0 / 2.85 / 2.85 / 3.0 ms and covering
#: k_max 1e6 in 54 / 43 / 42 / 40 / 42.5 ms.
_PAIR_BLOCK = 1 << 13


def _pair_blocks(x1: np.ndarray, m1: np.ndarray, x2: np.ndarray, m2: np.ndarray,
                 widths: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The sums x1[i] + x2[j] with multiplied multiplicities, flat and in
    row-major order, a block of rows at a time: row i runs over
    j < widths[r] for the block's first row r.  The widths do not increase,
    so each block holds every j < widths[i] of its rows, in a rectangle of
    at most ``_PAIR_BLOCK`` sums (one row at least)."""
    rows, start = int(np.count_nonzero(widths)), 0
    while start < rows:
        width = int(widths[start])
        stop = min(rows, start + max(1, _PAIR_BLOCK // width))
        yield ((x1[start:stop, None] + x2[:width]).ravel(),
               (m1[start:stop, None] * m2[:width]).ravel())
        start = stop


def _kept_pairs(x1: np.ndarray, m1: np.ndarray, x2: np.ndarray, m2: np.ndarray,
                widths: np.ndarray, cut) -> tuple[np.ndarray, np.ndarray]:
    """The sums of ``_pair_blocks`` below ``cut``, with their multiplicities,
    each concatenated into one array when there are several blocks (the
    blocks are freed on return)."""
    sums, mults = [x1[:0]], [m1[:0]]
    for block, pair_mults in _pair_blocks(x1, m1, x2, m2, widths):
        keep = block < cut
        sums.append(block[keep])
        mults.append(pair_mults[keep])
    if len(sums) == 2:
        return sums[1], mults[1]
    return np.concatenate(sums), np.concatenate(mults)


def _scaled(nums: np.ndarray, factor: int, dtype) -> np.ndarray:
    """Numerators times ``factor``, as ``dtype``; the array itself when
    that changes nothing."""
    if nums.dtype != dtype:
        nums = nums.astype(dtype)
    return nums if factor == 1 else nums * factor


def _exact_product(s1: EigenvalueStream, s2: EigenvalueStream) -> bool:
    """Whether the product of two streams is exact: both are, in units of
    one power of pi."""
    return s1.exact and s2.exact and s1.pi_power == s2.pi_power


def _count_upto(nums: np.ndarray, bound: int) -> int:
    """How many of the ascending numerators are at most ``bound``: all of
    them when the last one is, as for the factors of a product built at
    ``_factor_cutoff``.  int64 numerators are below ``_INT64_GUARD``, so a
    larger bound is clamped to it: numpy compares an int64 array with a
    Python int past int64 as objects, one by one."""
    if not nums.size or int(nums[-1]) <= bound:
        return nums.size
    if nums.dtype != object:
        bound = min(bound, _INT64_GUARD)
    return int(nums.searchsorted(bound, side="right"))


def product_spectrum(s1: EigenvalueStream, s2: EigenvalueStream,
                     cutoff: float) -> EigenvalueStream:
    """Pairwise sums of two spectra below ``cutoff``, multiplicities multiplied.

    Both inputs must cover [0, cutoff); otherwise sums below the cutoff
    would be silently missing.

    Every product forms its sums x1[i] + x2[j] in row blocks of at most
    ``_PAIR_BLOCK`` pairs, and row i runs over the columns with
    ``x2[j] <= cut - x1[i]``, found by one ``searchsorted``.  Two exact
    spectra with the same pi power give an exact product: x are the
    numerators over the common denominator, and a sum n is kept when
    ``float(n) * unit`` is below the cutoff, unit = pi**pi_power / den.
    For b = cutoff / unit a kept n has n < b (1 + 2**-51), so the integer
    ``cut = floor(b) + (floor(b) >> 50) + 2`` bounds every kept sum, and
    ``_stream_from_distinct`` drops the sums below it that are not kept.
    The cut is clamped to ``_INT64_GUARD`` for int64 sums, and for Python
    ints to ``_NO_FLOAT``, which is also the cut when b is not below it.
    The factors are cut by the cut, not by their own floats: a factor
    value whose float is at or past the cutoff can be part of a kept sum,
    as mode (1, 0) of the Neumann box pi x 27 pi / 2, 729 / 729, is
    0.9999999999999999 in the box's unit and 1.0 in its factor's.  So
    exact factors must cover a little more than the cutoff;
    ``_factor_cutoff`` gives enough.  Dense int64 sums (from the least one
    to the cut at most ``_COUNT_SPAN_FACTOR`` times their count) are
    counted into their span
    slots block by block, in O(block + span) scratch memory; other exact
    sums are sorted by ``_stream_from_exact``.  Other
    inputs sum their float values, with the cutoff as ``cut``: a float sum
    below it has ``x2[j] <= fl(cutoff - x1[i])``, so the rows hold every
    kept sum, and those at or past the cutoff are dropped before the sums
    are merged within ``FLOAT_MERGE_RTOL``.  These and the sparse exact sums
    are all held at once, so a product with more than ``_MAX_MODES`` of
    them raises ``DomainError`` before forming any.
    """
    if not cutoff > 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    if s1.cutoff < cutoff or s2.cutoff < cutoff:
        raise CoverageError(
            "product cutoff exceeds an input cutoff "
            f"({s1.cutoff}, {s2.cutoff} < {cutoff}); regenerate the factors"
        )
    exact = _exact_product(s1, s2)
    if exact:
        # the sums are over the lcm of the factors' lattice denominators
        den = math.lcm(s1.exact_den, s2.exact_den)
        factors = (den // s1.exact_den, den // s2.exact_den)
        b = cutoff / _exact_unit(den, s1.pi_power)
        cut = _NO_FLOAT
        if b < cut:
            cut = min(cut, math.floor(b) + (math.floor(b) >> 50) + 2)
        ends = [_count_upto(s.exact_nums, cut // f) for s, f in zip((s1, s2), factors)]
        # past the guard the sums are taken over Python ints, and a factor
        # past int64 overflows even on a zero numerator, so each top
        # numerator (the last one kept, as they ascend) counts as 1 at least
        top = sum(max(int(s.exact_nums[end - 1]) if end else 0, 1) * f
                  for s, f, end in zip((s1, s2), factors, ends))
        dtype = np.int64 if top < _INT64_GUARD else object
        if dtype is np.int64:
            cut = min(cut, _INT64_GUARD)
        x1, x2 = (_scaled(s.exact_nums[:end], f, dtype)
                  for s, f, end in zip((s1, s2), factors, ends))
        m1, m2 = (s.multiplicities[:end] for s, end in zip((s1, s2), ends))
    else:
        # values at or past the cutoff start rows and columns that hold no
        # sum below it
        x1, x2, cut = s1.values, s2.values, cutoff
        m1, m2 = s1.multiplicities, s2.multiplicities
    # row i holds the sums x1[i] + x2[j] <= cut, its first widths[i] columns
    widths = x2.searchsorted(cut - x1, side="right")
    kept = int(widths.sum())
    if exact and dtype is np.int64 and kept > 0:
        # the sums run from the first pair to the cut at most
        lo = int(x1[0]) + int(x2[0])
        span = cut - lo + 1
        if span <= _COUNT_SPAN_FACTOR * kept:
            # a block's sums past its rows' widths are above the cut, so
            # they fall past the span and are dropped there; the sums up to
            # the cut that are not below the cutoff are dropped by
            # _stream_from_distinct
            blocks = _pair_blocks(x1 - lo, m1, x2, m2, widths)
            return _stream_from_distinct(*_slot_counts(blocks, lo, span), den,
                                         s1.pi_power, cutoff)
    if kept > _MAX_MODES:
        raise DomainError(f"the product at cutoff {cutoff} forms {kept} pair sums, "
                          f"more than _MAX_MODES = {_MAX_MODES}")
    pairs = _kept_pairs(x1, m1, x2, m2, widths, cut)
    if not exact:
        return EigenvalueStream._built(*_aggregate_float(*pairs), cutoff)
    return _stream_from_exact(*pairs, den, s1.pi_power, cutoff)


def tabulated_spectrum(entries: Iterable, cutoff: float,
                       meta: Optional[DomainMeta] = None) -> EigenvalueStream:
    """Validate externally supplied (value, multiplicity) pairs into a stream.

    Values may be floats, ints, Fractions or length strings (``"5/2"``,
    ``"pi/24"``); an input of ints, Fractions and rational strings yields an
    exact stream, and any float or pi multiple, or no entry at all, makes
    it float-valued.  Input must be strictly increasing (so no NaN) with
    already-aggregated positive integer multiplicities; anything else is a
    ``ValidationError``.  An all-float input is validated with array
    operations; only other values are parsed one by one.
    """
    if not cutoff > 0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    rows = list(entries)
    try:
        pairs = set(map(len, rows)) <= {2}
    except TypeError:
        pairs = False
    if not pairs:
        bad = next(row for row in rows if not isinstance(row, Sized) or len(row) != 2)
        raise ValidationError(f"entry {bad!r} is not a (value, multiplicity) pair")
    vs, ms = zip(*rows) if rows else ((), ())
    if not _all_of_type(ms, int):
        ms = [_multiplicity(m) for m in ms]
    try:
        mults = np.array(ms, np.int64)
    except OverflowError as exc:
        raise ValidationError(f"multiplicity out of range: {exc}") from exc
    if _all_of_type(vs, float):
        stream = EigenvalueStream(np.array(vs, float), mults, cutoff)
    else:
        # ints, Fractions and rational strings are exact; anything else
        # makes the whole stream float-valued
        parsed = [_tabulated_value(v) for v in vs]
        values = np.array([p[0] for p in parsed], float)
        exacts = [p[1] for p in parsed]
        if any(f is None for f in exacts):
            stream = EigenvalueStream(values, mults, cutoff)
        else:
            den = math.lcm(*(f.denominator for f in exacts))
            nums = [f.numerator * (den // f.denominator) for f in exacts]
            stream = EigenvalueStream(values, mults, cutoff, nums, den)
    if meta is not None:
        bc = BoundaryCondition(meta.bc)
        if bc in (BoundaryCondition.NEUMANN, BoundaryCondition.CLOSED):
            if stream.index_origin != 0:
                raise ModeError(f"{bc.value} spectra must start with the zero mode")
        elif stream.index_origin == 0:
            raise ModeError("dirichlet spectra must not contain the zero mode")
    return stream


def _all_of_type(items: Sequence, kind: type) -> bool:
    """Whether every item is an instance of ``kind``, looking once at each
    distinct type rather than at each item."""
    return all(issubclass(t, kind) for t in set(map(type, items)))


def _multiplicity(m) -> int:
    try:
        if float(m) == int(m):
            return int(m)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"multiplicity must be a positive integer, got {m!r}")


def _tabulated_value(v) -> tuple[float, Optional[Fraction]]:
    """A tabulated value as a float and, when it is an int, a Fraction or a
    rational string, as an exact Fraction; floats are never exact."""
    if not isinstance(v, float):
        try:
            pi_val = as_pi_rational(v)
        except ValidationError:
            pi_val = None
        if pi_val is not None:
            return float(pi_val), pi_val.as_fraction() if pi_val.is_rational else None
    try:
        return float(v), None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"eigenvalue {v!r} is not a number") from exc


# ---------------------------------------------------------------------------
# domain metadata builders


def interval_meta(a, bc: BoundaryCondition) -> DomainMeta:
    """The one-sided ``box_meta``."""
    return box_meta([a], bc)


def box_meta(sides: Sequence, bc: BoundaryCondition) -> DomainMeta:
    """Each side is weighed once, with the checks of ``interval_spectrum``,
    and the exact volume is the product of their integer ratios, one
    ``Fraction`` built from it."""
    weights = [_interval_weight(s) for s in sides]
    floats = [w[0] for w in weights]
    volume = math.prod(floats)
    surface = sum(2.0 * volume / s for s in floats) if len(floats) > 1 else 2.0
    exact = None
    if all(w[1] is not None for w in weights):
        nums, dens, powers = zip(*(w[1] for w in weights))
        exact = _from_ratio(math.prod(nums), math.prod(dens), sum(powers))
    return DomainMeta(len(floats), volume, BoundaryCondition(bc),
                      surface_area=surface, exact_volume=exact)


def sphere2_meta() -> DomainMeta:
    return DomainMeta(2, 4.0 * math.pi, BoundaryCondition.CLOSED,
                      exact_volume=PiRational(4, 1))


def triangle_meta() -> DomainMeta:
    return DomainMeta(2, math.sqrt(3.0) / 4.0, BoundaryCondition.NEUMANN, surface_area=3.0)


def product_meta(m1: DomainMeta, m2: DomainMeta) -> DomainMeta:
    bcs = {m1.bc, m2.bc}
    if BoundaryCondition.DIRICHLET in bcs:
        bc = BoundaryCondition.DIRICHLET
    elif BoundaryCondition.NEUMANN in bcs:
        bc = BoundaryCondition.NEUMANN
    else:
        bc = BoundaryCondition.CLOSED
    s1 = m1.surface_area or 0.0
    s2 = m2.surface_area or 0.0
    surface = s1 * m2.volume + m1.volume * s2
    exact = None
    if m1.exact_volume is not None and m2.exact_volume is not None:
        exact = m1.exact_volume * m2.exact_volume
    return DomainMeta(m1.dimension + m2.dimension, m1.volume * m2.volume, bc,
                      surface_area=surface if surface > 0 else None, exact_volume=exact)


# ---------------------------------------------------------------------------
# serialization
#
# CSV is float-only: it carries ``value,multiplicity`` and nothing else, so
# an exact stream reloads from CSV with the same values and counts but
# without its exact numerators.  JSON keeps exactness.


def stream_to_csv(stream: EigenvalueStream, fp) -> None:
    """Write ``value,multiplicity`` rows in increasing value order, each
    value as its shortest round-tripping ``repr``, through the columnar
    ``csvtext.write_columns`` (no Python object per row or cell).
    Float-only: exact numerators are not written (use JSON to keep them)."""
    from .csvtext import write_columns

    write_columns(fp, ["value", "multiplicity"], [stream.values, stream.multiplicities])


def stream_from_csv(fp, cutoff: Optional[float] = None) -> EigenvalueStream:
    """Read ``value,multiplicity`` rows into a float-valued stream.

    ``fp`` is any iterable of lines, such as an open file or a list of
    strings.  ``csv.reader`` reads the header; numpy's C reader
    (``np.loadtxt``) reads the rows straight into float64 and int64
    columns, with no Python object per row or cell.  Cells may be quoted or
    padded with whitespace, lines may end in LF or CRLF, and blank lines
    and columns past the second are skipped.  A header that ``csv.reader``
    rejects (a bare CR inside a line, say), a row with fewer than two
    columns, or a value or multiplicity that does not parse as a C number
    (Python's digit separators, such as ``1_0.0``, do not) raises
    ``ValidationError``.  A header-only file is an empty stream.  Without
    ``cutoff`` it is the float just above the last value."""
    import warnings

    lines = iter(fp)
    try:
        header = next(csv.reader(lines), None)
    except csv.Error as exc:
        raise ValidationError(f"malformed CSV header: {exc}") from exc
    if header is None or [h.strip() for h in header[:2]] != ["value", "multiplicity"]:
        raise ValidationError("expected header 'value,multiplicity'")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(lines, dtype=[("v", float), ("m", np.int64)], delimiter=",",
                              quotechar='"', comments=None, usecols=(0, 1), ndmin=1)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed CSV row: {exc}") from exc
    values = rows["v"]
    if cutoff is None:
        last = float(values[-1]) if values.size else 0.0
        cutoff = math.nextafter(last, math.inf) if last > 0 else 1.0
    return EigenvalueStream(values, rows["m"], cutoff)


def stream_to_json_dict(stream: EigenvalueStream) -> dict:
    """Cutoff and entries; an exact stream adds its numerators (plain ints),
    denominator and pi power, so it reloads exact."""
    data = {
        "cutoff": stream.cutoff,
        "exact": stream.exact,
        "entries": list(map(list, stream.entries())),
    }
    if stream.exact:
        data.update(exact_nums=stream.exact_nums.tolist(), exact_den=stream.exact_den,
                    pi_power=stream.pi_power)
    return data


#: relative distance allowed between a JSON value and its exact numerator's
#: n / den * pi**pi_power: a few float roundings, far below the 1e-9 band
#: inside which the Polya sweeps decide by the numerators
_EXACT_VALUE_RTOL = 1e-12


def stream_from_json_dict(data: dict) -> EigenvalueStream:
    """A stream from ``stream_to_json_dict`` output.  Exact numerators must
    match the entries: each value within ``_EXACT_VALUE_RTOL`` relative of
    n / den * pi**pi_power, computed on Python ints for numerators past
    int64, else ``ValidationError``."""
    try:
        stream = tabulated_spectrum(data["entries"], float(data["cutoff"]))
        if "exact_nums" not in data:
            return stream
        exact = (data["exact_nums"], data["exact_den"], data["pi_power"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed spectrum JSON: {exc}") from exc
    if not isinstance(exact[2], int):
        raise ValidationError(f"pi_power must be an integer, got {exact[2]!r}")
    stream = EigenvalueStream(stream.values, stream.multiplicities, stream.cutoff, *exact)
    nums, den = stream.exact_nums, stream.exact_den
    try:
        ratios = (nums / den if nums.dtype != object
                  else np.array([n / den for n in nums.tolist()], float))
    except OverflowError as exc:
        raise ValidationError(f"exact value past float range: {exc}") from exc
    expected = ratios * math.pi ** stream.pi_power
    off = ~(np.abs(stream.values - expected) <= _EXACT_VALUE_RTOL * np.abs(expected))
    if off.any():
        i = int(np.argmax(off))
        raise ValidationError(
            f"entry {float(stream.values[i])!r} does not match its exact value "
            f"{nums[i]}/{den} * pi**{stream.pi_power} = {float(expected[i])!r}")
    return stream
