"""Counting functions, Weyl predictions, and empirical remainder constants.

The counting function N(lambda) counts eigenvalues strictly below lambda,
with multiplicity.  It is a nondecreasing integer step function whose jumps
sit at the eigenvalues; bound checks against monotone bounds therefore only
need to look at jumps (right limits for upper bounds, values for lower
bounds).

Every count is an entry of a prefix-count array.  ``count_many`` /
``count_right_many`` index the stream's ``[0, cumsum(multiplicities)]``
with one ``searchsorted`` over their points, and the scalar ``count`` /
``count_right`` are one-point calls of the same.  Right limits need
``lambda`` strictly below the cutoff, counts need ``lambda <= cutoff``,
and a NaN ``lambda`` is a ``DomainError``; ``EigenvalueStream.check_range``
checks all three.

The scans over jumps (``estimate_seeley_constant`` and
``polya.verify_counting_bound``) search for no point.  ``_prefix_counts``
merges every stream of the counting function (a sum's parts, recursively)
and the scan's own points, at multiplicity 0, with one stable sort; the
running sum of the merged multiplicities then holds N(p) and N(p+) at every
distinct point p, and two scalar ``searchsorted`` calls cut the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .constants import c_d
from .errors import CoverageError, DomainError
from .spectra import DomainMeta, EigenvalueStream, _run_starts, _sorted_union

__all__ = [
    "CountingFunction",
    "SumCountingFunction",
    "weyl_leading",
    "two_term_bound",
    "estimate_seeley_constant",
    "SeeleyEstimate",
]


class CountingFunction:
    """The counting function of an eigenvalue stream, with its domain metadata."""

    def __init__(self, meta: DomainMeta, *, stream: EigenvalueStream):
        self.meta = meta
        self.stream = stream

    @classmethod
    def from_stream(cls, stream: EigenvalueStream, meta: DomainMeta) -> "CountingFunction":
        return cls(meta, stream=stream)

    @property
    def cutoff(self) -> float:
        return self.stream.cutoff

    def count(self, lam: float) -> int:
        """Number of eigenvalues strictly below ``lam``."""
        return self.stream.count(lam)

    def count_right(self, lam: float) -> int:
        """Right limit of the counting step at ``lam`` (counts values <= lam)."""
        return self.stream.count_right(lam)

    def count_many(self, lams) -> np.ndarray:
        """``count`` at each of ``lams``, as an int64 array."""
        return self.stream.count_many(lams)

    def count_right_many(self, lams) -> np.ndarray:
        """``count_right`` at each of ``lams``, as an int64 array."""
        return self.stream.count_right_many(lams)

    def jump_values(self) -> np.ndarray:
        """Distinct eigenvalues below the covered range, ascending."""
        return self.stream.values


class SumCountingFunction:
    """Counting function of a disjoint union: the sum of the parts' counts."""

    def __init__(self, parts: Sequence[CountingFunction]):
        if not parts:
            raise DomainError("need at least one counting function")
        self.parts = list(parts)

    def count(self, lam: float) -> int:
        return int(self.count_many(lam))

    def count_right(self, lam: float) -> int:
        return int(self.count_right_many(lam))

    def count_many(self, lams) -> np.ndarray:
        return sum(p.count_many(lams) for p in self.parts)

    def count_right_many(self, lams) -> np.ndarray:
        return sum(p.count_right_many(lams) for p in self.parts)

    def jump_values(self) -> np.ndarray:
        return _sorted_union(*(p.jump_values() for p in self.parts))

    @property
    def cutoff(self) -> float:
        return min(p.cutoff for p in self.parts)


def _streams(cf) -> Iterator[EigenvalueStream]:
    """The streams whose counts add up to ``cf``'s: a sum's parts,
    recursively, in order."""
    if isinstance(cf, SumCountingFunction):
        for part in cf.parts:
            yield from _streams(part)
    else:
        yield cf.stream


def _prefix_counts(cf, probes=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(points, below, through)``: the distinct values of ``cf``'s streams
    and of ``probes``, ascending, with N(p) and N(p+) of ``cf`` at each p.

    The streams' values and the probes, at multiplicity 0, are merged by one
    stable sort, and the running sum of the merged multiplicities holds
    every count.  Of equal values the first in that order stands for them,
    as in ``jump_values``, so a zero and a minus zero keep their sign."""
    streams = list(_streams(cf))
    probes = np.asarray(probes, float).ravel()
    values = np.concatenate([s.values for s in streams] + [probes])
    order = np.argsort(values, kind="stable")
    merged = values[order]
    mults = np.concatenate([s.multiplicities for s in streams]
                           + [np.zeros(probes.size, np.int64)])
    cum = np.zeros(merged.size + 1, np.int64)
    np.cumsum(mults[order], out=cum[1:])
    starts = np.flatnonzero(_run_starts(merged))
    # a point's counts are the running sums at its group's first entry and
    # past its last
    ends = cum[np.append(starts, merged.size)]
    return merged[starts], ends[:-1], ends[1:]


def _count_upto(points: np.ndarray, lam: float) -> int:
    """The number of ``points`` at most ``lam``: 0 for a NaN ``lam``, since
    no point compares below NaN."""
    return 0 if math.isnan(lam) else int(np.searchsorted(points, lam, side="right"))


def weyl_leading(meta: DomainMeta, lam: float) -> float:
    """Leading Weyl term C_d |Omega| lambda^(d/2)."""
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    return c_d(meta.dimension) * meta.volume * lam ** (meta.dimension / 2.0)


def two_term_bound(meta: DomainMeta, c_remainder: float, lam: float, side: str) -> float:
    """Two-term bound C_d |Omega| lambda^(d/2) +- C lambda^((d-1)/2).

    ``side`` is "upper" (+) or "lower" (-); C is the caller-supplied
    remainder constant, so the value is conditional on that choice.
    """
    if not c_remainder > 0:
        raise DomainError(f"remainder constant must be positive, got {c_remainder}")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    lead = weyl_leading(meta, lam)
    corr = c_remainder * lam ** ((meta.dimension - 1) / 2.0)
    if side == "upper":
        return lead + corr
    if side == "lower":
        return lead - corr
    raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")


@dataclass(frozen=True)
class SeeleyEstimate:
    """Empirical two-term remainder constant from a jump scan.

    ``value`` is the smallest C such that the two-term bound with constant C
    holds at every scanned jump; ``top`` lists the five largest normalized
    remainders with their locations, to expose non-convergence, the lower
    jump first among equal remainders (``achieved_at`` is the first).
    """

    side: str
    value: float
    achieved_at: float
    top: tuple[tuple[float, float], ...]
    scanned: int


def _largest(values: np.ndarray, count: int) -> np.ndarray:
    """The indices of the ``count`` largest of the nonempty ``values``,
    largest first and the lower index first among equal values, as a full
    stable sort orders them, from a partial selection."""
    count = min(count, values.size)
    cut = -np.partition(-values, count - 1)[count - 1]
    above = np.flatnonzero(values > cut)
    chosen = np.concatenate([above, np.flatnonzero(values == cut)[:count - above.size]])
    return chosen[np.argsort(-values[chosen], kind="stable")]


def estimate_seeley_constant(cf: CountingFunction, meta: DomainMeta, cutoff: float,
                             side: str, lambda_min: float = 0.0) -> SeeleyEstimate:
    """Scan jumps in (lambda_min, cutoff] for the worst two-term remainder.

    Upper side: sup of (N(lambda_j+) - weyl(lambda_j)) / lambda_j^((d-1)/2);
    lower side uses the jump value N(lambda_j) and the reversed sign.  The
    jump at lambda = 0 is always skipped: the normalizer vanishes there and
    the bound is trivial.

    Every count is read from ``_prefix_counts``, with no search per jump.
    Raises ``CoverageError`` when ``cutoff`` exceeds ``cf.cutoff`` (jumps
    past the counter's cutoff are unknown), when the window holds no jump,
    or on the upper side when a jump sits at ``cf.cutoff`` (a part's jump at
    a sum's cutoff), where the right limit is unknown.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    if cutoff > cf.cutoff:
        raise CoverageError(
            f"scan window ends at {cutoff}, past the counting function's cutoff {cf.cutoff}")
    points, below, through = _prefix_counts(cf)
    lo = int(np.searchsorted(points, max(lambda_min, 0.0), side="right"))
    hi = _count_upto(points, cutoff)
    jumps = points[lo:hi]
    if jumps.size == 0:
        raise CoverageError("no jump points in the scan window; estimate undefined")
    if side == "upper" and jumps[-1] >= cf.cutoff:
        raise CoverageError(f"jump {jumps[-1]} is not below the counting function's cutoff "
                            f"{cf.cutoff}, so its right limit is unknown")
    d = meta.dimension
    lead = c_d(d) * meta.volume * jumps ** (d / 2.0)
    if side == "upper":
        remainder = through[lo:hi].astype(float) - lead
    else:
        remainder = lead - below[lo:hi].astype(float)
    ratios = np.maximum(remainder, 0.0) / jumps ** ((d - 1) / 2.0)
    order = _largest(ratios, 5)
    top = tuple((float(ratios[i]), float(jumps[i])) for i in order)
    best = order[0]
    return SeeleyEstimate(side, float(ratios[best]), float(jumps[best]), top, int(jumps.size))
