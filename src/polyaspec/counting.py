"""Counting functions, Weyl predictions, and empirical remainder constants.

The counting function N(lambda) counts eigenvalues strictly below lambda,
with multiplicity.  It is a nondecreasing integer step function whose jumps
sit at the eigenvalues; bound checks against monotone bounds therefore only
need to look at jumps (right limits for upper bounds, values for lower
bounds).

Every count is an index into the stream's prefix-count array
``[0, cumsum(multiplicities)]``: ``count_many`` / ``count_right_many``
answer a whole scan with one ``searchsorted``, and the scalar ``count`` /
``count_right`` are one-point calls of the same.  Right limits need
``lambda`` strictly below the cutoff, counts need ``lambda <= cutoff``,
and a NaN ``lambda`` is a ``DomainError``; ``EigenvalueStream.check_range``
checks all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import c_d
from .errors import CoverageError, DomainError
from .spectra import DomainMeta, EigenvalueStream, _sorted_union

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
    remainders with their locations, to expose non-convergence.
    """

    side: str
    value: float
    achieved_at: float
    top: tuple[tuple[float, float], ...]
    scanned: int


def estimate_seeley_constant(cf: CountingFunction, meta: DomainMeta, cutoff: float,
                             side: str, lambda_min: float = 0.0) -> SeeleyEstimate:
    """Scan jumps in (lambda_min, cutoff] for the worst two-term remainder.

    Upper side: sup of (N(lambda_j+) - weyl(lambda_j)) / lambda_j^((d-1)/2);
    lower side uses the jump value N(lambda_j) and the reversed sign.  The
    jump at lambda = 0 is always skipped: the normalizer vanishes there and
    the bound is trivial.

    Raises ``CoverageError`` when ``cutoff`` exceeds ``cf.cutoff`` (jumps
    past the counter's cutoff are unknown) or the window holds no jump.
    """
    if side not in ("upper", "lower"):
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    if cutoff > cf.cutoff:
        raise CoverageError(
            f"scan window ends at {cutoff}, past the counting function's cutoff {cf.cutoff}")
    jumps = cf.jump_values()
    jumps = jumps[(jumps > max(lambda_min, 0.0)) & (jumps <= cutoff)]
    if jumps.size == 0:
        raise CoverageError("no jump points in the scan window; estimate undefined")
    d = meta.dimension
    lead = c_d(d) * meta.volume * jumps ** (d / 2.0)
    if side == "upper":
        remainder = cf.count_right_many(jumps).astype(float) - lead
    else:
        remainder = lead - cf.count_many(jumps).astype(float)
    ratios = np.maximum(remainder, 0.0) / jumps ** ((d - 1) / 2.0)
    order = np.argsort(ratios)[::-1][:5]
    top = tuple((float(ratios[i]), float(jumps[i])) for i in order)
    best = order[0]
    return SeeleyEstimate(side, float(ratios[best]), float(jumps[best]), top, int(jumps.size))
