"""Exact representation of rational multiples of powers of pi.

Lengths like ``pi/24`` must survive as exact quantities: feeding the float
0.1308996... into a spectrum generator would destroy the integrality of the
eigenvalues downstream.  ``PiRational`` stores ``coeff * pi**pi_power`` with
an exact rational coefficient and supports just enough arithmetic for the
spectrum generators and for rationalizing Polya constants.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError

__all__ = ["PiRational", "parse_length", "as_pi_rational"]

_PLAIN = re.compile(r"^([0-9]+(?:\.[0-9]+)?)(?:/([0-9]+(?:\.[0-9]+)?))?$")
_PI_NUM = re.compile(r"^([0-9]+(?:\.[0-9]+)?)?(?:\*|\s)?pi(?:/([0-9]+(?:\.[0-9]+)?))?$")
_PI_DEN = re.compile(r"^([0-9]+(?:\.[0-9]+)?)/([0-9]+(?:\.[0-9]+)?)?(?:\*|\s)?pi$")


@dataclass(frozen=True)
class PiRational:
    """The exact quantity ``coeff * pi**pi_power``; ``str`` shows the
    ``text`` a ``parse_length`` result keeps, which no comparison reads."""

    coeff: Fraction
    pi_power: int = 0
    text: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            object.__setattr__(self, "pi_power", 0)

    def __float__(self) -> float:
        return _ratio_float(self.coeff.numerator, self.coeff.denominator, self.pi_power)

    def __mul__(self, other: "PiRational") -> "PiRational":
        other = as_pi_rational(other)
        return PiRational(self.coeff * other.coeff, self.pi_power + other.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other: "PiRational") -> "PiRational":
        other = as_pi_rational(other)
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero PiRational")
        return PiRational(self.coeff / other.coeff, self.pi_power - other.pi_power)

    def __pow__(self, n: int) -> "PiRational":
        if not isinstance(n, int):
            raise TypeError("PiRational powers must be integers")
        if n < 0 and self.coeff == 0:
            raise ZeroDivisionError("0 ** negative")
        return PiRational(self.coeff ** n, self.pi_power * n)

    @property
    def is_rational(self) -> bool:
        return self.pi_power == 0 or self.coeff == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} carries pi**{self.pi_power}, not a plain rational")
        return self.coeff

    def __str__(self) -> str:
        if self.text is not None:
            return self.text
        if self.pi_power == 0:
            return str(self.coeff)
        pi = "pi" if self.pi_power == 1 else f"pi**{self.pi_power}"
        return f"{self.coeff}*{pi}"


def _ratio_float(num: int, den: int, pi_power: int) -> float:
    """``num / den * pi**pi_power`` as a float: the ratio, correctly rounded,
    times or over pi**|pi_power|.  A nonzero ratio below the normal float
    range would lose bits, or all of them, before pi**pi_power lifts it: it
    is scaled near 2**-60 first, and ``ldexp`` undoes the scaling on the
    result.  ``OverflowError`` when the ratio or the power of pi leaves
    float range."""
    coeff, scale = num / den, 0
    if pi_power and num and abs(coeff) < sys.float_info.min:
        scale = den.bit_length() - abs(num).bit_length() - 60
        coeff = (num << scale) / den
    value = coeff * math.pi ** pi_power if pi_power >= 0 else coeff / math.pi ** -pi_power
    return math.ldexp(value, -scale)


def _from_ratio(num: int, den: int, pi_power: int) -> PiRational:
    """``num / den * pi**pi_power`` for ints with ``den != 0``: the one
    ``Fraction`` an integer derivation builds."""
    return PiRational(Fraction(num, den), pi_power)


def _decimal(text: str | None) -> tuple[int, int]:
    """A decimal such as ``"24"`` or ``"1.5"`` as an unreduced numerator and
    denominator; None or an empty string is 1."""
    if not text:
        return 1, 1
    whole, _, frac = text.partition(".")
    scale = 10 ** len(frac)
    return int(whole) * scale + (int(frac) if frac else 0), scale


def parse_length(text: str) -> PiRational:
    """Parse a symbolic length such as ``"10"``, ``"3/4"``, ``"pi"``,
    ``"2pi"``, ``"pi/24"`` or ``"1/4pi"`` (meaning 1/(4*pi)).  The decimals
    are read as integers, and the one ``Fraction`` of the result is built
    from their quotient; the result keeps ``text``."""
    s = text.strip().lower().replace(" ", "")
    for pattern, pi_power in ((_PLAIN, 0), (_PI_DEN, -1), (_PI_NUM, 1)):
        m = pattern.match(s)
        if m:
            (p, q), (r, t) = _decimal(m.group(1)), _decimal(m.group(2))
            if r == 0:
                raise ValidationError(f"length {text!r} divides by zero")
            return PiRational(Fraction(p * t, q * r), pi_power, text)
    raise ValidationError(f"cannot parse length {text!r}")


def as_pi_rational(value) -> PiRational | None:
    """Coerce a length-like value to PiRational, or None when inexact.

    Strings are parsed symbolically; ints, Fractions and integral floats are
    exact; other floats are treated as inexact measurements and return None
    (a typed decimal string should be used when the rational is intended).
    """
    if isinstance(value, PiRational):
        return value
    if isinstance(value, str):
        return parse_length(value)
    if isinstance(value, (int, Fraction)):
        return PiRational(Fraction(value))
    if isinstance(value, float):
        if value.is_integer():
            return PiRational(Fraction(int(value)))
        return None
    raise ValidationError(f"unsupported length value {value!r}")
