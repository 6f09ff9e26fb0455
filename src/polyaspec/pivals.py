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
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError

__all__ = ["PiRational", "parse_length", "as_pi_rational"]

_PLAIN = re.compile(r"^([0-9]+(?:\.[0-9]+)?)(?:/([0-9]+(?:\.[0-9]+)?))?$")
_PI_NUM = re.compile(r"^([0-9]+(?:\.[0-9]+)?)?(?:\*|\s)?pi(?:/([0-9]+(?:\.[0-9]+)?))?$")
_PI_DEN = re.compile(r"^([0-9]+(?:\.[0-9]+)?)/([0-9]+(?:\.[0-9]+)?)?(?:\*|\s)?pi$")


@dataclass(frozen=True)
class PiRational:
    """The exact quantity ``coeff * pi**pi_power``."""

    coeff: Fraction
    pi_power: int = 0

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            object.__setattr__(self, "pi_power", 0)

    def __float__(self) -> float:
        """The coefficient as a float, times or over pi**|pi_power|.  A
        nonzero coefficient below the normal float range would lose bits,
        or all of them, before pi**pi_power lifts it: it is scaled near
        2**-60 first, and ``ldexp`` undoes the scaling on the result."""
        coeff, power = float(self.coeff), self.pi_power
        scale = 0
        if power and abs(coeff) < sys.float_info.min and self.coeff:
            num, den = self.coeff.numerator, self.coeff.denominator
            scale = den.bit_length() - abs(num).bit_length() - 60
            coeff = float(Fraction(num << scale, den))
        value = coeff * math.pi ** power if power >= 0 else coeff / math.pi ** -power
        return math.ldexp(value, -scale)

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

    def __add__(self, other: "PiRational") -> "PiRational":
        other = as_pi_rational(other)
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add PiRationals with different pi powers")
        return PiRational(self.coeff + other.coeff, self.pi_power)

    @property
    def is_rational(self) -> bool:
        return self.pi_power == 0 or self.coeff == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} carries pi**{self.pi_power}, not a plain rational")
        return self.coeff

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.coeff)
        pi = "pi" if self.pi_power == 1 else f"pi**{self.pi_power}"
        return f"{self.coeff}*{pi}"


def _frac(text: str | None, default=Fraction(1)) -> Fraction:
    if text is None or text == "":
        return default
    return Fraction(text)


def parse_length(text: str) -> PiRational:
    """Parse a symbolic length such as ``"10"``, ``"3/4"``, ``"pi"``,
    ``"2pi"``, ``"pi/24"`` or ``"1/4pi"`` (meaning 1/(4*pi))."""
    s = text.strip().lower().replace(" ", "")
    m = _PLAIN.match(s)
    if m:
        return PiRational(_frac(m.group(1)) / _frac(m.group(2)))
    m = _PI_DEN.match(s)
    if m:
        return PiRational(_frac(m.group(1)) / _frac(m.group(2)), -1)
    m = _PI_NUM.match(s)
    if m:
        return PiRational(_frac(m.group(1)) / _frac(m.group(2)), 1)
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
