"""Closed-form constants, elementary lemma utilities, and thinness thresholds.

Everything here evaluates classical constants of spectral asymptotics:

* ``omega_d``: volume of the unit ball,
* ``c_d``: the Weyl constant omega_d / (2 pi)^d,
* ``l_gamma_d``: the Riesz-mean constant Gamma(gamma+1) /
  ((4 pi)^(d/2) Gamma(gamma+1+d/2)),

plus the explicit one-dimensional extremal quantities (``h1``, ``h2``) and
the thin-product thresholds a0 built from them.  Gamma functions are
evaluated exactly at half-integer arguments (every argument these formulas
need), so the identities between the constants hold to float precision with
no quadrature or series error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .pivals import PiRational

__all__ = [
    "omega_d",
    "c_d",
    "l_gamma_d",
    "omega_d_exact",
    "c_d_exact",
    "l_gamma_d_exact",
    "fd_profile",
    "fd_integral",
    "check_lemma42",
    "Lemma42Bounds",
    "a_d_const",
    "b_d_const",
    "h1",
    "h2",
    "HInfimum",
    "ThresholdCase",
    "ThresholdRequest",
    "ThresholdResult",
    "threshold_a0",
]


# ---------------------------------------------------------------------------
# exact half-integer Gamma machinery


def _gamma_half(two_x: int) -> tuple[Fraction, int]:
    """Gamma(two_x / 2) as (rational, k) meaning rational * sqrt(pi)**k."""
    if two_x < 1:
        raise DomainError(f"Gamma argument must be >= 1/2, got {two_x}/2")
    if two_x % 2 == 0:
        return Fraction(math.factorial(two_x // 2 - 1)), 0
    n = (two_x - 1) // 2
    return Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n)), 1


@lru_cache(maxsize=None)
def omega_d_exact(d: int) -> PiRational:
    """Volume of the unit d-ball, pi^(d/2) / Gamma(d/2 + 1), exactly."""
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    g, half = _gamma_half(d + 2)
    # pi^(d/2) / (g * sqrt(pi)^half); the sqrt(pi) parities always cancel
    half_power = d - half
    if half_power % 2:
        raise AssertionError("sqrt(pi) parity must cancel for omega_d")
    return PiRational(1 / g, half_power // 2)


@lru_cache(maxsize=None)
def l_gamma_d_exact(two_gamma: int, d: int) -> PiRational:
    """L_{gamma,d} for 2*gamma integral, exactly."""
    if two_gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {two_gamma}/2")
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    g_num, h_num = _gamma_half(two_gamma + 2)
    g_den, h_den = _gamma_half(two_gamma + 2 + d)
    half_power = h_num - h_den - d
    if half_power % 2:
        raise AssertionError("sqrt(pi) parity must cancel for l_gamma_d")
    return PiRational(g_num / (g_den * 2 ** d), half_power // 2)


def c_d_exact(d: int) -> PiRational:
    """The Weyl constant C_d = omega_d / (2 pi)^d = L_{0,d}, exactly."""
    return l_gamma_d_exact(0, d)


def omega_d(d: int) -> float:
    """Volume of the unit d-ball as a float; ``DomainError`` where it leaves
    float range, by overflow or by underflow to 0.0."""
    try:
        value = float(omega_d_exact(d))
    except OverflowError:  # pi**(d / 2) past float range
        value = 0.0
    if value == 0.0:
        raise DomainError(f"omega_d at d = {d} leaves float range")
    return value


def c_d(d: int) -> float:
    return l_gamma_d(0.0, d)


def l_gamma_d(gamma: float, d: int) -> float:
    """Riesz-mean constant Gamma(gamma+1) / ((4 pi)^(d/2) Gamma(gamma+1+d/2));
    ``DomainError`` where it leaves float range, by overflow or by underflow
    to 0.0."""
    if not 0 <= gamma < math.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    two_gamma = 2.0 * gamma
    try:
        if float(two_gamma).is_integer():
            value = float(l_gamma_d_exact(int(two_gamma), d))
        else:
            log_ratio = math.lgamma(gamma + 1.0) - math.lgamma(gamma + 1.0 + d / 2.0)
            value = math.exp(log_ratio) / (4.0 * math.pi) ** (d / 2.0)
    except OverflowError:
        value = 0.0
    if value == 0.0:
        raise DomainError(f"L_gamma,d at gamma = {gamma}, d = {d} leaves float range")
    return value


# ---------------------------------------------------------------------------
# the interval profile function and its closed-form integral


def fd_profile(x, d: int, a: float, lam: float):
    """The profile (lam - x^2 pi^2 / a^2)^(d/2), clipped to its support."""
    x = np.asarray(x, float)
    inner = np.maximum(lam - x * x * math.pi ** 2 / a ** 2, 0.0)
    out = inner ** (d / 2.0)
    return float(out) if out.ndim == 0 else out


def fd_integral(d: int, a: float, lam: float) -> float:
    """Integral of the profile over its full support [0, a sqrt(lam) / pi].

    Closed form a * (C_{d+1} / C_d) * lam^((d+1)/2); the ratio of Weyl
    constants is computed exactly.
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not a > 0:
        raise DomainError(f"a must be positive, got {a}")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    ratio = c_d_exact(d + 1) / c_d_exact(d)
    return a * float(ratio) * lam ** ((d + 1) / 2.0)


# ---------------------------------------------------------------------------
# the quadratic-sum bounds for interval mode sums


@dataclass(frozen=True)
class Lemma42Bounds:
    """Both interval mode sums at (a, lam) with their closed-form bounds.

    ``sum_from_one <= upper_bound`` and ``sum_from_zero >= lower_bound``
    whenever lam >= pi^2 / a^2.
    """

    sum_from_one: float
    upper_bound: float
    sum_from_zero: float
    lower_bound: float
    terms: int


def check_lemma42(a: float, lam: float) -> Lemma42Bounds:
    """Evaluate sum_{l} (lam - l^2 pi^2 / a^2) over l = 1..M and l = 0..M,
    with M = floor(a sqrt(lam) / pi), against their explicit bounds."""
    if not a > 0:
        raise DomainError(f"a must be positive, got {a}")
    if lam < math.pi ** 2 / a ** 2:
        raise DomainError(
            f"hypothesis violated: lambda={lam} < pi^2/a^2={math.pi ** 2 / a ** 2}"
        )
    m = math.floor(a * math.sqrt(lam) / math.pi)
    coeff = math.pi ** 2 / a ** 2
    sum1 = m * lam - coeff * (m * (m + 1) * (2 * m + 1)) / 6.0
    upper = 2.0 * a * lam ** 1.5 / (3.0 * math.pi) - lam / 8.0 - math.sqrt(lam) * math.pi / (12.0 * a)
    sum0 = sum1 + lam
    lower = 2.0 * a * lam ** 1.5 / (3.0 * math.pi) + lam / 12.0
    return Lemma42Bounds(sum1, upper, sum0, lower, m)


# ---------------------------------------------------------------------------
# extremal constants of the d >= 3 thin-product arguments


def a_d_const(d: int, volume: float) -> float:
    """(1/2) (1 - ((4d-5)/(4d-4))^(d/2)) C_d |Omega|, the concavity gain."""
    if d < 3:
        raise DomainError(f"this constant arises only for d >= 3, got {d}")
    if not volume > 0:
        raise DomainError(f"volume must be positive, got {volume}")
    return _normal(0.5 * (1.0 - ((4 * d - 5) / (4 * d - 4)) ** (d / 2.0)) * c_d(d) * volume,
                   "a_d", d)


def b_d_const(d: int, volume: float) -> float:
    """(1/2) 3^(-d) C_d |Omega|, the convexity gain."""
    if d < 3:
        raise DomainError(f"this constant arises only for d >= 3, got {d}")
    if not volume > 0:
        raise DomainError(f"volume must be positive, got {volume}")
    return _normal(0.5 * 3.0 ** (-d) * c_d(d) * volume, "b_d", d)


def _normal(value: float, name: str, d: int) -> float:
    """``value`` when it is a normal float, else ``DomainError``: a gain
    that underflows to a subnormal or 0.0, or overflows, leaves float
    range."""
    if not sys.float_info.min <= value < math.inf:
        raise DomainError(f"{name} at d = {d} leaves float range")
    return value


@dataclass(frozen=True)
class HInfimum:
    value: float
    mu: float
    error_estimate: float


_RIGHT_ENDPOINT_NUDGE = 1e-9
_GOLDEN_XTOL = 1e-10


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                xtol: float = _GOLDEN_XTOL) -> tuple[float, float, float]:
    """Golden-section minimum of f on [lo, hi]; returns (x, f(x), bracket)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x), b - a


def _piecewise_infimum(obj_vec: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       kinks: list[float], grid_step: float) -> HInfimum:
    """Dense grid pass plus golden-section refinement on each smooth piece."""
    def obj(x: float) -> float:
        return float(obj_vec(np.array([x]))[0])

    breakpoints = sorted({lo, hi, *[k for k in kinks if lo < k < hi]})
    best_val, best_mu = math.inf, lo
    for p_lo, p_hi in zip(breakpoints, breakpoints[1:]):
        n = max(int(math.ceil((p_hi - p_lo) / grid_step)), 8)
        mus = np.linspace(p_lo, p_hi, n + 1)
        vals = obj_vec(mus)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_mu = float(vals[i]), float(mus[i])
        r_lo = float(mus[max(i - 1, 0)])
        r_hi = float(mus[min(i + 1, n)])
        x, fx, bracket = _golden_min(obj, r_lo, r_hi)
        if fx < best_val:
            best_val, best_mu = fx, x
    w = 10.0 * _GOLDEN_XTOL
    probe_lo = max(lo, best_mu - w)
    probe_hi = min(hi, best_mu + w)
    err = max(obj(probe_lo) - best_val, obj(probe_hi) - best_val, 0.0) + 1e-14 * abs(best_val)
    return HInfimum(best_val, best_mu, err)


def _square_deficit_objective(d: int, include_zero: bool, sign: int):
    """(sign) * [sum_{l^2 < mu} (mu - l^2)^(d/2) - integral] / mu^(d/2).

    The integral of (mu - x^2)^(d/2) over [0, sqrt(mu)] in closed form is
    pi * (C_{d+1}/C_d) * mu^((d+1)/2).
    """
    icoef = float(PiRational(Fraction(1), 1) * (c_d_exact(d + 1) / c_d_exact(d)))
    l_start = 0 if include_zero else 1

    def obj_vec(mus: np.ndarray) -> np.ndarray:
        mus = np.asarray(mus, float)
        s = np.zeros_like(mus)
        l_max = int(math.floor(math.sqrt(float(mus.max()))))
        for l in range(l_start, l_max + 1):
            s += np.maximum(mus - l * l, 0.0) ** (d / 2.0)
        return sign * (s - icoef * mus ** ((d + 1) / 2.0)) / mus ** (d / 2.0)

    return obj_vec


def _check_finite_end(obj_vec, name: str, d: int, hi: float) -> None:
    """``DomainError`` unless the objective is finite at ``hi``, the upper
    end of the search.  The sum, the integral and mu^(d/2) all grow with
    mu, so an objective finite there is finite on the whole search; past
    float range it subtracts inf from inf on every grid point."""
    with np.errstate(over="ignore", invalid="ignore"):
        end = obj_vec(np.array([hi]))[0]
    if not np.isfinite(end):
        raise DomainError(f"{name} at d = {d} leaves float range: its objective overflows "
                          f"at mu = {hi}, the upper end of the search")


@lru_cache(maxsize=None)
def h1(d: int, grid_step: float = 1e-4) -> HInfimum:
    """Infimum over mu in [1, d-1) of the normalized integral-minus-sum gap
    (modes l >= 1, strict l^2 < mu).  Positive for every d >= 3."""
    if d < 3:
        raise DomainError(f"h1 is defined for d >= 3, got {d}")
    lo, hi = 1.0, float(d - 1) - _RIGHT_ENDPOINT_NUDGE
    kinks = [float(l * l) for l in range(1, d) if 1.0 < l * l < hi]
    obj = _square_deficit_objective(d, include_zero=False, sign=-1)
    _check_finite_end(obj, "h1", d, hi)
    return _piecewise_infimum(obj, lo, hi, kinks, grid_step)


@lru_cache(maxsize=None)
def h2(d: int, grid_step: float = 1e-4) -> HInfimum:
    """Infimum over mu in [1, 9(d-1)] of the normalized sum-minus-integral gap
    (modes l >= 0).  Positive for every d >= 3."""
    if d < 3:
        raise DomainError(f"h2 is defined for d >= 3, got {d}")
    lo, hi = 1.0, 9.0 * (d - 1)
    kinks = [float(l * l) for l in range(1, int(math.isqrt(int(hi))) + 2) if 1.0 < l * l < hi]
    obj = _square_deficit_objective(d, include_zero=True, sign=+1)
    _check_finite_end(obj, "h2", d, hi)
    return _piecewise_infimum(obj, lo, hi, kinks, grid_step)


# ---------------------------------------------------------------------------
# thin-product thresholds


class ThresholdCase(str, Enum):
    DIRICHLET_THIN_D2 = "dirichlet_thin_d2"
    NEUMANN_THIN_D2 = "neumann_thin_d2"
    DIRICHLET_THIN_D3PLUS = "dirichlet_thin_d3plus"
    NEUMANN_THIN_D3PLUS = "neumann_thin_d3plus"
    MANIFOLD_DIRICHLET_D1EQ1_D2EQ2 = "manifold_dirichlet_d1eq1_d2eq2"
    MANIFOLD_DIRICHLET_D1EQ1_D2GE3 = "manifold_dirichlet_d1eq1_d2ge3"


@dataclass(frozen=True)
class ThresholdRequest:
    """Inputs for one thinness-threshold formula.

    ``volume`` is the cross-section volume |Omega| (or |M|), ``c_remainder``
    the two-term counting remainder constant the user asserts, ``c1_onset``
    the Weyl-asymptotic onset constant for the small-lambda branch of the
    Neumann cases (may be omitted; the branch is then reported unavailable),
    ``dimension`` the cross-section dimension for the d >= 3 cases.
    """

    case: ThresholdCase
    volume: float
    c_remainder: float
    c1_onset: Optional[float] = None
    dimension: Optional[int] = None


@dataclass(frozen=True)
class ThresholdResult:
    case: ThresholdCase
    a0: float
    branches: dict
    binding_branch: str
    conditional_on: tuple[str, ...]
    complete: bool


def threshold_a0(req: ThresholdRequest) -> ThresholdResult:
    """Evaluate a thinness threshold with its full min-decomposition.

    The returned a0 is the minimum over the available branches; each branch
    is echoed so callers can audit which constraint binds and which
    user-supplied constants the number is conditional on.
    """
    if not req.volume > 0:
        raise ConfigError(f"volume must be positive, got {req.volume}")
    if not req.c_remainder > 0:
        raise ConfigError(f"remainder constant must be positive, got {req.c_remainder}")
    if req.c1_onset is not None and not req.c1_onset > 0:
        raise ConfigError(f"onset constant must be positive, got {req.c1_onset}")
    vol, c_rem, c1 = req.volume, req.c_remainder, req.c1_onset
    case = ThresholdCase(req.case)
    conditional = ["two-term remainder constant C"]
    branches: dict[str, Optional[float]] = {}

    if case is ThresholdCase.DIRICHLET_THIN_D2:
        branches["seeley_tradeoff"] = vol / (8.0 * math.pi * c_rem)

    elif case is ThresholdCase.NEUMANN_THIN_D2:
        branches["seeley_tradeoff"] = vol / (96.0 * c_rem)
        if c1 is not None:
            branches["small_lambda"] = 1.0 / (c_d(3) * vol * c1 ** 1.5)
            conditional.append("Weyl onset constant C1")
        else:
            branches["small_lambda"] = None
            conditional.append("existence of a finite Weyl onset constant (not supplied)")

    elif case is ThresholdCase.DIRICHLET_THIN_D3PLUS:
        d = _require_dimension(req, minimum=3)
        a_d = a_d_const(d, vol)
        branches["large_lambda"] = a_d * c_d(d - 1) / (c_rem * c_d(d))
        branches["mid_lambda"] = c_d(d - 1) * vol * h1(d).value / c_rem

    elif case is ThresholdCase.NEUMANN_THIN_D3PLUS:
        d = _require_dimension(req, minimum=3)
        b_d = b_d_const(d, vol)
        h2_val = h2(d).value
        branches["large_lambda_sum"] = b_d * c_d(d - 1) / (2.0 * c_rem * c_d(d))
        branches["large_lambda_tail"] = 3.0 * math.pi * math.sqrt(d - 1.0) * b_d / (2.0 * c_rem)
        branches["mid_lambda_sum"] = c_d(d - 1) * vol * h2_val / (2.0 * c_rem)
        branches["mid_lambda_tail"] = math.pi * c_d(d) * vol * h2_val / (2.0 * c_rem)
        if c1 is not None:
            branches["small_lambda"] = 1.0 / (c_d(d + 1) * vol * c1 ** ((d + 1) / 2.0))
            conditional.append("Weyl onset constant C1")
        else:
            branches["small_lambda"] = None
            conditional.append("existence of a finite Weyl onset constant (not supplied)")

    elif case is ThresholdCase.MANIFOLD_DIRICHLET_D1EQ1_D2EQ2:
        branches["zero_mode_absorption"] = math.sqrt(vol * math.pi / 48.0)
        branches["seeley_tradeoff"] = vol / (8.0 * math.pi * c_rem)

    elif case is ThresholdCase.MANIFOLD_DIRICHLET_D1EQ1_D2GE3:
        d = _require_dimension(req, minimum=3)
        a_d = a_d_const(d, vol)
        h1_val = h1(d).value
        branches["large_lambda_zero_mode"] = (
            math.pi * (0.5 * a_d) ** (1.0 / d) * (d - 1.0) ** ((d - 1.0) / (2.0 * d))
        )
        branches["large_lambda_tail"] = a_d * c_d(d - 1) / (2.0 * c_rem * c_d(d))
        branches["mid_lambda_zero_mode"] = math.pi * (0.5 * c_d(d) * vol * h1_val) ** (1.0 / d)
        branches["mid_lambda_tail"] = c_d(d - 1) * vol * h1_val / (2.0 * c_rem)

    else:  # pragma: no cover
        raise ConfigError(f"unknown threshold case {case}")

    available = {k: v for k, v in branches.items() if v is not None}
    binding = min(available, key=available.get)
    return ThresholdResult(
        case=case,
        a0=available[binding],
        branches=dict(branches),
        binding_branch=binding,
        conditional_on=tuple(conditional),
        complete=all(v is not None for v in branches.values()),
    )


def _require_dimension(req: ThresholdRequest, minimum: int) -> int:
    if req.dimension is None or req.dimension < minimum:
        raise ConfigError(
            f"case {req.case} needs an explicit cross-section dimension >= {minimum}, "
            f"got {req.dimension}"
        )
    return req.dimension
