"""Riesz means and the classical eigenvalue inequality zoo.

Margins are reported as (satisfied side) - (other side), so a nonnegative
margin means the inequality holds.  The one-term Berezin (Dirichlet) and
Laptev (Neumann) bounds are theorems for gamma >= 1 on true spectra; a
negative margin there indicates an implementation bug, not a discovery.
The two-term refinements hold only beyond a non-constructive onset, so the
scan reports the empirical onset instead of asserting them globally.

Every Riesz mean goes through ``riesz_mean_many``.  For V distinct values
and L lambdas, integer gamma (0, 1, 2) costs O(V + L log V): one
``searchsorted`` into prefix counts or prefix moments.  Any other gamma
cuts the sorted lambdas into blocks of B: the values within a block's
width below it are summed directly, the ones further down at n Chebyshev
points of the block and interpolated.  With lambdas at the values
themselves that is about n V L / B + 2 B L terms in place of L V / 2.
Gammas above 4 take the direct sum, O(L V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constants import l_gamma_d
from .errors import ConfigError, CoverageError, DomainError, ModeError
from .polya import polya_weyl_term
from .spectra import BoundaryCondition, DomainMeta, EigenvalueStream, _sorted_union

__all__ = [
    "riesz_mean",
    "riesz_mean_many",
    "berezin_margin",
    "laptev_neumann_margin",
    "li_yau_checks",
    "kroger_check",
    "two_term_riesz_scan",
    "TwoTermScan",
    "window_infimum_dirichlet",
    "window_infimum_neumann",
    "window_supremum_neumann",
    "WindowScan",
]

#: sorted lambdas per block of the non-integer-gamma kernel
_BLOCK = 256
#: Chebyshev points per block at which its far field is summed
_NODES = 19
#: largest gamma whose far fields are interpolated (see ``_riesz_blocked``)
_FAR_GAMMA = 4
#: lambdas per slice of a direct sum over all values below them; sizes the gap buffer
_CHUNK = 32


def riesz_mean(s: EigenvalueStream, gamma: float, lam: float) -> float:
    """sum of mult * (lam - value)^gamma over values strictly below lam.

    gamma = 0 recovers the counting function.
    """
    return float(riesz_mean_many(s, gamma, [lam])[0])


def riesz_mean_many(s: EigenvalueStream, gamma: float, lams: Sequence[float]) -> np.ndarray:
    """``riesz_mean`` at each of ``lams``, in the given order.

    gamma = 0 is ``count_many``.  gamma = 1 and 2 read prefix moments at
    ``idx``, the number of values below each lambda: O(V + L log V) for V
    values and L lambdas.  Any other gamma takes ``_BLOCK`` sorted lambdas
    at a time: the values near a block are summed directly, the ones below
    are summed at ``_NODES`` Chebyshev points and interpolated, with a
    relative error of at most 1.2e-12 (see ``_riesz_blocked``); above
    gamma ``_FAR_GAMMA`` = 4 every value is summed directly, O(L V).
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    lams = s.check_range(lams)
    if gamma == 0:
        return s.count_many(lams).astype(float)
    idx = np.searchsorted(s.values, lams, side="left")
    if gamma in (1, 2):
        return _riesz_moments(s, gamma, lams, idx)
    return _riesz_blocked(s, gamma, lams, idx)


def _riesz_moments(s: EigenvalueStream, gamma: float, lams: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """Integer gamma from prefix moments anchored at the top value below lambda.

    With t = values[k - 1] the largest of the k values below lambda and
    g = lambda - t, (lambda - v)^gamma expands in g and t - v >= 0:
    R_1 = P_0 g + A_1 and R_2 = (P_0 g + 2 A_1) g + A_2, where
    A_j[k] = sum_{i<k} m_i (t - v_i)^j.  Moving the anchor up by
    d = values[k] - values[k - 1] gives A_1 += P_0 d and
    A_2 += (2 A_1 + P_0 d) d, so every array is a cumsum of nonnegative
    terms.  Moments about 0 (lambda P_0 - P_1) cancel to nothing when
    lambda sits just above a cluster of values; these never subtract.
    """
    if not s.values.size:
        return np.zeros(lams.size)
    p0 = s.cumulative_counts().astype(float)
    d = np.diff(s.values)
    a1 = np.concatenate([[0.0, 0.0], np.cumsum(p0[1:-1] * d)])
    g = np.maximum(lams - s.values[np.maximum(idx - 1, 0)], 0.0)
    if gamma == 1:
        return p0[idx] * g + a1[idx]
    a2 = np.concatenate([[0.0, 0.0], np.cumsum((2.0 * a1[1:-1] + p0[1:-1] * d) * d)])
    return (p0[idx] * g + 2.0 * a1[idx]) * g + a2[idx]


def _chebyshev_interpolator(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points cos(pi j / (n - 1)) of [-1, 1] and the DCT-I
    matrix that takes values there to the coefficients of the degree n - 1
    interpolant in T_0 .. T_{n-1}."""
    j = np.arange(n)
    dct = np.cos(np.pi * np.outer(j, j) / (n - 1)) * (2.0 / (n - 1))
    dct[:, [0, -1]] *= 0.5
    dct[[0, -1], :] *= 0.5
    return np.cos(np.pi * j / (n - 1)), dct


_NODES_UNIT, _NODES_DCT = _chebyshev_interpolator(_NODES)


def _riesz_blocked(s: EigenvalueStream, gamma: float, lams: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """Any gamma > 0 in blocks of ``_BLOCK`` sorted lambdas, with the far
    field of each block interpolated in lambda.

    A block spans [lo, hi], w = hi - lo.  The values below lo - w are its
    far field: f(lambda) = sum m (lambda - v)^gamma over them is summed
    directly at ``_NODES`` Chebyshev points of [lo, hi] and read off its
    interpolant at the block's lambdas.  The values in [lo - w, hi) are the
    near field, summed directly in slices whose gaps fit the buffer of
    ``_CHUNK`` lambdas against all values below them.  A block
    of at most ``_NODES`` lambdas, of width 0, or with no value below
    lo - w is all near field, and so is every block when gamma exceeds
    ``_FAR_GAMMA``.

    Error: mapped to [-1, 1], the block sees each far value as a branch
    point x_s <= -3, so each term is analytic inside the Bernstein ellipse
    rho = 3 + 2 sqrt 2 ~ 5.83 and is at most 3^gamma times its least value
    on the block there.  Its degree n - 1 interpolant is off by at most
    4 3^gamma rho^(1-n) / (rho - 1) relative (Trefethen, Approximation
    Theory and Approximation Practice, Thm 8.2); every term is
    nonnegative, so the bound holds relative to the whole sum.  ``_NODES``
    = 19 makes it 1.4e-14 3^gamma: 7.1e-14 at gamma 1.5, 1.2e-12 at
    ``_FAR_GAMMA`` = 4.  Above that the bound grows by 3 per unit of
    gamma, so larger gammas take the direct sum.
    Cost per block: n times its far values plus its lambdas times its near
    values, where the plain direct sum pays its lambdas times all values
    below them.
    """
    order = np.argsort(lams, kind="stable")
    sorted_lams = lams[order]
    tops = idx[order]
    starts = np.arange(0, lams.size, _BLOCK)
    stops = np.minimum(starts + _BLOCK, lams.size)
    lo, hi = sorted_lams[starts], sorted_lams[stops - 1]
    width = hi - lo
    far = np.searchsorted(s.values, lo - width, side="left")
    far[(width <= 0) | (stops - starts <= _NODES) | (gamma > _FAR_GAMMA)] = 0
    mults = s.multiplicities.astype(float)
    buf = np.empty(min(_CHUNK, lams.size) * int(tops.max(initial=0)))

    def gap_sums(points, first, stop, clip_from):
        """sum m max(point - v, 0)^gamma over values[first:stop]; only the
        columns from ``clip_from`` on can hold negative gaps."""
        gaps = buf[:points.size * (stop - first)].reshape(points.size, stop - first)
        np.subtract(points[:, None], s.values[None, first:stop], out=gaps)
        tail = gaps[:, clip_from - first:]
        np.maximum(tail, 0.0, out=tail)
        # the window scans' half-integer gammas: sqrt is several times cheaper than power
        if gamma == 0.5:
            np.sqrt(gaps, out=gaps)
        elif gamma == 1.5:
            np.multiply(gaps, np.sqrt(gaps), out=gaps)
        else:
            np.power(gaps, gamma, out=gaps)
        return gaps @ mults[first:stop]

    # near fields block by block; far fields summed at each block's nodes
    near = np.empty(lams.size)
    mid, half = lo + 0.5 * width, 0.5 * width
    at_nodes = np.zeros((starts.size, _NODES))
    for b, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        k, top = int(far[b]), int(tops[stop - 1])
        # slices no larger than _CHUNK lambdas against every value below them
        step = max(_CHUNK, _CHUNK * top // max(top - k, 1))
        for row in range(start, stop, step):
            end = min(row + step, stop)
            near[row:end] = gap_sums(sorted_lams[row:end], k, int(tops[end - 1]),
                                     int(tops[row]))
        if k:
            at_nodes[b] = gap_sums(mid[b] + half[b] * _NODES_UNIT, 0, k, k)
    # every lambda reads its block's interpolant (zero without a far field)
    # by Clenshaw's recurrence in u = (lambda - mid) / half
    block = np.repeat(np.arange(starts.size), stops - starts)
    u = np.divide(sorted_lams - mid[block], half[block], out=np.zeros(lams.size),
                  where=far[block] > 0)
    coef = at_nodes @ _NODES_DCT.T
    b1 = b2 = np.zeros(lams.size)
    for p in range(_NODES - 1, 0, -1):
        b1, b2 = coef[block, p] + 2.0 * u * b1 - b2, b1
    out = np.empty(lams.size)
    out[order] = near + (coef[block, 0] + u * b1 - b2)
    return out


def _one_term_bound(meta: DomainMeta, gamma: float, lam: float) -> float:
    return l_gamma_d(gamma, meta.dimension) * meta.volume * lam ** (gamma + meta.dimension / 2.0)


def _require_gamma_ge_1(gamma: float) -> None:
    if gamma < 1:
        raise DomainError(f"this bound requires gamma >= 1, got {gamma}")


def _require_bc(meta: DomainMeta, bc: BoundaryCondition, what: str) -> None:
    if meta.bc is not bc:
        raise ModeError(f"{what} applies to {bc.value} spectra, got {meta.bc.value}")


def berezin_margin(s: EigenvalueStream, meta: DomainMeta, gamma: float, lam: float) -> float:
    """Upper Riesz bound for Dirichlet spectra: bound minus Riesz mean."""
    _require_gamma_ge_1(gamma)
    _require_bc(meta, BoundaryCondition.DIRICHLET, "the Berezin bound")
    return _one_term_bound(meta, gamma, lam) - riesz_mean(s, gamma, lam)


def laptev_neumann_margin(s: EigenvalueStream, meta: DomainMeta, gamma: float, lam: float) -> float:
    """Lower Riesz bound for Neumann spectra: Riesz mean minus bound."""
    _require_gamma_ge_1(gamma)
    _require_bc(meta, BoundaryCondition.NEUMANN, "the Laptev bound")
    return riesz_mean(s, gamma, lam) - _one_term_bound(meta, gamma, lam)


def li_yau_checks(s: EigenvalueStream, meta: DomainMeta, k: int) -> tuple[float, float]:
    """Lower bounds on the k-th partial sum and on the k-th Dirichlet eigenvalue.

    Returns (sum_margin, eigen_margin), both expected nonnegative on true
    Dirichlet spectra.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    _require_bc(meta, BoundaryCondition.DIRICHLET, "the Li-Yau bound")
    eigs = s.expanded()
    if eigs.size < k:
        raise CoverageError(f"stream holds {eigs.size} eigenvalues, needs {k}")
    d = meta.dimension
    w = float(polya_weyl_term(meta, 1))
    factor = d / (d + 2.0)
    sum_margin = float(np.sum(eigs[:k])) - factor * w * k ** ((d + 2.0) / d)
    eigen_margin = float(eigs[k - 1]) - factor * w * k ** (2.0 / d)
    return sum_margin, eigen_margin


def kroger_check(s: EigenvalueStream, meta: DomainMeta, k: int) -> float:
    """Upper bound on the k-th nonzero Neumann eigenvalue; margin >= 0 expected."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    _require_bc(meta, BoundaryCondition.NEUMANN, "the Kroger bound")
    if s.index_origin != 0:
        raise ModeError("Neumann streams must contain the zero mode")
    eigs = s.expanded()
    if eigs.size < k + 1:
        raise CoverageError(f"stream holds {eigs.size} eigenvalues, needs mu_{k}")
    d = meta.dimension
    bound = ((d + 2.0) / 2.0) ** (2.0 / d) * float(polya_weyl_term(meta, 1)) * k ** (2.0 / d)
    return bound - float(eigs[k])


@dataclass(frozen=True)
class TwoTermScan:
    """Jump-point margins of a two-term Riesz inequality.

    ``lambda_star`` is the smallest scanned point from which the margin
    stays nonnegative through the end of the scan (None when the final
    margin is negative); it is an empirical surrogate for the inequality's
    non-constructive onset, valid only for the scanned window.
    """

    side: str
    gamma: float
    points: np.ndarray = field(compare=False)  # (n, 4) rows of lambda, riesz, bound, margin
    lambda_star: Optional[float]
    worst_margin: float
    worst_lambda: float

    def rows(self) -> list[list[float]]:
        return self.points.tolist()


def two_term_riesz_scan(s: EigenvalueStream, meta: DomainMeta, gamma: float,
                        cutoff: float, side: str) -> TwoTermScan:
    """Scan the two-term Riesz inequality at all jump points up to ``cutoff``.

    side="dirichlet": bound = L |Omega| lam^(g+d/2) - (1/5) L' |bOmega| lam^(g+(d-1)/2),
    margin = bound - riesz.  side="neumann": the mirror with + (1/5) and
    margin = riesz - bound.
    """
    if side not in ("dirichlet", "neumann"):
        raise DomainError(f"side must be 'dirichlet' or 'neumann', got {side!r}")
    if meta.surface_area is None:
        raise ConfigError("two-term Riesz bounds need meta.surface_area")
    _require_gamma_ge_1(gamma)
    _require_bc(meta, BoundaryCondition(side), "this two-term bound")
    if cutoff > s.cutoff:
        raise CoverageError(f"scan cutoff {cutoff} exceeds stream cutoff {s.cutoff}")
    d = meta.dimension
    lams = s.values[(s.values > 0) & (s.values <= cutoff)]
    if lams.size == 0:
        raise CoverageError("no positive jump points below the scan cutoff")
    riesz = riesz_mean_many(s, gamma, lams)
    lead = l_gamma_d(gamma, d) * meta.volume * lams ** (gamma + d / 2.0)
    corr = 0.2 * l_gamma_d(gamma, d - 1) * meta.surface_area * lams ** (gamma + (d - 1) / 2.0)
    if side == "dirichlet":
        bound = lead - corr
        margin = bound - riesz
    else:
        bound = lead + corr
        margin = riesz - bound
    neg = np.nonzero(margin < 0)[0]
    if neg.size == 0:
        lambda_star = float(lams[0])
    elif neg[-1] == lams.size - 1:
        lambda_star = None
    else:
        lambda_star = float(lams[neg[-1] + 1])
    worst = int(np.argmin(margin))
    return TwoTermScan(side, gamma, np.column_stack([lams, riesz, bound, margin]),
                       lambda_star, float(margin[worst]), float(lams[worst]))


# ---------------------------------------------------------------------------
# window scans for the product-argument gap constants


@dataclass(frozen=True)
class WindowScan:
    value: float
    mu: float
    window: tuple[float, float]


def _window_grid(s: EigenvalueStream, lo: float, hi: float, grid: int) -> np.ndarray:
    if not 0 < lo < hi:
        raise DomainError(f"need 0 < A < B, got [{lo}, {hi}]")
    if hi > s.cutoff:
        raise CoverageError(f"window end {hi} exceeds stream cutoff {s.cutoff}")
    mus = np.linspace(lo, hi, grid)
    jumps = s.values[(s.values >= lo) & (s.values <= hi)]
    return _sorted_union(mus, jumps)


def window_infimum_dirichlet(s: EigenvalueStream, meta: DomainMeta, d2: int,
                             window: tuple[float, float], grid: int = 4096) -> WindowScan:
    """Infimum over the window of the normalized Berezin gap
    [L |Omega| mu^((d1+d2)/2) - R_{d2/2}(mu)] / mu^((d1+d2-1)/2)."""
    _require_bc(meta, BoundaryCondition.DIRICHLET, "this gap scan")
    mus = _window_grid(s, *window, grid=grid)
    gamma = d2 / 2.0
    d1 = meta.dimension
    lead = l_gamma_d(gamma, d1) * meta.volume * mus ** ((d1 + d2) / 2.0)
    vals = (lead - riesz_mean_many(s, gamma, mus)) / mus ** ((d1 + d2 - 1) / 2.0)
    i = int(np.argmin(vals))
    return WindowScan(float(vals[i]), float(mus[i]), (float(window[0]), float(window[1])))


def window_infimum_neumann(s: EigenvalueStream, meta: DomainMeta, d2: int,
                           window: tuple[float, float], grid: int = 4096) -> WindowScan:
    """Infimum over the window of the mirrored normalized gap for Neumann
    spectra: [R_{d2/2}(mu) - L |Omega| mu^((d1+d2)/2)] / mu^((d1+d2-1)/2)."""
    _require_bc(meta, BoundaryCondition.NEUMANN, "this gap scan")
    mus = _window_grid(s, *window, grid=grid)
    gamma = d2 / 2.0
    d1 = meta.dimension
    lead = l_gamma_d(gamma, d1) * meta.volume * mus ** ((d1 + d2) / 2.0)
    vals = (riesz_mean_many(s, gamma, mus) - lead) / mus ** ((d1 + d2 - 1) / 2.0)
    i = int(np.argmin(vals))
    return WindowScan(float(vals[i]), float(mus[i]), (float(window[0]), float(window[1])))


def window_supremum_neumann(s: EigenvalueStream, meta: DomainMeta, d2: int,
                            window: tuple[float, float], grid: int = 4096) -> WindowScan:
    """Supremum over the window of R_{(d2-1)/2}(mu) / mu^((d1+d2-1)/2)."""
    _require_bc(meta, BoundaryCondition.NEUMANN, "this gap scan")
    mus = _window_grid(s, *window, grid=grid)
    gamma = (d2 - 1) / 2.0
    d1 = meta.dimension
    vals = riesz_mean_many(s, gamma, mus) / mus ** ((d1 + d2 - 1) / 2.0)
    i = int(np.argmax(vals))
    return WindowScan(float(vals[i]), float(mus[i]), (float(window[0]), float(window[1])))
