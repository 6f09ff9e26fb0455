"""Riesz means and the classical eigenvalue inequality zoo.

Margins are reported as (satisfied side) - (other side), so a nonnegative
margin means the inequality holds.  The one-term Berezin (Dirichlet) and
Laptev (Neumann) bounds are theorems for gamma >= 1 on true spectra; a
negative margin there indicates an implementation bug, not a discovery.
The two-term refinements hold only beyond a non-constructive onset, so the
scan reports the empirical onset instead of asserting them globally.

Every Riesz mean goes through ``riesz_mean_many``.  For V distinct values
and L lambdas, integer gamma (0, 1, 2) costs O(V + L log V): one
``searchsorted`` into prefix counts or prefix moments.  Any other gamma up
to 4 runs a one-dimensional black-box fast multipole method on a dyadic
tree over the values and lambdas, O(n (V + L) log(V + L)) for n Chebyshev
nodes per interval: each lambda sums the values in its own leaf and the
one to its left directly, and every value further down reaches it through
the nodes of one pair of intervals at least one width apart, with a
relative error of at most 4.0e-16 (3^gamma + 2.94 4^gamma).  Gammas above
4, and lambdas so few that summing every value below them costs at most n
terms per value, take the direct sum, O(L V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .constants import l_gamma_d
from .errors import ConfigError, CoverageError, DomainError, ModeError
from .polya import polya_weyl_term
from .spectra import (BoundaryCondition, DomainMeta, EigenvalueStream, _run_starts,
                      _sorted_union)

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

#: Chebyshev nodes per interval of the non-integer-gamma tree (see ``_far_field``)
_NODES = 21
#: largest gamma whose far fields are interpolated; above it the sum is direct
_FAR_GAMMA = 4
#: near-field terms per lambda, on average, that set the depth of the tree
_LEAF = 32
#: terms per slice of a direct sum; sizes its scratch matrices
_SLICE = 1 << 16


def riesz_mean(s: EigenvalueStream, gamma: float, lam: float) -> float:
    """sum of mult * (lam - value)^gamma over values strictly below lam.

    gamma = 0 recovers the counting function.
    """
    return float(riesz_mean_many(s, gamma, [lam])[0])


def riesz_mean_many(s: EigenvalueStream, gamma: float, lams: Sequence[float]) -> np.ndarray:
    """``riesz_mean`` at each of ``lams``, in the given order.

    gamma = 0 is ``count_many``.  gamma = 1 and 2 read prefix moments at
    ``idx``, the number of values below each lambda: O(V + L log V) for V
    values and L lambdas.  Any other gamma runs the tree of ``_riesz_tree``
    in O(n (V + L) log(V + L)): each lambda's near field, about ``_LEAF``
    values, is summed directly, and the rest through ``_NODES`` Chebyshev
    nodes per interval, with a relative error of at most
    4.0e-16 (3^gamma + 2.94 4^gamma), 3.4e-13 at gamma 4 (see
    ``_far_field``).  Above gamma ``_FAR_GAMMA`` = 4, or when that direct
    sum is at most ``_NODES`` terms per value, every value below each lambda
    is summed directly, O(L V).  Lambdas at or below the first value,
    -inf among them, give exact zeros, and +inf gives inf.
    """
    if not 0 <= gamma < np.inf:
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    lams = s.check_range(lams)
    if gamma == 0:
        return s.count_many(lams).astype(float)
    idx = np.searchsorted(s.values, lams, side="left")
    if gamma in (1, 2):
        return _riesz_moments(s, gamma, lams, idx)
    return _riesz_tree(s, gamma, lams, idx)


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


def _lagrange(points: np.ndarray) -> np.ndarray:
    """Row i: the Lagrange polynomials of the ``_NODES`` points at points[i]."""
    return np.cos(np.outer(np.arccos(points), np.arange(_NODES))) @ _NODES_DCT


# A child interval's nodes sit at (t - 1) / 2 (left) and (t + 1) / 2 (right)
# of its parent's nodes t; row b of each half holds the parent's Lagrange
# polynomials at child node b.  Node weights [left | right] of two children,
# times _CHILDREN, are the same sources anterpolated to their parent's nodes;
# a parent's node values, times its transpose, are its interpolant at the
# nodes of both children.
_CHILDREN = np.vstack([_lagrange((_NODES_UNIT - 1.0) / 2.0), _lagrange((_NODES_UNIT + 1.0) / 2.0)])


def _riesz_tree(s: EigenvalueStream, gamma: float, lams: np.ndarray,
                idx: np.ndarray) -> np.ndarray:
    """Any gamma > 0 by a one-dimensional black-box fast multipole method
    (Fong & Darve 2009) on a dyadic tree over the values and the lambdas.

    The root is an interval of width 2^e at a multiple of 2^e, so that
    every centre below it is a float, and the tree is as deep as it takes
    to leave at most ``_LEAF`` near-field terms per lambda on average.  A
    lambda's near field, the values below it in its own leaf and the leaf
    to its left, is summed directly (``_near_sums``); the values further
    down come from ``_far_field``.  Only lambdas above the first value and
    below +inf enter the tree, so it spans [values[0], max lambda].  Where
    the far field does not pay or could overflow, the whole sum is direct.
    """
    # exact zeros at and below the first value; +inf exceeds every value
    out = np.where(idx > 0, np.inf, 0.0)
    live = np.flatnonzero((idx > 0) & (lams < np.inf))
    if not live.size:
        return out
    order = live[np.argsort(lams[live], kind="stable")]
    lams, tops = lams[order], idx[order]
    top = int(tops[-1])
    values = s.values[:top]
    mults = s.multiplicities[:top].astype(float)
    lo, hi = values[0], lams[-1]
    e = int(np.frexp(hi - lo)[1])
    while True:
        base = np.ldexp(np.floor(np.ldexp(lo, -e)), e)
        if base + np.ldexp(1.0, e) > hi:
            break
        e += 1
    # the direct sum: above _FAR_GAMMA; where far fields, which reach about
    # M (4 2^e)^gamma for total multiplicity M, could near the float range;
    # and at most _NODES terms per value, fewer than anterpolation costs
    if (gamma > _FAR_GAMMA or (e + 2) * gamma + np.log2(s.cumulative_counts()[top]) > 1000
            or int(tops.sum()) <= _NODES * top):
        out[order] = _direct_sums(values, mults, gamma, lams, tops)
        return out
    # centres base + (i + 1/2) 2^(e - l) must fit 53 bits and widths stay normal
    cap = max(0, min(52 - (int(abs(np.ldexp(base, -e))) + 1).bit_length(), e + 1020))
    scale, last = np.ldexp(1.0, cap - e), (1 << cap) - 1
    src = np.minimum(((values - base) * scale).astype(np.int64), last)
    tgt = np.minimum(((lams - base) * scale).astype(np.int64), last)

    def near_first(depth):
        """The first value of each lambda's left neighbour leaf at depth."""
        return np.searchsorted(src >> (cap - depth), (tgt >> (cap - depth)) - 1, side="left")

    # start where evenly spread values would leave about _LEAF near terms per lambda
    spread = int(1.5 * top * np.ldexp(1.0, e) / ((hi - lo) * _LEAF))
    depth = min(cap, spread.bit_length())
    first = near_first(depth)
    while depth < cap and int((tops - first).sum()) > _LEAF * lams.size:
        depth += 1
        first = near_first(depth)
    out[order] = _near_sums(values, mults, gamma, lams, first, tops)
    if depth >= 2:
        out[order] += _far_field(values, mults, gamma, lams, src >> (cap - depth),
                                 tgt >> (cap - depth), base, e, depth)
    return out


def _near_sums(values: np.ndarray, mults: np.ndarray, gamma: float, lams: np.ndarray,
               first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """sum m (lambda - v)^gamma over values[first:stop] for each lambda, where
    values[stop:] are the values at or above lambda.

    Rows are sorted by the width of their band and summed in slices of at
    most ``_SLICE`` terms (or one row) whose widths differ by at most a
    half, each padded to its widest row; the padding reads values at or
    above lambda, or +inf past the last value, and max(gap, 0) makes those
    terms 0.
    """
    out = np.zeros(lams.size)
    width = stop - first
    rows = np.argsort(width)
    width = width[rows]
    widest = int(width[-1]) if rows.size else 0
    if not widest:
        return out
    # the widest values and weights from each index on, as rows of a strided view
    pad = max(0, int(first.max()) + widest - values.size)
    if pad:
        values = np.concatenate([values, np.full(pad, np.inf)])
        mults = np.concatenate([mults, np.zeros(pad)])
    window = np.lib.stride_tricks.sliding_window_view
    value_rows, weight_rows = window(values, widest), window(mults, widest)
    i = int(np.searchsorted(width, 1))
    while i < rows.size:
        w = int(width[i]) * 3 // 2 or 1
        end = min(int(np.searchsorted(width, w, side="right")), i + max(1, _SLICE // w))
        w = int(width[end - 1])
        take, at = rows[i:end], first[rows[i:end]]
        gaps = value_rows[at, :w]
        np.subtract(lams[take, None], gaps, out=gaps)
        np.maximum(gaps, 0.0, out=gaps)
        _gap_powers(gaps, gamma)
        out[take] = np.einsum("ij,ij->i", gaps, weight_rows[at, :w])
        i = end
    return out


def _direct_sums(values: np.ndarray, mults: np.ndarray, gamma: float, lams: np.ndarray,
                 tops: np.ndarray) -> np.ndarray:
    """sum m (lambda - v)^gamma over the values below each of the sorted
    ``lams``; ``tops`` holds how many values lie below each, at least 1.

    Every row starts at the first value, so a slice of rows is one broadcast
    subtract and one matrix-vector product.  A slice holds consecutive
    lambdas whose tops differ by at most a half, at most ``_SLICE`` terms
    (or one row), padded to its largest top; the padding reads values at or
    above lambda, and max(gap, 0) makes those terms 0.
    """
    out = np.empty(lams.size)
    i = 0
    while i < lams.size:
        w = int(tops[i]) * 3 // 2
        end = min(int(np.searchsorted(tops, w, side="right")), i + max(1, _SLICE // w))
        w = int(tops[end - 1])
        gaps = np.subtract.outer(lams[i:end], values[:w])
        # only the padding past the slice's least top can be negative
        pad = gaps[:, int(tops[i]):]
        np.maximum(pad, 0.0, out=pad)
        _gap_powers(gaps, gamma)
        out[i:end] = gaps @ mults[:w]
        i = end
    return out


def _gap_powers(gaps: np.ndarray, gamma: float) -> None:
    """gaps^gamma in place, for gaps >= 0."""
    # the window scans' half-integer gammas: sqrt is several times cheaper than power
    if gamma == 0.5:
        np.sqrt(gaps, out=gaps)
    elif gamma == 1.5:
        gaps *= np.sqrt(gaps)
    else:
        np.power(gaps, gamma, out=gaps)


def _leaf_weights(values: np.ndarray, mults: np.ndarray, src: np.ndarray, base: float,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """The leaves of width h that hold values, from the sorted leaf numbers
    ``src`` of the values, and their node weights: sum m l_b(u) over each
    leaf's values, u a value in its leaf's coordinate, and a row of zeros.

    Each m T_p(u) follows from the last two by Chebyshev's recurrence;
    summed over a leaf they are its moments, and the DCT takes them to
    node weights."""
    u = (values - (base + (src + 0.5) * h)) * (2.0 / h)
    cheb = np.empty((_NODES, u.size))
    cheb[0] = mults
    np.multiply(mults, u, out=cheb[1])
    u *= 2.0
    for p in range(2, _NODES):
        np.multiply(u, cheb[p - 1], out=cheb[p])
        cheb[p] -= cheb[p - 2]
    first = np.flatnonzero(_run_starts(src))
    moments = np.zeros((_NODES, first.size + 1))
    np.add.reduceat(cheb, first, axis=1, out=moments[:, :-1])
    return src[first], moments.T @ _NODES_DCT


def _far_field(values: np.ndarray, mults: np.ndarray, gamma: float, lams: np.ndarray,
               src: np.ndarray, tgt: np.ndarray, base: float, e: int,
               depth: int) -> np.ndarray:
    """sum m (lambda - v)^gamma over the values two or more leaves left of
    each lambda's leaf; ``src`` and ``tgt`` are the leaf numbers of the
    sorted values and lambdas at ``depth``, the interval
    [base + i 2^(e - l), base + (i + 1) 2^(e - l)) being number i at level l.

    Upward, each leaf's values are anterpolated to its ``_NODES`` Chebyshev
    nodes (``_leaf_weights``), and ``_CHILDREN`` merges children into
    parents.  Downward, interval i at level l >= 2 takes the node weights of
    interval i - 2 and, when i is odd, of i - 3 through the kernel
    (k + (t_a - s_b) / 2)^gamma h^gamma, with k = 2, 3 and h = 2^(e - l),
    adds its parent's field interpolated to its nodes by the transpose of
    ``_CHILDREN``, and each leaf's field is read off at its lambdas.  By
    induction a level-l interval i then holds every value in intervals
    below i - 1.

    Error: a far term m (x - y)^gamma is replaced by its interpolant in
    both variables, y on the source interval and x on the target one.
    Mapped to [-1, 1] as s and t, x - y = (h / 2) (2k + t - s), whose branch
    point lies at |u| >= 3 in either variable, so each term is analytic
    inside the Bernstein ellipse rho = 3 + 2 sqrt 2 of each.  In s it is at
    most 3^gamma times its least value on the source interval there, so
    anterpolation is off by at most C 3^gamma of the term, with
    C = 4 rho^(1-n) / (rho - 1) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2).  The anterpolated term combines the
    kernel at the source nodes with weights of absolute sum at most the
    Lebesgue constant Lambda <= 1 + (2 / pi) log n, so on the ellipse in t
    it is at most Lambda 4^gamma times the true term, and interpolating it
    in t adds at most C Lambda 4^gamma.  The transfers between levels are
    exact on polynomials of degree n - 1, and every term is nonnegative, so
    the relative error of the far field is at most C (3^gamma + Lambda 4^gamma).
    ``_NODES`` = 21 makes it 4.0e-16 (3^gamma + 2.94 4^gamma): 1.2e-14 at
    gamma 1.5 and 3.4e-13 at ``_FAR_GAMMA`` = 4, under the 1.4e-14 3^gamma
    of a one-sided 19-point interpolant (19 points would give 1.1e-11 at 4).
    Rounding adds up to about 25 units of 2^-53 per level: each transfer
    between levels rounds at most 2.8 (down) or 5.1 (up) times the field,
    the largest row and column sums of ``_CHILDREN``, and the Lebesgue
    constant bounds how far that carries.  Measured against fsum sums, the
    bench shapes' trees of about 10 levels are off by up to 2e-14, a
    50-level tree over values from 1e-200 to 100 by 1.4e-13.
    """
    n = _NODES
    h = np.ldexp(1.0, e - depth)
    # upward; each level's node weights end in a row of zeros, read for absent cousins
    ids, w = _leaf_weights(values, mults, src, base, h)
    weights = {depth: (ids, w)}
    for level in range(depth, 2, -1):
        new = _run_starts(ids >> 1)
        at = np.cumsum(new) - 1
        pairs = np.zeros((at[-1] + 2, 2, n))
        pairs[at, ids & 1] = w[:-1]
        ids = (ids >> 1)[new]
        w = pairs.reshape(-1, 2 * n) @ _CHILDREN
        weights[level - 1] = ids, w

    # each level's intervals that hold lambdas, and the row of each among
    # its parents' interpolants at their children's nodes
    new = _run_starts(tgt)
    leaf, ids = np.cumsum(new) - 1, tgt[new]
    targets = {}
    for level in range(depth, 2, -1):
        new = _run_starts(ids >> 1)
        targets[level] = ids, 2 * (np.cumsum(new) - 1) + (ids & 1)
        ids = (ids >> 1)[new]
    targets[2] = ids, None
    # cousin i - 2 through rows 0..n-1, cousin i - 3 through rows n..2n-1
    diff = (_NODES_UNIT[:, None] - _NODES_UNIT[None, :]) / 2.0
    kernel = np.vstack([((2.0 + diff) ** gamma).T, ((3.0 + diff) ** gamma).T])
    local = np.zeros((ids.size, n))
    for level in range(2, depth + 1):
        ids, child = targets[level]
        if child is not None:
            local = (local @ _CHILDREN.T).reshape(-1, n)[child]
        src_ids, w = weights[level]
        absent = src_ids.size
        at = np.searchsorted(src_ids, ids - 3)
        found = src_ids.take(at, mode="clip") == ids - 3
        three = np.where(found & (ids & 1).astype(bool), at, absent)
        at += found
        two = np.where(src_ids.take(at, mode="clip") == ids - 2, at, absent)
        local += np.hstack([w[two], w[three]]) @ (kernel * np.ldexp(1.0, e - level) ** gamma)
    # each lambda reads its leaf's interpolant by Clenshaw's recurrence
    coef = np.take(_NODES_DCT @ local.T, leaf, axis=1)
    u = (lams - (base + (tgt + 0.5) * h)) * (2.0 / h)
    u2 = 2.0 * u
    b1, b2, b0 = np.zeros(lams.size), np.zeros(lams.size), np.empty(lams.size)
    for p in range(n - 1, 0, -1):
        np.multiply(u2, b1, out=b0)
        b0 -= b2
        b0 += coef[p]
        b1, b2, b0 = b0, b1, b2
    return coef[0] + u * b1 - b2


def _one_term_bound(meta: DomainMeta, gamma: float, lam: float) -> float:
    return l_gamma_d(gamma, meta.dimension) * meta.volume * lam ** (gamma + meta.dimension / 2.0)


def _require_gamma_ge_1(gamma: float) -> None:
    if not 1 <= gamma < np.inf:
        raise DomainError(f"this bound requires a finite gamma >= 1, got {gamma}")


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


def two_term_riesz_scan(s: EigenvalueStream, meta: DomainMeta, gamma: float,
                        cutoff: float) -> TwoTermScan:
    """Scan the two-term Riesz inequality at all jump points up to ``cutoff``,
    on the side of ``meta.bc``.

    Dirichlet: bound = L |Omega| lam^(g+d/2) - (1/5) L' |bOmega| lam^(g+(d-1)/2),
    margin = bound - riesz.  Neumann: the mirror with + (1/5) and
    margin = riesz - bound.  Closed and 1-D compositions have no two-term bound.
    """
    if meta.bc is BoundaryCondition.CLOSED:
        raise DomainError("two-term Riesz bounds are Dirichlet or Neumann, got closed")
    if meta.dimension < 2:
        raise DomainError(f"two-term Riesz bounds need dimension >= 2, got {meta.dimension}")
    side = meta.bc.value
    if meta.surface_area is None:
        raise ConfigError("two-term Riesz bounds need meta.surface_area")
    _require_gamma_ge_1(gamma)
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


#: evenly spaced points of every window scan, besides the jumps inside it
_WINDOW_GRID = 4096


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


def _window_infimum(s: EigenvalueStream, meta: DomainMeta, bc: BoundaryCondition, d2: int,
                    window: tuple[float, float]) -> WindowScan:
    """Infimum over the window grid of the gap between L |Omega| mu^((d1+d2)/2)
    and R_{d2/2}(mu), signed to be nonnegative where the one-term bound for
    ``bc`` holds, normalized by mu^((d1+d2-1)/2)."""
    _require_bc(meta, bc, "this gap scan")
    mus = _window_grid(s, *window, grid=_WINDOW_GRID)
    gamma = d2 / 2.0
    d1 = meta.dimension
    lead = l_gamma_d(gamma, d1) * meta.volume * mus ** ((d1 + d2) / 2.0)
    riesz = riesz_mean_many(s, gamma, mus)
    gap = lead - riesz if bc is BoundaryCondition.DIRICHLET else riesz - lead
    vals = gap / mus ** ((d1 + d2 - 1) / 2.0)
    i = int(np.argmin(vals))
    return WindowScan(float(vals[i]), float(mus[i]), (float(window[0]), float(window[1])))


def window_infimum_dirichlet(s: EigenvalueStream, meta: DomainMeta, d2: int,
                             window: tuple[float, float]) -> WindowScan:
    """Infimum over the window of the normalized Berezin gap
    [L |Omega| mu^((d1+d2)/2) - R_{d2/2}(mu)] / mu^((d1+d2-1)/2)."""
    return _window_infimum(s, meta, BoundaryCondition.DIRICHLET, d2, window)


def window_infimum_neumann(s: EigenvalueStream, meta: DomainMeta, d2: int,
                           window: tuple[float, float]) -> WindowScan:
    """Infimum over the window of the mirrored normalized gap for Neumann
    spectra: [R_{d2/2}(mu) - L |Omega| mu^((d1+d2)/2)] / mu^((d1+d2-1)/2)."""
    return _window_infimum(s, meta, BoundaryCondition.NEUMANN, d2, window)


def window_supremum_neumann(s: EigenvalueStream, meta: DomainMeta, d2: int,
                            window: tuple[float, float]) -> WindowScan:
    """Supremum over the window of R_{(d2-1)/2}(mu) / mu^((d1+d2-1)/2)."""
    _require_bc(meta, BoundaryCondition.NEUMANN, "this gap scan")
    mus = _window_grid(s, *window, grid=_WINDOW_GRID)
    vals = riesz_mean_many(s, (d2 - 1) / 2.0, mus) / mus ** ((meta.dimension + d2 - 1) / 2.0)
    i = int(np.argmax(vals))
    return WindowScan(float(vals[i]), float(mus[i]), (float(window[0]), float(window[1])))
