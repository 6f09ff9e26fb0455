"""Spectrum specifications: one description, one (stream, meta) pair.

A spec is the recursive JSON form used by the command line, e.g.

    {"product": [{"interval": {"a": "pi/24", "bc": "dirichlet"}}, {"sphere2": {}}]}

``build_spec`` validates it into a ``SpectrumSpec``, whose ``stream`` and
``meta`` build the eigenvalue stream and the domain metadata of the same
domain; ``stream_covering_k`` grows the cutoff until the stream holds
k_max eigenvalues.  The command line and the reproduction bundles build
every domain this way.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Callable, NamedTuple, Optional

from . import counting as ct
from . import spectra as sp
from .constants import c_d
from .errors import ConfigError, CoverageError, DomainError

__all__ = ["SpectrumSpec", "build_spec", "stream_covering_k"]


def _tabulated_meta(p: dict) -> sp.DomainMeta:
    if "dimension" not in p or "volume" not in p:
        raise ConfigError("tabulated specs need 'dimension' and 'volume' for metadata")
    return sp.DomainMeta(p["dimension"], float(p["volume"]),
                         sp.BoundaryCondition(p.get("bc", "dirichlet")),
                         surface_area=p.get("surface_area"))


def _tabulated_table(p: dict) -> sp.EigenvalueStream:
    """The whole table, validated (against the metadata's boundary condition
    when it is present); ``SpectrumSpec`` builds it once and truncates it to
    each cutoff, as every generated kind is cut."""
    meta = _tabulated_meta(p) if "dimension" in p and "volume" in p else None
    return sp.tabulated_spectrum(p["entries"], math.inf, meta)


def _product_stream(spec: "SpectrumSpec", cutoff: float) -> sp.EigenvalueStream:
    """The product of the children's streams.  The children are built at
    ``spectra._factor_cutoff``, a few ulps past the cutoff, so that an
    exact child holds every value of a kept sum, as ``box_spectrum``
    builds its sides.  A child whose stream is a float product (a box or a
    product) is built again at the cutoff itself: it merges its sums within
    ``FLOAT_MERGE_RTOL``, and a sum past the cutoff must not join one below
    it."""
    lifted = sp._factor_cutoff(cutoff)
    factors = []
    for child in spec.children:
        stream = child.stream(lifted)
        if not stream.exact and child.kind in ("box", "product"):
            stream = child.stream(cutoff)
        factors.append(stream)
    return sp.product_spectrum(*factors, cutoff)


class _Kind(NamedTuple):
    needs: tuple[str, ...]
    stream: Callable[["SpectrumSpec", float], sp.EigenvalueStream]
    meta: Callable[["SpectrumSpec"], sp.DomainMeta]


#: every spectrum kind: required parameters, stream builder, metadata builder
_KINDS = {
    "interval": _Kind(
        ("a", "bc"),
        lambda s, c: sp._interval_stream(s.params["a"], s.params["bc"], c, s._weigh),
        lambda s: sp._box_meta([s.params["a"]], s.params["bc"], s._weigh)),
    "box": _Kind(
        ("sides", "bc"),
        lambda s, c: sp._box_stream(s.params["sides"], s.params["bc"], c, s._weigh),
        lambda s: sp._box_meta(s.params["sides"], s.params["bc"], s._weigh)),
    "sphere2": _Kind((), lambda s, c: sp.sphere2_spectrum(c), lambda s: sp.sphere2_meta()),
    "triangle": _Kind((), lambda s, c: sp.triangle_neumann_spectrum(c),
                      lambda s: sp.triangle_meta()),
    "tabulated": _Kind(("entries",), lambda s, c: s._table.truncated(c),
                       lambda s: _tabulated_meta(s.params)),
    "product": _Kind(
        (), _product_stream, lambda s: sp.product_meta(*(child.meta() for child in s.children))),
}


def _is_length(value) -> bool:
    """A length is a number or a string such as ``"pi/24"``; a bool is neither."""
    return isinstance(value, (int, float, str)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


#: the boundary conditions a spec may name
_BCS = frozenset(bc.value for bc in sp.BoundaryCondition)

#: each known parameter's check, and what a missing or failing one should
#: have been, for the error message
_PARAMS = {
    "a": (_is_length, "a length 'a'"),
    "bc": (lambda v: isinstance(v, str) and v in _BCS,
           "a boundary condition 'bc' (dirichlet, neumann or closed)"),
    "sides": (lambda v: isinstance(v, list) and v and all(map(_is_length, v)),
              "a nonempty 'sides' list of lengths"),
    "entries": (lambda v: isinstance(v, list), "an 'entries' list"),
    "dimension": (lambda v: isinstance(v, int) and not isinstance(v, bool),
                  "an integer 'dimension'"),
    "volume": (_is_finite, "a finite number 'volume'"),
    "surface_area": (_is_finite, "a finite number 'surface_area'"),
}


class SpectrumSpec:
    """A recursive spectrum description: model generator or product of two."""

    def __init__(self, kind: str, params: dict, children: Optional[list] = None):
        if kind not in _KINDS:
            raise ConfigError(f"unknown spectrum kind {kind!r}")
        self.kind = kind
        self.params = params
        self.children = children or []
        # the weights of this node's lengths, by (type, length); see _weigh
        self._weights = {}

    def meta(self) -> sp.DomainMeta:
        return _KINDS[self.kind].meta(self)

    def stream(self, cutoff: float) -> sp.EigenvalueStream:
        return _KINDS[self.kind].stream(self, cutoff)

    @functools.cached_property
    def _table(self) -> sp.EigenvalueStream:
        """A tabulated spec's validated table, so that each cutoff of
        ``stream_covering_k`` only truncates it."""
        return _tabulated_table(self.params)

    def _weigh(self, a) -> tuple:
        """``spectra._interval_weight(a)`` for a length of this node, parsed
        on first use and kept, so that ``meta`` and every cutoff ``stream``
        tries parse it once.  Equal lengths of one type weigh the same."""
        key = (type(a), a)
        if key not in self._weights:
            self._weights[key] = sp._interval_weight(a)
        return self._weights[key]

    def _table_count(self) -> Optional[tuple[int, bool]]:
        """For a spec whose leaves are all tables, the eigenvalues it holds
        at any cutoff, with multiplicity, and whether the zero mode is one
        of them; None when a leaf is a generator.  A product holds every
        pair sum of its factors' entries, and the zero mode when both
        factors do."""
        if self.kind == "tabulated":
            return self._table.total_count, self._table.index_origin == 0
        if self.kind != "product":
            return None
        counts = [child._table_count() for child in self.children]
        if None in counts:
            return None
        (n1, zero1), (n2, zero2) = counts
        return n1 * n2, zero1 and zero2

    def counting(self, cutoff: float) -> ct.CountingFunction:
        return ct.CountingFunction.from_stream(self.stream(cutoff), self.meta())


def build_spec(node) -> SpectrumSpec:
    """Parse the recursive JSON spectrum description (a string or a dict)."""
    if isinstance(node, str):
        node = json.loads(node)
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError("spectrum spec must be an object with exactly one key")
    kind, params = next(iter(node.items()))
    if kind not in _KINDS:
        raise ConfigError(f"unknown spectrum kind {kind!r}")
    if kind == "product":
        if not isinstance(params, list) or len(params) != 2:
            raise ConfigError("'product' takes a list of exactly two specs")
        return SpectrumSpec(kind, {}, [build_spec(p) for p in params])
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ConfigError(f"{kind!r} parameters must be an object")
    # the parameters a kind needs, and every known parameter given
    for key in _KINDS[kind].needs + tuple(k for k in params if k in _PARAMS):
        check, what = _PARAMS[key]
        if key not in params or not check(params[key]):
            got = f", got {params[key]!r}" if key in params else ""
            raise ConfigError(f"{kind!r} needs {what}{got}")
    if kind == "triangle" and params.get("bc", "neumann") != "neumann":
        raise ConfigError(f"the 'triangle' spectrum is Neumann only, got bc {params['bc']!r}")
    return SpectrumSpec(kind, params)


def stream_covering_k(spec: SpectrumSpec, k_max: int):
    """Build a stream holding at least k_max eigenvalues (beyond the zero
    mode), with its metadata.  The first cutoff is the Weyl guess with 30%
    headroom; each retry raises it by half, as often as it takes: the first
    eigenvalue of a thin product (0, pi/q) x S^2 is q**2, far past the guess
    for a small k_max.  A table, or a product of tables, holding fewer than
    k_max eigenvalues at any cutoff is a ``CoverageError`` before any stream
    is built, and a cutoff past float range a ``DomainError``."""
    meta = spec.meta()
    counted = spec._table_count()
    if counted is not None:
        total, zero = counted
        held = total - (1 if zero else 0)
        if held < k_max:
            what = "table" if spec.kind == "tabulated" else "product of tables"
            raise CoverageError(f"k_max={k_max} exceeds the {held} eigenvalues of the {what}")
    d = meta.dimension
    try:
        cutoff = (1.3 * (k_max + 50) / (c_d(d) * meta.volume)) ** (2.0 / d)
    except (OverflowError, ZeroDivisionError):
        cutoff = math.inf
    while cutoff < math.inf:
        stream = spec.stream(cutoff)
        have = stream.total_count - (1 if stream.index_origin == 0 else 0)
        if have >= k_max:
            return stream, meta
        cutoff *= 1.5
    raise DomainError(f"covering k_max={k_max} needs a cutoff past float range")
