"""In-memory span tracer for the polyaspec benchmark.

The tracer wraps the package's public functions at run time; the package
itself is not edited.  Each wrapped call becomes a span with a metric key
("polya.exact", "counting", ...).  A call nested in a span of the same layer
inherits that span's key, so helper time stays with the operation that
asked for it (``riesz_mean_many`` inside ``two_term_riesz_scan`` counts as
``riesz.two_term``).

Point counting calls (``count`` / ``count_right`` on streams and counting
functions) are far too frequent to keep one span each.  Only the outermost
one of a nested chain is timed, and its time and count are folded into the
enclosing span, which runs on the same thread.

Spans opened on pool threads take as parent the span that submitted the
work, so their intervals may overlap.  Self time is a span's duration minus
the union of its children's intervals and its folded point-call time.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

__all__ = ["Span", "Tracer", "self_times", "union_length", "layer_metrics"]

#: metric key per wrapped "module.function"
KEYS = {
    "spectra.product_spectrum": "spectra.product",
    "spectra.stream_to_csv": "spectra.io",
    "spectra.stream_from_csv": "spectra.io",
    "spectra.stream_to_json_dict": "spectra.io",
    "spectra.stream_from_json_dict": "spectra.io",
    "polya.verify_exact_power": "polya.exact",
    "polya.verify_dirichlet": "polya.float",
    "polya.verify_neumann": "polya.float",
    "polya.polya_weyl_term": "polya.float",
    "polya.verify_counting_bound": "polya.bound",
    "riesz.two_term_riesz_scan": "riesz.two_term",
    "riesz.window_infimum_dirichlet": "riesz.window",
    "riesz.window_infimum_neumann": "riesz.window",
    "riesz.window_supremum_neumann": "riesz.window",
}
#: default key of a module's public functions that KEYS does not name
LAYER_DEFAULT = {
    "spectra": "spectra.gen",
    "counting": "counting",
    "polya": "polya.other",
    "riesz": "riesz.other",
    "constants": "constants",
    "reproduce": "reproduce",
    "cli": "cli",
}
#: names outside the modules' __all__ that are still wrapped
EXTRA = {
    "reproduce": ["empirical_weyl_onset", "_grow_cutoff_for_k", "_sphere_product"],
    "cli": ["stream_covering_k"],
}
METHODS = {
    ("cli", "SpectrumSpec"): ["stream", "meta", "counting"],
    ("counting", "CountingFunction"): ["jump_values"],
    ("counting", "SumCountingFunction"): ["jump_values"],
}
POINT_METHODS = {
    ("spectra", "EigenvalueStream"): ["count", "count_right"],
    ("counting", "CountingFunction"): ["count", "count_right"],
    ("counting", "SumCountingFunction"): ["count", "count_right"],
}
#: (retry loop, build step) pairs whose build calls are cutoff-growth tries
CUTOFF_TRIES = [("stream_covering_k", "stream"), ("_grow_cutoff_for_k", "_sphere_product")]
GENERATORS = {"interval_spectrum", "box_spectrum", "sphere2_spectrum",
              "triangle_neumann_spectrum", "product_spectrum", "tabulated_spectrum"}


class Span:
    __slots__ = ("name", "key", "parent", "t0", "t1", "children", "point_time", "counts",
                 "scale")

    def __init__(self, name, key, parent, t0, t1=None):
        self.scale = 1.0    # set on job roots: nominal over measured machine speed
        self.name = name
        self.key = key
        self.parent = parent
        self.t0 = t0
        self.t1 = t1
        self.children = []
        self.point_time = 0.0
        self.counts = {}

    @property
    def layer(self) -> str:
        return self.key.split(".", 1)[0]

    def add(self, counter: str, value) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def self_times(spans) -> dict:
    """Sum of self time per metric key, each scaled by its job root's
    ``scale``; folded point calls go to "counting"."""
    out: dict[str, float] = {}
    for s in spans:
        scale = _root(s).scale
        covered = union_length([(c.t0, c.t1) for c in s.children], s.t0, s.t1)
        own = (s.t1 - s.t0) - covered - s.point_time
        out[s.key] = out.get(s.key, 0.0) + own * scale
        if s.point_time:
            out["counting"] = out.get("counting", 0.0) + s.point_time * scale
    return out


class Tracer:
    """Wraps polyaspec functions and records spans while a job is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._active = False

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._tls, "inherited", None)

    def _open(self, name: str, key: str) -> Span:
        parent = self.current()
        if parent is not None and parent.layer == key.split(".", 1)[0]:
            key = parent.key
        span = Span(name, key, parent, time.perf_counter())
        if parent is not None:
            parent.children.append(span)
        self._stack().append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def job(self, fn, *args):
        """Run one benchmark job inside a root span; return (result, span)."""
        self._active = True
        span = self._open("job", "bench")
        try:
            return fn(*args), span
        finally:
            self._close(span)
            self._active = False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            span = tracer._open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            _count_result(span, name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_point(self, fn):
        tls = self._tls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active or getattr(tls, "in_point", False):
                return fn(*args, **kwargs)
            parent = tracer.current()
            tls.in_point = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parent.point_time += time.perf_counter() - t0
                parent.add("counting.point_calls", 1)
                tls.in_point = False

        return wrapper

    def _executor_class(self):
        tracer = self

        class ContextExecutor(ThreadPoolExecutor):
            """Runs submitted work with the submitter's span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    tracer._tls.inherited = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._tls.inherited = None

                return super().submit(run)

        return ContextExecutor

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public functions of the package's layer modules and
        rebind every module-level name that refers to a wrapped original."""
        import sys

        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYER_DEFAULT}
        replaced: dict[int, object] = {}
        for mod_name, mod in modules.items():
            names = list(getattr(mod, "__all__", [])) + EXTRA.get(mod_name, [])
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn) or isinstance(fn, type) or id(fn) in replaced:
                    continue
                key = KEYS.get(f"{mod_name}.{name}", LAYER_DEFAULT[mod_name])
                replaced[id(fn)] = self._wrap(fn, name, key)
        for point, table in ((False, METHODS), (True, POINT_METHODS)):
            for (mod_name, cls_name), methods in table.items():
                cls = getattr(modules[mod_name], cls_name, None)
                for meth in (m for m in methods if cls is not None and m in vars(cls)):
                    fn = vars(cls)[meth]
                    self._set(cls, meth, self._wrap_point(fn) if point
                              else self._wrap(fn, meth, LAYER_DEFAULT[mod_name]))
        pool = self._executor_class()
        mods = [package] + [m for n, m in sys.modules.items()
                            if n.startswith(package.__name__ + ".") and m is not None]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
                elif value is ThreadPoolExecutor:
                    self._set(mod, attr, pool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _count_result(span: Span, name: str, args, kwargs, result) -> None:
    """Work counters read from a wrapped call's arguments and result."""
    if span.key in ("polya.exact", "polya.float") and hasattr(result, "checked"):
        span.add(span.key + "_checked", result.checked)
        if span.key == "polya.float":
            span.add("polya.tie_breaks", result.tie_breaks)
    elif name == "verify_counting_bound":
        span.add("polya.bound_points", result.checked)
    elif name in GENERATORS and (span.parent is None or span.parent.layer != "spectra"):
        span.add("spectra.distinct_out", int(result.values.size))
        span.add("spectra.eigs_out", result.total_count)
    elif name == "riesz_mean_many":
        span.add("riesz.points", len(args[2] if len(args) > 2 else kwargs["lams"]))
    elif name == "riesz_mean":
        span.add("riesz.points", 1)


def layer_metrics(spans, jobs: int) -> tuple[dict, dict]:
    """Per-job layer metrics as {name: (value, unit)} from a finished trace
    of ``jobs`` jobs, and the total self time per metric key."""
    times = self_times(spans)
    counts: dict[str, float] = {}
    for s in spans:
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
    tries = sum(1 for s in spans if s.parent is not None
                and (s.parent.name, s.name) in CUTOFF_TRIES)
    verified = counts.get("polya.exact_checked", 0) + counts.get("polya.float_checked", 0)
    generated = counts.get("spectra.eigs_out", 0)
    per_job = {
        "polya.exact_s": times.get("polya.exact", 0.0),
        "polya.exact_checked": counts.get("polya.exact_checked", 0),
        "polya.float_s": times.get("polya.float", 0.0),
        "polya.float_checked": counts.get("polya.float_checked", 0),
        "polya.tie_breaks": counts.get("polya.tie_breaks", 0),
        "counting.point_calls": counts.get("counting.point_calls", 0),
        "counting.s": times.get("counting", 0.0),
        "polya.bound_self_s": times.get("polya.bound", 0.0),
        "polya.bound_points": counts.get("polya.bound_points", 0),
        "reproduce.self_s": times.get("reproduce", 0.0),
        "spectra.gen_s": times.get("spectra.gen", 0.0),
        "spectra.product_s": times.get("spectra.product", 0.0),
        "spectra.distinct_out": counts.get("spectra.distinct_out", 0),
        "spectra.eigs_out": generated,
        "spectra.io_s": times.get("spectra.io", 0.0),
        "cli.cutoff_tries": tries,
        "riesz.two_term_s": times.get("riesz.two_term", 0.0),
        "riesz.window_s": times.get("riesz.window", 0.0),
        "riesz.points": counts.get("riesz.points", 0),
        "cli.self_s": times.get("cli", 0.0),
        "constants.s": times.get("constants", 0.0),
    }
    out = {k: (v / jobs, "s/job" if k.endswith(("_s", ".s")) else "count/job")
           for k, v in per_job.items()}
    out["spectra.useful_ratio"] = (verified / generated if generated else 0.0, "ratio")
    return out, times
