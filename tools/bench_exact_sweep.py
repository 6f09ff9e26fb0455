"""In-process timings of the per-eigenvalue Polya sweeps on exact streams,
and of building those streams.

    PYTHONPATH=src python tools/bench_exact_sweep.py --row interval-1-dirichlet-1e5-exact

times one row, and ``--parent`` compares two trees, as ``layer_bench``
describes.  A row is one spec at one
``k_max`` and one sweep: ``exact`` is ``verify_exact_power``, ``plain``
is ``verify_dirichlet`` / ``verify_neumann``, ``build`` is
``stream_covering_k(build_spec(spec), k_max)``, the generator layer, and
``cli`` is one whole ``polyaspec verify --exact`` job through ``cli.main``
in process, its JSON written to the null device; ``sphere-thin-cli`` is
one ``polyaspec reproduce sphere-thin`` the same way, its sweep shape that
of the bundle's Dirichlet stream.  The
stream is built and the sweep run once before timing, so an ``exact`` or
``plain`` row times only the sweep.  Each row also
records the runs of equal values the sweep checks, the power of pi left in
the exact comparison (``shift``), and whether every exact comparison fits
in int64 and below 2^53: the unit interval and (0, pi/24) x S^2 rows are
int64 rows, the box rows (``shift`` 2) take the float ratio, and the
three-dimensional box and the 1e7 sphere rows pass 2^53.  The dense
lattices, the side-10 Neumann square and the unit cube, the Neumann unit
square covering k_max 1e6, the Neumann triangle, the Neumann float boxes
(no exact values, so their ``shift`` and int64 fields are None) and the
thin products (0, pi/6) x S^2 and (0, pi/48) x S^2 that the sphere-exact
bench workload verifies have build rows only.  The thick products
(0, pi) x S^2 and (0, 4pi) x S^2 have sweep rows only: theirs fail, at 3
and 893 k on the Dirichlet side and at 1 and 1473 on the Neumann side.
A build row also records the tracemalloc peak of one more build, in MB
(``peak_mb``), which holds the scratch memory of ``product_spectrum``.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from pathlib import Path

import layer_bench

_BOTH_SIDES = ("dirichlet", "neumann")
_ALL_SWEEPS = ("exact", "plain", "build")

#: (label, spec of a side, (k_max, its label) pairs, sides, sweeps)
_SHAPES = (
    ("interval-1", lambda side: {"interval": {"a": 1, "bc": side}}, ((10 ** 5, "1e5"),),
     _BOTH_SIDES, _ALL_SWEEPS),
    ("sphere-pi24",
     lambda side: {"product": [{"interval": {"a": "pi/24", "bc": side}}, {"sphere2": {}}]},
     ((10 ** 6, "1e6"), (10 ** 7, "1e7")), _BOTH_SIDES, _ALL_SWEEPS),
    ("box-1-1", lambda side: {"box": {"sides": [1, 1], "bc": side}}, ((10 ** 5, "1e5"),),
     _BOTH_SIDES, _ALL_SWEEPS),
    # the dense product at scale: 1.27e6 kept sums in a pair matrix of 1.62e6
    ("box-1-1", lambda side: {"box": {"sides": [1, 1], "bc": side}}, ((10 ** 6, "1e6"),),
     ("neumann",), ("build",)),
    ("box3d", lambda side: {"box": {"sides": ["3/2", 2, "5/7"], "bc": side}},
     ((10 ** 5, "1e5"),), _BOTH_SIDES, _ALL_SWEEPS),
    # dense integer lattices, whose pair sums fill a range hardly wider than
    # their count: the square of reproduce square-triangle, and the unit cube
    ("box-10-10", lambda side: {"box": {"sides": [10, 10], "bc": side}}, ((10 ** 5, "1e5"),),
     ("neumann",), ("build",)),
    ("box-1-1-1", lambda side: {"box": {"sides": [1, 1, 1], "bc": side}},
     ((10 ** 5, "1e5"),), _BOTH_SIDES, ("build",)),
    # the one non-box Euclidean generator, whose volume sqrt(3)/4 is not exact
    ("triangle", lambda side: {"triangle": {}}, ((10 ** 4, "1e4"), (10 ** 5, "1e5")),
     ("neumann",), ("build",)),
    # float boxes, whose products sum float values: the Riesz box of
    # riesz-scan, a rectangle of composite-count and a three-dimensional box
    ("box-6.1-8.7", lambda side: {"box": {"sides": [6.1, 8.7], "bc": side}},
     ((10 ** 4, "1e4"), (10 ** 5, "1e5")), ("neumann",), ("build",)),
    ("box-6.37-4.21", lambda side: {"box": {"sides": [6.37, 4.21], "bc": side}},
     ((10 ** 4, "1e4"), (10 ** 5, "1e5")), ("neumann",), ("build",)),
    ("box-4.1-3.3-2.6", lambda side: {"box": {"sides": [4.1, 3.3, 2.6], "bc": side}},
     ((10 ** 4, "1e4"),), ("neumann",), ("build",)),
    # the covering streams of the sphere-exact bench jobs, whose builds are
    # mostly fixed cost, and one such job end to end
    *((f"sphere-pi{q}",
       lambda side, q=q: {"product": [{"interval": {"a": f"pi/{q}", "bc": side}},
                                      {"sphere2": {}}]},
       ((10 ** 5, "1e5"),), _BOTH_SIDES, ("build",)) for q in (6, 48)),
    ("sphere-pi24",
     lambda side: {"product": [{"interval": {"a": "pi/24", "bc": side}}, {"sphere2": {}}]},
     ((10 ** 5, "1e5"),), ("dirichlet",), ("cli",)),
    # thick products, whose sweeps fail and decide their failed runs again
    # at each k
    *((f"thick-{a}",
       lambda side, a=a: {"product": [{"interval": {"a": a, "bc": side}}, {"sphere2": {}}]},
       ((10 ** 5, "1e5"),), _BOTH_SIDES, ("exact", "plain")) for a in ("pi", "4pi")),
)

#: name -> (spec, k_max, side, sweep)
ROWS = {
    f"{label}-{side}-{k_label}-{sweep}": (spec(side), k_max, side, sweep)
    for label, spec, sizes, sides, sweeps in _SHAPES
    for k_max, k_label in sizes
    for side in sides
    for sweep in sweeps
}
# the bundle end to end: both sides of (0, pi/24) x S^2 at k_max 1e5, each
# swept exactly and plainly, and its threshold and failure cases
ROWS["sphere-thin-cli"] = (
    {"product": [{"interval": {"a": "pi/24", "bc": "dirichlet"}}, {"sphere2": {}}]},
    10 ** 5, "dirichlet", "bundle")

def sweep_shape(s, meta, k_max: int, side: str) -> dict:
    """The runs the sweep checks and the path of their exact comparisons:
    ``shift``, whether every lhs = n^d c_den and rhs = rhs_unit k^2 is below
    ``_INT64_GUARD`` with ``shift`` 0 (``int64``), and below 2^53.  A domain
    without an exact volume makes no exact comparison, so those three are
    None."""
    from polyaspec.polya import _exact_terms, _runs, _sweep_range
    from polyaspec.spectra import _INT64_GUARD

    first, last, index = _runs(s, *_sweep_range(s, k_max, side))
    if meta.exact_volume is None:
        return {"runs": len(first), "shift": None, "int64": None, "below_2_53": None}
    c_den, rhs_unit, shift = _exact_terms(s, meta)
    at = last if side == "dirichlet" else first
    top = max(int(s.exact_nums[index].max()) ** meta.dimension * c_den,
              rhs_unit * int(at.max()) ** 2)
    return {"runs": len(first), "shift": shift,
            "int64": shift == 0 and max(top, c_den) < _INT64_GUARD,
            "below_2_53": top < 2 ** 53}


def time_row(name: str, repeat: int) -> dict:
    from polyaspec import cli, verify_dirichlet, verify_exact_power, verify_neumann
    from polyaspec.spec import build_spec, stream_covering_k

    spec, k_max, side, sweep = ROWS[name]
    s, meta = stream_covering_k(build_spec(spec), k_max)
    if sweep == "build":
        def run():
            return stream_covering_k(build_spec(spec), k_max)
    elif sweep == "cli":
        argv = ["verify", "--spec", json.dumps(spec), "--k-max", str(k_max), "--exact",
                "--no-timestamp", "--out", os.devnull]

        def run():
            return cli.main(argv)
    elif sweep == "bundle":
        argv = ["reproduce", "sphere-thin", "--no-timestamp", "--out", os.devnull]

        def run():
            return cli.main(argv)
    elif sweep == "exact":
        def run():
            return verify_exact_power(s, meta, k_max, side)
    else:
        plain = verify_dirichlet if side == "dirichlet" else verify_neumann

        def run():
            return plain(s, meta, k_max)
    _, times = layer_bench.timed(run, repeat)
    peak = {}
    if sweep == "build":
        tracemalloc.start()
        run()
        peak = {"peak_mb": round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)}
        tracemalloc.stop()
    return {"times_ms": times, **peak, **sweep_shape(s, meta, k_max, side)}


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    for name, (spec, k_max, side, sweep) in ROWS.items():
        timing, outs = layer_bench.time_sides(__file__, name, parent_src, rounds, repeat)
        shape = {k: outs["change"][k] for k in ("runs", "shift", "int64", "below_2_53")}
        peak = ({"peak_mb": {label: outs[label]["peak_mb"] for label in ("parent", "change")}}
                if sweep == "build" else {})
        rows.append({"row": name, "spec": spec, "k_max": k_max, "side": side,
                     "sweep": sweep, **shape, **timing, **peak})
    what = ("in-process medians of one per-eigenvalue sweep or one stream build, "
            "with the tracemalloc peak of one build (peak_mb), parent -> change; "
            f"{rounds} fresh interpreters per side, alternating, {repeat} timed "
            "calls each after one warm-up call")
    return {**layer_bench.header(what, __file__, rounds, repeat), "rows": rows}


if __name__ == "__main__":
    layer_bench.main(__doc__, ROWS, time_row, compare)
