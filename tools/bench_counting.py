"""In-process timings of the counting scans, ``verify_counting_bound`` and
``estimate_seeley_constant``.

    PYTHONPATH=src python tools/bench_counting.py --row scan-composite

times one row, and ``--parent`` compares two trees, as ``layer_bench``
describes.  A ``scan`` row is one of the three upper-side scans of
``reproduce square-triangle``, on the counting functions that bundle
builds (the side-10 Neumann square, the unit Neumann triangle and their
sum, up to 1.0001 times the cutoff 1e4) with its bounds and window.  A
``seeley`` row is one upper-side ``estimate_seeley_constant`` call on one
of the 8 Neumann rectangles of the ``composite-count`` benchmark
(``bench/jobs.py``), built as its composite jobs build them.  Each row
records its result: a scan's report (``to_dict()``) and the SHA-256 of its
margins' bytes, or the estimate's fields; a compared row also records
whether both sides gave the same result.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import layer_bench
from layer_bench import COMPOSITES

#: name -> (scan or seeley; the scanned part or the rectangle's sides; cutoff)
ROWS = {f"scan-{part}": ("scan", part, 1.0e4) for part in ("square", "triangle", "composite")}
ROWS.update({f"seeley-{'x'.join(map(str, sides))}": ("seeley", sides, cutoff)
             for sides, cutoff in COMPOSITES})


def _scan_run(part: str, cutoff: float):
    """One upper-side scan of the square-triangle bundle."""
    from polyaspec import reproduce
    from polyaspec.counting import SumCountingFunction
    from polyaspec.polya import verify_counting_bound
    from polyaspec.spec import build_spec

    square = build_spec({"box": {"sides": [10, 10], "bc": "neumann"}}).counting(cutoff * 1.0001)
    triangle = build_spec({"triangle": {}}).counting(cutoff * 1.0001)
    cf, bound = {"square": (square, reproduce.square_bound),
                 "triangle": (triangle, reproduce.triangle_bound),
                 "composite": (SumCountingFunction([square, triangle]),
                               reproduce.composite_bound)}[part]

    def run():
        return verify_counting_bound(cf, bound, "upper",
                                     lambda_min=reproduce.SQUARE_TRIANGLE_LAMBDA_MIN,
                                     lambda_max=cutoff)
    return run


def _seeley_run(sides, cutoff: float):
    """One upper-side Seeley scan of a composite job's rectangle."""
    from polyaspec import box_meta, box_spectrum
    from polyaspec.counting import CountingFunction, estimate_seeley_constant

    meta = box_meta(list(sides), "neumann")
    cf = CountingFunction.from_stream(box_spectrum(list(sides), "neumann", cutoff * 1.0001),
                                      meta)

    def run():
        return estimate_seeley_constant(cf, meta, cutoff, "upper")
    return run


def time_row(name: str, repeat: int) -> dict:
    op, what, cutoff = ROWS[name]
    run = _scan_run(what, cutoff) if op == "scan" else _seeley_run(what, cutoff)
    result, times = layer_bench.timed(run, repeat)
    if op == "scan":
        out = {**result.to_dict(),
               "margins_sha256": hashlib.sha256(result.margins.tobytes()).hexdigest()}
        out["failures"] = len(out["failures"])
    else:
        out = {"value": result.value, "achieved_at": result.achieved_at,
               "scanned": result.scanned, "top": [list(t) for t in result.top]}
    return {"times_ms": times, "result": out}


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    for name, (op, what, cutoff) in ROWS.items():
        timing, outs = layer_bench.time_sides(__file__, name, parent_src, rounds, repeat)
        subject = {"part": what} if op == "scan" else {"sides": list(what)}
        rows.append({"row": name, "op": op, **subject, "cutoff": cutoff, **timing,
                     "same_result": outs["parent"]["result"] == outs["change"]["result"],
                     "result": outs["change"]["result"]})
    what = ("in-process medians of one upper-side verify_counting_bound scan of "
            "reproduce square-triangle (scan rows) or one upper-side "
            "estimate_seeley_constant call on a composite-count rectangle (seeley "
            f"rows), parent -> change; {rounds} fresh interpreters per side, "
            f"alternating, {repeat} timed calls each after one warm-up call")
    return {**layer_bench.header(what, __file__, rounds, repeat),
            **layer_bench.totals(rows, ("scan", "seeley")), "rows": rows}


if __name__ == "__main__":
    layer_bench.main(__doc__, ROWS, time_row, compare)
