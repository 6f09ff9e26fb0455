"""In-process timings of the counting scans, ``verify_counting_bound`` and
``estimate_seeley_constant``.

    PYTHONPATH=src python tools/bench_counting.py --row scan-composite

times one row on the ``polyaspec`` found on the path and prints its median,
quartiles and every sample in ms as JSON.  A ``scan`` row is one of the
three upper-side scans of ``reproduce square-triangle``, on the counting
functions that bundle builds (the side-10 Neumann square, the unit
Neumann triangle and their sum, up to 1.0001 times the cutoff 1e4) with
its bounds and window.  A ``seeley`` row is one upper-side
``estimate_seeley_constant`` call on one of the 8 Neumann rectangles of
the ``composite-count`` benchmark (``bench/jobs.py``), built as its
composite jobs build them.  Each row records its result: a scan's report
(``to_dict()``) and the SHA-256 of its margins' bytes, or the estimate's
fields.  The row is run once before timing.

    python tools/bench_counting.py --parent OTHER/src > BENCH_counting.json

times every row in fresh interpreters, alternately on OTHER/src (the
parent) and on this checkout's src (the change), with the fixed malloc
settings and the runner of ``bench_exact_sweep.py``, and records whether
both sides gave the same result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

from bench_exact_sweep import MALLOC_ENV, host, summary, time_sides

#: the rectangles of the composite-count composite jobs: sides, cutoff
COMPOSITES = (
    (("7/2", "9/2"), 6000.0), ((6, 8), 4000.0), (("15/2", "11/2"), 3000.0),
    ((5, "13/2"), 5000.0), ((5.3, 7.1), 4000.0), ((6.37, 4.21), 6000.0),
    ((8.9, 3.7), 5000.0), ((4.45, 6.83), 3000.0),
)

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
    result = run()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    if op == "scan":
        out = {**result.to_dict(),
               "margins_sha256": hashlib.sha256(result.margins.tobytes()).hexdigest()}
        out["failures"] = len(out["failures"])
    else:
        out = {"value": result.value, "achieved_at": result.achieved_at,
               "scanned": result.scanned, "top": [list(t) for t in result.top]}
    return {"times_ms": times, "result": out}


def command(name: str, repeat: int) -> str:
    return f"PYTHONPATH=src python tools/bench_counting.py --row {name} --repeat {repeat}"


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    total = {op: {"parent": 0.0, "change": 0.0} for op in ("scan", "seeley")}
    for name, (op, what, cutoff) in ROWS.items():
        ms, outs = time_sides(__file__, name, parent_src, rounds, repeat)
        for label in ("parent", "change"):
            total[op][label] += ms[label]["median"]
        subject = {"part": what} if op == "scan" else {"sides": list(what)}
        rows.append({"row": name, "op": op, **subject, "cutoff": cutoff,
                     "command": command(name, repeat),
                     "parent_ms": ms["parent"], "change_ms": ms["change"],
                     "speedup": round(ms["parent"]["median"] / ms["change"]["median"], 2),
                     "same_result": outs["parent"]["result"] == outs["change"]["result"],
                     "result": outs["change"]["result"]})
    return {
        "what": "in-process medians of one upper-side verify_counting_bound scan of "
                "reproduce square-triangle (scan rows) or one upper-side "
                "estimate_seeley_constant call on a composite-count rectangle (seeley "
                f"rows), parent -> change; {rounds} fresh interpreters per side, "
                f"alternating, {repeat} timed calls each after one warm-up call",
        "malloc_env": MALLOC_ENV,
        "command": f"python tools/bench_counting.py --parent PARENT/src "
                   f"--rounds {rounds} --repeat {repeat}",
        **host(),
        "total_ms": {op: {label: round(t, 3) for label, t in sides.items()}
                     for op, sides in total.items()},
        "total_speedup": {op: round(sides["parent"] / sides["change"], 2)
                          for op, sides in total.items()},
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--row", choices=sorted(ROWS))
    parser.add_argument("--parent", type=Path, help="the parent checkout's src directory")
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args()
    if args.parent is not None:
        print(json.dumps(compare(args.parent, args.rounds, args.repeat), indent=1))
    elif args.row is not None:
        out = time_row(args.row, args.repeat)
        print(json.dumps({"row": args.row, **summary(out["times_ms"]), **out}))
    else:
        parser.error("give --row or --parent")


if __name__ == "__main__":
    main()
