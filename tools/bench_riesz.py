"""In-process timings of the non-integer-gamma Riesz kernel, ``riesz_mean_many``.

    PYTHONPATH=src python tools/bench_riesz.py --row rect-d-two-term-g1.5

times one row, and ``--parent`` compares two trees, as ``layer_bench``
describes.  The kernel rows are the 32 calls of the ``riesz-scan``
benchmark's shapes: each float box of ``bench/jobs.py`` at gamma 0.5 and
1.5, with the lambdas of one window scan (the 4096-point grid and the
jumps of a window, in fractions of the shape's cutoff) or of the two-term
scan (every positive jump up to the cutoff).  They record the fsum of the
Riesz means, to compare the two sides.  The scale rows time the whole
two-term scan of the box [6.1, 8.7] with Neumann conditions up to 2e4, V =
84,783 values, at gamma 1.5 and 2.5, and record its onset, worst margin
and where it falls.  The few-lambda rows time one ``riesz_mean_many`` call
on that stream at gamma 1.5 with 1 or 16 lambdas spread up to 2e4, the
traffic of ``riesz_mean`` and ``riesz --lambda``.  The stream is built
before timing.  Under ``--parent`` the scale rows take a fifth of
``--repeat`` calls.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import layer_bench
from layer_bench import RIESZ_SHAPES

WINDOWS = ((0.2, 0.6), (0.3, 0.9), (0.5, 1.0))
WINDOW_GRID = 4096
#: the two-term scan at scale: sides, bc, cutoff
SCALE = ((6.1, 8.7), "neumann", 2e4)
#: lambda counts of the few-lambda rows on the scale stream
FEW = (1, 16)

#: name -> (kind, shape, lambdas: a window or "two-term", gamma)
ROWS = {
    **{f"{shape}-{lams if lams == 'two-term' else 'window-%g-%g' % lams}-g{gamma}":
       ("kernel", shape, lams, gamma)
       for shape in RIESZ_SHAPES for lams in (*WINDOWS, "two-term") for gamma in (0.5, 1.5)},
    **{f"scale-two-term-g{gamma}": ("scale", "scale", "two-term", gamma) for gamma in (1.5, 2.5)},
    **{f"scale-lambdas-{count}-g1.5": ("few", "scale", count, 1.5) for count in FEW},
}


def time_row(name: str, repeat: int) -> dict:
    from polyaspec import box_meta, box_spectrum, riesz_mean_many, two_term_riesz_scan
    from polyaspec.riesz import _window_grid

    kind, shape, lams, gamma = ROWS[name]
    if kind == "scale":
        sides, bc, cutoff = SCALE
        s, meta = box_spectrum(list(sides), bc, cutoff), box_meta(list(sides), bc)

        def run():
            return two_term_riesz_scan(s, meta, gamma, cutoff, bc)
    elif kind == "few":
        sides, bc, cutoff = SCALE
        s = box_spectrum(list(sides), bc, cutoff)
        mus = np.linspace(0.0, cutoff, lams + 1)[1:]

        def run():
            return riesz_mean_many(s, gamma, mus)
    else:
        sides, bc, cutoff = RIESZ_SHAPES[shape]
        s = box_spectrum(list(sides), bc, cutoff * 1.0001)
        if lams == "two-term":
            mus = s.values[(s.values > 0) & (s.values <= cutoff)]
        else:
            mus = _window_grid(s, lams[0] * cutoff, lams[1] * cutoff, WINDOW_GRID)

        def run():
            return riesz_mean_many(s, gamma, mus)
    result, times = layer_bench.timed(run, repeat)
    if kind == "scale":
        shown = {"lambdas": len(result.points), "lambda_star": result.lambda_star,
                 "worst_margin": result.worst_margin, "worst_lambda": result.worst_lambda}
    else:
        shown = {"lambdas": int(mus.size), "fsum": math.fsum(result.tolist())}
    return {"times_ms": times, "values": int(s.values.size), **shown}


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    for name, (kind, shape, lams, gamma) in ROWS.items():
        calls = max(1, repeat // 5) if kind == "scale" else repeat
        timing, outs = layer_bench.time_sides(__file__, name, parent_src, rounds, calls)
        rows.append({"row": name, "kind": kind, "shape": shape, "lambdas_from": lams,
                     "gamma": gamma, **timing,
                     "parent": outs["parent"], "change": outs["change"]})
    kernel_ms, kernel_speedup = layer_bench.total([row for row in rows
                                                   if row["kind"] == "kernel"])
    what = ("in-process medians of one riesz_mean_many call (kernel and few-lambda "
            "rows) or one two-term scan at V = 84,783 (scale rows), parent -> change; "
            f"{rounds} fresh interpreters per side, alternating, {repeat} timed "
            "kernel calls or a fifth as many scans each, after one warm-up call")
    return {**layer_bench.header(what, __file__, rounds, repeat),
            "kernel_total_ms": kernel_ms, "kernel_total_speedup": kernel_speedup,
            "rows": rows}


if __name__ == "__main__":
    layer_bench.main(__doc__, ROWS, time_row, compare)
