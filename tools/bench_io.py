"""In-process timings of the CSV writer and reader, ``stream_to_csv`` and
``stream_from_csv``, and of the CSV text of ``riesz --two-term``.

    PYTHONPATH=src python tools/bench_io.py --row read-6.37x4.21

times one row on the ``polyaspec`` found on the path and prints its median,
quartiles and every sample in ms as JSON.  The write and read rows are the
8 Neumann rectangles of the round trips of the ``composite-count``
benchmark (``bench/jobs.py``), each built as those jobs build it, up to
1.0001 times its cutoff: a ``write`` row writes the stream to a
``StringIO``, a ``read`` row reads that text back.  An ``emit`` row is one
in-process ``riesz --two-term --gamma 1.5 --output csv`` call, captured
from stdout, on one of the four float boxes of the ``riesz-scan``
benchmark: the scan and the CSV text of its (lambda, riesz, bound,
margin) rows.  A write or emit row records the length and SHA-256 of the
text, a read row whether the stream read back has the same values, bit
for bit, and the same multiplicities.  The row is run once before timing.

    python tools/bench_io.py --parent OTHER/src > BENCH_io.json

times every row in fresh interpreters, alternately on OTHER/src (the
parent) and on this checkout's src (the change), with the fixed malloc
settings and the runner of ``bench_exact_sweep.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from bench_exact_sweep import MALLOC_ENV, host, summary, time_sides

#: the rectangles of the composite-count round trips: sides, cutoff
COMPOSITES = (
    (("7/2", "9/2"), 6000.0), ((6, 8), 4000.0), (("15/2", "11/2"), 3000.0),
    ((5, "13/2"), 5000.0), ((5.3, 7.1), 4000.0), ((6.37, 4.21), 6000.0),
    ((8.9, 3.7), 5000.0), ((4.45, 6.83), 3000.0),
)

#: the float boxes of the riesz-scan two-term jobs: sides, bc, cutoff
RIESZ_SHAPES = {
    "rect-d": ((7.3, 5.1), "dirichlet", 2400.0),
    "rect-n": ((6.1, 8.7), "neumann", 1700.0),
    "box-d": ((3.7, 2.9, 2.3), "dirichlet", 560.0),
    "box-n": ((4.1, 3.3, 2.6), "neumann", 420.0),
}
EMIT_GAMMA = "1.5"

#: name -> (write, read or emit; sides; cutoff; bc)
ROWS = {f"{op}-{'x'.join(map(str, sides))}": (op, sides, cutoff, "neumann")
        for op in ("write", "read") for sides, cutoff in COMPOSITES}
ROWS.update({f"emit-{shape}": ("emit", sides, cutoff, bc)
             for shape, (sides, bc, cutoff) in RIESZ_SHAPES.items()})


def _emit_run(sides, cutoff: float, bc: str):
    """One ``riesz --two-term --output csv`` call, returning its stdout."""
    from polyaspec import cli

    argv = ["riesz", "--spec", json.dumps({"box": {"sides": list(sides), "bc": bc}}),
            "--gamma", EMIT_GAMMA, "--two-term", "--cutoff", repr(cutoff),
            "--output", "csv", "--no-timestamp"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        return out.getvalue()
    return run


def time_row(name: str, repeat: int) -> dict:
    from polyaspec import box_spectrum, stream_from_csv, stream_to_csv

    op, sides, cutoff, bc = ROWS[name]
    if op == "emit":
        run = _emit_run(sides, cutoff, bc)
    else:
        s = box_spectrum(list(sides), bc, cutoff * 1.0001)
        buf = io.StringIO()
        stream_to_csv(s, buf)
        text = buf.getvalue()
    if op == "write":
        def run():
            stream_to_csv(s, io.StringIO())
    elif op == "read":
        def run():
            return stream_from_csv(io.StringIO(text), s.cutoff)
    back = run()
    if op == "emit":
        text = back
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    if op == "read":
        return {"times_ms": times, "values": int(s.values.size),
                "same": back.values.tobytes() == s.values.tobytes()
                and back.multiplicities.tolist() == s.multiplicities.tolist()}
    lines = {"lines": text.count("\n")} if op == "emit" else {"values": int(s.values.size)}
    return {"times_ms": times, **lines,
            "chars": len(text), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def command(name: str, repeat: int) -> str:
    return f"PYTHONPATH=src python tools/bench_io.py --row {name} --repeat {repeat}"


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    total = {op: {"parent": 0.0, "change": 0.0} for op in ("write", "read", "emit")}
    for name, (op, sides, cutoff, bc) in ROWS.items():
        ms, outs = time_sides(__file__, name, parent_src, rounds, repeat)
        for label in ("parent", "change"):
            total[op][label] += ms[label]["median"]
        gamma = {"gamma": float(EMIT_GAMMA)} if op == "emit" else {}
        rows.append({"row": name, "op": op, "sides": list(sides), "bc": bc, "cutoff": cutoff,
                     **gamma, "command": command(name, repeat),
                     "parent_ms": ms["parent"], "change_ms": ms["change"],
                     "speedup": round(ms["parent"]["median"] / ms["change"]["median"], 2),
                     "parent": outs["parent"], "change": outs["change"]})
    return {
        "what": "in-process medians of one stream_to_csv (write rows) or stream_from_csv "
                "(read rows) call on the composite-count round-trip rectangles, and of "
                f"one riesz --two-term --gamma {EMIT_GAMMA} --output csv CLI call (emit "
                "rows: the scan and its CSV text) on the riesz-scan float boxes, "
                f"parent -> change; {rounds} fresh interpreters per side, alternating, "
                f"{repeat} timed calls each after one warm-up call",
        "malloc_env": MALLOC_ENV,
        "command": f"python tools/bench_io.py --parent PARENT/src "
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
