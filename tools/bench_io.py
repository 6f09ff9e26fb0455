"""In-process timings of the CSV writer and reader, ``stream_to_csv`` and
``stream_from_csv``, and of the CSV text of ``riesz --two-term``.

    PYTHONPATH=src python tools/bench_io.py --row read-6.37x4.21

times one row, and ``--parent`` compares two trees, as ``layer_bench``
describes.  The write and read rows are the 8 Neumann rectangles of the
round trips of the ``composite-count`` benchmark (``bench/jobs.py``), each
built as those jobs build it, up to 1.0001 times its cutoff: a ``write``
row writes the stream to a ``StringIO``, a ``read`` row reads that text
back.  An ``emit`` row is one in-process ``riesz --two-term --gamma G
--output csv`` call, captured from stdout, on one of the four float boxes
of the ``riesz-scan`` benchmark: the scan and the CSV text of its (lambda,
riesz, bound, margin) rows.  The ``emit-<box>`` rows take G = 1.5, where
the scan is about half the call, and the ``emit-<box>-g1`` rows G = 1,
where the CSV text is most of it.  A write or emit row records the length
and SHA-256 of the text, a read row whether the stream read back has the
same values, bit for bit, and the same multiplicities.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import layer_bench
from layer_bench import COMPOSITES, RIESZ_SHAPES

#: the gammas of the emit rows
EMIT_GAMMAS = ("1.5", "1")

#: name -> (write, read or emit; sides; cutoff; bc; gamma of an emit row)
ROWS = {f"{op}-{'x'.join(map(str, sides))}": (op, sides, cutoff, "neumann", None)
        for op in ("write", "read") for sides, cutoff in COMPOSITES}
ROWS.update({f"emit-{shape}" + ("" if gamma == "1.5" else f"-g{gamma}"):
             ("emit", sides, cutoff, bc, gamma)
             for gamma in EMIT_GAMMAS for shape, (sides, bc, cutoff) in RIESZ_SHAPES.items()})


def _emit_run(sides, cutoff: float, bc: str, gamma: str):
    """One ``riesz --two-term --output csv`` call, returning its stdout."""
    from polyaspec import cli

    argv = ["riesz", "--spec", json.dumps({"box": {"sides": list(sides), "bc": bc}}),
            "--gamma", gamma, "--two-term", "--cutoff", repr(cutoff),
            "--output", "csv", "--no-timestamp"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(argv)
        return out.getvalue()
    return run


def time_row(name: str, repeat: int) -> dict:
    from polyaspec import box_spectrum, stream_from_csv, stream_to_csv

    op, sides, cutoff, bc, gamma = ROWS[name]
    if op == "emit":
        run = _emit_run(sides, cutoff, bc, gamma)
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
    back, times = layer_bench.timed(run, repeat)
    if op == "emit":
        text = back
    if op == "read":
        return {"times_ms": times, "values": int(s.values.size),
                "same": back.values.tobytes() == s.values.tobytes()
                and back.multiplicities.tolist() == s.multiplicities.tolist()}
    lines = {"lines": text.count("\n")} if op == "emit" else {"values": int(s.values.size)}
    return {"times_ms": times, **lines,
            "chars": len(text), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    for name, (op, sides, cutoff, bc, gamma) in ROWS.items():
        timing, outs = layer_bench.time_sides(__file__, name, parent_src, rounds, repeat)
        emit = {"gamma": float(gamma)} if op == "emit" else {}
        rows.append({"row": name, "op": op, "sides": list(sides), "bc": bc, "cutoff": cutoff,
                     **emit, **timing, "parent": outs["parent"], "change": outs["change"]})
    what = ("in-process medians of one stream_to_csv (write rows) or stream_from_csv "
            "(read rows) call on the composite-count round-trip rectangles, and of "
            "one riesz --two-term --gamma G --output csv CLI call (emit rows: the scan "
            "and its CSV text) on the riesz-scan float boxes at G = 1.5 and 1, "
            f"parent -> change; {rounds} fresh interpreters per side, alternating, "
            f"{repeat} timed calls each after one warm-up call")
    groups = {op: [row for row in rows if row["op"] == op] for op in ("write", "read")}
    groups.update({f"emit-g{gamma}": [row for row in rows if row.get("gamma") == float(gamma)]
                   for gamma in EMIT_GAMMAS})
    return {**layer_bench.header(what, __file__, rounds, repeat),
            **layer_bench.totals(groups), "rows": rows}


if __name__ == "__main__":
    layer_bench.main(__doc__, ROWS, time_row, compare)
