"""The A/B runner of the layer benchmarks, the ``tools/bench_*.py`` scripts.

Each script names its rows, builds what a row needs, and says what the row
records.  This module runs them:

    PYTHONPATH=src python tools/bench_io.py --row read-6.37x4.21

times one row on the ``polyaspec`` found on the path: one warm-up call,
then ``--repeat`` timed calls (15 by default), and prints the median,
quartiles and every sample in ms as JSON, with the row's own fields.  It
inherits the caller's environment.

    python tools/bench_io.py --parent OTHER/src > BENCH_io.json

times every row in ``--rounds`` fresh interpreters per side (4 by default),
alternately on OTHER/src (the parent) and on this checkout's src (the
change), each with the glibc malloc settings of ``MALLOC_ENV``, and prints
per row both sides' quartiles and the ratio of their medians
(``speedup``), under a header with the host, Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]

#: glibc malloc settings of every timed interpreter under --parent: with the
#: dynamic mmap threshold, whether a sweep's k-long temporaries come from
#: fresh mmapped pages depends on what the build before it freed, which
#: moved sweep rows by 2x between trees with the same sweep code
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}

#: the Neumann rectangles of the composite-count benchmark's composite jobs
#: and round trips (``bench/jobs.py``): sides, cutoff
COMPOSITES = (
    (("7/2", "9/2"), 6000.0), ((6, 8), 4000.0), (("15/2", "11/2"), 3000.0),
    ((5, "13/2"), 5000.0), ((5.3, 7.1), 4000.0), ((6.37, 4.21), 6000.0),
    ((8.9, 3.7), 5000.0), ((4.45, 6.83), 3000.0),
)

#: the float boxes of the riesz-scan benchmark (``bench/jobs.py``): sides,
#: bc, cutoff
RIESZ_SHAPES = {
    "rect-d": ((7.3, 5.1), "dirichlet", 2400.0),
    "rect-n": ((6.1, 8.7), "neumann", 1700.0),
    "box-d": ((3.7, 2.9, 2.3), "dirichlet", 560.0),
    "box-n": ((4.1, 3.3, 2.6), "neumann", 420.0),
}

_SIDES = ("parent", "change")


def summary(times: list[float]) -> dict:
    # quantiles needs two samples; one sample is its own quartiles
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else times * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(times)}


def timed(run: Callable, repeat: int) -> tuple[object, list[float]]:
    """The result of one warm-up call of ``run``, and the times in ms of
    ``repeat`` more calls."""
    result = run()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    return result, times


def time_sides(script: str, name: str, parent_src: Path, rounds: int,
               repeat: int) -> tuple[dict, dict]:
    """Time row ``name`` of ``script`` in ``rounds`` fresh interpreters per
    side with ``MALLOC_ENV``, alternately on ``parent_src`` (the parent) and
    this checkout's src (the change).

    Returns the row record: the command that times the row by hand, each
    side's ``summary`` and the ratio of their medians; and each side's last
    row output less the times.
    """
    paths = {"parent": parent_src.resolve(), "change": (ROOT / "src").resolve()}
    times = {label: [] for label in _SIDES}
    outs = {}
    for r in range(rounds):
        for label in (_SIDES if r % 2 == 0 else _SIDES[::-1]):
            env = {**os.environ, **MALLOC_ENV, "PYTHONPATH": str(paths[label])}
            proc = subprocess.run(
                [sys.executable, script, "--row", name, "--repeat", str(repeat)],
                env=env, capture_output=True, text=True, check=True)
            outs[label] = json.loads(proc.stdout)
            times[label] += outs[label].pop("times_ms")
    ms = {label: summary(t) for label, t in times.items()}
    return {"command": f"PYTHONPATH=src python tools/{Path(script).name} --row {name} "
                       f"--repeat {repeat}",
            "parent_ms": ms["parent"], "change_ms": ms["change"],
            "speedup": round(ms["parent"]["median"] / ms["change"]["median"], 2)}, outs


def total(rows: list[dict]) -> tuple[dict, float]:
    """The rows' medians summed per side, and the ratio of the sums."""
    ms = {label: sum(row[f"{label}_ms"]["median"] for row in rows) for label in _SIDES}
    return {label: round(t, 3) for label, t in ms.items()}, round(ms["parent"] / ms["change"], 2)


def totals(rows: list[dict], ops: tuple[str, ...]) -> dict:
    """The ``total`` of the rows of each op, as ``total_ms`` and
    ``total_speedup``."""
    sums = {op: total([row for row in rows if row["op"] == op]) for op in ops}
    return {"total_ms": {op: ms for op, (ms, _) in sums.items()},
            "total_speedup": {op: speedup for op, (_, speedup) in sums.items()}}


def header(what: str, script: str, rounds: int, repeat: int) -> dict:
    """What a comparison measured, how to run it again, and the machine and
    library versions it ran on."""
    return {
        "what": what,
        "malloc_env": MALLOC_ENV,
        "command": f"python tools/{Path(script).name} --parent PARENT/src "
                   f"--rounds {rounds} --repeat {repeat}",
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
    }


def main(doc: str, rows: dict, time_row: Callable[[str, int], dict],
         compare: Callable[[Path, int, int], dict]) -> None:
    """The command line of a layer benchmark: ``--row`` runs ``time_row``,
    which returns the row's fields with its ``times_ms``, and ``--parent``
    runs ``compare``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--row", choices=sorted(rows))
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
