"""In-process timings of the per-eigenvalue Polya sweeps on exact streams,
and of building those streams.

    PYTHONPATH=src python tools/bench_exact_sweep.py --row interval-1-dirichlet-1e5-exact

times one row on the ``polyaspec`` found on the path and prints its median,
quartiles and every sample in ms as JSON.  A row is one spec at one
``k_max`` and one sweep: ``exact`` is ``verify_exact_power``, ``plain``
is ``verify_dirichlet`` / ``verify_neumann``, ``build`` is
``stream_covering_k(build_spec(spec), k_max)``, the generator layer, and
``cli`` is one whole ``polyaspec verify --exact`` job through ``cli.main``
in process, its JSON written to the null device.  The
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
bench workload verifies have build rows only.
A build row also records the tracemalloc peak of one more build, in MB
(``peak_mb``), which holds the scratch memory of ``product_spectrum``.

    python tools/bench_exact_sweep.py --parent OTHER/src > BENCH_exact_sweep.json

times every row in fresh interpreters, alternately on OTHER/src (the
parent) and on this checkout's src (the change), and prints both sides with
the host, Python and numpy versions.  Those interpreters run with the fixed
glibc malloc thresholds of ``MALLOC_ENV``, so that a sweep row does not move
with the allocator state its build left behind; a ``--row`` run started by
hand inherits the caller's environment.
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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
)

#: name -> (spec, k_max, side, sweep)
ROWS = {
    f"{label}-{side}-{k_label}-{sweep}": (spec(side), k_max, side, sweep)
    for label, spec, sizes, sides, sweeps in _SHAPES
    for k_max, k_label in sizes
    for side in sides
    for sweep in sweeps
}

#: glibc malloc settings of every timed interpreter under --parent: with the
#: dynamic mmap threshold, whether a sweep's k-long temporaries come from
#: fresh mmapped pages depends on what the build before it freed, which
#: moved sweep rows by 2x between trees with the same sweep code
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}


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
    elif sweep == "exact":
        def run():
            return verify_exact_power(s, meta, k_max, side)
    else:
        plain = verify_dirichlet if side == "dirichlet" else verify_neumann

        def run():
            return plain(s, meta, k_max)
    run()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    peak = {}
    if sweep == "build":
        tracemalloc.start()
        run()
        peak = {"peak_mb": round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 3)}
        tracemalloc.stop()
    return {"times_ms": times, **peak, **sweep_shape(s, meta, k_max, side)}


def summary(times: list[float]) -> dict:
    # quantiles needs two samples; one sample is its own quartiles
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else times * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "n": len(times)}


def command(name: str, repeat: int) -> str:
    return f"PYTHONPATH=src python tools/bench_exact_sweep.py --row {name} --repeat {repeat}"


def time_sides(script: str, name: str, parent_src: Path, rounds: int,
               repeat: int) -> tuple[dict, dict]:
    """Time row ``name`` of ``script`` (a tool with this one's ``--row`` and
    ``--repeat``) in fresh interpreters with ``MALLOC_ENV``, alternately on
    ``parent_src`` (the parent) and this checkout's src (the change).

    Returns each side's ``summary`` and its last row output less the times.
    """
    sides = {"parent": parent_src.resolve(), "change": (ROOT / "src").resolve()}
    times = {"parent": [], "change": []}
    outs = {}
    for r in range(rounds):
        for label in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            env = {**os.environ, **MALLOC_ENV, "PYTHONPATH": str(sides[label])}
            proc = subprocess.run(
                [sys.executable, script, "--row", name, "--repeat", str(repeat)],
                env=env, capture_output=True, text=True, check=True)
            outs[label] = json.loads(proc.stdout)
            times[label] += outs[label].pop("times_ms")
    return {label: summary(t) for label, t in times.items()}, outs


def host() -> dict:
    """The machine and library versions a comparison ran on."""
    return {
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
    }


def compare(parent_src: Path, rounds: int, repeat: int) -> dict:
    rows = []
    for name, (spec, k_max, side, sweep) in ROWS.items():
        ms, outs = time_sides(__file__, name, parent_src, rounds, repeat)
        shape = {k: outs["change"][k] for k in ("runs", "shift", "int64", "below_2_53")}
        peak = ({"peak_mb": {label: outs[label]["peak_mb"] for label in ("parent", "change")}}
                if sweep == "build" else {})
        rows.append({"row": name, "spec": spec, "k_max": k_max, "side": side,
                     "sweep": sweep, **shape,
                     "command": command(name, repeat),
                     "parent_ms": ms["parent"], "change_ms": ms["change"],
                     "speedup": round(ms["parent"]["median"] / ms["change"]["median"], 2),
                     **peak})
    return {
        "what": "in-process medians of one per-eigenvalue sweep or one stream build, "
                "with the tracemalloc peak of one build (peak_mb), parent -> change; "
                f"{rounds} fresh interpreters per side, alternating, {repeat} timed "
                "calls each after one warm-up call",
        "malloc_env": MALLOC_ENV,
        "command": f"python tools/bench_exact_sweep.py --parent PARENT/src "
                   f"--rounds {rounds} --repeat {repeat}",
        **host(),
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
