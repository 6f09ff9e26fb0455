"""polyaspec benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload sphere-exact --seed 1 --seconds 30 --trace 0

The client sends the next job only after the previous verdict is back.
Jobs come in seeded rounds from ``jobs.py``; no round starts after
``--seconds`` have passed.  Each job is checked against ``reference.json``
right after it returns, outside the timed region.

``--trace 0`` prints the end-to-end metrics: set-up time (fresh interpreter
to ``import polyaspec.cli`` done, median of processes spawned before and
after the job loop), per-job time (median and a fixed tail percentile),
comparisons decided per second of job time, and peak resident memory.
Job times are wall times scaled to the nominal speed of the workload's
calibration kernel (``calibrate.py``); the unscaled figures are printed too.

``--trace 1`` runs the jobs with every public polyaspec function wrapped
(``tracer.py``) for half the time, replays the same jobs untraced, and
prints per-job layer metrics plus the traced/untraced median ratio.

The last stdout line is the JSON result; the exit status is 1 when any
job failed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
#: fresh-interpreter imports timed before and again after the job loop, so
#: the median spans the whole run rather than one slow spell of the host
SETUP_SAMPLES = 4
_SETUP_CHILD = "import polyaspec.cli, time; print(repr(time.monotonic()))"


def load_program():
    """Import the package from this checkout's ``src`` or exit."""
    try:
        import jobs
    except ImportError as exc:
        sys.exit(f"cannot import polyaspec from {HERE.parent / 'src'}: {exc}")
    where = Path(jobs.polyaspec.__file__).resolve()
    if jobs.SRC.resolve() not in where.parents:
        sys.exit(f"polyaspec was imported from {where}, not from {jobs.SRC}")
    return jobs


def setup_samples(src: Path, samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall times from spawning a fresh interpreter until its
    ``import polyaspec.cli`` completes."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    times = []
    for _ in range(samples):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.strip()) - t0)
    return times


class Record:
    __slots__ = ("job", "wall", "kernel", "seconds", "checked", "problems")

    def __init__(self, job, wall, kernel, nominal, checked, problems):
        self.job = job
        self.wall = wall          # measured wall time
        self.kernel = kernel      # mean calibration kernel time just before and after
        self.seconds = wall * nominal / kernel   # wall time at the kernel's nominal speed
        self.checked = checked
        self.problems = problems


def _until(rounds, done):
    for round_ in rounds:
        if done():
            return
        yield from round_


def run_jobs(jobs, rounds, seconds: float, reference: dict, tol: dict,
             calibration: dict, tracer=None):
    """Closed loop: run jobs one after another and start no new round once
    ``seconds`` have passed.  The calibration kernel runs before the first
    job and after every job."""
    records = []
    kernel, nominal = calibration["kernel"], calibration["nominal_ms"] / 1000.0
    before = calibrate.kernel_seconds(kernel)
    start = time.perf_counter()
    for job in _until(rounds, lambda: bool(records) and time.perf_counter() - start >= seconds):
        t0 = time.perf_counter()
        root = None
        try:
            if tracer:
                raw, root = tracer.job(job.call)
            else:
                raw = job.call()
            error = None
        except Exception:  # a job that raises is a failed job, not a dead run
            raw, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if error is None:
            try:
                out = job.outcome(raw)
                problems, checked = jobs.gate(job, out, reference, tol), out.checked
            except Exception:
                problems, checked = [traceback.format_exc()], 0
        else:
            problems, checked = [error], 0
        for p in problems:
            print(f"FAILED {job.ref}: {p}", file=sys.stderr)
        after = calibrate.kernel_seconds(kernel)
        records.append(Record(job, dt, (before + after) / 2.0, nominal, checked, problems))
        if root is not None:
            root.scale = nominal / records[-1].kernel
        before = after
    return records


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(records, setup_s: float, tail_pct: float) -> tuple[dict, list[str]]:
    times = [r.seconds for r in records]
    walls = [r.wall for r in records]
    tail = percentile(times, tail_pct)
    beyond = sum(t > tail for t in times)
    busy = sum(times)
    failed = sum(bool(r.problems) for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (percentile(times, 50), "s"),
        "job_s.tail": (tail, "s"),
        "checked_per_s": (sum(r.checked for r in records) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"jobs={len(records)} busy_s={busy:.3f} failed_frac={failed / len(records):.4f}",
             f"job_s.tail is p{tail_pct:g} with {beyond} of {len(records)} samples beyond it",
             f"unscaled wall time: p50 {percentile(walls, 50):.6g} s, p{tail_pct:g} "
             f"{percentile(walls, tail_pct):.6g} s, checked/s {sum(r.checked for r in records) / sum(walls):.6g}; "
             f"calibration kernel median {statistics.median(r.kernel for r in records) * 1000:.3f} ms"]
    if beyond < 10:
        notes.append(f"WARNING: fewer than 10 samples beyond p{tail_pct:g}")
    return metrics, notes


def traced(jobs, rounds, seconds: float, reference: dict, tol: dict, calibration: dict):
    import tracer as tr

    t = tr.Tracer()
    t.install(jobs.polyaspec)
    try:
        records = run_jobs(jobs, rounds, seconds / 2.0, reference, tol, calibration, tracer=t)
    finally:
        t.uninstall()
    replay = run_jobs(jobs, [[r.job for r in records]], float("inf"), reference, tol, calibration)
    metrics, shares = tr.layer_metrics(t.spans, len(records))
    p50 = percentile([r.seconds for r in records], 50)
    metrics["trace_overhead"] = (p50 / percentile([r.seconds for r in replay], 50), "ratio")
    busy = sum(r.seconds for r in records)
    total = sum(shares.values())
    # pool threads overlap, so self times can add up to more than busy time
    notes = [f"traced jobs={len(records)} busy_s={busy:.3f} self_s={total:.3f}; "
             "share of self time:"]
    notes += [f"  {k:16s} {v / total:7.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])]
    return records + replay, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    jobs = load_program()
    design = json.loads((HERE / "design.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    if args.workload not in jobs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(jobs.WORKLOADS)}")
    tol = design["tolerance"]
    rounds = jobs.round_stream(args.workload, args.seed)

    # warm the interpreter's lazy paths outside the timed loop
    jobs.run_cli(["spectrum", "--spec", '{"sphere2": {}}', "--cutoff", "50"])
    plan = design["workloads"][args.workload]
    if args.trace:
        records, metrics, notes = traced(jobs, rounds, args.seconds, reference, tol,
                                         plan["calibration"])
    else:
        setup_samples(jobs.SRC, 1)  # writes the bytecode caches; not measured
        before = setup_samples(jobs.SRC)
        records = run_jobs(jobs, rounds, args.seconds, reference, tol, plan["calibration"])
        setup_s = statistics.median(before + setup_samples(jobs.SRC))
        metrics, notes = end_to_end(records, setup_s, plan["tail_pct"])
    failed = sum(bool(r.problems) for r in records)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:22s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
