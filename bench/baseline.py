"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads sphere-exact,...] \
        [--traced-seed 1] [--out bench/baseline.json]

For every workload it runs ``run.py`` once per seed, one process at a
time, and reports each end-to-end metric's median, quartiles and spread
(interquartile distance over the median, as ``statistics.quantiles(n=4)``
gives the quartiles) against the bound in ``BENCHMARK.json``.  With
``--traced-seed`` it adds one traced run per workload.  ``--out`` writes the
summary with the machine's core count and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def machine() -> dict:
    import mpmath
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "platform": platform.platform()}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, 0) for s in seed_list(args.seeds)]
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{workload}: jobs per run {entry['attempted']}, failed {entry['failed']}")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {**stats, "unit": results[0]["metrics"][name]["unit"]}
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:14s} median {stats['median']:12.6g}  spread {stats['spread']:6.3f}"
                  f"  bound {bound}{flag}")
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_units"] = {k: v["unit"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
