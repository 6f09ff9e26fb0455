"""Record the reference outcome of every catalog job into reference.json.

    python3 bench/record.py [--out bench/reference.json]

Run this only on the commit whose outputs define correctness.  Riesz scans
are recorded from JSON output and cross-checked against CSV output; round
trips from CSV and cross-checked against JSON and the unsaved stream.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent


def record(workload: str, tol: dict) -> dict:
    refs = {}
    for job in jobs.catalog(workload):
        out = job.outcome(job.call())
        twins = []
        if job.kind == "riesz":
            twins.append(jobs.riesz_job(job.params["shape"], job.params["gamma"], "csv"))
        elif job.kind == "roundtrip":
            twins.append(dataclasses.replace(job, params={**job.params, "format": "json"}))
        for twin in twins:
            diff = jobs.compare(twin.outcome(twin.call()).fields, out.fields, tol)
            if diff:
                sys.exit(f"{job.ref}: outputs disagree across formats: {diff}")
        problems = jobs.invariants(job, out)
        if problems:
            sys.exit(f"{job.ref}: {problems}")
        refs[job.ref] = out.fields
        print(f"{workload:16s} {job.ref}", file=sys.stderr)
    for ref, fields in refs.items():
        if ref.startswith("roundtrip"):
            unsaved = refs[ref.replace("roundtrip", "composite", 1)]["rectangle"]
            if jobs.compare(fields["estimate"], unsaved, tol):
                sys.exit(f"{ref}: the reloaded stream scans differently from the unsaved one")
    return refs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "reference.json"))
    args = parser.parse_args()
    tol = json.loads((HERE / "design.json").read_text())["tolerance"]
    refs = {}
    for workload in jobs.WORKLOADS:
        refs.update(record(workload, tol))
    Path(args.out).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
