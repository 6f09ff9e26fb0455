"""Every benchmark job still produces its recorded outcome.

Runs each job of ``bench/jobs.catalog`` for every workload, together with
the Riesz scans as CSV and the stream round trips through JSON, and passes
its outcome through ``jobs.gate``: the fields recorded in
``bench/reference.json``, compared within the tolerance of
``bench/design.json``, and the reference-free invariants.  It reads
``bench/`` and writes nothing there.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
jobs = sys.modules["bench_jobs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobs)

REFERENCE = json.loads((BENCH / "reference.json").read_text())
TOL = json.loads((BENCH / "design.json").read_text())["tolerance"]


def _all_jobs():
    """The catalog of every workload, each Riesz scan also as CSV and each
    round trip also through JSON: the formats the job streams draw."""
    out = []
    for workload in sorted(jobs.WORKLOADS):
        for job in jobs.catalog(workload):
            out.append(job)
            if job.kind == "riesz":
                out.append(jobs.riesz_job(job.params["shape"], job.params["gamma"], "csv"))
            elif job.kind == "roundtrip":
                out.append(dataclasses.replace(job, params={**job.params, "format": "json"}))
    return out


_JOBS = _all_jobs()


def _job_id(job) -> str:
    fmt = job.params.get("output", job.params.get("format"))
    return f"{job.ref} {fmt}" if fmt else job.ref


def test_the_catalog_covers_every_reference():
    assert {job.ref for job in _JOBS} == set(REFERENCE)


@pytest.mark.parametrize("job", _JOBS, ids=[_job_id(job) for job in _JOBS])
def test_job_passes_the_gate(job):
    assert jobs.gate(job, job.outcome(job.call()), REFERENCE, TOL) == []
