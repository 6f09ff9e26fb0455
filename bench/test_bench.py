"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402
import tracer as tr  # noqa: E402

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
TOL = json.loads((Path(__file__).resolve().parent / "design.json").read_text())["tolerance"]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_job_stream_is_determined_by_the_seed(workload):
    def first(seed):
        return [job for round_ in itertools.islice(jobs.round_stream(workload, seed), 8)
                for job in round_]

    assert first(7) == first(7)
    assert first(7) != first(8)
    kinds = [sorted(j.kind for j in r) for r in itertools.islice(jobs.round_stream(workload, 7), 2)]
    assert kinds[0] == kinds[1]
    refs = {j.ref for j in jobs.catalog(workload)}
    assert {j.ref for j in first(7)} <= refs <= set(REFERENCE)


def _span(name, key, parent, t0, t1):
    s = tr.Span(name, key, parent, t0, t1)
    if parent is not None:
        parent.children.append(s)
    return s


def test_self_time_subtracts_the_union_of_overlapping_pool_spans():
    root = _span("job", "bench", None, 0.0, 12.0)
    bundle = _span("square_triangle_bundle", "reproduce", root, 1.0, 11.0)
    gen = _span("box_spectrum", "spectra.gen", bundle, 1.5, 2.0)
    # two pool threads: scans overlap each other, [3, 8] and [4, 10]
    scan_a = _span("verify_counting_bound", "polya.bound", bundle, 3.0, 8.0)
    scan_b = _span("verify_counting_bound", "polya.bound", bundle, 4.0, 10.0)
    scan_a.point_time = 2.0   # folded count_right calls on thread A
    scan_b.point_time = 1.5
    times = tr.self_times([root, bundle, gen, scan_a, scan_b])
    assert times["bench"] == pytest.approx(12.0 - 10.0)
    # 10 s span minus 0.5 s generation minus the 7 s union [3, 10]
    assert times["reproduce"] == pytest.approx(10.0 - 0.5 - 7.0)
    assert times["spectra.gen"] == pytest.approx(0.5)
    assert times["polya.bound"] == pytest.approx((5.0 - 2.0) + (6.0 - 1.5))
    assert times["counting"] == pytest.approx(3.5)
    # a job root's speed scale applies to every span below it
    root.scale = 2.0
    scaled = tr.self_times([root, bundle, gen, scan_a, scan_b])
    assert scaled == pytest.approx({k: 2.0 * v for k, v in times.items()})


def test_union_length_clips_to_the_parent_interval():
    assert tr.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 1.0, 6.0) == pytest.approx(3.0)
    assert tr.union_length([], 0.0, 1.0) == 0.0


def test_tracer_counts_nested_point_calls_once_and_restores_names():
    polyaspec = jobs.polyaspec
    original = polyaspec.reproduce.threshold_a0
    t = tr.Tracer()
    t.install(polyaspec)
    try:
        assert polyaspec.reproduce.threshold_a0 is not original
        stream = polyaspec.spectra.box_spectrum([2, 3], "neumann", 200.0)
        meta = polyaspec.spectra.box_meta([2, 3], "neumann")
        cf = polyaspec.counting.CountingFunction.from_stream(stream, meta)
        total = polyaspec.counting.SumCountingFunction([cf, cf])
        _, span = t.job(lambda: [total.count_right(v) for v in stream.values[:10]])
    finally:
        t.uninstall()
    assert polyaspec.reproduce.threshold_a0 is original
    # SumCountingFunction -> CountingFunction -> EigenvalueStream: one point each
    assert span.counts["counting.point_calls"] == 10
    assert span.point_time > 0


def _verify_outcome():
    job = jobs.verify_job("pi/24", "dirichlet", False)
    return job, job.outcome(job.call())


def test_gate_accepts_the_recorded_outcome():
    job, out = _verify_outcome()
    assert jobs.gate(job, out, REFERENCE, TOL) == []


@pytest.mark.parametrize("field,value", [("verdict", "fails"), ("checked", 99_999),
                                         ("worst_location", 2.0), ("status", 1)])
def test_gate_flags_a_tampered_field(field, value):
    job, out = _verify_outcome()
    out.fields[field] = value
    problems = jobs.gate(job, out, REFERENCE, TOL)
    assert len(problems) == 1 and problems[0].startswith(field)


def test_gate_tolerates_float_noise_but_not_a_wrong_margin():
    job, out = _verify_outcome()
    want = out.fields["worst_margin"]
    out.fields["worst_margin"] = want * (1 + 1e-12)
    assert jobs.gate(job, out, REFERENCE, TOL) == []
    out.fields["worst_margin"] = want * 1.01
    assert jobs.gate(job, out, REFERENCE, TOL)


def test_gate_ignores_the_failure_list_layout():
    job = jobs.verify_job("pi", "dirichlet", True)
    out = job.outcome(job.call())
    out.fields["failures"] = [[1, 3, 1.0]]
    assert jobs.gate(job, out, REFERENCE, TOL) == []
