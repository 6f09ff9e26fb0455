"""Seeded job lists, job execution and the correctness gate.

A job is one request a desk user makes and waits for: a CLI call through
``polyaspec.cli.main(argv)`` or a short script of public library calls.
``call`` is the timed part; ``outcome`` turns its result into the fields
the gate compares with the reference recorded in ``reference.json``.

Every parameter comes from a finite catalog, so each job has a recorded
reference.  The seed picks the order in which each catalog is cycled and
the order of jobs within a round; a round always holds the same job kinds,
and a run measures whole rounds, so every seed gives the same mix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import polyaspec  # noqa: E402
from polyaspec import cli, constants, counting, polya, reproduce, riesz, spectra  # noqa: E402

__all__ = ["Job", "Outcome", "WORKLOADS", "round_stream", "catalog", "gate", "run_cli"]

K_MAX = 100_000
SPHERE_Q = (6, 8, 10, 12, 16, 20, 24, 32, 40, 48)
#: rectangle sides and cutoff of the composite domain's rectangle part
COMPOSITES = (
    (("7/2", "9/2"), 6000.0), ((6, 8), 4000.0), (("15/2", "11/2"), 3000.0),
    ((5, "13/2"), 5000.0), ((5.3, 7.1), 4000.0), ((6.37, 4.21), 6000.0),
    ((8.9, 3.7), 5000.0), ((4.45, 6.83), 3000.0),
)
#: float-sided shapes for the Riesz scans: sides, bc, cutoff (5-8k values)
RIESZ_SHAPES = {
    "rect-d": ((7.3, 5.1), "dirichlet", 2400.0),
    "rect-n": ((6.1, 8.7), "neumann", 1700.0),
    "box-d": ((3.7, 2.9, 2.3), "dirichlet", 560.0),
    "box-n": ((4.1, 3.3, 2.6), "neumann", 420.0),
}
GAMMAS = ("1", "1.5", "2")
WINDOWS = ((0.2, 0.6), (0.3, 0.9), (0.5, 1.0))  # fractions of the shape cutoff
WINDOW_GRID = 4096
WINDOW_FNS = {
    "window_infimum_dirichlet": ("rect-d", "box-d"),
    "window_infimum_neumann": ("rect-n", "box-n"),
    "window_supremum_neumann": ("rect-n", "box-n"),
}
#: output keys the gate never compares: the failure list's layout, the
#: tie-break and mode diagnostics, the --exact echo and the timestamp
SKIP_KEYS = {"failures", "tie_breaks", "mode", "exact", "generated_at"}
EXACT_FLOAT_KEYS = {"worst_location"}


@dataclass(frozen=True)
class Job:
    kind: str
    ref: str                      # reference key; equal refs give equal outcomes
    params: dict = field(hash=False)

    def call(self):
        return KINDS[self.kind][0](self.params)

    def outcome(self, raw) -> "Outcome":
        return KINDS[self.kind][1](self.params, raw)


@dataclass
class Outcome:
    fields: dict                  # compared with the reference
    checked: int                  # comparisons decided by the job
    extra: dict = field(default_factory=dict)   # inputs to invariants only


# ---------------------------------------------------------------------------
# job kinds: (timed call, outcome)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main([*argv, "--no-timestamp"])
        except SystemExit as exc:  # argparse rejects bad argv this way
            status = exc.code
    return status, out.getvalue()


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in SKIP_KEYS}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _json_outcome(checked_of: Callable[[dict], int]):
    def outcome(params, raw):
        status, text = raw
        data = json.loads(text) if text else {}
        return Outcome({"status": status, **_strip(data)}, checked_of(data) if data else 0, data)
    return outcome


def _bundle_checked(*names):
    return lambda d: sum(d[n]["checked"] for n in names)


def _riesz_outcome(params, raw):
    status, text = raw
    if params["output"] == "json":
        d = json.loads(text)
        fields = {k: d[k] for k in ("lambda_star", "worst_margin", "worst_lambda",
                                    "points_scanned")}
    else:
        rows = np.array([[float(x) for x in row] for row in csv.reader(io.StringIO(text))
                         if row and row[0] != "lambda"])
        lams, margin = rows[:, 0], rows[:, 3]
        neg = np.nonzero(margin < 0)[0]
        if neg.size == 0:
            star = float(lams[0])
        elif neg[-1] == lams.size - 1:
            star = None
        else:
            star = float(lams[neg[-1] + 1])
        worst = int(np.argmin(margin))
        fields = {"lambda_star": star, "worst_margin": float(margin[worst]),
                  "worst_lambda": float(lams[worst]), "points_scanned": int(lams.size)}
    return Outcome({"status": status, **fields}, fields["points_scanned"])


def _composite_call(p):
    sides, cutoff = p["sides"], p["cutoff"]
    parts = [(spectra.box_spectrum(sides, "neumann", cutoff * 1.0001),
              spectra.box_meta(sides, "neumann")),
             (spectra.triangle_neumann_spectrum(cutoff * 1.0001), spectra.triangle_meta())]
    cfs = [counting.CountingFunction.from_stream(s, m) for s, m in parts]
    ests = [counting.estimate_seeley_constant(cf, m, cutoff, "upper")
            for cf, (_, m) in zip(cfs, parts)]
    # two-term bound of the union from the parts' own constants; it holds
    # above every part's first positive eigenvalue by construction
    lead = constants.c_d(2) * sum(m.volume for _, m in parts)
    c = sum(e.value for e in ests)
    total = counting.SumCountingFunction(cfs)
    report = polya.verify_counting_bound(
        total, lambda lam: lead * lam + c * math.sqrt(lam), "upper",
        lambda_min=max(float(s.values[1]) for s, _ in parts), lambda_max=cutoff,
        jumps=total.jump_values())
    return ests, report


def _estimate_fields(e) -> dict:
    return {"value": e.value, "achieved_at": e.achieved_at, "scanned": e.scanned,
            "top": [list(t) for t in e.top]}


def _composite_outcome(p, raw):
    ests, report = raw
    fields = {"rectangle": _estimate_fields(ests[0]), "triangle": _estimate_fields(ests[1]),
              "scan": _strip(report.to_dict())}
    return Outcome(fields, ests[0].scanned + ests[1].scanned + report.checked)


def _roundtrip_call(p):
    sides, cutoff = p["sides"], p["cutoff"]
    stream = spectra.box_spectrum(sides, "neumann", cutoff * 1.0001)
    meta = spectra.box_meta(sides, "neumann")
    if p["format"] == "csv":
        buf = io.StringIO()
        spectra.stream_to_csv(stream, buf)
        reloaded = spectra.stream_from_csv(io.StringIO(buf.getvalue()), stream.cutoff)
    else:
        text = json.dumps(spectra.stream_to_json_dict(stream))
        reloaded = spectra.stream_from_json_dict(json.loads(text))
    cf = counting.CountingFunction.from_stream(reloaded, meta)
    return stream, reloaded, counting.estimate_seeley_constant(cf, meta, cutoff, "upper")


def _roundtrip_outcome(p, raw):
    stream, reloaded, est = raw
    return Outcome({"estimate": _estimate_fields(est)}, est.scanned,
                   {"original": stream, "reloaded": reloaded})


def _window_call(p):
    sides, bc, cutoff = RIESZ_SHAPES[p["shape"]]
    stream = spectra.box_spectrum(list(sides), bc, cutoff)
    meta = spectra.box_meta(list(sides), bc)
    lo, hi = (f * cutoff for f in p["window"])
    return stream, meta, getattr(riesz, p["fn"])(stream, meta, p["d2"], (lo, hi))


def _window_outcome(p, raw):
    stream, meta, scan = raw
    lo, hi = scan.window
    jumps = stream.values[(stream.values >= lo) & (stream.values <= hi)]
    points = np.unique(np.concatenate([np.linspace(lo, hi, WINDOW_GRID), jumps])).size
    return Outcome({"value": scan.value, "mu": scan.mu}, int(points),
                   {"stream": stream, "meta": meta})


KINDS: dict[str, tuple[Callable, Callable]] = {
    "verify": (lambda p: run_cli(p["argv"]), _json_outcome(lambda d: d["checked"])),
    "sphere-thin": (lambda p: run_cli(p["argv"]), _json_outcome(_bundle_checked(
        "dirichlet_exact", "neumann_exact", "dirichlet_float", "neumann_float",
        "failure_dirichlet", "failure_neumann"))),
    "square-triangle": (lambda p: run_cli(p["argv"]), _json_outcome(_bundle_checked(
        "square_scan", "triangle_scan", "composite_scan"))),
    "riesz": (lambda p: run_cli(p["argv"]), _riesz_outcome),
    "composite": (_composite_call, _composite_outcome),
    "roundtrip": (_roundtrip_call, _roundtrip_outcome),
    "window": (_window_call, _window_outcome),
}


# ---------------------------------------------------------------------------
# job constructors and the catalog


def _sides_text(sides) -> str:
    return "x".join(str(s) for s in sides)


def verify_job(a: str, bc: str, exact: bool) -> Job:
    spec = json.dumps({"product": [{"interval": {"a": a, "bc": bc}}, {"sphere2": {}}]})
    argv = ["verify", "--spec", spec, "--k-max", str(K_MAX)] + (["--exact"] if exact else [])
    return Job("verify", f"verify a={a} bc={bc} exact={int(exact)}", {"argv": argv})


def bundle_job(example: str) -> Job:
    return Job(example, example, {"argv": ["reproduce", example]})


def riesz_job(shape: str, gamma: str, output: str) -> Job:
    sides, bc, cutoff = RIESZ_SHAPES[shape]
    spec = json.dumps({"box": {"sides": list(sides), "bc": bc}})
    argv = ["riesz", "--spec", spec, "--gamma", gamma, "--two-term",
            "--cutoff", repr(cutoff), "--output", output]
    return Job("riesz", f"riesz {shape} gamma={gamma}",
               {"argv": argv, "output": output, "shape": shape, "gamma": gamma})


def composite_job(sides, cutoff) -> Job:
    return Job("composite", f"composite {_sides_text(sides)} cutoff={cutoff:g}",
               {"sides": list(sides), "cutoff": cutoff})


def roundtrip_job(sides, cutoff, fmt: str) -> Job:
    return Job("roundtrip", f"roundtrip {_sides_text(sides)} cutoff={cutoff:g}",
               {"sides": list(sides), "cutoff": cutoff, "format": fmt})


def window_job(fn: str, shape: str, d2: int, window, probes=()) -> Job:
    ref = f"{fn} {shape} d2={d2} window={window[0]}-{window[1]}"
    return Job("window", ref, {"fn": fn, "shape": shape, "d2": d2, "window": window,
                               "probes": tuple(probes)})


def _thick_jobs():
    return [verify_job("pi", bc, ex) for bc in ("dirichlet", "neumann") for ex in (True, False)]


def catalog(workload: str) -> list[Job]:
    """One job per reference key of the workload."""
    if workload == "sphere-exact":
        return ([verify_job(f"pi/{q}", bc, ex) for q in SPHERE_Q
                 for bc in ("dirichlet", "neumann") for ex in (True, False)]
                + _thick_jobs() + [bundle_job("sphere-thin")])
    if workload == "composite-count":
        return ([bundle_job("square-triangle")]
                + [composite_job(s, c) for s, c in COMPOSITES]
                + [roundtrip_job(s, c, "csv") for s, c in COMPOSITES])
    if workload == "riesz-scan":
        return ([riesz_job(s, g, "json") for s in RIESZ_SHAPES for g in GAMMAS]
                + [window_job(fn, s, d2, w) for fn, shapes in WINDOW_FNS.items()
                   for s in shapes for d2 in (1, 2, 3) for w in WINDOWS])
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# seeded job streams


def _cycle(items, rng: random.Random) -> Iterator:
    """The items in a seeded order, reshuffled after each full pass."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _sphere_rounds(rng):
    qs = _cycle(SPHERE_Q, rng)
    thick = _cycle(_thick_jobs(), rng)
    while True:
        round_ = [next(thick), bundle_job("sphere-thin")]
        for q in (next(qs), next(qs)):
            a = f"pi/{q}"
            round_ += [verify_job(a, "dirichlet", True), verify_job(a, "neumann", True),
                       verify_job(a, rng.choice(("dirichlet", "neumann")), False)]
        yield round_


def _composite_rounds(rng):
    composites = _cycle(COMPOSITES, rng)
    roundtrips = _cycle(COMPOSITES, rng)
    while True:
        # a quarter of the jobs are the pool-bound bundle, so the tail
        # percentile falls inside that class
        round_ = [bundle_job("square-triangle"), bundle_job("square-triangle")]
        round_ += [composite_job(*next(composites)) for _ in range(4)]
        round_ += [roundtrip_job(*next(roundtrips), fmt) for fmt in ("csv", "json")]
        yield round_


def _riesz_rounds(rng):
    scans = _cycle([(s, g) for s in RIESZ_SHAPES for g in GAMMAS], rng)
    # cost follows shape and d2, so those are cycled; the window is drawn
    windows = {fn: _cycle([(s, d2) for s in shapes for d2 in (1, 2, 3)], rng)
               for fn, shapes in WINDOW_FNS.items()}
    while True:
        round_ = [riesz_job(*next(scans), rng.choice(("json", "csv"))) for _ in range(3)]
        for fn, it in windows.items():
            shape, d2 = next(it)
            w = rng.choice(WINDOWS)
            cutoff = RIESZ_SHAPES[shape][2]
            probes = sorted(cutoff * rng.uniform(*w) for _ in range(3))
            round_.append(window_job(fn, shape, d2, w, probes))
        yield round_


WORKLOADS = {
    "sphere-exact": _sphere_rounds,
    "composite-count": _composite_rounds,
    "riesz-scan": _riesz_rounds,
}


def round_stream(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless, seed-determined sequence of rounds; every round of a
    workload holds the same job kinds, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    for round_ in WORKLOADS[workload](rng):
        rng.shuffle(round_)
        yield round_


# ---------------------------------------------------------------------------
# correctness gate


def compare(have, want, tol: dict, path: str = "") -> list[str]:
    """Differences between an outcome and its reference: floats within
    ``tol`` (except EXACT_FLOAT_KEYS), everything else exactly.  Keys the
    reference lacks are not compared."""
    key = path.rsplit(".", 1)[-1]
    if isinstance(want, dict):
        if not isinstance(have, dict):
            return [f"{path}: expected an object, got {have!r}"]
        out = []
        for k, w in want.items():
            if k not in have:
                out.append(f"{path}.{k}: missing")
            else:
                out += compare(have[k], w, tol, f"{path}.{k}" if path else k)
        return out
    if isinstance(want, list):
        if not isinstance(have, list) or len(have) != len(want):
            return [f"{path}: expected {len(want)} items, got {have!r:.80}"]
        return [p for i, (h, w) in enumerate(zip(have, want))
                for p in compare(h, w, tol, f"{path}.{i}")]
    if (isinstance(want, float) and key not in EXACT_FLOAT_KEYS
            and isinstance(have, (int, float)) and not isinstance(have, bool)):
        ok = math.isclose(have, want, rel_tol=tol["rtol"], abs_tol=tol["atol"])
    else:
        ok = have == want and isinstance(have, bool) == isinstance(want, bool)
    return [] if ok else [f"{path}: got {have!r}, expected {want!r}"]


def _counts_agree(a, b) -> bool:
    """Left and right counts of two streams agree at every jump of either."""
    pts = np.union1d(a.values, b.values)
    for side in ("left", "right"):
        na = np.concatenate([[0], np.cumsum(a.multiplicities)])[np.searchsorted(a.values, pts, side)]
        nb = np.concatenate([[0], np.cumsum(b.multiplicities)])[np.searchsorted(b.values, pts, side)]
        if not np.array_equal(na, nb):
            return False
    return True


def invariants(job: Job, out: Outcome) -> list[str]:
    """Checks that need no reference."""
    problems = []
    if job.kind == "sphere-thin":
        meta = spectra.product_meta(spectra.interval_meta("pi/24", "dirichlet"),
                                    spectra.sphere2_meta())
        constant = reproduce.rationalized_polya_constant(3, meta.exact_volume)
        if constant != 1296 or out.extra.get("integer_constant") != {"num": 1296, "den": 1}:
            problems.append("rationalized constant of (0, pi/24) x S^2 is not 1296")
    elif job.kind == "composite" and out.fields["scan"]["verdict"] != "holds":
        problems.append("composite bound from the parts' constants fails")
    elif job.kind == "roundtrip" and not _counts_agree(out.extra["original"], out.extra["reloaded"]):
        problems.append(f"{job.params['format']} round trip changed a count")
    elif job.kind == "window":
        stream, meta = out.extra["stream"], out.extra["meta"]
        margin = riesz.berezin_margin if meta.bc.value == "dirichlet" else riesz.laptev_neumann_margin
        for lam in job.params["probes"]:
            m = margin(stream, meta, 1.0, lam)
            if not m >= 0:
                problems.append(f"one-term Riesz margin {m} < 0 at lambda={lam}")
    return problems


def gate(job: Job, out: Outcome, reference: dict, tol: dict) -> list[str]:
    want = reference.get(job.ref)
    if want is None:
        return [f"no reference for {job.ref!r}"]
    return compare(out.fields, want, tol) + invariants(job, out)
