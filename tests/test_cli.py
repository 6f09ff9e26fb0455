import argparse
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from polyaspec import cli, stream_from_csv
from polyaspec.cli import build_spec, main, stream_covering_k

THIN_SPHERE_SPEC = '{"product":[{"interval":{"a":"pi/24","bc":"dirichlet"}},{"sphere2":{}}]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spec parsing


def test_build_spec_product_meta():
    spec = build_spec(THIN_SPHERE_SPEC)
    meta = spec.meta()
    assert meta.dimension == 3
    assert meta.volume == pytest.approx(math.pi ** 2 / 6)
    assert meta.bc.value == "dirichlet"


def test_build_spec_rejects_malformed():
    from polyaspec import ConfigError

    for bad in ('{"interval":{}}', '{"box":{"sides":[]}}', '{"nope":{}}',
                '{"product":[{"sphere2":{}}]}', '[1,2]'):
        with pytest.raises(ConfigError):
            build_spec(bad)


def test_stream_covering_k():
    spec = build_spec(THIN_SPHERE_SPEC)
    stream, meta = stream_covering_k(spec, 500)
    assert stream.total_count >= 500


# ---------------------------------------------------------------------------
# subcommands


def test_spectrum_csv_and_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "spectrum", "--spec", '{"sphere2":{}}',
                           "--cutoff", "10", "--output", "csv", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == "value,multiplicity"
    assert out.splitlines()[1] == "0.0,1"

    code, out, _ = run_cli(capsys, "spectrum", "--spec", '{"sphere2":{}}',
                           "--cutoff", "10", "--no-timestamp")
    data = json.loads(out)
    assert data["entries"] == [[0.0, 1], [2.0, 3], [6.0, 5]]
    assert data["exact"] is True
    assert "generated_at" not in data


def test_spectrum_deterministic_bytes(capsys):
    args = ("spectrum", "--spec", '{"box":{"sides":[1,2],"bc":"neumann"}}',
            "--cutoff", "200", "--output", "csv", "--no-timestamp")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_spectrum_timestamp_appears_by_default(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--spec", '{"sphere2":{}}', "--cutoff", "5")
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_round_trip_csv_preserves_counting(capsys, tmp_path, rng):
    spec = '{"product":[{"interval":{"a":"1.3","bc":"neumann"}},{"sphere2":{}}]}'
    out_path = tmp_path / "spectrum.csv"
    code, _, _ = run_cli(capsys, "spectrum", "--spec", spec, "--cutoff", "400",
                         "--output", "csv", "--out", str(out_path), "--no-timestamp")
    assert code == 0
    stream = build_spec(spec).stream(400.0)
    with open(out_path) as fp:
        back = stream_from_csv(fp, cutoff=400.0)
    for lam in rng.uniform(0.1, 400.0, 1000):
        assert back.count(lam) == stream.count(lam)


def test_count_with_weyl_columns(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", '{"sphere2":{}}',
                           "--lambda", "6", "--lambda", "43",
                           "--output", "csv", "--no-timestamp", "--weyl")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,count,bound,margin"
    assert lines[1].startswith("6.0,4,")
    assert lines[2].startswith("43.0,49,")


@pytest.mark.parametrize("lam", ["0", "-0.0"])
def test_a_zero_neumann_weyl_margin_is_plus_zero(capsys, lam):
    # the margin at lambda 0 was -1.0 * (0.0 - 0), printed as -0.0
    argv = ["count", "--spec", '{"box":{"sides":["pi/24",1e4,3],"bc":"neumann"}}',
            f"--lambda={lam}", "--weyl", "--no-timestamp"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert '"margin": 0.0' in out and json.loads(out)["results"][0]["margin"] == 0.0
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    assert out.splitlines() == ["lambda,count,bound,margin", f"{float(lam)!r},0,0.0,0.0"]


@pytest.mark.parametrize("spec", ['{"sphere2":{}}', '{"box":{"sides":[1,1],"bc":"neumann"}}'])
@pytest.mark.parametrize("lams", [("3", "-1", "-0"), ("-1e300", "-0", "3")])
def test_count_weyl_rows_at_negative_lambdas_are_zero(capsys, spec, lams):
    # weyl_leading refused a negative lambda and failed the whole command;
    # N is 0 there, and the bound, taken at lambda 0, is 0.0 as well
    argv = ["count", "--spec", spec, *(f"--lambda={lam}" for lam in lams), "--weyl",
            "--no-timestamp"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    rows = json.loads(out)["results"]
    _, plain, _ = run_cli(capsys, *argv[:-2], "--no-timestamp")
    assert [(r["lambda"], r["count"]) for r in rows] == [
        (r["lambda"], r["count"]) for r in json.loads(plain)["results"]]
    for lam, row in zip(lams, rows):
        if float(lam) <= 0:
            assert (row["count"], row["bound"], row["margin"]) == (0, 0.0, 0.0)
            assert math.copysign(1.0, row["bound"]) == math.copysign(1.0, row["margin"]) == 1.0
    code, out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert code == 0
    assert out.splitlines() == ["lambda,count,bound,margin"] + [
        ",".join(repr(row[h]) for h in ("lambda", "count", "bound", "margin")) for row in rows]


def test_count_triangle_closed_form(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", '{"triangle":{}}',
                           "--lambda", "1", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["results"][0]["count"] == 1


@pytest.mark.parametrize("spec", [
    '{"box":{"sides":["pi","27pi/2"],"bc":"neumann"}}',
    '{"product":[{"interval":{"a":"pi","bc":"neumann"}},'
    '{"interval":{"a":"27pi/2","bc":"neumann"}}]}',
])
@pytest.mark.parametrize("cutoff", [[], ["--cutoff", "2.0"]])
def test_count_keeps_a_sum_whose_factor_reaches_the_cutoff(capsys, spec, cutoff):
    """Mode (1, 0) is 729/729 = 0.9999999999999999 in the box's unit but
    1.0 in its side's, so the side at cutoff 1.0 dropped it and the count
    at 1.0 read 14, or 15 with a larger cutoff."""
    code, out, _ = run_cli(capsys, "count", "--spec", spec, "--lambda", "1.0", *cutoff,
                           "--no-timestamp")
    assert code == 0
    assert json.loads(out)["results"] == [{"lambda": 1.0, "count": 15}]


def test_count_does_not_depend_on_the_cutoff_the_factors_hold(capsys):
    """Mode (0, 1) of the Neumann box 3pi x 7pi is 9/441.  Built at the
    lambda, the side 3pi held only its zero mode, so it was reduced to
    denominator 1, the box took 49 and kept 1/49, an ulp below its 9/441
    float: the count read 2 there and 1 with ``--cutoff 1.0``."""
    spec = '{"box":{"sides":["3pi/1","7pi/1"],"bc":"neumann"}}'
    counts = []
    for cutoff in ([], ["--cutoff", "1.0"]):
        code, out, _ = run_cli(capsys, "count", "--spec", spec,
                               "--lambda", "0.020408163265306124", *cutoff, "--no-timestamp")
        assert code == 0
        counts.append(json.loads(out)["results"][0]["count"])
    assert counts[0] == counts[1]


@pytest.mark.parametrize("spec", [
    '{"product":[{"box":{"sides":[3.3,3.3],"bc":"neumann"}},'
    '{"interval":{"a":7.0,"bc":"neumann"}}]}',
    '{"box":{"sides":[3.3,3.3,7.0],"bc":"neumann"}}',
])
def test_count_keeps_float_factors_of_a_product_at_the_cutoff(capsys, spec):
    """The eigenvalue 25 pi**2 / 3.3**2 of the square sums to two floats an
    ulp apart: 22.657494033722127 from modes (5, 0) and 22.65749403372213
    from (3, 4).  At the larger as lambda, a square built past the cutoff,
    as exact factors are, would merge the pair into the smaller float with
    multiplicity 4, and the count would read 191."""
    code, out, _ = run_cli(capsys, "count", "--spec", spec, "--lambda", "22.65749403372213",
                           "--no-timestamp")
    assert code == 0
    assert json.loads(out)["results"][0]["count"] == 189


@pytest.mark.parametrize("bc", ["dirichlet", "closed", "Neumann", None, 1])
def test_triangle_is_neumann_only(capsys, bc):
    # a Dirichlet request used to run the Neumann sweep and exit 0
    spec = json.dumps({"triangle": {"bc": bc}})
    for argv in (["verify", "--spec", spec, "--k-max", "100"],
                 ["count", "--spec", spec, "--lambda", "50"]):
        code, out, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ConfigError"


def test_triangle_bc_neumann_is_the_default(capsys):
    outs = set()
    for spec in ('{"triangle":{}}', '{"triangle":{"bc":"neumann"}}', '{"triangle":null}'):
        code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--k-max", "500",
                               "--no-timestamp")
        assert code == 0 and json.loads(out)["bc"] == "neumann"
        outs.add(out)
    assert len(outs) == 1


def _csv_writer_text(header, rows) -> str:
    """The table as csv.writer writes it, floats by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


@pytest.mark.parametrize("rows", [
    [[0.0, 3, -1.5, 1e300], [5e-324, -0, math.inf, math.nan], [2.0 ** 70, 2 ** 62, 1 / 3, -7.0],
     [0.1, -2 ** 63, -0.0, 1e16]],
    [],
])
def test_csv_rows_match_csv_writer(capsys, rows):
    """The arrays ``count --output csv`` writes: float lambdas, int64
    counts, float bounds and margins."""
    header = ["lambda", "count", "bound", "margin"]
    args = argparse.Namespace(out=None)
    columns = [np.array([row[i] for row in rows], dtype)
               for i, dtype in enumerate([float, np.int64, float, float])]
    cli._emit_csv(header, columns, args)
    assert capsys.readouterr().out == _csv_writer_text(header, rows)


def test_riesz_values_and_two_term(capsys):
    code, out, _ = run_cli(capsys, "riesz", "--spec", '{"sphere2":{}}',
                           "--gamma", "1", "--lambda", "6", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["results"][0]["riesz"] == pytest.approx(18.0)

    code, out, _ = run_cli(capsys, "riesz", "--spec",
                           '{"box":{"sides":[1,1],"bc":"dirichlet"}}',
                           "--gamma", "1", "--two-term", "--cutoff", "2000",
                           "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["side"] == "dirichlet"
    assert data["lambda_star"] is not None


def test_two_term_side_comes_from_the_composition(capsys):
    """The two-term scan runs on the side of the composition's boundary
    condition, so ``--side`` is no option; a closed composition has no
    two-term bound."""
    with pytest.raises(SystemExit) as exc:
        main(["riesz", "--spec", '{"box":{"sides":[1,1],"bc":"dirichlet"}}', "--gamma", "1",
              "--two-term", "--cutoff", "100", "--side", "dirichlet"])
    assert exc.value.code == 2 and "--side" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "riesz", "--spec", '{"sphere2":{}}', "--gamma", "1",
                             "--two-term", "--cutoff", "100", "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_two_term_csv_matches_the_row_writer(capsys):
    from polyaspec import box_meta, box_spectrum, two_term_riesz_scan

    sides = [1.3, 0.7]
    code, out, _ = run_cli(capsys, "riesz", "--spec", json.dumps(
        {"box": {"sides": sides, "bc": "dirichlet"}}), "--gamma", "1.5", "--two-term",
        "--cutoff", "500", "--output", "csv", "--no-timestamp")
    assert code == 0
    scan = two_term_riesz_scan(box_spectrum(sides, "dirichlet", 500 * 1.0001),
                               box_meta(sides, "dirichlet"), 1.5, 500.0)
    assert out == "lambda,riesz,bound,margin\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in scan.points.tolist())


def test_riesz_rows_keep_the_given_lambda_order(capsys):
    def riesz(gamma, *lams, output="json"):
        argv = ["riesz", "--spec", '{"sphere2":{}}', "--gamma", gamma,
                "--output", output, "--no-timestamp"]
        for lam in lams:
            argv += ["--lambda", lam]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return out

    rows = json.loads(riesz("1", "6", "2", "6", "0", "12"))["results"]
    assert [(r["lambda"], r["riesz"]) for r in rows] == [
        (6.0, 18.0), (2.0, 2.0), (6.0, 18.0), (0.0, 0.0), (12.0, 12 + 3 * 10 + 5 * 6)]
    lines = riesz("1.5", "6", "2", "6", "0", output="csv").strip().splitlines()
    assert lines[0] == "lambda,riesz"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    r6 = 6 ** 1.5 + 3 * 4 ** 1.5
    assert [lam for lam, _ in rows] == [6.0, 2.0, 6.0, 0.0]
    assert [r for _, r in rows] == pytest.approx([r6, 2 ** 1.5, r6, 0.0], rel=1e-14)
    # lambdas below the first value are exact zeros
    code, out, _ = run_cli(capsys, "riesz", "--spec", '{"sphere2":{}}', "--gamma", "1.5",
                           "--lambda", "-1", "--lambda", "6", "--lambda=-1e300", "--no-timestamp")
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["riesz"] for r in rows] == pytest.approx([0.0, r6, 0.0], rel=1e-14, abs=0.0)


_LAMBDA_CMDS = [("count",), ("riesz", "--gamma", "1.5")]


@pytest.mark.parametrize("cmd", _LAMBDA_CMDS)
@pytest.mark.parametrize("lams", [("nan", "5"), ("5", "nan"), ("0", "nan")])
def test_a_nan_lambda_is_one_error_wherever_it_stands(capsys, cmd, lams):
    # the default cutoff was max(lambdas): nan first made it nan, and the
    # command said "cutoff must be positive, got nan"
    argv = [*cmd, "--spec", '{"box":{"sides":[1,1],"bc":"neumann"}}', "--no-timestamp"]
    for lam in lams:
        argv += ["--lambda", lam]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "DomainError",
                               "message": "lambda must be a number, got nan"}


@pytest.mark.parametrize("cmd", [*_LAMBDA_CMDS, ("count", "--cutoff", "10")])
@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("lam", ["-inf", "inf"])
def test_an_infinite_lambda_is_refused(capsys, cmd, output, lam):
    # -inf was echoed as -Infinity, which is not JSON, with exit status 0
    argv = [*cmd, "--spec", '{"sphere2":{}}', "--lambda", "3", f"--lambda={lam}",
            "--output", output, "--no-timestamp"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "DomainError",
                               "message": f"lambda must be finite, got {float(lam)}"}


@pytest.mark.parametrize("cmd", _LAMBDA_CMDS)
@pytest.mark.parametrize("spec", ['{"box":{"sides":[1,1],"bc":"neumann"}}',
                                  '{"interval":{"a":"pi/24","bc":"dirichlet"}}',
                                  '{"product":[{"triangle":{}},{"sphere2":{}}]}'])
def test_nonpositive_lambdas_count_and_sum_nothing(capsys, cmd, spec):
    # the default cutoff was max(lambdas), so a list with no positive
    # lambda exited 2 with "cutoff must be positive"; N and R_gamma vanish
    code, out, err = run_cli(capsys, *cmd, "--spec", spec, "--lambda", "0",
                             "--lambda=-2", "--lambda=-1e300", "--no-timestamp")
    assert code == 0 and err == ""
    key = cmd[0] if cmd[0] == "riesz" else "count"
    assert [(r["lambda"], r[key]) for r in json.loads(out)["results"]] == [
        (0.0, 0), (-2.0, 0), (-1e300, 0)]


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_two_term_scan_of_an_interval_names_the_dimension(capsys, bc):
    # the boundary term's L_gamma,d-1 failed as "dimension must be >= 1, got 0"
    code, out, err = run_cli(capsys, "riesz", "--spec",
                             '{"interval":{"a":2,"bc":"%s"}}' % bc, "--gamma", "1",
                             "--two-term", "--cutoff", "50", "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "DomainError",
                               "message": "two-term Riesz bounds need dimension >= 2, got 1"}


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--d", "3", "--gamma", "1.5",
                           "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["c_d"] == pytest.approx(1 / (6 * math.pi ** 2))
    assert data["h1"]["value"] > 0 and data["h2"]["value"] > 0
    assert "mu" in data["h1"]


def test_verify_exact_thin_sphere(capsys, tmp_path):
    dump = tmp_path / "margins.csv"
    code, out, _ = run_cli(capsys, "verify", "--spec", THIN_SPHERE_SPEC,
                           "--k-max", "2000", "--exact", "--no-timestamp",
                           "--dump", str(dump))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds"
    assert data["exact"] is True
    assert data["checked"] == 2000
    lines = dump.read_text().splitlines()
    assert lines[0] == "k,margin"
    assert len(lines) == 2001
    rows = [line.split(",") for line in lines[1:]]
    assert [int(k) for k, _ in rows] == list(range(1, 2001))
    assert all(math.isfinite(float(m)) and float(m) > 0 for _, m in rows)
    # --dump writes the per-k margins of the float sweep in both modes
    plain = tmp_path / "plain.csv"
    code, _, _ = run_cli(capsys, "verify", "--spec", THIN_SPHERE_SPEC,
                         "--k-max", "2000", "--no-timestamp", "--dump", str(plain))
    assert code == 0
    assert dump.read_bytes() == plain.read_bytes()
    # the rows the per-row writer wrote, each margin by repr
    from polyaspec import per_eigenvalue_margins

    stream, meta = stream_covering_k(build_spec(THIN_SPHERE_SPEC), 2000)
    margins = per_eigenvalue_margins(stream, meta, 2000, "dirichlet").tolist()
    assert dump.read_text() == "k,margin\n" + "".join(
        f"{k},{m!r}\n" for k, m in enumerate(margins, 1))


A_PI_SPEC = '{"product":[{"interval":{"a":"pi","bc":"%s"}},{"sphere2":{}}]}'


@pytest.mark.parametrize("bc, k_max, code, verdict, worst, failures", [
    ("dirichlet", 1, 1, "fails", (-0.23685717163111228, 1.0),
     [[1.0, 1.0, 1.3103706971044486]]),
    ("dirichlet", 100000, 1, "fails", (-0.23685717163111228, 1.0),
     [[1.0, 1.0, 1.3103706971044486], [4.0, 3.0, 3.3019272488946276],
      [13.0, 7.0, 7.244744506733901]]),
    ("neumann", 1, 0, "holds", (0.23685717163111228, 1.0), []),
    ("neumann", 100000, 1, "fails", (-0.05826736797879952, 9.0),
     [[9.0, 6.0, 5.66964472452693]]),
])
def test_verify_thick_sphere_reports_are_pinned(capsys, bc, k_max, code, verdict,
                                                worst, failures):
    # (0, pi) x S^2 fails on both sides; the float reports, failures included,
    # are pinned to the last digit
    status, out, _ = run_cli(capsys, "verify", "--spec", A_PI_SPEC % bc,
                             "--k-max", str(k_max), "--no-timestamp")
    assert status == code
    assert json.loads(out) == {
        "bc": bc, "exact": False, "mode": "per_eigenvalue", "checked": k_max,
        "requested": k_max, "verdict": verdict, "worst_margin": worst[0],
        "worst_location": worst[1], "failures": failures, "tie_breaks": 0,
    }


def _dump_rows(capsys, tmp_path, spec, k_max, *flags):
    """Run ``verify --dump``; its exit code, its report and its (k, margin
    text) rows."""
    dump = tmp_path / "margins.csv"
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--k-max", str(k_max),
                           "--no-timestamp", "--dump", str(dump), *flags)
    lines = dump.read_text().splitlines()
    assert lines[0] == "k,margin"
    return code, json.loads(out), [(int(k), m) for k, m in
                                   (line.split(",") for line in lines[1:])]


@pytest.mark.parametrize("flags", [(), ("--exact",)])
def test_verify_dump_negative_rows_are_the_failing_k(capsys, tmp_path, flags):
    # (0, pi) x S^2 Dirichlet fails at k = 1, 4 and 13 up to 50; the dump's
    # margins take the exact sweep's signs
    code, report, rows = _dump_rows(capsys, tmp_path, A_PI_SPEC % "dirichlet", 50, *flags)
    assert code == 1 and len(rows) == 50
    failing = [k for k, m in rows if float(m) < 0]
    assert failing == [int(f[0]) for f in report["failures"]] == [1, 4, 13]


@pytest.mark.parametrize("flags", [(), ("--exact",)])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_verify_dump_all_ties_rows_are_zero(capsys, tmp_path, bc, flags):
    # 1-D Polya is an equality: every k of the unit interval is a tie
    spec = json.dumps({"interval": {"a": 1, "bc": bc}})
    code, report, rows = _dump_rows(capsys, tmp_path, spec, 1000, *flags)
    assert code == 0 and report["tie_breaks"] == 1000
    assert rows == [(k, "0.0") for k in range(1, 1001)]


def test_verify_failure_exit_code(capsys):
    spec = '{"product":[{"interval":{"a":"pi","bc":"dirichlet"}},{"sphere2":{}}]}'
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--k-max", "1",
                           "--no-timestamp")
    assert code == 1
    assert json.loads(out)["verdict"] == "fails"


def test_error_json_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--spec", '{"sphere2":{}}',
                             "--k-max", "10", "--no-timestamp")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ConfigError"


def _interval(a: str) -> str:
    return '{"interval":{"a":%s,"bc":"dirichlet"}}' % a


@pytest.mark.parametrize("argv", [
    ("verify", "--spec", _interval("1e-300"), "--k-max", "100"),
    ("spectrum", "--spec", _interval("1e-300"), "--cutoff", "10"),
    ("verify", "--spec", _interval("1e300"), "--k-max", "100"),
    ("count", "--spec", _interval('"1/1' + "0" * 170 + '"'), "--lambda", "10"),
    # pi**2 / a**2 fits, the cutoff covering k_max does not
    ("verify", "--spec", _interval("1e-150"), "--k-max", "100000"),
    # more modes below the cutoff than _MAX_MODES
    ("spectrum", "--spec", _interval("1e12"), "--cutoff", "10"),
    ("spectrum", "--spec", _interval("1e100"), "--cutoff", "10"),
    # a length near 1 whose exact denominator is past float range: a traceback
    # from the OverflowError of pi**2 / den
    ("spectrum", "--spec", _interval('"%d/%d"' % (10 ** 200 + 1, 10 ** 200)), "--cutoff", "100"),
])
def test_interval_past_float_range_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_exact_interval_counts_a_mode_just_below_lambda(capsys):
    # mode 11 of (0, 1/3) is 10747.99919278631 as an exact stream forms it;
    # a float filter on 9 pi**2 * 121 dropped it, and the count was 10
    code, out, _ = run_cli(capsys, "count", "--spec", _interval('"1/3"'),
                           "--lambda", "10747.999192786312", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["results"] == [{"count": 11, "lambda": 10747.999192786312}]


_SQUARE = '{"box":{"sides":[1,1],"bc":"neumann"}}'


@pytest.mark.parametrize("argv", [
    # more sphere values or triangle lattice pairs than _MAX_MODES: inf was
    # an OverflowError traceback, 1e300 numpy's bare ValueError
    *[(cmd, "--spec", spec, flag, top) for spec in ('{"sphere2":{}}', '{"triangle":{}}')
      for cmd, flag in (("spectrum", "--cutoff"), ("count", "--lambda"))
      for top in ("inf", "1e300")],
    # a cutoff of 0 is given, not absent: count scanned up to max(lambda),
    # --two-term reported that it needed --cutoff
    ("count", "--spec", _SQUARE, "--lambda", "5", "--cutoff", "0"),
    ("riesz", "--spec", _SQUARE, "--gamma", "1.5", "--two-term", "--cutoff", "0"),
    # a gamma that is not finite printed NaN or Infinity, which is not JSON
    *[argv for gamma in ("nan", "inf") for argv in (
        ("riesz", "--spec", _SQUARE, "--gamma", gamma, "--lambda", "5"),
        ("riesz", "--spec", _SQUARE, "--gamma", gamma, "--two-term", "--cutoff", "50"),
        ("constants", "--d", "2", "--gamma", gamma))],
    # pi**1000 in omega_d, and (4 pi)**280.5 in L_gamma,d at a gamma that is
    # not a half-integer, were OverflowError tracebacks (exit 1)
    ("constants", "--d", "2000"),
    ("constants", "--d", "561", "--gamma", "1.3"),
    # h2's objective overflows from d = 190: at d = 200 it ran 20 s on
    # inf - inf with RuntimeWarnings, and b_d, subnormal from d = 173, now
    # stops the command before h2 runs; and c_d(300) underflowed to 0.0
    ("constants", "--d", "200"),
    ("constants", "--d", "300"),
    # b_d(185) underflowed to 0.0, printed as "b_d_unit_volume": 0.0 with exit 0
    ("constants", "--d", "185"),
])
def test_out_of_range_sizes_and_gammas_are_domain_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("spec", [
    # a TypeError traceback (exit 1)
    '{"box":{"sides":5,"bc":"neumann"}}',
    '{"tabulated":{"entries":5}}',
    '{"tabulated":{"entries":[[0,1]],"dimension":1,"volume":1,"surface_area":"x"}}',
    # a bare ValueError
    *[spec % '"bc":"robin"' for spec in ('{"interval":{"a":1,%s}}', '{"box":{"sides":[1],%s}}',
                                        '{"tabulated":{"entries":[[1,1]],%s}}')],
    '{"tabulated":{"entries":[[1,1]],"dimension":"x","volume":1}}',
    '{"tabulated":{"entries":[[1,1]],"dimension":1,"volume":"abc"}}',
    # read as 2, as the length 1, and as an infinite volume
    '{"tabulated":{"entries":[[1,1]],"dimension":2.5,"volume":1}}',
    '{"interval":{"a":true,"bc":"dirichlet"}}',
    '{"box":{"sides":[1,true],"bc":"dirichlet"}}',
    '{"tabulated":{"entries":[[1,1]],"dimension":1,"volume":1e400}}',
])
def test_malformed_spec_parameters_are_config_errors(capsys, spec):
    code, out, err = run_cli(capsys, "spectrum", "--spec", spec, "--cutoff", "10",
                             "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_bad_spec_json_is_config_error(capsys):
    code, _, err = run_cli(capsys, "count", "--spec", "{not json", "--lambda", "1")
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv, message", [
    (("riesz", "--spec", '{"sphere2":{}}', "--gamma", "1", "--two-term"),
     "--two-term needs --cutoff"),
    (("riesz", "--spec", '{"sphere2":{}}', "--gamma", "1", "--cutoff", "10"),
     "give at least one --lambda or use --two-term"),
    (("verify", "--spec", '{"product":[{"sphere2":{}},{"sphere2":{}}]}', "--k-max", "10"),
     "verification needs a Dirichlet or Neumann composition"),
])
def test_incomplete_requests_are_config_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 2 and out == ""
    assert err == json.dumps({"error": "ConfigError", "message": message}) + "\n"


@pytest.mark.parametrize("argv", [
    ("count", "--spec", '{"sphere2":{}}', "--lambda", "7"),
    ("constants", "--d", "2"),
    ("verify", "--spec", THIN_SPHERE_SPEC, "--k-max", "20"),
])
def test_json_out_file_holds_what_stdout_prints(capsys, tmp_path, argv):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0
    code, empty, err = run_cli(capsys, *argv, "--no-timestamp", "--out", str(path))
    assert code == 0 and empty == err == ""
    assert path.read_text() == out


def test_unwritable_out_is_an_os_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "constants", "--d", "2", "--out", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "FileNotFoundError",
        "message": f"[Errno 2] No such file or directory: '{path}'"}


@pytest.mark.parametrize("argv", [
    ("count", "--spec", '{"tabulated":{"entries":[[1,2],[3,1]],"dimension":1,'
     '"volume":1,"bc":"neumann"}}', "--lambda", "2", "--cutoff", "4", "--weyl"),
    ("riesz", "--spec", '{"tabulated":{"entries":[[0,1],[2,1]],"dimension":1,'
     '"volume":1,"bc":"dirichlet"}}', "--gamma", "1", "--two-term", "--cutoff", "3"),
])
def test_tabulated_metadata_is_checked(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ModeError"


def test_tabulated_spectrum_without_metadata(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--spec", '{"tabulated":{"entries":[[0,1],[2,3]]}}',
                           "--cutoff", "5", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["entries"] == [[0.0, 1], [2.0, 3]]


_TABLE = '{"tabulated":{"entries":[[1,1],[4,1],[9,1]],"dimension":1,"volume":1}}'


@pytest.mark.parametrize("spec, argv, key, expected", [
    (_TABLE, ("count", "--lambda", "5"), "results", [{"count": 2, "lambda": 5.0}]),
    (_TABLE, ("riesz", "--lambda", "5", "--gamma", "1"), "results",
     [{"lambda": 5.0, "riesz": 5.0}]),
    (_TABLE, ("spectrum", "--cutoff", "5"), "entries", [[1.0, 1], [4.0, 1]]),
    # past the Weyl guess of verify's first cutoff
    ('{"tabulated":{"entries":[[1,1],[4,1],[1e6,1]],"dimension":1,"volume":1}}',
     ("verify", "--k-max", "2"), "checked", 2),
])
def test_tabulated_entries_past_the_cutoff_are_truncated(capsys, spec, argv, key, expected):
    # a table reaching past the cutoff exited 2 with "all eigenvalues must
    # lie strictly below the cutoff"
    code, out, _ = run_cli(capsys, *argv, "--spec", spec, "--no-timestamp")
    assert code == (1 if argv[0] == "verify" else 0)  # the table fails the Polya bound
    assert json.loads(out)[key] == expected


def test_tabulated_table_is_validated_past_the_cutoff(capsys):
    spec = '{"tabulated":{"entries":[[1,1],[9,1],[4,1]]}}'
    code, out, err = run_cli(capsys, "count", "--spec", spec, "--lambda", "2", "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("spec_text, held, what, tables", [
    (_TABLE, 3, "table", 1),
    # every pair sum of two three-entry tables, none of them the zero mode
    (f'{{"product":[{_TABLE},{_TABLE}]}}', 9, "product of tables", 2),
    (f'{{"product":[{_TABLE},{{"product":[{_TABLE},{_TABLE}]}}]}}', 27, "product of tables", 3),
])
def test_covering_a_short_table_names_k_max_and_its_count(capsys, monkeypatch, spec_text,
                                                          held, what, tables):
    # each of ten cutoff tries truncated the table again before a ConfigError
    # naming the last cutoff, and a product of tables grew the cutoff to
    # float range before a DomainError naming no count; a table, and a
    # product of tables, say at once how many they hold
    from polyaspec import spec

    tried, built = [], []
    stream, tabulate = cli.SpectrumSpec.stream, spec.sp.tabulated_spectrum
    monkeypatch.setattr(cli.SpectrumSpec, "stream",
                        lambda self, cutoff: tried.append(cutoff) or stream(self, cutoff))
    monkeypatch.setattr(spec.sp, "tabulated_spectrum",
                        lambda *args: built.append(args) or tabulate(*args))
    code, out, err = run_cli(capsys, "verify", "--spec", spec_text, "--k-max", "100",
                             "--no-timestamp")
    assert code == 2 and out == ""
    message = f"k_max=100 exceeds the {held} eigenvalues of the {what}"
    assert json.loads(err) == {"error": "CoverageError", "message": message}
    assert tried == [] and len(built) == tables


def test_covering_a_product_of_tables_counts_the_zero_mode_once(capsys):
    # two Neumann tables with the zero mode: their product holds 3 * 3 = 9
    # eigenvalues, the zero mode among them, so 8 beyond it
    table = '{"tabulated":{"entries":[[0,1],[1,1],[4,1]],"dimension":1,"volume":1,"bc":"neumann"}}'
    product = f'{{"product":[{table},{table}]}}'
    code, out, _ = run_cli(capsys, "verify", "--spec", product, "--k-max", "8", "--no-timestamp")
    assert code in (0, 1) and json.loads(out)["checked"] == 8
    code, _, err = run_cli(capsys, "verify", "--spec", product, "--k-max", "9", "--no-timestamp")
    assert code == 2 and json.loads(err) == {
        "error": "CoverageError",
        "message": "k_max=9 exceeds the 8 eigenvalues of the product of tables"}


@pytest.mark.parametrize("spec, k_max", [
    ('{"product":[{"interval":{"a":"pi/1000","bc":"dirichlet"}},{"sphere2":{}}]}', 1),
    ('{"product":[{"interval":{"a":"pi/1000","bc":"dirichlet"}},{"sphere2":{}}]}', 1000),
    ('{"product":[{"interval":{"a":"pi/200","bc":"dirichlet"}},{"sphere2":{}}]}', 10),
    ('{"box":{"sides":[0.001,1,1],"bc":"dirichlet"}}', 5),
    ('{"box":{"sides":["1/10000",1],"bc":"dirichlet"}}', 1),
])
def test_verify_covers_thin_products(capsys, spec, k_max):
    # the first eigenvalue of (0, pi/q) x S^2 is q**2, far past the Weyl
    # guess for a small k_max, and ten tries growing it by half fell short
    # (ConfigError, exit 2)
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--k-max", str(k_max),
                           "--no-timestamp")
    assert code == 0
    assert json.loads(out)["checked"] == k_max


def test_reproduce_sphere_thin(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "sphere-thin", "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["integer_constant"] == {"num": 1296, "den": 1}
    assert data["dirichlet_exact"]["checked"] == 100000
    assert data["failure_dirichlet"]["verdict"] == "fails"
    assert data["failure_neumann"]["verdict"] == "fails"


def test_reproduce_square_triangle(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "square-triangle", "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["threshold_covers_claim"] is True


def test_verify_exact_interval_equality_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec",
                           '{"interval":{"a":"pi/24","bc":"dirichlet"}}',
                           "--k-max", "20", "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds" and data["tie_breaks"] > 0


@pytest.mark.parametrize("spec", [
    '{"interval":{"a":1,"bc":"dirichlet"}}',
    '{"box":{"sides":[1,1],"bc":"dirichlet"}}',
    '{"box":{"sides":[1,1],"bc":"neumann"}}',
    '{"box":{"sides":["3/2",2,"5/7"],"bc":"dirichlet"}}',
])
def test_verify_exact_decides_pi_power_streams(capsys, spec):
    # the Polya constants of these keep a power of pi
    reports = []
    for flag in ([], ["--exact"]):
        code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--k-max", "2000",
                               "--no-timestamp", *flag)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["verdict"] == reports[1]["verdict"] == "holds"
    if '"interval"' in spec:  # every k is an exact equality
        for data in reports:
            assert data["worst_margin"] == 0.0
            assert data["tie_breaks"] == data["checked"] == 2000


@pytest.mark.parametrize("spec", [
    '{"triangle":{"bc":"neumann"}}',  # exact values, volume sqrt(3)/4
    '{"box":{"sides":[1.3,2.7],"bc":"neumann"}}',  # float lengths
])
def test_verify_exact_refuses_inexact_inputs(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--spec", spec, "--k-max", "100",
                             "--exact", "--no-timestamp")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ModeError"


@pytest.mark.parametrize("flag", ["--threads", "--seed"])
def test_removed_flags_are_rejected(flag):
    with pytest.raises(SystemExit):
        main(["reproduce", "square-triangle", flag, "2"])


@pytest.mark.parametrize("argv", [
    ["spectrum", "--spec", '{"sphere2":{}}', "--cutoff", "10", "--exact"],
    ["count", "--spec", '{"sphere2":{}}', "--lambda", "10", "--exact"],
    ["riesz", "--spec", '{"sphere2":{}}', "--gamma", "1", "--lambda", "5", "--exact"],
    ["constants", "--d", "2", "--exact"],
    ["constants", "--d", "2", "--output", "csv"],
    ["verify", "--spec", THIN_SPHERE_SPEC, "--k-max", "10", "--output", "csv"],
    ["reproduce", "sphere-thin", "--output", "json"],
    ["reproduce", "sphere-thin", "--exact"],
])
def test_flags_only_where_read(capsys, argv):
    # --output belongs to the subcommands that can write CSV, --exact to verify
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-timestamp"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    # one parser serves every call in a process; neither a repeated
    # --lambda list nor a rejected call may leak into the next call
    from polyaspec.cli import _make_parser

    sphere = '{"sphere2":{}}'
    calls = [
        ["riesz", "--spec", sphere, "--gamma", "1", "--lambda", "7", "--lambda", "3",
         "--no-timestamp"],
        ["count", "--spec", sphere, "--lambda", "10", "--weyl", "--output", "csv"],
        ["verify", "--spec", THIN_SPHERE_SPEC, "--k-max", "bad"],
        ["verify", "--spec", THIN_SPHERE_SPEC, "--k-max", "500", "--exact", "--no-timestamp"],
        ["riesz", "--spec", sphere, "--gamma", "1.5", "--lambda", "5", "--no-timestamp"],
        ["constants", "--d", "2", "--no-timestamp"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    warm = [outcome(argv) for argv in calls]
    assert _make_parser() is _make_parser()
    fresh = []
    for argv in calls:
        _make_parser.cache_clear()
        fresh.append(outcome(argv))
    assert warm == fresh
    assert warm[2][0] == ("SystemExit", 2) and "--k-max" in warm[2][2]
    assert [r["lambda"] for r in json.loads(warm[4][1])["results"]] == [5.0]


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "polyaspec.cli", "constants", "--d", "2",
         "--gamma", "1", "--no-timestamp"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c_d"] == pytest.approx(1 / (4 * math.pi))


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath is loaded only when an exact sign needs bounds on pi
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, polyaspec.cli; assert 'mpmath' not in sys.modules, 'mpmath loaded'"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
