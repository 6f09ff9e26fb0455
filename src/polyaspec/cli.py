"""Command-line front end.

Subcommands: ``spectrum``, ``count``, ``riesz``, ``constants``, ``verify``,
``reproduce``.  Spectrum compositions are given as JSON, e.g.

    '{"product": [{"interval": {"a": "pi/24", "bc": "dirichlet"}}, {"sphere2": {}}]}'

and turned into a stream and its metadata by ``polyaspec.spec``
(``build_spec``, ``stream_covering_k``), the same path the reproduction
bundles take; ``SpectrumSpec``, ``build_spec`` and ``stream_covering_k``
stay importable from here.  Lengths accept symbolic tokens ("pi",
"pi/24", "1/4pi") so exact-mode verification can recognize integer
spectra.  Outputs are deterministic:
identical configurations produce byte-identical CSV/JSON, except for the
timestamp field, which --no-timestamp removes.  Exit status is 0 iff all
requested verifications hold, 1 on a failed verification, 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from typing import Callable, Optional

import numpy as np

from . import counting as ct
from . import polya as pv
from . import riesz as rz
from . import spectra as sp
from .constants import c_d, h1, h2, l_gamma_d, omega_d
from .errors import ConfigError, DomainError, PolyaspecError
from .reproduce import sphere_thin_bundle, square_triangle_bundle
from .spec import SpectrumSpec, build_spec, stream_covering_k

__all__ = ["main", "build_spec", "SpectrumSpec"]


# ---------------------------------------------------------------------------
# output plumbing


def _timestamp_field(args) -> dict:
    if args.no_timestamp:
        return {}
    return {"generated_at": datetime.now(timezone.utc).isoformat()}


def _emit_json(obj: dict, args) -> None:
    obj = {**obj, **_timestamp_field(args)}
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text + "\n")
    else:
        print(text)


def _emit_text(write: Callable, args) -> None:
    """Call ``write(fp)`` on the --out file, or on stdout."""
    if args.out:
        with open(args.out, "w", newline="") as fp:
            write(fp)
    else:
        write(sys.stdout)


def _emit_csv(header: list[str], columns, args) -> None:
    """A table given as float or integer array columns, through
    ``csvtext.write_columns``: formatted a block at a time, each number as
    ``repr`` spells it."""
    from .csvtext import write_columns

    _emit_text(functools.partial(write_columns, header=header, columns=columns), args)


# ---------------------------------------------------------------------------
# subcommands


def _lambda_cutoff(lams: list[float]) -> float:
    """The largest of ``lams``, refusing a NaN or an infinity anywhere (JSON
    has neither); the least positive float when none is positive, as N and
    R_gamma vanish at lambda <= 0."""
    if any(math.isnan(lam) for lam in lams):
        raise DomainError("lambda must be a number, got nan")
    for lam in lams:
        if math.isinf(lam):
            raise DomainError(f"lambda must be finite, got {lam}")
    top = max(lams)
    return top if top > 0 else math.ulp(0.0)


def _cmd_spectrum(args) -> int:
    spec = build_spec(args.spec)
    stream = spec.stream(args.cutoff)
    if args.output == "csv":
        _emit_text(functools.partial(sp.stream_to_csv, stream), args)
    else:
        _emit_json(sp.stream_to_json_dict(stream), args)
    return 0


def _cmd_count(args) -> int:
    spec = build_spec(args.spec)
    lams = [float(x) for x in args.lam]
    top = _lambda_cutoff(lams)
    cf = spec.counting(top if args.cutoff is None else args.cutoff)
    rows = []
    # tolist() keeps the counts Python ints, which JSON can serialise
    for lam, count in zip(lams, cf.count_many(lams).tolist()):
        row = {"lambda": lam, "count": count}
        if args.weyl:
            bound = ct.weyl_leading(cf.meta, lam)
            sign = 1.0 if cf.meta.bc is sp.BoundaryCondition.DIRICHLET else -1.0
            row["bound"] = bound
            # + 0.0 makes the -0.0 of a zero Neumann margin 0.0
            row["margin"] = sign * (bound - row["count"]) + 0.0
        rows.append(row)
    if args.output == "csv":
        header = ["lambda", "count"] + (["bound", "margin"] if args.weyl else [])
        _emit_csv(header, [np.array([r[h] for r in rows]) for h in header], args)
    else:
        _emit_json({"results": rows}, args)
    return 0


def _cmd_riesz(args) -> int:
    spec = build_spec(args.spec)
    if args.two_term:
        if args.cutoff is None:
            raise ConfigError("--two-term needs --cutoff")
        stream = spec.stream(args.cutoff * 1.0001)
        meta = spec.meta()
        scan = rz.two_term_riesz_scan(stream, meta, args.gamma, args.cutoff)
        if args.output == "csv":
            _emit_csv(["lambda", "riesz", "bound", "margin"], list(scan.points.T), args)
        else:
            _emit_json({
                "gamma": scan.gamma, "side": scan.side,
                "lambda_star": scan.lambda_star,
                "worst_margin": scan.worst_margin, "worst_lambda": scan.worst_lambda,
                "points_scanned": len(scan.points),
            }, args)
        return 0
    lams = [float(x) for x in args.lam]
    if not lams:
        raise ConfigError("give at least one --lambda or use --two-term")
    stream = spec.stream(_lambda_cutoff(lams))
    means = rz.riesz_mean_many(stream, args.gamma, lams)
    if args.output == "csv":
        _emit_csv(["lambda", "riesz"], [np.array(lams), means], args)
    else:
        _emit_json({"gamma": args.gamma,
                    "results": [{"lambda": l, "riesz": r}
                                for l, r in zip(lams, means.tolist())]}, args)
    return 0


def _cmd_constants(args) -> int:
    d = args.d
    out = {
        "dimension": d,
        "gamma": args.gamma,
        "omega_d": omega_d(d),
        "c_d": c_d(d),
        "l_gamma_d": l_gamma_d(args.gamma, d),
    }
    if d >= 2:
        out["c_d_minus_1"] = c_d(d - 1)
        out["l_gamma_d_minus_1"] = l_gamma_d(args.gamma, d - 1)
    if d >= 3:
        # the gains first: b_d leaves float range from d = 173, before h2
        # (190) and h1 (256) do, and the gains cost microseconds to their
        # seconds
        from .constants import a_d_const, b_d_const
        out["a_d_unit_volume"] = a_d_const(d, 1.0)
        out["b_d_unit_volume"] = b_d_const(d, 1.0)
        for name, fn in (("h1", h1), ("h2", h2)):
            res = fn(d)
            out[name] = {"value": res.value, "mu": res.mu,
                         "error_estimate": res.error_estimate}
    _emit_json(out, args)
    return 0


def _cmd_verify(args) -> int:
    spec = build_spec(args.spec)
    stream, meta = stream_covering_k(spec, args.k_max)
    if meta.bc is sp.BoundaryCondition.CLOSED:
        raise ConfigError("verification needs a Dirichlet or Neumann composition")
    side = meta.bc.value
    if args.exact:
        report = pv.verify_exact_power(stream, meta, args.k_max, side)
    elif side == "dirichlet":
        report = pv.verify_dirichlet(stream, meta, args.k_max)
    else:
        report = pv.verify_neumann(stream, meta, args.k_max)
    if args.dump:
        from .csvtext import write_columns

        margins = pv.per_eigenvalue_margins(stream, meta, args.k_max, side)
        with open(args.dump, "w", newline="") as fp:
            write_columns(fp, ["k", "margin"], [np.arange(1, margins.size + 1), margins])
    _emit_json({"bc": side, "exact": bool(args.exact), **report.to_dict()}, args)
    return 0 if report.holds else 1


def _cmd_reproduce(args) -> int:
    if args.example == "sphere-thin":
        bundle = sphere_thin_bundle()
    else:
        bundle = square_triangle_bundle()
    _emit_json(bundle, args)
    return 0 if bundle["ok"] else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call;
    parsing leaves it unchanged, so later calls reuse it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for byte-identical reruns")
    # only the subcommands that can write CSV take --output
    tabular = argparse.ArgumentParser(add_help=False, parents=[common])
    tabular.add_argument("--output", choices=["csv", "json"], default="json",
                         help="output format (default json)")

    parser = argparse.ArgumentParser(
        prog="polyaspec",
        description="model Laplace spectra, eigenvalue counting, and Polya-type verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[tabular], help="generate a spectrum")
    p.add_argument("--spec", required=True, help="JSON spectrum description")
    p.add_argument("--cutoff", type=float, required=True)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("count", parents=[tabular], help="counting function values")
    p.add_argument("--spec", required=True)
    p.add_argument("--lambda", dest="lam", action="append", required=True,
                   metavar="LAMBDA", help="evaluation point (repeatable)")
    p.add_argument("--cutoff", type=float, help="generation cutoff (default: max lambda)")
    p.add_argument("--weyl", action="store_true", help="add Weyl bound and margin columns")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("riesz", parents=[tabular], help="Riesz means and two-term scans")
    p.add_argument("--spec", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambda", dest="lam", action="append", default=[], metavar="LAMBDA")
    p.add_argument("--two-term", action="store_true",
                   help="scan the two-term bound at all jump points up to --cutoff")
    p.add_argument("--cutoff", type=float)
    p.set_defaults(fn=_cmd_riesz)

    p = sub.add_parser("constants", parents=[common], help="constant tables")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("verify", parents=[common], help="per-eigenvalue Polya verification")
    p.add_argument("--spec", required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--dump", metavar="PATH",
                   help="write the plain sweep's per-k margins, relative in lambda, as "
                        "CSV, each with the sign of its comparison (with --exact they can "
                        "differ from the report's worst_margin, which is relative in "
                        "lambda^d)")
    p.add_argument("--exact", action="store_true",
                   help="report margins relative in lambda^d; needs exact values and an "
                        "exact volume (symbolic or rational lengths), else a ModeError.  "
                        "With or without it, such streams have every comparison decided "
                        "exactly")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reproduce", parents=[common], help="run a packaged example")
    p.add_argument("example", choices=["square-triangle", "sphere-thin"])
    p.set_defaults(fn=_cmd_reproduce)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PolyaspecError as exc:
        code = type(exc).__name__
        print(json.dumps({"error": code, "message": str(exc)}), file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
