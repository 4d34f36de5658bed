"""Command-line surface: tables, conditional states, sweeps, sampling,
estimation, fidelity, and figure-data reproduction.

Exit codes: 0 success, 2 usage error (argparse), 1 computation error.
Relative output paths honour $TWINBEAM_OUTDIR.  All numeric output uses
full-precision, locale-independent formatting.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .conditional import SelectionRule, build_conditional, cond_count_dist
from .core import joint_table, marginal_dist
from .errors import TwinbeamError
from .estimation import estimate_params, fidelity
from .figures import FIGURE_IDS, reproduce
from .nongauss import nongauss_report, sweep
from .params import ExperimentParams
from .sampling import sample_run

_AXIS_FLAGS = {"mt": "M_t", "t": "t", "eta": "eta", "mu": "mu"}


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, required=True, help="number of modes (>= 1)")
    parser.add_argument("--eta", type=float, required=True, help="detection efficiency in (0, 1)")
    parser.add_argument("--mean", type=float, required=True, help="mean counts per beam")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: from extension, else csv)")


def _params(args) -> ExperimentParams:
    return ExperimentParams(args.mu, args.eta, args.mean)


def _save(path, text: str) -> None:
    print(f"wrote {serialize.write_text(path, text)}", file=sys.stderr)


def _emit(args, obj, extra: dict | None = None) -> None:
    """Write ``obj`` to --out, or to stdout without one, as --format says,
    else as the --out extension says, else as CSV."""
    fmt = args.format or ("json" if str(args.out).lower().endswith(".json") else "csv")
    text = serialize.format_table(obj, fmt, extra)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _save(args.out, text)


def _json_only(flag: str, path, fmt: str | None = None) -> None:
    """Refuse an explicit CSV request, ``--format csv`` or a .csv path, for
    an output that has only a JSON form."""
    if fmt == "csv" or str(path).lower().endswith(".csv"):
        asked = "--format csv" if fmt == "csv" else f"the path {path}"
        raise TwinbeamError(f"{flag} writes JSON only, but {asked} asks for CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Counting statistics of multimode twin-beam light: joint and "
                    "conditional distributions, nonGaussianity, sampling, inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("joint", help="joint count probability table")
    _add_params(p)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output(p)

    p = sub.add_parser("marginal", help="one-beam count distribution")
    _add_params(p)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output(p)

    p = sub.add_parser("conditional", help="count distribution of a selected state")
    _add_params(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--t", type=int, help="exact trigger count")
    grp.add_argument("--above", type=int, help="keep t > threshold (strict)")
    grp.add_argument("--below", type=int, help="keep t < threshold (strict)")
    grp.add_argument("--at-least", type=int, help="keep t >= threshold (inclusive)")
    grp.add_argument("--at-most", type=int, help="keep t <= threshold (inclusive)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the Bayes route against the measurement route")
    p.add_argument("--state-out", default=None,
                   help="also write the spectral state JSON (exact rule only)")
    _add_output(p)

    p = sub.add_parser("nongauss", help="entropy gap of an exact-trigger state")
    _add_params(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output(p)

    p = sub.add_parser("sweep", help="renormalised nonGaussianity along one axis")
    p.add_argument("--axis", choices=sorted(_AXIS_FLAGS), required=True)
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--mt", type=float, help="fixed conditional mean")
    p.add_argument("--t", type=float, help="fixed trigger count")
    p.add_argument("--eta", type=float, help="fixed efficiency")
    p.add_argument("--mu", type=float, help="fixed mode count")
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output(p)

    p = sub.add_parser("sample", help="synthetic shot record from the model")
    _add_params(p)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_output(p)

    p = sub.add_parser("estimate", help="recover parameters from a shot record")
    p.add_argument("--input", required=True, help="shot record (csv or json)")
    p.add_argument("--refine", action="store_true",
                   help="maximum-likelihood refinement of (mu, M)")
    p.add_argument("--bootstrap", type=int, default=200,
                   help="kept for compatibility and ignored: errors are the delta method's")
    p.add_argument("--bootstrap-seed", type=int, default=0,
                   help="kept for compatibility and ignored")
    p.add_argument("--no-fidelity", action="store_true",
                   help="skip the model-table fidelity score")
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("fidelity", help="Bhattacharyya overlap of two tables")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("reproduce", help="emit all plot data for each named figure")
    p.add_argument("figure", nargs="+", choices=FIGURE_IDS)
    p.add_argument("--outdir", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)

    return parser


def _selection_rule(args) -> SelectionRule:
    if args.t is not None:
        return SelectionRule.exact(args.t)
    if args.above is not None:
        return SelectionRule.above(args.above)
    if args.below is not None:
        return SelectionRule.below(args.below)
    if args.at_least is not None:
        # inclusive bounds map onto the strict rules on integer outcomes
        return SelectionRule.above(args.at_least - 1)
    return SelectionRule.below(args.at_most + 1)


def _run(args) -> int:
    if args.command == "joint":
        _emit(args, joint_table(_params(args), tol=args.tol))

    elif args.command == "marginal":
        _emit(args, marginal_dist(_params(args), tol=args.tol))

    elif args.command == "conditional":
        params = _params(args)
        rule = _selection_rule(args)
        if args.state_out is not None and rule.kind != "exact":
            raise TwinbeamError("--state-out needs an exact trigger rule (--t)")
        _json_only("--state-out", args.state_out)
        dist = cond_count_dist(params, rule, tol=args.tol, verify=args.verify)
        if args.state_out is not None:
            state = build_conditional(params, rule, tol=args.tol)
            _save(args.state_out, serialize.format_table(state))
        _emit(args, dist)

    elif args.command == "nongauss":
        _json_only("nongauss", args.out, args.format)
        _emit(args, nongauss_report(_params(args), args.t, tol=args.tol), {"tol": args.tol})

    elif args.command == "sweep":
        axis = _AXIS_FLAGS[args.axis]
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise TwinbeamError(f"--values takes comma-separated numbers, got {args.values!r}")
        fixed = {}
        for flag, key in (("mt", "M_t"), ("t", "t"), ("eta", "eta"), ("mu", "mu")):
            value = getattr(args, flag)
            if value is not None:
                fixed[key] = value
        _emit(args, sweep(axis, values, fixed, tol=args.tol), {"fixed": fixed, "tol": args.tol})

    elif args.command == "sample":
        _emit(args, sample_run(_params(args), args.shots, args.seed, workers=args.workers))

    elif args.command == "estimate":
        _json_only("estimate --out", args.out)
        record = serialize.read_record(args.input)
        report = estimate_params(record, refine=args.refine, compute_fidelity=not args.no_fidelity)
        se = report.standard_errors
        print(f"shots      : {report.n_shots}")
        print(f"mean counts: {report.M_hat!r} +- {se['M']!r}")
        print(f"efficiency : {report.eta_hat!r} +- {se['eta']!r}")
        print(f"modes      : {report.mu_hat!r} +- {se['mu']!r}")
        print(f"noise red. : {report.R_hat!r} +- {se['R']!r}")
        print(f"fidelity   : {report.fidelity!r}")
        for note in report.diagnostics:
            print(f"note       : {note}")
        if args.out is not None:
            _save(args.out, serialize.format_table(report))

    elif args.command == "fidelity":
        a = serialize.read_table(args.a)
        b = serialize.read_table(args.b)
        print(repr(fidelity(a, b)))

    elif args.command == "reproduce":
        for figure in args.figure:  # one JSON line per figure, printed as it is written
            manifest = reproduce(figure, args.outdir, seed=args.seed, tol=args.tol)
            print(json.dumps({"figure": figure, "files": [f["path"] for f in manifest["files"]]}))

    return 0


# main's parser, built on its first call: parsing keeps no state between
# calls, and argparse looks up sys.stdout/sys.stderr only when it prints
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except TwinbeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
