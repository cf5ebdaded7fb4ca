"""Command line entry points.

Four subcommands: ``gram`` (Grammian + frame bounds for a point file,
optionally in the range space of an operator), ``partition`` (greedy
separation partition with certificates), ``construct-st`` (realize a
prescribed PSD Grammian as a positive operator), and ``verify`` (the
randomized identity suite).

Exit codes: 0 success, 2 unusable input (a size too large for memory
included), 3 numerical or domain failure, 4 a produced certificate missed
its target, 5 verification found violations.

Each option's type, default and choices are declared once, in its
``add_argument`` call. ``main`` builds that parser once per process and
reuses it. A JSON ``--config`` object can predefine any flag: ``main``
checks each value against that declaration, makes the checked values the
subcommand's defaults on a freshly built parser, never the reused one, and
parses argv again, so explicit flags win and one call's config never
reaches the next. A ``null`` value, or a key the subcommand does not
declare, is ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

import numpy as np

from . import io
from .errors import ConfigInvalidError, HardyFramesError, IndexOutOfRangeError, NegativeWeightError
from .frames import DEFAULT_RIESZ_TOL, analyze
from .hermitian import HermitianMatrix
from .kernels import DEFAULT_ORDER, range_space_gram, szego_gram
from .operators import ST_NORM_FLOOR_SLACK, ST_ROUNDTRIP_GATE, from_spec, min_diagonal, st_construct, st_roundtrip_defect
from .partition import modulus_order, partition_carleson, partition_spectral
from .verify import SuiteConfig, run_suite, suite_passed


def _err(exc) -> None:
    print(f"error: {exc}", file=sys.stderr)


def _finite_float(text: str) -> float:
    """The argparse type of every number flag: a float that is neither NaN nor infinite."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def cmd_gram(args) -> int:
    if args.points is None:
        raise ValueError("gram requires --points")
    seq = io.load_points(args.points)

    if args.operator is None:
        gram = szego_gram(seq)
    else:
        spec = io.load_json(args.operator)
        if args.N is not None:
            spec["N"] = args.N
        op = from_spec(spec)
        gram = range_space_gram(op, seq)

    bounds = analyze(gram, riesz_tol=args.riesz_tol)
    if args.out:
        io.write_json_atomic(args.out, {"grammian": io.grammian_to_json(gram), "bounds": io.bounds_to_json(bounds)})
    if args.csv:
        io.write_csv_atomic(args.csv, io.matrix_csv_lines(gram.matrix))
    print(
        f"gram dim={gram.dim} space={gram.provenance.space} "
        f"B={bounds.bessel_B:.6g} A={bounds.frame_A:.6g} c={bounds.riesz_c:.6g} "
        f"riesz={bounds.is_riesz}"
    )
    return 0


def cmd_partition(args) -> int:
    if args.points is None or args.strategy is None:
        raise ValueError("partition requires --points and --strategy")
    seq = io.load_points(args.points)
    ordered = seq.subsequence(modulus_order(seq.values())) if args.sort_by_modulus else seq

    if args.strategy == "carleson":
        delta = args.delta_target
        part = partition_carleson(ordered, delta)
        met = all(c.carleson_inf is not None and c.carleson_inf >= delta for c in part.certificates)
        target_text = f"delta={delta}"
    else:
        part = partition_spectral(ordered, args.c_target)
        met = all(c.lambda_min >= args.c_target for c in part.certificates)
        target_text = f"c={args.c_target}"

    if args.out:
        io.write_json_atomic(args.out, io.partition_to_json(part))
    if args.csv:
        io.write_csv_atomic(args.csv, io.partition_csv_lines(seq, part))
    print(f"partition strategy={part.strategy} {target_text} classes={part.class_count} certified={met}")
    if not met:
        _err("a class certificate fell below its target")
        return 4
    return 0


def cmd_construct_st(args) -> int:
    if args.points is None or args.Q is None:
        raise ValueError("construct-st requires --points and --Q")
    seq = io.load_points(args.points)
    q = HermitianMatrix(io.matrix_from_json(io.load_json(args.Q)))
    delta = min_diagonal(q) if args.delta_target is None else args.delta_target

    op = st_construct(q, seq, args.N, delta)
    defect, min_norm_sq = st_roundtrip_defect(op, q, seq)

    if args.out:
        extra = {"roundtrip_defect": defect, "min_norm_sq": min_norm_sq, "delta": delta}
        io.write_json_atomic(args.out, {**io.operator_to_json(op), **extra})
    print(f"construct-st dim={op.dim} roundtrip={defect:.3e} min_norm_sq={min_norm_sq:.6f} delta={delta}")
    if defect > ST_ROUNDTRIP_GATE or min_norm_sq < delta - ST_NORM_FLOOR_SLACK:
        _err("construction certificate failed (roundtrip or norm floor)")
        return 4
    return 0


def cmd_verify(args) -> int:
    cfg = SuiteConfig(args.seed, args.trials, args.N, args.point_families, args.tolerances)
    results = run_suite(cfg)
    for r in results:
        status = "PASS" if r.failures == 0 else "FAIL"
        print(f"{r.check_id}: {status} failures={r.failures}/{r.trials} worst={r.worst_violation:.3e}")
    if args.out:
        io.write_json_atomic(args.out, io.suite_report_to_json(cfg, results))
    return 0 if suite_passed(results) else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyframes",
        description="Frame bounds, separation partitions, and operator constructions on the disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; explicit flags override it")
        sp.add_argument("--out", help="write the JSON report here (atomic)")

    def truncated(sp, order=DEFAULT_ORDER):
        common(sp)
        sp.add_argument("--N", type=int, default=order, help="truncation order")

    sp = sub.add_parser("gram", help="Grammian and frame bounds for a point file")
    truncated(sp, order=None)  # an operator spec's own N applies unless --N is given
    sp.add_argument("--points", help="JSON file of [re, im] pairs")
    sp.add_argument("--operator", help="operator spec JSON; switches to the range-space Grammian")
    sp.add_argument("--csv", help="also dump the matrix as CSV")
    sp.add_argument("--riesz-tol", type=_finite_float, default=DEFAULT_RIESZ_TOL, dest="riesz_tol")
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("partition", help="greedy separation partition with certificates")
    common(sp)
    sp.add_argument("--points")
    sp.add_argument("--strategy", choices=("carleson", "spectral"))
    sp.add_argument("--delta-target", type=_finite_float, default=0.1, dest="delta_target")
    sp.add_argument("--c-target", type=_finite_float, default=0.1, dest="c_target")
    sp.add_argument("--sort-by-modulus", action="store_true", dest="sort_by_modulus")
    sp.add_argument("--csv", help="per-point class assignments for plotting")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("construct-st", help="realize a PSD matrix as a projected-kernel Grammian")
    truncated(sp)
    sp.add_argument("--points")
    sp.add_argument("--Q", dest="Q", help="matrix JSON file with the target Grammian")
    sp.add_argument("--delta-target", type=_finite_float, default=None, dest="delta_target")
    sp.set_defaults(func=cmd_construct_st)

    suite = SuiteConfig()
    sp = sub.add_parser("verify", help="run the randomized identity suite")
    truncated(sp)
    sp.add_argument("--seed", type=int, default=suite.seed)
    sp.add_argument("--trials", type=int, default=suite.trials)
    sp.set_defaults(func=cmd_verify, tolerances=suite.tolerances, point_families=suite.point_families)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses across calls; nothing ever sets its defaults."""
    return build_parser()


# Config keys that no flag declares, passed as they are where the subcommand
# defaults them; ``SuiteConfig.validate`` checks them.
_CONFIG_ONLY = ("tolerances", "point_families")
_SCALAR_CHECKS = {int: io.json_int, _finite_float: io.json_number}


def _config_value(action: argparse.Action, value):
    """``value`` checked against the flag it predefines: a JSON integer, a finite JSON
    number, a JSON boolean for a switch, else a JSON string among any choices."""
    if action.type in _SCALAR_CHECKS:
        return _SCALAR_CHECKS[action.type](value, action.dest)
    want, kind = (bool, "boolean") if action.nargs == 0 else (str, "string")
    if type(value) is not want or value not in (action.choices or [value]):
        among = f" among {list(action.choices)}" if action.choices else ""
        raise ValueError(f"{action.dest!r} must be a JSON {kind}{among}, got {value!r}")
    return value


def _config_defaults(sp: argparse.ArgumentParser, cfg) -> dict:
    """The checked non-null values of config object ``cfg`` that ``sp`` declares."""
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    checks = {a.dest: partial(_config_value, a) for a in sp._actions if a.dest not in ("help", "config")}
    checks.update((key, lambda value: value) for key in _CONFIG_ONLY if sp.get_default(key) is not None)
    return {key: checks[key](value) for key, value in cfg.items() if key in checks and value is not None}


# Library errors that can only come from a bad spec or config, so exit 2 like other bad input.
_INPUT_ERRORS = (ConfigInvalidError, IndexOutOfRangeError, NegativeWeightError)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        if args.config:
            parser = build_parser()
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            sp = sub.choices[args.command]
            sp.set_defaults(**_config_defaults(sp, io.load_json(args.config)))
            args = parser.parse_args(argv)
        return args.func(args)
    except (HardyFramesError, np.linalg.LinAlgError) as exc:
        _err(exc)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 3
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _err(exc)
        return 2
    except MemoryError as exc:
        _err(f"the requested size does not fit in memory: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
