"""Command line entry points.

Four subcommands: ``gram`` (Grammian + frame bounds for a point file,
optionally in the range space of an operator), ``partition`` (greedy
separation partition with certificates), ``construct-st`` (realize a
prescribed PSD Grammian as a positive operator), and ``verify`` (the
randomized identity suite).

Exit codes: 0 success, 2 unusable input, 3 numerical or domain failure,
4 a produced certificate missed its target, 5 verification found
violations. A single JSON config file can predefine any flag; explicit
flags win.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .errors import ConfigInvalidError, HardyFramesError
from .frames import analyze
from .hermitian import HermitianMatrix
from .kernels import DEFAULT_ORDER, TruncationContext, check_buffer, range_space_gram, szego_gram
from .operators import from_spec, st_construct, st_roundtrip_defect
from .partition import partition_carleson, partition_spectral
from .verify import SuiteConfig, run_suite, suite_passed

ROUNDTRIP_GATE = 1e-6
NORM_FLOOR_SLACK = 1e-8


def _err(exc) -> None:
    print(f"error: {exc}", file=sys.stderr)


class _Options:
    """Config-file values overlaid by any explicitly passed flags.

    A config value of ``null`` counts as not given, like an omitted key.

    The ignored ``buffer`` setting is checked here, once for every subcommand.
    """

    def __init__(self, args):
        self.args = args
        self.cfg = {}
        if getattr(args, "config", None):
            self.cfg = io.load_json(args.config)
            if not isinstance(self.cfg, dict):
                raise ValueError("config file must contain a JSON object")
        check_buffer(self.get("buffer", 0))

    def get(self, key, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        return default if self.cfg.get(key) is None else self.cfg[key]


def cmd_gram(args) -> int:
    opt = _Options(args)
    points_path = opt.get("points")
    if points_path is None:
        raise ValueError("gram requires --points")
    seq = io.load_points(points_path)

    operator_path = opt.get("operator")
    if operator_path is None:
        gram = szego_gram(seq)
    else:
        spec = io.load_json(operator_path)
        order_flag = opt.get("N")
        if order_flag is not None:
            spec["N"] = int(order_flag)
        op = from_spec(spec)
        gram = range_space_gram(op, seq, TruncationContext(op.dim))

    riesz_tol = float(opt.get("riesz_tol", 1e-8))
    bounds = analyze(gram, riesz_tol=riesz_tol)
    payload = {"grammian": io.grammian_to_json(gram), "bounds": io.bounds_to_json(bounds)}

    out = opt.get("out")
    if out:
        io.write_json_atomic(out, payload)
    csv = opt.get("csv")
    if csv:
        io.write_csv_atomic(csv, io.matrix_csv_lines(gram.matrix))
    print(
        f"gram dim={gram.dim} space={gram.provenance.space} "
        f"B={bounds.bessel_B:.6g} A={bounds.frame_A:.6g} c={bounds.riesz_c:.6g} "
        f"riesz={bounds.is_riesz}"
    )
    return 0


def cmd_partition(args) -> int:
    opt = _Options(args)
    points_path = opt.get("points")
    if points_path is None:
        raise ValueError("partition requires --points")
    seq = io.load_points(points_path)
    strategy = opt.get("strategy")
    if strategy not in ("carleson", "spectral"):
        raise ValueError(f"strategy must be carleson or spectral, got {strategy!r}")

    if strategy == "carleson":
        delta = float(opt.get("delta_target", 0.1))
        part = partition_carleson(seq, delta, bool(opt.get("sort_by_modulus", False)))
        met = all(c.carleson_inf is not None and c.carleson_inf >= delta for c in part.certificates)
        target_text = f"delta={delta}"
    else:
        c_target = float(opt.get("c_target", 0.1))
        gram = szego_gram(seq)
        part = partition_spectral(gram, c_target)
        met = all(c.lambda_min >= c_target for c in part.certificates)
        target_text = f"c={c_target}"

    out = opt.get("out")
    if out:
        io.write_json_atomic(out, io.partition_to_json(part))
    csv = opt.get("csv")
    if csv:
        io.write_csv_atomic(csv, io.partition_csv_lines(seq, part))
    print(f"partition strategy={part.strategy} {target_text} classes={part.class_count} certified={met}")
    if not met:
        _err("a class certificate fell below its target")
        return 4
    return 0


def cmd_construct_st(args) -> int:
    opt = _Options(args)
    points_path = opt.get("points")
    q_path = opt.get("Q")
    if points_path is None or q_path is None:
        raise ValueError("construct-st requires --points and --Q")
    seq = io.load_points(points_path)
    qm = io.matrix_from_json(io.load_json(q_path))
    order = int(opt.get("N", DEFAULT_ORDER))
    ctx = TruncationContext(order)
    delta_raw = opt.get("delta_target")
    delta = float(delta_raw) if delta_raw is not None else float(np.real(np.diagonal(qm)).min())

    q = HermitianMatrix(qm)
    op = st_construct(q, seq, ctx, delta)
    defect, min_norm_sq = st_roundtrip_defect(op, q, seq, ctx)

    out = opt.get("out")
    if out:
        payload = io.operator_to_json(op)
        payload["roundtrip_defect"] = defect
        payload["min_norm_sq"] = min_norm_sq
        payload["delta"] = delta
        io.write_json_atomic(out, payload)
    print(f"construct-st dim={op.dim} roundtrip={defect:.3e} min_norm_sq={min_norm_sq:.6f} delta={delta}")
    if defect > ROUNDTRIP_GATE or min_norm_sq < delta - NORM_FLOOR_SLACK:
        _err("construction certificate failed (roundtrip or norm floor)")
        return 4
    return 0


def cmd_verify(args) -> int:
    opt = _Options(args)
    tolerances = opt.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError("tolerances must be a JSON object")
    families = opt.get("point_families")
    kwargs = {}
    if families:
        kwargs["point_families"] = tuple(families)
    cfg = SuiteConfig(
        seed=int(opt.get("seed", 42)),
        trials=int(opt.get("trials", 20)),
        order=int(opt.get("N", DEFAULT_ORDER)),
        tolerances={k: float(v) for k, v in tolerances.items()},
        **kwargs,
    )
    results = run_suite(cfg)
    for r in results:
        status = "PASS" if r.failures == 0 else "FAIL"
        print(f"{r.check_id}: {status} failures={r.failures}/{r.trials} worst={r.worst_violation:.3e}")
    out = opt.get("out")
    if out:
        io.write_json_atomic(out, io.suite_report_to_json(cfg, results))
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
        sp.add_argument("--N", type=int, default=None, help="truncation order")
        sp.add_argument("--buffer", type=int, default=None, help="ignored (a negative value exits 2)")

    sp = sub.add_parser("gram", help="Grammian and frame bounds for a point file")
    common(sp)
    sp.add_argument("--points", help="JSON file of [re, im] pairs")
    sp.add_argument("--operator", help="operator spec JSON; switches to the range-space Grammian")
    sp.add_argument("--csv", help="also dump the matrix as CSV")
    sp.add_argument("--riesz-tol", type=float, default=None, dest="riesz_tol")
    sp.set_defaults(func=cmd_gram)

    sp = sub.add_parser("partition", help="greedy separation partition with certificates")
    common(sp)
    sp.add_argument("--points")
    sp.add_argument("--strategy", choices=("carleson", "spectral"))
    sp.add_argument("--delta-target", type=float, default=None, dest="delta_target")
    sp.add_argument("--c-target", type=float, default=None, dest="c_target")
    sp.add_argument("--sort-by-modulus", action="store_true", default=None, dest="sort_by_modulus")
    sp.add_argument("--csv", help="per-point class assignments for plotting")
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("construct-st", help="realize a PSD matrix as a projected-kernel Grammian")
    common(sp)
    sp.add_argument("--points")
    sp.add_argument("--Q", dest="Q", help="matrix JSON file with the target Grammian")
    sp.add_argument("--delta-target", type=float, default=None, dest="delta_target")
    sp.set_defaults(func=cmd_construct_st)

    sp = sub.add_parser("verify", help="run the randomized identity suite")
    common(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        return args.func(args)
    except ConfigInvalidError as exc:
        _err(exc)
        return 2
    except (HardyFramesError, np.linalg.LinAlgError) as exc:
        _err(exc)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _err(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
