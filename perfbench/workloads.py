"""The three workloads: each cycle writes seeded inputs, then lists CLI invocations.

A cycle is a fixed sequence of ``hardyframes`` invocations whose inputs are
drawn from the cycle's seed. Every invocation carries the check that its
outputs must pass; the checks never call into the package.

Why these three (see README.md for the expected layer/metric pairings):

- ``verify_suite``: some 40 small operators at N=256; validation eigensolves and
  projection builders, no partitions, negligible I/O.
- ``operators_reports``: two halves. ``large_operators`` runs dense N=512
  operator builders and their eigensolves, with n x n-small reports.
  ``dense_reports`` runs n^2 and N^2 JSON/CSV writes next to a dense matrix
  read, so serialization and parsing dominate. The halves share one workload
  because the I/O half alone swings with the host's memory traffic; beside
  the compute half, and with longer runs, its median stays within bound.
- ``partition_large_n``: both greedy partitions on 600 points; the
  operators module never runs.

Sizes keep a cycle to 1.5-3 s so that a 36 s run holds 12-24 cycles and
its median rides out the host's drift (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs


@dataclass
class Invocation:
    """One CLI call; ``check`` gets the captured stdout and returns problems."""

    command: str
    argv: list[str]
    check: Callable[[str], list[str]]


def _write(workdir: Path, name: str, doc) -> str:
    path = workdir / name
    inputs.write_json(path, doc)
    return str(path)


def _st_inputs(seed: int, workdir: Path, count: int):
    z = inputs.separated_ring(inputs.rng(seed, "st_points"), count)
    q = inputs.psd_target(inputs.rng(seed, "st_q"), count)
    return z, q, _write(workdir, "st_points.json", inputs.points_doc(z)), _write(workdir, "q.json", inputs.matrix_doc(q))


def verify_suite(seed: int, workdir: Path, memo: dict, order: int = 256) -> list[Invocation]:
    out = str(workdir / "verify.json")

    def check(_stdout):
        problems, data = checks.verify_report(out, memo.get(seed))
        memo.setdefault(seed, data)
        return problems

    argv = ["verify", "--seed", str(seed), "--trials", "8", "--N", str(order), "--out", out]
    return [Invocation("verify", argv, check)]


def large_operators(seed: int, workdir: Path, memo: dict, order: int = 512, n_gram: int = 40, n_st: int = 12) -> list[Invocation]:
    _, _, st_points, q_path = _st_inputs(seed, workdir, n_st)
    z = inputs.uniform_disk(inputs.rng(seed, "gram_points"), n_gram, 0.9)
    points = _write(workdir, "gram_points.json", inputs.points_doc(z))
    blaschke = inputs.rng(seed, "blaschke")
    s = float(inputs.rng(seed, "weights").uniform(0.3, 0.9))
    specs = [
        {"type": "projection_phiH2", "inner": inputs.blaschke(blaschke)},
        {"type": "projection_model", "inner": inputs.blaschke(blaschke)},
        {"type": "c_plus_phi", "inner": inputs.blaschke(blaschke)},
        {"type": "diagonal", "weights": [float(w) for w in s ** np.arange(order)]},
    ]
    invocations = [
        Invocation(
            "construct_st",
            ["construct-st", "--points", st_points, "--Q", q_path, "--N", str(order)],
            lambda stdout: [] if f"dim={order} " in stdout else [f"construct-st did not report dim={order}"],
        )
    ]
    for spec in specs:
        spec_path = _write(workdir, f"op_{spec['type']}.json", spec)
        out = str(workdir / f"gram_{spec['type']}.json")
        want = checks.range_space_kernel(spec, z)
        invocations.append(
            Invocation(
                "gram_operator",
                ["gram", "--points", points, "--operator", spec_path, "--N", str(order), "--out", out],
                lambda _stdout, out=out, want=want: checks.gram_report(out, want, checks.OPERATOR_GRAM_TOL)[0],
            )
        )
    return invocations


def partition_large_n(seed: int, workdir: Path, memo: dict, n: int = 600) -> list[Invocation]:
    gen = inputs.rng(seed, "partition_points")
    n_cluster = 3 * n // 10
    z = np.concatenate([inputs.uniform_disk(gen, n - n_cluster, 0.95), inputs.boundary_clusters(gen, n_cluster)])
    z = z[gen.permutation(n)]
    points = _write(workdir, "partition_points.json", inputs.points_doc(z))
    invocations = []
    for strategy, flag in (("carleson", "--delta-target"), ("spectral", "--c-target")):
        out, csv = str(workdir / f"{strategy}.json"), str(workdir / f"{strategy}.csv")
        invocations.append(
            Invocation(
                f"partition_{strategy}",
                ["partition", "--points", points, "--strategy", strategy, flag, "0.3", "--out", out, "--csv", csv],
                lambda _stdout, out=out, csv=csv, strategy=strategy: checks.partition(out, csv, z, strategy, 0.3),
            )
        )
    return invocations


def dense_reports(seed: int, workdir: Path, memo: dict, n: int = 200, order: int = 256, n_gram: int = 40) -> list[Invocation]:
    z = inputs.uniform_disk(inputs.rng(seed, "dense_points"), n, 0.95)
    points = _write(workdir, "dense_points.json", inputs.points_doc(z))
    gram_out, gram_csv = str(workdir / "gram.json"), str(workdir / "gram.csv")

    def check_gram(_stdout):
        problems, matrix = checks.gram_report(gram_out, checks.szego(z), checks.CLOSED_FORM_TOL)
        return problems + ([] if matrix is None else checks.gram_csv(gram_csv, matrix))

    st_z, q, st_points, q_path = _st_inputs(seed, workdir, 12)
    st_out = str(workdir / "st.json")

    zg = inputs.uniform_disk(inputs.rng(seed, "gram_points"), n_gram, 0.9)
    gram_points = _write(workdir, "gram_points.json", inputs.points_doc(zg))
    p = inputs.dense_psd(inputs.rng(seed, "custom"), order)
    custom = _write(workdir, "custom.json", {"type": "custom", "matrix": inputs.matrix_doc(p)})
    v = checks.kernel_columns(zg, order)
    want = checks.normalized(v.conj().T @ p @ v)
    return [
        Invocation("gram", ["gram", "--points", points, "--out", gram_out, "--csv", gram_csv], check_gram),
        Invocation(
            "construct_st",
            ["construct-st", "--points", st_points, "--Q", q_path, "--N", str(order), "--out", st_out],
            lambda _stdout: checks.st_operator(st_out, st_z, q),
        ),
        Invocation(
            "gram_operator",
            ["gram", "--points", gram_points, "--operator", custom, "--N", str(order)],
            lambda stdout: checks.printed_bessel(stdout, want),
        ),
    ]


def operators_reports(seed: int, workdir: Path, memo: dict, ops: dict | None = None, reports: dict | None = None) -> list[Invocation]:
    """``large_operators`` then ``dense_reports``, each writing into its own subdirectory."""
    invocations = []
    for name, build, sizes in (("ops", large_operators, ops), ("reports", dense_reports, reports)):
        part = workdir / name
        part.mkdir(exist_ok=True)
        invocations += build(seed, part, memo, **(sizes or {}))
    return invocations


WORKLOADS = {
    "verify_suite": verify_suite,
    "operators_reports": operators_reports,
    "partition_large_n": partition_large_n,
}

# Small versions of each cycle, run once before timing so that code paths and
# lazy imports are warm. verify_suite warms up with the first measured cycle's
# own configuration, which also gives the byte-identity reference for it.
WARMUP_SIZES = {
    "verify_suite": {},
    "operators_reports": {"ops": {"order": 192, "n_gram": 6, "n_st": 4}, "reports": {"n": 30, "order": 64, "n_gram": 6}},
    "partition_large_n": {"n": 60},
}
