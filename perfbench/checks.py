"""Output checks that recompute every claim from the benchmark's own formulas.

Nothing here calls into the package: Grammians come from the closed-form
kernel, Blaschke products are evaluated from their zeros, and partition
certificates are rebuilt from scratch. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from inputs import log_rho

# Closed-form Gram entries have modulus <= 1; the package symmetrizes them, which
# moves each by at most a few ulps.
CLOSED_FORM_TOL = 1e-12
# Range-space Grammians come from N x N operators at N >= 192 and |z| <= 0.9, where
# the truncation tail |z|^(2N) is below 1e-17; 1e-8 leaves room for rounding.
OPERATOR_GRAM_TOL = 1e-8
# The construction's own gate on the roundtrip defect.
ST_ROUNDTRIP_TOL = 1e-6
# Greedy acceptance uses a 1e-9 log-space margin; recomputed certificates must
# clear the target up to summation-order rounding.
CERTIFICATE_SLACK = 1e-10
# The CLI prints bounds with six significant digits.
PRINTED_REL_TOL = 1e-5


def matrix_of(doc: dict) -> np.ndarray:
    n = int(doc["dim"])
    flat = np.asarray(doc["entries"], dtype=np.float64)
    if flat.shape != (n * n, 2):
        raise ValueError(f"matrix of dim {n} has entries of shape {flat.shape}")
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(n, n)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def blaschke_values(inner: dict, z: np.ndarray) -> np.ndarray:
    """phi(z) = z^m * prod_k (|a_k|/a_k)(a_k - z)/(1 - conj(a_k) z)."""
    out = z ** int(inner.get("m", 0))
    for re_, im_ in inner["zeros"]:
        a = complex(re_, im_)
        out = out * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
    return out


def szego(z: np.ndarray) -> np.ndarray:
    """Normalized Hardy kernel Grammian, entry (i, j) = <k_j, k_i> / (||k_i|| ||k_j||)."""
    s = np.sqrt(1.0 - np.abs(z) ** 2)
    g = np.outer(s, s) / (1.0 - z[:, None] * np.conj(z)[None, :])
    np.fill_diagonal(g, 1.0)
    return g


def normalized(k: np.ndarray) -> np.ndarray:
    d = np.sqrt(np.real(np.diagonal(k)))
    return k / np.outer(d, d)


def range_space_kernel(spec: dict, z: np.ndarray) -> np.ndarray:
    """Closed-form normalized range-space Grammian of the operators the workloads build.

    With K(z, w) = 1/(1 - z conj w): phi H^2 has kernel phi(z) conj phi(w) K, its
    complement (1 - phi(z) conj phi(w)) K, constants + phi H^2 adds
    v(z) conj v(w) with v = (1 - conj phi(0) phi) / sqrt(1 - |phi(0)|^2), and
    geometric weights s^n give 1/(1 - s z conj w).
    """
    zz = z[:, None] * np.conj(z)[None, :]
    kind = spec["type"]
    if kind == "diagonal":
        w = np.asarray(spec["weights"], dtype=np.float64)
        return normalized(1.0 / (1.0 - w[1] * zz))
    phi = blaschke_values(spec["inner"], z)
    pp = phi[:, None] * np.conj(phi)[None, :]
    if kind == "projection_phiH2":
        return normalized(pp / (1.0 - zz))
    if kind == "projection_model":
        return normalized((1.0 - pp) / (1.0 - zz))
    if kind == "c_plus_phi":
        phi0 = complex(blaschke_values(spec["inner"], np.zeros(1, dtype=np.complex128))[0])
        v = 1.0 - np.conj(phi0) * phi
        return normalized(pp / (1.0 - zz) + np.outer(v, np.conj(v)) / (1.0 - abs(phi0) ** 2))
    raise ValueError(f"no closed form for operator type {kind!r}")


def kernel_columns(z: np.ndarray, order: int) -> np.ndarray:
    """Unit-norm truncated kernel vectors (conj z)^n / ||.||, one column per point."""
    v = np.conj(z)[None, :] ** np.arange(order)[:, None]
    return v / np.linalg.norm(v, axis=0, keepdims=True)


def _deviation(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    dev = float(np.abs(got - want).max())
    if not dev <= tol:
        return [f"{name}: deviation {dev:.3e} above {tol:.0e}"]
    return []


def gram_report(path, want: np.ndarray, tol: float) -> tuple[list[str], np.ndarray | None]:
    """Compare the Grammian in a ``gram --out`` report with ``want``."""
    try:
        got = matrix_of(load(path)["grammian"]["matrix"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"gram report {path}: {exc}"], None
    return _deviation("gram matrix", got, want, tol), got


def gram_csv(path, matrix: np.ndarray) -> list[str]:
    """The CSV dump must hold the same doubles as the JSON report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [[complex(cell) for cell in line.split(",")] for line in fh.read().splitlines()]
        got = np.array(rows, dtype=np.complex128)
    except (OSError, ValueError) as exc:
        return [f"gram csv {path}: {exc}"]
    return _deviation("gram csv", got, matrix, 0.0)


def printed_bessel(stdout: str, want: np.ndarray) -> list[str]:
    """The printed Bessel bound B must equal lambda_max of the expected Grammian."""
    match = re.search(r"\bB=(\S+)", stdout)
    if match is None:
        return ["gram printed no Bessel bound"]
    got = float(match.group(1))
    lam = float(np.linalg.eigvalsh(want)[-1])
    if not abs(got - lam) <= PRINTED_REL_TOL * lam:
        return [f"printed B={got} but lambda_max is {lam:.6g}"]
    return []


def partition(json_path, csv_path, z: np.ndarray, strategy: str, target: float) -> list[str]:
    """Classes tile the labels, agree with the CSV, and clear the target when recomputed."""
    try:
        doc = load(json_path)
        classes = [[int(lab) for lab in cls] for cls in doc["classes"]]
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        csv_class = {int(r["label"]): int(r["class"]) for r in rows}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"partition outputs: {exc}"]
    problems = []
    labels = sorted(lab for cls in classes for lab in cls)
    if labels != list(range(len(z))):
        problems.append("classes do not tile the point labels exactly once")
        return problems
    if doc.get("class_count") != len(classes):
        problems.append("class_count disagrees with the class list")
    if len(rows) != len(z) or any(csv_class.get(lab) != k for k, cls in enumerate(classes) for lab in cls):
        problems.append("CSV class assignments disagree with the JSON report")
    for k, cls in enumerate(classes):
        w = z[cls]
        if strategy == "carleson":
            worst = float(np.exp(log_rho(w).sum(axis=1).min())) if len(cls) > 1 else 1.0
        else:
            worst = float(np.linalg.eigvalsh(szego(w))[0])
        if not worst >= target - CERTIFICATE_SLACK:
            problems.append(f"class {k} ({len(cls)} points) recomputes to {worst:.6g} < {target}")
    return problems


def verify_report(path, reference: bytes | None) -> tuple[list[str], bytes | None]:
    """The suite passed; with a reference, the report bytes must match it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
    except (OSError, ValueError) as exc:
        return [f"verify report {path}: {exc}"], None
    problems = []
    if doc.get("passed") is not True:
        problems.append("verify report does not say passed")
    if reference is not None and data != reference:
        problems.append("verify reports for the same seed differ")
    return problems, data


def st_operator(path, z: np.ndarray, q: np.ndarray) -> list[str]:
    """Recompute the realized Grammian (P k~_j, P k~_i) from the written operator."""
    try:
        p = matrix_of(load(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"operator report {path}: {exc}"]
    w = p @ kernel_columns(z, p.shape[0])
    return _deviation("ST roundtrip", w.conj().T @ w, q, ST_ROUNDTRIP_TOL)
