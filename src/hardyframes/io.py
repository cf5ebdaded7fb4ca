"""JSON / CSV serialization and atomic file writes.

Complex scalars serialize as [re, im] pairs, matrices as row-major pair
arrays. CSV matrix cells use the human-readable "re+imj" form. All file
writes go through a temp-file-plus-rename so an interrupted run never
leaves a partial artifact behind.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .geometry import PointSequence


def pair(z) -> list[float]:
    zc = complex(z)
    return [float(zc.real), float(zc.imag)]


def from_pair(p) -> complex:
    return complex(float(p[0]), float(p[1]))


def matrix_to_json(m) -> dict:
    a = np.asarray(getattr(m, "matrix", m), dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return {"dim": int(a.shape[0]), "entries": [pair(v) for v in a.ravel()]}


def matrix_from_json(d) -> np.ndarray:
    n = int(d["dim"])
    entries = d["entries"]
    if len(entries) != n * n:
        raise ValueError(f"matrix of dim {n} needs {n * n} entries, got {len(entries)}")
    flat = np.array([from_pair(p) for p in entries], dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(f"matrix entry {int(bad[0])} is {flat[bad[0]]}; entries must be finite")
    return flat.reshape(n, n)


def matrix_csv_lines(m) -> list[str]:
    a = np.asarray(getattr(m, "matrix", m), dtype=np.complex128)
    return [
        ",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row)
        for row in a
    ]


def points_to_json(seq: PointSequence) -> dict:
    return {"points": [pair(z) for z in seq.points], "labels": list(seq.labels)}


def points_from_json(data) -> PointSequence:
    """Accept either a bare array of [re, im] pairs or a labeled wrapper."""
    if isinstance(data, dict):
        raw = data["points"]
        labels = tuple(int(l) for l in data.get("labels", ()))
    else:
        raw, labels = data, ()
    pts = tuple(from_pair(p) for p in raw)
    if not pts:
        raise ValueError("point file contains no points")
    return PointSequence(pts, labels)


def load_points(path) -> PointSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return points_from_json(json.load(fh))


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def grammian_to_json(g) -> dict:
    prov = g.provenance
    return {
        "matrix": matrix_to_json(g.matrix),
        "normalized": bool(g.normalized),
        "provenance": {
            "space": prov.space,
            "operator_id": prov.operator_id,
            "points": [pair(z) for z in prov.points],
            "labels": list(prov.labels),
            "truncation_error": float(prov.truncation_error),
            "transform": prov.transform,
        },
    }


def bounds_to_json(report) -> dict:
    return dataclasses.asdict(report)


def operator_to_json(op) -> dict:
    out = matrix_to_json(op.matrix)
    out["id"] = op.id
    out["kind"] = op.kind
    out["contraction"] = bool(op.contraction)
    return out


def partition_to_json(p) -> dict:
    return {
        "strategy": p.strategy,
        "targets": {k: float(v) for k, v in p.targets.items()},
        "class_count": p.class_count,
        "classes": [list(cls) for cls in p.classes],
        "certificates": [
            {
                "labels": list(c.labels),
                "size": c.size,
                "lambda_min": c.lambda_min,
                "carleson_inf": c.carleson_inf,
            }
            for c in p.certificates
        ],
    }


def partition_csv_lines(seq: PointSequence, p) -> list[str]:
    """One row per point: label, class index, modulus, argument."""
    class_of = {}
    for k, cls in enumerate(p.classes):
        for lab in cls:
            class_of[lab] = k
    lines = ["label,class,modulus,argument"]
    for lab, z in zip(seq.labels, seq.points):
        lines.append(f"{lab},{class_of[lab]},{abs(z):.17g},{np.angle(z):.17g}")
    return lines


def suite_report_to_json(cfg, results) -> dict:
    return {
        "config": {
            "seed": cfg.seed,
            "trials": cfg.trials,
            "order": cfg.order,
            "point_families": list(cfg.point_families),
            "tolerances": {k: float(v) for k, v in sorted(cfg.tolerances.items())},
        },
        "results": [
            {
                "check_id": r.check_id,
                "trials": r.trials,
                "failures": r.failures,
                "worst_violation": r.worst_violation,
                "witness": r.witness,
            }
            for r in results
        ],
        "passed": all(r.failures == 0 for r in results),
    }


def write_text_atomic(path, text: str) -> None:
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)


def write_json_atomic(path, payload) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


def write_csv_atomic(path, lines) -> None:
    write_text_atomic(path, "\n".join(lines) + "\n")
