"""JSON / CSV serialization and atomic file writes.

Complex scalars serialize as [re, im] pairs, matrices as row-major pair
arrays, all through the one codec ``to_pairs``/``from_pairs``. CSV matrix
cells use the human-readable "re+imj" form. Every other scalar read from a
file goes through ``json_int`` or ``json_number``, which never convert types.

Reports are written as one line of JSON with compact separators: with
``indent`` set, CPython's ``json`` falls back from its C encoder to the
pure-Python one, which made writing an N=256 operator report most of a
command's run time. Numbers (shortest round-trip ``repr``), keys and their
order are the same either way; ``python -m json.tool`` indents a report
for reading.

The matrices in reports (``grammian_to_json``, ``operator_to_json``) stay
complex arrays until ``write_json_atomic``. It writes each one as the
text ``json.dumps`` gives for its ``to_pairs`` list, so the bytes are the
same as when reports held those lists, but it formats each distinct
magnitude once and adds the sign as text: ``repr(-x)`` is
``"-" + repr(x)`` for every finite double, signed zeros included, and a
Hermitian matrix holds each magnitude about twice. The rest of the
payload goes through the C encoder, and the matrix text is spliced in
where it left a marker. Non-finite entries, which have no JSON spelling,
raise ``ValueError``. ``matrix_to_json`` still returns plain lists.
``matrix_csv_lines`` formats its cells the same way, one ``%.17g`` per
distinct magnitude with the signs added as text, which holds for ``%.17g``
as for ``repr``.

All file writes go through a uniquely named temp file in the target
directory and a rename, so an interrupted run never leaves a partial
artifact behind and concurrent writers never share a temp file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .geometry import PointSequence


def _is_number_type(t: type) -> bool:
    # bool subclasses int but is not a JSON number; numpy's float64 subclasses float
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a float or boolean), else ``ValueError`` naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what!r} must be a JSON integer, got {value!r}")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (an int or float, not a
    string or boolean; NaN, infinities and huge ints fail the bound), else ``ValueError``."""
    if _is_number_type(type(value)) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{what!r} must be a finite JSON number, got {value!r}")


def to_pairs(values) -> list:
    """[re, im] float pairs of complex values of any shape; a matrix gives rows of pairs."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).tolist()


def from_pairs(raw) -> np.ndarray:
    """Complex vector of a list of [re, im] pairs, each a list (or tuple) of
    exactly two finite JSON numbers (no strings or booleans, which numpy
    would convert), else ``ValueError``; an empty list gives an empty
    vector. Entry k is bitwise ``complex(float(re), float(im))``, signed
    zeros included."""
    try:
        if not (set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) <= {2}):
            raise ValueError("expected a list of [re, im] pairs, found an entry that is not a pair")
        if not all(map(_is_number_type, set(map(type, chain.from_iterable(raw))))):
            raise ValueError("pairs must hold JSON numbers, not strings or booleans")
        z = np.fromiter(chain.from_iterable(raw), np.float64, count=2 * len(raw)).view(np.complex128)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"expected a list of [re, im] pairs of numbers: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ValueError(f"entry {int(bad[0])} is {z[bad[0]]}, not a finite complex number; pairs must be finite")
    return z


def _matrix_doc(m) -> dict:
    """``{"dim", "entries"}`` of a square matrix, the entries a flat complex
    array in row-major order that ``write_json_atomic`` writes as pairs."""
    a = np.asarray(getattr(m, "matrix", m), dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return {"dim": int(a.shape[0]), "entries": a.ravel()}


def matrix_to_json(m) -> dict:
    doc = _matrix_doc(m)
    doc["entries"] = to_pairs(doc["entries"])
    return doc


def matrix_from_json(d) -> np.ndarray:
    n = json_int(d["dim"], "dim")
    if n < 1:
        raise ValueError(f"'dim' must be at least 1, got {n}")
    entries = d["entries"]
    if len(entries) != n * n:
        raise ValueError(f"matrix of dim {n} needs {n * n} entries, got {len(entries)}")
    return from_pairs(entries).reshape(n, n)


# The text before a number in a CSV row, indexed by 2 * (it is an imaginary
# part) + (it is negative), plus 4 for the real part that starts a row.
_CSV_SEPARATORS = np.array(["j,", "j,-", "+", "-", "", "-"], dtype=object)


def matrix_csv_lines(m) -> list[str]:
    """One ``"%.17g%+.17gj"`` cell per entry, comma-separated rows, with one
    ``%.17g`` per distinct magnitude (a NaN is printed without its sign)."""
    a = np.ascontiguousarray(getattr(m, "matrix", m), dtype=np.complex128)
    rows, cols = a.shape
    if not a.size:
        return [""] * rows
    f = a.reshape(-1).view(np.float64)  # re, im interleaved
    texts = _magnitude_texts(f, float.__format__, ".17g")
    kind = (np.signbit(f) & ~np.isnan(f)) + np.tile([0, 2], a.size)
    kind[:: 2 * cols] += 4
    parts = [None] * (2 * f.size)
    parts[0::2] = _CSV_SEPARATORS[kind].tolist()
    parts[1::2] = texts
    width = 4 * cols
    return ["".join(parts[r * width : (r + 1) * width]) + "j" for r in range(rows)]


def points_from_json(data) -> PointSequence:
    """Accept either a bare array of [re, im] pairs or a labeled wrapper."""
    if isinstance(data, dict):
        raw = data["points"]
        labels = tuple(json_int(l, "labels") for l in data.get("labels", ()))
    else:
        raw, labels = data, ()
    return PointSequence(from_pairs(raw), labels)


def load_points(path) -> PointSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return points_from_json(json.load(fh))


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def grammian_to_json(g) -> dict:
    prov = g.provenance
    return {
        "matrix": _matrix_doc(g.matrix),
        "normalized": bool(g.normalized),
        "provenance": {
            "space": prov.space,
            "operator_id": prov.operator_id,
            "points": to_pairs(prov.points),
            "labels": list(prov.labels),
            "truncation_error": float(prov.truncation_error),
            "transform": prov.transform,
        },
    }


def bounds_to_json(report) -> dict:
    return dataclasses.asdict(report)


def operator_to_json(op) -> dict:
    out = _matrix_doc(op.matrix)
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
    # np.angle over the array gives the scalar call's bits; np.abs would not
    # match abs() on a Python complex, so the modulus stays a per-point abs.
    angles = np.angle(seq.values()).tolist()
    lines = ["label,class,modulus,argument"]
    lines += [
        f"{lab},{class_of[lab]},{abs(z):.17g},{arg:.17g}" for lab, z, arg in zip(seq.labels, seq.points, angles)
    ]
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
    """Replace ``path`` with ``text`` in one rename.

    The text goes to a ``tempfile.mkstemp`` file beside the target, which
    is then renamed over it; on any failure the temp file is removed. The
    final file gets the mode a plain open would give, 0o666 & ~umask,
    rather than mkstemp's 0o600.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=target.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _umask() -> int:
    # The umask can only be read by setting it; restore it at once.
    mask = os.umask(0o22)
    os.umask(mask)
    return mask


# The text before a number in a [[re,im],...] list, indexed by
# 2 * (it is an imaginary part) + (it is negative).
_PAIR_SEPARATORS = np.array(["],[", "],[-", ",", ",-"], dtype=object)


def _pairs_text(z: np.ndarray) -> str:
    """``json.dumps(to_pairs(z), separators=(",", ":"))`` for a finite 1-D
    complex array, with one ``repr`` per distinct magnitude."""
    f = z.view(np.float64)  # re, im interleaved
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        k = int(bad[0]) // 2
        raise ValueError(f"entry {k} is {z[k]}, not a finite complex number; reports hold finite numbers only")
    if not f.size:
        return "[]"
    texts = _magnitude_texts(f, float.__repr__)
    kind = np.signbit(f) + np.tile([0, 2], z.size)
    parts = [None] * (2 * f.size)
    parts[0::2] = _PAIR_SEPARATORS[kind].tolist()
    parts[0] = "[[-" if kind[0] else "[["
    parts[1::2] = texts
    parts.append("]]")
    del texts, kind  # freed before the text is built, to keep peak RSS down
    return "".join(parts)


def _magnitude_texts(f: np.ndarray, fmt, *args) -> list[str]:
    """``fmt(abs(x), *args)`` for each x of the float array ``f``, called
    once per distinct magnitude; its temporaries (3 MB at N=256) are freed
    on return."""
    mags, inv = np.unique(np.abs(f), return_inverse=True)
    texts = np.array(list(map(fmt, mags.tolist(), *map(repeat, args))), dtype=object)
    return texts[inv].tolist()


# What the encoder writes for each array; no report string holds a NUL.
_ARRAY_MARKER = "\0complex-array\0"


def write_json_atomic(path, payload) -> None:
    """Write ``payload`` as one line of compact JSON.

    A 1-D complex128 array anywhere in it is written as its ``to_pairs``
    list would be (see the module docstring).
    """
    arrays = []

    def marker(obj):
        if not (isinstance(obj, np.ndarray) and obj.dtype == np.complex128 and obj.ndim == 1):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _ARRAY_MARKER

    pieces = json.dumps(payload, separators=(",", ":"), default=marker).split(json.dumps(_ARRAY_MARKER))
    if len(pieces) != len(arrays) + 1:
        raise ValueError("a report string equals the array marker")
    texts = [_pairs_text(np.ascontiguousarray(a)) for a in arrays] + ["\n"]
    write_text_atomic(path, "".join(chain.from_iterable(zip(pieces, texts))))


def write_csv_atomic(path, lines) -> None:
    write_text_atomic(path, "\n".join(lines) + "\n")
