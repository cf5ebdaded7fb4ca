"""JSON / CSV serialization and atomic file writes.

Complex scalars serialize as [re, im] pairs, matrices as row-major pair
arrays, all through the one codec ``to_pairs``/``from_pairs``. CSV matrix
cells use the human-readable "re+imj" form. Every number written, in a
report or a CSV, is its shortest round-trip ``repr``. Every other scalar
read from a file goes through ``json_int`` or ``json_number``, which never
convert types.

Reports are written as one line of JSON with compact separators: with
``indent`` set, CPython's ``json`` falls back from its C encoder to the
pure-Python one, which made writing an N=256 operator report most of a
command's run time. Numbers, keys and their order are the same either
way; ``python -m json.tool`` indents a report for reading.

The matrices in reports (``grammian_to_json``, ``operator_to_json``) stay
complex arrays until ``write_json_atomic``. It writes each one as the
text ``json.dumps`` gives for its ``to_pairs`` list, so the bytes are the
same as when reports held those lists, and splices it into what the C
encoder writes for the rest of the payload where it left a marker.
Non-finite entries, which have no JSON spelling, raise ``ValueError``.
``matrix_to_json`` still returns plain lists. ``matrix_csv_lines`` and
``partition_csv_lines`` write the same text for each number.

Those numbers come from one vectorized kernel (``_decimal``, laid out as
text by ``_texts``), not a formatter call each. For a magnitude x in the
band 1e-29 <= x < 1e17, x * 10**k with k = 16 - floor(log10 x) in 0..45
lies in [1e16, 1e17), and Dekker's error-free product, with 10**k held
exactly as a sum of two doubles, gives it as an int64 and a fraction
that is off by at most 4e-15. ``repr`` takes the nearest multiple of
100, 10 or 1 that lies within half the gap to the neighbouring double,
the shortest digits that read back as x. A comparison within 1e-9 of its
threshold (ties and round-trip boundaries), a magnitude outside the band,
a subnormal and a non-finite CSV entry go to ``float.__repr__`` instead,
so the text is byte for byte what it gives; zero is written directly.
Signs are added as text: ``repr(-x)`` is ``"-" + repr(x)`` for every
double but NaN, whose sign ``repr`` drops. The kernel works on blocks of
``_BLOCK`` numbers, each temporary under 128 KiB, and writes the text
into one anonymous map, which goes back to the system when freed.

All file writes go through a uniquely named temp file in the target
directory and a rename, so an interrupted run never leaves a partial
artifact behind and concurrent writers never share a temp file.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
import os
import sys
import tempfile
from functools import lru_cache
from itertools import chain
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


# The text before a number in a CSV matrix, indexed by 2 * (it is an
# imaginary part) + (it is negative), plus 4 for the real part that starts a
# row and 6 for the one that starts the matrix.
_CSV_SEPARATORS = ("j,", "j,-", "+", "-", "j\n", "j\n-", "", "-")


def matrix_csv_lines(m) -> list[str]:
    """One ``re+imj`` cell per entry, comma-separated rows, each number its
    shortest round-trip ``repr`` (a NaN is printed without its sign), the
    text of the JSON entry; the numbers are formatted by ``_texts``."""
    a = np.ascontiguousarray(getattr(m, "matrix", m), dtype=np.complex128)
    rows, cols = a.shape
    if not a.size:
        return [""] * rows
    f = a.reshape(-1).view(np.float64)  # re, im interleaved
    kind = (np.signbit(f) & ~np.isnan(f)).view(np.uint8) + np.tile(np.array([0, 2], np.uint8), a.size)
    kind[:: 2 * cols] += 4
    kind[0] += 2
    text = _texts(f, kind, _CSV_SEPARATORS, "j")
    breaks = np.flatnonzero(text == ord("\n")).tolist()  # decoded a row at a time, never whole
    return [str(text[a:b], "ascii") for a, b in zip([0] + [i + 1 for i in breaks], breaks + [text.size])]


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


# The text before a modulus (a new line, or nothing for the first point) and
# before a non-negative or a negative argument.
_POINT_SEPARATORS = ("\n", ",", ",-", "")


def partition_csv_lines(seq: PointSequence, p) -> list[str]:
    """One row per point: label, class index, and modulus and argument as
    their shortest round-trip ``repr``, formatted by ``_texts``."""
    class_of = {}
    for k, cls in enumerate(p.classes):
        for lab in cls:
            class_of[lab] = k
    # np.angle over the array gives the scalar call's bits; np.abs would not
    # match abs() on a Python complex, so the modulus stays a per-point abs.
    f = np.empty(2 * len(seq.points))
    f[0::2] = list(map(abs, seq.points))
    f[1::2] = np.angle(seq.values())
    kind = np.signbit(f).view(np.uint8) + np.tile(np.array([0, 1], np.uint8), len(seq.points))
    kind[:1] = 3
    numbers = str(_texts(f, kind, _POINT_SEPARATORS), "ascii").split("\n")
    return ["label,class,modulus,argument"] + [f"{lab},{class_of[lab]},{t}" for lab, t in zip(seq.labels, numbers)]


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
        "passed": all(r.passed for r in results),
    }


def _write_atomic(path, chunks) -> None:
    """Replace ``path`` with the bytes-like ``chunks``, written in turn, in one rename.

    They go to a ``tempfile.mkstemp`` file beside the target, which is then
    renamed over it; on any failure, making a chunk included, the temp file
    is removed. The final file gets the mode a plain open would give,
    0o666 & ~umask, rather than mkstemp's 0o600.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=target.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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


# The text before a number in a [[re,im],...] list, indexed by 2 * (it is an
# imaginary part) + (it is negative), plus 4 for the first.
_PAIR_SEPARATORS = ("],[", "],[-", ",", ",-", "[[", "[[-")


def _pairs_text(z: np.ndarray):
    """``json.dumps(to_pairs(z), separators=(",", ":"))`` for a finite 1-D
    complex array, as ASCII bytes (a uint8 array), the numbers formatted by
    ``_texts``."""
    f = z.view(np.float64)  # re, im interleaved
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        k = int(bad[0]) // 2
        raise ValueError(f"entry {k} is {z[k]}, not a finite complex number; reports hold finite numbers only")
    if not f.size:
        return np.frombuffer(b"[]", np.uint8)
    kind = np.signbit(f).view(np.uint8) + np.tile(np.array([0, 2], np.uint8), z.size)
    kind[0] += 4
    return _texts(f, kind, _PAIR_SEPARATORS, "]]")


# Decimal text of float64 arrays without a formatter call per number (see the
# module docstring). _decimal finds the digits of x in the band
# 1e-29 <= x < 1e17, where x * 10**k, k = 16 - floor(log10 x) in 0.._BAND,
# lies in [1e16, 1e17); _texts lays them out as text.
_P10 = 10 ** np.arange(19, dtype=np.int64)
_BAND = 45  # 10**k is a sum of two doubles exactly up to here: 5**45 < 2**105
_EPS = 1e-9  # closer than this to a threshold, a comparison is left to the exact formatter
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_BLOCK = 4000  # numbers per block; the largest temporary, 32 bytes a number, stays under 128 KiB
_EMIN = 16 - _BAND  # the least decimal exponent in the band
_SLOW = (17 - _EMIN + 1) * 18  # the layout key of a number left to the exact formatter


@lru_cache(maxsize=None)
def _powers_of_ten():
    """10**k = hi + lo exactly for k in 0.._BAND, and hi split into two 26-bit halves."""
    hi = np.array([float(10**k) for k in range(_BAND + 1)])
    lo = np.array([float(10**k - int(h)) for k, h in enumerate(hi.tolist())])
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo


@lru_cache(maxsize=None)
def _digit_words():
    """The four zero-padded ASCII digits of 0..9999, one uint32 each."""
    v = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return (v + ord("0")).astype(np.uint8).view(np.uint32).ravel()


@lru_cache(maxsize=None)
def _layouts():
    """Per layout key (E - _EMIN) * 18 + p of p digits d with decimal
    exponent E, as ``repr`` writes them:

    - ``div``, ``mul``: m = d + d // div * mul puts a 0 digit where the
      point goes, and the zeros of an integer;
    - ``mask``, ``over`` (three uint64 words each): m's 24 zero-padded
      digits, ANDed with ``mask`` and ORed with ``over``, are the number's
      text, NUL before it;
    - ``exp``: the exponent ("e-05"), none in fixed notation;
    - ``shift``: the bit where the next number's separator starts after it.

    Fixed notation covers -4 <= E < 16, with ".0" after an integer. The key
    _SLOW writes the byte 1 in place of a number.
    """
    div = np.ones(_SLOW + 1, np.int64)
    mul = np.zeros(_SLOW + 1, np.int64)
    lay = np.zeros((3, _SLOW + 1, 24), np.uint8)
    shift = np.zeros(_SLOW + 1, np.uint64)
    for key in range(_SLOW):
        E, p = divmod(key, 18)
        E += _EMIN
        if p == 0:
            continue
        fixed = -4 <= E < 16
        a = E + 1 if fixed else 1  # digits before the point, "0" if none
        f = max(p - a, int(fixed))  # digits after it
        point = f > 0
        if a > 0:
            div[key] = 10 ** max(p - a, 0)
            mul[key] = 10 ** (max(a - p, 0) + f + point) - div[key]
        lay[0, key, 24 - max(a, 1) - point - f :] = 0xFF
        if point:
            lay[0, key, 23 - f] = 0
            lay[1, key, 23 - f] = ord(".")
        if not fixed:
            text = f"e{E:+03d}".encode()
            lay[2, key, : len(text)] = list(text)
            shift[key] = 8 * len(text)
    lay[1, _SLOW, 23] = 1
    mask, over, exp = lay.view(np.uint64)
    return div, mul, mask, over, exp[:, 0].copy(), shift


def _scaled(x, k):
    """x * 10**k as an int64 I plus a float F in [0, 1), and 10**k rounded.

    Dekker's product of x and hi is exact, and so is x * lo but for its
    rounding, so F is off by at most 4e-15.
    """
    hi, hh, hl, lo = (t.take(k) for t in _powers_of_ten())
    p = x * hi
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    r = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * lo
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl, hi


def _strip(d):
    """``d`` without its trailing zeros, and how many there were."""
    z = np.zeros(d.size, np.int64)
    for s in (16, 8, 4, 2, 1):
        q = d // _P10[s]
        cut = q * _P10[s] == d
        d = np.where(cut, q, d)
        z += s * cut
    return d, z


def _decimal(x):
    """Digits d (int64, p of them), p and the decimal exponent E of the
    leading digit of each x >= 0, zero giving d = 0, p = 1, E = 0, and a mask
    of the magnitudes left to the exact formatter."""
    k = np.maximum(np.minimum((16 - np.floor(np.log10(x))).astype(np.int64), _BAND), 0)
    I, F, H = _scaled(x, k)
    undecided = np.zeros(x.size, bool)
    off = np.flatnonzero((I - _P10[16]).view(np.uint64) >= 9 * _P10[16])
    if off.size:  # log10 missed the decade by one, or x is zero or out of the band
        k[off] = np.clip(k[off] + (I[off] < _P10[16]) - (I[off] >= _P10[17]), 0, _BAND)
        I[off], F[off], H[off] = _scaled(x[off], k[off])
        undecided[off] = (I[off] - _P10[16]).view(np.uint64) >= 9 * _P10[16]
    E = 16 - k
    d = I + (F > 0.5)
    tie = np.abs(F - 0.5) < _EPS
    # The shortest digits are those of the nearest multiple of 100
    # (p <= 15 once its trailing zeros go), else of 10 (p = 16), else of 1
    # (p = 17) that lies within h, half the gap to the next double, of
    # I + F = 100 q + t. Ties go to the exact formatter.
    h = np.spacing(x) * H * 0.5
    q = I // 100
    t = (I - q * 100) + F
    u = np.floor(t * 0.1)
    t10 = t - 10 * u
    d10 = np.minimum(t10, 10 - t10)
    d100 = np.minimum(t, 100 - t)
    ok16 = d10 < h
    ok15 = d100 < h
    undecided |= (np.abs(d10 - h) < _EPS) | (np.abs(d100 - h) < _EPS) | (np.abs(t10 - 5) < _EPS) | tie
    p = np.where(ok16, 16, 17)
    d = np.where(ok16, 10 * q + u.astype(np.int64) + (t10 > 5), d)
    two = np.flatnonzero((x.view(np.int64) & ((1 << 52) - 1)) == 0)
    if two.size:  # below a power of two the gap halves: a candidate under x must be within h / 2
        below = np.where(
            ok15[two],
            np.where(t[two] > 50, 100 - t[two], -t[two]),
            np.where(ok16[two], np.where(t10[two] > 5, 10 - t10[two], -t10[two]), 1.0),
        )
        undecided[two] |= below < _EPS - 0.5 * h[two]
    short = np.flatnonzero(ok15)
    if short.size:
        d[short], z = _strip(100 * (q[short] + (t[short] > 50)))
        p[short] = 17 - z
    carry = p == 0  # rounded up to 10**17
    E += carry
    p[carry] = 1
    zero = off[x[off] == 0]
    d[zero], p[zero], E[zero] = 0, 1, 0
    undecided[zero] = False
    return d, p, E, undecided


def _exact_text(x: float) -> str:
    """The exact formatter, for the magnitudes ``_decimal`` leaves."""
    return float.__repr__(x)


def _texts(f: np.ndarray, kind: np.ndarray, seps, suffix: str = "") -> np.ndarray:
    """``"".join(seps[kind[i]] + fmt(abs(f[i])) for i in range(f.size))`` for a
    float array ``f``, with ``fmt`` ``float.__repr__``. ``_decimal`` gives the
    digits of a block of numbers and ``_exact_text`` formats the ones it
    leaves. Signs go in the separators: ``fmt(-x)`` is ``"-" + fmt(x)`` for
    every double x but NaN."""
    div, mul, mask, over, exp, shift = _layouts()
    digits = _digit_words()
    codes = np.zeros((len(seps) + 1, 8), np.uint8)
    for i, s in enumerate(seps):
        codes[i, : len(s)] = np.frombuffer(s.encode(), np.uint8)
    tail = (exp[:, None] | codes.view(np.uint64).T << shift[:, None]).ravel()  # exponent, next separator
    # At most 32 bytes a number, separator included, in pages of their own:
    # freed, they go back to the system rather than stay in the heap.
    out = np.frombuffer(mmap.mmap(-1, 32 * f.size + 4 + len(suffix)), np.uint8)
    head = seps[kind[0]].encode()
    out[: len(head)] = np.frombuffer(head, np.uint8)
    end = len(head)
    for start in range(0, f.size, _BLOCK):
        x = np.abs(f[start : start + _BLOCK])
        with np.errstate(all="ignore"):
            d, p, E, undecided = _decimal(x)
        key = (E - _EMIN) * 18 + p
        slow = np.flatnonzero(undecided)
        key[slow] = _SLOW
        d[slow] = 0
        m = d + d // div.take(key) * mul.take(key)
        del d, p, E, undecided  # each block's arrays go before the next are made: a smaller heap stays behind
        hi8 = m // 100000000
        lo8 = m - hi8 * 100000000
        t = hi8 // 10000
        groups = np.empty((6, x.size), np.int32)  # m's 24 digits, four at a time
        groups[0] = 0
        np.floor_divide(t, 10000, out=groups[1])
        np.subtract(t, groups[1] * 10000, out=groups[2])
        np.subtract(hi8, t * 10000, out=groups[3])
        np.floor_divide(lo8, 10000, out=groups[4])
        np.subtract(lo8, groups[4] * 10000, out=groups[5])
        del m, hi8, lo8, t
        rows = np.empty((x.size, 4), np.uint64)  # 24 bytes of number, then exponent and separator
        rows[:, :3] = digits.take(groups.T).view(np.uint64) & mask.take(key, axis=0) | over.take(key, axis=0)
        following = kind[start + 1 : start + 1 + x.size]
        if following.size < x.size:
            following = np.append(following, len(seps))
        rows[:, 3] = tail.take(key * (len(seps) + 1) + following)
        b = rows.view(np.uint8).reshape(-1)
        b = b[b != 0]
        if slow.size:
            pieces = b.tobytes().split(b"\x01")
            texts = [_exact_text(v).encode() for v in x[slow].tolist()]
            b = np.frombuffer(b"".join(chain.from_iterable(zip(pieces, texts))) + pieces[-1], np.uint8)
        out[end : end + b.size] = b
        end += b.size
    out[end : end + len(suffix)] = np.frombuffer(suffix.encode(), np.uint8)
    return out[: end + len(suffix)]


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
    texts = chain((_pairs_text(np.ascontiguousarray(a)) for a in arrays), [b"\n"])
    _write_atomic(path, chain.from_iterable(zip((p.encode() for p in pieces), texts)))


def write_csv_atomic(path, lines) -> None:
    _write_atomic(path, (f"{line}\n".encode() for line in lines))
