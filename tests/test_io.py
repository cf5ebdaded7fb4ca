"""Atomic file writes and exact [re, im] serialization of matrices and points."""

import functools
import json
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hardyframes import PointSequence, io

MAX = 1.7976931348623157e308
# Signed zeros, the smallest subnormal, extremes of range and integral values.
SPECIALS = [
    complex(-0.0, -0.0), complex(0.0, -0.0), complex(5e-324, -5e-324), complex(1e-300, -1e-300),
    complex(MAX, -MAX), complex(-MAX, MAX), complex(1.0, 3.0), complex(-2.0, 0.0),
]


def current_umask():
    mask = os.umask(0o22)
    os.umask(mask)
    return mask


def test_replaces_target_with_text(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("stale", encoding="utf-8")
    io.write_csv_atomic(target, ["fresh"])
    assert target.read_text(encoding="utf-8") == "fresh\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_final_mode_follows_umask(tmp_path):
    target = tmp_path / "report.json"
    io.write_csv_atomic(target, ["{}"])
    assert target.stat().st_mode & 0o777 == 0o666 & ~current_umask()


def test_each_write_uses_a_distinct_temp_file(tmp_path, monkeypatch):
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(os.fspath(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    target = tmp_path / "report.json"
    for text in ("a", "b", "c"):
        io.write_csv_atomic(target, [text])
    assert len(set(sources)) == 3
    assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
    assert all(os.path.basename(src) != "report.json.tmp" for src in sources)
    assert target.read_text(encoding="utf-8") == "c\n"


def test_failed_replace_removes_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("stale", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        io.write_json_atomic(target, {"a": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_text(encoding="utf-8") == "stale"


def test_failed_write_removes_temp_file(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(UnicodeEncodeError):
        io.write_csv_atomic(target, ["\ud800"])
    assert list(tmp_path.iterdir()) == []


def seeded_matrix(n):
    """A seeded n x n complex matrix over many magnitudes, led by ``SPECIALS``."""
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= 10.0 ** rng.integers(-300, 300, size=(n, n))
    k = min(a.size, len(SPECIALS))
    a.flat[:k] = SPECIALS[:k]
    return a


def specials_matrix():
    return np.array(SPECIALS + [complex(0.1, 0.2)]).reshape(3, 3)


def mirrored(a):
    """``a`` with its strict lower triangle replaced, bit for bit, by the conjugate of the upper one."""
    lower = np.tril_indices(a.shape[0], -1)
    a = a.copy()
    a[lower] = np.conj(a.T[lower])
    return a


def hermitian_repeats_matrix():
    """Exactly Hermitian, with few magnitudes that repeat under both signs and -0.0 on the diagonal."""
    rng = np.random.default_rng(7)
    mags = np.array([0.0, 0.1, 0.25, 3.0, 1e-300, 1e300])
    parts = rng.choice(mags, (2, 6, 6)) * rng.choice([-1.0, 1.0], (2, 6, 6))
    a = mirrored(parts[0] + 1j * parts[1])
    a[np.diag_indices(6)] = [complex(-0.0, 0.0), complex(-0.0, -0.0), -0.1, 0.1, -3.0, complex(0.0, -0.0)]
    return a


def reference_csv_lines(a):
    """The per-entry formatter the vectorized one must reproduce byte for byte."""

    def cell(v):
        im = float.__repr__(v.imag)
        return f"{float.__repr__(v.real)}{'' if im[0] == '-' else '+'}{im}j"

    return [",".join(map(cell, row)) for row in np.asarray(a).tolist()]


MATRICES = [pytest.param(seeded_matrix(n), id=f"n={n}") for n in (1, 2, 7, 200)]
MATRICES.append(pytest.param(specials_matrix(), id="specials"))
MATRICES.append(pytest.param(hermitian_repeats_matrix(), id="hermitian-repeats"))
MATRICES.append(pytest.param(np.zeros((0, 0), dtype=np.complex128), id="empty"))


@pytest.mark.parametrize("a", [m for m in MATRICES if m.id != "empty"])
def test_matrix_json_roundtrip_is_bitwise_exact(tmp_path, a):
    target = tmp_path / "matrix.json"
    io.write_json_atomic(target, io.matrix_to_json(a))
    with open(target, "r", encoding="utf-8") as fh:
        back = io.matrix_from_json(json.load(fh))
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()


def test_matrix_from_json_rejects_an_empty_matrix(tmp_path):
    """An empty matrix is written like any other, but no matrix file may be empty."""
    target = tmp_path / "matrix.json"
    io.write_json_atomic(target, io.matrix_to_json(np.zeros((0, 0), dtype=np.complex128)))
    with open(target, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc == {"dim": 0, "entries": []}
    with pytest.raises(ValueError, match="'dim' must be at least 1, got 0"):
        io.matrix_from_json(doc)


POINT_SETS = [
    pytest.param(SPECIALS[:4] + [complex(0.5, -0.0), complex(-0.0, 0.9)], id="specials"),
    pytest.param(list(0.99 * np.exp(2j * np.pi * np.random.default_rng(5).uniform(size=50))), id="n=50"),
]


@pytest.mark.parametrize("pts", POINT_SETS)
def test_points_json_roundtrip_is_bitwise_exact(tmp_path, pts):
    target = tmp_path / "points.json"
    io.write_json_atomic(target, io.to_pairs(pts))
    back = io.load_points(target).points
    assert np.array(back).tobytes() == np.array(pts, dtype=np.complex128).tobytes()
    # and exactly what a per-pair decoder gives
    raw = json.loads(target.read_text(encoding="utf-8"))
    assert np.array(back).tobytes() == np.array([complex(float(re), float(im)) for re, im in raw]).tobytes()


@pytest.mark.parametrize("raw", [[[0.3]], [[1.0, 0.0, 5.0]], [[10**400, 0.0]], [[float("inf"), 0.0]],
                                 [[None, 0.0]], [[0.1, 0.2], [0.3]], [0.1, 0.2], [[]], {"re": 1}])
def test_from_pairs_rejects_anything_but_two_finite_numbers(raw):
    with pytest.raises(ValueError):
        io.from_pairs(raw)


@pytest.mark.parametrize("raw", [
    pytest.param([[0.1, 0.2], [1.0, 2.0, 3.0]], id="three-element-pair"),
    pytest.param([[1, [2]]], id="nested"),
    pytest.param([[0.1, 0.2], {"re": 1.0, "im": 2.0}], id="dict-entry"),
    pytest.param([{"1": 0.5, "2": 0.5}], id="dict-with-numeric-string-keys"),
    pytest.param([{1: 0.5, 2: 0.25}], id="dict-with-number-keys"),
    pytest.param([["1.5", 0.0]], id="numeric-string"),
    pytest.param([[True, 0.0]], id="boolean"),
    pytest.param(["12"], id="string-pair"),
    pytest.param(None, id="null"),
])
def test_from_pairs_rejects_malformed_pairs(raw):
    with pytest.raises(ValueError):
        io.from_pairs(raw)


@pytest.mark.parametrize("value", [1.0, 1.7, True, "3", None, [1]])
def test_json_int_takes_only_json_integers(value):
    with pytest.raises(ValueError, match="'dim' must be a JSON integer"):
        io.json_int(value, "dim")


def test_json_int_returns_the_integer():
    assert io.json_int(-3, "dim") == -3


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400, True, "0.5", None, [0.5]])
def test_json_number_takes_only_finite_json_numbers(value):
    with pytest.raises(ValueError, match="'delta' must be a finite JSON number"):
        io.json_number(value, "delta")


@pytest.mark.parametrize("value", [0, -2, 0.5, 1e308, np.float64(0.25)])
def test_json_number_returns_a_float(value):
    x = io.json_number(value, "delta")
    assert type(x) is float and x == value


def test_from_pairs_accepts_the_empty_list():
    z = io.from_pairs([])
    assert z.shape == (0,) and z.dtype == np.complex128
    assert io.to_pairs(z) == []


@pytest.mark.parametrize("a", MATRICES)
def test_matrix_csv_lines_match_per_entry_formatter(a):
    assert io.matrix_csv_lines(a) == reference_csv_lines(a)


def test_matrix_csv_lines_print_non_finite_cells_as_the_formatter_does():
    # the formatter drops a NaN's sign bit: "nan+nanj", never "-nan"
    nan, inf = np.nan, np.inf
    a = np.array([[complex(-nan, -nan), complex(nan, inf)], [complex(-inf, -nan), complex(-0.0, -inf)]])
    assert np.signbit(a.real[0, 0]) and np.signbit(a.imag[1, 0])
    assert io.matrix_csv_lines(a) == reference_csv_lines(a)
    assert io.matrix_csv_lines(a)[0] == "nan+nanj,nan+infj"


def reference_pair(z):
    """The per-entry encoder the vectorized one must reproduce."""
    zc = complex(z)
    return [float(zc.real), float(zc.imag)]


def test_matrix_entries_are_plain_row_major_pairs():
    doc = io.matrix_to_json(specials_matrix())
    assert doc["dim"] == 3
    assert doc["entries"] == [reference_pair(v) for v in specials_matrix().ravel()]
    assert all(type(x) is float for p in doc["entries"] for x in p)


def test_json_report_is_one_line(tmp_path):
    target = tmp_path / "report.json"
    payload = {"matrix": io.matrix_to_json(np.eye(2)), "label": "x", "flag": True}
    io.write_json_atomic(target, payload)
    text = target.read_text(encoding="utf-8")
    assert text == json.dumps(payload, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    assert json.loads(text) == payload


def test_hermitian_repeats_matrix_is_what_it_says():
    a = hermitian_repeats_matrix()
    assert mirrored(a).tobytes() == a.tobytes() and (a.imag.diagonal() == 0.0).all()
    f = np.abs(a.view(np.float64))
    assert len(np.unique(f)) < f.size // 4
    assert np.signbit(a.real.diagonal()).any() and (a.real.diagonal() == 0.0).any()


def assert_writes_like_pair_lists(target, a):
    """An operator report of ``a`` is written byte for byte as ``json.dumps`` writes its pair lists."""
    op = SimpleNamespace(matrix=a, id="custom", kind="custom", contraction=False)
    io.write_json_atomic(target, io.operator_to_json(op))
    expected = {**io.matrix_to_json(a), "id": "custom", "kind": "custom", "contraction": False}
    assert target.read_bytes() == (json.dumps(expected, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("a", MATRICES)
def test_report_matrix_bytes_equal_the_pair_list_encoding(tmp_path, a):
    assert_writes_like_pair_lists(tmp_path / "op.json", a)


FINITE = st.complex_numbers(allow_nan=False, allow_infinity=False)
SQUARE = st.integers(0, 6).map(lambda n: (n, n))
FINITE_MATRICES = arrays(np.complex128, SQUARE, elements=FINITE)


@settings(max_examples=200, deadline=None)
@given(st.one_of(FINITE_MATRICES, FINITE_MATRICES.map(mirrored)))
def test_report_matrix_bytes_equal_the_pair_list_encoding_for_any_finite_matrix(tmp_path_factory, a):
    assert_writes_like_pair_lists(tmp_path_factory.mktemp("prop") / "op.json", a)


def test_grammian_report_splices_matrix_among_other_fields(tmp_path):
    a = hermitian_repeats_matrix()
    prov = SimpleNamespace(
        space="H2", operator_id=None, points=np.array([0.5, -0.0j, 0.1 + 0.2j]), labels=(0, 1, 2),
        truncation_error=0.0, transform=None,
    )
    g = SimpleNamespace(matrix=a, normalized=True, provenance=prov)
    payload = {"grammian": io.grammian_to_json(g), "tail": {"matrix": io.operator_to_json(SimpleNamespace(
        matrix=a[:2, :2], id="x", kind="custom", contraction=True))}}
    io.write_json_atomic(tmp_path / "g.json", payload)
    doc = json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))
    assert io.matrix_from_json(doc["grammian"]["matrix"]).tobytes() == a.tobytes()
    assert io.matrix_from_json(doc["tail"]["matrix"]).tobytes() == np.ascontiguousarray(a[:2, :2]).tobytes()
    assert doc["grammian"]["provenance"]["points"] == io.to_pairs(prov.points)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_writer_rejects_non_finite_entries(tmp_path, bad, part):
    z = np.array([1.0, 0.5j, 2.0 + 0j], dtype=np.complex128)
    setattr(z[1:2], part, bad)
    with pytest.raises(ValueError, match="entry 1 .* not a finite complex number"):
        io.write_json_atomic(tmp_path / "r.json", {"entries": z})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.zeros(2), np.zeros((2, 2), dtype=np.complex128), np.complex64(1.0)])
def test_writer_rejects_other_numpy_values(tmp_path, value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        io.write_json_atomic(tmp_path / "r.json", {"entries": value})
    assert list(tmp_path.iterdir()) == []


def test_writer_rejects_a_string_that_equals_its_marker(tmp_path):
    with pytest.raises(ValueError, match="marker"):
        io.write_json_atomic(tmp_path / "r.json", {"id": "\0complex-array\0", "entries": np.ones(1, complex)})


def reference_partition_csv_lines(seq, p):
    """The per-point formatter the vectorized one must reproduce byte for byte."""
    class_of = {lab: k for k, cls in enumerate(p.classes) for lab in cls}
    lines = ["label,class,modulus,argument"]
    for lab, z in zip(seq.labels, seq.points):
        lines.append(f"{lab},{class_of[lab]},{abs(z)!r},{float(np.angle(z))!r}")
    return lines


def test_partition_csv_lines_match_per_point_formatter():
    # clusters on rays and near the boundary, where the argument and modulus lose digits
    rng = np.random.default_rng(11)
    n = 3000
    radius = np.concatenate([1.0 - 10.0 ** -rng.uniform(1, 15, n // 2), rng.uniform(0.0, 1e-3, n - n // 2)])
    angle = rng.choice([0.0, np.pi / 2, np.pi, -np.pi / 2, 1.0], n) + rng.normal(0.0, 1e-9, n)
    z = radius * np.exp(1j * angle)
    z[:4] = [complex(0.5, -0.0), complex(-0.5, 0.0), complex(-0.5, -0.0), complex(0.0, -0.0)]
    seq = PointSequence(list(z), tuple(rng.permutation(n).tolist()))
    part = SimpleNamespace(classes=[seq.labels[k::7] for k in range(7)])
    assert io.partition_csv_lines(seq, part) == reference_partition_csv_lines(seq, part)


def kernel_texts(values):
    """The text ``io._texts`` writes for each of ``values``, its sign included."""
    f = np.ascontiguousarray(values, dtype=np.float64)
    text = str(io._texts(f, np.signbit(f).view(np.uint8), (" ", " -")), "ascii")
    return text[1:].split(" ")


def reference_texts(values):
    """The per-number formatter the kernel must reproduce byte for byte."""
    return [float.__repr__(v) for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64, allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_kernel_writes_any_finite_double_as_repr(values):
    assert kernel_texts(values) == reference_texts(values)


def at_ulps(values, steps):
    """The positive doubles ``steps`` units in the last place from ``values``."""
    return (np.asarray(values, dtype=np.float64).view(np.int64) + steps).view(np.float64)


@functools.lru_cache(maxsize=None)
def number_families(n=100_000):
    """Seeded families of at least n doubles each, signs mixed."""
    rng = np.random.default_rng(2024)
    powers = np.array([float(f"1e{k}") for k in rng.integers(-35, 19, n)])
    twos = np.ldexp(1.0, rng.integers(-130, 70, n))
    uniform = 10.0 ** rng.uniform(-35, 18, n)
    switches = [at_ulps(s, np.arange(-(n // 6) - 1, n // 6 + 1)) for s in (1e-4, 1e16, 1e17)]
    families = {
        "uniform-exponent": uniform,
        "powers-of-ten": powers,
        **{f"powers-of-ten{u:+d}-ulp": at_ulps(powers, u) for u in (-2, -1, 1, 2)},
        "powers-of-two": twos,
        **{f"powers-of-two{u:+d}-ulp": at_ulps(twos, u) for u in (-1, 1)},
        "short-decimals": np.array([float(f"{v:.{d}e}") for v, d in zip(uniform.tolist(), rng.integers(0, 17, n).tolist())]),
        "integers-to-2**53": rng.integers(0, 2**53, n).astype(np.float64),
        "integers-beyond-2**53": rng.integers(2**53, 2**62, n).astype(np.float64),
        "notation-switches": np.concatenate(switches),
        "subnormals": rng.integers(1, 2**52, n).view(np.float64),
        "zeros": np.array([0.0, -0.0] * (n // 2)),
    }
    return {name: v * rng.choice([-1.0, 1.0], v.size) for name, v in families.items()}


@pytest.mark.parametrize("family", list(number_families(10)))
def test_kernel_matches_the_formatters_on_seeded_families(family):
    values = number_families()[family]
    assert kernel_texts(values) == reference_texts(values)


def test_exact_formatter_writes_only_what_the_kernel_leaves(monkeypatch):
    """Entries in [1e-25, 1] lie in the kernel's band: only comparisons within
    its guard of a threshold reach the exact formatter, and in a seeded
    256 x 256 matrix there are none."""
    rng = np.random.default_rng(9)
    z = (10.0 ** rng.uniform(-25, 0, (256, 256)) * np.exp(2j * np.pi * rng.uniform(size=(256, 256)))).ravel()
    undecided, exact = [], []
    real_decimal, real_exact = io._decimal, io._exact_text

    def counting_decimal(x):
        parts = real_decimal(x)
        undecided.append(int(parts[3].sum()))
        return parts

    def counting_exact(x):
        exact.append(x)
        return real_exact(x)

    monkeypatch.setattr(io, "_decimal", counting_decimal)
    monkeypatch.setattr(io, "_exact_text", counting_exact)
    assert bytes(io._pairs_text(z)) == json.dumps(io.to_pairs(z), separators=(",", ":")).encode()
    assert len(undecided) == -(-2 * z.size // io._BLOCK)  # one kernel call a block
    assert len(exact) == sum(undecided) == 0


def test_exact_formatter_writes_the_magnitudes_out_of_the_band(monkeypatch):
    exact = []
    real_exact = io._exact_text
    monkeypatch.setattr(io, "_exact_text", lambda x: exact.append(x) or real_exact(x))
    values = [1e-30, 0.5, 5e-324, 1e17, 0.0, 1.5e-29, 9.999999999999998e16]
    assert kernel_texts(values) == reference_texts(values)
    assert exact == [1e-30, 5e-324, 1e17]


def test_writing_an_operator_report_keeps_block_sized_temporaries(tmp_path):
    """The writer's traced peak stays under 0.75 of the report's size (0.51
    here): numbers are formatted in blocks of ``_BLOCK``, and the text itself
    is built in an anonymous map, which tracemalloc does not trace."""
    rng = np.random.default_rng(9)
    a = 10.0 ** rng.uniform(-34, 0.5, (256, 256)) * np.exp(2j * np.pi * rng.uniform(size=(256, 256)))
    op = SimpleNamespace(matrix=(a + a.conj().T) / 2, id="st", kind="st", contraction=False)
    target = tmp_path / "op.json"
    io.write_json_atomic(target, io.operator_to_json(op))  # the layout tables are built once
    tracemalloc.start()
    try:
        io.write_json_atomic(target, io.operator_to_json(op))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * target.stat().st_size
