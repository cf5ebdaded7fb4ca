"""Kernel vectors and Grammians against a plain-loop series oracle.

The oracle sums the geometric series for the normalized kernel inner
product term by term, with no vectorization and no shared helpers, so the
closed-form and matrix routes are checked independently.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hardyframes import (
    DegenerateKernelError,
    DimensionMismatchError,
    Grammian,
    HermitianMatrix,
    NotPSDError,
    PointSequence,
    Provenance,
    analyze,
    congruence_diag,
    diagonal_operator,
    eig_extremes,
    identity,
    image_gram,
    kernel_matrix,
    projection_monomial_span,
    range_space_gram,
    szego_gram,
)
from hardyframes.kernels import _szego_entries, _szego_matrix, _tail_bound
from hardyframes.io import matrix_to_json
from hardyframes.operators import OPERATOR_KINDS, InnerFunction, PositiveOperator, from_spec, projection_phi_H2
from hardyframes.verify import sample_clustered
from exact import U, GaussianRational, pick_matrix, relative_error, sqrt_rational, szego_matrix


def oracle_entry(zi, zj, order):
    """Normalized kernel inner product <k~_j, k~_i> summed term by term."""
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j
    x = zi * complex(zj).conjugate()
    for _ in range(order):
        acc += term
        term *= x
    scale = math.sqrt((1.0 - abs(zi) ** 2) * (1.0 - abs(zj) ** 2))
    return scale * acc


def oracle_gram(points, order):
    n = len(points)
    g = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            g[i, j] = oracle_entry(points[i], points[j], order)
    return g


def random_points(rng, count, radius=0.85):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < radius:
            pts.append(z)
    return PointSequence(pts)


class TestTailBound:
    def test_formula(self):
        r = 0.5
        assert _tail_bound(10, r) == pytest.approx(r**10 / (1 - r**2))
        assert _tail_bound(10, 0.0) == 0.0

    def test_rejects_unit_radius(self):
        with pytest.raises(ValueError, match="radius"):
            _tail_bound(256, 1.0)


def kernel_column(w, order, normalize=False):
    """The truncated kernel vector at w: column 0 of ``kernel_matrix``."""
    return kernel_matrix(PointSequence([w]), order, normalize=normalize)[:, 0]


class TestKernelVector:
    def test_entries_are_conjugate_powers(self):
        w = 0.3 + 0.4j
        k = kernel_column(w, 6)
        expected = [complex(w).conjugate() ** n for n in range(6)]
        assert np.allclose(k, expected, rtol=0, atol=1e-15)

    def test_normalized_has_unit_norm(self):
        k = kernel_column(0.7j, 64, normalize=True)
        assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-14)

    def test_truncated_norm_matches_closed_form(self):
        # ||k_w||^2 = (1 - |w|^{2N}) / (1 - |w|^2)
        w = 0.6
        n = 40
        k = kernel_column(w, n)
        expected = (1 - w ** (2 * n)) / (1 - w**2)
        assert np.linalg.norm(k) ** 2 == pytest.approx(expected, rel=1e-13)

    def test_reproducing_on_polynomials(self):
        # <p, k_w> = p(w) for any polynomial inside the truncation order
        rng = np.random.default_rng(7)
        order = 32
        for _ in range(20):
            deg = int(rng.integers(0, 8))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            k = kernel_column(w, order)
            pairing = complex(np.dot(np.conj(k[: deg + 1]), coeffs))
            value = complex(np.polyval(coeffs[::-1], w))
            assert pairing == pytest.approx(value, abs=1e-12)


class TestKernelMatrix:
    def test_columns_match_kernel_vector(self):
        seq = PointSequence([0.1, 0.5j, -0.3 + 0.2j])
        order = 20
        v = kernel_matrix(seq, order)
        for j, w in enumerate(seq.values()):
            assert np.allclose(v[:, j], np.conj(w) ** np.arange(order), atol=1e-15)

    def test_normalized_columns(self):
        seq = PointSequence([0.8, -0.8j])
        v = kernel_matrix(seq, 128, normalize=True)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-14)

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_order_below_one(self, order):
        with pytest.raises(ValueError, match="truncation order must be at least 1"):
            kernel_matrix(PointSequence([0.5]), order)


class TestSzegoGram:
    def test_two_point_worked_example(self):
        g = szego_gram(PointSequence([0.0, 0.6]))
        assert np.allclose(g.matrix.matrix, [[1.0, 0.8], [0.8, 1.0]], atol=1e-15)
        ext = eig_extremes(g.matrix)
        assert ext.lambda_min == pytest.approx(0.2, abs=1e-14)
        assert ext.lambda_max == pytest.approx(1.8, abs=1e-14)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(11)
        seq = random_points(rng, 6, radius=0.8)
        g = szego_gram(seq).matrix.matrix
        # 0.8^1500 ~ 1e-146: the truncated oracle is exact at this depth
        expected = oracle_gram(seq.values(), 1500)
        assert np.abs(g - expected).max() < 1e-12

    def test_agrees_with_truncated_route(self):
        rng = np.random.default_rng(13)
        seq = random_points(rng, 5, radius=0.7)
        order = 256
        closed = szego_gram(seq).matrix.matrix
        truncated = image_gram(identity(order), seq).matrix.matrix
        assert np.abs(closed - truncated).max() < 1e-10

    def test_provenance(self):
        seq = PointSequence([0.2, 0.3], labels=(5, 9))
        g = szego_gram(seq)
        assert g.normalized
        assert g.provenance.space == "H2"
        assert g.provenance.operator_id is None
        assert g.labels == (5, 9)
        assert g.dim == 2

    def test_hermitian_for_complex_points(self):
        seq = PointSequence([0.3 + 0.4j, -0.5j, 0.1])
        m = szego_gram(seq).matrix.matrix
        assert np.abs(m - m.conj().T).max() == 0.0


def reference_szego(z):
    """The closed form as separate n x n numerator and denominator, its upper triangle mirrored below."""
    one_minus = 1.0 - np.abs(z) ** 2
    num = np.sqrt(np.outer(one_minus, one_minus))
    den = 1.0 - z[:, None] * np.conj(z)[None, :]
    g = num / den
    np.fill_diagonal(g, 1.0)
    lower = np.tril_indices(len(z), -1)
    g[lower] = np.conj(g.T[lower])
    return g


def clustered_points(rng, n):
    """Tight clusters around six centres at radius 0.9-0.96, as greedy partitions see them."""
    centres = rng.uniform(0.9, 0.96, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
    z = centres[rng.integers(0, 6, n)] + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return PointSequence(z / np.maximum(1.0, np.abs(z) / 0.985))


def near_boundary_points(rng, n):
    """Moduli 1 - 10^-k for k up to 12, where 1 - |z|^2 and 1 - z conj(w) lose most digits."""
    return PointSequence((1.0 - 10.0 ** -rng.uniform(1, 12, n)) * np.exp(2j * np.pi * rng.uniform(size=n)))


class TestSzegoGramBuffer:
    N = 600

    @pytest.mark.parametrize("family", [clustered_points, near_boundary_points])
    def test_bitwise_equal_to_the_two_buffer_formula(self, family):
        for seed in range(3):
            seq = family(np.random.default_rng(seed), self.N)
            g = szego_gram(seq).matrix.matrix
            assert g.tobytes() == reference_szego(seq.values()).tobytes()

    @pytest.mark.parametrize("family", [clustered_points, near_boundary_points])
    def test_row_blocks_equal_blocks_of_the_full_matrix(self, family):
        # the streamed spectral greedy reads m[idx, start:] through these blocks
        rng = np.random.default_rng(9)
        seq = family(rng, self.N)
        z = seq.values()
        one_minus = 1.0 - np.abs(z) ** 2
        full = _szego_entries(z, z, one_minus, one_minus)
        built = _szego_matrix(z)
        assert (built == built.conj().T).all()
        kept = szego_gram(seq).matrix.matrix
        assert kept.tobytes() == built.tobytes()
        for start in rng.integers(1, self.N, 20):
            idx = np.sort(rng.choice(start, min(start, 17), replace=False))
            rows = _szego_entries(z[idx], z[start:], one_minus[idx], one_minus[start:])
            assert rows.tobytes() == full[idx, start:].tobytes()
            assert rows.tobytes() == kept[idx, start:].tobytes()

    def test_memory_peak(self):
        # the matrix, its real numerator and 1 MiB: the closed form is kept with no copy
        seq = clustered_points(np.random.default_rng(5), self.N)
        tracemalloc.start()
        try:
            szego_gram(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.N**2 * (16 + 8) + 2**20


def dyadic_points(rng, family, count, bits=30):
    """``count`` distinct points k / 2**bits + i l / 2**bits, exact as doubles:
    uniform in |z| <= 0.9, on the real axis in [-0.9, 0.9], or in a square
    cluster of side 2**-10 at a point drawn uniformly in |z| <= 0.9."""
    scale, reach = 2**bits, int(0.9 * 2**bits)

    def in_disk():
        while True:
            k, l = (int(v) for v in rng.integers(-reach, reach + 1, size=2))
            if 100 * (k * k + l * l) <= 81 * scale * scale:
                return k, l

    center = in_disk()
    found = set()
    while len(found) < count:
        if family == "uniform":
            found.add(in_disk())
        elif family == "real_axis":
            found.add((int(rng.integers(-reach, reach + 1)), 0))
        else:
            dk, dl = (int(v) for v in rng.integers(0, 2 ** (bits - 10) + 1, size=2))
            found.add((center[0] + dk, center[1] + dl))
    return [complex(k / scale, l / scale) for k, l in sorted(found)]


class TestSzegoGramExact:
    """``szego_gram`` against the exact Grammian of ``exact.szego_matrix``."""

    def test_reference_on_worked_values(self):
        z = GaussianRational(Fraction(1), Fraction(2)) / GaussianRational(Fraction(3), Fraction(-4))
        assert z == GaussianRational(Fraction(-1, 5), Fraction(2, 5))
        assert pick_matrix([0.0, 0.5]) == [
            [GaussianRational(Fraction(1)), GaussianRational(Fraction(1))],
            [GaussianRational(Fraction(1)), GaussianRational(Fraction(4, 3))],
        ]
        # sqrt(3/4) / 1 between 0 and 1/2, to 50 digits
        g = szego_matrix([0.0, 0.5])
        assert abs(g[0][1].re ** 2 - Fraction(3, 4)) < Fraction(1, 10**49)
        assert g[0][1].im == 0 and sqrt_rational(Fraction(9, 16)) == Fraction(3, 4)

    @pytest.mark.parametrize("family", ["uniform", "real_axis", "cluster"])
    def test_entrywise_within_16u(self, family):
        rng = np.random.default_rng(["uniform", "real_axis", "cluster"].index(family))
        worst = 0.0
        for _ in range(20):
            points = dyadic_points(rng, family, 8)
            g = szego_gram(PointSequence(points)).matrix.matrix
            exact = szego_matrix(points)
            worst = max(worst, max(relative_error(g[i, j], exact[i][j]) for i in range(8) for j in range(8)))
        assert worst <= 16 * U, f"worst entrywise error {worst / U:.1f}u"


class TestGrammianValidation:
    def _prov(self, n):
        return Provenance("H2", None, tuple([0.1 * k for k in range(n)]), tuple(range(n)))

    def test_rejects_indefinite(self):
        # Construction checks only O(n) facts; analyze is the PSD gate.
        m = HermitianMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        g = Grammian(m, self._prov(2), normalized=False)
        with pytest.raises(NotPSDError):
            analyze(g)

    def test_rejects_bad_diagonal_when_normalized(self):
        m = HermitianMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            Grammian(m, self._prov(2), normalized=True)

    def test_rejects_label_mismatch(self):
        m = HermitianMatrix(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            Grammian(m, self._prov(2))


class TestNoEigensolveInProducers:
    """Producers form Gram matrices, PSD by construction, and check only O(n) facts."""

    def test_producers_make_no_eigensolve(self, eigensolves):
        seq = PointSequence([0.3, -0.4j, 0.2 + 0.2j, 0.7])
        order = 64
        op = projection_monomial_span([0, 2], order)
        eigensolves.clear()
        g = szego_gram(seq)
        range_space_gram(op, seq)
        image_gram(op, seq)
        congruence_diag(g, [1.0, 2.0, 0.5j, 1.0])
        assert eigensolves == []


class TestRangeSpaceGram:
    def test_identity_recovers_szego(self):
        rng = np.random.default_rng(19)
        seq = random_points(rng, 4, radius=0.7)
        order = 256
        g = range_space_gram(identity(order), seq).matrix.matrix
        closed = szego_gram(seq).matrix.matrix
        assert np.abs(g - closed).max() < 1e-10

    def test_degenerate_kernel_raises(self):
        # dropping the constant direction kills the kernel at the origin
        order = 32
        op = projection_monomial_span([0], order)
        seq = PointSequence([0.5, 0.0])
        with pytest.raises(DegenerateKernelError) as exc:
            range_space_gram(op, seq)
        assert exc.value.index == 1

    def test_monomial_span_closed_form(self):
        # P = projection onto span{1, z}: <P k_w, P k_z> = 1 + z conj(w)
        order = 32
        op = projection_monomial_span(range(2, order), order)
        z, w = 0.4 + 0.1j, -0.2 + 0.3j
        seq = PointSequence([z, w])
        g = range_space_gram(op, seq).matrix.matrix
        inner = 1.0 + z * np.conj(w)
        norm_z = math.sqrt(1.0 + abs(z) ** 2)
        norm_w = math.sqrt(1.0 + abs(w) ** 2)
        assert g[0, 1] == pytest.approx(inner / (norm_z * norm_w), abs=1e-13)
        assert g[0, 0] == pytest.approx(1.0)

    def test_provenance_records_operator(self):
        order = 64
        seq = PointSequence([0.2, 0.5j])
        g = range_space_gram(identity(order), seq)
        assert g.provenance.space == "H(P)"
        assert g.provenance.operator_id == "identity(N=64)"
        assert g.provenance.truncation_error > 0.0


def double_symmetrized_range_space_gram(op, seq, order):
    """The earlier route: average V* P V with its adjoint, scale, then wrap (and average again)."""
    v = kernel_matrix(seq, order)
    m = v.conj().T @ op.apply(v)
    m = (m + m.conj().T) / 2.0
    norms = np.sqrt(np.clip(np.real(np.diagonal(m)).copy(), 0.0, None))
    g = m / np.outer(norms, norms)
    np.fill_diagonal(g, 1.0)
    return HermitianMatrix(g).matrix


def near_boundary_points(rng, count):
    return rng.uniform(0.9, 0.985, size=count) * np.exp(2j * np.pi * rng.uniform(size=count))


class TestRangeSpaceGramSymmetrizesOnce:
    """One ``HermitianMatrix`` of V* P V, then the scaling, gives the same bits as averaging twice."""

    @pytest.mark.parametrize("family", ["clustered", "near_boundary"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_and_exactly_hermitian(self, family, seed):
        rng = np.random.default_rng([53, seed])
        if family == "clustered":
            pts = sample_clustered(rng, 24)
        else:
            pts = near_boundary_points(rng, 24)
        seq = PointSequence(list(pts))
        order = 128
        x = rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order))
        operators = (
            diagonal_operator(rng.uniform(0.2, 1.0, size=order)),
            projection_phi_H2(InnerFunction((0.5 * rng.uniform() + 0.2j,), 1.0, 1), order),
            PositiveOperator(x @ x.conj().T / order, "dense", "custom"),
        )
        for op in operators:
            g = range_space_gram(op, seq).matrix.matrix
            want = double_symmetrized_range_space_gram(op, seq, order)
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(g, g.conj().T)


INNER = {"zeros": [[0.3, 0.2], [-0.1, -0.4]], "m": 1}
_X = np.random.default_rng(61).normal(size=(64, 64, 2)) @ [1.0, 1.0j]
# One spec per operator kind, each at order 64.
SPECS = {
    "identity": {},
    "diagonal": {"weights": [0.9**k for k in range(64)]},
    "projection_phiH2": {"inner": INNER},
    "projection_model": {"inner": INNER},
    "projection_monomial": {"excluded": [1, 3]},
    "projection_c_plus_phi": {"inner": INNER},
    "st_constructed": {"points": [[0.5, 0.0], [-0.2, 0.4]], "Q": matrix_to_json([[1.0, 0.2j], [-0.2j, 0.5]])},
    "custom": {"matrix": matrix_to_json(_X @ _X.conj().T / 64)},
}


def spec_operator(kind):
    return from_spec({"type": kind, "N": 64, **SPECS[kind]})


# The complex diagonal of the congruence case: D G D* is not exactly Hermitian.
CONGRUENCE_D = np.exp(2j * np.pi * np.linspace(0.05, 0.95, 13)) * np.linspace(0.5, 2.0, 13)
PRODUCTS = ("range_space_gram", "image_gram", "PositiveOperator.matrix")
PRODUCERS = [("szego_gram", None), ("congruence_diag", None)] + [(p, k) for p in PRODUCTS for k in sorted(SPECS)]


def producer_points():
    # at 13 points OpenBLAS rounds some mirrored entries of W* W apart, so image_gram's pass shows
    return PointSequence(list(sample_clustered(np.random.default_rng(67), 13)))


def stored_and_earlier(producer, kind):
    """The matrix a producer stores, and the earlier route's bits for a product:
    ``HermitianMatrix`` of the raw product (None for the closed form)."""
    seq = producer_points()
    if producer == "szego_gram":
        return szego_gram(seq).matrix.matrix, None
    if producer == "congruence_diag":
        g, d = szego_gram(seq), CONGRUENCE_D
        return congruence_diag(g, d).matrix.matrix, HermitianMatrix(g.matrix.matrix * np.outer(d, np.conj(d))).matrix
    op = spec_operator(kind)
    if producer == "PositiveOperator.matrix":
        return op.matrix.matrix, HermitianMatrix(op.apply(np.eye(64, dtype=complex))).matrix
    if producer == "image_gram":
        w = op.apply(kernel_matrix(seq, 64, normalize=True))
        return image_gram(op, seq).matrix.matrix, HermitianMatrix(w.conj().T @ w).matrix
    v = kernel_matrix(seq, 64)
    want = HermitianMatrix(v.conj().T @ op.apply(v)).matrix
    norms = np.sqrt(np.clip(np.real(np.diagonal(want)), 0.0, None))
    want /= np.outer(norms, norms)
    np.fill_diagonal(want, 1.0)
    return range_space_gram(op, seq).matrix.matrix, want


class TestOneHermitianPass:
    """Each producer stores an exactly Hermitian matrix; a product holds the bits
    of the earlier route, ``HermitianMatrix`` of the raw product."""

    def test_specs_cover_every_operator_kind(self):
        assert set(SPECS) == OPERATOR_KINDS

    @pytest.mark.parametrize("producer, kind", PRODUCERS, ids=[p if k is None else f"{p}-{k}" for p, k in PRODUCERS])
    def test_exactly_hermitian_with_the_earlier_bits(self, producer, kind):
        stored, want = stored_and_earlier(producer, kind)
        assert np.array_equal(stored, stored.conj().T)
        if want is not None:
            assert np.array_equal(stored.view(np.uint64), want.view(np.uint64))

    def test_complex_congruence_product_needs_its_pass(self):
        g = szego_gram(producer_points()).matrix.matrix
        raw = g * np.outer(CONGRUENCE_D, np.conj(CONGRUENCE_D))
        assert not np.array_equal(raw, raw.conj().T)


class TestProvenance:
    def test_truncated_routes_record_the_tail_bound(self):
        seq = PointSequence([0.2, -0.7j, 0.5 + 0.1j])
        order = 40
        op = projection_monomial_span([3], order)
        tail = _tail_bound(order, seq.max_modulus())
        for g, space, op_id in (
            (range_space_gram(op, seq), "H(P)", op.id),
            (image_gram(op, seq), "H2", op.id),
            (image_gram(identity(order), seq), "H2", identity(order).id),
        ):
            assert g.provenance == Provenance(space, op_id, seq.points, seq.labels, truncation_error=tail)
        assert szego_gram(seq).provenance == Provenance("H2", None, seq.points, seq.labels)

    def test_congruence_keeps_the_provenance_and_appends_its_transform(self):
        seq = PointSequence([0.2, -0.7j])
        order = 40
        g = image_gram(identity(order), seq)
        once = congruence_diag(g, [1.0, 2.0])
        twice = congruence_diag(once, [1.0, 1.0j])
        assert once.provenance == dataclasses.replace(g.provenance, transform="diag_congruence")
        assert twice.provenance.transform == "diag_congruence;diag_congruence"
        assert twice.provenance.truncation_error == g.provenance.truncation_error > 0.0


class TestImageGram:
    def test_identity_gives_szego(self):
        rng = np.random.default_rng(23)
        seq = random_points(rng, 4, radius=0.7)
        order = 256
        g = image_gram(identity(order), seq).matrix.matrix
        assert np.abs(g - szego_gram(seq).matrix.matrix).max() < 1e-10

    def test_matches_manual_product(self):
        order = 48
        seq = PointSequence([0.3, -0.4j, 0.2 + 0.2j])
        op = projection_monomial_span([0, 2, 5], order)
        g = image_gram(op, seq).matrix.matrix
        v = kernel_matrix(seq, order, normalize=True)
        w = op.matrix.matrix @ v
        assert np.abs(g - w.conj().T @ w).max() < 1e-13

    def test_diagonal_below_one_for_projection(self):
        order = 48
        seq = PointSequence([0.5, 0.6j])
        op = projection_monomial_span([0], order)
        g = image_gram(op, seq)
        assert not g.normalized
        d = np.real(np.diagonal(g.matrix.matrix))
        assert np.all(d <= 1.0 + 1e-12)
        assert np.all(d < 0.999)


def weighted_kernel(weights, z, w):
    """sum_n p_n (z conj(w))^n as <diag(p) k_w, k_z> on the truncated kernels."""
    p = np.asarray(weights, dtype=np.float64)
    v = kernel_matrix(PointSequence([z, w]), p.size)
    return complex(np.conj(v[:, 0]) @ diagonal_operator(p).apply(v[:, 1]))


class TestWeightedHardyKernel:
    def test_all_ones_is_szego_partial_sum(self):
        z, w = 0.5, 0.25 + 0.1j
        n = 1200
        val = weighted_kernel(np.ones(n), z, w)
        assert val == pytest.approx(1.0 / (1.0 - z * np.conj(w)), abs=1e-13)

    def test_geometric_weights_closed_form(self):
        # p_n = s^n gives the kernel 1 / (1 - s z conj(w))
        s = 0.5
        z, w = 0.6, 0.4 - 0.3j
        val = weighted_kernel(s ** np.arange(800), z, w)
        assert val == pytest.approx(1.0 / (1.0 - s * z * np.conj(w)), abs=1e-13)

    def test_zero_weights_edge(self):
        # s = 0 keeps only the constant term, including at z = w = 0
        assert weighted_kernel([1.0, 0.0, 0.0], 0.0, 0.0) == 1.0
        assert weighted_kernel([1.0], 0.3, 0.7j) == 1.0

    def test_series_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            p = rng.uniform(0.0, 1.0, size=n)
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            w = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += p[k] * (z * np.conj(w)) ** k
            assert weighted_kernel(p, z, w) == pytest.approx(complex(acc), abs=1e-13)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            diagonal_operator([])


def test_contractive_weights_shrink_gram():
    # pointwise weights <= 1 push the weighted Gram below the Szego one
    rng = np.random.default_rng(31)
    pts = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(4)]
    n = 600
    p = rng.uniform(0.0, 1.0, size=n)
    gw = np.array([[weighted_kernel(p, a, b) for b in pts] for a in pts])
    gs = np.array([[weighted_kernel(np.ones(n), a, b) for b in pts] for a in pts])
    diff = gs - gw
    assert float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0]) >= -1e-11
