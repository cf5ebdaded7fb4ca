"""Inner functions, Taylor coefficients, projections, and the Grammian
realization construction.

The Taylor oracle here expands each Blaschke factor by explicit long
division (c_k = num_k + conj(a) c_{k-1}) and multiplies series with plain
nested loops, so it shares nothing with the closed-form route used by the
package.
"""

import numpy as np
import pytest

from hardyframes import (
    DimensionMismatchError,
    HermitianMatrix,
    IllConditionedGramError,
    IndexOutOfRangeError,
    InnerFunction,
    NegativeWeightError,
    NotPSDError,
    PointSequence,
    PositiveOperator,
    TruncationTooCoarseError,
    diagonal_operator,
    evaluate_inner,
    identity,
    kernel_matrix,
    projection_c_plus_phi,
    projection_model_space,
    projection_monomial_span,
    projection_phi_H2,
    psd_sqrt,
    st_construct,
    st_roundtrip_defect,
    szego_gram,
    taylor_coefficients,
)
from hardyframes.hermitian import psd_inverse
from hardyframes.io import matrix_to_json
from hardyframes.operators import OPERATOR_KINDS, from_spec, min_diagonal


def oracle_taylor(phi, count):
    """Series of a Blaschke product by per-factor long division."""
    series = [0.0j] * count
    series[0] = 1.0 + 0.0j
    for a in phi.zeros:
        front = abs(a) / a
        c = [0.0j] * count
        prev = 0.0j
        for k in range(count):
            if k == 0:
                num = front * a
            elif k == 1:
                num = -front
            else:
                num = 0.0j
            c[k] = num + a.conjugate() * prev
            prev = c[k]
        out = [0.0j] * count
        for i in range(count):
            if series[i] == 0.0j:
                continue
            for j in range(count - i):
                out[i + j] += series[i] * c[j]
        series = out
    if phi.monomial_power:
        shifted = [0.0j] * count
        for k in range(count - phi.monomial_power):
            shifted[k + phi.monomial_power] = series[k]
        series = shifted
    u = complex(phi.unimodular)
    return [u * v for v in series]


def phi_columns(phi, order, count):
    """Truncations of z^k phi for k < count, built from ``taylor_coefficients``:
    the first ``count`` columns of the order x order block of T_phi."""
    c = taylor_coefficients(phi, order)
    t = np.zeros((order, count), dtype=np.complex128)
    for k in range(count):
        t[k:, k] = c[: order - k]
    return t


def normalized_kernel(w, order):
    """The truncated kernel conj(w)^n, n < order, scaled to unit norm."""
    k = np.conj(w) ** np.arange(order)
    return k / np.linalg.norm(k)


def random_inner(rng, max_zeros=3, max_radius=0.8):
    n_zeros = int(rng.integers(0, max_zeros + 1))
    zeros = []
    while len(zeros) < n_zeros:
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 0.05 < abs(a) < max_radius:
            zeros.append(a)
    theta = rng.uniform(0, 2 * np.pi)
    power = int(rng.integers(0, 3))
    return InnerFunction(tuple(zeros), np.exp(1j * theta), power)


class TestInnerFunction:
    def test_degree(self):
        phi = InnerFunction(zeros=(0.5, 0.3j), monomial_power=2)
        assert phi.degree == 4

    def test_origin_zeros_absorbed(self):
        phi = InnerFunction(zeros=(0.0, 0.5, 0.0))
        assert phi.monomial_power == 2
        assert phi.zeros == (0.5,)
        assert phi.degree == 3

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(ValueError):
            InnerFunction(zeros=(1.0,))
        with pytest.raises(ValueError):
            InnerFunction(zeros=(0.9 + 0.9j,))

    def test_rejects_non_unimodular_front(self):
        with pytest.raises(ValueError):
            InnerFunction(unimodular=0.5)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            InnerFunction(monomial_power=-1)

    def test_vanishes_at_zeros(self):
        phi = InnerFunction(zeros=(0.5, -0.2 + 0.4j))
        for a in phi.zeros:
            assert abs(phi(a)) < 1e-15

    def test_value_at_origin_is_product_of_moduli(self):
        phi = InnerFunction(zeros=(0.5, 0.3j, -0.4))
        assert phi(0.0) == pytest.approx(0.5 * 0.3 * 0.4, abs=1e-15)

    def test_constant_function(self):
        phi = InnerFunction(unimodular=1j)
        assert phi.degree == 0
        assert phi(0.3 + 0.2j) == 1j


class TestEvaluateInner:
    def test_unit_modulus_on_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            phi = random_inner(rng)
            z = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(evaluate_inner(phi, z)) == pytest.approx(1.0, abs=1e-12)

    def test_contractive_inside(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            phi = random_inner(rng)
            z = 0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0, 1)
            assert abs(evaluate_inner(phi, z)) <= 1.0 + 1e-12

    def test_rejects_outside_closed_disk(self):
        with pytest.raises(ValueError):
            evaluate_inner(InnerFunction(zeros=(0.5,)), 1.01)


class TestTaylorCoefficients:
    def test_half_zero_frozen_values(self):
        c = taylor_coefficients(InnerFunction(zeros=(0.5,)), 5)
        assert np.allclose(c, [0.5, -0.75, -0.375, -0.1875, -0.09375], atol=1e-15)

    def test_monomial(self):
        c = taylor_coefficients(InnerFunction(monomial_power=3), 6)
        assert np.allclose(c, [0, 0, 0, 1, 0, 0], atol=0)

    def test_matches_long_division_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            phi = random_inner(rng)
            count = int(rng.integers(1, 40))
            got = taylor_coefficients(phi, count)
            want = oracle_taylor(phi, count)
            assert np.allclose(got, want, atol=1e-13)

    def test_partial_sum_evaluates_to_phi(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            phi = random_inner(rng)
            c = taylor_coefficients(phi, 200)
            z = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
            series = complex(np.polyval(c[::-1], z))
            assert series == pytest.approx(phi(z), abs=1e-12)

    def test_coefficient_norm_at_most_one(self):
        # inner functions have unit H^2 norm, so the series is l2-bounded
        rng = np.random.default_rng(11)
        for _ in range(10):
            phi = random_inner(rng)
            c = taylor_coefficients(phi, 400)
            assert np.linalg.norm(c) <= 1.0 + 1e-10

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            taylor_coefficients(InnerFunction(), 0)


class TestToeplitzMatrix:
    """T_phi's block assembled from the Taylor coefficients obeys the
    Toeplitz identities, which checks the coefficients themselves."""

    def test_multiplicative_on_window(self):
        # T_{phi psi} equals T_phi T_psi exactly for lower triangular blocks
        phi = InnerFunction(zeros=(0.5,))
        psi = InnerFunction(zeros=(0.3j, -0.2), monomial_power=1)
        both = InnerFunction(zeros=phi.zeros + psi.zeros, monomial_power=1)
        n = 24
        left = phi_columns(phi, n, n) @ phi_columns(psi, n, n)
        right = phi_columns(both, n, n)
        assert np.abs(left - right).max() < 1e-13

    def test_adjoint_fixes_kernels(self):
        # T_phi* k_w = conj(phi(w)) k_w up to the truncation tail
        rng = np.random.default_rng(13)
        order = 256
        for _ in range(5):
            phi = random_inner(rng)
            w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            t = phi_columns(phi, order, order)
            k = np.conj(w) ** np.arange(order)
            residual = t.conj().T @ k - np.conj(phi(w)) * k
            assert np.linalg.norm(residual) < 1e-12


class TestPositiveOperator:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PositiveOperator(HermitianMatrix(np.eye(2)), "x", "mystery")

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            PositiveOperator(HermitianMatrix(np.diag([1.0, -0.5])), "x", "custom")

    def test_contraction_flag(self):
        assert identity(4).contraction
        assert not PositiveOperator(HermitianMatrix(2 * np.eye(3)), "x", "custom").contraction

    def test_dim_and_array(self):
        op = identity(7)
        assert op.dim == 7
        assert np.allclose(op.matrix.matrix, np.eye(7))

    @pytest.mark.parametrize("shape", [(6,), (8, 3)])
    def test_apply_rejects_wrong_length(self, shape):
        low_rank = PositiveOperator(np.ones(2), "x", "custom", basis=np.eye(7)[:, :2], shift=0.5)
        for op in (identity(7), low_rank):
            with pytest.raises(DimensionMismatchError, match="dimension 7"):
                op.apply(np.ones(shape))


class TestDiagonalOperator:
    def test_builds_diag(self):
        op = diagonal_operator([0.5, 1.0, 0.0])
        assert np.allclose(op.matrix.matrix, np.diag([0.5, 1.0, 0.0]))
        assert op.contraction
        assert op.kind == "diagonal"

    def test_above_one_not_contraction(self):
        assert not diagonal_operator([1.0, 1.5]).contraction

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            diagonal_operator([0.5, -0.1])

    def test_non_finite_weight(self):
        with pytest.raises(ValueError, match="finite"):
            diagonal_operator([0.5, float("nan")])


class TestProjectionMonomialSpan:
    def test_excluded_indices_zeroed(self):
        op = projection_monomial_span([1, 3], 5)
        assert np.allclose(op.matrix.matrix, np.diag([1.0, 0.0, 1.0, 0.0, 1.0]))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            projection_monomial_span([5], 5)
        with pytest.raises(IndexOutOfRangeError):
            projection_monomial_span([-1], 5)


class TestProjectionPhiH2:
    def test_idempotent_and_contractive(self):
        order = 128
        for phi in (
            InnerFunction(zeros=(0.5,)),
            InnerFunction(zeros=(0.3, -0.4j), monomial_power=1),
        ):
            op = projection_phi_H2(phi, order)
            p = op.matrix.matrix
            assert np.abs(p @ p - p).max() < 1e-8
            assert op.contraction
            assert op.kind == "projection_phiH2"

    def test_range_contains_phi(self):
        # P fixes z^k phi for every k whose truncation tail is negligible
        order = 256
        phi = InnerFunction(zeros=(0.5, 0.2 + 0.3j))
        op = projection_phi_H2(phi, order)
        cols = phi_columns(phi, order, 128)
        assert np.abs(op.apply(cols) - cols).max() < 1e-12

    def test_kernel_image_norm_is_phi_modulus(self):
        # ||P k~_w|| = |phi(w)| because multiplication by phi is isometric
        order = 256
        phi = InnerFunction(zeros=(0.5, -0.3j))
        op = projection_phi_H2(phi, order)
        for w in (0.2, -0.4j, 0.3 + 0.3j):
            k = normalized_kernel(w, order)
            assert np.linalg.norm(op.matrix.matrix @ k) == pytest.approx(abs(phi(w)), abs=1e-10)

    def test_escalation_raises_when_capped(self):
        with pytest.raises(TruncationTooCoarseError):
            projection_phi_H2(InnerFunction(zeros=(0.999,)), 16)


class TestProjectionModelSpace:
    def test_complements_phi_projection(self):
        order = 96
        phi = InnerFunction(zeros=(0.4,), monomial_power=1)
        p = projection_phi_H2(phi, order).matrix.matrix
        m = projection_model_space(phi, order).matrix.matrix
        assert np.abs(p + m - np.eye(order)).max() < 1e-14

    def test_rank_equals_degree(self):
        order = 128
        for phi in (
            InnerFunction(zeros=(0.5,)),
            InnerFunction(zeros=(0.5, -0.3), monomial_power=2),
        ):
            m = projection_model_space(phi, order).matrix.matrix
            assert np.real(np.trace(m)) == pytest.approx(phi.degree, abs=1e-6)

    def test_contains_kernels_at_zeros(self):
        order = 256
        phi = InnerFunction(zeros=(0.5, -0.2 + 0.3j))
        m = projection_model_space(phi, order).matrix.matrix
        for a in phi.zeros:
            k = normalized_kernel(a, order)
            assert np.linalg.norm(m @ k - k) < 1e-9


class TestProjectionCPlusPhi:
    def test_shift_symbol_gives_identity(self):
        # constants + z H^2 is the whole space
        order = 64
        op = projection_c_plus_phi(InnerFunction(monomial_power=1), order)
        assert np.abs(op.matrix.matrix - np.eye(64)).max() < 1e-12

    def test_contains_constants_and_phi(self):
        order = 128
        phi = InnerFunction(zeros=(0.5, 0.3j))
        op = projection_c_plus_phi(phi, order)
        e0 = np.zeros(128, dtype=complex)
        e0[0] = 1.0
        assert np.linalg.norm(op.matrix.matrix @ e0 - e0) < 1e-7
        cols = phi_columns(phi, order, 64)
        assert np.abs(op.apply(cols) - cols).max() < 1e-12

    def test_idempotent(self):
        order = 128
        op = projection_c_plus_phi(InnerFunction(zeros=(0.4, -0.2)), order)
        p = op.matrix.matrix
        assert np.abs(p @ p - p).max() < 1e-7

    def test_codimension_drops_by_one(self):
        # deg-2 symbol: phi H^2 has codim 2, adding constants leaves codim 1
        order = 96
        phi = InnerFunction(zeros=(0.5, -0.3))
        tr = float(np.real(np.trace(projection_c_plus_phi(phi, order).matrix.matrix)))
        assert tr == pytest.approx(96 - 1, abs=1e-5)


class TestStConstruct:
    def _ring(self, count):
        return PointSequence(
            [0.6 * np.exp(2j * np.pi * k / count) for k in range(count)]
        )

    def test_realizes_szego_gram(self):
        seq = self._ring(5)
        order = 192
        q = szego_gram(seq).matrix.matrix
        op = st_construct(q, seq, order, delta=0.5)
        defect, min_norm = st_roundtrip_defect(op, q, seq)
        assert defect < 1e-9
        assert min_norm == pytest.approx(1.0, abs=1e-9)
        assert op.kind == "st_constructed"
        assert op.id == "st(points=5,delta=0.5)"

    def test_realizes_random_psd_target(self):
        rng = np.random.default_rng(17)
        seq = self._ring(6)
        order = 192
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q = a @ a.conj().T
        q = 0.8 * q / np.real(np.diagonal(q)).max() + 0.2 * np.eye(6)
        op = st_construct(q, seq, order, delta=0.1)
        defect, min_norm = st_roundtrip_defect(op, q, seq)
        assert defect < 1e-8
        assert min_norm >= 0.1 - 1e-9

    def test_operator_is_psd_symmetric(self):
        seq = self._ring(4)
        order = 128
        q = np.eye(4)
        op = st_construct(q, seq, order, delta=0.9)
        p = op.matrix.matrix
        assert np.abs(p - p.conj().T).max() == 0.0
        assert float(np.linalg.eigvalsh(p)[0]) >= -1e-10

    def test_rejects_non_psd_target(self):
        seq = self._ring(2)
        with pytest.raises(NotPSDError):
            st_construct(np.array([[1.0, 2.0], [2.0, 1.0]]), seq, 64, 0.5)

    def test_rejects_diagonal_below_delta(self):
        seq = self._ring(2)
        with pytest.raises(ValueError):
            st_construct(np.diag([1.0, 0.3]), seq, 64, 0.5)

    def test_rejects_nonpositive_delta(self):
        seq = self._ring(2)
        with pytest.raises(ValueError):
            st_construct(np.eye(2), seq, 64, 0.0)

    def test_rejects_nan_delta(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            st_construct(np.eye(2), self._ring(2), 64, float("nan"))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            st_construct(np.eye(3), self._ring(2), 64, 0.5)

    def test_near_duplicate_points_rejected(self):
        seq = PointSequence([0.5, 0.5 + 1e-9])
        with pytest.raises(IllConditionedGramError):
            st_construct(np.eye(2), seq, 128, 0.5)


class TestRangeContainsPhi:
    def test_model_projection_excludes_phi(self):
        # the model space is orthogonal to phi H^2, so it annihilates z^k phi
        order = 256
        phi = InnerFunction(zeros=(0.5,))
        cols = phi_columns(phi, order, 128)
        assert np.abs(projection_model_space(phi, order).apply(cols)).max() < 1e-12


class TestFromSpec:
    def test_diagonal(self):
        op = from_spec({"type": "diagonal", "weights": [1.0, 0.5]})
        assert np.allclose(op.matrix.matrix, np.diag([1.0, 0.5]))

    def test_projection_phiH2_matches_direct(self):
        spec = {"type": "projection_phiH2", "N": 64, "inner": {"zeros": [[0.5, 0.0]]}}
        op = from_spec(spec)
        direct = projection_phi_H2(InnerFunction(zeros=(0.5,)), 64)
        assert np.abs(op.matrix.matrix - direct.matrix.matrix).max() < 1e-14

    def test_projection_model(self):
        spec = {
            "type": "projection_model",
            "N": 64,
            "inner": {"zeros": [[0.0, 0.4]], "m": 1},
        }
        op = from_spec(spec)
        assert op.kind == "projection_model"
        assert np.real(np.trace(op.matrix.matrix)) == pytest.approx(2.0, abs=1e-6)

    def test_projection_monomial(self):
        op = from_spec({"type": "projection_monomial", "N": 6, "excluded": [0, 2]})
        assert np.allclose(op.matrix.matrix, np.diag([0.0, 1.0, 0.0, 1.0, 1.0, 1.0]))

    def test_c_plus_phi(self):
        spec = {"type": "c_plus_phi", "N": 64, "inner": {"zeros": [[0.5, 0.0]]}}
        assert from_spec(spec).kind == "projection_c_plus_phi"

    def test_st_with_default_delta(self):
        pts = [[0.6, 0.0], [-0.6, 0.0], [0.0, 0.6]]
        q = matrix_to_json(0.5 * np.eye(3))
        spec = {"type": "st", "N": 128, "points": pts, "Q": q}
        op = from_spec(spec)
        assert op.kind == "st_constructed"
        assert "delta=0.5" in op.id

    def test_default_delta_is_min_diagonal(self):
        q = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert min_diagonal(q) == min_diagonal(HermitianMatrix(q)) == 0.3
        pts = [[0.6, 0.0], [-0.6, 0.0]]
        op = from_spec({"type": "st", "N": 64, "points": pts, "Q": matrix_to_json(q)})
        assert op.id == "st(points=2,delta=0.3)"

    @pytest.mark.parametrize(
        "kind, legacy, fields",
        [
            ("projection_c_plus_phi", "c_plus_phi", {"inner": {"zeros": [[0.5, 0.0], [0.0, -0.4]]}}),
            (
                "st_constructed",
                "st",
                {"points": [[0.6, 0.0], [-0.6, 0.0], [0.0, 0.6]], "Q": matrix_to_json(0.5 * np.eye(3))},
            ),
        ],
    )
    def test_legacy_spelling_builds_the_same_operator(self, kind, legacy, fields):
        op = from_spec({"type": kind, "N": 64, **fields})
        old = from_spec({"type": legacy, "N": 64, **fields})
        assert op.kind == old.kind == kind
        assert op.id == old.id
        assert op.matrix.matrix.tobytes() == old.matrix.matrix.tobytes()

    def test_every_operator_kind_is_a_spec_type(self):
        weights = list(np.linspace(1.0, 0.0, 32))
        fields = {
            "diagonal": {"weights": weights},
            "projection_phiH2": {"inner": {"zeros": [[0.5, 0.0]]}},
            "projection_model": {"inner": {"zeros": [[0.5, 0.0]]}},
            "projection_monomial": {"excluded": [1]},
            "projection_c_plus_phi": {"inner": {"zeros": [[0.5, 0.0]]}},
            "st_constructed": {"points": [[0.3, 0.0], [-0.3, 0.0]], "Q": matrix_to_json(np.eye(2))},
            "custom": {"matrix": matrix_to_json(np.diag(weights))},
        }
        for kind in sorted(OPERATOR_KINDS):
            op = from_spec({"type": kind, "N": 32, **fields.get(kind, {})})
            assert op.kind == kind
            assert op.dim == 32

    def test_custom_round_trip(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = {"type": "custom", "matrix": matrix_to_json(m)}
        op = from_spec(spec)
        assert np.allclose(op.matrix.matrix, m)
        assert not op.contraction

    def test_missing_and_unknown_type(self):
        with pytest.raises(ValueError):
            from_spec({})
        with pytest.raises(ValueError):
            from_spec({"type": "banana"})


def test_unimodular_scalar_front_scales_series():
    phi = InnerFunction(zeros=(0.5,), unimodular=1j)
    base = taylor_coefficients(InnerFunction(zeros=(0.5,)), 8)
    assert np.allclose(taylor_coefficients(phi, 8), 1j * base, atol=1e-15)


# ---------------------------------------------------------------------------
# structured operators against dense references built here


def dense_phi_projection(phi, order, buffer=1024):
    """T_phi T_phi* formed at order + buffer and compressed to order x order.

    T_phi is lower triangular, so the leading block of the product only
    needs the leading ``order`` rows of T_phi.
    """
    c = taylor_coefficients(phi, order + buffer)
    idx = np.subtract.outer(np.arange(order), np.arange(order + buffer))
    rows = np.where(idx >= 0, c[np.clip(idx, 0, order + buffer - 1)], 0.0)
    return rows @ rows.conj().T


def dense_c_plus_phi(p):
    """Add the constant direction left over by p, as a rank-one piece."""
    v = -p[:, 0].copy()
    v[0] += 1.0
    nv = np.linalg.norm(v)
    if nv > 1e-8:
        v = v / nv
        p = p + np.outer(v, v.conj())
    return p


def idempotency_defect(p):
    return float(np.abs(p @ p - p).max())


HARD_SYMBOLS = {
    "single": InnerFunction(zeros=(0.5,)),
    "near_boundary": InnerFunction(zeros=(0.95, -0.95j)),
    "repeated": InnerFunction(zeros=(0.7, 0.7, 0.7)),
    "clustered": InnerFunction(zeros=(0.8, 0.8 + 1e-7, 0.8 - 1e-7j), monomial_power=1),
    "monomial": InnerFunction(monomial_power=3),
    "mixed": InnerFunction(
        zeros=(0.3 + 0.4j, -0.7, 0.2j, 0.85j, -0.5 - 0.5j), unimodular=np.exp(0.3j), monomial_power=2
    ),
}


class TestStructuredProjections:
    @pytest.mark.parametrize("order", [16, 64, 256])
    @pytest.mark.parametrize("name", sorted(HARD_SYMBOLS))
    def test_match_dense_reference(self, name, order):
        phi = HARD_SYMBOLS[name]
        ref = dense_phi_projection(phi, order)
        if idempotency_defect(ref) > 1e-6:
            # the window cuts off too much of the model space either way
            with pytest.raises(TruncationTooCoarseError):
                projection_phi_H2(phi, order)
            return
        p = projection_phi_H2(phi, order)
        assert np.abs(p.matrix.matrix - ref).max() <= 1e-12
        m = projection_model_space(phi, order)
        assert np.abs(m.matrix.matrix - (np.eye(order) - ref)).max() <= 1e-12
        ref_c = dense_c_plus_phi(ref)
        if idempotency_defect(ref_c) > 1e-8:
            with pytest.raises(TruncationTooCoarseError):
                projection_c_plus_phi(phi, order)
            return
        c = projection_c_plus_phi(phi, order)
        assert np.abs(c.matrix.matrix - ref_c).max() <= 1e-12
        assert p.contraction and m.contraction
        # lambda_max may sit a truncation tail above 1; the flag follows the spectrum
        assert c.contraction == (np.linalg.eigvalsh(ref_c)[-1] <= 1.0 + 1e-10)

    def test_rank_is_degree(self):
        phi = HARD_SYMBOLS["clustered"]
        op = projection_model_space(phi, 256)
        assert op.basis.shape == (256, phi.degree)

    def test_constant_symbol_gives_identity(self):
        op = projection_phi_H2(InnerFunction(unimodular=1j), 32)
        assert np.array_equal(op.matrix.matrix, np.eye(32))

    def test_dense_matrix_is_exactly_hermitian(self):
        p = projection_c_plus_phi(HARD_SYMBOLS["mixed"], 128).matrix.matrix
        assert np.abs(p - p.conj().T).max() == 0.0


def dense_st(q, seq, order):
    """The dense route: P = (V G^-1 Q G^-1 V*)^(1/2) through psd_inverse and
    psd_sqrt, and the roundtrip defect of that P."""
    v = kernel_matrix(seq, order, normalize=True)
    g = v.conj().T @ v
    g_inv = psd_inverse((g + g.conj().T) / 2.0)
    r = v @ (g_inv @ q @ g_inv) @ v.conj().T
    p = psd_sqrt((r + r.conj().T) / 2.0).matrix
    w = p @ v
    return p, float(np.abs(w.conj().T @ w - q).max())


class TestStructuredSt:
    @pytest.mark.parametrize("order", [16, 64, 256])
    @pytest.mark.parametrize("count", [3, 8])
    def test_matches_dense_route(self, order, count):
        rng = np.random.default_rng(100 * order + count)
        seq = PointSequence(
            [0.6 * np.exp(2j * np.pi * (k + 0.2 * rng.uniform()) / count) for k in range(count)]
        )
        a = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
        q = a @ a.conj().T
        q = 0.8 * q / np.real(np.diagonal(q)).max() + 0.2 * np.eye(count)
        op = st_construct(q, seq, order, delta=0.2)
        assert op.basis.shape == (order, count)
        dense, dense_defect = dense_st(q, seq, order)
        assert np.abs(op.matrix.matrix - dense).max() <= 1e-7
        # the dense route's explicit G^-1 carries roundoff of order
        # eps * cond(G) into its roundtrip (cond(G) is 8 for 3 points, 1.3e3
        # for 8); the QR route forms no inverse and stays within a few times that
        defect, _ = st_roundtrip_defect(op, q, seq)
        assert defect <= max(1e-12, 4.0 * dense_defect)

    def test_decomposes_only_n_by_n_matrices(self, eigensolves, monkeypatch):
        # Q's eigendecomposition (PSD gate and square-root factor) is the one
        # Hermitian eigensolve; S and the core's factor get one SVD each, and
        # neither the N x N operator nor the kernel Gram matrix is decomposed
        svds = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        count = 6
        seq = PointSequence([0.6 * np.exp(2j * np.pi * k / count) for k in range(count)])
        q = 0.5 * np.eye(count) + 0.1
        op = st_construct(q, seq, 256, delta=0.6)
        assert eigensolves == [(count, count)]
        assert svds == [(count, count), (count, count)]
        assert op.core.ndim == 1 and op.basis.shape == (256, count)

    @pytest.mark.parametrize("family", ["clustered", "radial"])
    def test_hard_families_stay_accurate(self, family):
        # kernel Gram matrices reach the 1e-8 conditioning floor here; an
        # eigensolve of the core S^-* Q S^-1, in place of the SVD of its
        # factor, gives defects up to 1.4e-8 on the radial seed
        rng = np.random.default_rng({"clustered": 41, "radial": 43}[family])
        order = 256
        built = 0
        for _ in range(100):
            count = int(rng.integers(2, 13))
            if family == "clustered":
                center = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                spread = 10.0 ** rng.uniform(-4.0, -1.0)
                z = center + spread * (rng.normal(size=count) + 1j * rng.normal(size=count))
            else:
                angle = 2.0 * np.pi * rng.uniform() + 1e-3 * rng.normal(size=count)
                z = np.sort(rng.uniform(0.0, 0.97, size=count)) * np.exp(1j * angle)
            rank = int(rng.integers(1, count + 1))
            a = rng.normal(size=(count, rank)) + 1j * rng.normal(size=(count, rank))
            q = a @ a.conj().T
            scale = np.sqrt(np.real(np.diagonal(q)))
            q = q / np.outer(scale, scale)
            if np.abs(z).max() >= 0.999:
                continue
            seq = PointSequence(list(z))
            try:
                op = st_construct(q, seq, order, delta=1.0 - 1e-12)
            except IllConditionedGramError:
                continue
            built += 1
            defect, min_norm_sq = st_roundtrip_defect(op, q, seq)
            assert defect <= 1e-8
            assert min_norm_sq >= 1.0 - 1e-8
        assert built >= 10


class TestStructuredForm:
    def _basis(self, order=12, rank=2):
        rng = np.random.default_rng(29)
        q, _ = np.linalg.qr(rng.normal(size=(order, rank)) + 1j * rng.normal(size=(order, rank)))
        return q

    def test_negative_core_eigenvalue_raises(self):
        with pytest.raises(NotPSDError):
            PositiveOperator(np.diag([1.0, -0.5]), "x", "custom", basis=self._basis())

    def test_shift_counts_toward_the_spectrum(self):
        u = self._basis()
        op = PositiveOperator(np.diag([-0.5, 0.0]), "x", "custom", basis=u, shift=1.0)
        assert op.contraction
        with pytest.raises(NotPSDError):
            PositiveOperator(np.diag([-1.5, 0.0]), "x", "custom", basis=u, shift=1.0)
        # the shift is an eigenvalue of its own only when the basis is not full
        assert not PositiveOperator(-1.5 * np.eye(2), "x", "custom", basis=u, shift=2.0).contraction
        full = self._basis(rank=12)
        assert PositiveOperator(-1.5 * np.eye(12), "x", "custom", basis=full, shift=2.0).contraction

    def test_negative_diagonal_raises(self):
        with pytest.raises(NotPSDError):
            PositiveOperator(np.array([1.0, -0.5]), "x", "custom")

    def test_core_must_fit_basis(self):
        with pytest.raises(DimensionMismatchError):
            PositiveOperator(np.eye(3), "x", "custom", basis=self._basis())

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
        u = self._basis()
        ops = [
            PositiveOperator(np.array([[2.0, 0.5j], [-0.5j, 1.0]]), "x", "custom", basis=u, shift=0.25),
            PositiveOperator(rng.uniform(0.0, 1.0, size=12), "x", "diagonal"),
            PositiveOperator(HermitianMatrix(np.eye(12) + 0.1), "x", "custom"),
        ]
        for op in ops:
            assert np.abs(op.apply(x) - op.matrix.matrix @ x).max() < 1e-14
            assert np.abs(op.apply(x[:, 0]) - op.matrix.matrix @ x[:, 0]).max() < 1e-14
