"""Inner functions, Toeplitz compressions, projections, and the Grammian
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
    DiskPoint,
    HermitianMatrix,
    IllConditionedGramError,
    IndexOutOfRangeError,
    InnerFunction,
    NegativeWeightError,
    NotPSDError,
    PointSequence,
    PositiveOperator,
    TruncationContext,
    TruncationTooCoarseError,
    diagonal_operator,
    evaluate_inner,
    identity,
    kernel_matrix,
    kernel_vector,
    projection_c_plus_phi,
    projection_model_space,
    projection_monomial_span,
    projection_phi_H2,
    psd_sqrt,
    range_contains_phi,
    st_construct,
    st_roundtrip_defect,
    szego_gram,
    taylor_coefficients,
    toeplitz_matrix,
)
from hardyframes.hermitian import psd_inverse
from hardyframes.io import matrix_from_json, matrix_to_json
from hardyframes.operators import from_spec


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

    def test_accepts_disk_point(self):
        phi = InnerFunction(zeros=(0.5,))
        assert evaluate_inner(phi, DiskPoint(0.25)) == pytest.approx(phi(0.25))


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
    def test_shift_symbol(self):
        t = toeplitz_matrix(InnerFunction(monomial_power=1), TruncationContext(5, 0))
        assert np.allclose(t, np.eye(5, k=-1), atol=0)

    def test_lower_triangular_constant_diagonals(self):
        phi = InnerFunction(zeros=(0.5, 0.2j))
        t = toeplitz_matrix(phi, TruncationContext(12, 4))
        c = taylor_coefficients(phi, 12)
        for m in range(12):
            for n in range(12):
                want = c[m - n] if m >= n else 0.0
                assert t[m, n] == pytest.approx(want, abs=1e-15)

    def test_multiplicative_on_window(self):
        # T_{phi psi} equals T_phi T_psi exactly for lower triangular blocks
        phi = InnerFunction(zeros=(0.5,))
        psi = InnerFunction(zeros=(0.3j, -0.2), monomial_power=1)
        both = InnerFunction(zeros=phi.zeros + psi.zeros, monomial_power=1)
        ctx = TruncationContext(24, 8)
        left = toeplitz_matrix(phi, ctx) @ toeplitz_matrix(psi, ctx)
        right = toeplitz_matrix(both, ctx)
        assert np.abs(left - right).max() < 1e-13

    def test_adjoint_fixes_kernels(self):
        # T_phi* k_w = conj(phi(w)) k_w up to the truncation tail
        rng = np.random.default_rng(13)
        ctx = TruncationContext(order=256)
        for _ in range(5):
            phi = random_inner(rng)
            w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            t = toeplitz_matrix(phi, ctx)
            k = kernel_vector(w, ctx).coeffs
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
        assert np.allclose(op.array, np.eye(7))


class TestDiagonalOperator:
    def test_builds_diag(self):
        op = diagonal_operator([0.5, 1.0, 0.0])
        assert np.allclose(op.array, np.diag([0.5, 1.0, 0.0]))
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
        assert np.allclose(op.array, np.diag([1.0, 0.0, 1.0, 0.0, 1.0]))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            projection_monomial_span([5], 5)
        with pytest.raises(IndexOutOfRangeError):
            projection_monomial_span([-1], 5)


class TestProjectionPhiH2:
    def test_idempotent_and_contractive(self):
        ctx = TruncationContext(order=128)
        for phi in (
            InnerFunction(zeros=(0.5,)),
            InnerFunction(zeros=(0.3, -0.4j), monomial_power=1),
        ):
            op = projection_phi_H2(phi, ctx)
            p = op.array
            assert np.abs(p @ p - p).max() < 1e-8
            assert op.contraction
            assert op.kind == "projection_phiH2"

    def test_range_contains_phi(self):
        ctx = TruncationContext(order=256)
        phi = InnerFunction(zeros=(0.5, 0.2 + 0.3j))
        op = projection_phi_H2(phi, ctx)
        assert range_contains_phi(op, phi, ctx)

    def test_kernel_image_norm_is_phi_modulus(self):
        # ||P k~_w|| = |phi(w)| because multiplication by phi is isometric
        ctx = TruncationContext(order=256)
        phi = InnerFunction(zeros=(0.5, -0.3j))
        op = projection_phi_H2(phi, ctx)
        for w in (0.2, -0.4j, 0.3 + 0.3j):
            k = kernel_vector(w, ctx, normalize=True).coeffs
            assert np.linalg.norm(op.array @ k) == pytest.approx(abs(phi(w)), abs=1e-10)

    def test_escalation_raises_when_capped(self):
        with pytest.raises(TruncationTooCoarseError):
            projection_phi_H2(InnerFunction(zeros=(0.999,)), TruncationContext(16, 8))


class TestProjectionModelSpace:
    def test_complements_phi_projection(self):
        ctx = TruncationContext(order=96)
        phi = InnerFunction(zeros=(0.4,), monomial_power=1)
        p = projection_phi_H2(phi, ctx).array
        m = projection_model_space(phi, ctx).array
        assert np.abs(p + m - np.eye(ctx.order)).max() < 1e-14

    def test_rank_equals_degree(self):
        ctx = TruncationContext(order=128)
        for phi in (
            InnerFunction(zeros=(0.5,)),
            InnerFunction(zeros=(0.5, -0.3), monomial_power=2),
        ):
            m = projection_model_space(phi, ctx).array
            assert np.real(np.trace(m)) == pytest.approx(phi.degree, abs=1e-6)

    def test_contains_kernels_at_zeros(self):
        ctx = TruncationContext(order=256)
        phi = InnerFunction(zeros=(0.5, -0.2 + 0.3j))
        m = projection_model_space(phi, ctx).array
        for a in phi.zeros:
            k = kernel_vector(a, ctx, normalize=True).coeffs
            assert np.linalg.norm(m @ k - k) < 1e-9


class TestProjectionCPlusPhi:
    def test_shift_symbol_gives_identity(self):
        # constants + z H^2 is the whole space
        ctx = TruncationContext(order=64)
        op = projection_c_plus_phi(InnerFunction(monomial_power=1), ctx)
        assert np.abs(op.array - np.eye(64)).max() < 1e-12

    def test_contains_constants_and_phi(self):
        ctx = TruncationContext(order=128)
        phi = InnerFunction(zeros=(0.5, 0.3j))
        op = projection_c_plus_phi(phi, ctx)
        e0 = np.zeros(128, dtype=complex)
        e0[0] = 1.0
        assert np.linalg.norm(op.array @ e0 - e0) < 1e-7
        assert range_contains_phi(op, phi, ctx, tol=1e-5)

    def test_idempotent(self):
        ctx = TruncationContext(order=128)
        op = projection_c_plus_phi(InnerFunction(zeros=(0.4, -0.2)), ctx)
        p = op.array
        assert np.abs(p @ p - p).max() < 1e-7

    def test_codimension_drops_by_one(self):
        # deg-2 symbol: phi H^2 has codim 2, adding constants leaves codim 1
        ctx = TruncationContext(order=96)
        phi = InnerFunction(zeros=(0.5, -0.3))
        tr = float(np.real(np.trace(projection_c_plus_phi(phi, ctx).array)))
        assert tr == pytest.approx(96 - 1, abs=1e-5)


class TestStConstruct:
    def _ring(self, count):
        return PointSequence(
            [0.6 * np.exp(2j * np.pi * k / count) for k in range(count)]
        )

    def test_realizes_szego_gram(self):
        seq = self._ring(5)
        ctx = TruncationContext(order=192)
        q = szego_gram(seq).matrix.matrix
        op = st_construct(q, seq, ctx, delta=0.5)
        defect, min_norm = st_roundtrip_defect(op, q, seq, ctx)
        assert defect < 1e-9
        assert min_norm == pytest.approx(1.0, abs=1e-9)
        assert op.kind == "st_constructed"
        assert op.id == "st(points=5,delta=0.5)"

    def test_realizes_random_psd_target(self):
        rng = np.random.default_rng(17)
        seq = self._ring(6)
        ctx = TruncationContext(order=192)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q = a @ a.conj().T
        q = 0.8 * q / np.real(np.diagonal(q)).max() + 0.2 * np.eye(6)
        op = st_construct(q, seq, ctx, delta=0.1)
        defect, min_norm = st_roundtrip_defect(op, q, seq, ctx)
        assert defect < 1e-8
        assert min_norm >= 0.1 - 1e-9

    def test_operator_is_psd_symmetric(self):
        seq = self._ring(4)
        ctx = TruncationContext(order=128)
        q = np.eye(4)
        op = st_construct(q, seq, ctx, delta=0.9)
        p = op.array
        assert np.abs(p - p.conj().T).max() == 0.0
        assert float(np.linalg.eigvalsh(p)[0]) >= -1e-10

    def test_rejects_non_psd_target(self):
        seq = self._ring(2)
        with pytest.raises(NotPSDError):
            st_construct(np.array([[1.0, 2.0], [2.0, 1.0]]), seq, TruncationContext(64), 0.5)

    def test_rejects_diagonal_below_delta(self):
        seq = self._ring(2)
        with pytest.raises(ValueError):
            st_construct(np.diag([1.0, 0.3]), seq, TruncationContext(64), 0.5)

    def test_rejects_nonpositive_delta(self):
        seq = self._ring(2)
        with pytest.raises(ValueError):
            st_construct(np.eye(2), seq, TruncationContext(64), 0.0)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            st_construct(np.eye(3), self._ring(2), TruncationContext(64), 0.5)

    def test_near_duplicate_points_rejected(self):
        seq = PointSequence([0.5, 0.5 + 1e-9])
        with pytest.raises(IllConditionedGramError):
            st_construct(np.eye(2), seq, TruncationContext(128), 0.5)


class TestRangeContainsPhi:
    def test_model_projection_excludes_phi(self):
        ctx = TruncationContext(order=256)
        phi = InnerFunction(zeros=(0.5,))
        assert not range_contains_phi(projection_model_space(phi, ctx), phi, ctx)

    def test_identity_contains_everything(self):
        ctx = TruncationContext(order=128)
        assert range_contains_phi(identity(128), InnerFunction(zeros=(0.3,)), ctx)


class TestFromSpec:
    def test_diagonal(self):
        op = from_spec({"type": "diagonal", "weights": [1.0, 0.5]})
        assert np.allclose(op.array, np.diag([1.0, 0.5]))

    def test_projection_phiH2_matches_direct(self):
        spec = {"type": "projection_phiH2", "N": 64, "inner": {"zeros": [[0.5, 0.0]]}}
        op = from_spec(spec)
        direct = projection_phi_H2(InnerFunction(zeros=(0.5,)), TruncationContext(64, 64))
        assert np.abs(op.array - direct.array).max() < 1e-14

    def test_projection_model(self):
        spec = {
            "type": "projection_model",
            "N": 64,
            "inner": {"zeros": [[0.0, 0.4]], "m": 1},
        }
        op = from_spec(spec)
        assert op.kind == "projection_model"
        assert np.real(np.trace(op.array)) == pytest.approx(2.0, abs=1e-6)

    def test_projection_monomial(self):
        op = from_spec({"type": "projection_monomial", "N": 6, "excluded": [0, 2]})
        assert np.allclose(op.array, np.diag([0.0, 1.0, 0.0, 1.0, 1.0, 1.0]))

    def test_c_plus_phi(self):
        spec = {"type": "c_plus_phi", "N": 64, "inner": {"zeros": [[0.5, 0.0]]}}
        assert from_spec(spec).kind == "projection_c_plus_phi"

    def test_st_with_default_delta(self):
        pts = [[0.6, 0.0], [-0.6, 0.0], [0.0, 0.6]]
        q = matrix_to_json(0.5 * np.eye(3))
        spec = {"type": "st", "N": 128, "points": pts, "Q": q}
        op = from_spec(spec, matrix_from_json=matrix_from_json)
        assert op.kind == "st_constructed"
        assert "delta=0.5" in op.id

    def test_st_requires_parser(self):
        with pytest.raises(ValueError):
            from_spec({"type": "st", "points": [], "Q": {}})

    def test_custom_round_trip(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = {"type": "custom", "matrix": matrix_to_json(m)}
        op = from_spec(spec, matrix_from_json=matrix_from_json)
        assert np.allclose(op.array, m)
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
        ctx = TruncationContext(order)
        ref = dense_phi_projection(phi, order)
        if idempotency_defect(ref) > 1e-6:
            # the window cuts off too much of the model space either way
            with pytest.raises(TruncationTooCoarseError):
                projection_phi_H2(phi, ctx)
            return
        p = projection_phi_H2(phi, ctx)
        assert np.abs(p.array - ref).max() <= 1e-12
        m = projection_model_space(phi, ctx)
        assert np.abs(m.array - (np.eye(order) - ref)).max() <= 1e-12
        ref_c = dense_c_plus_phi(ref)
        if idempotency_defect(ref_c) > 1e-8:
            with pytest.raises(TruncationTooCoarseError):
                projection_c_plus_phi(phi, ctx)
            return
        c = projection_c_plus_phi(phi, ctx)
        assert np.abs(c.array - ref_c).max() <= 1e-12
        assert p.contraction and m.contraction
        # lambda_max may sit a truncation tail above 1; the flag follows the spectrum
        assert c.contraction == (np.linalg.eigvalsh(ref_c)[-1] <= 1.0 + 1e-10)

    def test_buffer_does_not_change_projections(self):
        phi = HARD_SYMBOLS["mixed"]
        a = projection_phi_H2(phi, TruncationContext(128, 0)).array
        b = projection_phi_H2(phi, TruncationContext(128, 512)).array
        assert np.array_equal(a, b)

    def test_rank_is_degree(self):
        phi = HARD_SYMBOLS["clustered"]
        op = projection_model_space(phi, TruncationContext(256))
        assert op.basis.shape == (256, phi.degree)

    def test_constant_symbol_gives_identity(self):
        op = projection_phi_H2(InnerFunction(unimodular=1j), TruncationContext(32))
        assert np.array_equal(op.array, np.eye(32))

    def test_dense_matrix_is_exactly_hermitian(self):
        p = projection_c_plus_phi(HARD_SYMBOLS["mixed"], TruncationContext(128)).array
        assert np.abs(p - p.conj().T).max() == 0.0


def dense_st(q, seq, ctx):
    """The dense route: P = (V G^-1 Q G^-1 V*)^(1/2) through psd_inverse and
    psd_sqrt, and the roundtrip defect of that P."""
    v = kernel_matrix(seq, ctx, normalize=True)
    g = v.conj().T @ v
    g_inv, _ = psd_inverse((g + g.conj().T) / 2.0)
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
        ctx = TruncationContext(order)
        a = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
        q = a @ a.conj().T
        q = 0.8 * q / np.real(np.diagonal(q)).max() + 0.2 * np.eye(count)
        op = st_construct(q, seq, ctx, delta=0.2)
        assert op.basis.shape == (order, count)
        dense, dense_defect = dense_st(q, seq, ctx)
        assert np.abs(op.array - dense).max() <= 1e-7
        # G^-1 carries roundoff of order eps * cond(G) into the roundtrip on
        # both routes (cond(G) is 8 for 3 points, 1.3e3 for 8)
        defect, _ = st_roundtrip_defect(op, q, seq, ctx)
        assert defect <= max(1e-12, 4.0 * dense_defect)


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
            assert np.abs(op.apply(x) - op.array @ x).max() < 1e-14
            assert np.abs(op.apply(x[:, 0]) - op.array @ x[:, 0]).max() < 1e-14
