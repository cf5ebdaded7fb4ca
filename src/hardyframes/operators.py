"""Positive operators on the truncated monomial model of the disk.

Inner functions here are finite Blaschke products

    phi(z) = u * z^m * prod_k (|a_k| / a_k) (a_k - z) / (1 - conj(a_k) z),

the only inner class with exact coefficient recurrences, so truncated
Toeplitz matrices can be formed without quadrature. The factory produces
multiplication-range projections T_phi T_phi*, their model-space
complements, monomial coordinate projections, the rank-one extension by
constants, diagonal weight operators, and the inverse construction that
realizes a prescribed PSD matrix as the Grammian of projected kernels.

Operators are held in structured form (see ``PositiveOperator``). The
projections built from phi use the Takenaka-Malmquist-Walsh basis of the
model space: the compression of T_phi T_phi* to the first N coefficients
is exactly I_N - E E* with E of size N x deg(phi), so building one costs
O(N log N) per zero plus O(N deg(phi)^2) for the orthonormalization, and
needs no working buffer past the window. The inverse
construction is low rank: rank n for n points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedGramError,
    IndexOutOfRangeError,
    NegativeWeightError,
    TruncationTooCoarseError,
)
from .geometry import PointSequence
from .hermitian import HermitianMatrix, as_matrix, eig_extremes, psd_inverse, psd_sqrt, require_psd
from .kernels import TruncationContext, apply_operator, kernel_matrix

OPERATOR_KINDS = frozenset(
    {
        "identity",
        "diagonal",
        "projection_phiH2",
        "projection_model",
        "projection_monomial",
        "projection_c_plus_phi",
        "st_constructed",
        "custom",
    }
)

ORTHONORMALITY_GATE = 1e-6
GRAM_CONDITION_FLOOR = 1e-8
CONTRACTION_SLACK = 1e-10


@dataclass(frozen=True)
class InnerFunction:
    """A finite Blaschke product with zeros strictly inside the disk.

    Zeros exactly at the origin are absorbed into ``monomial_power``. The
    per-factor front constant |a|/a makes phi(0) >= 0 whenever
    ``monomial_power`` is zero and ``unimodular`` is 1.
    """

    zeros: tuple[complex, ...] = ()
    unimodular: complex = 1.0 + 0.0j
    monomial_power: int = 0

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        m = int(self.monomial_power)
        if m < 0:
            raise ValueError("monomial power must be nonnegative")
        m += sum(1 for a in zs if a == 0)
        zs = tuple(a for a in zs if a != 0)
        for a in zs:
            if abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero {a} must lie strictly inside the disk")
        u = complex(self.unimodular)
        if abs(abs(u) - 1.0) > 1e-12:
            raise ValueError(f"front constant {u} must be unimodular")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "unimodular", u)
        object.__setattr__(self, "monomial_power", m)

    @property
    def degree(self) -> int:
        return self.monomial_power + len(self.zeros)

    def __call__(self, z) -> complex:
        return evaluate_inner(self, z)


def evaluate_inner(phi: InnerFunction, z) -> complex:
    """Evaluate the Blaschke product by its factored form.

    Accepts the closed disk: on |z| = 1 the result has modulus one, which
    is what makes phi inner in the first place.
    """
    zc = complex(getattr(z, "value", z))
    if abs(zc) > 1.0 + 1e-12:
        raise ValueError(f"point {zc} lies outside the closed unit disk")
    out = phi.unimodular * zc**phi.monomial_power
    for a in phi.zeros:
        out *= (abs(a) / a) * (a - zc) / (1.0 - np.conj(a) * zc)
    return complex(out)


def taylor_coefficients(phi: InnerFunction, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of phi at the origin.

    Each factor (|a|/a)(a - z)/(1 - conj(a) z) has the exact expansion
    c_0 = |a|, c_j = (|a|/a) conj(a)^(j-1) (|a|^2 - 1); the product is
    accumulated by truncated polynomial multiplication.
    """
    if count < 1:
        raise ValueError("coefficient count must be positive")
    coeffs = np.zeros(count, dtype=np.complex128)
    coeffs[0] = 1.0
    for a in phi.zeros:
        f = np.empty(count, dtype=np.complex128)
        f[0] = abs(a)
        if count > 1:
            front = (abs(a) / a) * (abs(a) ** 2 - 1.0)
            f[1] = front
            if count > 2:
                f[2:] = front * np.cumprod(np.full(count - 2, np.conj(a)))
        coeffs = np.convolve(coeffs, f)[:count]
    if phi.monomial_power:
        shifted = np.zeros(count, dtype=np.complex128)
        if phi.monomial_power < count:
            shifted[phi.monomial_power:] = coeffs[: count - phi.monomial_power]
        coeffs = shifted
    return phi.unimodular * coeffs


def toeplitz_matrix(phi: InnerFunction, ctx: TruncationContext) -> np.ndarray:
    """Truncated analytic Toeplitz matrix of phi: entry (m, n) = c_{m-n}.

    For an analytic symbol the leading N-by-N block of T_phi only involves
    the first N coefficients, so the block is exact.
    """
    c = taylor_coefficients(phi, ctx.order)
    idx = np.subtract.outer(np.arange(ctx.order), np.arange(ctx.order))
    return np.where(idx >= 0, c[np.clip(idx, 0, ctx.order - 1)], 0.0).astype(np.complex128)


class PositiveOperator:
    """A PSD operator on the truncated monomial model, held in structured form.

    The operator is ``shift * I + B C B*``. ``core`` C is a 1-d array (a
    diagonal) or a Hermitian matrix; ``basis`` B has orthonormal columns, or
    is None for the identity basis. So ``PositiveOperator(weights, ...)`` is
    diag(weights), ``basis=U`` with a small core is a low-rank update of
    ``shift * I``, and a user-supplied N-by-N matrix stays dense.

    PSD and contraction are read off the exact spectrum of that form: the
    diagonal, or the core's eigenvalues, plus ``shift``, which is also an
    eigenvalue whenever the basis has fewer than N columns. ``contraction``
    is set exactly when lambda_max <= 1 + 1e-10, so every projection and
    every diagonal with weights in [0, 1] reports True. The dense matrix is
    built only when ``matrix`` or ``array`` is read.
    """

    def __init__(self, core, id: str, kind: str, *, basis=None, shift: float = 0.0):
        if kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        self.id, self.kind, self.basis, self.shift = id, kind, basis, float(shift)
        self._dense = None
        if np.ndim(core) == 1:
            core = np.asarray(core, dtype=np.float64)
            if not np.isfinite(core).all():
                raise ValueError("diagonal entries must be finite (found NaN or infinity)")
        else:
            hermitian = core if isinstance(core, HermitianMatrix) else HermitianMatrix(core)
            if basis is None:
                self._dense = hermitian
            core = hermitian.matrix
        rank = core.shape[0]
        self.core = core
        self.dim = rank if basis is None else basis.shape[0]
        if basis is not None and basis.shape[1] != rank:
            raise DimensionMismatchError(f"basis has {basis.shape[1]} columns but the core is {rank}x{rank}")
        spectrum = self.shift + (core if core.ndim == 1 else np.linalg.eigvalsh(core))
        if rank < self.dim:
            spectrum = np.append(spectrum, self.shift)
        lam_min, lam_max = float(spectrum.min()), float(spectrum.max())
        require_psd(lam_min, lam_max, f"operator {id!r}")
        self.contraction = lam_max <= 1.0 + CONTRACTION_SLACK

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ x for x of shape (N,) or (N, k), at O(N * k * rank) cost."""
        y = x if self.basis is None else self.basis.conj().T @ x
        y = (self.core * y.T).T if self.core.ndim == 1 else self.core @ y
        if self.basis is not None:
            y = self.basis @ y
        return y + self.shift * x if self.shift else y

    @property
    def matrix(self) -> HermitianMatrix:
        """The dense operator, exactly Hermitian, built on first use."""
        if self._dense is None:
            self._dense = HermitianMatrix(self.apply(np.eye(self.dim, dtype=np.complex128)))
        return self._dense

    @property
    def array(self) -> np.ndarray:
        return self.matrix.matrix


def identity(order: int) -> PositiveOperator:
    return PositiveOperator(np.ones(order), f"identity(N={order})", "identity")


def diagonal_operator(weights) -> PositiveOperator:
    """diag(p) for nonnegative weights; a contraction when all p_n <= 1."""
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(p < 0.0):
        bad = int(np.nonzero(p < 0.0)[0][0])
        raise NegativeWeightError(f"weight p[{bad}] = {p[bad]} is negative")
    return PositiveOperator(p, f"diagonal(N={p.size})", "diagonal")


def _phi_id(phi: InnerFunction) -> str:
    return f"m={phi.monomial_power},zeros={len(phi.zeros)}"


def _over_linear(s: np.ndarray, c: complex) -> np.ndarray:
    """Truncated series of s(z) / (1 - c z).

    Solves h_n = s_n + c h_(n-1) by doubling strides: after the pass with
    stride d, h_n sums c^(n-i) s_i over the last 2d indices i <= n.
    """
    h = s.copy()
    step, power = 1, c
    while step < h.size:
        h[step:] += power * h[:-step]
        step, power = 2 * step, power * power
    return h


def _model_space_basis(phi: InnerFunction, ctx: TruncationContext) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal U and small Hermitian C with U C U* = E E*, where the
    columns of E are the truncated Takenaka-Malmquist-Walsh basis of the
    model space K_phi = (phi H^2)^perp (Nikolski, Treatise on the Shift
    Operator):

        1, z, ..., z^(m-1),  z^m prod_{j<k} b_{a_j}(z) sqrt(1 - |a_k|^2) / (1 - conj(a_k) z)

    with b_a(z) = (a - z) / (1 - conj(a) z); unimodular constants are
    dropped since they leave E E* unchanged. The compressed projection onto
    phi H^2 is then exactly I_N - E E*. Columns that lie wholly past the
    window are exactly zero and are left out. If truncation cost the
    columns norm, so that max |E*E - I| exceeds ``ORTHONORMALITY_GATE``,
    ``TruncationTooCoarseError`` is raised.
    """
    order = ctx.order
    heads = min(phi.monomial_power, order)
    zeros = phi.zeros if phi.monomial_power < order else ()
    e = np.zeros((order, heads + len(zeros)), dtype=np.complex128)
    e[:heads, :heads] = np.eye(heads)
    # running product prod_{j<k} b_{a_j}, stored from degree m on
    s = np.zeros(order - heads, dtype=np.complex128)
    s[:1] = 1.0
    for k, a in enumerate(zeros, start=heads):
        h = _over_linear(s, np.conj(a))
        e[heads:, k] = np.sqrt(1.0 - abs(a) ** 2) * h
        s = a * h
        s[1:] -= h[:-1]
    defect = float(np.abs(e.conj().T @ e - np.eye(e.shape[1])).max(initial=0.0))
    if defect > ORTHONORMALITY_GATE:
        raise TruncationTooCoarseError(
            f"model-space basis has orthonormality defect {defect:.3e} above "
            f"{ORTHONORMALITY_GATE:.1e} at order {order}; raise the truncation order"
        )
    u, r = np.linalg.qr(e)
    return u, r @ r.conj().T


def projection_phi_H2(phi: InnerFunction, ctx: TruncationContext) -> PositiveOperator:
    """Orthogonal projection onto phi H^2, compressed to the truncation window."""
    u, c = _model_space_basis(phi, ctx)
    return PositiveOperator(
        -c, f"projection_phiH2({_phi_id(phi)})", "projection_phiH2", basis=u, shift=1.0
    )


def projection_model_space(phi: InnerFunction, ctx: TruncationContext) -> PositiveOperator:
    """Projection onto the model space (phi H^2)^perp; rank equals deg(phi)."""
    u, c = _model_space_basis(phi, ctx)
    return PositiveOperator(c, f"projection_model({_phi_id(phi)})", "projection_model", basis=u)


def projection_monomial_span(excluded, order: int) -> PositiveOperator:
    """Projection onto the closed span of the monomials NOT in ``excluded``."""
    if order < 1:
        raise ValueError("order must be positive")
    d = np.ones(order)
    seen = sorted({int(j) for j in excluded})
    for j in seen:
        if j < 0 or j >= order:
            raise IndexOutOfRangeError(f"monomial index {j} outside [0, {order})")
        d[j] = 0.0
    return PositiveOperator(d, f"projection_monomial(excluded={seen})", "projection_monomial")


def projection_c_plus_phi(phi: InnerFunction, ctx: TruncationContext) -> PositiveOperator:
    """Projection onto constants + phi H^2.

    The constant direction is orthogonalized against phi H^2 and added as a
    rank-one piece; for nonconstant phi the leftover E E* e_0 has norm
    sqrt(1 - |phi(0)|^2) > 0 and lies in the model-space basis, so the
    operator stays I + U C U*.
    """
    u, c = _model_space_basis(phi, ctx)
    w = c @ np.conj(u[0])
    nw = np.linalg.norm(w)
    core = -c
    if nw > 1e-8:
        w = w / nw
        core = core + np.outer(w, w.conj())
    defect = float(np.abs(core @ core + core).max(initial=0.0))
    if defect > 1e-8:
        raise TruncationTooCoarseError(
            f"constants + phi H^2 projection has idempotency defect {defect:.3e}"
        )
    return PositiveOperator(
        core, f"projection_c_plus_phi({_phi_id(phi)})", "projection_c_plus_phi", basis=u, shift=1.0
    )


def st_construct(q, seq: PointSequence, ctx: TruncationContext, delta: float) -> PositiveOperator:
    """Build a positive operator whose projected-kernel Grammian equals a
    prescribed PSD matrix.

    With V the matrix of normalized truncated kernel vectors and
    G = V* V their Gram matrix, the operator

        R = V G^-1 Q G^-1 V*,   P = R^(1/2)

    satisfies (<P k~_j, P k~_i>)_ij = Q up to truncation, since
    V* R V = Q exactly. Q must be PSD with diagonal at least ``delta``
    (that floor becomes the lower norm bound ||P k~_i||^2 >= delta), and
    the kernel Gram matrix must be invertible at the 1e-8 level.

    R has rank n: with the thin QR factorization V = U S it is
    U (S G^-1 Q G^-1 S*) U*, so P is U times the square root of that n-by-n
    core times U*, with ``psd_sqrt``'s clipping rule applied to the core.
    G^-1 is formed explicitly, as in the dense form of R, so near the
    conditioning floor its roundoff still reaches the roundtrip defect,
    where the caller's gate sees it.
    """
    qm = as_matrix(q)
    m = qm.shape[0]
    if m != len(seq):
        raise ValueError(f"Q is {m}x{m} but the sequence has {len(seq)} points")
    q_ext = eig_extremes(qm)
    require_psd(q_ext.lambda_min, q_ext.lambda_max, "Q")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    diag_min = float(np.real(np.diagonal(qm)).min())
    if diag_min < delta - 1e-12:
        raise ValueError(f"diagonal minimum {diag_min:.6f} below delta {delta}")

    v = kernel_matrix(seq, ctx, normalize=True)
    g = v.conj().T @ v
    g = (g + g.conj().T) / 2.0
    g_ext = eig_extremes(g)
    if g_ext.lambda_min < GRAM_CONDITION_FLOOR:
        raise IllConditionedGramError(
            f"kernel Gram matrix has lambda_min {g_ext.lambda_min:.3e} "
            f"below {GRAM_CONDITION_FLOOR:.1e}"
        )
    g_inv, _ = psd_inverse(g)
    u, s = np.linalg.qr(v)
    core = s @ (g_inv @ qm @ g_inv) @ s.conj().T
    root = psd_sqrt((core + core.conj().T) / 2.0)
    return PositiveOperator(root, f"st(points={m},delta={delta})", "st_constructed", basis=u)


def st_roundtrip_defect(op: PositiveOperator, q, seq: PointSequence, ctx: TruncationContext) -> tuple[float, float]:
    """Maximum entry deviation of the realized Grammian from Q, plus the
    smallest realized squared norm min_i ||P k~_i||^2."""
    qm = as_matrix(q)
    w = apply_operator(op, kernel_matrix(seq, ctx, normalize=True), ctx)
    realized = w.conj().T @ w
    defect = float(np.abs(realized - qm).max())
    min_norm_sq = float(np.real(np.diagonal(realized)).min())
    return defect, min_norm_sq


def range_contains_phi(op: PositiveOperator, phi: InnerFunction, ctx: TruncationContext, tol: float = 1e-6) -> bool:
    """Test phi H^2 inside the fixed space of ``op`` on the truncated model.

    Columns of T_phi are the truncations of z^n phi; only columns whose
    tail has safely left the window are checked, so the answer reflects the
    operators rather than truncation dust.
    """
    t = toeplitz_matrix(phi, ctx)
    keep = max(1, ctx.order - max(2 * ctx.buffer, 128))
    want = t[:, :keep]
    got = apply_operator(op, want, ctx)
    return float(np.abs(got - want).max()) <= tol


def from_spec(spec: dict, matrix_from_json=None) -> PositiveOperator:
    """Build an operator from its JSON description.

    The ``type`` field selects the factory; ``N`` and optional ``buffer``
    fix the truncation. Kept here so the CLI and the verifier share one
    dispatch table.
    """
    if "type" not in spec:
        raise ValueError("operator spec needs a 'type' field")
    kind = spec["type"]
    order = int(spec.get("N", 256))
    ctx = TruncationContext(order, int(spec.get("buffer", 64)))

    def inner_from(d) -> InnerFunction:
        zeros = tuple(complex(re, im) for re, im in d.get("zeros", []))
        u = d.get("unimodular")
        uc = complex(u[0], u[1]) if u is not None else 1.0 + 0.0j
        return InnerFunction(zeros, uc, int(d.get("m", 0)))

    if kind == "diagonal":
        return diagonal_operator(spec["weights"])
    if kind == "projection_phiH2":
        return projection_phi_H2(inner_from(spec["inner"]), ctx)
    if kind == "projection_model":
        return projection_model_space(inner_from(spec["inner"]), ctx)
    if kind == "projection_monomial":
        return projection_monomial_span(spec["excluded"], order)
    if kind == "c_plus_phi":
        return projection_c_plus_phi(inner_from(spec["inner"]), ctx)
    if kind == "st":
        if matrix_from_json is None:
            raise ValueError("st spec requires a matrix parser")
        qm = matrix_from_json(spec["Q"])
        pts = PointSequence(tuple(complex(re, im) for re, im in spec["points"]))
        delta = float(spec.get("delta", np.real(np.diagonal(qm)).min()))
        return st_construct(qm, pts, ctx, delta)
    if kind == "custom":
        if matrix_from_json is None:
            raise ValueError("custom spec requires a matrix parser")
        return PositiveOperator(HermitianMatrix(matrix_from_json(spec["matrix"])), "custom", "custom")
    raise ValueError(f"unknown operator type {kind!r}")
