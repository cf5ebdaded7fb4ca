"""Positive operators on the truncated monomial model of the disk.

Inner functions here are finite Blaschke products

    phi(z) = u * z^m * prod_k (|a_k| / a_k) (a_k - z) / (1 - conj(a_k) z),

the only inner class with exact coefficient recurrences, so Taylor
coefficients and model-space bases can be formed without quadrature. The
factory produces multiplication-range projections T_phi T_phi*, their
model-space complements, monomial coordinate projections, the rank-one
extension by constants, diagonal weight operators, and the inverse
construction that realizes a prescribed PSD matrix as the Grammian of
projected kernels.

Operators are held in structured form (see ``PositiveOperator``). The
projections built from phi use the Takenaka-Malmquist-Walsh basis of the
model space: the compression of T_phi T_phi* to the first N coefficients
is exactly I_N - E E* with E of size N x deg(phi), so building one costs
O(N log N) per zero plus O(N deg(phi)^2) for the orthonormalization, and
needs nothing past the window. The inverse construction has rank n for n
points and is read off the thin QR factor of the n kernel vectors, with no
Gram matrix or inverse formed.
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
from .geometry import PointSequence, _integer
from .hermitian import HermitianMatrix, _adopt, _symmetrize, as_hermitian, require_psd
from .io import from_pairs, json_int, json_number, matrix_from_json
from .kernels import DEFAULT_ORDER, check_order, image_gram, kernel_matrix

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
        m = _integer(self.monomial_power, "monomial power")
        if m < 0:
            raise ValueError("monomial power must be nonnegative")
        m += sum(1 for a in zs if a == 0)
        zs = tuple(a for a in zs if a != 0)
        for a in zs:
            if not abs(a) < 1.0:  # NaN fails too
                raise ValueError(f"Blaschke zero {a} must lie strictly inside the disk")
        u = complex(self.unimodular)
        if not abs(abs(u) - 1.0) <= 1e-12:  # NaN fails too
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
    zc = complex(z)
    if not abs(zc) <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"point {zc} must lie in the closed unit disk")
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
    built only when ``matrix`` is read.
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
            hermitian = as_hermitian(core)
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
        if x.shape[0] != self.dim:
            raise DimensionMismatchError(f"operator dimension {self.dim} disagrees with vector length {x.shape[0]}")
        y = x if self.basis is None else self.basis.conj().T @ x
        y = (self.core * y.T).T if self.core.ndim == 1 else self.core @ y
        if self.basis is not None:
            y = self.basis @ y
        return y + self.shift * x if self.shift else y

    @property
    def matrix(self) -> HermitianMatrix:
        """The dense operator, built on first use and averaged once, in place."""
        if self._dense is None:
            self._dense = _adopt(_symmetrize(self.apply(np.eye(self.dim, dtype=np.complex128))))
        return self._dense


def identity(order: int) -> PositiveOperator:
    check_order(order)
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


def _model_space_basis(phi: InnerFunction, order: int) -> tuple[np.ndarray, np.ndarray]:
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
    ``TruncationTooCoarseError`` is raised: only a larger ``order`` helps,
    since the basis is built inside the window alone.
    """
    check_order(order)
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


def projection_phi_H2(phi: InnerFunction, order: int) -> PositiveOperator:
    """Orthogonal projection onto phi H^2, compressed to the truncation window."""
    u, c = _model_space_basis(phi, order)
    return PositiveOperator(
        -c, f"projection_phiH2({_phi_id(phi)})", "projection_phiH2", basis=u, shift=1.0
    )


def projection_model_space(phi: InnerFunction, order: int) -> PositiveOperator:
    """Projection onto the model space (phi H^2)^perp; rank equals deg(phi)."""
    u, c = _model_space_basis(phi, order)
    return PositiveOperator(c, f"projection_model({_phi_id(phi)})", "projection_model", basis=u)


def projection_monomial_span(excluded, order: int) -> PositiveOperator:
    """Projection onto the closed span of the monomials NOT in ``excluded``."""
    check_order(order)
    d = np.ones(order)
    seen = sorted({_integer(j, "monomial index") for j in excluded})
    for j in seen:
        if j < 0 or j >= order:
            raise IndexOutOfRangeError(f"monomial index {j} outside [0, {order})")
        d[j] = 0.0
    return PositiveOperator(d, f"projection_monomial(excluded={seen})", "projection_monomial")


def projection_c_plus_phi(phi: InnerFunction, order: int) -> PositiveOperator:
    """Projection onto constants + phi H^2.

    The constant direction is orthogonalized against phi H^2 and added as a
    rank-one piece; for nonconstant phi the leftover E E* e_0 has norm
    sqrt(1 - |phi(0)|^2) > 0 and lies in the model-space basis, so the
    operator stays I + U C U*.
    """
    u, c = _model_space_basis(phi, order)
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


def min_diagonal(q) -> float:
    """Smallest real diagonal entry of a matrix or ``HermitianMatrix`` Q: the
    default ``delta`` of an ST construction, and the floor it is checked against."""
    return float(np.real(np.diagonal(getattr(q, "matrix", q))).min())


def st_construct(q, seq: PointSequence, order: int, delta: float) -> PositiveOperator:
    """Build a positive operator whose projected-kernel Grammian equals a
    prescribed PSD matrix.

    With V = U S the thin QR factorization of the normalized truncated
    kernel vectors and Q = L L* from Q's eigendecomposition, the operator
    P = U (M M*)^(1/2) U* with M = S^-* L satisfies
    (<P k~_j, P k~_i>)_ij = V* P^2 V = S* M M* S = Q up to truncation.
    Q must be PSD with diagonal at least ``delta`` (that floor becomes the
    lower norm bound ||P k~_i||^2 >= delta); eigenvalues that ``require_psd``
    accepts as rounding noise are clipped to zero. The kernel Gram matrix
    V* V = S* S must be invertible at the 1e-8 level, read as sigma_min(S)^2;
    N coefficients span at most N dimensions, so N < n raises ``ValueError``.

    M takes one solve with S* and no inverse. Its SVD X diag(sigma) Y*
    gives P as the diagonal sigma in the basis U X, with roundoff
    eps * ||M|| where an eigensolve of M M* would leave eps * ||M||^2.
    """
    v = kernel_matrix(seq, order, normalize=True)  # first: it rejects an order below 1
    q = as_hermitian(q)
    m = q.dim
    if m != len(seq):
        raise ValueError(f"Q is {m}x{m} but the sequence has {len(seq)} points")
    if order < m:
        raise ValueError(f"truncation order N={order} is below n={m} points: their kernels span at most N dimensions")
    lam, vecs = np.linalg.eigh(q.matrix)
    require_psd(float(lam[0]), float(lam[-1]), "Q")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    diag_min = min_diagonal(q)
    if diag_min < delta - 1e-12:
        raise ValueError(f"diagonal minimum {diag_min:.6f} below delta {delta}")

    u, s = np.linalg.qr(v)
    gram_min = float(np.linalg.svd(s, compute_uv=False)[-1]) ** 2
    if gram_min < GRAM_CONDITION_FLOOR:
        raise IllConditionedGramError(
            f"kernel Gram matrix has lambda_min {gram_min:.3e} below {GRAM_CONDITION_FLOOR:.1e}"
        )
    factor = np.linalg.solve(s.conj().T, vecs * np.sqrt(np.clip(lam, 0.0, None)))
    x, sigma, _ = np.linalg.svd(factor)
    return PositiveOperator(sigma, f"st(points={m},delta={delta})", "st_constructed", basis=u @ x)


# An ST construction is certified when its realized Grammian is within ST_ROUNDTRIP_GATE
# of Q entrywise and min_i ||P k~_i||^2 >= delta - ST_NORM_FLOOR_SLACK.
ST_ROUNDTRIP_GATE = 1e-6
ST_NORM_FLOOR_SLACK = 1e-8


def st_roundtrip_defect(op: PositiveOperator, q, seq: PointSequence) -> tuple[float, float]:
    """Maximum entry deviation of the realized Grammian ``image_gram(op, seq)``
    from Q, plus the smallest realized squared norm min_i ||P k~_i||^2."""
    realized = image_gram(op, seq).matrix.matrix
    return float(np.abs(realized - as_hermitian(q).matrix).max()), min_diagonal(realized)


def _inner_from_spec(d) -> InnerFunction:
    if not isinstance(d, dict):
        raise ValueError(f"'inner' must be a JSON object, got {d!r}")
    zeros = from_pairs(d.get("zeros", []))
    u = d.get("unimodular")
    uc = from_pairs([u])[0] if u is not None else 1.0 + 0.0j
    return InnerFunction(zeros, uc, json_int(d.get("m", 0), "inner.m"))


def _st_from_spec(spec: dict, order: int) -> PositiveOperator:
    qm = matrix_from_json(spec["Q"])
    pts = PointSequence(from_pairs(spec["points"]))
    delta = json_number(spec["delta"], "delta") if "delta" in spec else min_diagonal(qm)
    return st_construct(qm, pts, order, delta)


# Spec ``type`` -> factory. Factories are looked up when called, so wrappers
# installed on this module see every call.
_SPEC_FACTORIES = {
    "identity": lambda spec, order: identity(order),
    "diagonal": lambda spec, order: diagonal_operator([json_number(w, "weights") for w in spec["weights"]]),
    "projection_phiH2": lambda spec, order: projection_phi_H2(_inner_from_spec(spec["inner"]), order),
    "projection_model": lambda spec, order: projection_model_space(_inner_from_spec(spec["inner"]), order),
    "projection_monomial": lambda spec, order: projection_monomial_span(
        [json_int(j, "excluded") for j in spec["excluded"]], order
    ),
    "projection_c_plus_phi": lambda spec, order: projection_c_plus_phi(_inner_from_spec(spec["inner"]), order),
    "st_constructed": _st_from_spec,
    "custom": lambda spec, order: PositiveOperator(matrix_from_json(spec["matrix"]), "custom", "custom"),
}
OPERATOR_KINDS = frozenset(_SPEC_FACTORIES)
_LEGACY_SPEC_TYPES = {"c_plus_phi": "projection_c_plus_phi", "st": "st_constructed"}


def from_spec(spec: dict) -> PositiveOperator:
    """Build an operator from its JSON description.

    The ``type`` field is one of ``OPERATOR_KINDS`` or a legacy spelling in
    ``_LEGACY_SPEC_TYPES``, and the JSON integer ``N``, at least 1, fixes
    the truncation order; for ``diagonal`` and ``custom`` operators, whose
    weights or matrix fix it, an explicit ``N`` must agree (else
    ``ValueError``). Each factory reaches either a builder that checks the
    order or that agreement check.
    """
    if "type" not in spec:
        raise ValueError("operator spec needs a 'type' field")
    kind = _LEGACY_SPEC_TYPES.get(spec["type"], spec["type"])
    if kind not in _SPEC_FACTORIES:
        raise ValueError(f"unknown operator type {spec['type']!r}")
    order = json_int(spec.get("N", DEFAULT_ORDER), "N")
    op = _SPEC_FACTORIES[kind](spec, order)
    if "N" in spec and op.dim != order:
        raise ValueError(f"operator spec sets N={order} but its {kind} operator has order {op.dim}")
    return op
