"""Reproducing kernels of the Hardy space on the disk.

The kernel at w has Taylor coefficients conj(w)^n, so truncating at order N
turns kernel functions into columns of a Vandermonde-style matrix and every
inner product into ordinary linear algebra. The Grammian of normalized
kernels has the closed form

    G[i, j] = sqrt((1 - |z_i|^2)(1 - |z_j|^2)) / (1 - z_i conj(z_j)),

which this module cross-checks against the truncated route. Grammians in
the range space of a positive operator P use the renormalized vectors
P^(1/2) k_z / ||P^(1/2) k_z||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateKernelError, DimensionMismatchError, WeightOutOfRangeError
from .geometry import PointSequence, _coerce
from .hermitian import HermitianMatrix, as_matrix, eig_extremes, require_psd

DEGENERATE_NORM_TOL = 1e-12
UNIT_DIAG_TOL = 1e-10


@dataclass(frozen=True)
class TruncationContext:
    """Order-N monomial truncation.

    Operators act on the first ``order`` Taylor coefficients. Projections
    are built from the truncated model-space basis, which needs no working
    space past the window, so no operator depends on ``buffer``. It is
    accepted and validated for callers and config files that pass it, and
    ``range_contains_phi`` uses it to pick a margin.
    """

    order: int = 256
    buffer: int = 64

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be at least 1")
        if self.buffer < 0:
            raise ValueError("buffer must be nonnegative")

    def tail_bound(self, radius: float) -> float:
        """Crude tail estimate |z|^N / (1 - |z|^2) for a point of given modulus."""
        if not 0.0 <= radius < 1.0:
            raise ValueError("radius must lie in [0, 1)")
        return float(radius**self.order / (1.0 - radius * radius))


@dataclass(frozen=True)
class KernelVector:
    """Truncated coefficient vector of a (possibly normalized) kernel."""

    coeffs: np.ndarray
    point: complex
    normalized: bool
    truncation_error: float


@dataclass(frozen=True)
class Provenance:
    """Where a Grammian came from: which space, which operator, which points."""

    space: str  # "H2" or "H(P)"
    operator_id: str | None
    points: tuple[complex, ...]
    labels: tuple[int, ...]
    truncation_error: float = 0.0
    transform: str | None = None


@dataclass(frozen=True)
class Grammian:
    """A PSD Grammian with provenance.

    Entry (i, j) is the inner product of the j-th sequence member against
    the i-th, so the matrix is the Gram matrix F F* of the synthesis map.
    Construction enforces positive semidefiniteness up to a relative
    tolerance and, for normalized families, a unit diagonal.
    """

    matrix: HermitianMatrix
    provenance: Provenance
    normalized: bool = False

    def __post_init__(self):
        m = self.matrix.matrix
        if m.shape[0] != len(self.provenance.labels):
            raise DimensionMismatchError("matrix size disagrees with provenance labels")
        ext = eig_extremes(self.matrix)
        require_psd(ext.lambda_min, ext.lambda_max, "Grammian")
        if self.normalized:
            diag_defect = float(np.abs(np.diagonal(m) - 1.0).max())
            if diag_defect > UNIT_DIAG_TOL:
                raise ValueError(f"normalized Grammian has diagonal defect {diag_defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def labels(self) -> tuple[int, ...]:
        return self.provenance.labels


def kernel_vector(w, ctx: TruncationContext, normalize: bool = False) -> KernelVector:
    """Coefficients (1, conj(w), conj(w)^2, ...) up to the truncation order."""
    wc = _coerce(w)
    coeffs = np.empty(ctx.order, dtype=np.complex128)
    coeffs[0] = 1.0
    if ctx.order > 1:
        coeffs[1:] = np.cumprod(np.full(ctx.order - 1, np.conj(wc)))
    if normalize:
        coeffs = coeffs / np.linalg.norm(coeffs)
    return KernelVector(coeffs, wc, normalize, ctx.tail_bound(abs(wc)))


def kernel_matrix(seq: PointSequence, ctx: TruncationContext, normalize: bool = False) -> np.ndarray:
    """Truncated kernel vectors of a sequence, stacked as columns."""
    z = seq.values()
    v = np.vander(np.conj(z), ctx.order, increasing=True).T.astype(np.complex128)
    if normalize:
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
    return v


def szego_gram(seq: PointSequence) -> Grammian:
    """Closed-form Grammian of the normalized kernels of a point sequence.

    No truncation is involved; the diagonal is exactly 1.
    """
    z = seq.values()
    one_minus = 1.0 - np.abs(z) ** 2
    num = np.sqrt(np.outer(one_minus, one_minus))
    den = 1.0 - z[:, None] * np.conj(z)[None, :]
    g = num / den
    np.fill_diagonal(g, 1.0)
    prov = Provenance("H2", None, seq.points, seq.labels)
    return Grammian(HermitianMatrix(g), prov, normalized=True)


def apply_operator(op, x: np.ndarray, ctx: TruncationContext) -> np.ndarray:
    """P @ x for an operator of the truncation order.

    A ``PositiveOperator`` applies its structured form, at O(N * cols * rank)
    cost; a plain or ``HermitianMatrix`` operand is multiplied densely.
    """
    dense = None if hasattr(op, "apply") else as_matrix(op)
    dim = op.dim if dense is None else dense.shape[0]
    if dim != ctx.order:
        raise DimensionMismatchError(
            f"operator dimension {dim} disagrees with truncation order {ctx.order}"
        )
    return op.apply(x) if dense is None else dense @ x


def range_space_gram(op, seq: PointSequence, ctx: TruncationContext) -> Grammian:
    """Grammian of normalized kernels of the range space of a positive operator.

    The range-space kernel at w is P k_w with squared norm <P k_w, k_w>, so
    the normalized Grammian is diag(s)^-1 (V* P V) diag(s)^-1 with
    s_i = sqrt((V* P V)_ii). A kernel image with norm at or below
    ``DEGENERATE_NORM_TOL`` raises ``DegenerateKernelError``.
    """
    v = kernel_matrix(seq, ctx)
    m = v.conj().T @ apply_operator(op, v, ctx)
    m = (m + m.conj().T) / 2.0
    norms_sq = np.clip(np.real(np.diagonal(m)).copy(), 0.0, None)
    norms = np.sqrt(norms_sq)
    for i, s in enumerate(norms):
        if s <= DEGENERATE_NORM_TOL:
            raise DegenerateKernelError(int(i), float(s))
    g = m / np.outer(norms, norms)
    np.fill_diagonal(g, 1.0)
    op_id = getattr(op, "id", None)
    prov = Provenance(
        "H(P)", op_id, seq.points, seq.labels,
        truncation_error=ctx.tail_bound(seq.max_modulus()),
    )
    return Grammian(HermitianMatrix(g), prov, normalized=True)


def image_gram(op, seq: PointSequence, ctx: TruncationContext) -> Grammian:
    """Grammian of the images P k~_z of the normalized kernels under an operator.

    Unlike ``range_space_gram`` the images are not renormalized, so the
    diagonal carries ||P k~_z||^2. This is the matrix that sits inside the
    monotone comparison chains.
    """
    w = apply_operator(op, kernel_matrix(seq, ctx, normalize=True), ctx)
    g = w.conj().T @ w
    op_id = getattr(op, "id", None)
    prov = Provenance(
        "H2", op_id, seq.points, seq.labels,
        truncation_error=ctx.tail_bound(seq.max_modulus()),
    )
    return Grammian(HermitianMatrix(g), prov, normalized=False)


def normalized_gram(seq: PointSequence, ctx: TruncationContext) -> Grammian:
    """Truncated-route Grammian V* V of the normalized kernel vectors.

    Agrees with ``szego_gram`` up to the truncation tail; kept separate so
    the two routes can be compared.
    """
    v = kernel_matrix(seq, ctx, normalize=True)
    g = v.conj().T @ v
    prov = Provenance(
        "H2", None, seq.points, seq.labels,
        truncation_error=ctx.tail_bound(seq.max_modulus()),
    )
    return Grammian(HermitianMatrix(g), prov, normalized=True)


def weighted_hardy_kernel(weights, z, w) -> complex:
    """Kernel sum_n p_n (z conj(w))^n of a diagonally weighted Hardy space.

    Weights must lie in [0, 1] so the weighted space sits inside the
    unweighted one contractively.
    """
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(p < 0.0) or np.any(p > 1.0):
        bad = int(np.nonzero((p < 0.0) | (p > 1.0))[0][0])
        raise WeightOutOfRangeError(f"weight p[{bad}] = {p[bad]} outside [0, 1]")
    zc, wc = _coerce(z), _coerce(w)
    x = zc * np.conj(wc)
    powers = np.empty(p.size, dtype=np.complex128)
    powers[0] = 1.0
    if p.size > 1:
        powers[1:] = np.cumprod(np.full(p.size - 1, x))
    return complex(np.dot(p, powers))
