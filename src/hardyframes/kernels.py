"""Reproducing kernels of the Hardy space on the disk.

The kernel at w has Taylor coefficients conj(w)^n, so truncating at order N
turns kernel functions into columns of a Vandermonde-style matrix and every
inner product into ordinary linear algebra. The Grammian of normalized
kernels has the closed form

    G[i, j] = sqrt((1 - |z_i|^2)(1 - |z_j|^2)) / (1 - z_i conj(z_j)),

which this module builds exactly Hermitian (``_szego_matrix``) and
cross-checks against the truncated route. Grammians in the range space
of a positive operator P use the renormalized vectors
P^(1/2) k_z / ||P^(1/2) k_z||.

Every producer hands its finished matrix to ``_grammian``, which wraps it
once as a ``HermitianMatrix`` and records its ``Provenance``, with the tail
bound of the truncated route (``range_space_gram``, ``image_gram``,
``normalized_gram``). The truncation order N is a plain int:
``kernel_matrix`` and ``normalized_gram`` take it, and the two operator
routes read it off the operator, ``op.dim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, DimensionMismatchError
from .geometry import PointSequence
from .hermitian import HermitianMatrix, as_hermitian

DEGENERATE_NORM_TOL = 1e-12
UNIT_DIAG_TOL = 1e-10
DEFAULT_ORDER = 256
# Columns _szego_matrix mirrors at a time, so its temporaries stay O(n).
_MIRROR_BLOCK = 128


def check_buffer(value) -> None:
    """Validate a legacy ``buffer`` setting, which is accepted and ignored.

    No operator needs working space past the truncation window, so the
    value has no effect; a negative one is still rejected as bad input.
    """
    if value < 0:
        raise ValueError("buffer must be nonnegative")


def _tail_bound(order: int, radius: float) -> float:
    """Crude tail estimate |z|^N / (1 - |z|^2) at truncation order N for a point of given modulus."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    return float(radius**order / (1.0 - radius * radius))


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
    """A Grammian with provenance.

    Entry (i, j) is the inner product of the j-th sequence member against
    the i-th, so the matrix is the Gram matrix F F* of the synthesis map,
    PSD by construction. Construction checks the label count and, for
    normalized families, a unit diagonal; ``frames.analyze`` checks PSD.
    """

    matrix: HermitianMatrix
    provenance: Provenance
    normalized: bool = False

    def __post_init__(self):
        m = self.matrix.matrix
        if m.shape[0] != len(self.provenance.labels):
            raise DimensionMismatchError("matrix size disagrees with provenance labels")
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


def kernel_matrix(seq: PointSequence, order: int, normalize: bool = False) -> np.ndarray:
    """Kernel vectors of a sequence truncated at ``order``, stacked as columns."""
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    z = seq.values()
    v = np.vander(np.conj(z), order, increasing=True).T.astype(np.complex128)
    if normalize:
        v = v / np.linalg.norm(v, axis=0, keepdims=True)
    return v


def _szego_entries(z_rows, z_cols, one_minus_rows, one_minus_cols, *, out=None) -> np.ndarray:
    """Closed-form entries sqrt((1 - |z_i|^2)(1 - |z_k|^2)) / (1 - z_i conj(z_k)).

    Rows run over the last axis of ``z_rows`` and columns over the last
    axis of ``z_cols``; leading axes broadcast, so an (m, k) pair gives the
    m class blocks as one (m, k, k) stack. ``one_minus_*`` hold the matching
    1 - |z|^2. The result is built in one complex buffer (``out`` when
    given, of the result's shape), which holds the denominator and is then
    divided in place by the real numerator. Every step is elementwise, so a
    block equals the same block of the full matrix bit for bit. A diagonal
    entry is left as the formula gives it.
    """
    g = np.multiply(z_rows[..., :, None], np.conj(z_cols)[..., None, :], out=out)
    np.subtract(1.0, g, out=g)
    num = one_minus_rows[..., :, None] * one_minus_cols[..., None, :]
    np.sqrt(num, out=num)
    return np.divide(num, g, out=g)


def _szego_matrix(z: np.ndarray) -> np.ndarray:
    """The Szegő Grammian of the points on the last axis of ``z``, exactly Hermitian.

    Leading axes form a stack of point sets. Entries above the diagonal come
    from ``_szego_entries``, the diagonal is 1, and each entry below is the
    conjugate of its mirror: numpy rounds z_i conj(z_k) and z_k conj(z_i)
    differently in about a third of pairs. So each row past the diagonal is
    the streamed ``_szego_entries`` row, and the block of an ascending subset
    of the points is that subset's own Grammian, bit for bit.
    """
    one_minus = 1.0 - np.abs(z) ** 2
    g = _szego_entries(z, z, one_minus, one_minus)
    k = z.shape[-1]
    for i in range(0, k, _MIRROR_BLOCK):
        j = min(i + _MIRROR_BLOCK, k)
        strip = np.conj(g[..., i:j, i:].swapaxes(-1, -2))  # columns i:j from the diagonal down, mirrored
        np.copyto(g[..., i:, i:j], strip, where=np.tri(k - i, j - i, -1, dtype=bool))
    diagonal = np.arange(k)
    g[..., diagonal, diagonal] = 1.0
    return g


def _grammian(matrix, seq: PointSequence, order=None, op=None, space="H2", normalized=True) -> Grammian:
    """``matrix`` (kept if a ``HermitianMatrix``, else symmetrized once) with the
    provenance of ``seq`` and ``op``, and, given a truncation ``order``, the
    tail bound at the sequence's largest modulus."""
    tail = 0.0 if order is None else _tail_bound(order, seq.max_modulus())
    prov = Provenance(space, getattr(op, "id", None), seq.points, seq.labels, truncation_error=tail)
    return Grammian(as_hermitian(matrix), prov, normalized=normalized)


def szego_gram(seq: PointSequence) -> Grammian:
    """Closed-form Grammian of the normalized kernels of a point sequence.

    No truncation is involved; the diagonal is exactly 1. The matrix comes
    from ``_szego_matrix``, exactly Hermitian, so the gate ``HermitianMatrix``
    runs leaves its bits as they are. The peak is its buffer, the numerator
    and the copy ``HermitianMatrix`` keeps.
    """
    return _grammian(_szego_matrix(seq.values()), seq)


def range_space_gram(op, seq: PointSequence) -> Grammian:
    """Grammian of normalized kernels of the range space of a positive operator.

    The kernels are truncated at the operator's own order ``op.dim``.
    The range-space kernel at w is P k_w with squared norm <P k_w, k_w>, so
    the normalized Grammian is diag(s)^-1 (V* P V) diag(s)^-1 with
    s_i = sqrt((V* P V)_ii). ``HermitianMatrix`` symmetrizes V* P V once;
    the norms are read off its real diagonal and it is then divided in place
    by outer(s, s), which keeps it exactly Hermitian. A kernel image with
    norm at or below ``DEGENERATE_NORM_TOL`` raises ``DegenerateKernelError``.
    """
    v = kernel_matrix(seq, op.dim)
    h = HermitianMatrix(v.conj().T @ op.apply(v))
    norms = np.sqrt(np.clip(np.real(np.diagonal(h.matrix)), 0.0, None))
    if (small := np.flatnonzero(norms <= DEGENERATE_NORM_TOL)).size:
        raise DegenerateKernelError(int(small[0]), float(norms[small[0]]))
    h.matrix /= np.outer(norms, norms)
    np.fill_diagonal(h.matrix, 1.0)
    return _grammian(h, seq, op.dim, op, space="H(P)")


def image_gram(op, seq: PointSequence) -> Grammian:
    """Grammian of the images P k~_z of the normalized kernels under an operator.

    Unlike ``range_space_gram`` the images are not renormalized, so the
    diagonal carries ||P k~_z||^2. This is the matrix that sits inside the
    monotone comparison chains.
    """
    w = op.apply(kernel_matrix(seq, op.dim, normalize=True))
    return _grammian(w.conj().T @ w, seq, op.dim, op, normalized=False)


def normalized_gram(seq: PointSequence, order: int) -> Grammian:
    """Truncated-route Grammian V* V of the normalized kernel vectors.

    Agrees with ``szego_gram`` up to the truncation tail; kept separate so
    the two routes can be compared.
    """
    v = kernel_matrix(seq, order, normalize=True)
    return _grammian(v.conj().T @ v, seq, order)
