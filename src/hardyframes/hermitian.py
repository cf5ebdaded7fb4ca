"""Dense Hermitian numerics behind every Grammian computation.

Thin, deterministic wrappers around LAPACK's Hermitian eigensolver: extreme
eigenvalues with a rank cutoff and positive-semidefinite square roots and
inverses. Matrices here are small (a few hundred rows), so full dense
eigendecomposition is the reference path and no iterative machinery is used.
``psd_sqrt`` and ``psd_inverse`` have no production caller; they remain as
the dense route that tests check the ST construction against.

``HermitianMatrix`` checks finiteness and symmetry only; PSD needs an
eigensolve, so it is checked where one is made anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NotPSDError

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-8
# Eigenvalues down to -PSD_REL_TOL * max(1, lambda_max) count as rounding noise.
PSD_REL_TOL = 1e-10
# Side of the square blocks HermitianMatrix symmetrizes at a time.
SYMMETRIZE_BLOCK = 128


_NON_FINITE = "matrix entries must be finite (found NaN or infinity)"


def _defect_error(defect: float, scale: float) -> NonHermitianError:
    return NonHermitianError(f"anti-Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e} * scale {scale:.3e}")


class HermitianMatrix:
    """A square complex matrix symmetrized on construction.

    The stored matrix is (H + H*) / 2. Non-finite entries raise
    ``ValueError``. If the anti-Hermitian part exceeds ``HERMITIAN_TOL``
    relative to the entry scale the input is rejected instead of silently
    symmetrized. This takes one copy plus block-sized temporaries: the upper
    triangle is walked in ``SYMMETRIZE_BLOCK`` square blocks, each paired
    with its mirror block below the diagonal.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        n, b = m.shape[0], SYMMETRIZE_BLOCK
        scale, defect = 1.0, 0.0
        for i in range(0, n, b):
            for j in range(i, n, b):
                upper, lower = m[i : i + b, j : j + b], m[j : j + b, i : i + b]
                for block in (upper, lower) if i != j else (upper,):
                    top = float(np.abs(block).max(initial=0.0))
                    # |x| overflows to inf for some finite x, so only then look closer
                    if not (math.isfinite(top) or np.isfinite(block).all()):
                        raise ValueError(_NON_FINITE)
                    scale = max(scale, top)
                # |m_ij - conj(m_ji)| = |m_ji - conj(m_ij)|, so one side gives the defect.
                # Mirror copies in C order spare numpy an iteration buffer in the updates.
                lower_adj = np.conj(lower.T, order="C")
                defect = max(defect, float(np.abs(upper - lower_adj).max(initial=0.0)))
                # (m + m*) / 2.0 in place, bit for bit; m *= 0.5 would flip the sign of some zeros
                if i != j:
                    lower += np.conj(upper.T, order="C")
                    lower /= 2.0
                upper += lower_adj
                upper /= 2.0
        if defect > HERMITIAN_TOL * scale:
            raise _defect_error(defect, scale)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def _symmetrize_stack(g: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Each matrix of the (m, k, k) stack ``g`` as ``HermitianMatrix`` stores it.

    ``g`` is overwritten with (g + g*) / 2.0 per matrix, bit for bit the
    values ``HermitianMatrix`` keeps, and returned with the error that
    ``HermitianMatrix`` would raise for each matrix it rejects, keyed by
    position in the stack: a non-finite entry, or an anti-Hermitian defect
    above ``HERMITIAN_TOL`` times that matrix's own scale.
    """
    adjoint = np.conj(np.swapaxes(g, -1, -2))
    finite = np.isfinite(g).all(axis=(-2, -1))
    scale = np.maximum(np.abs(g).max(axis=(-2, -1), initial=0.0), 1.0)
    defect = np.abs(g - adjoint).max(axis=(-2, -1), initial=0.0)
    rejected = {
        int(i): _defect_error(float(defect[i]), float(scale[i])) if finite[i] else ValueError(_NON_FINITE)
        for i in np.flatnonzero(~finite | (defect > HERMITIAN_TOL * scale))
    }
    g += adjoint
    g /= 2.0
    return g, rejected


def as_hermitian(h) -> HermitianMatrix:
    """``h`` itself when it is a HermitianMatrix, else ``HermitianMatrix(h)``."""
    return h if isinstance(h, HermitianMatrix) else HermitianMatrix(h)


@dataclass(frozen=True)
class EigenExtremes:
    """Extreme eigenvalues plus the smallest one above the rank cutoff.

    ``smallest_above`` is the least eigenvalue exceeding
    ``rank_tol * lambda_max``; for a matrix with no eigenvalue above the
    cutoff it falls back to ``lambda_max``. Always
    lambda_min <= smallest_above <= lambda_max.
    """

    lambda_min: float
    lambda_max: float
    smallest_above: float
    rank_tol: float


def require_psd(lambda_min: float, lambda_max: float, what: str) -> None:
    """Raise ``NotPSDError`` unless lambda_min >= -PSD_REL_TOL * max(1, lambda_max)."""
    if lambda_min < -PSD_REL_TOL * max(1.0, lambda_max):
        raise NotPSDError(f"{what} has lambda_min {lambda_min:.3e} (lambda_max {lambda_max:.3e})")


def eig_extremes(h, rank_tol: float = DEFAULT_RANK_TOL) -> EigenExtremes:
    m = as_hermitian(h).matrix
    w = np.linalg.eigvalsh(m)
    lam_min, lam_max = float(w[0]), float(w[-1])
    cutoff = rank_tol * lam_max
    above = w[w > cutoff]
    smallest_above = float(above[0]) if above.size else lam_max
    return EigenExtremes(lam_min, lam_max, smallest_above, rank_tol)


def psd_sqrt(h) -> HermitianMatrix:
    """Principal square root of a positive-semidefinite matrix.

    Eigenvalues that ``require_psd`` accepts as rounding noise are clipped
    to zero; anything lower raises ``NotPSDError``.
    """
    m = as_hermitian(h).matrix
    w, q = np.linalg.eigh(m)
    require_psd(float(w[0]), float(w[-1]), "matrix")
    s = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T
    return HermitianMatrix(s)


def psd_inverse(h) -> np.ndarray:
    """Inverse via eigendecomposition; a nonpositive lambda_min raises ``NotPSDError``."""
    w, q = np.linalg.eigh(as_hermitian(h).matrix)
    if w[0] <= 0.0:
        raise NotPSDError(f"cannot invert: lambda_min = {w[0]:.3e}")
    return (q / w) @ q.conj().T
