"""Dense Hermitian numerics behind every Grammian computation.

Thin, deterministic wrappers around LAPACK's Hermitian eigensolver: extreme
eigenvalues with a rank cutoff, positive-semidefinite square roots and
inverses, and Loewner-order comparison. Matrices here are small (a few
hundred rows), so full dense eigendecomposition is the reference path and
no iterative machinery is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NotPSDError

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-8
# Eigenvalues down to -PSD_REL_TOL * max(1, lambda_max) count as rounding noise.
PSD_REL_TOL = 1e-10


class HermitianMatrix:
    """A square complex matrix symmetrized on construction.

    The stored matrix is (H + H*) / 2. Non-finite entries raise
    ``ValueError``. If the anti-Hermitian part exceeds ``tol`` relative to
    the entry scale the input is rejected instead of silently symmetrized.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries, tol: float = HERMITIAN_TOL):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite (found NaN or infinity)")
        scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
        defect = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        if defect > tol * scale:
            raise NonHermitianError(
                f"anti-Hermitian defect {defect:.3e} exceeds {tol:.1e} * scale {scale:.3e}"
            )
        self.matrix = (m + m.conj().T) / 2.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def as_matrix(h) -> np.ndarray:
    """Accept a HermitianMatrix or raw array; always return the symmetrized array."""
    if isinstance(h, HermitianMatrix):
        return h.matrix
    return HermitianMatrix(h).matrix


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
    m = as_matrix(h)
    w = np.linalg.eigvalsh(m)
    lam_min, lam_max = float(w[0]), float(w[-1])
    cutoff = rank_tol * lam_max
    above = w[w > cutoff]
    smallest_above = float(above[0]) if above.size else lam_max
    return EigenExtremes(lam_min, lam_max, smallest_above, rank_tol)


def psd_sqrt(h, tol: float = DEFAULT_RANK_TOL) -> HermitianMatrix:
    """Principal square root of a positive-semidefinite matrix.

    Eigenvalues in [-tol * lambda_max, 0) are treated as rounding noise and
    clipped to zero; anything lower raises ``NotPSDError``.
    """
    m = as_matrix(h)
    w, q = np.linalg.eigh(m)
    lam_max = float(w[-1])
    if float(w[0]) < -tol * lam_max:
        raise NotPSDError(f"lambda_min {w[0]:.3e} below -{tol:.1e} * lambda_max {lam_max:.3e}")
    s = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.conj().T
    return HermitianMatrix(s)


def psd_inverse(h) -> tuple[np.ndarray, EigenExtremes]:
    """Inverse via eigendecomposition, with the spectrum for conditioning checks.

    The caller is expected to inspect ``extremes.lambda_min`` before trusting
    the inverse; a nonpositive minimum raises ``NotPSDError`` outright.
    """
    m = as_matrix(h)
    w, q = np.linalg.eigh(m)
    ext = EigenExtremes(float(w[0]), float(w[-1]), float(w[0]), 0.0)
    if ext.lambda_min <= 0.0:
        raise NotPSDError(f"cannot invert: lambda_min = {ext.lambda_min:.3e}")
    inv = (q / w) @ q.conj().T
    return inv, ext


def loewner_leq(a, b, tol: float = 0.0) -> bool:
    """Test A <= B in the Loewner order: lambda_min(B - A) >= -tol."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes {ma.shape} and {mb.shape} differ")
    w = np.linalg.eigvalsh(mb - ma)
    return float(w[0]) >= -tol


def loewner_defect(a, b) -> float:
    """Magnitude of the worst violation of A <= B: max(0-ish, -lambda_min(B-A)).

    Negative values mean strict ordering with margin; callers compare the
    raw value against their own tolerance.
    """
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes {ma.shape} and {mb.shape} differ")
    w = np.linalg.eigvalsh(mb - ma)
    return -float(w[0])
