"""Dense Hermitian numerics behind every Grammian computation.

Thin, deterministic wrappers around LAPACK's Hermitian eigensolver: extreme
eigenvalues with a rank cutoff and positive-semidefinite square roots and
inverses. Full dense eigendecomposition is the reference path and no
iterative machinery is used. Matrices range from class blocks of a few
rows to Grammians of thousands (n = 3000), which the gate symmetrizes
block by block.
``psd_sqrt`` and ``psd_inverse`` have no production caller; they remain as
the dense route that tests check the ST construction against.

One gate, ``_symmetrize``, which every ``HermitianMatrix`` runs, admits each
matrix: finite entries, a finite (H + H*) / 2 and a small anti-Hermitian
defect; PSD needs an eigensolve, so it is checked where one is made anyway.
The closed-form Szegő Grammians are exactly Hermitian when they reach it, so
its averaging leaves their bits as they are; outside matrices (Q, ``custom``
operators, V* P V) are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError, NotPSDError

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-8
# Eigenvalues down to -PSD_REL_TOL * max(1, lambda_max) count as rounding noise.
PSD_REL_TOL = 1e-10
# Side of the square blocks _symmetrize walks at a time.
SYMMETRIZE_BLOCK = 128
# A sum of two doubles can overflow only if one of them is at least this large.
_HALF_MAX = np.finfo(np.float64).max / 2.0


def _symmetrize(m: np.ndarray) -> None:
    """Overwrite the square matrix ``m`` with (m + m*) / 2.0, or raise.

    Raises ``ValueError`` for a non-finite entry, then for an entry modulus
    or a result that overflows, then ``NonHermitianError`` for an
    anti-Hermitian defect above ``HERMITIAN_TOL`` times the scale (the
    largest entry modulus, at least 1). Upper-triangle ``SYMMETRIZE_BLOCK``
    blocks are walked, each paired with its mirror below the diagonal, so
    temporaries stay block-sized.
    """
    n, b = len(m), SYMMETRIZE_BLOCK
    # the largest |m_ij| (at least 1) and |m_ij - conj(m_ji)|, and whether some |m_ij| >= _HALF_MAX
    scale, defect, huge = 1.0, 0.0, False
    with np.errstate(over="ignore", invalid="ignore"):  # the errors report what numpy would warn about
        for i in range(0, n, b):
            for j in range(i, n, b):
                upper = m[i : i + b, j : j + b]
                lower = m[j : j + b, i : i + b]
                for block in (upper, lower) if i != j else (upper,):
                    top = np.abs(block).max()
                    if not top < _HALF_MAX:  # NaN, inf, or big enough that |x| or a sum overflows
                        if not np.isfinite(block).all():
                            raise ValueError("matrix entries must be finite (found NaN or infinity)")
                        huge = True
                    scale = max(scale, top)
                # |m_ij - conj(m_ji)| = |m_ji - conj(m_ij)|, so one side gives the defect.
                # Mirror copies in C order spare numpy an iteration buffer in the updates.
                lower_adj = np.conj(lower.T, order="C")
                defect = max(defect, np.abs(upper - lower_adj).max())
                # (m + m*) / 2.0 in place, bit for bit; m *= 0.5 would flip the sign of some zeros
                if i != j:
                    lower += np.conj(upper.T, order="C")
                    lower /= 2.0
                upper += lower_adj
                upper /= 2.0
    if huge and not (scale < np.inf and np.isfinite(m).all()):  # an infinite scale would let any defect pass
        raise ValueError("matrix entries too large: |H_ij| or (H + H*) / 2 overflows to infinity")
    if defect > HERMITIAN_TOL * scale:
        raise NonHermitianError(f"anti-Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e} * scale {scale:.3e}")


class HermitianMatrix:
    """A square complex matrix stored as (H + H*) / 2 once ``_symmetrize`` admits it.

    Its errors are raised: ``ValueError`` for non-finite or overflowing
    entries, ``NonHermitianError`` for an anti-Hermitian part too large to
    symmetrize away. Takes one copy plus block-sized temporaries.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        _symmetrize(m)
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


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
