"""Frame-theoretic bounds read off a Grammian.

For a finite sequence the Bessel bound is the largest Grammian eigenvalue,
the Riesz lower bound is the smallest, and the frame lower bound is the
smallest eigenvalue above the rank cutoff (zero modes belong to the
complement of the span, not to the frame inequality). A Grammian with a
repeated point is the canonical frame-but-not-Riesz example: one eigenvalue
collapses to zero while the cutoff bound stays positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularDiagonalError
from .hermitian import DEFAULT_RANK_TOL, as_hermitian, eig_extremes, require_psd
from .kernels import Grammian, _grammian

DEFAULT_RIESZ_TOL = 1e-8


@dataclass(frozen=True)
class BoundsReport:
    """Frame constants of a finite Grammian with the tolerances that judged them.

    Flags are tolerance-dependent readings of the raw numbers, which are
    always reported alongside:

    - ``is_bessel``: the upper bound is finite (trivially true at finite rank).
    - ``is_bounded_below``: member norms clear the rank cutoff, i.e.
      lower_norm_delta^2 > rank_tol * max(1, bessel_B).
    - ``is_riesz``: riesz_c >= riesz_tol.
    - ``is_frame``: frame_A >= riesz_tol; implied by ``is_riesz`` since
      riesz_c <= frame_A always.
    """

    bessel_B: float
    riesz_c: float
    frame_A: float
    lower_norm_delta: float
    riesz_tol: float
    rank_tol: float
    is_bessel: bool
    is_bounded_below: bool
    is_riesz: bool
    is_frame: bool


def analyze(g, riesz_tol: float = DEFAULT_RIESZ_TOL, rank_tol: float = DEFAULT_RANK_TOL) -> BoundsReport:
    """Classify a Grammian: Bessel / bounded-below / frame / Riesz bounds.

    This is the one PSD check a Grammian gets (``NotPSDError``). ``riesz_tol``
    must be positive: since riesz_c >= 0, any other value calls every
    sequence Riesz."""
    if not riesz_tol > 0.0:
        raise ValueError(f"riesz_tol must be positive, got {riesz_tol}")
    h = as_hermitian(g.matrix if isinstance(g, Grammian) else g)
    ext = eig_extremes(h, rank_tol)
    require_psd(ext.lambda_min, ext.lambda_max, "Grammian")
    bessel = max(ext.lambda_max, 0.0)
    riesz = max(ext.lambda_min, 0.0)
    frame = max(ext.smallest_above, 0.0)
    delta = float(np.sqrt(np.clip(np.real(np.diagonal(h.matrix)), 0.0, None).min()))
    return BoundsReport(
        bessel_B=bessel,
        riesz_c=riesz,
        frame_A=frame,
        lower_norm_delta=delta,
        riesz_tol=riesz_tol,
        rank_tol=rank_tol,
        is_bessel=bool(np.isfinite(bessel)),
        is_bounded_below=bool(delta**2 > rank_tol * max(1.0, bessel)),
        is_riesz=bool(riesz >= riesz_tol),
        is_frame=bool(frame >= riesz_tol),
    )


def congruence_diag(g: Grammian, d) -> Grammian:
    """Congruence D G D* by an invertible diagonal.

    Rescaling the sequence members by d_i moves every frame constant by at
    most the factor spread [min |d_i|^2, max |d_i|^2]; the result stays PSD.
    ``_grammian`` averages the product, inexactly Hermitian for complex d.
    """
    dv = np.asarray(d, dtype=np.complex128)
    m = g.matrix.matrix
    if dv.ndim != 1 or dv.size != m.shape[0]:
        raise ValueError(f"diagonal length {dv.size} does not match Grammian dim {m.shape[0]}")
    if np.any(dv == 0.0):
        bad = int(np.nonzero(dv == 0.0)[0][0])
        raise SingularDiagonalError(f"diagonal entry {bad} is zero")
    out = m * np.outer(dv, np.conj(dv))
    prov = g.provenance
    still_unit = g.normalized and bool(np.max(np.abs(np.abs(dv) - 1.0)) <= 1e-12)
    transform = "diag_congruence" if prov.transform is None else prov.transform + ";diag_congruence"
    return _grammian(out, replace(prov, transform=transform), normalized=still_unit)
