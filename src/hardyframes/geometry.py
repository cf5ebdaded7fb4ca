"""Geometry of the open unit disk.

Pseudo-hyperbolic distances and the separation quantities attached to a
finite point sequence: the per-point products

    prod_{i != j} rho(z_i, z_j)

whose infimum certifies the strong (uniform) separation condition used by
the partitioning routines.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DuplicatePointError

# Log-products below this are reported as exact zeros; exp() underflows
# to subnormal territory around -708 anyway.
LOG_UNDERFLOW = -700.0


def _integer(value, what: str) -> int:
    """``value`` as an int, else ``ValueError`` naming it: bools and non-integral numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{what} {value!r} must be an integer")
    return int(value)


def _require_in_disk(z: complex) -> complex:
    value = complex(z)
    if not cmath.isfinite(value):
        raise ValueError(f"point {value} is not a finite complex number")
    if abs(value) >= 1.0:
        raise ValueError(f"point {value} does not lie in the open unit disk")
    return value


@dataclass(frozen=True)
class PointSequence:
    """A finite ordered tuple of disk points with stable integer labels.

    Order matters: greedy partitioning consumes points in sequence order.
    Labels default to positions 0..n-1 and survive ``subsequence``, so reports
    can always be traced back to the original input.
    """

    points: tuple[complex, ...]
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        pts = tuple(_require_in_disk(p) for p in self.points)
        if not pts:
            raise ValueError("a point sequence must contain at least one point")
        labels = tuple(_integer(l, "label") for l in self.labels) if self.labels else tuple(range(len(pts)))
        if len(labels) != len(pts):
            raise ValueError("labels and points must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        """Size of the sequence's Grammian, as ``Grammian.dim``."""
        return len(self.points)

    def values(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.complex128)

    def max_modulus(self) -> float:
        return float(np.max(np.abs(self.values())))

    def subsequence(self, positions) -> "PointSequence":
        pos = list(positions)
        return PointSequence(
            tuple(self.points[i] for i in pos),
            tuple(self.labels[i] for i in pos),
        )


@dataclass(frozen=True)
class CarlesonReport:
    """Per-point separation products and their infimum.

    ``per_index_products[j]`` is prod_{i != j} rho(z_i, z_j), computed in
    log space. Products whose log-sum dropped below ``LOG_UNDERFLOW`` are
    clamped to 0.0 and their positions recorded in ``clamped``.
    ``satisfied_at`` echoes the threshold the caller asked about.
    """

    per_index_products: tuple[float, ...]
    infimum: float
    satisfied_at: float = 0.0
    clamped: tuple[int, ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.infimum >= self.satisfied_at


def pseudo_hyperbolic(z, w) -> float:
    """Pseudo-hyperbolic distance |z - w| / |1 - conj(z) w|."""
    zc, wc = _require_in_disk(z), _require_in_disk(w)
    return abs(zc - wc) / abs(1.0 - zc.conjugate() * wc)


def _check_distinct(seq: PointSequence) -> None:
    """Raise ``DuplicatePointError`` naming two coincident points by their labels,
    which, unlike positions, do not depend on the order a caller chose."""
    seen: dict[complex, int] = {}
    for label, key in zip(seq.labels, seq.points):
        if key in seen:
            raise DuplicatePointError(f"points {seen[key]} and {label} coincide exactly at {key}")
        seen[key] = label


def _rho(a, b) -> np.ndarray:
    """Elementwise |a - b| / |1 - conj(a) b|, broadcasting a against b."""
    return np.abs(a - b) / np.abs(1.0 - np.conj(a) * b)


def _rho_matrix(z: np.ndarray) -> np.ndarray:
    """Pairwise pseudo-hyperbolic distances with an exact unit diagonal.

    Pairs run over the last axis of ``z``; leading axes index independent
    sequences, so an (m, k) array gives an (m, k, k) stack. The diagonal is
    set to 1 so it contributes nothing in log space.
    """
    rho = _rho(z[..., :, None], z[..., None, :])
    diagonal = np.arange(z.shape[-1])
    rho[..., diagonal, diagonal] = 1.0
    return rho


def _separation_products(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point products prod_{i != j} rho(z_i, z_j) over the last axis of ``z``.

    Leading axes index independent sequences, as in ``_rho_matrix``. The
    products are accumulated as sums of log rho to avoid underflow; a sum
    below ``LOG_UNDERFLOW`` gives exactly 0.0 and is flagged in the returned
    mask, and a product that rounds above 1 is reported as 1.
    """
    sums = np.log(_rho_matrix(z)).sum(axis=-1)
    clamped = sums < LOG_UNDERFLOW
    return np.minimum(np.where(clamped, 0.0, np.exp(sums)), 1.0), clamped


def carleson_constants(seq: PointSequence, delta: float = 0.0) -> CarlesonReport:
    """Evaluate the separation products prod_{i != j} rho(z_i, z_j).

    The products come from ``_separation_products``; a clamped one is
    flagged in the report. Exactly coincident points raise
    ``DuplicatePointError`` because the products would be identically zero.
    """
    _check_distinct(seq)
    products, clamped = _separation_products(seq.values())
    return CarlesonReport(
        per_index_products=tuple(float(p) for p in products),
        infimum=float(products.min()),
        satisfied_at=delta,
        clamped=tuple(int(i) for i in np.flatnonzero(clamped)),
    )
