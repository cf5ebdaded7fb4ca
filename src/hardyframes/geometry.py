"""Geometry of the open unit disk.

Pseudo-hyperbolic distances, disk automorphisms, and the separation
quantities attached to a finite point sequence: the weak separation
constant, the Blaschke sum, and the per-point products

    prod_{i != j} rho(z_i, z_j)

whose infimum certifies the strong (uniform) separation condition used by
the partitioning routines.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DuplicatePointError, SingletonSequenceError

# Log-products below this are reported as exact zeros; exp() underflows
# to subnormal territory around -708 anyway.
LOG_UNDERFLOW = -700.0


def _require_in_disk(z: complex) -> complex:
    value = complex(z)
    if not cmath.isfinite(value):
        raise ValueError(f"point {value} is not a finite complex number")
    if abs(value) >= 1.0:
        raise ValueError(f"point {value} does not lie in the open unit disk")
    return value


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the open unit disk."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", _require_in_disk(self.value))

    @property
    def modulus(self) -> float:
        return abs(self.value)

    def __complex__(self) -> complex:
        return self.value


def _coerce(z) -> complex:
    if isinstance(z, DiskPoint):
        return z.value
    return _require_in_disk(z)


@dataclass(frozen=True)
class PointSequence:
    """A finite ordered tuple of disk points with stable integer labels.

    Order matters: greedy partitioning consumes points in sequence order.
    Labels default to positions 0..n-1 and survive compression, so reports
    can always be traced back to the original input.
    """

    points: tuple[complex, ...]
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        pts = tuple(_coerce(p) for p in self.points)
        if not pts:
            raise ValueError("a point sequence must contain at least one point")
        labels = tuple(int(l) for l in self.labels) if self.labels else tuple(range(len(pts)))
        if len(labels) != len(pts):
            raise ValueError("labels and points must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
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
    zc, wc = _coerce(z), _coerce(w)
    return abs(zc - wc) / abs(1.0 - zc.conjugate() * wc)


def mobius(a, u) -> complex:
    """Disk automorphism phi_a(u) = (a - u) / (1 - conj(a) u).

    Involutive: phi_a(phi_a(u)) == u. The pseudo-hyperbolic metric is
    invariant under every phi_a.
    """
    ac, uc = _coerce(a), _coerce(u)
    return (ac - uc) / (1.0 - ac.conjugate() * uc)


def _check_distinct(z: np.ndarray) -> None:
    seen: dict[complex, int] = {}
    for i, zi in enumerate(z):
        key = complex(zi)
        if key in seen:
            raise DuplicatePointError(f"points {seen[key]} and {i} coincide exactly at {key}")
        seen[key] = i


def _rho_matrix(z: np.ndarray) -> np.ndarray:
    """Pairwise pseudo-hyperbolic distances with an exact unit diagonal.

    The diagonal is set to 1 so it contributes nothing in log space.
    """
    diff = np.abs(z[:, None] - z[None, :])
    denom = np.abs(1.0 - np.conj(z)[:, None] * z[None, :])
    np.fill_diagonal(diff, 1.0)
    np.fill_diagonal(denom, 1.0)
    return diff / denom


def carleson_constants(seq: PointSequence, delta: float = 0.0) -> CarlesonReport:
    """Evaluate the separation products prod_{i != j} rho(z_i, z_j).

    All products are accumulated as sums of log rho to avoid underflow;
    a sum below ``LOG_UNDERFLOW`` clamps the product to exactly 0.0 with
    the index flagged in the report. Exactly coincident points raise
    ``DuplicatePointError`` because the products would be identically zero.
    """
    z = seq.values()
    n = len(z)
    if n == 1:
        return CarlesonReport((1.0,), 1.0, delta)
    _check_distinct(z)
    log_rho = np.log(_rho_matrix(z))
    sums = log_rho.sum(axis=1)
    clamped = tuple(int(i) for i in np.nonzero(sums < LOG_UNDERFLOW)[0])
    products = np.where(sums < LOG_UNDERFLOW, 0.0, np.exp(sums))
    products = np.minimum(products, 1.0)
    return CarlesonReport(
        per_index_products=tuple(float(p) for p in products),
        infimum=float(products.min()),
        satisfied_at=delta,
        clamped=clamped,
    )


def blaschke_condition_sum(seq: PointSequence) -> float:
    """Sum of (1 - |z_i|); finiteness is automatic for finite input."""
    return float(np.sum(1.0 - np.abs(seq.values())))


def separation_constant(seq: PointSequence) -> float:
    """Smallest pairwise pseudo-hyperbolic distance (weak separation)."""
    if len(seq) < 2:
        raise SingletonSequenceError("separation needs at least two points")
    z = seq.values()
    rho = _rho_matrix(z)
    mask = ~np.eye(len(z), dtype=bool)
    return float(rho[mask].min())
