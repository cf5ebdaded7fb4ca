"""Greedy partitioning of kernel sequences into well-separated classes.

Two first-fit strategies over the sequence order; each point joins the
first class it fits, or opens a new one. Neither reorders its input: a
caller that wants another order (the CLI's ``--sort-by-modulus``) passes
``seq.subsequence(modulus_order(seq.values()))``, the same for both.

- ``carleson_greedy`` keeps, inside every class, each member's product of
  pseudo-hyperbolic distances to the others at or above a target delta.
  It streams one column of log rho per point, in the greedy's order, and
  keeps per-class running log-sums over all points (a candidate's own
  product against each class) and each placed point's log-product within
  its class, so a candidate is tested against every class in one
  vectorised step: O(n^2) work and O(classes * n) memory, with no n x n
  matrix.
- ``spectral_greedy`` keeps the smallest eigenvalue of every class's
  normalized Grammian block at or above a target c, through the equivalent
  condition B - cI > 0. Each class carries the inverse R of the Cholesky
  factor of B - cI and one row of Schur-complement terms
  ||R m[class, j']||^2 for the points still to come, so a candidate is
  tested against every class in one vectorised comparison and an
  acceptance costs O(class size * n); no candidate is ever eigensolved.
  The loop reads its matrix only through rows m[idx, start:]. Given a
  point sequence instead of a Grammian, it computes those rows from the
  Szegő closed form on demand, so memory is O(classes * n) with no n x n
  matrix.

Neither loop certifies itself: the final certificates are recomputed per
class from scratch (``carleson_constants`` and a fresh ``eigvalsh`` of the
class's Grammian block; for points, that block is a fresh ``szego_gram``
of the class), and an exhaustive minimal-partition search (viable up to
12 points) is provided as an oracle for testing the greedy counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicatePointError, NotAPartitionError, TargetTooHighError
from .geometry import PointSequence, _check_distinct, _rho_column, _rho_matrix, carleson_constants
from .kernels import Grammian, _szego_entries, szego_gram

CARLESON_GREEDY = "carleson_greedy"
SPECTRAL_GREEDY = "spectral_greedy"

# Greedy acceptance applies this slack in log space so that certificates
# recomputed with a different summation order still clear the target.
_LOG_MARGIN = 1e-9

# A candidate joins a spectral class only when the Schur complement of the
# enlarged block, (m[j, j] - c) - ||R m[class, j]||^2, exceeds this, so that
# certificates recomputed with a fresh eigensolve still clear the target.
# Ties go to a later class: a candidate with slack <= margin is refused even
# when its enlarged block has lambda_min >= c (then lambda_min - c <= slack
# <= margin), where an eigensolve comparison would accept lambda_min == c.
_SCHUR_MARGIN = 1e-9

_INITIAL_CLASSES = 8

_BRUTE_FORCE_CAP = 12


@dataclass(frozen=True)
class ClassCertificate:
    """Recomputed separation quantities for one partition class."""

    labels: tuple[int, ...]
    size: int
    lambda_min: float
    carleson_inf: float | None = None


@dataclass(frozen=True)
class Partition:
    """Disjoint classes covering the input labels, with certificates."""

    classes: tuple[tuple[int, ...], ...]
    strategy: str
    certificates: tuple[ClassCertificate, ...]
    targets: dict

    @property
    def class_count(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class ClassCheck:
    labels: tuple[int, ...]
    lambda_min: float
    passed: bool


@dataclass(frozen=True)
class PartitionCheck:
    per_class: tuple[ClassCheck, ...]
    all_pass: bool
    level: float


def modulus_order(z: np.ndarray) -> np.ndarray:
    """Positions of ``z`` by ascending modulus, ties kept in input order."""
    return np.argsort(np.abs(z), kind="stable")


def partition_carleson(seq: PointSequence, delta_target: float) -> Partition:
    """First-fit partition keeping every in-class separation product >= delta.

    Points are consumed in sequence order; first-fit results are
    order-sensitive, so a caller that wants another order (the CLI's
    ``--sort-by-modulus``, through ``modulus_order``) reorders the sequence
    first. For each point j the column log rho(z_i, z_j) over all i is
    computed once. Point j joins the first class where its own log-product
    (a running per-class sum of those columns) and every member's
    log-product plus log rho(z_i, z_j) stay at or above
    log(delta) + ``_LOG_MARGIN``; all classes are tested in one vectorised
    step over the placed points [:j]. The final certificates are recomputed
    per class with ``carleson_constants`` and a fresh eigensolve of the
    class's Grammian block.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError(f"delta target {delta_target} must lie in (0, 1)")
    z = seq.values()
    _check_distinct(seq)
    n = len(z)
    log_target = float(np.log(delta_target)) + _LOG_MARGIN

    # sums[k, i]: log-product of point i against the members of class k;
    # log_products[i]: a placed point's log-product within its own class.
    sums = np.zeros((_INITIAL_CLASSES, n))
    log_products = np.zeros(n)
    class_of = np.zeros(n, dtype=np.intp)
    count = 0
    for j in range(n):
        column = np.log(_rho_column(z, j))
        placed_class = class_of[:j]
        updated = log_products[:j] + column[:j]
        worst = np.full(count, np.inf)
        np.minimum.at(worst, placed_class, updated)
        fits = np.flatnonzero((sums[:count, j] >= log_target) & (worst >= log_target))
        if fits.size:
            k = fits[0]
            joined = placed_class == k
            log_products[:j][joined] = updated[joined]
            log_products[j] = sums[k, j]
            sums[k] += column
        else:
            k = count
            count += 1
            sums = _room(sums, k)
            sums[k] = column
        class_of[j] = k

    members = [np.flatnonzero(class_of == k).tolist() for k in range(count)]
    classes = tuple(tuple(seq.labels[i] for i in cls) for cls in members)
    certificates = tuple(_carleson_certificate(seq, cls) for cls in members)
    return Partition(classes, CARLESON_GREEDY, certificates, {"delta_target": delta_target})


def _room(table: np.ndarray, used: int) -> np.ndarray:
    """``table`` with a free row at index ``used``, doubling when full."""
    if used < len(table):
        return table
    grown = np.zeros((2 * len(table), table.shape[1]), dtype=table.dtype)
    grown[:used] = table
    return grown


def _carleson_certificate(seq: PointSequence, positions: list[int]) -> ClassCertificate:
    sub = seq.subsequence(positions)
    report = carleson_constants(sub)
    lam_min = float(np.linalg.eigvalsh(szego_gram(sub).matrix.matrix)[0])
    return ClassCertificate(
        labels=tuple(sub.labels),
        size=len(sub),
        lambda_min=lam_min,
        carleson_inf=report.infimum,
    )


def _spectral_matrix(source):
    """``(diagonal, rows, block)`` of the matrix a spectral partition reads.

    ``rows(idx, start)`` is ``m[idx, start:]`` and ``block(positions)`` the
    class block ``m[positions][:, positions]``. A normalized ``Grammian``
    serves slices of its matrix. A ``PointSequence`` stands for its Szegő
    Grammian: rows come from the closed form on demand (before the
    symmetrization ``HermitianMatrix`` applies, so an entry may differ from
    ``szego_gram``'s in the last bit), and a block is a fresh
    ``szego_gram`` of the class's points.
    """
    if isinstance(source, PointSequence):
        z = source.values()
        one_minus = 1.0 - np.abs(z) ** 2

        def rows(idx, start):
            return _szego_entries(z[idx], z[start:], one_minus[idx], one_minus[start:])

        def block(positions):
            return szego_gram(source.subsequence(positions)).matrix.matrix

        return np.ones(len(z)), rows, block
    if not source.normalized:
        raise ValueError("spectral partitioning expects a normalized Grammian")
    m = source.matrix.matrix
    return (
        np.real(np.diagonal(m)),
        lambda idx, start: m[idx, start:],
        lambda positions: m[np.ix_(positions, positions)],
    )


def partition_spectral(source: Grammian | PointSequence, c_target: float) -> Partition:
    """First-fit partition keeping lambda_min of every class block >= c.

    ``source`` is a normalized Grammian or a point sequence, which stands
    for its Szegő Grammian without forming it (see ``_spectral_matrix``).
    A singleton always qualifies because the Grammian is normalized, and
    interlacing makes class feasibility monotone, so the greedy pass
    terminates with every certificate at or above the target.

    lambda_min(B) >= c is tested as B - cI > 0. Class k keeps R_k, the
    inverse of the Cholesky factor of its B_k - cI, and a row
    ``schur[k, j'] = ||R_k m[class_k, j']||^2`` for every later point j'.
    Point j joins the first class with Schur complement
    (m[j, j] - c) - schur[k, j] > ``_SCHUR_MARGIN``, one vectorised
    comparison over all classes; acceptance reads the rows m[class_k + j, j:]
    in one call, appends a row to R_k and adds the new member's term to the
    class's row, O(class size * n). A singleton whose own slack
    m[j, j] - c is within the margin (c near 1) opens a class that admits
    nobody. Certificates are a fresh eigensolve of each final class block.
    """
    if not math.isfinite(c_target):
        raise ValueError(f"c target {c_target} must be a finite number")
    if c_target > 1.0:
        raise TargetTooHighError(f"c target {c_target} exceeds the normalized diagonal")
    if c_target <= 0.0:
        raise ValueError(f"c target {c_target} must be positive")
    diagonal, rows, block = _spectral_matrix(source)
    n = source.dim
    own_slack = diagonal - c_target

    schur = np.zeros((_INITIAL_CLASSES, n))
    members: list[list[int]] = []
    inv_factors: list[np.ndarray] = []
    for j in range(n):
        slack = own_slack[j] - schur[: len(members), j]
        fits = np.flatnonzero(slack > _SCHUR_MARGIN)
        if fits.size:
            k = int(fits[0])
            slack_j = slack[k]
        else:
            k = len(members)
            slack_j = own_slack[j]
            schur = _room(schur, k)
            members.append([])
            inv_factors.append(np.zeros((0, 0), dtype=np.complex128))
            if slack_j <= _SCHUR_MARGIN:
                # c within the margin of m[j, j]: a singleton that admits nobody.
                schur[k] = np.inf
                members[k].append(j)
                continue
        # B - cI = L L* grows by the row [y*, d] with y = R m[cls, j] and
        # d = sqrt(slack), so R = L^-1 grows by [-y* R / d, 1 / d].
        cls, r = members[k], inv_factors[k]
        size = len(cls)
        d = math.sqrt(slack_j)
        cls.append(j)
        known = rows(cls, j)  # m[cls, j:] over the old members and, last, j's own row
        yr = np.conj(r @ known[:size, 0]) @ r
        w = (known[size, 1:] - yr @ known[:size, 1:]) / d
        schur[k, j + 1 :] += w.real**2 + w.imag**2
        grown = np.zeros((size + 1, size + 1), dtype=r.dtype)
        grown[:size, :size] = r
        grown[size, :size] = -yr / d
        grown[size, size] = 1.0 / d
        inv_factors[k] = grown

    labels = source.labels
    certificates = []
    for cls in members:
        certificates.append(
            ClassCertificate(
                labels=tuple(labels[i] for i in cls),
                size=len(cls),
                lambda_min=float(np.linalg.eigvalsh(block(cls))[0]),
                carleson_inf=None,
            )
        )
    classes = tuple(cert.labels for cert in certificates)
    return Partition(classes, SPECTRAL_GREEDY, tuple(certificates), {"c_target": c_target})


def verify_partition(g: Grammian, partition: Partition, level: float) -> PartitionCheck:
    """Independent check that classes tile the labels and clear the level."""
    seen: set[int] = set()
    total = 0
    for cls in partition.classes:
        cls_set = set(cls)
        if len(cls_set) != len(cls):
            raise NotAPartitionError(f"class {cls} repeats a label")
        if seen & cls_set:
            raise NotAPartitionError(f"label overlap in class {cls}")
        seen |= cls_set
        total += len(cls)
    if seen != set(g.labels) or total != len(g.labels):
        raise NotAPartitionError("classes do not tile the Grammian labels")

    m = g.matrix.matrix
    position = {lab: i for i, lab in enumerate(g.labels)}
    checks = []
    for cls in partition.classes:
        idx = [position[lab] for lab in cls]
        lam = float(np.linalg.eigvalsh(m[np.ix_(idx, idx)])[0])
        checks.append(ClassCheck(tuple(cls), lam, lam >= level))
    return PartitionCheck(tuple(checks), all(c.passed for c in checks), level)


def _minimal_classes(n: int, feasible) -> int:
    """Exhaustive first-fit-shape search for the fewest feasible classes.

    Depth-first over restricted-growth assignments with memoized class
    feasibility; relies on feasibility being monotone under removal (both
    strategies are: dropping a point can only improve a class).
    """
    best = n
    cache: dict[frozenset, bool] = {}

    def check(s: frozenset) -> bool:
        hit = cache.get(s)
        if hit is None:
            hit = cache[s] = feasible(s)
        return hit

    classes: list[frozenset] = []

    def dfs(i: int) -> None:
        nonlocal best
        if len(classes) >= best:
            return
        if i == n:
            best = len(classes)
            return
        for c in range(len(classes)):
            grown = classes[c] | {i}
            if check(grown):
                kept = classes[c]
                classes[c] = grown
                dfs(i + 1)
                classes[c] = kept
        if len(classes) + 1 < best:
            classes.append(frozenset((i,)))
            dfs(i + 1)
            classes.pop()

    dfs(0)
    return best


def minimal_carleson_classes(seq: PointSequence, delta_target: float) -> int:
    """Smallest number of classes any partition can achieve at this delta."""
    n = len(seq)
    if n > _BRUTE_FORCE_CAP:
        raise ValueError(f"exhaustive search is capped at {_BRUTE_FORCE_CAP} points")
    z = seq.values()
    _check_distinct(seq)
    log_rho = np.log(_rho_matrix(z)) if n > 1 else np.zeros((1, 1))
    np.fill_diagonal(log_rho, 0.0)
    log_target = float(np.log(delta_target))

    def feasible(s: frozenset) -> bool:
        idx = list(s)
        sub = log_rho[np.ix_(idx, idx)]
        return bool(sub.sum(axis=1).min() >= log_target)

    return _minimal_classes(n, feasible)


def minimal_spectral_classes(g: Grammian, c_target: float) -> int:
    """Smallest number of classes any partition can achieve at this c."""
    n = g.dim
    if n > _BRUTE_FORCE_CAP:
        raise ValueError(f"exhaustive search is capped at {_BRUTE_FORCE_CAP} points")
    m = g.matrix.matrix

    def feasible(s: frozenset) -> bool:
        idx = list(s)
        return bool(np.linalg.eigvalsh(m[np.ix_(idx, idx)])[0] >= c_target)

    return _minimal_classes(n, feasible)
