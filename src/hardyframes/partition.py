"""Greedy partitioning of kernel sequences into well-separated classes.

Two first-fit strategies over the sequence order; each point joins the
first class it fits, or opens a new one. Neither reorders its input: a
caller that wants another order (the CLI's ``--sort-by-modulus``) passes
``seq.subsequence(modulus_order(seq.values()))``, the same for both.

- ``carleson_greedy`` keeps, inside every class, each member's product of
  pseudo-hyperbolic distances to the others at or above a target delta.
  Each point's column of log rho against the points already placed gives
  both the members' updated log-products and (one ``bincount``) the
  candidate's own log-product against every class, so a candidate is
  tested against every class in one vectorised step. The columns come in
  blocks of consecutive points, one broadcast per block of about
  ``_BLOCK_ENTRIES`` distances: O(n) memory, with no n x n matrix.
- ``spectral_greedy`` keeps the smallest eigenvalue of every class's
  normalized Grammian block at or above a target c, through the equivalent
  condition B - cI > 0. First fit is built one class at a time over the
  points no earlier class took: the class carries W = L^-1 m[class, tail]
  (L the Cholesky factor of B - cI), one row per member, and the row of
  Schur-complement terms ||W[:, j']||^2, so the next member is one
  vectorised comparison and no candidate is ever eigensolved. The loop
  reads its matrix only through a row source built once per class, which
  writes each member's row m[j, later tail] once, straight into W's
  buffer. Given a point sequence instead of a Grammian, the source computes
  those rows from the Szegő closed form over the class's gathered tail, so
  memory is O(n * largest class) with no n x n matrix.

Neither loop certifies itself: the final certificates are recomputed from
the points (or the Grammian), never read from the greedy's state. The
classes are grouped by size k; each group's class blocks are built as one
(m, k, k) stack (for points, exactly Hermitian and bitwise the ``szego_gram``
of each class's points) and get one stacked ``eigvalsh``, and for
``carleson`` the separation products are recomputed the same way,
with ``carleson_constants``' formula. ``verify_partition`` solves a
Grammian's class blocks the same way. An exhaustive minimal-partition
search (viable up to 12 points) is provided as an oracle for testing the
greedy counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAPartitionError, TargetTooHighError
from .geometry import PointSequence, _check_distinct, _rho, _rho_matrix, _separation_products
from .kernels import Grammian, _szego_entries, _szego_matrix

CARLESON_GREEDY = "carleson_greedy"
SPECTRAL_GREEDY = "spectral_greedy"

# Greedy acceptance applies this slack in log space so that certificates
# recomputed with a different summation order still clear the target.
_LOG_MARGIN = 1e-9

# Entries of one block of log-rho columns in the Carleson greedy: sets how
# many consecutive points share one broadcast, keeping the block O(n). Its
# complex temporaries then stay within 128 KiB, below glibc's default mmap
# threshold; larger ones measured several times slower, faulting in fresh
# pages on every allocation.
_BLOCK_ENTRIES = 2**13

# A candidate joins a spectral class only when the Schur complement of the
# enlarged block, (m[j, j] - c) - ||L^-1 m[class, j]||^2, exceeds this, so that
# certificates recomputed with a fresh eigensolve still clear the target.
# Ties go to a later class: a candidate with slack <= margin is refused even
# when its enlarged block has lambda_min >= c (then lambda_min - c <= slack
# <= margin), where an eigensolve comparison would accept lambda_min == c.
_SCHUR_MARGIN = 1e-9

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
    first. For each point j the column log rho(z_j, z_i) over the placed
    points i < j is computed once, in blocks of consecutive points
    (``_log_rho_rows``). Point j joins the first class where its
    own log-product (the column summed over the class's members in join
    order, one ``bincount``) and every member's log-product plus
    log rho(z_j, z_i) stay at or above log(delta) + ``_LOG_MARGIN``; all
    classes are tested in one vectorised step over the placed points [:j],
    and only O(n) state is kept. The final certificates are recomputed
    from the class's points: the separation products and lambda_min of the
    class's Szegő Grammian, one stacked solve per class size.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError(f"delta target {delta_target} must lie in (0, 1)")
    z = seq.values()
    _check_distinct(seq)
    n = len(z)
    log_target = float(np.log(delta_target)) + _LOG_MARGIN

    # log_products[i]: a placed point's log-product within its own class
    log_products = np.zeros(n)
    class_of = np.zeros(n, dtype=np.intp)
    count = 0
    rows = _block_rows(n)
    for start in range(0, n, rows):
        block = _log_rho_rows(z, start, min(start + rows, n))
        for j in range(start, start + len(block)):
            column = block[j - start, :j]  # log rho(z_j, z_i) over the placed points i < j
            placed_class = class_of[:j]
            updated = log_products[:j] + column
            # j's own log-product against each class, summed in join order
            own = np.bincount(placed_class, weights=column, minlength=count)
            fits = own >= log_target
            fits[placed_class[updated < log_target]] = False
            k = int(fits.argmax()) if count else 0
            if count and fits[k]:
                np.copyto(log_products[:j], updated, where=placed_class == k)
                log_products[j] = own[k]
            else:
                k = count
                count += 1
            class_of[j] = k

    # positions grouped by class, ascending within each class
    by_class = np.argsort(class_of, kind="stable")
    members = [cls.tolist() for cls in np.split(by_class, np.cumsum(np.bincount(class_of, minlength=count))[:-1])]
    groups = _size_groups(members)
    lambda_min = _lambda_mins(groups, count, lambda pos: _szego_matrix(z[pos]))
    carleson_inf = np.empty(count)
    for which, positions in groups:
        carleson_inf[which] = _separation_products(z[positions])[0].min(axis=-1)
    certificates = tuple(
        ClassCertificate(tuple(seq.labels[i] for i in cls), len(cls), lam, inf)
        for cls, lam, inf in zip(members, lambda_min.tolist(), carleson_inf.tolist())
    )
    classes = tuple(cert.labels for cert in certificates)
    return Partition(classes, CARLESON_GREEDY, certificates, {"delta_target": delta_target})


def _block_rows(n: int) -> int:
    """Consecutive points per block of log-rho columns against up to ``n`` placed points."""
    return max(1, _BLOCK_ENTRIES // n)


def _log_rho_rows(z: np.ndarray, start: int, stop: int) -> np.ndarray:
    """log rho(z_j, z_i) for j in [start, stop) and i < stop, one (stop - start, stop) broadcast.

    Row j - start, cut at [:j], is the column ``np.log(_rho(z[j], z[:j]))``
    bit for bit. Entries at and past j are never read; j's own (rho = 0) is
    set to rho = 1 first, so no log of zero is taken.
    """
    rho = _rho(z[start:stop, None], z[:stop])
    rho[np.arange(stop - start), np.arange(start, stop)] = 1.0
    return np.log(rho, out=rho)


def _size_groups(members: list[list[int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Classes grouped by size: per size k, the class indices and their (m, k) positions."""
    sizes = np.fromiter(map(len, members), dtype=np.intp, count=len(members))
    groups = []
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        groups.append((which, np.array([members[i] for i in which], dtype=np.intp)))
    return groups


def _lambda_mins(groups, count: int, blocks) -> np.ndarray:
    """lambda_min of every class block: one ``eigvalsh`` per group's (m, k, k) stack ``blocks(positions)``."""
    lam = np.empty(count)
    for which, pos in groups:
        lam[which] = np.linalg.eigvalsh(blocks(pos))[:, 0]
    return lam


def _gathered_blocks(m: np.ndarray):
    """``blocks`` for ``_lambda_mins`` that gathers each class block m[positions][:, positions]."""
    return lambda pos: m[pos[:, :, None], pos[:, None, :]]


def _spectral_matrix(source):
    """``(diagonal, class_rows, blocks)`` of the matrix a spectral partition reads.

    ``class_rows(tail)`` is the row source of one class over the unassigned
    positions ``tail``: ``row(q, out)`` writes m[tail[q], tail[q + 1:]] into
    the 1-D array ``out``. ``blocks`` is the block source ``_lambda_mins``
    reads. A normalized ``Grammian`` serves entries of its matrix. A
    ``PointSequence`` stands for its Szegő Grammian: a class gathers its
    tail's points once, and each row comes from the closed form, bitwise
    the entries of ``szego_gram``'s upper triangle; blocks are the class
    Grammians ``szego_gram`` builds from each class's points
    (``_szego_matrix``).
    """
    if isinstance(source, PointSequence):
        z = source.values()
        one_minus = 1.0 - np.abs(z) ** 2

        def points_rows(tail):
            zt, om = z[tail], one_minus[tail]
            return lambda q, out: _szego_entries(zt[q : q + 1], zt[q + 1 :], om[q : q + 1], om[q + 1 :], out=out[None])

        return np.ones(len(z)), points_rows, lambda pos: _szego_matrix(z[pos])
    if not source.normalized:
        raise ValueError("spectral partitioning expects a normalized Grammian")
    m = source.matrix.matrix

    def matrix_rows(tail):
        return lambda q, out: m[tail[q]].take(tail[q + 1 :], out=out)

    return np.real(np.diagonal(m)), matrix_rows, _gathered_blocks(m)


def partition_spectral(source: Grammian | PointSequence, c_target: float) -> Partition:
    """First-fit partition keeping lambda_min of every class block >= c.

    ``source`` is a normalized Grammian or a point sequence, which stands
    for its Szegő Grammian without forming it (see ``_spectral_matrix``).
    A singleton always qualifies because the Grammian is normalized, and
    interlacing makes class feasibility monotone, so the greedy pass
    terminates with every certificate at or above the target.

    lambda_min(B) >= c is tested as B - cI > 0. A point's test against
    class k depends only on class k's earlier members, so first fit is
    built one class at a time (``_spectral_class``): the first point no
    earlier class took opens the class, and the next member is the first
    later such point whose Schur complement (m[j, j] - c) - ||L^-1 m[class, j]||^2
    (L the Cholesky factor of B - cI) exceeds ``_SCHUR_MARGIN``, one
    vectorised comparison over the candidates. Acceptance writes the new
    member's row of m once, from the class's row source, into its row of
    W = L^-1 m[class, tail], turns it into that row in place and adds its
    squared moduli to the class's Schur row, O(class size * n).
    A singleton whose own slack m[j, j] - c is within the margin (c near 1)
    opens a class that admits nobody. Certificates are recomputed from the
    class blocks, not the Schur state: one stacked ``eigvalsh`` per class
    size, over blocks that are, for points, bitwise the ``szego_gram`` of
    each class's points.
    """
    if not math.isfinite(c_target):
        raise ValueError(f"c target {c_target} must be a finite number")
    if c_target > 1.0:
        raise TargetTooHighError(f"c target {c_target} exceeds the normalized diagonal")
    if c_target <= 0.0:
        raise ValueError(f"c target {c_target} must be positive")
    diagonal, class_rows, blocks = _spectral_matrix(source)
    n = source.dim
    own_slack = diagonal - c_target

    members: list[list[int]] = []
    tail = np.arange(n)
    while tail.size:
        cls, tail = _spectral_class(tail, own_slack, class_rows)
        members.append(cls)

    labels = source.labels
    lambda_min = _lambda_mins(_size_groups(members), len(members), blocks)
    certificates = tuple(
        ClassCertificate(tuple(labels[i] for i in cls), len(cls), lam)
        for cls, lam in zip(members, lambda_min.tolist())
    )
    classes = tuple(cert.labels for cert in certificates)
    return Partition(classes, SPECTRAL_GREEDY, certificates, {"c_target": c_target})


def _spectral_class(tail: np.ndarray, own_slack: np.ndarray, class_rows) -> tuple[list[int], np.ndarray]:
    """The class ``tail[0]`` opens, by first fit over the unassigned positions ``tail``.

    Returns the class's positions and the rest of ``tail``, in order. The
    class keeps W = L^-1 m[class, tail] (L the Cholesky factor of B - cI),
    one row per member, each filled only past the member's own place, and
    ``schur[t] = ||W[:, t]||^2``. Rows of m come from ``class_rows(tail)``.
    """
    own = own_slack[tail]
    if own[0] <= _SCHUR_MARGIN:
        # c within the margin of m[j, j]: a singleton that admits nobody.
        return [int(tail[0])], tail[1:]
    row_of = class_rows(tail)
    schur = np.zeros(len(tail))
    w = np.empty((8, len(tail)), dtype=np.complex128)
    taken: list[int] = []
    q = 0
    while True:
        size = len(taken)
        taken.append(q)
        if size == len(w):
            w = np.concatenate((w, np.empty_like(w)))
        # B - cI = L L* grows by the row [y*, d] with y = W[:, q] = L^-1 m[class, j]
        # and d = sqrt(slack), so W grows by the row (m[j, tail] - y* W) / d.
        d = math.sqrt(own[q] - schur[q])
        row = w[size, q + 1 :]
        row_of(q, out=row)
        if size:
            row -= np.conj(w[:size, q]) @ w[:size, q + 1 :]
        # numpy's complex row / d is both parts times 1 / d, up to the signs of zeros
        row.view(np.float64)[:] *= 1.0 / d
        schur[q + 1 :] += row.real**2 + row.imag**2
        fits = (own[q + 1 :] - schur[q + 1 :] > _SCHUR_MARGIN).nonzero()[0]
        if not fits.size:
            refused = np.ones(len(tail), dtype=bool)
            refused[taken] = False
            return tail[taken].tolist(), tail[refused]
        q += 1 + int(fits[0])


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

    position = {lab: i for i, lab in enumerate(g.labels)}
    members = [[position[lab] for lab in cls] for cls in partition.classes]
    lambda_min = _lambda_mins(_size_groups(members), len(members), _gathered_blocks(g.matrix.matrix))
    checks = tuple(
        ClassCheck(tuple(cls), lam, lam >= level) for cls, lam in zip(partition.classes, lambda_min.tolist())
    )
    return PartitionCheck(checks, all(c.passed for c in checks), level)


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
    log_rho = np.log(_rho_matrix(z))
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
