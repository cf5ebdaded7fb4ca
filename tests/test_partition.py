"""Greedy partitioning, certificates, and the exhaustive minimal search.

The minimal-class search is cross-checked against a naive enumeration of
all set partitions (Bell-number sized, fine up to 7 points), and the
certificates against plain double-loop separation products. The greedy
loops are compared class for class with straightforward reference loops:
a fresh eigensolve per candidate block, and first fit over the full
log-rho matrix.
"""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from hardyframes import (
    DuplicatePointError,
    Grammian,
    InnerFunction,
    NotAPartitionError,
    Partition,
    PointSequence,
    TargetTooHighError,
    carleson_constants,
    diagonal_operator,
    minimal_carleson_classes,
    minimal_spectral_classes,
    partition_carleson,
    partition_spectral,
    projection_c_plus_phi,
    projection_model_space,
    projection_phi_H2,
    pseudo_hyperbolic,
    range_space_gram,
    szego_gram,
    verify_partition,
)
from hardyframes import partition
from hardyframes.geometry import _rho, _rho_matrix
from hardyframes.kernels import _szego_entries, _szego_matrix
from hardyframes.partition import _LOG_MARGIN, _block_rows, _log_rho_rows, _size_groups, modulus_order
from hardyframes.verify import _FAMILY_SAMPLERS, POINT_FAMILIES as VERIFY_FAMILIES


def all_set_partitions(items):
    """Every partition of ``items`` as a list of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1:]
        yield [[first]] + part


def oracle_carleson_feasible(points, idx, delta):
    for i in idx:
        prod = 1.0
        for j in idx:
            if j != i:
                prod *= pseudo_hyperbolic(points[i], points[j])
        if prod < delta:
            return False
    return True


def oracle_minimal(n, feasible):
    best = n
    for part in all_set_partitions(list(range(n))):
        if len(part) < best and all(feasible(cls) for cls in part):
            best = len(part)
    return best


def reference_spectral(m, c_target):
    """First fit with a fresh eigensolve of every candidate block."""
    members = []
    for j in range(m.shape[0]):
        for cls in members:
            block = m[np.ix_(cls + [j], cls + [j])]
            if float(np.linalg.eigvalsh(block)[0]) >= c_target:
                cls.append(j)
                break
        else:
            members.append([j])
    return members


def reference_carleson(z, delta_target, sort_by_modulus=False):
    """First fit over the full log-rho matrix, member products as lists."""
    n = len(z)
    order = np.argsort(np.abs(z), kind="stable") if sort_by_modulus else np.arange(n)
    log_rho = np.log(_rho_matrix(z))
    log_target = float(np.log(delta_target)) + _LOG_MARGIN
    members, log_products = [], []
    for j in order:
        for c in range(len(members)):
            cand = float(log_rho[j, members[c]].sum())
            if cand < log_target:
                continue
            updated = [
                log_products[c][k] + float(log_rho[members[c][k], j])
                for k in range(len(members[c]))
            ]
            if min(updated) < log_target:
                continue
            members[c].append(int(j))
            log_products[c] = updated + [cand]
            break
        else:
            members.append([int(j)])
            log_products.append([0.0])
    return members


def uniform_points(rng, count, radius):
    """Uniform in the disk |z| <= radius (area measure)."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=count))


def boundary_clusters(rng, count, clusters=6):
    """Tight clusters centred at radius 0.9-0.96, kept inside |z| <= 0.985."""
    centres = rng.uniform(0.9, 0.96, size=clusters) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, size=clusters)
    )
    out = []
    while len(out) < count:
        z = centres[len(out) % clusters] + complex(*rng.normal(0.0, 0.01, size=2))
        if abs(z) <= 0.985:
            out.append(z)
    return np.array(out)


def mixed_points(rng, count):
    """70% uniform in |z| <= 0.95 and 30% boundary clusters, shuffled."""
    n_cluster = 3 * count // 10
    z = np.concatenate([uniform_points(rng, count - n_cluster, 0.95), boundary_clusters(rng, n_cluster)])
    return z[rng.permutation(count)]


# family: (seed, sampler); a family's seed stays fixed when others are added
POINT_FAMILIES = {
    "boundary_clusters": (41, lambda rng: boundary_clusters(rng, 120)),
    "mixed_70_30": (42, lambda rng: mixed_points(rng, 300)),
    "uniform": (43, lambda rng: uniform_points(rng, 150, 0.9)),
    "near_boundary_arc": (44, lambda rng: near_boundary_arc(rng, 40)),
    "real_axis_signed_zeros": (45, lambda rng: real_axis_signed_zeros(rng, 40)),
}


def random_sequence(rng, count, radius=0.85):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < radius:
            pts.append(z)
    return PointSequence(pts)


class TestPartitionCarleson:
    def test_hand_instance(self):
        # 0.1 and 0.12 are nearly hyperbolically coincident; 0.8 is far away
        part = partition_carleson(PointSequence([0.1, 0.12, 0.8]), 0.5)
        assert part.classes == ((0, 2), (1,))
        assert part.strategy == "carleson_greedy"
        assert part.targets == {"delta_target": 0.5}

    def test_singleton_sequence(self):
        part = partition_carleson(PointSequence([0.3]), 0.5)
        assert part.classes == ((0,),)
        assert part.certificates[0].carleson_inf == 1.0
        assert part.certificates[0].lambda_min == pytest.approx(1.0)

    def test_high_target_goes_all_singletons(self):
        seq = PointSequence([0.1, 0.12, 0.14, 0.16])
        part = partition_carleson(seq, 0.99)
        assert part.class_count == 4
        assert all(c.size == 1 for c in part.certificates)

    def test_sort_by_modulus_changes_first_fit(self):
        seq = PointSequence([0.8, 0.1, 0.12])
        unsorted = partition_carleson(seq, 0.5)
        by_mod = partition_carleson(seq.subsequence(modulus_order(seq.values())), 0.5)
        assert unsorted.classes == ((0, 1), (2,))
        assert by_mod.classes == ((1, 0), (2,))

    def test_certificates_clear_target(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 13))
            seq = random_sequence(rng, n)
            delta = float(rng.uniform(0.1, 0.7))
            part = partition_carleson(seq, delta)
            for cert in part.certificates:
                assert cert.carleson_inf >= delta
                assert cert.size == len(cert.labels)
            covered = sorted(lab for cls in part.classes for lab in cls)
            assert covered == list(range(n))

    def test_certificates_match_double_loop(self):
        rng = np.random.default_rng(5)
        seq = random_sequence(rng, 8)
        pts = list(seq.values())
        part = partition_carleson(seq, 0.3)
        for cls, cert in zip(part.classes, part.certificates):
            worst = 1.0
            for i in cls:
                prod = 1.0
                for j in cls:
                    if j != i:
                        prod *= pseudo_hyperbolic(pts[i], pts[j])
                worst = min(worst, prod)
            assert cert.carleson_inf == pytest.approx(worst, rel=1e-12)

    def test_rejects_bad_targets(self):
        seq = PointSequence([0.1, 0.5])
        for bad in (0.0, 1.0, -0.2, 1.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                partition_carleson(seq, bad)

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicatePointError):
            partition_carleson(PointSequence([0.5, 0.5]), 0.3)


class TestPartitionSpectral:
    def test_well_separated_single_class(self):
        g = szego_gram(PointSequence([0.0, 0.9]))
        part = partition_spectral(g, 0.1)
        assert part.classes == ((0, 1),)
        assert part.certificates[0].lambda_min >= 0.1
        assert part.certificates[0].carleson_inf is None

    def test_duplicate_point_forces_split(self):
        g = szego_gram(PointSequence([0.5, 0.5]))
        part = partition_spectral(g, 0.5)
        assert part.classes == ((0,), (1,))

    def test_duplicate_among_others_lands_in_another_class(self):
        g = szego_gram(PointSequence([0.1, 0.5, -0.3j, 0.5, 0.7j]))
        part = partition_spectral(g, 0.3)
        class_of = {lab: k for k, cls in enumerate(part.classes) for lab in cls}
        assert class_of[1] != class_of[3]
        assert part.classes == tuple(tuple(c) for c in reference_spectral(g.matrix.matrix, 0.3))
        assert verify_partition(g, part, 0.3).all_pass

    def test_single_point(self):
        part = partition_spectral(szego_gram(PointSequence([0.3])), 0.5)
        assert part.classes == ((0,),)
        assert part.certificates[0].lambda_min == pytest.approx(1.0)

    def test_target_one_gives_certified_singletons(self):
        g = szego_gram(random_sequence(np.random.default_rng(19), 7))
        part = partition_spectral(g, 1.0)
        assert part.classes == tuple((i,) for i in range(7))
        assert verify_partition(g, part, 1.0).all_pass

    def test_exact_tie_goes_to_a_new_class(self):
        # For two points lambda_min = 1 - |g01|. At exactly that target the
        # Schur complement is zero up to rounding, inside _SCHUR_MARGIN, so
        # the second point opens a class where a fresh eigensolve
        # comparison (lambda_min >= c) would have accepted it.
        g = szego_gram(PointSequence([0.2, 0.6j]))
        tie = float(np.linalg.eigvalsh(g.matrix.matrix)[0])
        assert reference_spectral(g.matrix.matrix, tie) == [[0, 1]]
        part = partition_spectral(g, tie)
        assert part.classes == ((0,), (1,))
        assert verify_partition(g, part, tie).all_pass

    def test_target_at_a_class_lambda_min_still_certifies(self):
        g = szego_gram(random_sequence(np.random.default_rng(23), 40, radius=0.9))
        first = partition_spectral(g, 0.3)
        tie = min(c.lambda_min for c in first.certificates if c.size > 1)
        part = partition_spectral(g, tie)
        assert verify_partition(g, part, tie).all_pass
        assert min(c.lambda_min for c in part.certificates) >= tie

    def test_certificates_clear_target(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            g = szego_gram(random_sequence(rng, n))
            c = float(rng.uniform(0.05, 0.6))
            part = partition_spectral(g, c)
            for cert in part.certificates:
                assert cert.lambda_min >= c
            check = verify_partition(g, part, c)
            assert check.all_pass

    def test_certificates_equal_verify_partition(self):
        # the CLI reads certified= off the certificates; verify_partition
        # eigensolves the same blocks in the same order, so they agree bitwise
        g = szego_gram(random_sequence(np.random.default_rng(29), 60, radius=0.95))
        for c in (0.1, 0.3, 0.6):
            part = partition_spectral(g, c)
            check = verify_partition(g, part, c)
            assert [cert.lambda_min for cert in part.certificates] == [
                cls.lambda_min for cls in check.per_class
            ]
            tie = min(cert.lambda_min for cert in part.certificates)
            for level in (c, tie, np.nextafter(tie, 2.0)):
                met = all(cert.lambda_min >= level for cert in part.certificates)
                assert met == verify_partition(g, part, level).all_pass

    def test_rejects_target_above_one(self):
        g = szego_gram(PointSequence([0.1, 0.5]))
        with pytest.raises(TargetTooHighError):
            partition_spectral(g, 1.5)

    def test_rejects_nonpositive_target(self):
        g = szego_gram(PointSequence([0.1, 0.5]))
        with pytest.raises(ValueError):
            partition_spectral(g, 0.0)

    def test_rejects_non_finite_target(self):
        g = szego_gram(PointSequence([0.1, 0.5]))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                partition_spectral(g, bad)

    def test_requires_normalized(self):
        from hardyframes import image_gram, projection_monomial_span

        g = image_gram(projection_monomial_span([0], 32), PointSequence([0.3, 0.5]))
        with pytest.raises(ValueError):
            partition_spectral(g, 0.1)


@pytest.mark.parametrize("sort_by_modulus", [False, True])
@pytest.mark.parametrize("family", sorted(POINT_FAMILIES))
class TestAgainstReferenceLoops:
    """Class-for-class equality with the reference loops on seeded inputs.

    The spectral greedy is run on the Grammian and on the points, the route
    the CLI takes.
    """

    def _points(self, family):
        seed, sampler = POINT_FAMILIES[family]
        return sampler(np.random.default_rng(seed))

    def test_spectral(self, family, sort_by_modulus):
        z = self._points(family)
        order = np.argsort(np.abs(z), kind="stable") if sort_by_modulus else np.arange(len(z))
        seq = PointSequence(list(z[order]), tuple(int(i) for i in order))
        g = szego_gram(seq)
        for c in (0.1, 0.3, 0.6):
            want = reference_spectral(g.matrix.matrix, c)
            for part in (partition_spectral(g, c), partition_spectral(seq, c)):
                assert part.classes == tuple(tuple(seq.labels[i] for i in cls) for cls in want)
                assert min(cert.lambda_min for cert in part.certificates) >= c

    def test_carleson(self, family, sort_by_modulus):
        z = self._points(family)
        seq = PointSequence(list(z))
        ordered = seq.subsequence(modulus_order(z)) if sort_by_modulus else seq
        for delta in (0.1, 0.3):
            part = partition_carleson(ordered, delta)
            want = reference_carleson(z, delta, sort_by_modulus)
            assert part.classes == tuple(tuple(cls) for cls in want)
            assert min(cert.carleson_inf for cert in part.certificates) >= delta


def with_duplicates(rng, count):
    """Uniform points in which every fifth point repeats an earlier one exactly."""
    z = uniform_points(rng, count, 0.9)
    z[4::5] = z[rng.integers(0, 4, size=len(z[4::5]))]
    return z


FROM_POINTS_FAMILIES = {
    # a separated ring of 40 points does not exist, so that family gets 12
    **{
        fam: lambda rng, fam=fam: np.array(_FAMILY_SAMPLERS[fam](rng, 12 if fam == "carleson_separated" else 40))
        for fam in VERIFY_FAMILIES
    },
    "boundary_clusters": lambda rng: boundary_clusters(rng, 120),
    "duplicates": lambda rng: with_duplicates(rng, 60),
}


@pytest.mark.parametrize("family", sorted(FROM_POINTS_FAMILIES))
class TestSpectralFromPoints:
    """A point sequence streams the rows its Szegő Grammian would give."""

    def test_equals_the_partition_of_the_grammian(self, family):
        rng = np.random.default_rng(sorted(FROM_POINTS_FAMILIES).index(family) + 61)
        z = FROM_POINTS_FAMILIES[family](rng)
        # permuted labels, so a position is never mistaken for a label
        seq = PointSequence(list(z)).subsequence(rng.permutation(len(z)))
        for c in (0.1, 0.3, 0.6, 1.0):
            assert partition_spectral(seq, c) == partition_spectral(szego_gram(seq), c)

    def test_certificates_are_fresh_class_grammians(self, family):
        rng = np.random.default_rng(sorted(FROM_POINTS_FAMILIES).index(family) + 67)
        seq = PointSequence(list(FROM_POINTS_FAMILIES[family](rng)))
        part = partition_spectral(seq, 0.3)
        for cls, cert in zip(part.classes, part.certificates):
            block = szego_gram(seq.subsequence(cls)).matrix.matrix
            assert cert.labels == cls
            assert cert.lambda_min == float(np.linalg.eigvalsh(block)[0])


def random_blaschke(rng, degree):
    """A Blaschke product with ``degree`` zeros uniform in |a| <= 0.8."""
    zeros = 0.8 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    return InnerFunction(tuple(zeros))


# kind: builder(rng, order, degree); the model space has rank deg phi, and the
# geometric diagonal ignores the degree (its ratio is drawn from rng)
RANGE_SPACE_OPERATORS = {
    "c_plus_phi": lambda rng, order, degree: projection_c_plus_phi(random_blaschke(rng, degree), order),
    "phi_H2": lambda rng, order, degree: projection_phi_H2(random_blaschke(rng, degree), order),
    "model_space": lambda rng, order, degree: projection_model_space(random_blaschke(rng, degree), order),
    "geometric_diagonal": lambda rng, order, degree: diagonal_operator(rng.uniform(0.9, 0.99) ** np.arange(order)),
}


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(RANGE_SPACE_OPERATORS))
def test_spectral_on_range_space_grammians(kind, degree):
    """The greedy reads a Grammian that is not Szegő's: an H(P) range-space Grammian."""
    rng = np.random.default_rng([sorted(RANGE_SPACE_OPERATORS).index(kind), degree])
    op = RANGE_SPACE_OPERATORS[kind](rng, 256, degree)
    g = range_space_gram(op, PointSequence(list(uniform_points(rng, 40, 0.9))))
    for c in (0.1, 0.3, 0.6):
        part = partition_spectral(g, c)
        assert part.classes == tuple(tuple(cls) for cls in reference_spectral(g.matrix.matrix, c))
        assert verify_partition(g, part, c).all_pass
        if kind == "model_space":
            assert max(map(len, part.classes)) <= degree


def near_boundary_arc(rng, count, eps=1e-6):
    """Points with 1 - |z| in [0.5, 2] * eps on an arc about 100 * eps long."""
    theta = rng.uniform(0.0, 2.0 * np.pi) + 100 * eps * rng.uniform(0.0, 1.0, size=count)
    return (1.0 - eps * rng.uniform(0.5, 2.0, size=count)) * np.exp(1j * theta)


def real_axis_signed_zeros(rng, count):
    """Distinct real points whose imaginary parts are +0.0 or -0.0 (and real part -0.0 once)."""
    x = rng.permutation(np.linspace(-0.9, 0.9, count))
    z = [complex(v, -0.0 if k % 2 else 0.0) for k, v in enumerate(x)]
    return np.array(z + [complex(-0.0, 0.35)])


CERTIFICATE_FAMILIES = {
    "boundary_clusters": lambda rng: boundary_clusters(rng, 120),
    "near_boundary_arc": lambda rng: near_boundary_arc(rng, 40),
    "real_axis_signed_zeros": lambda rng: real_axis_signed_zeros(rng, 40),
    "mixed_70_30": lambda rng: mixed_points(rng, 300),
}


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("family", sorted(CERTIFICATE_FAMILIES))
class TestStackedCertificates:
    """One stacked solve per class size gives the per-class certificates bit for bit.

    The per-class route is a fresh ``szego_gram`` of the class's points (or
    the class block of a Grammian) with its own ``eigvalsh``, and
    ``carleson_constants`` of the class's points. Targets run from mixed
    class sizes down to all singletons.
    """

    def sequence(self, family):
        rng = np.random.default_rng(sorted(CERTIFICATE_FAMILIES).index(family) + 71)
        z = CERTIFICATE_FAMILIES[family](rng)
        # permuted labels, so a position is never mistaken for a label
        return PointSequence(list(z)).subsequence(rng.permutation(len(z)))

    def test_spectral(self, family):
        seq = self.sequence(family)
        g = szego_gram(seq)
        m = g.matrix.matrix
        position = {lab: i for i, lab in enumerate(seq.labels)}
        sizes = set()
        for c in (0.1, 0.3, 0.6, 1.0):
            for part in (partition_spectral(seq, c), partition_spectral(g, c)):
                idx = [[position[lab] for lab in cls] for cls in part.classes]
                want = [np.linalg.eigvalsh(szego_gram(seq.subsequence(i)).matrix.matrix)[0] for i in idx]
                assert hexes(cert.lambda_min for cert in part.certificates) == hexes(want)
                blocks = [np.linalg.eigvalsh(m[np.ix_(i, i)])[0] for i in idx]
                assert hexes(check.lambda_min for check in verify_partition(g, part, c).per_class) == hexes(blocks)
                sizes.add(frozenset(len(cls) for cls in part.classes))
        assert frozenset({1}) in sizes  # c = 1: all singletons
        assert any(len(s) > 2 for s in sizes)

    def test_class_grammians_are_the_bytes_of_szego_gram(self, family):
        # signed zeros included, which lambda_min does not show
        seq = self.sequence(family)
        members = [list(range(k, len(seq), 7)) for k in range(7)] + [[0, 3], [5]]
        stacks = [(which, _szego_matrix(seq.values()[pos])) for which, pos in _size_groups(members)]
        assert sorted(k for which, _ in stacks for k in which) == list(range(len(members)))
        for which, blocks in stacks:
            for k, block in zip(which, blocks):
                assert block.tobytes() == szego_gram(seq.subsequence(members[k])).matrix.matrix.tobytes()

    def test_carleson(self, family):
        seq = self.sequence(family)
        position = {lab: i for i, lab in enumerate(seq.labels)}
        sizes = set()
        for delta in (0.05, 0.3, 0.9, 0.999999):
            part = partition_carleson(seq, delta)
            subs = [seq.subsequence([position[lab] for lab in cls]) for cls in part.classes]
            want = [np.linalg.eigvalsh(szego_gram(sub).matrix.matrix)[0] for sub in subs]
            assert hexes(cert.lambda_min for cert in part.certificates) == hexes(want)
            assert hexes(cert.carleson_inf for cert in part.certificates) == hexes(
                carleson_constants(sub).infimum for sub in subs
            )
            sizes.add(frozenset(len(cls) for cls in part.classes))
        assert frozenset({1}) in sizes
        assert any(len(s) > 2 for s in sizes)


@pytest.mark.parametrize("family", sorted(CERTIFICATE_FAMILIES))
def test_blocked_log_rho_rows_are_the_per_point_columns(family):
    """Each row of a block, cut before its own point, is that point's column bit for bit.

    Blocks run at the greedy's own rows and at 1, 2 and 7 rows, and no
    block takes the log of its zero diagonal (numpy would warn).
    """
    z = CERTIFICATE_FAMILIES[family](np.random.default_rng(sorted(CERTIFICATE_FAMILIES).index(family) + 89))
    n = len(z)
    for rows in sorted({_block_rows(n), 1, 2, 7}):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            with np.errstate(all="raise"):
                block = _log_rho_rows(z, start, stop)
            assert block.shape == (stop - start, stop)
            for j in range(start, stop):
                assert block[j - start, :j].tobytes() == np.log(_rho(z[j], z[:j])).tobytes()


@pytest.mark.parametrize(
    "n, rows",
    # one point; fewer points than one block; a whole number of blocks; one
    # more point than that; then, at the default entry budget, two full
    # blocks and two full blocks followed by a short one
    [(1, 1), (50, 64), (48, 8), (49, 8), (128, None), (129, None)],
)
def test_carleson_at_block_edges(monkeypatch, n, rows):
    seq = PointSequence(list(mixed_points(np.random.default_rng(n), n)))
    want = {delta: partition_carleson(seq, delta) for delta in (0.1, 0.3)}
    if rows is not None:
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", rows * n)
    assert _block_rows(n) == (rows or {128: 64, 129: 63}[n])
    for delta, whole in want.items():
        part = partition_carleson(seq, delta)
        assert part.classes == tuple(tuple(cls) for cls in reference_carleson(seq.values(), delta))
        assert part == whole


@pytest.mark.parametrize("n", [600, 3000])
def test_carleson_computes_distances_block_by_block(monkeypatch, n):
    """The greedy makes one ``_rho`` broadcast per block of points, not one per point."""
    calls = []

    def counting(a, b):
        calls.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        return _rho(a, b)

    monkeypatch.setattr(partition, "_rho", counting)
    partition_carleson(PointSequence(list(uniform_points(np.random.default_rng(5), n, 0.95))), 0.3)
    # 47 calls at n = 600 (13 points a block), 1500 at n = 3000 (2 a block)
    assert 0 < len(calls) <= -(-n // (partition._BLOCK_ENTRIES // n))
    assert sum(shape[0] for shape in calls) == n


def eps_clusters(rng, clusters=3, count=8, eps=1e-9):
    """Clusters of ``count`` points about 0.3 * eps wide at 1 - |z| ~ eps."""
    out = []
    for _ in range(clusters):
        theta = rng.uniform(0.0, 2.0 * np.pi) + 0.3 * eps * rng.standard_normal(count)
        out.append((1.0 - eps * rng.uniform(0.5, 1.5, size=count)) * np.exp(1j * theta))
    return np.concatenate(out)


class TestCertificateGate:
    """Boundary clusters at eps = 1e-9 partition and certify on every draw.

    There 1 - z_i conj(z_k) keeps few digits, so evaluating both triangles
    would leave an anti-Hermitian defect above the gate's 1e-8. Each
    certificate is the ``szego_gram`` of its class's points, bit for bit,
    and clears its target.
    """

    def certified(self, strategy):
        for seed in range(100):
            seq = PointSequence(list(eps_clusters(np.random.default_rng(seed))))
            part = strategy(seq, 0.1)
            subs = [seq.subsequence(list(cls)) for cls in part.classes]  # labels are positions here
            want = [np.linalg.eigvalsh(szego_gram(sub).matrix.matrix)[0] for sub in subs]
            assert hexes(cert.lambda_min for cert in part.certificates) == hexes(want)
            assert part.certified
            yield seq, part

    def test_carleson_certifies_boundary_clusters(self):
        for _, part in self.certified(partition_carleson):
            assert min(cert.carleson_inf for cert in part.certificates) >= 0.1

    def test_spectral_from_points_certifies_boundary_clusters(self):
        for seq, part in self.certified(partition_spectral):
            assert min(cert.lambda_min for cert in part.certificates) >= 0.1
            assert part == partition_spectral(szego_gram(seq), 0.1)


@pytest.mark.parametrize(
    "strategy, classes, peak_mb",
    # measured: 0.76 and 0.76 MB; 22.18 and 12.40 MB with (classes x n) tables
    [(partition_spectral, 1020, 3.0), (partition_carleson, 622, 1.5)],
    ids=["spectral", "carleson"],
)
def test_greedy_loops_keep_no_class_table(strategy, classes, peak_mb):
    seq = PointSequence(list(uniform_points(np.random.default_rng(5), 3000, 0.95)))
    tracemalloc.start()
    try:
        part = strategy(seq, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.class_count == classes
    assert peak < peak_mb * 1e6


@pytest.mark.parametrize("c", [0.1, 0.3, 0.6])
def test_spectral_from_points_computes_each_greedy_entry_once(monkeypatch, c):
    """The greedy reads at most one Szegő entry per pair of points.

    Greedy rows are the 2-D results of ``_szego_entries``, written into the
    ``out`` the greedy passes; the certificate blocks are (m, k, k) stacks
    and are not counted. Rows computed by any other formula are not counted
    either, so ``counted`` must not be empty.
    """
    counted = []

    def counting(*args, **kwargs):
        entries = _szego_entries(*args, **kwargs)
        if entries.ndim == 2:
            counted.append(entries.size)
        return entries

    monkeypatch.setattr(partition, "_szego_entries", counting)
    seq = PointSequence(list(mixed_points(np.random.default_rng(83), 300)))
    part = partition_spectral(seq, c)
    n = len(seq)
    assert max(len(cls) for cls in part.classes) > 1
    assert counted and sum(counted) <= n * (n - 1) // 2


@pytest.mark.parametrize(
    "strategy, target, reads",
    [(partition.CARLESON_GREEDY, "delta_target", 0.6), (partition.SPECTRAL_GREEDY, "c_target", 0.4)],
)
def test_certified_reads_its_strategys_certificate_against_its_target(strategy, target, reads):
    """A certificate exactly at the target clears it; carleson_inf and lambda_min are read apart."""
    cert = partition.ClassCertificate((0, 1), 2, lambda_min=0.4, carleson_inf=0.6)

    def certified(level):
        return Partition(((0, 1),), strategy, (cert,), {target: level}).certified

    assert certified(reads)
    assert not certified(np.nextafter(reads, 1.0))


class TestVerifyPartition:
    def _gram(self):
        return szego_gram(PointSequence([0.1, 0.5, -0.4j]))

    def test_passes_valid_partition(self):
        g = self._gram()
        part = partition_spectral(g, 0.2)
        check = verify_partition(g, part, 0.2)
        assert check.all_pass
        assert check.level == 0.2
        assert len(check.per_class) == part.class_count

    def test_fails_at_higher_level(self):
        g = self._gram()
        part = Partition(((0, 1, 2),), "spectral_greedy", (), {})
        check = verify_partition(g, part, 0.99)
        assert not check.all_pass
        assert check.per_class[0].labels == (0, 1, 2)
        assert check.per_class[0].lambda_min < 0.99

    def test_rejects_overlap(self):
        part = Partition(((0, 1), (1, 2)), "spectral_greedy", (), {})
        with pytest.raises(NotAPartitionError):
            verify_partition(self._gram(), part, 0.1)

    def test_rejects_gap(self):
        part = Partition(((0, 1),), "spectral_greedy", (), {})
        with pytest.raises(NotAPartitionError):
            verify_partition(self._gram(), part, 0.1)

    def test_rejects_repeated_label_in_class(self):
        part = Partition(((0, 0, 1, 2),), "spectral_greedy", (), {})
        with pytest.raises(NotAPartitionError):
            verify_partition(self._gram(), part, 0.1)

    def test_rejects_foreign_label(self):
        part = Partition(((0, 1, 5),), "spectral_greedy", (), {})
        with pytest.raises(NotAPartitionError):
            verify_partition(self._gram(), part, 0.1)

    def test_rejects_grammian_with_repeated_labels(self):
        # classes that name every distinct label still miss a point
        g = self._gram()
        g = Grammian(g.matrix, dataclasses.replace(g.provenance, labels=(0, 0, 1)), normalized=True)
        part = Partition(((0, 1),), "spectral_greedy", (), {})
        with pytest.raises(NotAPartitionError):
            verify_partition(g, part, 0.1)


class TestMinimalSearch:
    def test_carleson_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            seq = random_sequence(rng, n)
            pts = list(seq.values())
            delta = float(rng.uniform(0.2, 0.8))
            got = minimal_carleson_classes(seq, delta)
            want = oracle_minimal(n, lambda cls: oracle_carleson_feasible(pts, cls, delta))
            assert got == want

    def test_spectral_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            g = szego_gram(random_sequence(rng, n))
            m = g.matrix.matrix
            c = float(rng.uniform(0.05, 0.7))

            def feasible(cls):
                block = m[np.ix_(cls, cls)]
                return bool(np.linalg.eigvalsh(block)[0] >= c)

            assert minimal_spectral_classes(g, c) == oracle_minimal(n, feasible)

    def test_greedy_never_beats_minimal(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            seq = random_sequence(rng, n)
            delta = float(rng.uniform(0.2, 0.7))
            greedy = partition_carleson(seq, delta).class_count
            assert greedy >= minimal_carleson_classes(seq, delta)
            g = szego_gram(seq)
            c = float(rng.uniform(0.05, 0.6))
            assert partition_spectral(g, c).class_count >= minimal_spectral_classes(g, c)

    def test_cap_enforced(self):
        seq = random_sequence(np.random.default_rng(1), 13)
        with pytest.raises(ValueError):
            minimal_carleson_classes(seq, 0.5)
        with pytest.raises(ValueError):
            minimal_spectral_classes(szego_gram(seq), 0.5)

    def test_single_point(self):
        assert minimal_carleson_classes(PointSequence([0.3]), 0.9) == 1

    @pytest.mark.parametrize("target", [0.0, -1.0, 1.5, float("nan")])
    def test_target_is_checked_as_the_greedy_checks_it(self, target):
        seq = PointSequence([0.1, 0.5, -0.4j])
        for greedy, search, source in (
            (partition_carleson, minimal_carleson_classes, seq),
            (partition_spectral, minimal_spectral_classes, szego_gram(seq)),
        ):
            with pytest.raises((ValueError, TargetTooHighError)) as refused:
                greedy(source, target)
            with pytest.raises(refused.type, match=f"^{re.escape(str(refused.value))}$"):
                search(source, target)


def test_first_fit_count_not_monotone_in_target():
    """A looser target can produce MORE first-fit classes.

    First-fit is order-sensitive: an early insertion allowed by the looser
    target can block later ones. Both outputs still certify, so this is a
    property of the heuristic, not a defect of the certificates.
    """
    seq = PointSequence(
        [
            complex(0.48741978994910073, 0.4182826607529099),
            complex(0.37621574814095904, 0.01805214777071984),
            complex(0.8274722556295636, 0.005124850593536512),
            complex(-0.05196122501373568, -0.8625515122145513),
            complex(0.8552286412231761, 0.0185908172085395),
        ]
    )
    d_low = 0.4826544931872873
    d_high = 0.5245841015595548
    loose = partition_carleson(seq, d_low)
    tight = partition_carleson(seq, d_high)
    assert loose.class_count == 3
    assert tight.class_count == 2
    for part, target in ((loose, d_low), (tight, d_high)):
        for cert in part.certificates:
            assert cert.carleson_inf >= target
