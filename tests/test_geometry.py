"""Disk geometry: metric identities, separation products, input validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyframes import (
    CarlesonReport,
    DuplicatePointError,
    PointSequence,
    carleson_constants,
    pseudo_hyperbolic,
)


def brute_force_products(points):
    """Independent double-loop oracle: plain products, no log space."""
    out = []
    for j, zj in enumerate(points):
        prod = 1.0
        for i, zi in enumerate(points):
            if i == j:
                continue
            prod *= abs(zi - zj) / abs(1.0 - zi.conjugate() * zj)
        out.append(prod)
    return out


disk_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)


def mobius(a, u):
    """Disk automorphism phi_a(u) = (a - u) / (1 - conj(a) u)."""
    return (a - u) / (1.0 - a.conjugate() * u)


class TestDiskPoint:
    """Points of the open disk, as ``PointSequence`` admits them."""

    def test_interior_accepted(self):
        seq = PointSequence((0.3 + 0.4j,))
        assert seq.points == (0.3 + 0.4j,)
        assert seq.max_modulus() == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.0 + 0j, 0.8 + 0.7j, 2.0j])
    def test_boundary_and_exterior_rejected(self, bad):
        with pytest.raises(ValueError, match="open unit disk"):
            PointSequence((bad,))

    def test_sequence_rejects_outside_points(self):
        with pytest.raises(ValueError):
            PointSequence((0.1, 1.0))

    @pytest.mark.parametrize("bad", [complex("nan"), complex(0.1, float("nan")), complex("inf")])
    def test_sequence_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="not a finite complex number"):
            PointSequence((0.1, bad))

    def test_sequence_needs_points(self):
        with pytest.raises(ValueError):
            PointSequence(())

    def test_sequence_labels_default_and_validate(self):
        seq = PointSequence((0.1, 0.2j))
        assert seq.labels == (0, 1)
        with pytest.raises(ValueError):
            PointSequence((0.1, 0.2j), labels=(3,))
        with pytest.raises(ValueError):
            PointSequence((0.1, 0.2j), labels=(7, 7))


class TestPseudoHyperbolic:
    def test_distance_to_origin_is_modulus(self):
        assert pseudo_hyperbolic(0, 0.5) == pytest.approx(0.5)
        assert pseudo_hyperbolic(0.3j, 0) == pytest.approx(0.3)

    def test_hand_computed_pair(self):
        # |0.8 - 0.5| / |1 - 0.5 * 0.8| = 0.3 / 0.6
        assert pseudo_hyperbolic(0.5, 0.8) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            d = pseudo_hyperbolic(z, w)
            assert d == pytest.approx(pseudo_hyperbolic(w, z), rel=1e-14)
            assert 0.0 <= d < 1.0

    @given(a=disk_points, u=disk_points)
    @settings(max_examples=100, deadline=None)
    def test_distance_is_modulus_after_mobius(self, a, u):
        # rho(a, u) = |phi_a(u)|: the metric through an independent route
        assert pseudo_hyperbolic(a, u) == pytest.approx(abs(mobius(a, u)), abs=1e-12)


class TestMobius:
    @given(a=disk_points, z=disk_points, w=disk_points)
    @settings(max_examples=100, deadline=None)
    def test_metric_invariance(self, a, z, w):
        direct = pseudo_hyperbolic(z, w)
        moved = pseudo_hyperbolic(mobius(a, z), mobius(a, w))
        assert moved == pytest.approx(direct, abs=1e-12)


class TestCarlesonConstants:
    def test_three_point_example(self):
        report = carleson_constants(PointSequence((0, 0.5, 0.8)))
        # rho pairs: (0,.5)=.5, (0,.8)=.8, (.5,.8)=.5
        assert report.per_index_products == pytest.approx((0.4, 0.25, 0.4), abs=1e-14)
        assert report.infimum == pytest.approx(0.25, abs=1e-14)
        assert report.clamped == ()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            pts = tuple(
                complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) * 0.7 for _ in range(n)
            )
            seq = PointSequence(pts)
            report = carleson_constants(seq)
            oracle = brute_force_products(list(seq.points))
            assert np.allclose(report.per_index_products, oracle, rtol=1e-12, atol=1e-300)
            assert report.infimum == pytest.approx(min(oracle), rel=1e-12)

    def test_singleton(self):
        report = carleson_constants(PointSequence((0.5,)))
        assert report.per_index_products == (1.0,)
        assert report.infimum == 1.0

    def test_duplicate_raises(self):
        with pytest.raises(DuplicatePointError):
            carleson_constants(PointSequence((0.1, 0.5, 0.1)))

    def test_underflow_clamps_to_zero_with_flag(self):
        # 260 points crammed into a cluster: each log-product is far below -700
        rng = np.random.default_rng(3)
        base = rng.uniform(0.0, 2 * np.pi, size=260)
        pts = tuple(1e-5 * np.exp(1j * t) * (1 + k * 1e-9) for k, t in enumerate(base))
        report = carleson_constants(PointSequence(pts))
        assert report.clamped
        for idx in report.clamped:
            assert report.per_index_products[idx] == 0.0
        assert report.infimum == 0.0

    def test_infimum_monotone_under_append(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(5)]
            inf_before = carleson_constants(PointSequence(tuple(pts))).infimum
            pts.append(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
            inf_after = carleson_constants(PointSequence(tuple(pts))).infimum
            assert inf_after <= inf_before + 1e-12

    def test_satisfied_threshold_echoed(self):
        report = carleson_constants(PointSequence((0, 0.5, 0.8)), delta=0.2)
        assert report.satisfied_at == 0.2
        assert report.satisfied
        assert not carleson_constants(PointSequence((0, 0.5, 0.8)), delta=0.3).satisfied


class TestSeparationConstant:
    def test_report_type(self):
        assert isinstance(carleson_constants(PointSequence((0.1, 0.2))), CarlesonReport)
