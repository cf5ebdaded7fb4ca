"""Frame constant classification and diagonal congruence."""

import numpy as np
import pytest

from hardyframes import (
    BoundsReport,
    NotPSDError,
    PointSequence,
    SingularDiagonalError,
    analyze,
    congruence_diag,
    eig_extremes,
    szego_gram,
)


class TestAnalyze:
    def test_identity_gram(self):
        rep = analyze(np.eye(4))
        assert rep.bessel_B == pytest.approx(1.0)
        assert rep.riesz_c == pytest.approx(1.0)
        assert rep.frame_A == pytest.approx(1.0)
        assert rep.lower_norm_delta == pytest.approx(1.0)
        assert rep.is_bessel and rep.is_bounded_below
        assert rep.is_riesz and rep.is_frame

    def test_two_point_gram_bounds(self):
        rep = analyze(szego_gram(PointSequence([0.0, 0.6])))
        assert rep.riesz_c == pytest.approx(0.2, abs=1e-12)
        assert rep.bessel_B == pytest.approx(1.8, abs=1e-12)
        assert rep.frame_A == pytest.approx(0.2, abs=1e-12)
        assert rep.is_riesz and rep.is_frame

    def test_duplicated_point_frame_not_riesz(self):
        # repeating a member kills one eigenvalue but not the frame bound
        g = szego_gram(PointSequence([0.5, 0.5]))
        rep = analyze(g)
        assert rep.riesz_c == pytest.approx(0.0, abs=1e-12)
        assert rep.frame_A == pytest.approx(2.0, abs=1e-12)
        assert not rep.is_riesz
        assert rep.is_frame
        assert rep.is_bounded_below  # unit norms stay far above the cutoff

    def test_riesz_implies_frame(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            rep = analyze(a @ a.conj().T)
            assert rep.riesz_c <= rep.frame_A + 1e-12
            if rep.is_riesz:
                assert rep.is_frame

    def test_tolerance_threshold(self):
        rep_loose = analyze(np.diag([1.0, 1e-6]), riesz_tol=1e-8)
        rep_tight = analyze(np.diag([1.0, 1e-6]), riesz_tol=1e-4)
        assert rep_loose.is_riesz
        assert not rep_tight.is_riesz
        assert rep_loose.riesz_c == rep_tight.riesz_c

    @pytest.mark.parametrize("riesz_tol", [0.0, -1.0])
    def test_rejects_a_riesz_tol_that_is_not_positive(self, riesz_tol):
        # riesz_c >= 0, so such a tolerance would call a repeated point Riesz
        with pytest.raises(ValueError, match="riesz_tol"):
            analyze(np.ones((2, 2)), riesz_tol=riesz_tol)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            analyze(np.diag([1.0, -0.5]))

    def test_rank_tol_does_not_loosen_the_psd_gate(self):
        with pytest.raises(NotPSDError):
            analyze(np.diag([1.0, -1e-8]), rank_tol=1e-6)

    def test_report_carries_tolerances(self):
        rep = analyze(np.eye(2), riesz_tol=1e-5, rank_tol=1e-9)
        assert isinstance(rep, BoundsReport)
        assert rep.riesz_tol == 1e-5
        assert rep.rank_tol == 1e-9

    def test_zero_member_not_bounded_below(self):
        rep = analyze(np.diag([1.0, 0.0]))
        assert rep.lower_norm_delta == 0.0
        assert not rep.is_bounded_below


class TestCongruenceDiag:
    def test_scales_bounds_within_spread(self):
        g = szego_gram(PointSequence([0.1, 0.4, -0.3j]))
        d = np.array([2.0, 0.5, 1.0])
        out = congruence_diag(g, d)
        before = eig_extremes(g.matrix)
        after = eig_extremes(out.matrix)
        lo, hi = float(np.min(np.abs(d)) ** 2), float(np.max(np.abs(d)) ** 2)
        assert after.lambda_min >= lo * before.lambda_min - 1e-12
        assert after.lambda_max <= hi * before.lambda_max + 1e-12

    def test_matrix_entries(self):
        g = szego_gram(PointSequence([0.2, 0.5]))
        d = np.array([1.0 + 1.0j, 2.0])
        out = congruence_diag(g, d).matrix.matrix
        want = g.matrix.matrix * np.outer(d, np.conj(d))
        assert np.abs(out - want).max() < 1e-14

    def test_unimodular_preserves_normalization(self):
        g = szego_gram(PointSequence([0.2, 0.5]))
        phases = np.exp(1j * np.array([0.3, -1.2]))
        assert congruence_diag(g, phases).normalized
        assert not congruence_diag(g, [2.0, 1.0]).normalized

    def test_records_transform(self):
        g = szego_gram(PointSequence([0.2, 0.5]))
        out = congruence_diag(g, [1.0, 1.0])
        assert out.provenance.transform == "diag_congruence"
        again = congruence_diag(out, [1.0, 1.0])
        assert again.provenance.transform == "diag_congruence;diag_congruence"

    def test_zero_entry_rejected(self):
        g = szego_gram(PointSequence([0.2, 0.5]))
        with pytest.raises(SingularDiagonalError):
            congruence_diag(g, [1.0, 0.0])

    def test_length_mismatch(self):
        g = szego_gram(PointSequence([0.2, 0.5]))
        with pytest.raises(ValueError):
            congruence_diag(g, [1.0, 1.0, 1.0])


class TestCompress:
    """The Grammian of a subsequence is the principal block of the full
    Grammian, with labels and points carried along."""

    def test_selects_principal_block(self):
        seq = PointSequence([0.1, 0.4, -0.3j], labels=(7, 8, 9))
        g = szego_gram(seq)
        sub = szego_gram(seq.subsequence([2, 0]))
        assert sub.labels == (9, 7)
        assert sub.provenance.points == (-0.3j, 0.1)
        full = g.matrix.matrix
        assert sub.matrix.matrix[0, 1] == pytest.approx(full[2, 0])

    def test_interlacing(self):
        # eigenvalues of a principal block sit inside the full spread
        seq = PointSequence([0.1, 0.4, -0.3j, 0.6, 0.2 + 0.5j])
        full = eig_extremes(szego_gram(seq).matrix)
        sub = eig_extremes(szego_gram(seq.subsequence([0, 2, 4])).matrix)
        assert sub.lambda_min >= full.lambda_min - 1e-12
        assert sub.lambda_max <= full.lambda_max + 1e-12

    def test_bounds_never_worsen_under_compression(self):
        seq = PointSequence([0.3, -0.5, 0.2j, 0.7])
        rep_full = analyze(szego_gram(seq))
        rep_sub = analyze(szego_gram(seq.subsequence([0, 3])))
        assert rep_sub.riesz_c >= rep_full.riesz_c - 1e-12
        assert rep_sub.bessel_B <= rep_full.bessel_B + 1e-12

    def test_empty_selection(self):
        seq = PointSequence([0.2, 0.5])
        with pytest.raises(ValueError, match="at least one point"):
            seq.subsequence([])
