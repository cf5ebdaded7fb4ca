"""Hermitian numerics against a from-scratch inertia-bisection oracle.

The oracle computes extreme eigenvalues by bisection on the inertia of
H - x I, counted via the pivots of plain Gaussian elimination (Sylvester's
law). It shares no code path with the LAPACK-backed implementation.
"""

import tracemalloc

import numpy as np
import pytest

from hardyframes import (
    DimensionMismatchError,
    EigenExtremes,
    HermitianMatrix,
    NonHermitianError,
    NotPSDError,
    eig_extremes,
    psd_sqrt,
)
from hardyframes.hermitian import SYMMETRIZE_BLOCK, psd_inverse

B = SYMMETRIZE_BLOCK


def _pivot_negatives(h, x):
    """Count eigenvalues of h below x via elimination pivots; None if a pivot
    degenerates (caller retries at a jittered shift)."""
    n = len(h)
    a = [[complex(h[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] -= x
    negatives = 0
    for k in range(n):
        pivot = a[k][k].real
        if abs(pivot) < 1e-13:
            return None
        if pivot < 0.0:
            negatives += 1
        for i in range(k + 1, n):
            ratio = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= ratio * a[k][j]
    return negatives


def _count_below(h, x):
    for jitter in (0.0, 3e-13, -3e-13, 1.7e-12, -1.7e-12):
        count = _pivot_negatives(h, x + jitter)
        if count is not None:
            return count
    raise AssertionError("oracle could not find a regular shift")


def oracle_extreme_eigs(h):
    """(lambda_min, lambda_max) by inertia bisection, to ~1e-11 absolute."""
    h = [[complex(v) for v in row] for row in np.asarray(h)]
    n = len(h)
    radius = max(
        sum(abs(h[i][j]) for j in range(n)) for i in range(n)
    )
    lo, hi = -radius - 1.0, radius + 1.0
    # lambda_min: smallest x with count_below(x) >= 1
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if _count_below(h, mid) >= 1:
            b = mid
        else:
            a = mid
    lam_min = 0.5 * (a + b)
    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if _count_below(h, mid) >= n:
            b = mid
        else:
            a = mid
    lam_max = 0.5 * (a + b)
    return lam_min, lam_max


def random_hermitian(rng, n, scale=1.0):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (raw + raw.conj().T) / 2.0


class TestHermitianMatrix:
    def test_symmetrizes_small_defect(self):
        m = np.array([[1.0, 0.5 + 1e-10j], [0.5, 2.0]])
        h = HermitianMatrix(m)
        assert np.abs(h.matrix - h.matrix.conj().T).max() == 0.0

    # n = B - 1, B, B + 1 and 2B + 1 put the edges of the symmetrizing blocks in play
    @pytest.mark.parametrize("n", [1, 5, 64, B - 1, B, B + 1, 2 * B + 1])
    def test_stores_exactly_half_the_sum_with_its_adjoint(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = a @ a.conj().T
        m += 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # signed zeros and subnormals on the diagonal and in mirrored pairs
        signs = (-0.0, 0.0, 5e-324, -1e-310)
        tiny = [complex(re, im) for re in signs for im in signs]
        m[np.diag_indices(n)] = (tiny * n)[:n]
        upper = zip(*np.triu_indices(n, 1))
        for (i, j), (s, t) in zip(upper, ((s, t) for s in tiny for t in tiny)):
            m[i, j], m[j, i] = s, t
        h = HermitianMatrix(m).matrix
        assert h.tobytes() == np.ascontiguousarray((m + m.conj().T) / 2.0).tobytes()
        assert h.flags.c_contiguous

    def test_construction_memory_peak(self):
        n = 600
        rng = np.random.default_rng(600)
        a = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        m = a @ a.conj().T
        tracemalloc.start()
        try:
            HermitianMatrix(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m.nbytes

    def test_rejects_large_defect(self):
        with pytest.raises(NonHermitianError):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("at", [(B + 5, 3), (2 * B, B + 1), (2 * B, 2 * B)])
    def test_rejects_a_defect_in_one_block(self, at):
        """A defect only in a block below the diagonal or in the last partial block is seen."""
        m = random_hermitian(np.random.default_rng(8), 2 * B + 1)
        m[at] += 1e-6j
        with pytest.raises(NonHermitianError):
            HermitianMatrix(m)

    @pytest.mark.parametrize("defect_at,nan_at", [((1, 0), (2 * B, 2 * B - 1)), ((2 * B, B), (0, 1))])
    def test_non_finite_wins_over_defect_in_another_block(self, defect_at, nan_at):
        m = random_hermitian(np.random.default_rng(9), 2 * B + 1)
        m[defect_at] += 1.0
        m[nan_at] = np.nan
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(3, dtype=np.complex128)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(m)

    @pytest.mark.parametrize(
        "m",
        [
            [[1e308, 0.0], [0.0, 1e308]],
            [[1.0, 1e308j], [-1e308j, 1.0]],
            [[1.0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1.0]],
            [[0.0, 1.5e308 + 1.5e308j], [0.0, 0.0]],  # |H_01| = inf: the relative defect test is void
        ],
        ids=["diagonal", "off-diagonal", "modulus-overflows", "modulus-overflows-non-hermitian"],
    )
    def test_rejects_a_half_sum_or_modulus_that_overflows(self, m):
        with pytest.raises(ValueError, match=r"too large: \|H_ij\| or \(H \+ H\*\) / 2 overflows"):
            HermitianMatrix(m)

    def test_keeps_huge_entries_whose_half_sum_is_finite(self):
        m = np.array([[0.8e308, 0.0], [0.0, 1.0]])
        assert HermitianMatrix(m).matrix.tobytes() == m.astype(np.complex128).tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            HermitianMatrix(np.zeros((2, 3)))


class TestEigExtremes:
    def test_identity(self):
        ext = eig_extremes(np.eye(3))
        assert ext.lambda_min == pytest.approx(1.0)
        assert ext.lambda_max == pytest.approx(1.0)
        assert ext.smallest_above == pytest.approx(1.0)

    def test_all_ones_two_by_two(self):
        ext = eig_extremes(np.ones((2, 2)))
        assert ext.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert ext.lambda_max == pytest.approx(2.0)
        # the zero mode sits below the rank cutoff
        assert ext.smallest_above == pytest.approx(2.0)

    def test_rank_cutoff_example(self):
        ext = eig_extremes(np.diag([2.0, 1e-12]), rank_tol=1e-10)
        assert ext.lambda_min == pytest.approx(1e-12, rel=1e-6)
        assert ext.smallest_above == pytest.approx(2.0)

    def test_zero_matrix_falls_back(self):
        ext = eig_extremes(np.zeros((3, 3)))
        assert ext.lambda_min == 0.0
        assert ext.smallest_above == 0.0

    def test_against_inertia_oracle(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 8):
            for _ in range(6):
                h = random_hermitian(rng, n, scale=float(rng.uniform(0.1, 5.0)))
                ext = eig_extremes(h)
                lam_min, lam_max = oracle_extreme_eigs(h)
                scale = max(1.0, abs(lam_max))
                assert abs(ext.lambda_min - lam_min) <= 1e-9 * scale
                assert abs(ext.lambda_max - lam_max) <= 1e-9 * scale
                assert ext.lambda_min <= ext.smallest_above <= ext.lambda_max + 1e-15

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 6)
        first = eig_extremes(h)
        second = eig_extremes(h.copy())
        assert first == second
        assert isinstance(first, EigenExtremes)


class TestPsdSqrt:
    def test_diagonal_exact(self):
        s = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(s.matrix, np.diag([2.0, 3.0]))

    def test_multiply_back(self):
        rng = np.random.default_rng(17)
        for n in (2, 5, 16, 64):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = raw @ raw.conj().T
            lam_max = float(np.linalg.eigvalsh(h)[-1])
            s = psd_sqrt(h).matrix
            assert np.abs(s @ s - h).max() <= 1e-9 * max(1.0, lam_max)
            # the root is itself PSD
            assert float(np.linalg.eigvalsh(s)[0]) >= -1e-12 * max(1.0, lam_max)

    def test_negative_noise_clipped(self):
        h = np.diag([1.0, -5e-11])
        s = psd_sqrt(h).matrix
        assert s[1, 1].real == 0.0

    def test_genuinely_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1e-3]))

    def test_monotone_on_commuting_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = rng.uniform(0.0, 2.0, size=5)
            b = a + rng.uniform(0.0, 1.0, size=5)
            sa = psd_sqrt(np.diag(a)).matrix
            sb = psd_sqrt(np.diag(b)).matrix
            assert float(np.linalg.eigvalsh(sb - sa)[0]) >= -1e-12


class TestPsdInverse:
    def test_multiply_back(self):
        rng = np.random.default_rng(41)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = raw @ raw.conj().T + np.eye(6)
        assert np.abs(psd_inverse(h) @ h - np.eye(6)).max() <= 1e-12

    @pytest.mark.parametrize("h", [np.diag([2.0, 0.0]), np.zeros((3, 3))], ids=["rank-one", "zero"])
    def test_singular_psd_rejected(self, h):
        # PSD, so the Hermitian gate admits it, but lambda_min = 0 has no inverse
        with pytest.raises(NotPSDError, match="cannot invert: lambda_min = 0.000e\\+00"):
            psd_inverse(h)


def test_principal_submatrix_interlacing():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = 7
        h = random_hermitian(rng, n)
        ext = eig_extremes(h)
        keep = sorted(rng.choice(n, size=4, replace=False))
        sub = h[np.ix_(keep, keep)]
        sub_ext = eig_extremes(sub)
        assert sub_ext.lambda_min >= ext.lambda_min - 1e-12
        assert sub_ext.lambda_max <= ext.lambda_max + 1e-12
