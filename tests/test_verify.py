"""Seeded verification suite: reproducibility, witnesses, samplers, config."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from hardyframes import (
    CheckResult,
    ConfigInvalidError,
    InnerFunction,
    PointSequence,
    SuiteConfig,
    carleson_constants,
    evaluate_inner,
    image_gram,
    kernel_matrix,
    projection_phi_H2,
    run_suite,
    suite_passed,
    szego_gram,
)
from hardyframes import verify
from hardyframes.io import suite_report_to_json
from hardyframes.verify import (
    CHECK_IDS,
    DEFAULT_TOLERANCES,
    MIN_SUITE_ORDER,
    POINT_FAMILIES,
    _CHECKS,
    _SANDWICH_RANK,
    _sandwich,
    sample_carleson_separated,
    sample_clustered,
    sample_radial_geometric,
    sample_uniform_disk,
)

SMALL = SuiteConfig(seed=42, trials=4, order=128)

# Witness keys per check, in report order: "trial", the check's own fields, "defect".
WITNESS_KEYS = {
    "toeplitz_covariance": ["trial", "family", "points", "zeros", "monomial_power", "defect"],
    "loewner_chain": [
        "trial", "construction", "points", "zeros", "monomial_power",
        "chain_lower", "chain_upper", "norm_sandwich", "defect",
    ],
    "st_roundtrip": ["trial", "points", "q", "delta", "roundtrip", "min_norm_sq", "defect"],
    "diag_sandwich": [
        "trial", "family", "alpha", "beta", "points", "quad_violation", "gram_violation", "defect",
    ],
    "weighted_hardy": ["trial", "family", "ratio", "points", "defect"],
}


class TestSuiteConfig:
    def test_defaults_validate(self):
        SuiteConfig().validate()

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigInvalidError, match="seed"):
            SuiteConfig(seed=-1).validate()

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigInvalidError):
            SuiteConfig(trials=0).validate()

    def test_rejects_tiny_order(self):
        for order in (4, 64, MIN_SUITE_ORDER - 1):
            with pytest.raises(ConfigInvalidError):
                SuiteConfig(order=order).validate()
        SuiteConfig(order=MIN_SUITE_ORDER).validate()

    def test_rejects_empty_families(self):
        with pytest.raises(ConfigInvalidError, match="'point_families'"):
            SuiteConfig(point_families=()).validate()

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigInvalidError, match="'point_families'"):
            SuiteConfig(point_families=("uniform_disk", "lattice")).validate()

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("tolerances", [1e-6], "tolerances"),
            ("tolerances", 1e-6, "tolerances"),
            ("point_families", "clustered", "point_families"),
            ("point_families", None, "point_families"),
        ],
    )
    def test_rejects_container_of_the_wrong_type(self, field, value, key):
        # no AttributeError from a list's missing .items(), and a string is not read letter by letter
        with pytest.raises(ConfigInvalidError, match=f"^'{key}' must be"):
            SuiteConfig(trials=1, order=128, **{field: value}).validate()

    def test_rejected_tolerance_is_named_by_its_config_key(self):
        with pytest.raises(ConfigInvalidError, match="^'tolerances.st_roundtrip' must be a finite number"):
            SuiteConfig(tolerances={"st_roundtrip": "1e-3"}).validate()

    def test_rejects_unknown_tolerance_key(self):
        with pytest.raises(ConfigInvalidError, match="'bogus' in 'tolerances'"):
            SuiteConfig(tolerances={"bogus": 1e-6}).validate()

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ConfigInvalidError, match="'tolerances.st_roundtrip'"):
            SuiteConfig(tolerances={"st_roundtrip": -1e-6}).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1e-6", True, None])
    def test_rejects_tolerance_that_is_not_a_finite_number(self, value):
        # NaN would disable a check: no defect compares above it
        with pytest.raises(ConfigInvalidError, match="finite number"):
            SuiteConfig(tolerances={"st_roundtrip": value}).validate()

    def test_rejects_tolerance_too_large_for_a_float(self):
        # the CLI rejects the same value; a float() of it would overflow in run_suite
        with pytest.raises(ConfigInvalidError, match="finite number"):
            SuiteConfig(trials=1, order=128, tolerances={"st_roundtrip": 10**400}).validate()
        SuiteConfig(tolerances={"st_roundtrip": sys.float_info.max}).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2.5), ("order", 128.0), ("seed", True), ("trials", True), ("order", "128"), ("seed", 4.0)],
    )
    def test_rejects_counts_that_are_not_integers(self, field, value):
        with pytest.raises(ConfigInvalidError, match=f"{field} must be an integer"):
            SuiteConfig(**{field: value}).validate()

    def test_accepts_numpy_integers(self):
        SuiteConfig(seed=np.int64(3), trials=np.int32(1), order=np.int64(128)).validate()

    def test_zero_tolerance_allowed(self):
        SuiteConfig(tolerances={"st_roundtrip": 0.0}).validate()

    def test_tol_lookup(self):
        cfg = SuiteConfig(tolerances={"st_roundtrip": 1e-3})
        assert cfg.tol("st_roundtrip") == 1e-3
        assert cfg.tol("loewner_chain") == DEFAULT_TOLERANCES["loewner_chain"]


class TestRunSuite:
    def test_small_suite_passes(self):
        results = run_suite(SMALL)
        assert suite_passed(results)
        assert tuple(r.check_id for r in results) == CHECK_IDS
        for r in results:
            assert r.trials == SMALL.trials
            assert r.failures == 0
            assert r.witness is None
            assert r.passed
            assert r.worst_violation < DEFAULT_TOLERANCES[r.check_id]

    def test_deterministic_results(self):
        first = run_suite(SMALL)
        second = run_suite(SuiteConfig(seed=42, trials=4, order=128))
        assert first == second

    def test_report_bytes_identical(self):
        a = json.dumps(suite_report_to_json(SMALL, run_suite(SMALL)), indent=2)
        b = json.dumps(suite_report_to_json(SMALL, run_suite(SMALL)), indent=2)
        assert a == b

    def test_seed_changes_results(self):
        base = run_suite(SMALL)
        other = run_suite(SuiteConfig(seed=43, trials=4, order=128))
        assert [r.worst_violation for r in base] != [r.worst_violation for r in other]

    def test_validates_before_running(self):
        with pytest.raises(ConfigInvalidError):
            run_suite(SuiteConfig(trials=0))

    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_zero_tolerance_produces_failure_and_witness(self, check_id):
        cfg = SuiteConfig(
            seed=42, trials=3, order=128,
            tolerances={key: 0.0 for key in DEFAULT_TOLERANCES},
        )
        bad = _CHECKS[check_id](cfg)
        assert bad.check_id == check_id
        assert bad.failures > 0
        assert not bad.passed
        assert list(bad.witness) == WITNESS_KEYS[check_id]
        assert 0 <= bad.witness["trial"] < cfg.trials
        assert bad.witness["defect"] == bad.worst_violation

    def test_check_table_is_read_at_call_time(self, monkeypatch):
        # timing wrappers replace entries of _CHECKS; run_suite must run them
        assert CHECK_IDS == tuple(_CHECKS)
        cfg = SuiteConfig(seed=42, trials=1, order=128)
        stub = CheckResult("st_roundtrip", cfg.trials, 0, -1.0)
        calls = []

        def stand_in(arg):
            calls.append(arg)
            return stub

        monkeypatch.setitem(_CHECKS, "st_roundtrip", stand_in)
        results = run_suite(cfg)
        assert calls == [cfg]
        assert results[CHECK_IDS.index("st_roundtrip")] is stub
        assert tuple(r.check_id for r in results) == CHECK_IDS

    def test_witness_replays(self):
        # a recorded witness carries everything needed to rerun the trial
        cfg = SuiteConfig(
            seed=42, trials=3, order=128,
            tolerances={"toeplitz_covariance": 0.0},
        )
        results = run_suite(cfg)
        wit = results[CHECK_IDS.index("toeplitz_covariance")].witness
        seq = PointSequence([complex(re, im) for re, im in wit["points"]])
        phi = InnerFunction(
            tuple(complex(re, im) for re, im in wit["zeros"]),
            1.0,
            wit["monomial_power"],
        )
        lhs = image_gram(projection_phi_H2(phi, cfg.order), seq).matrix.matrix
        values = np.array([evaluate_inner(phi, z) for z in seq.points])
        rhs = szego_gram(seq).matrix.matrix * np.outer(values, np.conj(values))
        defect = float(np.abs(lhs - rhs).max())
        assert defect == pytest.approx(wit["defect"], rel=1e-12)

    def test_weighted_zero_ratio_trial_runs(self):
        # every tenth trial pins the weight ratio to zero (rank-one kernel)
        cfg = SuiteConfig(seed=42, trials=10, order=128)
        result = _CHECKS["weighted_hardy"](cfg)
        assert result.passed
        assert result.trials == 10


class TestDiagSandwich:
    """The sandwich check on M = alpha I + U C U*, never formed as an N x N matrix."""

    @staticmethod
    def instance(rng, order=128):
        basis, _ = np.linalg.qr(
            rng.normal(size=(order, _SANDWICH_RANK)) + 1j * rng.normal(size=(order, _SANDWICH_RANK))
        )
        weights = rng.uniform(0.3, 1.0, size=order)
        vectors = rng.normal(size=(order, 16)) + 1j * rng.normal(size=(order, 16))
        seq = PointSequence((0.3, 0.5j, -0.6 + 0.2j, 0.8))
        v = kernel_matrix(seq, order, normalize=True)
        return basis, weights, vectors, v

    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_spectrum_outside_the_bounds_fails(self, end):
        # an eigenvalue of M 1e-3 past beta (or below alpha) is a real
        # violation, far above roundoff
        rng = np.random.default_rng(0)
        alpha, beta = 0.5, 1.5
        basis, weights, vectors, v = self.instance(rng)
        core = rng.uniform(0.0, beta - alpha, size=_SANDWICH_RANK)
        if end == "top":
            core[-1] = beta - alpha + 1e-3
        else:
            core[0] = -1e-3
        out = _sandwich(alpha, beta, weights, basis, core, vectors, v)
        assert out.spectrum_violation == pytest.approx(1e-3, abs=1e-12)
        assert max(out.spectrum_violation, out.quad_violation, out.gram_violation) >= 1e-4

    def test_structured_products_match_dense_operator(self, monkeypatch):
        calls = []

        def spy(*args):
            out = _sandwich(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(verify, "_sandwich", spy)
        cfg = SuiteConfig(seed=42, trials=1, order=128)
        assert _CHECKS["diag_sandwich"](cfg).passed
        (args, out), = calls
        alpha, beta, weights, basis, core, vectors, v = args
        assert basis.shape == (cfg.order, _SANDWICH_RANK)
        # both ends of [alpha, beta] are eigenvalues of M
        assert core.min() == 0.0
        assert core.max() == pytest.approx(beta - alpha, abs=1e-15)

        mid = alpha * np.eye(cfg.order) + (basis * core) @ basis.conj().T
        d_half = np.sqrt(weights)
        p = d_half[:, None] * mid * d_half[None, :]
        forms = np.real(np.einsum("ij,ij->j", np.conj(vectors), p @ vectors))
        np.testing.assert_allclose(out.forms, forms, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(out.gram, v.conj().T @ p @ v, rtol=0.0, atol=1e-12)

    def test_no_eigensolve_larger_than_the_rank(self, eigensolves):
        assert suite_passed(run_suite(SuiteConfig(seed=42, trials=4, order=256)))
        assert eigensolves
        assert max(max(shape) for shape in eigensolves) <= _SANDWICH_RANK

    def test_large_order_runs_in_small_memory(self):
        # one dense 4096 x 4096 complex matrix alone would be 268 MB
        tracemalloc.start()
        try:
            results = run_suite(SuiteConfig(seed=42, trials=1, order=4096))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert suite_passed(results)
        assert peak < 32e6


class TestSamplers:
    def test_uniform_disk(self):
        rng = np.random.default_rng(1)
        pts = sample_uniform_disk(rng, 12, max_modulus=0.8)
        assert len(pts) == 12
        assert len(set(pts)) == 12
        assert max(abs(z) for z in pts) <= 0.8

    def test_radial_geometric_marches_outward(self):
        rng = np.random.default_rng(2)
        pts = sample_radial_geometric(rng, 10, max_modulus=0.9)
        radii = [abs(z) for z in pts]
        assert all(b >= a - 1e-15 for a, b in zip(radii, radii[1:]))
        assert max(radii) <= 0.9 + 1e-15

    def test_carleson_separated_certifies(self):
        rng = np.random.default_rng(3)
        for count in (2, 6, 12):
            pts = sample_carleson_separated(rng, count, min_infimum=0.3)
            report = carleson_constants(PointSequence(tuple(pts)))
            assert report.infimum >= 0.3

    def test_carleson_separated_single_point(self):
        rng = np.random.default_rng(4)
        pts = sample_carleson_separated(rng, 1)
        assert len(pts) == 1
        assert abs(pts[0]) < 1.0

    def test_clustered_stays_inside(self):
        rng = np.random.default_rng(5)
        pts = sample_clustered(rng, 9, max_modulus=0.9)
        assert len(pts) == 9
        assert len(set(pts)) == 9
        assert max(abs(z) for z in pts) <= 0.9

    def test_families_registry_complete(self):
        assert set(POINT_FAMILIES) == {
            "uniform_disk",
            "radial_geometric",
            "carleson_separated",
            "clustered",
        }


def test_check_result_passed_property():
    ok = CheckResult("st_roundtrip", 5, 0, 1e-12)
    bad = CheckResult("st_roundtrip", 5, 2, 1e-3, {"defect": 1e-3})
    assert ok.passed and not bad.passed
