"""End-to-end command line tests: exit codes, outputs, config overlay."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardyframes.kernels
import hardyframes.partition
from hardyframes import PointSequence, cli, partition_carleson, partition_spectral, szego_gram
from hardyframes.cli import main
from hardyframes.io import matrix_from_json, matrix_to_json, partition_csv_lines, partition_to_json
from hardyframes.partition import modulus_order
from hardyframes.operators import OPERATOR_KINDS, PositiveOperator, from_spec, st_construct
from test_partition import mixed_points, reference_spectral


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_points(tmp_path, pts, name="points.json"):
    return write_json(tmp_path / name, [[z.real, z.imag] for z in map(complex, pts)])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def ring(count, radius=0.6):
    return [radius * np.exp(2j * np.pi * k / count) for k in range(count)]


class TestGram:
    def test_basic_szego(self, tmp_path, capsys):
        pts = write_points(tmp_path, [0.0, 0.6])
        out = tmp_path / "gram.json"
        assert main(["gram", "--points", pts, "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["grammian"]["matrix"]["dim"] == 2
        assert payload["bounds"]["riesz_c"] == pytest.approx(0.2, abs=1e-12)
        assert payload["bounds"]["bessel_B"] == pytest.approx(1.8, abs=1e-12)
        assert payload["grammian"]["provenance"]["space"] == "H2"
        assert "gram dim=2" in capsys.readouterr().out

    def test_csv_dump(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6])
        csv = tmp_path / "gram.csv"
        assert main(["gram", "--points", pts, "--csv", str(csv)]) == 0
        lines = csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_range_space_operator(self, tmp_path):
        pts = write_points(tmp_path, [0.5, -0.4])
        spec = write_json(
            tmp_path / "op.json", {"type": "projection_monomial", "excluded": [0]}
        )
        out = tmp_path / "gram.json"
        rc = main(["gram", "--points", pts, "--operator", spec, "--N", "64", "--out", str(out)])
        assert rc == 0
        payload = read_json(out)
        assert payload["grammian"]["provenance"]["space"] == "H(P)"
        assert payload["grammian"]["normalized"] is True

    def test_riesz_tol_flag_lands_in_report(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6])
        out = tmp_path / "gram.json"
        assert main(["gram", "--points", pts, "--riesz-tol", "0.5", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["bounds"]["riesz_tol"] == 0.5
        assert payload["bounds"]["is_riesz"] is False  # 0.2 < 0.5

    def test_riesz_tol_that_is_not_positive_is_input_error(self, tmp_path, capsys):
        # a repeated point is not Riesz; a tolerance of -1 would call it Riesz
        pts = write_json(tmp_path / "points.json", [[0.1, 0.2], [0.1, 0.2], [0.3, -0.1]])
        cfg = write_json(tmp_path / "cfg.json", {"riesz_tol": -1})
        for extra in (["--riesz-tol", "-1"], ["--riesz-tol", "0"], ["--config", cfg]):
            assert main(["gram", "--points", pts, *extra]) == 2, extra
            captured = capsys.readouterr()
            assert "riesz_tol" in captured.err and captured.out == ""

    def test_config_overlay_and_flag_priority(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6])
        cfg = write_json(tmp_path / "cfg.json", {"points": pts, "riesz_tol": 0.5})
        out = tmp_path / "a.json"
        assert main(["gram", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out)["bounds"]["riesz_tol"] == 0.5
        out2 = tmp_path / "b.json"
        assert main(["gram", "--config", cfg, "--riesz-tol", "0.01", "--out", str(out2)]) == 0
        assert read_json(out2)["bounds"]["riesz_tol"] == 0.01

    def test_missing_points_is_input_error(self):
        assert main(["gram"]) == 2

    def test_nonexistent_file_is_input_error(self, tmp_path):
        assert main(["gram", "--points", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["gram", "--points", str(bad)]) == 2

    def test_point_outside_disk_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, [0.5, 1.2])
        assert main(["gram", "--points", pts]) == 2

    def test_nan_point_is_input_error(self, tmp_path, capsys):
        pts = write_json(tmp_path / "points.json", [[0.5, 0.0], [float("nan"), 0.0]])
        assert main(["gram", "--points", pts]) == 2
        captured = capsys.readouterr()
        assert "not a finite complex number" in captured.err
        assert captured.out == ""

    def test_nan_in_custom_operator_is_input_error(self, tmp_path, capsys):
        pts = write_points(tmp_path, [0.5, -0.4])
        m = matrix_to_json(np.eye(4))
        m["entries"][5] = [float("nan"), 0.0]
        spec = write_json(tmp_path / "op.json", {"type": "custom", "matrix": m})
        assert main(["gram", "--points", pts, "--operator", spec, "--N", "4"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_degenerate_kernel_is_domain_error(self, tmp_path):
        # the operator kills the kernel at the origin: a numerical domain
        # failure (exit 3), not an input problem
        pts = write_points(tmp_path, [0.0, 0.5])
        spec = write_json(
            tmp_path / "op.json", {"type": "projection_monomial", "excluded": [0]}
        )
        assert main(["gram", "--points", pts, "--operator", spec, "--N", "32"]) == 3

    @pytest.mark.parametrize(
        "spec,flags",
        [
            ({"type": "diagonal", "weights": [1.0, 0.5, 0.25], "N": 400}, []),
            ({"type": "diagonal", "weights": [0.5**k for k in range(512)]}, ["--N", "64"]),
            ({"type": "custom", "matrix": matrix_to_json(np.eye(6)), "N": 8}, []),
            ({"type": "custom", "matrix": matrix_to_json(np.eye(6))}, ["--N", "999"]),
        ],
        ids=["diagonal-spec-N", "diagonal-flag-N", "custom-spec-N", "custom-flag-N"],
    )
    def test_mismatched_order_is_input_error(self, tmp_path, capsys, spec, flags):
        pts = write_points(tmp_path, [0.5, -0.4])
        path = write_json(tmp_path / "op.json", spec)
        assert main(["gram", "--points", pts, "--operator", path, *flags]) == 2
        captured = capsys.readouterr()
        sizes = (spec.get("N") or int(flags[1]), len(spec["weights"]) if "weights" in spec else 6)
        assert f"N={sizes[0]} " in captured.err and f"order {sizes[1]}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spec,flags,message",
        [
            ({"type": "projection_monomial", "excluded": [600]}, ["--N", "512"], "monomial index 600 outside [0, 512)"),
            ({"type": "diagonal", "weights": [1, -0.5]}, [], "weight p[1] = -0.5 is negative"),
        ],
        ids=["monomial-index-out-of-range", "negative-diagonal-weight"],
    )
    def test_bad_operator_spec_is_input_error(self, tmp_path, capsys, spec, flags, message):
        pts = write_points(tmp_path, [0.5, -0.4])
        path = write_json(tmp_path / "op.json", spec)
        assert main(["gram", "--points", pts, "--operator", path, *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_matching_or_absent_order_keeps_the_operator(self, tmp_path):
        pts = write_points(tmp_path, [0.5, -0.4])
        for extra, flags in (({}, []), ({"N": 6}, []), ({}, ["--N", "6"])):
            spec = write_json(tmp_path / "op.json", {"type": "custom", "matrix": matrix_to_json(np.eye(6)), **extra})
            assert main(["gram", "--points", pts, "--operator", spec, *flags]) == 0

    def test_linalg_error_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, but it is not an input problem
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        pts = write_points(tmp_path, [0.0, 0.6])
        assert main(["gram", "--points", pts]) == 3
        assert "did not converge" in capsys.readouterr().err


class TestValidateOnce:
    """Grammians are PSD by construction; each command eigensolves what it reports."""

    def test_gram_makes_one_solve(self, tmp_path, eigensolves):
        pts = write_points(tmp_path, ring(5, 0.6))
        assert main(["gram", "--points", pts]) == 0
        assert eigensolves == [(5, 5)]

    def test_gram_with_operator_makes_one_n_by_n_solve(self, tmp_path, eigensolves):
        # the operator's own PSD check solves its 3x3 core, not an N x N matrix
        pts = write_points(tmp_path, ring(5, 0.6))
        inner = {"zeros": [[0.5, 0.0], [0.0, -0.4]], "m": 1}
        spec = write_json(tmp_path / "op.json", {"type": "projection_phiH2", "N": 64, "inner": inner})
        assert main(["gram", "--points", pts, "--operator", spec]) == 0
        assert eigensolves == [(3, 3), (5, 5)]

    @staticmethod
    def assert_one_stack_per_class_size(tmp_path, eigensolves, strategy, flag):
        # every class is solved once, inside the one (m, k, k) stack of its size k
        rng = np.random.default_rng(8)
        pts = write_points(tmp_path, [complex(*p) for p in rng.uniform(-0.6, 0.6, size=(12, 2))])
        out = tmp_path / "part.json"
        argv = ["partition", "--points", pts, "--strategy", strategy, flag, "0.3"]
        assert main(argv + ["--out", str(out)]) == 0
        sizes = sorted(len(c) for c in read_json(out)["classes"])
        assert len(set(sizes)) > 1
        assert all(len(shape) == 3 and shape[1] == shape[2] for shape in eigensolves)
        assert len({shape[-1] for shape in eigensolves}) == len(eigensolves)
        assert sorted(k for m, k, _ in eigensolves for _ in range(m)) == sizes

    def test_carleson_partition_solves_once_per_class(self, tmp_path, eigensolves):
        self.assert_one_stack_per_class_size(tmp_path, eigensolves, "carleson", "--delta-target")

    def test_spectral_partition_solves_once_per_class(self, tmp_path, eigensolves):
        self.assert_one_stack_per_class_size(tmp_path, eigensolves, "spectral", "--c-target")


class TestPartition:
    def test_carleson_writes_report_and_csv(self, tmp_path, capsys):
        pts = write_points(tmp_path, ring(6, 0.8))
        out = tmp_path / "part.json"
        csv = tmp_path / "part.csv"
        rc = main(
            [
                "partition", "--points", pts, "--strategy", "carleson",
                "--delta-target", "0.3", "--out", str(out), "--csv", str(csv),
            ]
        )
        assert rc == 0
        payload = read_json(out)
        assert payload["strategy"] == "carleson_greedy"
        assert payload["targets"] == {"delta_target": 0.3}
        covered = sorted(lab for cls in payload["classes"] for lab in cls)
        assert covered == list(range(6))
        for cert in payload["certificates"]:
            assert cert["carleson_inf"] >= 0.3
        lines = csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "label,class,modulus,argument"
        assert len(lines) == 7
        assert "certified=True" in capsys.readouterr().out

    def test_spectral(self, tmp_path):
        pts = write_points(tmp_path, ring(5, 0.7))
        out = tmp_path / "part.json"
        rc = main(
            ["partition", "--points", pts, "--strategy", "spectral",
             "--c-target", "0.2", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        assert payload["strategy"] == "spectral_greedy"
        for cert in payload["certificates"]:
            assert cert["lambda_min"] >= 0.2
            assert cert["carleson_inf"] is None

    def test_sort_by_modulus_accepted(self, tmp_path):
        pts = write_points(tmp_path, [0.8, 0.1, 0.12])
        out = tmp_path / "part.json"
        rc = main(
            ["partition", "--points", pts, "--strategy", "carleson",
             "--delta-target", "0.5", "--sort-by-modulus", "--out", str(out)]
        )
        assert rc == 0
        assert read_json(out)["classes"] == [[1, 0], [2]]

    @pytest.mark.parametrize("strategy", ["carleson", "spectral"])
    def test_sort_by_modulus_is_the_library_on_the_sorted_sequence(self, tmp_path, strategy):
        z = mixed_points(np.random.default_rng(43), 80)
        pts = write_points(tmp_path, z)
        out, csv = tmp_path / "part.json", tmp_path / "part.csv"
        argv = ["partition", "--points", pts, "--strategy", strategy, "--out", str(out), "--csv", str(csv)]
        assert main(argv + ["--sort-by-modulus"]) == 0
        seq = PointSequence(list(z))
        ordered = seq.subsequence(modulus_order(z))
        if strategy == "carleson":
            want = partition_carleson(ordered, 0.1)
        else:
            want = partition_spectral(ordered, 0.1)
        assert read_json(out) == json.loads(json.dumps(partition_to_json(want)))
        assert csv.read_text(encoding="utf-8").splitlines() == partition_csv_lines(seq, want)

    @pytest.mark.parametrize("labels,named", [(None, "0 and 2"), ([7, 3, 9], "7 and 9")])
    def test_sorted_duplicates_are_named_by_label(self, tmp_path, capsys, labels, named):
        pairs = [[0.5, 0.0], [0.1, 0.0], [0.5, 0.0]]
        pts = write_json(tmp_path / "points.json", pairs if labels is None else {"points": pairs, "labels": labels})
        rc = main(["partition", "--points", pts, "--strategy", "carleson", "--sort-by-modulus"])
        assert rc == 3
        assert f"points {named} coincide" in capsys.readouterr().err

    def test_missing_strategy_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, [0.1, 0.5])
        assert main(["partition", "--points", pts]) == 2

    def test_takes_no_truncation_order(self, tmp_path):
        # neither strategy truncates: --N is unknown, and a shared config's N is ignored
        pts = write_points(tmp_path, [0.1, 0.5])
        argv = ["partition", "--points", pts, "--strategy", "carleson"]
        assert main(argv + ["--N", "5"]) == 2
        assert main(argv + ["--config", write_json(tmp_path / "cfg.json", {"N": 5.5})]) == 0

    def test_duplicate_points_is_domain_error(self, tmp_path):
        pts = write_points(tmp_path, [0.5, 0.5])
        rc = main(["partition", "--points", pts, "--strategy", "carleson"])
        assert rc == 3

    def test_bad_target_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, [0.1, 0.5])
        rc = main(
            ["partition", "--points", pts, "--strategy", "carleson", "--delta-target", "1.5"]
        )
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("strategy,flag", [("spectral", "--c-target"), ("carleson", "--delta-target")])
    def test_non_finite_target_is_input_error(self, tmp_path, capsys, strategy, flag, value):
        pts = write_points(tmp_path, [0.1, 0.5])
        assert main(["partition", "--points", pts, "--strategy", strategy, flag, value]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spectral_target_one_is_all_singletons(self, tmp_path):
        pts = write_points(tmp_path, ring(5, 0.7))
        out = tmp_path / "part.json"
        rc = main(["partition", "--points", pts, "--strategy", "spectral", "--c-target", "1.0", "--out", str(out)])
        assert rc == 0
        assert read_json(out)["classes"] == [[k] for k in range(5)]

    def test_spectral_target_at_a_class_lambda_min_is_not_exit_4(self, tmp_path):
        rng = np.random.default_rng(29)
        z = 0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        pts = write_points(tmp_path, z)
        out = tmp_path / "part.json"
        argv = ["partition", "--points", pts, "--strategy", "spectral", "--out", str(out)]
        assert main(argv + ["--c-target", "0.3"]) == 0
        tie = min(c["lambda_min"] for c in read_json(out)["certificates"] if c["size"] > 1)
        assert main(argv + ["--c-target", repr(tie)]) == 0
        assert min(c["lambda_min"] for c in read_json(out)["certificates"]) >= tie

    @pytest.mark.parametrize("strategy", ["carleson", "spectral"])
    def test_certificate_miss_is_exit_4(self, tmp_path, monkeypatch, capsys, strategy):
        """Exit 4 reads the recomputed certificates, not the greedy's state.

        The greedy is made to admit points its certificates refuse. Carleson
        gets a negative margin. A negative Schur margin would admit a
        negative slack, whose square root fails, so the spectral greedy's
        streamed rows are halved instead: it then sees 0.5 (G + I), whose
        blocks all clear c = 0.3, while the certificates see G.
        """
        if strategy == "carleson":
            monkeypatch.setattr(hardyframes.partition, "_LOG_MARGIN", -1.0)
        else:

            def halved(*args, **kwargs):
                entries = hardyframes.kernels._szego_entries(*args, **kwargs)
                entries *= 0.5
                return entries

            monkeypatch.setattr(hardyframes.partition, "_szego_entries", halved)
        rng = np.random.default_rng(3)
        pts = write_points(tmp_path, 0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40)))
        out = tmp_path / "part.json"
        argv = ["partition", "--points", pts, "--strategy", strategy, "--out", str(out)]
        assert main(argv + ["--delta-target", "0.3", "--c-target", "0.3"]) == 4
        captured = capsys.readouterr()
        assert captured.out.endswith(" certified=False\n")
        assert captured.err == "error: a class certificate fell below its target\n"
        key = "carleson_inf" if strategy == "carleson" else "lambda_min"
        assert min(cert[key] for cert in read_json(out)["certificates"]) < 0.3

    def test_spectral_sort_by_modulus_runs_on_the_sorted_grammian(self, tmp_path):
        rng = np.random.default_rng(37)
        z = 0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        pts = write_points(tmp_path, z)
        out = tmp_path / "part.json"
        argv = ["partition", "--points", pts, "--strategy", "spectral", "--c-target", "0.3", "--out", str(out)]
        assert main(argv) == 0
        unsorted = read_json(out)["classes"]
        assert main(argv + ["--sort-by-modulus"]) == 0
        order = np.argsort(np.abs(z), kind="stable")
        g = szego_gram(PointSequence(list(z[order])))
        want = [[int(order[i]) for i in cls] for cls in reference_spectral(g.matrix.matrix, 0.3)]
        assert read_json(out)["classes"] == want != unsorted

    def test_spectral_memory_peak(self, tmp_path):
        pts = write_points(tmp_path, mixed_points(np.random.default_rng(41), 600))
        out, csv = tmp_path / "part.json", tmp_path / "part.csv"
        argv = ["partition", "--points", pts, "--strategy", "spectral", "--c-target", "0.3"]
        tracemalloc.start()
        try:
            rc = main(argv + ["--out", str(out), "--csv", str(csv)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        # the 600 x 600 complex Grammian alone is 5.76 MB
        assert peak < 4 * 2**20

    def test_spectral_never_builds_the_full_grammian(self, tmp_path, monkeypatch):
        n = 200
        original_gram, original_entries = szego_gram, hardyframes.partition._szego_entries
        row_counts = []

        def small_only(seq):
            assert len(seq) <= 64, f"szego_gram called on {len(seq)} points"
            return original_gram(seq)

        def fewer_than_n_rows(*args, **kwargs):
            g = original_entries(*args, **kwargs)
            row_counts.append(g.shape[-2])
            return g

        for module in (hardyframes.kernels, cli):
            monkeypatch.setattr(module, "szego_gram", small_only)
        monkeypatch.setattr(hardyframes.partition, "_szego_entries", fewer_than_n_rows)
        pts = write_points(tmp_path, mixed_points(np.random.default_rng(43), n))
        out = tmp_path / "part.json"
        assert main(["partition", "--points", pts, "--strategy", "spectral", "--c-target", "0.3", "--out", str(out)]) == 0
        assert sum(c["size"] for c in read_json(out)["certificates"]) == n
        assert row_counts and max(row_counts) < n

    @pytest.mark.parametrize("strategy", ["carleson", "spectral"])
    def test_reports_are_byte_identical_across_runs(self, tmp_path, strategy):
        rng = np.random.default_rng(31)
        z = 0.95 * np.sqrt(rng.uniform(size=60)) * np.exp(2j * np.pi * rng.uniform(size=60))
        pts = write_points(tmp_path, z)
        outputs = []
        for run in range(2):
            out, csv = tmp_path / f"part{run}.json", tmp_path / f"part{run}.csv"
            rc = main(["partition", "--points", pts, "--strategy", strategy, "--out", str(out), "--csv", str(csv)])
            assert rc == 0
            outputs.append((out.read_bytes(), csv.read_bytes()))
        assert outputs[0] == outputs[1]


class TestConstructSt:
    def test_realizes_target(self, tmp_path, capsys):
        pts = write_points(tmp_path, ring(5, 0.6))
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(5)))
        out = tmp_path / "op.json"
        rc = main(
            ["construct-st", "--points", pts, "--Q", q, "--N", "128", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        assert payload["kind"] == "st_constructed"
        assert payload["dim"] == 128
        assert payload["roundtrip_defect"] < 1e-6
        assert payload["delta"] == 0.5  # defaults to the smallest diagonal entry
        assert payload["min_norm_sq"] >= 0.5 - 1e-8
        assert "construct-st dim=128" in capsys.readouterr().out

    def test_explicit_delta_target(self, tmp_path):
        pts = write_points(tmp_path, ring(4, 0.6))
        q = write_json(tmp_path / "q.json", matrix_to_json(np.eye(4)))
        out = tmp_path / "op.json"
        rc = main(
            ["construct-st", "--points", pts, "--Q", q, "--N", "96",
             "--delta-target", "0.25", "--out", str(out)]
        )
        assert rc == 0
        assert read_json(out)["delta"] == 0.25

    def test_stdout_same_with_and_without_out(self, tmp_path, capsys):
        pts = write_points(tmp_path, ring(3, 0.6))
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(3)))
        argv = ["construct-st", "--points", pts, "--Q", q, "--N", "64"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "op.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == plain
        assert read_json(out)["dim"] == 64

    def test_nan_in_q_is_input_error(self, tmp_path, capsys):
        pts = write_points(tmp_path, ring(2, 0.5))
        q = matrix_to_json(np.eye(2))
        q["entries"][1] = [0.0, float("inf")]
        q_path = write_json(tmp_path / "q.json", q)
        assert main(["construct-st", "--points", pts, "--Q", q_path, "--N", "64"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_overflowing_q_is_input_error(self, tmp_path, capsys):
        # finite entries whose (Q + Q*) / 2 overflows to infinity
        pts = write_points(tmp_path, ring(2, 0.5))
        q = write_json(tmp_path / "q.json", matrix_to_json(1e308 * np.eye(2)))
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: matrix entries too large: |H_ij| or (H + H*) / 2 overflows to infinity\n"
        assert captured.out == ""

    def test_nearly_coincident_points_construct(self, tmp_path):
        # the kernel Gram matrix sits just above the conditioning floor
        # (lambda_min 1.2e-8); the construction stays accurate there
        pts = write_points(tmp_path, [0.5, 0.5 + 3.4e-4])
        q = write_json(tmp_path / "q.json", matrix_to_json(np.eye(2)))
        out = tmp_path / "op.json"
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "128", "--out", str(out)]) == 0
        assert read_json(out)["roundtrip_defect"] < 1e-10

    def test_certificate_miss_is_exit_4(self, tmp_path, monkeypatch, capsys):
        # the certificate recomputes the Grammian from the operator alone, so
        # a construction that is off by a factor is caught
        def scaled(q, seq, order, delta):
            op = st_construct(q, seq, order, delta)
            return PositiveOperator(0.9 * op.core, op.id, op.kind, basis=op.basis)

        monkeypatch.setattr(cli, "st_construct", scaled)
        pts = write_points(tmp_path, ring(3, 0.6))
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(3)))
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "64"]) == 4
        assert "construction certificate failed" in capsys.readouterr().err

    def test_order_below_point_count_is_input_error(self, tmp_path, capsys):
        # six kernel vectors truncated at N = 4 span at most four dimensions
        points, q = ring(6, 0.6), matrix_to_json(0.5 * np.eye(6))
        message = "truncation order N=4 is below n=6 points: their kernels span at most N dimensions"
        pts = write_points(tmp_path, points)
        assert main(["construct-st", "--points", pts, "--Q", write_json(tmp_path / "q.json", q), "--N", "4"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        spec = {"type": "st_constructed", "N": 4, "Q": q, "points": [[z.real, z.imag] for z in points]}
        with pytest.raises(ValueError, match=message):
            from_spec(spec)
        assert main(["gram", "--points", pts, "--operator", write_json(tmp_path / "op.json", spec)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_fully_coincident_points_is_domain_error(self, tmp_path):
        pts = write_points(tmp_path, [0.5, 0.5 + 1e-9])
        q = write_json(tmp_path / "q.json", matrix_to_json(np.eye(2)))
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "128"]) == 3

    def test_non_psd_target_is_domain_error(self, tmp_path):
        pts = write_points(tmp_path, ring(2, 0.5))
        q = write_json(
            tmp_path / "q.json", matrix_to_json(np.array([[1.0, 2.0], [2.0, 1.0]]))
        )
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "64"]) == 3

    def test_delta_above_diagonal_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, ring(2, 0.5))
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(2)))
        rc = main(
            ["construct-st", "--points", pts, "--Q", q, "--N", "64",
             "--delta-target", "0.9"]
        )
        assert rc == 2

    def test_missing_q_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, ring(2, 0.5))
        assert main(["construct-st", "--points", pts]) == 2


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--seed", "42", "--trials", "2", "--N", "128", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.count(": PASS") == 5
        payload = read_json(out)
        assert payload["passed"] is True
        assert len(payload["results"]) == 5

    def test_report_bytes_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--seed", "7", "--trials", "2", "--N", "128"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_violations_exit_5(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json", {"tolerances": {"toeplitz_covariance": 0.0}}
        )
        out = tmp_path / "report.json"
        rc = main(
            ["verify", "--config", cfg, "--trials", "2", "--N", "128", "--out", str(out)]
        )
        assert rc == 5
        assert ": FAIL" in capsys.readouterr().out
        payload = read_json(out)
        assert payload["passed"] is False
        failing = [r for r in payload["results"] if r["failures"] > 0]
        assert failing and failing[0]["witness"] is not None

    def test_bad_config_exit_2(self):
        assert main(["verify", "--trials", "0"]) == 2
        assert main(["verify", "--trials", "1", "--N", "127"]) == 2

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"seed": -1})
        for extra in (["--seed", "-1"], ["--config", cfg]):
            assert main(["verify", "--trials", "1", "--N", "128", *extra]) == 2, extra
            assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_families_from_config(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"point_families": ["uniform_disk"]})
        assert main(["verify", "--config", cfg, "--trials", "2", "--N", "128"]) == 0

    def test_null_config_values_count_as_not_given(self, tmp_path, capsys):
        # {"N": null} falls back to the default order, as an omitted key does
        cfg = write_json(tmp_path / "cfg.json", {"N": None, "trials": 1})
        out = tmp_path / "report.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out)["config"]["order"] == 256
        pts = write_points(tmp_path, ring(3, 0.5))
        gram_cfg = write_json(tmp_path / "gram_cfg.json", {"buffer": None})
        assert main(["gram", "--points", pts, "--config", gram_cfg]) == 0


def key_paths(doc, prefix=""):
    """Every key of a JSON document as a dotted path, in document order.

    The items of a list share one ``[]`` path, so a list of records
    contributes its record's keys once.
    """
    paths = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.append(path)
            paths.extend(key_paths(value, path))
    elif isinstance(doc, list):
        for item in doc:
            paths.extend(p for p in key_paths(item, prefix + "[]") if p not in paths)
    return paths


PARTITION_KEYS = [
    "strategy", "targets", "targets.{target}", "class_count", "classes", "certificates",
    "certificates[].labels", "certificates[].size", "certificates[].lambda_min",
    "certificates[].carleson_inf",
]


class TestReportSchema:
    """Reports keep their keys, nesting and key order, on one line ending in one newline."""

    def read_report(self, path):
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        return key_paths(json.loads(text))

    def test_gram(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6, 0.3 + 0.4j])
        out = tmp_path / "gram.json"
        assert main(["gram", "--points", pts, "--out", str(out)]) == 0
        assert self.read_report(out) == [
            "grammian", "grammian.matrix", "grammian.matrix.dim", "grammian.matrix.entries",
            "grammian.normalized", "grammian.provenance", "grammian.provenance.space",
            "grammian.provenance.operator_id", "grammian.provenance.points",
            "grammian.provenance.labels", "grammian.provenance.truncation_error",
            "grammian.provenance.transform",
            "bounds", "bounds.bessel_B", "bounds.riesz_c", "bounds.frame_A",
            "bounds.lower_norm_delta", "bounds.riesz_tol", "bounds.rank_tol", "bounds.is_bessel",
            "bounds.is_bounded_below", "bounds.is_riesz", "bounds.is_frame",
        ]

    def test_construct_st(self, tmp_path):
        pts = write_points(tmp_path, ring(3, 0.6))
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(3)))
        out = tmp_path / "op.json"
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "64", "--out", str(out)]) == 0
        assert self.read_report(out) == [
            "dim", "entries", "id", "kind", "contraction", "roundtrip_defect", "min_norm_sq", "delta",
        ]

    @pytest.mark.parametrize("strategy,target", [("carleson", "delta_target"), ("spectral", "c_target")])
    def test_partition(self, tmp_path, strategy, target):
        pts = write_points(tmp_path, ring(5, 0.7))
        out = tmp_path / "part.json"
        assert main(["partition", "--points", pts, "--strategy", strategy, "--out", str(out)]) == 0
        assert self.read_report(out) == [k.format(target=target) for k in PARTITION_KEYS]

    def test_verify(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "3", "--trials", "1", "--N", "128", "--out", str(out)]) == 0
        assert self.read_report(out) == [
            "config", "config.seed", "config.trials", "config.order", "config.point_families",
            "config.tolerances", "results", "results[].check_id", "results[].trials",
            "results[].failures", "results[].worst_violation", "results[].witness", "passed",
        ]


INNER = {"zeros": [[0.3, 0.2], [-0.1, -0.4]], "m": 1}
# One spec per operator kind, each at order 64.
REPORT_SPECS = {
    "identity": {},
    "diagonal": {"weights": [0.9**k for k in range(64)]},
    "projection_phiH2": {"inner": INNER},
    "projection_model": {"inner": INNER},
    "projection_monomial": {"excluded": [1, 3]},
    "projection_c_plus_phi": {"inner": INNER},
    "st_constructed": {"points": [[0.5, 0.0], [-0.2, 0.4]], "Q": matrix_to_json([[1.0, 0.2j], [-0.2j, 0.5]])},
    "custom": {"matrix": matrix_to_json(np.diag(np.linspace(1.0, 0.1, 64)) + 0.01 * np.ones((64, 64)))},
}


class TestReportNumbers:
    """Every number in a matrix report is its shortest repr, in the compact layout."""

    def assert_compact_dump(self, path):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"

    def test_specs_cover_every_operator_kind(self):
        assert set(REPORT_SPECS) == OPERATOR_KINDS

    @pytest.mark.parametrize("kind", [None, *sorted(REPORT_SPECS)])
    def test_gram(self, tmp_path, kind):
        pts = write_points(tmp_path, [0.1, 0.6, 0.3 + 0.4j, -0.5 - 0.2j])
        argv = ["gram", "--points", pts, "--out", str(tmp_path / "gram.json")]
        if kind is not None:
            argv += ["--operator", write_json(tmp_path / "op.json", {"type": kind, "N": 64, **REPORT_SPECS[kind]})]
        assert main(argv) == 0
        self.assert_compact_dump(tmp_path / "gram.json")

    def test_construct_st(self, tmp_path):
        pts = write_points(tmp_path, [0.5, -0.2 + 0.4j, 0.1 - 0.7j])
        q = write_json(tmp_path / "q.json", matrix_to_json([[1.0, 0.2j, 0.1], [-0.2j, 0.5, 0.0], [0.1, 0.0, 0.7]]))
        assert main(["construct-st", "--points", pts, "--Q", q, "--N", "64", "--out", str(tmp_path / "op.json")]) == 0
        self.assert_compact_dump(tmp_path / "op.json")


def test_matrix_from_json_rejects_non_finite_entries():
    doc = matrix_to_json(np.eye(2))
    doc["entries"][3] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="entry 3 .* must be finite"):
        matrix_from_json(doc)


def _malformed_points(tmp_path, pair):
    pts = write_json(tmp_path / "points.json", [[0.5, 0.0], pair])
    return ["gram", "--points", pts]


def _malformed_q(tmp_path, pair):
    q = matrix_to_json(np.eye(2))
    q["entries"][1] = pair
    q_path = write_json(tmp_path / "q.json", q)
    return ["construct-st", "--points", write_points(tmp_path, ring(2, 0.5)), "--Q", q_path, "--N", "64"]


def _malformed_spec(tmp_path, spec):
    op = write_json(tmp_path / "op.json", spec)
    return ["gram", "--points", write_points(tmp_path, ring(2, 0.5)), "--operator", op, "--N", "64"]


def _custom_matrix(pair):
    m = matrix_to_json(np.eye(64))
    m["entries"][1] = pair
    return {"type": "custom", "matrix": m}


ST_SPEC = {"type": "st", "points": [[0.5, 0.0], [-0.5, 0.0]], "Q": matrix_to_json(np.eye(2))}

MALFORMED_PAIRS = {
    "points-short": lambda t: _malformed_points(t, [0.3]),
    "points-long": lambda t: _malformed_points(t, [0.3, 0.0, 5.0]),
    "points-overflow": lambda t: _malformed_points(t, [10**400, 0.0]),
    "points-string": lambda t: _malformed_points(t, ["0.5", 0.0]),
    "q-short": lambda t: _malformed_q(t, [0.3]),
    "q-long": lambda t: _malformed_q(t, [0.0, 0.0, 5.0]),
    "q-bool": lambda t: _malformed_q(t, [False, 0.0]),
    "custom-short": lambda t: _malformed_spec(t, _custom_matrix([0.3])),
    "custom-long": lambda t: _malformed_spec(t, _custom_matrix([0.0, 0.0, 5.0])),
    "unimodular-short": lambda t: _malformed_spec(
        t, {"type": "projection_phiH2", "inner": {"zeros": [[0.5, 0.0]], "unimodular": [1.0]}}
    ),
    "zero-long": lambda t: _malformed_spec(t, {"type": "projection_model", "inner": {"zeros": [[0.5, 0.0, 1.0]]}}),
    "zero-string-bool": lambda t: _malformed_spec(t, {"type": "projection_model", "inner": {"zeros": [["0.5", False]]}}),
    "st-point-short": lambda t: _malformed_spec(t, {**ST_SPEC, "points": [[0.5, 0.0], [-0.5]]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAIRS))
def test_malformed_pair_is_input_error(tmp_path, capsys, case):
    """A pair is exactly two finite numbers, wherever the CLI reads one."""
    argv = MALFORMED_PAIRS[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


PHI_SPEC = {"type": "projection_phiH2", "inner": {"zeros": [[0.5, 0.0]], "m": 1}, "N": 64}

WRONG_SPEC_TYPES = {
    "inner-list": {**PHI_SPEC, "inner": [0.5, 0.0]},
    "m-float": {**PHI_SPEC, "inner": {"zeros": [[0.5, 0.0]], "m": 1.7}},
    "m-bool": {**PHI_SPEC, "inner": {"zeros": [[0.5, 0.0]], "m": True}},
    "N-float": {**PHI_SPEC, "N": 64.9},
    "N-bool": {**PHI_SPEC, "N": True},
}


@pytest.mark.parametrize("case", sorted(WRONG_SPEC_TYPES))
def test_spec_field_of_wrong_type_is_input_error(tmp_path, capsys, case):
    """``inner`` is a JSON object, ``N`` and ``inner.m`` are JSON integers."""
    op = write_json(tmp_path / "op.json", WRONG_SPEC_TYPES[case])
    assert main(["gram", "--points", write_points(tmp_path, ring(2, 0.5)), "--operator", op]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


NAN = float("nan")


def _gram(t):
    return ["gram", "--points", write_points(t, ring(2, 0.5))]


def _gram_operator(t):
    return _gram(t) + ["--operator", write_json(t / "op.json", {**PHI_SPEC, "N": 128})]


def _partition(strategy):
    return lambda t: ["partition", "--points", write_points(t, ring(3, 0.5)), "--strategy", strategy]


def _verify(t):
    return ["verify", "--N", "128"]


# case -> (key stderr must name, argv builder, config object)
MALFORMED_CONFIG = {
    "N-float": ("N", _gram_operator, {"N": 64.9}),
    "sort_by_modulus-string": ("sort_by_modulus", _partition("carleson"), {"sort_by_modulus": "false"}),
    "c_target-string": ("c_target", _partition("spectral"), {"c_target": "0.3"}),
    "buffer-float": ("buffer", _gram, {"buffer": 2.5}),
    "trials-float": ("trials", _verify, {"trials": 1.9}),
    "seed-bool": ("seed", _verify, {"seed": True, "trials": 1}),
    "strategy-unknown": ("strategy", lambda t: _partition("carleson")(t)[:3], {"strategy": "foo"}),
    "riesz_tol-nan": ("riesz_tol", _gram, {"riesz_tol": NAN}),
    "points-number": ("points", lambda t: ["gram"], {"points": 5}),
    "tolerances-nan": (
        "tolerances.st_roundtrip",
        _verify,
        {"trials": 1, "tolerances": {"st_roundtrip": NAN, "toeplitz_covariance": NAN}},
    ),
    "tolerances-string": ("tolerances.st_roundtrip", _verify, {"trials": 1, "tolerances": {"st_roundtrip": "1e-3"}}),
    "tolerances-list": ("tolerances", _verify, {"trials": 1, "tolerances": [1e-6]}),
    "point_families-string": ("point_families", _verify, {"trials": 1, "point_families": "uniform_disk"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIG))
def test_malformed_config_value_is_input_error(tmp_path, capsys, case):
    """A config value must have the JSON type of the flag it predefines."""
    key, argv, cfg = MALFORMED_CONFIG[case]
    assert main(argv(tmp_path) + ["--config", write_json(tmp_path / "cfg.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("payload", [[1, 2], 5, "N", None])
def test_config_that_is_not_an_object_is_input_error(tmp_path, capsys, payload):
    assert main(_gram(tmp_path) + ["--config", write_json(tmp_path / "cfg.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: config file must contain a JSON object\n"
    assert captured.out == ""


def _labels(t):
    pts = write_json(t / "labeled.json", {"points": [[0.1, 0.0], [0.5, 0.0], [-0.4, 0.2]], "labels": [1.9, 2.2, "3"]})
    return ["gram", "--points", pts]


def _fractional_dim(t):
    q = write_json(t / "q.json", {"dim": 1.9, "entries": [[1.0, 0.0]]})
    return ["construct-st", "--points", write_points(t, [0.3]), "--Q", q, "--N", "64"]


EMPTY_MATRIX = {"dim": 0, "entries": []}


def _empty_q(t):
    q = write_json(t / "q.json", EMPTY_MATRIX)
    return ["construct-st", "--points", write_points(t, [0.3]), "--Q", q, "--N", "64"]


# case -> (key stderr must name, argv builder)
MALFORMED_SCALARS = {
    "weights": ("weights", lambda t: _malformed_spec(t, {"type": "diagonal", "weights": ["0.5", True, 1]})),
    "excluded": ("excluded", lambda t: _malformed_spec(t, {"type": "projection_monomial", "excluded": [1.7]})),
    "labels": ("labels", _labels),
    "dim": ("dim", _fractional_dim),
    "dim-zero-Q": ("dim", _empty_q),
    "dim-zero-custom": ("dim", lambda t: _malformed_spec(t, {"type": "custom", "matrix": EMPTY_MATRIX})),
    "delta": ("delta", lambda t: _malformed_spec(t, {**ST_SPEC, "delta": "0.5"})),
    "buffer": ("buffer", lambda t: _malformed_spec(t, {**PHI_SPEC, "buffer": 2.5})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCALARS))
def test_malformed_file_scalar_is_input_error(tmp_path, capsys, case):
    """Integers in a spec, point file or matrix file are JSON integers, numbers are JSON numbers,
    and a matrix has at least one row."""
    key, argv = MALFORMED_SCALARS[case]
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


def _construct_st(t):
    q = write_json(t / "q.json", matrix_to_json(0.5 * np.eye(2)))
    return ["construct-st", "--points", write_points(t, ring(2, 0.5)), "--Q", q, "--N", "64"]


NON_FINITE_FLAGS = {
    "gram": (_gram, "--riesz-tol"),
    "partition-spectral": (_partition("spectral"), "--c-target"),
    "partition-carleson": (_partition("carleson"), "--delta-target"),
    "construct-st": (_construct_st, "--delta-target"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_FLAGS))
def test_non_finite_flag_is_input_error(tmp_path, capsys, case, value):
    argv, flag = NON_FINITE_FLAGS[case]
    assert main(argv(tmp_path) + [f"{flag}={value}"]) == 2
    assert "is not a finite number" in capsys.readouterr().err


def subcommand_parsers():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def config_options(command):
    """The options a config file can predefine for a subcommand, as the parser declares them."""
    return [a for a in subcommand_parsers()[command]._actions if a.dest not in ("help", "config")]


def option_values(t):
    """A non-default value for every option of every subcommand; outputs go to ``t``."""
    pts = write_points(t, ring(4, 0.6))
    out, csv = str(t / "report.json"), str(t / "report.csv")
    return {
        "gram": {
            "points": pts, "operator": write_json(t / "op.json", PHI_SPEC), "N": 96, "riesz_tol": 0.3,
            "buffer": 3, "out": out, "csv": csv,
        },
        "partition": {
            "points": pts, "strategy": "carleson", "delta_target": 0.2, "c_target": 0.5,
            "sort_by_modulus": True, "buffer": 3, "out": out, "csv": csv,
        },
        "construct-st": {
            "points": pts, "Q": write_json(t / "q.json", matrix_to_json(0.5 * np.eye(4))),
            "delta_target": 0.25, "N": 96, "buffer": 3, "out": out,
        },
        "verify": {"seed": 5, "trials": 1, "N": 160, "buffer": 3, "out": out},
    }


def wrong_json_type(value):
    """A value of another JSON type than ``value``'s."""
    if type(value) is bool:
        return str(value).lower()
    if type(value) is int:
        return value + 0.5
    return str(value) if type(value) is float else [value]


@pytest.mark.parametrize("command", ["gram", "partition", "construct-st", "verify"])
def test_config_equals_flags(tmp_path, capsys, command):
    """Every option set in a config file gives the same run as its flag,
    and a value of the wrong JSON type exits 2 naming the key."""
    values = option_values(tmp_path)[command]
    options = config_options(command)
    assert sorted(a.dest for a in options) == sorted(values)
    flags = []
    for a in options:
        assert values[a.dest] != a.default, a.dest
        flags += [a.option_strings[0]] + ([] if a.nargs == 0 else [str(values[a.dest])])

    def run(argv):
        outputs = [Path(values[k]) for k in ("out", "csv") if k in values]
        for path in outputs:
            path.unlink(missing_ok=True)
        assert main([command] + argv) == 0
        return capsys.readouterr().out, [path.read_bytes() for path in outputs]

    by_flags = run(flags)
    # a config shared with other subcommands: keys this one does not declare are
    # ignored however malformed, and those it declares are overridden by ``values``
    shared = {"unrelated": [1.5], "operator": 5, "Q": 5, "strategy": 5, "seed": "x"}
    assert run(["--config", write_json(tmp_path / "cfg.json", {**shared, **values})]) == by_flags

    for a in options:
        cfg = write_json(tmp_path / "bad.json", {**values, a.dest: wrong_json_type(values[a.dest])})
        assert main([command, "--config", cfg]) == 2, a.dest
        assert repr(a.dest) in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]], ids=["split", "equals", "abbreviated"])
def test_config_defaults_apply_to_their_own_call_only(tmp_path, capsys, spelling):
    """``main`` reuses one parser, but a config's defaults never reach the next call."""
    argv = ["partition", "--points", write_points(tmp_path, ring(4, 0.6)), "--strategy", "spectral"]
    cfg = write_json(tmp_path / "cfg.json", {"c_target": 0.5})
    assert main(argv + [word.format(cfg) for word in spelling]) == 0
    assert " c=0.5 " in capsys.readouterr().out
    assert main(argv) == 0
    assert " c=0.1 " in capsys.readouterr().out


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    argv = ["partition", "--points", write_points(tmp_path, ring(4, 0.6)), "--strategy", "carleson"]
    assert main(argv) == 0

    def rebuilt():
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(argv) == 0


class TestPlumbing:
    def test_no_subcommand_exits_2(self):
        assert main([]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6])
        out = tmp_path / "gram.json"
        csv = tmp_path / "gram.csv"
        assert main(["gram", "--points", pts, "--out", str(out), "--csv", str(csv)]) == 0
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_output_is_overwritten_atomically(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6])
        out = tmp_path / "gram.json"
        out.write_text("stale", encoding="utf-8")
        assert main(["gram", "--points", pts, "--out", str(out)]) == 0
        assert read_json(out)["grammian"]["matrix"]["dim"] == 2

    def test_unwritable_output_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, [0.0, 0.6])
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main(["gram", "--points", pts, "--out", str(missing_dir)]) == 2

    def test_buffer_is_ignored_and_negative_buffer_is_input_error(self, tmp_path, capsys):
        pts = write_points(tmp_path, ring(4, 0.6))
        inner = {"zeros": [[0.5, 0.0], [0.0, -0.4]], "m": 1}
        spec = {"type": "projection_phiH2", "N": 64, "inner": inner}
        op = write_json(tmp_path / "op.json", spec)
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(4)))
        gram = ["gram", "--points", pts, "--N", "64"]
        st = ["construct-st", "--points", pts, "--Q", q, "--N", "64"]

        def report(argv, name):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            return out.read_bytes()

        assert report(gram + ["--operator", op, "--buffer", "7"], "g7.json") == report(
            gram + ["--operator", op], "g.json"
        )
        spec7 = write_json(tmp_path / "op7.json", {**spec, "buffer": 7})
        assert report(gram + ["--operator", spec7], "s7.json") == report(
            gram + ["--operator", op], "g.json"
        )
        assert report(st + ["--buffer", "7"], "st7.json") == report(st, "st.json")

        negative = write_json(tmp_path / "neg.json", {**spec, "buffer": -1})
        negative_cfg = write_json(tmp_path / "neg_cfg.json", {"buffer": -1})
        rejected = [
            gram + ["--operator", op, "--buffer", "-1"],
            gram + ["--operator", negative],
            gram + ["--buffer", "-1"],
            gram + ["--config", negative_cfg],
            st + ["--buffer", "-1"],
            ["partition", "--points", pts, "--strategy", "carleson", "--buffer", "-1"],
            ["partition", "--points", pts, "--strategy", "spectral", "--config", negative_cfg],
            ["verify", "--trials", "1", "--N", "128", "--buffer", "-1"],
            ["verify", "--trials", "1", "--N", "128", "--config", negative_cfg],
        ]
        capsys.readouterr()
        for argv in rejected:
            assert main(argv) == 2, argv
        assert capsys.readouterr().err.count("buffer must be nonnegative") == len(rejected)

    def test_order_below_one_is_input_error(self, tmp_path, capsys):
        pts = write_points(tmp_path, ring(3, 0.5))
        q = write_json(tmp_path / "q.json", matrix_to_json(0.5 * np.eye(3)))
        op = write_json(tmp_path / "op.json", {"type": "identity"})
        zero = write_json(tmp_path / "zero.json", {"type": "identity", "N": 0})
        rejected = [
            ["construct-st", "--points", pts, "--Q", q, "--N", "0"],
            ["gram", "--points", pts, "--operator", op, "--N", "0"],
            ["gram", "--points", pts, "--operator", zero],
        ]
        for argv in rejected:
            assert main(argv) == 2, argv
        assert capsys.readouterr().err.count("truncation order must be at least 1") == len(rejected)

    def test_size_beyond_memory_is_input_error(self, tmp_path, capsys):
        # 2**50 entries need petabytes, which no host can map, so the
        # allocation fails at once without touching memory
        pts = write_points(tmp_path, ring(3, 0.5))
        op = write_json(tmp_path / "op.json", {"type": "identity", "N": 2**50})
        for argv in (
            ["gram", "--points", pts, "--operator", op],
            ["verify", "--N", str(2**50), "--trials", "1"],
        ):
            assert main(argv) == 2, argv
            assert "does not fit in memory" in capsys.readouterr().err

    def test_console_script_installed(self):
        """Run the declared `hardyframes` entry point from the checkout,
        and the installed script too when one is on PATH."""
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        entry = scripts.get("hardyframes")
        assert entry == "hardyframes.cli:main"

        # The wrapper an installer writes for `module:attr`.
        module, attr = entry.split(":")
        wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
        checkout_env = dict(os.environ)
        checkout_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        runs = [([sys.executable, "-c", wrapper], checkout_env)]
        exe = shutil.which("hardyframes")
        if exe is not None:
            runs.append(([exe], None))
        for cmd, env in runs:
            proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "gram" in proc.stdout
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 2, proc.stderr


# Cycle 1273 of the operators_reports benchmark: its 40 Grammian points and
# the zeros of its projection_phiH2 Blaschke product.
CYCLE_1273_POINTS = [
    0.3234765307114735+0.4179195724627608j, -0.4410297445956698-0.5136114320422627j,
    -0.8282688009008222+0.2774481089368788j, 0.8761190282962777-0.1063837734192937j,
    0.6936809077399007+0.46754068176560315j, -0.6793846844591537-0.39460362029453167j,
    -0.44927624041018066-0.5690382505065508j, 0.12657539638180165-0.28414809890120085j,
    -0.7672771693073628-0.3993116765207709j, -0.6176660697727682-0.26949653320448824j,
    -0.4896057984531301+0.45207967129539683j, -0.6183962859190427+0.4520228004930599j,
    0.36576529028418403+0.12505538590456372j, -0.03519092698891928+0.7140907558738355j,
    0.8614941044869733+0.23662013263078283j, 0.2353885216195381+0.6231085197372734j,
    0.39356727399968167+0.20525174878232053j, 0.11527687319611726+0.0064632276307176675j,
    0.5367292524253732+0.5227716901053804j, -0.3427802951106095+0.6395961449291552j,
    0.4344866118156329+0.4752013422062461j, 0.46990622085922434+0.7646384928201123j,
    -0.15667218293159926-0.5576157743227531j, -0.40478208790326564-0.5035990857417514j,
    -0.7330373838412773+0.28028651735250715j, 0.14661517698496487-0.68094247319337j,
    0.10497050703855274+0.28964828490102706j, -0.2269835160089229-0.33862522967570924j,
    0.6186923418805349-0.4763814906434352j, -0.8130084903296757+0.09004479343503725j,
    0.6105542435231333-0.430683887823293j, -0.5600592634512936-0.5017410169232827j,
    0.4112373404073685+0.40688842229614064j, -0.3560610175988216+0.274099751409392j,
    -0.3707609942300821-0.23115938120719773j, -0.28655420163897516-0.19288370452566786j,
    0.43719172597848754+0.24846428694968747j, -0.2927495349594221+0.6767852710875503j,
    0.19033025313750268-0.20234194569455324j, -0.3718150620840916-0.372717092580352j,
]
CYCLE_1273_ZEROS = [
    [0.09873084910023344, 0.33993759245256827], [0.06830587322685866, 0.1207211950999143],
    [-0.2741200624492367, -0.6709715375396078], [0.06095317184250215, 0.20864062129565308],
    [0.1318753441293976, 0.32962566306070373],
]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a nearly singular range-space Grammian reads as indefinite: V*PV rounds to lambda_min "
    "-1.8e-15, and normalizing by 1/s^2 (up to 4e8, one kernel-image norm is 4.9e-5) lifts that "
    "past the PSD floor; closed-form range-space Grammians (ROADMAP item 1) remove it",
)
def test_projection_gram_of_benchmark_cycle_1273_is_positive(tmp_path, capsys):
    points = write_points(tmp_path, CYCLE_1273_POINTS)
    spec = write_json(tmp_path / "op.json", {"type": "projection_phiH2", "inner": {"zeros": CYCLE_1273_ZEROS, "m": 0}})
    code = main(["gram", "--points", points, "--operator", spec, "--N", "512"])
    err = capsys.readouterr().err
    assert code == 0, err
