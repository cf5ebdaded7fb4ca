"""End-to-end command line tests: exit codes, outputs, config overlay."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from hardyframes.cli import main
from hardyframes.io import matrix_from_json, matrix_to_json


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

    def test_missing_strategy_is_input_error(self, tmp_path):
        pts = write_points(tmp_path, [0.1, 0.5])
        assert main(["partition", "--points", pts]) == 2

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

    def test_certificate_miss_is_exit_4(self, tmp_path):
        # nearly coincident points squeeze the kernel Gram matrix just above
        # the conditioning floor; the inverse amplifies roundoff past the gate
        pts = write_points(tmp_path, [0.5, 0.5 + 3.4e-4])
        q = write_json(tmp_path / "q.json", matrix_to_json(np.eye(2)))
        rc = main(["construct-st", "--points", pts, "--Q", q, "--N", "128"])
        assert rc == 4

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

    def test_families_from_config(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"point_families": ["uniform_disk"]})
        assert main(["verify", "--config", cfg, "--trials", "2", "--N", "128"]) == 0


def test_matrix_from_json_rejects_non_finite_entries():
    doc = matrix_to_json(np.eye(2))
    doc["entries"][3] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="entry 3 .* must be finite"):
        matrix_from_json(doc)


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

    def test_console_script_installed(self):
        exe = shutil.which("hardyframes")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gram" in proc.stdout
