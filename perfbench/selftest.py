"""Tests of the benchmark itself: seeded inputs, output checks, tracing, compare mode.

Run from the repository root:

    python3 perfbench/selftest.py

The file name keeps it out of the package's pytest collection; it needs the
package source under ``src/`` and takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import hardyframes.cli as cli  # noqa: E402
import hardyframes.verify  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.WARMUP_SIZES
SMALL_OPS, SMALL_REPORTS = SMALL["operators_reports"]["ops"], SMALL["operators_reports"]["reports"]


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}-{self._testMethodName}"
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def subdir(self, name):
        path = self.work / name
        path.mkdir()
        return path

    def run_cycle(self, build, seed, workdir, memo=None, **sizes):
        """Run a cycle (a workload's name or a builder) through cli.main; return (invocation, exit code, stdout) triples."""
        build = workloads.WORKLOADS.get(build, build)
        out = []
        for inv in build(seed, workdir, {} if memo is None else memo, **sizes):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(inv.argv))
            out.append((inv, rc, buf.getvalue()))
        return out


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _rewrite(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class SeededInputs(WorkDir):
    def test_same_seed_gives_byte_identical_files(self):
        for name in ("operators_reports", "partition_large_n"):
            a, b, c = self.subdir(f"{name}-a"), self.subdir(f"{name}-b"), self.subdir(f"{name}-c")
            argv_a = [inv.argv for inv in workloads.WORKLOADS[name](7, a, {})]
            argv_b = [inv.argv for inv in workloads.WORKLOADS[name](7, b, {})]
            workloads.WORKLOADS[name](8, c, {})
            self.assertEqual(_files(a), _files(b), name)
            self.assertEqual([len(v) for v in argv_a], [len(v) for v in argv_b])
            self.assertNotEqual(_files(a), _files(c), name)

    def test_verify_cycle_passes_its_seed(self):
        inv = workloads.verify_suite(12, self.work, {})[0]
        self.assertEqual(inv.argv[inv.argv.index("--seed") + 1], "12")


class OutputChecks(WorkDir):
    def test_every_workload_passes_at_small_size(self):
        for name in ("operators_reports", "partition_large_n"):
            for inv, rc, stdout in self.run_cycle(name, 3, self.subdir(name), **SMALL[name]):
                self.assertEqual(rc, 0, inv.argv)
                self.assertEqual(inv.check(stdout), [], inv.argv)

    def test_corrupted_gram_reports_are_flagged(self):
        dense = self.run_cycle(workloads.dense_reports, 3, self.subdir("dense"), **SMALL_REPORTS)
        gram, _, stdout = dense[0]
        path = gram.argv[gram.argv.index("--out") + 1]
        _rewrite(path, lambda d: d["grammian"]["matrix"]["entries"][1].__setitem__(0, 0.5))
        self.assertTrue(any("gram matrix" in p for p in gram.check(stdout)))

        custom, _, stdout = dense[2]
        self.assertTrue(custom.check(stdout.replace("B=", "B=1")))

        ops = self.run_cycle(workloads.large_operators, 3, self.subdir("ops"), **SMALL_OPS)
        for inv, _, stdout in ops[1:]:
            path = inv.argv[inv.argv.index("--out") + 1]
            _rewrite(path, lambda d: d["grammian"]["matrix"]["entries"][1].__setitem__(1, 1e-3))
            self.assertTrue(inv.check(stdout), inv.argv)

    def test_corrupted_st_operator_is_flagged(self):
        st, _, stdout = self.run_cycle(workloads.dense_reports, 3, self.subdir("dense"), **SMALL_REPORTS)[1]
        path = st.argv[st.argv.index("--out") + 1]
        _rewrite(path, lambda d: d.__setitem__("entries", [[1.01 * re, 1.01 * im] for re, im in d["entries"]]))
        self.assertTrue(any("ST roundtrip" in p for p in st.check(stdout)))

    def test_corrupted_partitions_are_flagged(self):
        for inv, _, stdout in self.run_cycle("partition_large_n", 3, self.subdir("part"), **SMALL["partition_large_n"]):
            out = inv.argv[inv.argv.index("--out") + 1]
            with open(out, "r", encoding="utf-8") as fh:
                original = fh.read()
            _rewrite(out, lambda d: d.__setitem__("classes", [sum(d["classes"], [])]))
            self.assertTrue(any("recomputes to" in p for p in inv.check(stdout)), inv.argv)
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(original)
            _rewrite(out, lambda d: d["classes"][0].append(d["classes"][1][0]))
            self.assertTrue(any("tile" in p for p in inv.check(stdout)), inv.argv)

    def test_verify_reports_must_pass_and_repeat(self):
        memo = {}
        work = self.subdir("verify")
        (inv, rc, stdout), = self.run_cycle("verify_suite", 5, work, memo)
        self.assertEqual(inv.check(stdout), [])
        self.assertIn(5, memo)
        path = inv.argv[inv.argv.index("--out") + 1]
        _rewrite(path, lambda d: d.__setitem__("passed", False))
        problems = inv.check(stdout)
        self.assertTrue(any("passed" in p for p in problems))
        self.assertTrue(any("differ" in p for p in problems))


class Tracing(WorkDir):
    def test_self_times_add_up_and_patches_are_undone(self):
        originals = (cli.main, np.linalg.eigvalsh, hardyframes.verify._CHECKS["st_roundtrip"], cli.szego_gram)
        tracer = tracing.Tracer()
        invs = workloads.partition_large_n(3, self.work, {}, n=40)
        with tracing.installed(tracer), tracer.span("bench.cycle"), contextlib.redirect_stdout(io.StringIO()):
            self.assertIsNot(cli.szego_gram, originals[3])
            for inv in invs:
                self.assertEqual(cli.main(inv.argv), 0)
        self.assertEqual(originals, (cli.main, np.linalg.eigvalsh, hardyframes.verify._CHECKS["st_roundtrip"], cli.szego_gram))
        layer = tracing.summarize(tracer)
        modules = {k for k in layer if k.count(".") == 1 and k.endswith(".self_s")}
        self.assertIn("partition.self_s", modules)
        self.assertAlmostEqual(sum(layer[k] for k in modules), layer["trace.cycle_s"], delta=1e-9)
        self.assertEqual(layer["cli.main.calls"], 2)
        self.assertGreater(layer["io.bytes_written"], 0)
        self.assertGreater(layer["linalg.eig_n3"], 0)
        self.assertTrue(0 < layer["partition.spectral_accept_ratio"] <= 1)


def _record(workload, seed, started, value, failed=0):
    return {"workload": workload, "seed": seed, "trace": 0, "started": started, "failed": failed,
            "metrics": {"cycle_s": {"value": value, "unit": "s"}}}


class CompareMode(unittest.TestCase):
    METRICS = [{"name": "cycle_s", "unit": "s", "better": "lower", "bound": 0.1}]

    def sets(self, parent_values, change_values, failed=0):
        parent, change = [], []
        for i, (p, c) in enumerate(zip(parent_values, change_values)):
            first, second = (2 * i, 2 * i + 1) if i % 2 == 0 else (2 * i + 1, 2 * i)
            parent.append(_record("w", i, first, p))
            change.append(_record("w", i, second, c, failed))
        return parent, change

    def verdict(self, parent_values, change_values, failed=0):
        return compare.compare(*self.sets(parent_values, change_values, failed), self.METRICS)["w"][0]

    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
        self.assertEqual(self.verdict(base, [v * 0.8 for v in base]), "improved")
        self.assertEqual(self.verdict(base, [v * 1.2 for v in base]), "worse")
        self.assertEqual(self.verdict(base, [v * 1.02 for v in base]), "no-worse")
        self.assertEqual(self.verdict(base[:5], [v * 0.8 for v in base[:5]]), "unresolved")
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.6, 1.2, 0.9]
        self.assertEqual(self.verdict(noisy, noisy), "unresolved")
        self.assertEqual(self.verdict(base, base, failed=1), "worse")

    def test_pairs_must_alternate(self):
        parent, change = self.sets([1.0] * 10, [0.5] * 10)
        for i, c in enumerate(change):
            c["started"] = 100 + i
        self.assertEqual(compare.compare(parent, change, self.METRICS)["w"][0], "unresolved")


class Declarations(unittest.TestCase):
    def test_metric_and_workload_names_match_benchmark_json(self):
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOAD_NAMES)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(19))))
        self.assertEqual(run.tail_percentile(list(range(1, 21))), (50.0, 10))
        self.assertEqual(run.tail_percentile(list(range(1, 101)))[0], 90.0)


if __name__ == "__main__":
    unittest.main()
