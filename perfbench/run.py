"""Benchmark of the hardyframes CLI: seeded workloads, end-to-end timings, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 36 --trace 0

One process runs one workload. It drives ``hardyframes.cli.main(argv)``
in-process in a closed loop with one client: each cycle draws fresh inputs
from ``seed + cycle index``, runs its fixed sequence of CLI invocations, then
checks every output with the benchmark's own formulas. The BLAS pool is
pinned to one thread through this process's environment.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles on the same inputs and reports per-layer metrics
plus the tracing overhead. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Cold imports measured at the start of a run, and then after the first cycle
# that ends past each of SETUP_SLOTS equal slices of the run, so that the
# median samples the machine over the whole run as cycle_s does.
SETUP_FIRST, SETUP_SLOTS = 5, 8
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hardyframes; "
    "print(repr(time.perf_counter() - t), hardyframes.__file__)"
)

# Metrics reported in the final JSON line; BENCHMARK.json declares the same names.
# Layer metrics here are the ones defined on every workload (module call counts
# may be 0); the full per-function breakdown is printed as `layer` lines.
END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trace.overhead": "ratio",
    "trace.cycle_s": "s",
    "bench.self_s": "s",
    "cli.self_s": "s",
    "io.self_s": "s",
    "io.write_json_atomic.self_s": "s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "geometry.self_s": "s",
    "geometry.PointSequence.self_s": "s",
    "kernels.self_s": "s",
    "kernels.Grammian.self_s": "s",
    "hermitian.self_s": "s",
    "hermitian.HermitianMatrix.self_s": "s",
    "hermitian.eig_extremes.self_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.eig_n3": "count",
    "frames.calls": "count",
    "operators.calls": "count",
    "partition.calls": "count",
    "verify.calls": "count",
}
# Kept here rather than imported from workloads.py, which imports numpy before
# the BLAS pool is pinned.
WORKLOAD_NAMES = ("verify_suite", "operators_reports", "partition_large_n")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """Highest listed percentile with at least ten samples beyond it, by nearest rank."""
    ordered = sorted(values)
    for p in PERCENTILES:
        if len(ordered) * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-int(p * len(ordered)) // 100))
            return p, ordered[rank - 1]
    return None


def describe(name, values, unit):
    line = f"metric {name} median={statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    line += f" p{tail[0]:g}={tail[1]:.6g} {unit}" if tail else " p-=none"
    return line + f" n={len(values)}"


def environment(seed):
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(repeats):
    """Cold ``import hardyframes`` times, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        ).stdout.split()
        if Path(out[1]).resolve().parent.parent != SRC:
            raise RuntimeError(f"imported hardyframes from {out[1]}, not from {SRC}")
        times.append(float(out[0]))
    return times


class Runner:
    """Runs cycles of one workload and keeps every timing and failure."""

    def __init__(self, cli, workload, workdir):
        import workloads

        self.cli = cli
        self.build = workloads.WORKLOADS[workload]
        self.warmup_sizes = workloads.WARMUP_SIZES[workload]
        self.workdir = workdir
        self.memo = {}
        self.attempted = 0
        self.problems = []

    def invocations(self, seed, **sizes):
        return self.build(seed, self.workdir, self.memo, **sizes)

    def run(self, invocations, tracer=None):
        """Time the invocations back to back, then check their outputs."""
        results = []
        start = time.perf_counter()
        with tracer.span("bench.cycle") if tracer else contextlib.nullcontext():
            for inv in invocations:
                results.append(self._invoke(inv))
        cycle_s = time.perf_counter() - start
        per_command = {}
        for inv, (seconds, rc, stdout, stderr) in zip(invocations, results):
            self.attempted += 1
            per_command[inv.command] = per_command.get(inv.command, 0.0) + seconds
            problems = [f"exit code {rc}: {stderr.strip()[-300:]}"] if rc != 0 else inv.check(stdout)
            if problems:
                self.problems.append((" ".join(inv.argv[:1]), problems))
        return cycle_s, per_command

    def _invoke(self, inv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(inv.argv))
            except Exception:  # a traceback escaping main() is a failed invocation
                rc = "exception"
                err.write(traceback.format_exc())
        return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_workload(args, cli):
    import tracing

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(SETUP_FIRST)
        runner = Runner(cli, args.workload, workdir)
        runner.run(runner.invocations(args.seed, **runner.warmup_sizes))

        cycles, commands, layers = [], {}, []
        start = time.perf_counter()
        deadline = start + args.seconds
        k = probes = 0
        while k == 0 or time.perf_counter() < deadline:
            invocations = runner.invocations(args.seed + k)
            cycle_s, per_command = runner.run(invocations)
            cycles.append(cycle_s)
            for name, seconds in per_command.items():
                commands.setdefault(name, []).append(seconds)
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    runner.run(invocations, tracer)
                layers.append(tracing.summarize(tracer))
            if time.perf_counter() >= start + (probes + 1) * args.seconds / SETUP_SLOTS:
                setup += measure_setup(1)
                probes += 1
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = len(runner.problems)
    for where, problems in runner.problems[:10]:
        print(f"FAILED {where}: {'; '.join(problems)}", file=sys.stderr)

    print(f"workload {args.workload} seed={args.seed} cycles={len(cycles)} trace={args.trace}")
    print(describe("setup_s", setup, "s"))
    print(describe("cycle_s", cycles, "s"))
    for name, values in commands.items():
        print(describe(f"{name}_s", values, "s"))
    print(f"metric peak_rss_mb value={peak_rss_mb:.1f} MB")
    print(f"metric failed_ratio value={failed / runner.attempted:.4g} ({failed}/{runner.attempted} invocations)")

    if args.trace:
        metrics = layer_metrics(cycles, layers)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "cycle_s": statistics.median(cycles),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}, {
        "commands": {f"{name}_s": values for name, values in commands.items()},
        "cycles": cycles,
        "setup": setup,
    }


def layer_metrics(cycles, layers):
    """Median per-cycle layer metrics of the traced cycles, printed in full."""
    names = sorted({key for layer in layers for key in layer})
    median = {key: statistics.median(layer.get(key, 0) for layer in layers) for key in names}
    median["trace.overhead"] = median["trace.cycle_s"] / statistics.median(cycles)
    for key in names:
        print(f"layer {key} {median[key]:.6g}")
    print(f"layer trace.overhead {median['trace.overhead']:.6g} (traced cycle_s / untraced cycle_s)")
    modules = sorted({key.split(".", 1)[0] for key in names if key.count(".") == 1 and key.endswith(".self_s")})
    for layer in layers:
        total = sum(layer.get(f"{m}.self_s", 0.0) for m in modules)
        parts = " + ".join(f"{m}={layer.get(m + '.self_s', 0.0):.4f}" for m in modules)
        print(f"selfsum {parts} = {total:.6f} s; traced cycle_s = {layer['trace.cycle_s']:.6f} s")
    return {name: {"value": median.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result, with environment, as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hardyframes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hardyframes'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import hardyframes.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported hardyframes from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    started = time.time()
    result, detail = run_workload(args, cli)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "started": started, "env": env, **detail, **result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
