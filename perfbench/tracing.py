"""Spans around the package's public functions, installed from outside.

Each wrapped name is patched where its caller looks it up: every module of
the package that bound the function by ``from .x import f``, the entries of
the verifier's check table, the validation hooks of the value classes
(``__post_init__`` / ``__init__``), and ``numpy.linalg.eigvalsh``/``eigh``.
Spans (name, start, end, parent, work) stay in memory until the run ends; self
times and counts are computed from them afterwards.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> public names whose calls become spans named "<module>.<name>".
# Classes are traced through their validation hook.
TARGETS = {
    "cli": ("main",),
    "io": (
        "load_points", "load_json", "matrix_from_json", "grammian_to_json", "operator_to_json",
        "partition_to_json", "suite_report_to_json", "matrix_csv_lines", "partition_csv_lines",
        "write_json_atomic", "write_csv_atomic",
    ),
    "geometry": ("PointSequence", "carleson_constants"),
    "kernels": ("kernel_matrix", "szego_gram", "range_space_gram", "image_gram", "Grammian"),
    "hermitian": ("HermitianMatrix", "eig_extremes", "psd_sqrt", "psd_inverse"),
    "frames": ("analyze",),
    "operators": (
        "PositiveOperator", "projection_phi_H2", "projection_model_space", "projection_c_plus_phi",
        "diagonal_operator", "st_construct", "st_roundtrip_defect", "from_spec",
    ),
    "partition": ("partition_carleson", "partition_spectral", "verify_partition"),
}
EIGENSOLVERS = ("eigvalsh", "eigh")


def _file_size(args, _result):
    return os.path.getsize(args[0])


def _eig_n3(args, _result):
    return int(np.shape(args[0])[-1]) ** 3


def _spectral_sizes(args, result):
    return (args[0].dim, result.class_count)


# span name -> work recorded on return: bytes for I/O, dim^3 for eigensolves.
WORK = {
    "io.load_points": _file_size,
    "io.load_json": _file_size,
    "io.write_json_atomic": _file_size,
    "io.write_csv_atomic": _file_size,
    "linalg.eigvalsh": _eig_n3,
    "linalg.eigh": _eig_n3,
    "partition.partition_spectral": _spectral_sizes,
}


class Tracer:
    """Collects spans in parallel lists of names, start and end times, parent indices and work.

    Only atomic values are stored, so the collector gives the cyclic garbage
    collector nothing to scan however many spans a cycle records.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: list = []
        self._open: list[int] = [-1]

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self.work.append(0)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        begin, end, work, measure = self._begin, self._end, self.work, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if measure is not None:
                work[idx] = measure(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.work))


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "hardyframes" or name.startswith("hardyframes.")]


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block, then restore it."""
    import hardyframes.verify

    undo = []

    def patch(container, key, value, mapping):
        undo.append((container, key, container[key] if mapping else getattr(container, key), mapping))
        if mapping:
            container[key] = value
        else:
            setattr(container, key, value)

    try:
        modules = _package_modules()
        for module, names in TARGETS.items():
            home = sys.modules[f"hardyframes.{module}"]
            for name in names:
                obj = getattr(home, name)
                if isinstance(obj, type):
                    hook = "__post_init__" if "__post_init__" in vars(obj) else "__init__"
                    patch(obj, hook, tracer.wrap(f"{module}.{name}", vars(obj)[hook]), False)
                    continue
                wrapped = tracer.wrap(f"{module}.{name}", obj)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is obj:
                            patch(mod, key, wrapped, False)
        checks = hardyframes.verify._CHECKS
        for check_id, fn in list(checks.items()):
            patch(checks, check_id, tracer.wrap(f"verify.{check_id}", fn), True)
        for name in EIGENSOLVERS:
            patch(np.linalg, name, tracer.wrap(f"linalg.{name}", getattr(np.linalg, name)), False)
        yield tracer
    finally:
        for container, key, original, mapping in reversed(undo):
            if mapping:
                container[key] = original
            else:
                setattr(container, key, original)


def summarize(tracer: Tracer) -> dict:
    """Per-cycle layer metrics from the spans of one traced cycle.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread), so children never overlap,
    and the self times of all spans add up to the root span's duration,
    reported as ``trace.cycle_s``.
    """
    spans = tracer.spans()
    child_time = [0.0] * len(spans)
    child_eigs = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name.startswith("linalg."):
                child_eigs[parent] += 1

    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    accepted = greedy = 0
    for i, (name, start, end, parent, work) in enumerate(spans):
        if parent < 0:
            add("trace.cycle_s", end - start)
        self_s = end - start - child_time[i]
        module = name.split(".", 1)[0]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"{module}.calls", 1)
        add(f"{module}.self_s", self_s)
        if module == "linalg":
            add("linalg.eig_calls", 1)
            add("linalg.eig_s", end - start)
            add("linalg.eig_n3", work)
        elif name in ("io.write_json_atomic", "io.write_csv_atomic"):
            add("io.bytes_written", work)
        elif name in ("io.load_points", "io.load_json"):
            add("io.bytes_read", work)
        elif name == "partition.partition_spectral" and work:
            n, classes = work
            accepted += n - classes
            greedy += child_eigs[i] - classes
    if greedy:
        out["partition.spectral_accept_ratio"] = accepted / greedy
    return out
