"""The benchmark's tracer patches package names from outside; keep them resolvable.

``perfbench/tracing.py`` is loaded from the checkout as it stands and run
around one small ``gram``, so renaming or dropping a traced function, or a
value class's validation hook, shows up here rather than as a broken
benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import hardyframes.cli as cli
import hardyframes.hermitian as hermitian
import hardyframes.kernels as kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names():
    return (
        cli.main, cli.szego_gram, np.linalg.eigvalsh, np.linalg.eigh,
        vars(kernels.Grammian)["__post_init__"], vars(hermitian.HermitianMatrix)["__init__"],
    )


def test_traced_gram_records_spans_and_restores_originals(tmp_path):
    tracing = load_tracing()
    for module, names in tracing.TARGETS.items():
        home = sys.modules[f"hardyframes.{module}"]
        for name in names:
            assert hasattr(home, name), f"hardyframes.{module}.{name}"

    originals = patched_names()
    pts = tmp_path / "points.json"
    pts.write_text("[[0.0, 0.0], [0.6, 0.0], [0.0, 0.5]]", encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.main(["gram", "--points", str(pts)]) == 0
    assert "kernels.szego_gram" in tracer.names
    assert "linalg.eigvalsh" in tracer.names
    assert patched_names() == originals
