"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """Shapes of the matrices handed to numpy's Hermitian eigensolvers, in call order."""
    shapes = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return shapes
