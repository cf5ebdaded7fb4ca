"""Seeded input generation for the benchmark workloads.

Every input is drawn from the benchmark's own numpy ``Generator`` and never
from the package's samplers, so a change to the package cannot change what
the benchmark feeds it. Files are written as compact JSON of Python floats
(shortest round-trip repr), so the same seed gives byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

# One independent stream per kind of input drawn in a cycle.
STREAMS = {
    "st_points": 1,
    "st_q": 2,
    "gram_points": 3,
    "blaschke": 4,
    "weights": 5,
    "partition_points": 6,
    "dense_points": 7,
    "custom": 8,
}


def rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream]])


def _distinct(z: np.ndarray) -> np.ndarray:
    if len(set(complex(v) for v in z)) != len(z):
        raise RuntimeError("generated points are not distinct")
    return z


def uniform_disk(gen: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Points uniform in the closed disk |z| <= radius (area measure)."""
    r = radius * np.sqrt(gen.uniform(0.0, 1.0, size=count))
    theta = gen.uniform(0.0, 2.0 * np.pi, size=count)
    return _distinct(r * np.exp(1j * theta))


def boundary_clusters(gen: np.random.Generator, count: int, clusters: int = 6) -> np.ndarray:
    """Tight Gaussian clusters centred at radius 0.9-0.96, kept inside |z| <= 0.985."""
    centres = gen.uniform(0.9, 0.96, size=clusters) * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, size=clusters))
    out = np.empty(count, dtype=np.complex128)
    filled = 0
    while filled < count:
        c = centres[filled % clusters]
        z = c + complex(gen.normal(0.0, 0.01), gen.normal(0.0, 0.01))
        if abs(z) <= 0.985:
            out[filled] = z
            filled += 1
    return _distinct(out)


def log_rho(z: np.ndarray) -> np.ndarray:
    """log of the pairwise pseudo-hyperbolic distances, zero on the diagonal."""
    diff = np.abs(z[:, None] - z[None, :])
    denom = np.abs(1.0 - np.conj(z)[:, None] * z[None, :])
    np.fill_diagonal(diff, 1.0)
    np.fill_diagonal(denom, 1.0)
    return np.log(diff / denom)


def separated_ring(gen: np.random.Generator, count: int, min_product: float = 0.3) -> np.ndarray:
    """A jittered ring whose separation products all clear ``min_product``."""
    for _ in range(200):
        radius = gen.uniform(0.84, 0.9)
        base = gen.uniform(0.0, 2.0 * np.pi)
        step = 2.0 * np.pi / count
        theta = base + step * (np.arange(count) + gen.uniform(-0.15, 0.15, size=count))
        r = np.minimum(radius * (1.0 + gen.uniform(-0.02, 0.02, size=count)), 0.9)
        z = r * np.exp(1j * theta)
        if log_rho(z).sum(axis=1).min() >= np.log(min_product):
            return _distinct(z)
    raise RuntimeError(f"no separated ring of {count} points found")


def psd_target(gen: np.random.Generator, n: int, floor: float = 0.2) -> np.ndarray:
    """Exactly Hermitian PSD matrix with every diagonal entry >= ``floor``."""
    raw = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    base = raw @ raw.conj().T / n
    q = 0.8 * base / np.real(np.diagonal(base)).max() + floor * np.eye(n)
    return hermitian(q)


def dense_psd(gen: np.random.Generator, n: int) -> np.ndarray:
    """Dense positive definite matrix with spectrum roughly in [0.05, 4.05]."""
    x = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    return hermitian(x @ x.conj().T / (2.0 * n) + 0.05 * np.eye(n))


def hermitian(m: np.ndarray) -> np.ndarray:
    """Symmetrize so that entry (j, i) is exactly the conjugate of entry (i, j)."""
    upper = np.triu(m)
    out = upper + np.triu(m, 1).conj().T
    np.fill_diagonal(out, np.real(np.diagonal(m)))
    return out


def blaschke(gen: np.random.Generator, max_zeros: int = 5, max_radius: float = 0.8) -> dict:
    """Inner-function spec: 1 to ``max_zeros`` zeros in 0.05 < |a| <= max_radius, z^m with m in {0, 1}."""
    count = int(gen.integers(1, max_zeros + 1))
    zeros = []
    while len(zeros) < count:
        a = complex(gen.uniform(-max_radius, max_radius), gen.uniform(-max_radius, max_radius))
        if 0.05 < abs(a) <= max_radius:
            zeros.append(a)
    return {"zeros": pairs(zeros), "m": int(gen.integers(0, 2))}


def pairs(values) -> list[list[float]]:
    v = np.asarray(values, dtype=np.complex128).ravel()
    return np.column_stack([v.real, v.imag]).tolist()


def points_doc(z: np.ndarray) -> dict:
    return {"points": pairs(z)}


def matrix_doc(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": pairs(m)}


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
