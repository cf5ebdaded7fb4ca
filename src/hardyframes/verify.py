"""Randomized verification suite for the operator-kernel identities.

Five families of seeded spot checks, each comparing an implementation path
against an independently computed prediction:

- ``toeplitz_covariance``: the Grammian of projected kernels under a
  multiplication-range projection equals the diagonal congruence of the
  closed-form Grammian by the symbol values.
- ``loewner_chain``: three projection constructions that contain a
  multiplication range dominate it and are dominated by the identity in
  the Loewner order; per-point norms obey the sandwich
  |phi(z)| <= ||P k~_z|| <= 1.
- ``st_roundtrip``: the inverse construction realizes a prescribed PSD
  Grammian up to truncation and honors the diagonal floor.
- ``diag_sandwich``: an operator squeezed between alpha D and beta D has
  kernel-Grammian eigenvalues squeezed by the same factors, and its
  quadratic form obeys the two-sided bound pointwise.
- ``weighted_hardy``: range-space Grammians of diagonal weight operators
  with geometric weights match the closed-form weighted kernel.

Every trial is reproduced exactly by (seed, check, trial); failures carry a
serialized witness. Reports for a fixed configuration are byte-identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalidError
from .geometry import PointSequence, carleson_constants
from .kernels import TruncationContext, kernel_matrix, range_space_gram, image_gram, szego_gram
from .operators import (
    InnerFunction,
    PositiveOperator,
    diagonal_operator,
    evaluate_inner,
    projection_c_plus_phi,
    projection_monomial_span,
    projection_phi_H2,
    st_construct,
    st_roundtrip_defect,
    taylor_coefficients,
)

CHECK_IDS = (
    "toeplitz_covariance",
    "loewner_chain",
    "st_roundtrip",
    "diag_sandwich",
    "weighted_hardy",
)

POINT_FAMILIES = ("uniform_disk", "radial_geometric", "carleson_separated", "clustered")

DEFAULT_TOLERANCES = {
    "toeplitz_covariance": 1e-6,
    "loewner_chain": 1e-8,
    "norm_sandwich": 1e-6,
    "st_roundtrip": 1e-6,
    "st_norm_floor": 1e-8,
    "diag_sandwich": 1e-10,
    "weighted_hardy": 1e-8,
}


@dataclass(frozen=True)
class SuiteConfig:
    """Seed, trial count, truncation order, point families, tolerance overrides."""

    seed: int = 42
    trials: int = 20
    order: int = 256
    point_families: tuple[str, ...] = POINT_FAMILIES
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigInvalidError(f"trials must be >= 1, got {self.trials}")
        if self.order < 8:
            raise ConfigInvalidError(f"truncation order {self.order} is too small to test")
        if not self.point_families:
            raise ConfigInvalidError("at least one point family is required")
        for fam in self.point_families:
            if fam not in POINT_FAMILIES:
                raise ConfigInvalidError(f"unknown point family {fam!r}")
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigInvalidError(f"unknown tolerance key {key!r}")
            if value < 0.0:
                raise ConfigInvalidError(f"tolerance {key} must be nonnegative, got {value}")

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    trials: int
    failures: int
    worst_violation: float
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rng(cfg: SuiteConfig, check_id: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, CHECK_IDS.index(check_id), trial])


# ---------------------------------------------------------------------------
# point families


def sample_uniform_disk(rng, count: int, max_modulus: float = 0.9) -> list[complex]:
    out: list[complex] = []
    while len(out) < count:
        z = complex(rng.uniform(-max_modulus, max_modulus), rng.uniform(-max_modulus, max_modulus))
        if abs(z) <= max_modulus and z not in out:
            out.append(z)
    return out


def sample_radial_geometric(rng, count: int, max_modulus: float = 0.9) -> list[complex]:
    """Radii 1 - ratio^k marching toward the boundary, capped, random angles."""
    ratio = float(rng.uniform(0.45, 0.7))
    out: list[complex] = []
    for k in range(1, count + 1):
        r = min(1.0 - ratio**k, max_modulus)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        out.append(r * np.exp(1j * theta))
    return out


def sample_carleson_separated(
    rng, count: int, min_infimum: float = 0.3, max_modulus: float = 0.9
) -> list[complex]:
    """Jittered ring configurations with a certified separation infimum.

    Points near the boundary are cheap to separate (the hyperbolic
    circumference blows up), so a ring with angular jitter reaches
    infimum >= 0.3 even at a dozen points; draws are retried until the
    certificate holds.
    """
    if count == 1:
        return [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))]
    for _ in range(200):
        radius = float(rng.uniform(0.84, max_modulus))
        base = float(rng.uniform(0.0, 2.0 * np.pi))
        step = 2.0 * np.pi / count
        pts = []
        for k in range(count):
            theta = base + k * step + float(rng.uniform(-0.15, 0.15)) * step
            r = radius * (1.0 + float(rng.uniform(-0.02, 0.02)))
            pts.append(min(r, max_modulus) * np.exp(1j * theta))
        report = carleson_constants(PointSequence(tuple(pts)))
        if report.infimum >= min_infimum:
            return pts
    raise RuntimeError(f"could not sample {count} points with separation {min_infimum}")


def sample_clustered(rng, count: int, max_modulus: float = 0.9) -> list[complex]:
    center = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    out: list[complex] = []
    while len(out) < count:
        offset = complex(rng.normal(0.0, 0.06), rng.normal(0.0, 0.06))
        z = center + offset
        if abs(z) <= max_modulus and z not in out:
            out.append(z)
    return out


_FAMILY_SAMPLERS = {
    "uniform_disk": sample_uniform_disk,
    "radial_geometric": sample_radial_geometric,
    "carleson_separated": sample_carleson_separated,
    "clustered": sample_clustered,
}


def _family_points(cfg: SuiteConfig, rng, trial: int, count: int, max_modulus: float = 0.9):
    fam = cfg.point_families[trial % len(cfg.point_families)]
    return _FAMILY_SAMPLERS[fam](rng, count, max_modulus=max_modulus), fam


def _random_blaschke(rng, max_zeros: int = 5, max_radius: float = 0.8, allow_power: bool = True) -> InnerFunction:
    n_zeros = int(rng.integers(1, max_zeros + 1))
    zeros: list[complex] = []
    while len(zeros) < n_zeros:
        a = complex(rng.uniform(-max_radius, max_radius), rng.uniform(-max_radius, max_radius))
        if 0.05 < abs(a) <= max_radius:
            zeros.append(a)
    power = int(rng.integers(0, 2)) if allow_power else 0
    return InnerFunction(tuple(zeros), 1.0, power)


def _pairs(values) -> list[list[float]]:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


# ---------------------------------------------------------------------------
# individual checks


def check_toeplitz_covariance(cfg: SuiteConfig) -> CheckResult:
    """Projected-kernel Grammian vs. symbol-value congruence of the closed form."""
    tol = cfg.tol("toeplitz_covariance")
    ctx = TruncationContext(cfg.order, 64)
    worst = -np.inf
    failures = 0
    witness = None
    for trial in range(cfg.trials):
        rng = _rng(cfg, "toeplitz_covariance", trial)
        pts, fam = _family_points(cfg, rng, trial, int(rng.integers(2, 9)))
        seq = PointSequence(tuple(pts))
        phi = _random_blaschke(rng)
        proj = projection_phi_H2(phi, ctx)
        lhs = image_gram(proj, seq, ctx).matrix.matrix
        values = np.array([evaluate_inner(phi, z) for z in seq.points])
        rhs = szego_gram(seq).matrix.matrix * np.outer(values, np.conj(values))
        defect = float(np.abs(lhs - rhs).max())
        worst = max(worst, defect)
        if defect > tol:
            failures += 1
            if witness is None or defect > witness["defect"]:
                witness = {
                    "trial": trial,
                    "family": fam,
                    "points": _pairs(seq.points),
                    "zeros": _pairs(phi.zeros),
                    "monomial_power": phi.monomial_power,
                    "defect": defect,
                }
    return CheckResult("toeplitz_covariance", cfg.trials, failures, worst, witness)


def _span_complement(columns: np.ndarray) -> PositiveOperator:
    """I minus the orthogonal projection onto the column span, as I - Q Q*."""
    q, _ = np.linalg.qr(columns)
    return PositiveOperator(-np.eye(q.shape[1]), "span_complement", "custom", basis=q, shift=1.0)


def _loewner_instance(rng, trial: int, ctx: TruncationContext):
    """One of three projection constructions containing a multiplication range."""
    kind = trial % 3
    if kind == 0:
        count = int(rng.integers(1, 4))
        excluded = sorted(int(j) for j in rng.choice(6, size=count, replace=False))
        op = projection_monomial_span(excluded, ctx.order)
        phi = InnerFunction((), 1.0, max(excluded) + 1)
        return op, phi, "monomial_span"
    if kind == 1:
        phi = _random_blaschke(rng, max_zeros=3, max_radius=0.7, allow_power=False)
        op = projection_c_plus_phi(phi, ctx)
        return op, phi, "constants_plus_range"
    inner_count = int(rng.integers(1, 3))
    factors = [_random_blaschke(rng, max_zeros=2, max_radius=0.7, allow_power=False)
               for _ in range(inner_count)]
    cols = np.stack(
        [taylor_coefficients(f, ctx.order) for f in factors], axis=1
    )
    op = _span_complement(cols)
    zeros = tuple(a for f in factors for a in f.zeros)
    phi = InnerFunction(zeros, 1.0, 1 + sum(f.monomial_power for f in factors))
    return op, phi, "inner_span_complement"


def check_loewner_chain(cfg: SuiteConfig) -> CheckResult:
    """G_phi <= G_P <= G for projections whose range contains phi H^2."""
    tol_chain = cfg.tol("loewner_chain")
    tol_norm = cfg.tol("norm_sandwich")
    ctx = TruncationContext(cfg.order, 64)
    worst = -np.inf
    failures = 0
    witness = None
    for trial in range(cfg.trials):
        rng = _rng(cfg, "loewner_chain", trial)
        op, phi, tag = _loewner_instance(rng, trial, ctx)
        count = int(rng.integers(2, 7))
        moduli = rng.uniform(0.5, 0.9, size=count)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        seq = PointSequence(tuple(moduli * np.exp(1j * angles)))

        g_phi = image_gram(projection_phi_H2(phi, ctx), seq, ctx).matrix.matrix
        g_p = image_gram(op, seq, ctx).matrix.matrix
        g_full = szego_gram(seq).matrix.matrix

        lower = -float(np.linalg.eigvalsh(g_p - g_phi)[0])
        upper = -float(np.linalg.eigvalsh(g_full - g_p)[0])
        norms = np.sqrt(np.clip(np.real(np.diagonal(g_p)), 0.0, None))
        symbol = np.abs([evaluate_inner(phi, z) for z in seq.points])
        sandwich = float(np.max(np.maximum(symbol - norms, norms - 1.0)))

        defect = max(lower, upper, sandwich)
        worst = max(worst, defect)
        if lower > tol_chain or upper > tol_chain or sandwich > tol_norm:
            failures += 1
            if witness is None or defect > witness["defect"]:
                witness = {
                    "trial": trial,
                    "construction": tag,
                    "points": _pairs(seq.points),
                    "zeros": _pairs(phi.zeros),
                    "monomial_power": phi.monomial_power,
                    "chain_lower": lower,
                    "chain_upper": upper,
                    "norm_sandwich": sandwich,
                    "defect": defect,
                }
    return CheckResult("loewner_chain", cfg.trials, failures, worst, witness)


def check_st_roundtrip(cfg: SuiteConfig) -> CheckResult:
    """Prescribed PSD Grammians are realized by the inverse construction."""
    tol = cfg.tol("st_roundtrip")
    tol_floor = cfg.tol("st_norm_floor")
    delta = 0.2
    ctx = TruncationContext(cfg.order, 64)
    worst = -np.inf
    failures = 0
    witness = None
    for trial in range(cfg.trials):
        rng = _rng(cfg, "st_roundtrip", trial)
        count = int(rng.integers(2, 13))
        pts = sample_carleson_separated(rng, count, min_infimum=0.3)
        seq = PointSequence(tuple(pts))
        raw = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
        base = raw @ raw.conj().T / count
        top = float(np.real(np.diagonal(base)).max())
        q = 0.8 * base / top + delta * np.eye(count)

        op = st_construct(q, seq, ctx, delta)
        defect, min_norm_sq = st_roundtrip_defect(op, q, seq, ctx)
        floor_violation = (delta - tol_floor) - min_norm_sq
        trial_worst = max(defect, floor_violation)
        worst = max(worst, trial_worst)
        if defect > tol or floor_violation > 0.0:
            failures += 1
            if witness is None or trial_worst > witness["defect"]:
                witness = {
                    "trial": trial,
                    "points": _pairs(seq.points),
                    "q": [_pairs(row) for row in q],
                    "delta": delta,
                    "roundtrip": defect,
                    "min_norm_sq": min_norm_sq,
                    "defect": trial_worst,
                }
    return CheckResult("st_roundtrip", cfg.trials, failures, worst, witness)


def check_diag_sandwich(cfg: SuiteConfig) -> CheckResult:
    """alpha D <= P <= beta D squeezes quadratic forms and kernel Grammians."""
    tol = cfg.tol("diag_sandwich")
    ctx = TruncationContext(cfg.order, 64)
    worst = -np.inf
    failures = 0
    witness = None
    for trial in range(cfg.trials):
        rng = _rng(cfg, "diag_sandwich", trial)
        n = cfg.order
        alpha = float(rng.uniform(0.2, 0.8))
        beta = float(rng.uniform(alpha + 0.2, 2.0))
        weights = rng.uniform(0.3, 1.0, size=n)
        d_half = np.sqrt(weights)

        # P = D^(1/2) M D^(1/2) with spec(M) inside [alpha, beta], so the
        # sandwich constants are exact by construction and reverified below.
        unitary, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        spectrum = rng.uniform(alpha, beta, size=n)
        spectrum[0], spectrum[-1] = alpha, beta
        mid = (unitary * spectrum) @ unitary.conj().T
        p = (d_half[:, None] * mid) * d_half[None, :]
        p = (p + p.conj().T) / 2.0

        mid_eigs = np.linalg.eigvalsh(mid)
        verify_defect = max(alpha - float(mid_eigs[0]), float(mid_eigs[-1]) - beta)

        vectors = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
        pd_forms = np.real(np.einsum("ij,ij->j", np.conj(vectors), weights[:, None] * vectors))
        pp_forms = np.real(np.einsum("ij,ij->j", np.conj(vectors), p @ vectors))
        scale = float(np.max(pd_forms))
        quad = float(np.max(np.maximum(alpha * pd_forms - pp_forms, pp_forms - beta * pd_forms)))

        count = int(rng.integers(2, 7))
        pts, fam = _family_points(cfg, rng, trial, count)
        seq = PointSequence(tuple(pts))
        v = kernel_matrix(seq, ctx, normalize=True)
        g_d = v.conj().T @ (weights[:, None] * v)
        g_p = v.conj().T @ (p @ v)
        gd_eigs = np.linalg.eigvalsh((g_d + g_d.conj().T) / 2.0)
        gp_eigs = np.linalg.eigvalsh((g_p + g_p.conj().T) / 2.0)
        gram_defect = max(
            alpha * float(gd_eigs[0]) - float(gp_eigs[0]),
            float(gp_eigs[-1]) - beta * float(gd_eigs[-1]),
        )

        defect = max(verify_defect, quad / scale, gram_defect)
        worst = max(worst, defect)
        if defect > tol:
            failures += 1
            if witness is None or defect > witness["defect"]:
                witness = {
                    "trial": trial,
                    "family": fam,
                    "alpha": alpha,
                    "beta": beta,
                    "points": _pairs(seq.points),
                    "quad_violation": quad / scale,
                    "gram_violation": gram_defect,
                    "defect": defect,
                }
    return CheckResult("diag_sandwich", cfg.trials, failures, worst, witness)


def check_weighted_hardy(cfg: SuiteConfig) -> CheckResult:
    """Geometric diagonal weights reproduce the closed-form weighted kernel."""
    tol = cfg.tol("weighted_hardy")
    ctx = TruncationContext(cfg.order, 64)
    worst = -np.inf
    failures = 0
    witness = None
    for trial in range(cfg.trials):
        rng = _rng(cfg, "weighted_hardy", trial)
        s = 0.0 if trial % 10 == 9 else float(rng.uniform(0.05, 0.9))
        count = int(rng.integers(2, 7))
        pts, fam = _family_points(cfg, rng, trial, count)
        seq = PointSequence(tuple(pts))

        weights = s ** np.arange(cfg.order, dtype=np.float64)
        op = diagonal_operator(weights)
        lhs = range_space_gram(op, seq, ctx).matrix.matrix

        z = seq.values()
        closed = 1.0 / (1.0 - s * z[:, None] * np.conj(z)[None, :])
        norms = np.sqrt(np.real(np.diagonal(closed)))
        rhs = closed / np.outer(norms, norms)
        defect = float(np.abs(lhs - rhs).max())
        worst = max(worst, defect)
        if defect > tol:
            failures += 1
            if witness is None or defect > witness["defect"]:
                witness = {
                    "trial": trial,
                    "family": fam,
                    "ratio": s,
                    "points": _pairs(seq.points),
                    "defect": defect,
                }
    return CheckResult("weighted_hardy", cfg.trials, failures, worst, witness)


_CHECKS = {
    "toeplitz_covariance": check_toeplitz_covariance,
    "loewner_chain": check_loewner_chain,
    "st_roundtrip": check_st_roundtrip,
    "diag_sandwich": check_diag_sandwich,
    "weighted_hardy": check_weighted_hardy,
}


def run_suite(cfg: SuiteConfig) -> tuple[CheckResult, ...]:
    """Run every check under one seed; aggregate pass means zero failures."""
    cfg.validate()
    return tuple(_CHECKS[check_id](cfg) for check_id in CHECK_IDS)


def suite_passed(results) -> bool:
    return all(r.failures == 0 for r in results)
